"""Triple store primitives for intent knowledge graphs.

Covers two wire formats: N-Triples and a Turtle subset (``@prefix``
directives, prefixed names, ``<IRI>`` references, typed literals and ``.``
terminators). Blank nodes, collections and language tags are out of scope.
The three-byte token ``???`` is accepted as a whole term and denotes an
unfilled slot in an intent template; slot ids are assigned in document
order starting at 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class RdfError(Exception):
    """Base class for RDF layer failures."""


class ParseError(RdfError):
    """Syntax or resolution failure, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class PrefixError(RdfError):
    """A prefixed name cannot be resolved against the prefix map."""


class VocabError(RdfError):
    """A term or triple references something outside the vocabulary."""


class TermKind(Enum):
    IRI = "iri"
    LITERAL = "literal"
    PLACEHOLDER = "placeholder"


@dataclass(frozen=True)
class Term:
    """One node of a triple.

    ``text`` holds a prefixed name or full IRI for IRI terms and the
    lexical form for literals. ``datatype`` keeps the datatype token
    exactly as written (``xsd:string`` or ``<...>``). ``slot`` is only
    meaningful for placeholders. ``prefixed`` records whether an IRI was
    written as a prefixed name; equality is lexical, so ``icm:X`` and its
    expansion are distinct terms.
    """

    kind: TermKind
    text: str = ""
    datatype: str | None = None
    slot: int = -1
    prefixed: bool = False

    @classmethod
    def iri(cls, text: str, prefixed: bool | None = None) -> "Term":
        if prefixed is None:
            prefixed = ":" in text and "://" not in text
        return cls(TermKind.IRI, text=text, prefixed=prefixed)

    @classmethod
    def literal(cls, text: str, datatype: str | None = None) -> "Term":
        return cls(TermKind.LITERAL, text=text, datatype=datatype)

    @classmethod
    def placeholder(cls, slot: int) -> "Term":
        if slot < 0:
            raise ValueError("slot id must be non-negative")
        return cls(TermKind.PLACEHOLDER, slot=slot)

    @property
    def is_iri(self) -> bool:
        return self.kind is TermKind.IRI

    @property
    def is_literal(self) -> bool:
        return self.kind is TermKind.LITERAL

    @property
    def is_placeholder(self) -> bool:
        return self.kind is TermKind.PLACEHOLDER

    def __str__(self) -> str:
        return term_to_text(self)


@dataclass(frozen=True)
class Triple:
    head: Term
    relation: Term
    tail: Term

    def __post_init__(self):
        if not self.relation.is_iri:
            raise ValueError("relation must be an IRI term")
        if self.head.is_literal:
            raise ValueError("literal not allowed in subject position")

    @property
    def placeholder_count(self) -> int:
        return sum(1 for t in (self.head, self.tail) if t.is_placeholder)

    def __str__(self) -> str:
        return f"{self.head} {self.relation} {self.tail} ."


_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_LITERAL_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def escape_literal(text: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in text)


def _unescape_literal(raw: str, line: int, col: int) -> str:
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ParseError("dangling escape in literal", line, col)
        nxt = raw[i + 1]
        if nxt in _LITERAL_UNESCAPES:
            out.append(_LITERAL_UNESCAPES[nxt])
            i += 2
        elif nxt in ("u", "U"):
            width = 4 if nxt == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                raise ParseError("malformed unicode escape in literal", line, col)
            out.append(chr(int(hexpart, 16)))
            i += 2 + width
        else:
            raise ParseError(f"unsupported escape '\\{nxt}' in literal", line, col)
    return "".join(out)


def term_to_text(term: Term) -> str:
    """Render one term as its Turtle-subset token."""
    if term.kind is TermKind.PLACEHOLDER:
        return "???"
    if term.kind is TermKind.IRI:
        return term.text if term.prefixed else f"<{term.text}>"
    body = f'"{escape_literal(term.text)}"'
    return body if term.datatype is None else f"{body}^^{term.datatype}"


def term_from_text(token: str) -> Term:
    """Inverse of :func:`term_to_text` for IRI and literal tokens."""
    token = token.strip()
    if token == "???":
        raise ValueError("placeholder token carries no slot id in isolation")
    if token.startswith("<") and token.endswith(">"):
        return Term.iri(token[1:-1], prefixed=False)
    if token.startswith('"'):
        m = re.fullmatch(r'"((?:[^"\\]|\\.)*)"(?:\^\^(\S+))?', token, re.S)
        if m is None:
            raise ValueError(f"malformed literal token: {token!r}")
        return Term.literal(_unescape_literal(m.group(1), 0, 0), m.group(2))
    return Term.iri(token, prefixed=True)


class Graph:
    """Immutable ordered triple set with a prefix map.

    Duplicates collapse on construction; ``duplicates_collapsed`` reports
    how many were dropped. Every prefixed name used by a triple must
    resolve via ``prefix_map``.
    """

    __slots__ = ("triples", "prefix_map", "duplicates_collapsed", "_index")

    def __init__(self, triples=(), prefix_map: dict[str, str] | None = None):
        prefix_map = dict(prefix_map or {})
        kept: list[Triple] = []
        seen: set[Triple] = set()
        dropped = 0
        for t in triples:
            if t in seen:
                dropped += 1
                continue
            seen.add(t)
            kept.append(t)
        for t in kept:
            for term in (t.head, t.relation, t.tail):
                _check_resolvable(term, prefix_map)
        object.__setattr__(self, "triples", tuple(kept))
        object.__setattr__(self, "prefix_map", prefix_map)
        object.__setattr__(self, "duplicates_collapsed", dropped)
        object.__setattr__(self, "_index", seen)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def contains(self, triple: Triple) -> bool:
        return triple in self._index

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._index

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._index == other._index and self.prefix_map == other.prefix_map

    def __repr__(self) -> str:
        return f"Graph({len(self.triples)} triples, {len(self.prefix_map)} prefixes)"

    @property
    def has_placeholders(self) -> bool:
        return any(t.placeholder_count for t in self.triples)

    def expand_iri(self, term: Term) -> str:
        """Full IRI string for an IRI term, resolving prefixed names."""
        if not term.is_iri:
            raise ValueError("only IRI terms can be expanded")
        if not term.prefixed:
            return term.text
        prefix, _, local = term.text.partition(":")
        if prefix not in self.prefix_map:
            raise PrefixError(f"unresolved prefix '{prefix}:'")
        return self.prefix_map[prefix] + local


def _check_resolvable(term: Term, prefix_map: dict[str, str]) -> None:
    if term.is_iri and term.prefixed:
        prefix = term.text.partition(":")[0]
        if prefix not in prefix_map:
            raise PrefixError(f"unresolved prefix '{prefix}:' in term {term.text}")
    if term.is_literal and term.datatype and not term.datatype.startswith("<"):
        prefix = term.datatype.partition(":")[0]
        if prefix not in prefix_map:
            raise PrefixError(f"unresolved prefix '{prefix}:' in datatype {term.datatype}")


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<prefix_kw>@prefix\b)
    | (?P<iriref><[^<>\n]*>)
    | (?P<placeholder>\?\?\?)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<pname>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)
    | (?P<dot>\.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    col: int


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.tokens = list(self._scan())
        self.pos = 0

    def _scan(self):
        line = 1
        line_start = 0
        offset = 0
        n = len(self.text)
        while offset < n:
            m = _TOKEN_RE.match(self.text, offset)
            if m is None:
                raise ParseError(
                    f"unexpected character {self.text[offset]!r}",
                    line,
                    offset - line_start + 1,
                )
            kind = m.lastgroup
            value = m.group()
            col = offset - line_start + 1
            if kind not in ("ws", "comment"):
                yield _Token(kind, value, line, col)
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = offset + value.rindex("\n") + 1
            offset = m.end()
        yield _Token("eof", "", line, n - line_start + 1)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok


NTRIPLES = "ntriples"
TURTLE = "turtle"
_FORMATS = (NTRIPLES, TURTLE, "turtle_subset")


def parse(text: str, format: str = TURTLE) -> Graph:
    """Parse a document into a Graph.

    Placeholders receive slot ids in document order. Prefixed names must
    resolve against a previously seen ``@prefix`` directive; N-Triples
    input allows neither directives nor prefixed names.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    allow_prefixes = format != NTRIPLES
    scanner = _Scanner(text)
    prefix_map: dict[str, str] = {}
    triples: list[Triple] = []
    next_slot = 0

    def fail(tok: _Token, message: str):
        raise ParseError(message, tok.line, tok.col)

    def read_iri(tok: _Token) -> Term:
        if tok.kind == "iriref":
            return Term.iri(tok.value[1:-1], prefixed=False)
        if tok.kind == "pname":
            if not allow_prefixes:
                fail(tok, "prefixed names are not allowed in N-Triples")
            prefix = tok.value.partition(":")[0]
            if prefix not in prefix_map:
                fail(tok, f"unresolved prefix '{prefix}:'")
            return Term.iri(tok.value, prefixed=True)
        fail(tok, f"expected an IRI, got {tok.value!r}")

    def read_term(position: str) -> Term:
        nonlocal next_slot
        tok = scanner.next()
        if tok.kind == "eof":
            fail(tok, "unexpected end of input inside statement")
        if tok.kind == "placeholder":
            if position == "relation":
                fail(tok, "placeholder not allowed in relation position")
            term = Term.placeholder(next_slot)
            next_slot += 1
            return term
        if tok.kind == "string":
            if position == "head":
                fail(tok, "literal not allowed in subject position")
            if position == "relation":
                fail(tok, "literal not allowed in relation position")
            lexical = _unescape_literal(tok.value[1:-1], tok.line, tok.col)
            datatype = None
            if scanner.peek().kind == "dtsep":
                scanner.next()
                dtok = scanner.next()
                if dtok.kind == "iriref":
                    datatype = dtok.value
                elif dtok.kind == "pname" and allow_prefixes:
                    prefix = dtok.value.partition(":")[0]
                    if prefix not in prefix_map:
                        fail(dtok, f"unresolved prefix '{prefix}:'")
                    datatype = dtok.value
                else:
                    fail(dtok, "expected a datatype IRI after '^^'")
            return Term.literal(lexical, datatype)
        return read_iri(tok)

    while True:
        tok = scanner.peek()
        if tok.kind == "eof":
            break
        if tok.kind == "prefix_kw":
            if not allow_prefixes:
                fail(tok, "@prefix is not allowed in N-Triples")
            scanner.next()
            ptok = scanner.next()
            if ptok.kind != "pname" or ptok.value.partition(":")[2]:
                fail(ptok, "expected a 'prefix:' label after @prefix")
            itok = scanner.next()
            if itok.kind != "iriref":
                fail(itok, "expected an <IRI> in @prefix directive")
            dot = scanner.next()
            if dot.kind != "dot":
                fail(dot, "expected '.' after @prefix directive")
            prefix_map[ptok.value[:-1]] = itok.value[1:-1]
            continue
        head = read_term("head")
        relation = read_term("relation")
        tail = read_term("tail")
        dot = scanner.next()
        if dot.kind != "dot":
            fail(dot, "expected '.' after triple")
        triples.append(Triple(head, relation, tail))

    return Graph(triples, prefix_map)


def _ntriples_term(term: Term, graph: Graph) -> str:
    if term.is_placeholder:
        return "???"
    if term.is_iri:
        return f"<{graph.expand_iri(term)}>"
    body = f'"{escape_literal(term.text)}"'
    if term.datatype is None:
        return body
    if term.datatype.startswith("<"):
        return f"{body}^^{term.datatype}"
    dt = Term.iri(term.datatype, prefixed=True)
    return f"{body}^^<{graph.expand_iri(dt)}>"


def serialize(graph: Graph, format: str = TURTLE) -> str:
    """Deterministic text form: sorted prefix header, then insertion order."""
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    lines: list[str] = []
    if format == NTRIPLES:
        for t in graph.triples:
            lines.append(
                f"{_ntriples_term(t.head, graph)} {_ntriples_term(t.relation, graph)} "
                f"{_ntriples_term(t.tail, graph)} ."
            )
    else:
        for prefix in sorted(graph.prefix_map):
            lines.append(f"@prefix {prefix}: <{graph.prefix_map[prefix]}> .")
        if graph.prefix_map and graph.triples:
            lines.append("")
        for t in graph.triples:
            lines.append(f"{term_to_text(t.head)} {term_to_text(t.relation)} {term_to_text(t.tail)} .")
    return "\n".join(lines) + ("\n" if lines else "")


class Vocab:
    """Dense, insertion-stable index over the entities and relations of a graph.

    Entities are the distinct heads and tails (literals included), relations
    the distinct relation IRIs, both numbered in first-seen order.
    """

    def __init__(self, entities, relations):
        self.entities: tuple[Term, ...] = tuple(entities)
        self.relations: tuple[Term, ...] = tuple(relations)
        self._entity_ids = {t: i for i, t in enumerate(self.entities)}
        self._relation_ids = {t: i for i, t in enumerate(self.relations)}

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    def entity_id(self, term: Term) -> int:
        try:
            return self._entity_ids[term]
        except KeyError:
            raise VocabError(f"unknown entity {term_to_text(term)}") from None

    def relation_id(self, term: Term) -> int:
        try:
            return self._relation_ids[term]
        except KeyError:
            raise VocabError(f"unknown relation {term_to_text(term)}") from None

    def triple_ids(self, triple: Triple) -> tuple[int, int, int]:
        """The id form ``(h, r, t)`` of a triple; the VocabError names the
        first unknown term in head, relation, tail order."""
        return (
            self.entity_id(triple.head),
            self.relation_id(triple.relation),
            self.entity_id(triple.tail),
        )

    def known_ids(self, triples) -> list[tuple[int, int, int]]:
        """Id forms of the triples whose three terms are all in the vocabulary;
        the others can never match a triple built from it and are skipped."""
        out = []
        for triple in triples:
            try:
                out.append(self.triple_ids(triple))
            except VocabError:
                continue
        return out

    def __contains__(self, term: Term) -> bool:
        return term in self._entity_ids or term in self._relation_ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocab):
            return NotImplemented
        return self.entities == other.entities and self.relations == other.relations

    def __repr__(self) -> str:
        return f"Vocab({self.n_entities} entities, {self.n_relations} relations)"


def build_vocab(graph: Graph) -> Vocab:
    """Index a complete graph; placeholder terms are rejected."""
    entities: list[Term] = []
    relations: list[Term] = []
    seen_e: set[Term] = set()
    seen_r: set[Term] = set()
    for t in graph.triples:
        if t.placeholder_count:
            raise VocabError("placeholder term in graph; vocabulary needs a complete graph")
        for term in (t.head, t.tail):
            if term not in seen_e:
                seen_e.add(term)
                entities.append(term)
        if t.relation not in seen_r:
            seen_r.add(t.relation)
            relations.append(t.relation)
    return Vocab(entities, relations)
