"""Triple store primitives for intent knowledge graphs.

Covers two wire formats: N-Triples and a Turtle subset (``@prefix``
directives, prefixed names, ``<IRI>`` references, typed literals and ``.``
terminators). Blank nodes, collections and language tags are out of scope.
The three-byte token ``???`` is accepted as a whole term and denotes an
unfilled slot in an intent template; slot ids are assigned in document
order starting at 0.

Parsing scans the whole document in one regex pass into ``(kind, value,
offset)`` tokens, then reads statements from them. Within one parse every
distinct IRI token and every distinct ``(lexical, datatype)`` literal is a
single shared Term, checked when first read. Line and column are worked out
from the offset only when a ParseError is raised. Terms and triples hash
once, at construction, and compare by identity before their fields.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np


class RdfError(Exception):
    """Base class for RDF layer failures."""


class ParseError(RdfError):
    """Syntax or resolution failure, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
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


@dataclass(frozen=True, eq=False)
class Term:
    """One node of a triple.

    ``text`` holds a prefixed name or full IRI for IRI terms and the
    lexical form for literals. ``datatype`` keeps the datatype token
    exactly as written (``xsd:string`` or ``<...>``). ``slot`` is only
    meaningful for placeholders. ``prefixed`` records whether an IRI was
    written as a prefixed name; equality is lexical over all five fields,
    so ``icm:X`` and its expansion are distinct terms. The hash is
    computed once, at construction.
    """

    kind: TermKind
    text: str = ""
    datatype: str | None = None
    slot: int = -1
    prefixed: bool = False

    def __post_init__(self):
        # An attribute, not a lazy lookup in ``__dict__``: dict-heavy callers
        # pay for every extra step in ``__hash__``.
        object.__setattr__(
            self, "_hash", hash((self.kind, self.text, self.datatype, self.slot, self.prefixed))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.kind is other.kind
            and self.text == other.text
            and self.datatype == other.datatype
            and self.slot == other.slot
            and self.prefixed == other.prefixed
        )

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, ``_hash``.
        return (Term, (self.kind, self.text, self.datatype, self.slot, self.prefixed))

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


@dataclass(frozen=True, eq=False)
class Triple:
    """Three terms; equal when the terms are equal, hashed once at construction."""

    head: Term
    relation: Term
    tail: Term

    def __post_init__(self):
        if self.relation.kind is not TermKind.IRI:
            raise ValueError("relation must be an IRI term")
        if self.head.kind is TermKind.LITERAL:
            raise ValueError("literal not allowed in subject position")
        object.__setattr__(
            self, "_hash", hash((self.head._hash, self.relation._hash, self.tail._hash))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Triple:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.head == other.head
            and self.relation == other.relation
            and self.tail == other.tail
        )

    def __reduce__(self):
        return (Triple, (self.head, self.relation, self.tail))

    @property
    def placeholder_count(self) -> int:
        placeholder = TermKind.PLACEHOLDER
        return (self.head.kind is placeholder) + (self.tail.kind is placeholder)

    def __str__(self) -> str:
        return f"{self.head} {self.relation} {self.tail} ."


_LITERAL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_LITERAL_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def escape_literal(text: str) -> str:
    return "".join(_LITERAL_ESCAPES.get(ch, ch) for ch in text)


def _unescape_literal(raw: str, where) -> str:
    """Decode the escapes of a literal body; ``where()`` gives the ``(line, col)``
    a ParseError reports, and is called only on failure."""
    if "\\" not in raw:
        return raw
    out = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(raw):
            raise ParseError("dangling escape in literal", *where())
        nxt = raw[i + 1]
        if nxt in _LITERAL_UNESCAPES:
            out.append(_LITERAL_UNESCAPES[nxt])
            i += 2
        elif nxt in ("u", "U"):
            width = 4 if nxt == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                raise ParseError("malformed unicode escape in literal", *where())
            code = int(hexpart, 16)
            if code > sys.maxunicode:
                raise ParseError("unicode escape past U+10FFFF in literal", *where())
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError(f"unsupported escape '\\{nxt}' in literal", *where())
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
        return Term.literal(_unescape_literal(m.group(1), lambda: (0, 0)), m.group(2))
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
        checked: set[Term] = set()
        for t in kept:
            for term in (t.head, t.relation, t.tail):
                if term not in checked:
                    _check_resolvable(term, prefix_map)
                    checked.add(term)
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


# One match per token: the whitespace and comments before a token fold into
# its match, ``eof`` ends the input and ``bad`` catches any other character.
# The token alternatives start with distinct characters, so their order only
# decides how soon the common ones (prefixed names, dots) are tried.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|\#[^\n]*)*
    (?:
      (?P<pname>(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?)
    | (?P<dot>\.)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<dtsep>\^\^)
    | (?P<iriref><[^<>\n]*>)
    | (?P<prefix_kw>@prefix\b)
    | (?P<placeholder>\?\?\?)
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokens(text: str) -> list[tuple[str, str, int]]:
    """``(kind, value, offset)`` of every token, ending with one ``eof``.

    The whole input is scanned before parsing starts, so a bad character
    anywhere is reported ahead of any grammar error.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", *_line_col(text, offset))
        tokens.append((kind, m[kind], offset))
        if kind == "eof":
            break
    return tokens


NTRIPLES = "ntriples"
TURTLE = "turtle"
_FORMATS = (NTRIPLES, TURTLE)


def parse(text: str, format: str = TURTLE) -> Graph:
    """Parse a document into a Graph.

    Placeholders receive slot ids in document order. Prefixed names must
    resolve against a previously seen ``@prefix`` directive; N-Triples
    input allows neither directives nor prefixed names. Each distinct IRI
    token and each distinct ``(lexical, datatype)`` literal becomes one
    shared Term; its checks run the first time it is read, which is enough
    because the prefix map only grows.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    allow_prefixes = format != NTRIPLES
    tokens = _tokens(text)
    prefix_map: dict[str, str] = {}
    iris: dict[str, Term] = {}
    literals: dict[tuple[str, str | None], Term] = {}
    triples: list[Triple] = []
    next_slot = 0
    pos = 0

    def fail(tok, message: str):
        raise ParseError(message, *_line_col(text, tok[2]))

    def check_prefix(tok) -> None:
        prefix = tok[1].partition(":")[0]
        if prefix not in prefix_map:
            fail(tok, f"unresolved prefix '{prefix}:'")

    def new_iri(tok) -> Term:
        if tok[0] == "iriref":
            term = Term.iri(tok[1][1:-1], prefixed=False)
        else:
            if not allow_prefixes:
                fail(tok, "prefixed names are not allowed in N-Triples")
            check_prefix(tok)
            term = Term.iri(tok[1], prefixed=True)
        iris[tok[1]] = term
        return term

    def read_literal(tok) -> Term:
        nonlocal pos
        raw = _unescape_literal(tok[1][1:-1], lambda: _line_col(text, tok[2]))
        datatype = dtok = None
        if tokens[pos][0] == "dtsep":
            dtok = tokens[pos + 1]
            pos += 2
            if dtok[0] != "iriref" and (dtok[0] != "pname" or not allow_prefixes):
                fail(dtok, "expected a datatype IRI after '^^'")
            datatype = dtok[1]
        term = literals.get((raw, datatype))
        if term is None:
            if dtok is not None and dtok[0] == "pname":
                check_prefix(dtok)
            term = literals[raw, datatype] = Term.literal(raw, datatype)
        return term

    def read_term(position: str) -> Term:
        nonlocal pos, next_slot
        tok = tokens[pos]
        pos += 1
        kind = tok[0]
        if kind == "iriref" or kind == "pname":
            return iris.get(tok[1]) or new_iri(tok)
        if kind == "eof":
            fail(tok, "unexpected end of input inside statement")
        if kind == "placeholder":
            if position == "relation":
                fail(tok, "placeholder not allowed in relation position")
            term = Term.placeholder(next_slot)
            next_slot += 1
            return term
        if kind == "string":
            if position == "head":
                fail(tok, "literal not allowed in subject position")
            if position == "relation":
                fail(tok, "literal not allowed in relation position")
            return read_literal(tok)
        fail(tok, f"expected an IRI, got {tok[1]!r}")

    while True:
        tok = tokens[pos]
        if tok[0] == "eof":
            break
        if tok[0] == "prefix_kw":
            if not allow_prefixes:
                fail(tok, "@prefix is not allowed in N-Triples")
            ptok = tokens[pos + 1]
            if ptok[0] != "pname" or ptok[1].partition(":")[2]:
                fail(ptok, "expected a 'prefix:' label after @prefix")
            itok = tokens[pos + 2]
            if itok[0] != "iriref":
                fail(itok, "expected an <IRI> in @prefix directive")
            dot = tokens[pos + 3]
            if dot[0] != "dot":
                fail(dot, "expected '.' after @prefix directive")
            prefix_map[ptok[1][:-1]] = itok[1][1:-1]
            pos += 4
            continue
        head = read_term("head")
        relation = read_term("relation")
        tail = read_term("tail")
        dot = tokens[pos]
        if dot[0] != "dot":
            fail(dot, "expected '.' after triple")
        pos += 1
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

    @cached_property
    def non_literal_ids(self) -> np.ndarray:
        """Ascending ids of the entities that are not literals: the terms that
        can stand in subject position. Read-only, built on first use."""
        ids = np.array(
            [i for i, t in enumerate(self.entities) if t.kind is not TermKind.LITERAL],
            dtype=np.int64,
        )
        ids.flags.writeable = False
        return ids

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
