"""Triple store primitives for intent knowledge graphs.

Covers one wire format, a Turtle subset: ``@prefix`` directives, prefixed
names, ``<IRI>`` references, typed literals and ``.`` terminators. An
N-Triples document of IRIs and plain or typed literals is also a document of
this subset, so it reads as one. Blank nodes, collections and language tags
are out of scope.
The three-byte token ``???`` is accepted as a whole term and denotes an
unfilled slot in an intent template; slot ids are assigned in document
order starting at 0.

Parsing reads the document a line at a time, as no token spans a line:
strings, ``<...>`` references and comments all stop at a line break. While
no statement is open, a line that is exactly ``A B C .`` of terms the parse
has read or new plain terms is one triple, read with no scan (the line
rule). Each other line is scanned alone by one ``findall`` into token
strings, whose text tells their kind, and the token reader reads them once
they end a statement, so no line is scanned twice before an error. Within
one parse every distinct IRI token and every distinct ``(lexical,
datatype)`` literal is a single shared Term, checked when first read, so
the parse hands ``Graph`` terms it has already checked. No offsets are
kept: a ParseError rescans the document up to its token for line and column.
``term_from_text`` is the one reader of a stored term, such as a model's
vocabulary entry: one ``fullmatch`` on the scanner's prefixed-name pattern
reads a prefixed name or an escape-free string typed by one, and one
``findall`` pass of the scanner any other text.
The escape set has one table: ``escape_literal`` translates by it, and a
literal is unescaped by one ``re.sub`` that reads it backwards.
An IRI term's text is its token as written, a prefixed name or an ``<IRI>``
reference, so a term is read, written and checked from its text alone.
Terms and triples hash once, at construction, and compare by identity first;
``Triple`` is slotted, with its own ``__init__``. A ``Graph`` keeps its
distinct terms as ``terms``: no ``Vocab`` is needed to ask whether a term
occurs in it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import islice

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


# The members as module globals: reading ``TermKind.IRI`` looks the member up
# through the enum class on every read, several times the cost of a global.
_IRI, _LITERAL, _PLACEHOLDER = TermKind.IRI, TermKind.LITERAL, TermKind.PLACEHOLDER


@dataclass(frozen=True, eq=False)
class Term:
    """One node of a triple.

    ``text`` holds an IRI's token exactly as written, a prefixed name
    (``icm:X``) or an ``<IRI>`` reference with its angle brackets, and the
    lexical form for literals. ``datatype`` keeps the datatype token the
    same way (``xsd:string`` or ``<...>``). ``slot`` is only meaningful for
    placeholders. Equality is lexical over all four fields, so ``icm:X``
    and its expansion are distinct terms. The hash is computed once, at
    construction.
    """

    kind: TermKind
    text: str = ""
    datatype: str | None = None
    slot: int = -1

    def __post_init__(self):
        # An attribute, not a lazy lookup in ``__dict__``: dict-heavy callers
        # pay for every extra step in ``__hash__``.
        object.__setattr__(self, "_hash", hash((self.kind, self.text, self.datatype, self.slot)))

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
        )

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy, ``_hash``.
        return (Term, (self.kind, self.text, self.datatype, self.slot))

    @classmethod
    def iri(cls, token: str) -> "Term":
        """The IRI term of ``token`` as written: ``icm:X`` or ``<http://...>``."""
        return cls(_IRI, token)

    @classmethod
    def literal(cls, text: str, datatype: str | None = None) -> "Term":
        return cls(_LITERAL, text, datatype)

    @classmethod
    def placeholder(cls, slot: int) -> "Term":
        if slot < 0:
            raise ValueError("slot id must be non-negative")
        return cls(_PLACEHOLDER, slot=slot)

    @property
    def is_iri(self) -> bool:
        return self.kind is _IRI

    @property
    def is_literal(self) -> bool:
        return self.kind is _LITERAL

    @property
    def is_placeholder(self) -> bool:
        return self.kind is _PLACEHOLDER

    def __str__(self) -> str:
        return term_to_text(self)


@dataclass(frozen=True, eq=False, init=False)
class Triple:
    """Three terms; equal when the terms are equal, hashed once at construction."""

    __slots__ = ("head", "relation", "tail", "_hash")

    head: Term
    relation: Term
    tail: Term

    def __init__(self, head: Term, relation: Term, tail: Term):
        if relation.kind is not _IRI:
            raise ValueError("relation must be an IRI term")
        if head.kind is _LITERAL:
            raise ValueError("literal not allowed in subject position")
        # The slots' own setters: the frozen class's ``__setattr__`` refuses.
        _set_head(self, head)
        _set_relation(self, relation)
        _set_tail(self, tail)
        _set_hash(self, hash((head._hash, relation._hash, tail._hash)))

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
        return (self.head.kind is _PLACEHOLDER) + (self.tail.kind is _PLACEHOLDER)

    def __str__(self) -> str:
        return f"{self.head} {self.relation} {self.tail} ."


_set_head, _set_relation, _set_tail, _set_hash = (
    Triple.__dict__[name].__set__ for name in Triple.__slots__
)


_LITERAL_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_LITERAL_UNESCAPES = {escape[1]: chr(code) for code, escape in _LITERAL_ESCAPES.items()}
_ESCAPE_RE = re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")


def escape_literal(text: str) -> str:
    return text.translate(_LITERAL_ESCAPES)


def _unescape(match: re.Match) -> str:
    short, long, char = match.groups()
    if char is None:
        code = int(short or long, 16)
        if code > sys.maxunicode:
            raise ParseError("unicode escape past U+10FFFF in literal", 0, 0)
        return chr(code)
    if char in _LITERAL_UNESCAPES:
        return _LITERAL_UNESCAPES[char]
    message = "malformed unicode escape" if char in "uU" else f"unsupported escape '\\{char}'"
    raise ParseError(f"{message} in literal", 0, 0)


def _unescape_literal(raw: str) -> str:
    """Decode the escapes of a string token's body, in which the scanner pairs
    every backslash with the next character. The first bad escape raises a
    ParseError at line 0, col 0; ``parse`` re-raises it at the literal's token."""
    return _ESCAPE_RE.sub(_unescape, raw) if "\\" in raw else raw


def term_to_text(term: Term) -> str:
    """Render one term as its Turtle-subset token."""
    kind = term.kind
    if kind is _IRI:
        return term.text
    if kind is _PLACEHOLDER:
        return "???"
    body = f'"{escape_literal(term.text)}"'
    return body if term.datatype is None else f"{body}^^{term.datatype}"


class Graph:
    """Immutable ordered triple set with a prefix map.

    Duplicates collapse on construction. Every prefixed name used by a
    triple must resolve via ``prefix_map``. ``terms`` lists each distinct
    term once, in order of first use. The constructor collects and checks
    them; ``parse`` fills a Graph through ``_fill`` with the terms it
    interned, which it checked as it read them. ``_ontology_index`` holds
    the graph's ``pipeline.OntologyIndex`` once ``pipeline.ontology_index``
    has built it; equality, copies and pickles ignore it, so a copy builds
    its own.
    """

    __slots__ = ("triples", "prefix_map", "terms", "_index", "_ontology_index")

    def __init__(self, triples=(), prefix_map: dict[str, str] | None = None):
        prefix_map = dict(prefix_map or {})
        index = dict.fromkeys(triples)  # keeps the first of each, in order
        # In order of first use, so the first unresolved term is the one
        # reported; by identity first, as a parse shares one Term per term.
        by_id = {id(term): term for t in index for term in (t.head, t.relation, t.tail)}
        terms = dict.fromkeys(by_id.values())
        for term in terms:
            _check_resolvable(term, prefix_map)
        self._fill(index, prefix_map, terms.keys())

    def _fill(self, index: dict, prefix_map: dict[str, str], terms) -> None:
        object.__setattr__(self, "triples", tuple(index))
        object.__setattr__(self, "prefix_map", prefix_map)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ontology_index", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (Graph, (self.triples, self.prefix_map))  # the slots refuse a restore

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


def _check_resolvable(term: Term, prefix_map: dict[str, str]) -> None:
    if term.is_iri and not term.text.startswith("<"):
        prefix = term.text.partition(":")[0]
        if prefix not in prefix_map:
            raise PrefixError(f"unresolved prefix '{prefix}:' in term {term.text}")
    if term.is_literal and term.datatype and not term.datatype.startswith("<"):
        prefix = term.datatype.partition(":")[0]
        if prefix not in prefix_map:
            raise PrefixError(f"unresolved prefix '{prefix}:' in datatype {term.datatype}")


# The scanner: ``findall`` gives every token string of a document, ending
# with ``""``, and ``finditer`` up to a token gives its offset (group 1) when
# a ParseError needs it. The whitespace and comments before a token fold into
# its match; ``\Z`` gives the empty token and ``.`` a one-character token for
# any other character, a bad one. The token alternatives start with distinct
# characters, so their order only decides how soon the common ones (prefixed
# names, dots) are tried.
_PNAME = r"(?:[A-Za-z][A-Za-z0-9_-]*)?:(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?"
# Most terms ``term_to_text`` writes: a prefixed name, or an escape-free string typed by one.
_PLAIN_TERM_RE = re.compile(rf'({_PNAME})|"([^"\\\n]*)"\^\^({_PNAME})')
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*
    (
      """ + _PNAME + r"""
    | \.
    | "(?:[^"\\\n]|\\.)*"
    | \^\^
    | <[^<>\n]*>
    | @prefix\b
    | \?\?\?
    | \Z
    | .
    )
    """,
    re.VERBOSE,
)


_KINDS = {
    "": "eof", ".": "dot", ":": "pname", "^^": "dtsep", "@prefix": "prefix_kw", "???": "placeholder"
}


def _kind(token: str) -> str:
    """The scanner alternative a token string came from: the tokens in
    ``_KINDS`` by their text, any other one-character token is ``bad``, and
    the first character tells a string or IRI reference from a prefixed name."""
    if token in _KINDS:
        return _KINDS[token]
    if len(token) == 1:
        return "bad"
    return {'"': "string", "<": "iriref"}.get(token[0], "pname")


def term_from_text(text: str) -> Term:
    """Inverse of :func:`term_to_text`, read with ``parse``'s scanner:
    ``text`` must be one IRI token, or one string token with an optional
    ``^^`` and datatype IRI (ValueError otherwise)."""
    if plain := _PLAIN_TERM_RE.fullmatch(text):
        return Term.iri(text) if plain[1] else Term.literal(plain[2], plain[3])
    tokens = _TOKEN_RE.findall(text)
    del tokens[tokens.index("") :]
    kinds = [_kind(token) for token in tokens]
    if kinds == ["placeholder"]:
        raise ValueError("placeholder token carries no slot id in isolation")
    if kinds == ["iriref"] or kinds == ["pname"]:
        return Term.iri(tokens[0])
    if kinds in (["string"], ["string", "dtsep", "iriref"], ["string", "dtsep", "pname"]):
        datatype = tokens[2] if len(tokens) > 1 else None
        return Term.literal(_unescape_literal(tokens[0][1:-1]), datatype)
    raise ValueError(f"not one term token: {text!r}")


def _line_col(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def parse(text: str) -> Graph:
    """Parse a document into a Graph.

    Placeholders receive slot ids in document order. Prefixed names must
    resolve against a previously seen ``@prefix`` directive. Each distinct
    IRI token and each distinct ``(lexical, datatype)`` literal becomes one
    shared Term; its checks run the first time it is read, which is enough
    because the prefix map only grows.

    The document is read a line at a time, as no token spans a line. While
    no statement is open, a line is one triple, read without a scan, when it
    is exactly ``A B C .`` (a ``.\\r`` dot too), each chunk a token this
    parse has read: an IRI token, or for ``C`` also a literal as written,
    with ``^^`` glued between lexical and datatype. This line rule also reads
    a new chunk that ``_PLAIN_TERM_RE`` matches whole with a mapped prefix: a
    prefixed name, or for ``C`` an escape-free string typed by one. Such
    terms are interned at once, in head, relation, tail order. Any other
    chunk (an ``<IRI>``, an unmapped prefix, an escape, a literal as ``A`` or
    ``B``) sends the line to the token reader, which finds the terms interned
    before it as read and raises any error it would alone. The token reader
    takes every other line too, and every line while a statement is open: it
    scans the line alone, and ``read_statements`` reads the tokens once they
    end in a '.', which no term can be, or the document ends. The Graph is
    built from the Terms interned here, which are pairwise unequal, in order
    of first use and already checked, so no check runs again.
    """
    lines = text.split("\n")
    prefix_map: dict[str, str] = {}
    iris: dict[str, Term] = {}
    literals: dict[tuple[str, str | None], Term] = {}
    written: dict[str, Term] = {}
    terms: list[Term] = []
    triples: list[Triple] = []
    next_slot = 0
    first = 0  # the line that the open statement's tokens start at
    tokens: list[str] = []
    pos = 0

    def error(index: int, message: str) -> ParseError:
        """``message`` at token ``index`` of the open statements, unless the
        document holds a bad character: the first one is reported instead,
        ahead of any grammar error. Either offset is found again by rescanning."""
        scanned = _TOKEN_RE.findall(text)
        bad = next((i for i, token in enumerate(scanned) if _kind(token) == "bad"), None)
        if bad is not None:
            match = next(islice(_TOKEN_RE.finditer(text), bad, None))
            message = f"unexpected character {scanned[bad]!r}"
            return ParseError(message, *_line_col(text, match.start(1)))
        run = "\n".join(lines[first : number + 1])
        match = next(islice(_TOKEN_RE.finditer(run), index, None))
        line, col = _line_col(run, match.start(1))
        return ParseError(message, first + line, col)

    def check_prefix(index: int) -> None:
        prefix = tokens[index].partition(":")[0]
        if prefix not in prefix_map:
            raise error(index, f"unresolved prefix '{prefix}:'")

    def new_iri(index: int) -> Term:
        token = tokens[index]
        if token[0] != "<":
            check_prefix(index)
        term = iris[token] = Term.iri(token)
        terms.append(term)
        return term

    def read_literal(index: int) -> Term:
        nonlocal pos
        token = tokens[index]
        try:
            raw = _unescape_literal(token[1:-1])
        except ParseError as exc:
            raise error(index, exc.message) from None
        datatype = dt_index = None
        if tokens[pos] == "^^":
            dt_index = pos + 1
            pos += 2
            if _kind(tokens[dt_index]) not in ("iriref", "pname"):
                raise error(dt_index, "expected a datatype IRI after '^^'")
            datatype = tokens[dt_index]
            token = f"{token}^^{datatype}"
        term = literals.get((raw, datatype))
        if term is None:
            if dt_index is not None and datatype[0] != "<":
                check_prefix(dt_index)
            term = literals[raw, datatype] = Term.literal(raw, datatype)
            terms.append(term)
        written[token] = term
        return term

    def read_term(position: str) -> Term:
        nonlocal pos, next_slot
        index = pos
        pos += 1
        kind = _kind(tokens[index])
        if kind == "iriref" or kind == "pname":
            return iris.get(tokens[index]) or new_iri(index)
        if kind == "eof":
            raise error(index, "unexpected end of input inside statement")
        if kind == "placeholder":
            if position == "relation":
                raise error(index, "placeholder not allowed in relation position")
            term = Term.placeholder(next_slot)
            next_slot += 1
            terms.append(term)
            return term
        if kind == "string":
            if position == "head":
                raise error(index, "literal not allowed in subject position")
            if position == "relation":
                raise error(index, "literal not allowed in relation position")
            return read_literal(index)
        raise error(index, f"expected an IRI, got {tokens[index]!r}")

    def new_plain_term(chunk: str, tail: bool) -> Term | None:
        """The interned Term of a new chunk the line rule reads, else None."""
        plain = _PLAIN_TERM_RE.fullmatch(chunk)
        name = plain and (plain[1] or tail and plain[3])  # its prefix must be mapped
        if not name or name.partition(":")[0] not in prefix_map:
            return None
        if plain[1]:
            term = iris[chunk] = Term.iri(chunk)
            terms.append(term)
            return term
        key = plain.group(2, 3)
        term = literals.get(key)
        if term is None:  # else read before in an escaped spelling
            term = literals[key] = Term.literal(*key)
            terms.append(term)
        written[chunk] = term
        return term

    def read_statements() -> None:
        """Read the statements in ``tokens``, which end where one does or at
        the end of the document, and empty it."""
        nonlocal pos
        tokens.append("")
        pos = 0
        while True:
            token = tokens[pos]
            if (head := iris.get(token)) and (relation := iris.get(tokens[pos + 1])):
                pos += 2
            elif token == "":
                tokens.clear()
                return
            elif token == "@prefix":
                label = tokens[pos + 1]
                if _kind(label) != "pname" or label.partition(":")[2]:
                    raise error(pos + 1, "expected a 'prefix:' label after @prefix")
                target = tokens[pos + 2]
                if _kind(target) != "iriref":
                    raise error(pos + 2, "expected an <IRI> in @prefix directive")
                if tokens[pos + 3] != ".":
                    raise error(pos + 3, "expected '.' after @prefix directive")
                prefix_map[label[:-1]] = target[1:-1]
                pos += 4
                continue
            else:
                head = read_term("head")
                relation = read_term("relation")
            if tail := iris.get(tokens[pos]):
                pos += 1
            else:
                tail = read_term("tail")
            if tokens[pos] != ".":
                raise error(pos, "expected '.' after triple")
            pos += 1
            triples.append(Triple(head, relation, tail))

    for number, line in enumerate(lines):
        chunks = line.split(" ")
        if (
            not tokens
            and len(chunks) == 4
            and (chunks[3] == "." or chunks[3] == ".\r")
            and (head := iris.get(chunks[0]) or new_plain_term(chunks[0], False))
            and (relation := iris.get(chunks[1]) or new_plain_term(chunks[1], False))
            and (
                tail := iris.get(chunks[2])
                or written.get(chunks[2])
                or new_plain_term(chunks[2], True)
            )
        ):
            triples.append(Triple(head, relation, tail))
            continue
        if not tokens:
            first = number
        tokens += filter(None, _TOKEN_RE.findall(line))  # less the "" end marks
        if tokens and tokens[-1] == ".":
            read_statements()
    if tokens:
        read_statements()

    graph = Graph.__new__(Graph)
    graph._fill(dict.fromkeys(triples), prefix_map, dict.fromkeys(terms).keys())
    return graph


def serialize(graph: Graph) -> str:
    """Deterministic text form: sorted prefix header, then insertion order."""
    lines = [f"@prefix {p}: <{iri}> ." for p, iri in sorted(graph.prefix_map.items())]
    if graph.prefix_map and graph.triples:
        lines.append("")
    for t in graph.triples:
        lines.append(f"{term_to_text(t.head)} {term_to_text(t.relation)} {term_to_text(t.tail)} .")
    return "\n".join(lines) + ("\n" if lines else "")


class Vocab:
    """Dense, insertion-stable index over the entities and relations of a graph.

    Entities are the distinct heads and tails (literals included), relations
    the distinct relation IRIs, both numbered in first-seen order. A term
    given twice raises ValueError: it would have two ids.
    """

    def __init__(self, entities, relations):
        self.entities: tuple[Term, ...] = tuple(entities)
        self.relations: tuple[Term, ...] = tuple(relations)
        self._entity_ids = {t: i for i, t in enumerate(self.entities)}
        self._relation_ids = {t: i for i, t in enumerate(self.relations)}
        for terms, ids in ((self.entities, self._entity_ids), (self.relations, self._relation_ids)):
            if len(ids) != len(terms):
                # A repeated term keeps its last id, so its first place mismatches.
                repeated = next(t for i, t in enumerate(terms) if ids[t] != i)
                raise ValueError(f"vocabulary repeats the term {term_to_text(repeated)}")

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @cached_property
    def non_literal_ids(self) -> np.ndarray:
        """Ascending ids of the entities that are not literals: the terms that
        can stand in subject position. Read-only, built on first use."""
        ids = np.array(
            [i for i, t in enumerate(self.entities) if t.kind is not _LITERAL],
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

    def find_ids(self, triple: Triple) -> tuple[int, int, int] | None:
        """The id form of a triple whose three terms are all in the vocabulary,
        else None: :meth:`triple_ids` without the raise."""
        h = self._entity_ids.get(triple.head)
        r = None if h is None else self._relation_ids.get(triple.relation)
        t = None if r is None else self._entity_ids.get(triple.tail)
        return None if t is None else (h, r, t)

    def known_ids(self, triples) -> list[tuple[int, int, int]]:
        """Id forms of the triples whose three terms are all in the vocabulary;
        the others can never match a triple built from it and are skipped."""
        return [ids for ids in map(self.find_ids, triples) if ids is not None]

    def __contains__(self, term: Term) -> bool:
        return term in self._entity_ids or term in self._relation_ids

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocab):
            return NotImplemented
        return self.entities == other.entities and self.relations == other.relations

    def __repr__(self) -> str:
        return f"Vocab({self.n_entities} entities, {self.n_relations} relations)"


def require_complete(graph: Graph) -> None:
    """VocabError if a term of the graph is a placeholder."""
    if any(term.kind is _PLACEHOLDER for term in graph.terms):
        raise VocabError("placeholder term in graph; vocabulary needs a complete graph")


def build_vocab(graph: Graph) -> Vocab:
    """Index a complete graph; placeholder terms are rejected."""
    require_complete(graph)
    # Dicts as ordered sets: a key keeps the place of its first insertion.
    entities: dict[Term, None] = {}
    relations: dict[Term, None] = {}
    for t in graph.triples:
        entities[t.head] = entities[t.tail] = relations[t.relation] = None
    return Vocab(entities, relations)
