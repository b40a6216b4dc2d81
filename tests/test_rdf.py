"""Terms, triples, parsing, serialization, vocabulary."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import re
import subprocess
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ikge import rdf
from ikge.rdf import (
    Graph,
    ParseError,
    PrefixError,
    Term,
    TermKind,
    Triple,
    Vocab,
    VocabError,
    build_vocab,
    escape_literal,
    parse,
    serialize,
    term_from_text,
    term_to_text,
)

EX = {"ex": "http://e.example/ns#"}


def triple(h: str, r: str, t: str) -> Triple:
    return Triple(term_from_text(h), term_from_text(r), term_from_text(t))


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_document():
    text = (
        "@prefix icm: <http://intent.example/icm#> .\n"
        "@prefix kpi: <http://intent.example/kpi#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "\n"
        "kpi:latency icm:valueBy \"150ms\"^^xsd:string .\n"
        "icm:Intent icm:hasExpectation icm:Expectation .\n"
    )
    g = parse(text)
    assert len(g) == 2
    lit = g.triples[0].tail
    assert lit.is_literal and lit.text == "150ms" and lit.datatype == "xsd:string"
    assert g.triples[1].head == Term.iri("icm:Intent")
    assert g.prefix_map["kpi"] == "http://intent.example/kpi#"


def test_parse_empty_document():
    g = parse("")
    assert len(g) == 0 and g.prefix_map == {}
    v = build_vocab(g)
    assert v.n_entities == 0 and v.n_relations == 0


def test_parse_placeholders_get_document_order_slots():
    text = (
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ??? .\n"
        "??? ex:r ex:b .\n"
        "??? ex:r ??? .\n"
    )
    g = parse(text)
    slots = [term.slot for t in g.triples for term in (t.head, t.tail) if term.is_placeholder]
    assert slots == [0, 1, 2, 3]
    assert g.triples[0].placeholder_count == 1
    assert g.triples[2].placeholder_count == 2


def test_parse_escape_sequences():
    text = '<http://e/a> <http://e/r> "line\\nbreak \\"q\\" tab\\t back\\\\ u\\u0041" .'
    g = parse(text)
    assert g.triples[0].tail.text == 'line\nbreak "q" tab\t back\\ uA'


def test_unicode_escape_past_last_code_point_is_a_parse_error():
    # U+10FFFF is the last code point; one past it is reported at the literal
    text = '<http://e/a> <http://e/r> "ok" .\n<http://e/a> <http://e/r>  "x\\U00110000" .'
    with pytest.raises(ParseError, match="past U\\+10FFFF") as info:
        parse(text)
    assert (info.value.line, info.value.col) == (2, 28)
    assert parse('<http://e/a> <http://e/r> "\\U0010FFFF" .').triples[0].tail.text == "\U0010ffff"
    with pytest.raises(ParseError, match="past U\\+10FFFF") as info:
        term_from_text('"\\U00110000"^^xsd:string')
    assert (info.value.line, info.value.col) == (0, 0)


def test_parse_full_iri_datatype():
    text = '<http://e/a> <http://e/r> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .'
    g = parse(text)
    assert g.triples[0].tail.datatype == "<http://www.w3.org/2001/XMLSchema#integer>"
    # round-trips byte for byte
    assert parse(serialize(g)) == g


def test_parse_comments_and_blank_lines():
    text = (
        "# leading comment\n"
        "@prefix ex: <http://e.example/ns#> .\n"
        "\n"
        "ex:a ex:r ex:b . # trailing comment\n"
        "# done\n"
    )
    assert len(parse(text)) == 1


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse("\n\n  %")
    assert info.value.line == 3
    assert info.value.col == 3


def test_parse_unresolved_prefix():
    with pytest.raises(ParseError, match="unresolved prefix 'ex:'"):
        parse("ex:a ex:r ex:b .")


def test_parse_literal_subject_rejected():
    with pytest.raises(ParseError, match="subject"):
        parse('"x" <http://e/r> <http://e/b> .')


def test_parse_placeholder_relation_rejected():
    with pytest.raises(ParseError, match="relation"):
        parse("<http://e/a> ??? <http://e/b> .")


def test_parse_missing_dot():
    with pytest.raises(ParseError, match=r"expected '\.'"):
        parse("<http://e/a> <http://e/r> <http://e/b>")


# ---------------------------------------------------------------------------
# serialization


def test_serialize_empty_graph():
    assert serialize(Graph([], {})) == ""


def test_serialize_prefix_header_sorted():
    g = parse(
        "@prefix zz: <http://z/> .\n"
        "@prefix aa: <http://a/> .\n"
        "zz:x aa:r zz:y .\n"
    )
    out = serialize(g)
    assert out.startswith("@prefix aa: <http://a/> .\n@prefix zz: <http://z/> .\n\n")
    assert serialize(g) == out  # deterministic


def test_serialize_round_trip():
    text = (
        "@prefix ex: <http://e.example/ns#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'ex:a ex:r "v\\nw"^^xsd:string .\n'
        "ex:b ex:r ex:a .\n"
        "<http://other/c> ex:r ex:b .\n"
    )
    g = parse(text)
    assert parse(serialize(g)) == g


def test_serialize_placeholders():
    g = parse("<http://e/a> <http://e/r> ??? .")
    assert "???" in serialize(g)
    assert parse(serialize(g)) == g


# ---------------------------------------------------------------------------
# terms and triples


def test_term_from_text_inverts_term_to_text():
    cases = [
        Term.iri("ex:a"),
        Term.iri("<http://e/x>"),
        Term.literal("plain"),
        Term.literal("typed", "xsd:string"),
        Term.literal('tricky "quote"\n', "<http://w3/dt>"),
    ]
    for term in cases:
        assert term_from_text(term_to_text(term)) == term


def test_term_from_text_rejects_placeholder():
    with pytest.raises(ValueError):
        term_from_text("???")


@pytest.mark.parametrize(
    "text",
    [
        "nonmcptt:Stream Video",
        "ex:a ex:b",
        "ex:a .",
        "<http://e/a",
        '"open',
        '"x"^^',
        '"x"^^"y"',
        '"x" ex:a',
        "Video",
        "",
        "  ",
    ],
)
def test_term_from_text_reads_exactly_one_term_token(text):
    # The term syntax is parse's: anything but one IRI, or one literal with
    # an optional datatype IRI, is not a term.
    with pytest.raises(ValueError, match="^not one term token: "):
        term_from_text(text)


def test_term_from_text_reads_tokens_as_parse_does():
    statement = '@prefix ex: <http://e/> .\nex:s ex:p {} .'
    for text in ("ex:a", " <http://e/a> ", '"v"', '"v" ^^ ex:t', '"q\\"\\n"^^<http://e/t>'):
        assert term_from_text(text) == parse(statement.format(text)).triples[0].tail


# The term reader as it was before it took its tokens from one ``findall``
# call: a copy of it and of its unescaping, over the same scanner. It is the
# oracle for every outcome of ``term_from_text``.
def _reference_unescape_literal(raw: str) -> str:
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
            raise ParseError("dangling escape in literal", 0, 0)
        nxt = raw[i + 1]
        if nxt in rdf._LITERAL_UNESCAPES:
            out.append(rdf._LITERAL_UNESCAPES[nxt])
            i += 2
        elif nxt in ("u", "U"):
            width = 4 if nxt == "u" else 8
            hexpart = raw[i + 2 : i + 2 + width]
            if len(hexpart) != width or not re.fullmatch(r"[0-9A-Fa-f]+", hexpart):
                raise ParseError("malformed unicode escape in literal", 0, 0)
            code = int(hexpart, 16)
            if code > sys.maxunicode:
                raise ParseError("unicode escape past U+10FFFF in literal", 0, 0)
            out.append(chr(code))
            i += 2 + width
        else:
            raise ParseError(f"unsupported escape '\\{nxt}' in literal", 0, 0)
    return "".join(out)


def _reference_term_from_text(text: str) -> Term:
    tokens, end = [], 0
    while end < len(text):
        match = rdf._TOKEN_RE.match(text, end)
        if match.group(1) == "":
            break
        tokens.append(match.group(1))
        end = match.end()
    kinds = [rdf._kind(token) for token in tokens]
    if kinds == ["placeholder"]:
        raise ValueError("placeholder token carries no slot id in isolation")
    if kinds == ["iriref"]:
        return Term.iri(tokens[0])
    if kinds == ["pname"]:
        return Term.iri(tokens[0])
    if kinds in (["string"], ["string", "dtsep", "iriref"], ["string", "dtsep", "pname"]):
        datatype = tokens[2] if len(tokens) > 1 else None
        return Term.literal(_reference_unescape_literal(tokens[0][1:-1]), datatype)
    raise ValueError(f"not one term token: {text!r}")


def _term_outcome(read, text: str):
    try:
        return ("term", read(text))
    except (rdf.RdfError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


# Whole tokens and the characters that start, end or break one.
_TERM_PIECES = [
    "ex:a", "<http://e/a>", '"v"', "^^", "xsd:s", "???", "@prefix", "# c\n",
    '"', "\\", "\\u00e9", "\\U00110000", "\\n", "\\q", ":", ".", "<", ">", "?",
    "^", "@", "#", "a", "0", "_", "-", "u", " ", "\t", "\r", "\n", "%", "é",
]
_pieces = st.lists(st.sampled_from(_TERM_PIECES), max_size=8).map("".join)
# A string token's body, with good and bad escapes.
_string_body = st.lists(
    st.sampled_from(["v", " ", "é", "\\\\", '\\"', "\\n", "\\q", "\\u00e9", "\\u12",
                     "\\U0001F600", "\\U00110000"]),
    max_size=4,
).map("".join)
# A prefix and a local part, each a prefixed name's or close to one: the
# local part may start or end with "." or "-", the prefix with a digit.
_pname = st.tuples(
    st.sampled_from(["", "", "ex", "x", "a-b_1", "Z9", "1x", "-a"]),
    st.text(alphabet="aZ0_.-", max_size=5),
).map(":".join)
# One term token with an optional datatype, then mostly nothing. Bare prefixed
# names and typed strings without escapes take ``term_from_text``'s fast path;
# around them whitespace, a comment or a "." sends a text to the scanner.
_near_term = st.tuples(
    st.sampled_from(["", "", " ", "\t", "\n# c\n", "# c\n"]),
    st.one_of(st.sampled_from(["ex:a", ":", "ex:", "<http://e/a>", "<>", "???"]),
              _pname, _string_body.map('"{}"'.format)),
    st.one_of(st.sampled_from(["", "", "^^xsd:s", " ^^ <http://e/t>", "^^ex:", '^^"x"', "^^",
                               "^^???"]),
              _pname.map("^^{}".format)),
    st.sampled_from(["", "", "", "", " ", "\n", "\t# c", " # c", " .", ".", "..", "ex:a", '"',
                     "\\"]),
).map("".join)
_noise = st.one_of(_pieces, st.text(alphabet="".join(set("".join(_TERM_PIECES))), max_size=12))


@settings(max_examples=500, derandomize=True, deadline=None)
@given(_near_term, _noise)
def test_term_from_text_matches_the_match_loop_reader(near_term, noise):
    for text in (near_term, noise):
        assert _term_outcome(term_from_text, text) == _term_outcome(_reference_term_from_text, text)


@pytest.mark.parametrize(
    "text",
    [":", "ex:a", "ex:a.b", "ex:a-", "ex:_", "a-b_1:Z9", "ex:a.", "ex:a..", "ex:.a", "ex:-a",
     "1x:a", "-a:b", "ex:a:b", " ex:a", "ex:a ", "\nex:a", "ex:a\n", "ex:a# c", "# c\nex:a",
     "ex:a .", '"v"^^ex:a', '"v"^^:', '""^^ex:a', '"é v"^^a-b:c.d', '"v"^^ex:a.', '"v" ^^ex:a',
     '"v"^^ ex:a', '"v"^^ex:a ', '"\\n"^^ex:a', '"v\\"^^ex:a', '"v"^^1x:a', '"v"^^<http://e/t>',
     '"v"', '"v"^^ex:a ex:b'],
)
def test_term_from_text_fast_path_agrees_with_the_scanner(text):
    assert _term_outcome(term_from_text, text) == _term_outcome(_reference_term_from_text, text)


def test_term_iri_keeps_its_token():
    for token in ("icm:Intent", "<http://intent.example/icm#Intent>", "<urn:isbn:0451450523>"):
        term = Term.iri(token)
        assert term.text == token and str(term) == token


def test_triple_validation():
    a = Term.iri("ex:a")
    r = Term.iri("ex:r")
    lit = Term.literal("v")
    with pytest.raises(ValueError, match="^literal not allowed in subject position$"):
        Triple(lit, r, a)
    with pytest.raises(ValueError, match="^relation must be an IRI term$"):
        Triple(a, lit, a)
    with pytest.raises(ValueError, match="^relation must be an IRI term$"):
        Triple(a, Term.placeholder(0), a)
    with pytest.raises(ValueError, match="^relation must be an IRI term$"):
        Triple(lit, lit, a)  # the relation is checked first
    assert str(Triple(a, r, lit)) == 'ex:a ex:r "v" .'


def test_triple_is_a_frozen_slotted_dataclass():
    a, r, lit = Term.iri("ex:a"), Term.iri("ex:r"), Term.literal("v", "xsd:string")
    t = Triple(a, r, lit)
    for name in ("head", "relation", "tail", "_hash", "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, name, a)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.head
    assert not hasattr(t, "__dict__")
    assert [(f.name, f.type, f.init) for f in dataclasses.fields(Triple)] == [
        ("head", "Term", True), ("relation", "Term", True), ("tail", "Term", True)
    ]
    assert astuple(t) == (astuple(a), astuple(r), astuple(lit))
    assert Triple(head=a, relation=r, tail=lit) == t
    assert dataclasses.replace(t, tail=a) == Triple(a, r, a)
    assert repr(t) == f"Triple(head={a!r}, relation={r!r}, tail={lit!r})"


def _fresh(term: Term) -> Term:
    return Term(term.kind, term.text, term.datatype, term.slot)


def test_parsed_terms_are_shared_and_equal_fresh_ones():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        'ex:a ex:r ex:b .\nex:b ex:r "v" .\nex:a ex:s "v" .\n'
        "<http://e/x> ex:r <http://e/x> .\nex:a ex:r ??? .\n"
    )
    a, r, b, v = g.triples[0].head, g.triples[0].relation, g.triples[0].tail, g.triples[1].tail
    assert g.triples[2].head is a and g.triples[1].relation is r and g.triples[1].head is b
    assert g.triples[2].tail is v and g.triples[3].head is g.triples[3].tail
    for t in g.triples:
        for term in (t.head, t.relation, t.tail):
            fresh = _fresh(term)
            assert fresh is not term and fresh == term and hash(fresh) == hash(term)
        fresh = Triple(*(_fresh(term) for term in (t.head, t.relation, t.tail)))
        assert fresh == t and hash(fresh) == hash(t) and fresh in g
    assert Term.iri("ex:a") == a and Term.literal("v") == v


def test_term_and_triple_equality_is_over_every_field():
    base = Term(TermKind.IRI, "ex:a", None, -1)
    variants = [
        Term(TermKind.LITERAL, "ex:a", None, -1),
        Term(TermKind.IRI, "ex:b", None, -1),
        Term(TermKind.IRI, "ex:a", "xsd:string", -1),
        Term(TermKind.IRI, "ex:a", None, 0),
        Term(TermKind.IRI, "<ex:a>", None, -1),
    ]
    for other in variants:
        assert other != base and base != other and not other == base
    assert len({base, _fresh(base), *variants}) == 1 + len(variants)
    assert (base == "x") is False and (base != "x") is True and base != ("ex:a",)
    r, x = Term.iri("ex:r"), Term.iri("ex:x")
    t = Triple(base, r, base)
    assert t != Triple(x, r, base) and t != Triple(base, Term.iri("ex:s"), base)
    assert t != Triple(base, r, x) and t == Triple(_fresh(base), _fresh(r), _fresh(base))
    assert (t == (base, r, base)) is False


def test_pickled_terms_rehash_in_another_process(tmp_path):
    # a Term or Triple pickled where string hashes differ must not carry
    # that process's hash along
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    out = tmp_path / "terms.pickle"
    code = (
        "import pickle, sys\n"
        "from ikge.rdf import parse\n"
        "g = parse(sys.argv[1])\n"
        "terms = [term for t in g.triples for term in (t.head, t.relation, t.tail)]\n"
        "with open(sys.argv[2], 'wb') as fh:\n"
        "    pickle.dump((hash('ex:a'), terms, list(g.triples)), fh)\n"
    )
    text = '@prefix ex: <http://e.example/ns#> .\nex:a ex:r "v"^^ex:dt .\n<http://e/x> ex:r ??? .\n'
    src = str(Path(rdf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code, text, str(out)], env=env, check=True, timeout=60)
    with open(out, "rb") as fh:
        their_hash, terms, triples = pickle.load(fh)
    assert their_hash != hash("ex:a")  # the two processes hash strings differently
    g = parse(text)
    fresh_terms = {_fresh(term) for t in g.triples for term in (t.head, t.relation, t.tail)}
    assert all(term in fresh_terms for term in terms)
    assert all(t in set(g.triples) for t in triples) and all(t in g for t in triples)


def test_triple_survives_a_pickle_round_trip():
    t = Triple(Term.iri("ex:a"), Term.iri("ex:r"), Term.literal("v", "xsd:string"))
    data = pickle.dumps(t)
    assert b"_hash" not in data  # rebuilt from its terms, not copied with its hash
    back = pickle.loads(data)
    assert back is not t and back == t and hash(back) == hash(t)
    assert back.head == t.head and back.relation == t.relation and back.tail == t.tail
    assert copy.deepcopy(t) == t and hash(copy.copy(t)) == hash(t)


def test_escape_literal_round_trip():
    text = 'a\\b "c" \n\r\t end'
    g = parse(f'<http://e/a> <http://e/r> "{escape_literal(text)}" .')
    assert g.triples[0].tail.text == text


# ---------------------------------------------------------------------------
# Graph behavior


def test_graph_collapses_duplicates():
    t = triple("ex:a", "ex:r", "ex:b")
    g = Graph([t, t, triple("ex:a", "ex:r", "ex:b")], EX)
    assert len(g) == 1
    assert g.triples == (t,)


def test_graph_is_immutable():
    g = Graph([triple("ex:a", "ex:r", "ex:b")], EX)
    with pytest.raises(AttributeError):
        g.triples = ()


@pytest.mark.parametrize("text", [
    "",
    '@prefix ex: <http://e.example/ns#> .\nex:a ex:r "v" .\nex:b ex:r ex:a .\nex:a ex:r "v" .\n'
    'ex:a ex:s ??? .\nex:b ex:r ex:a .\nex:b ex:r ex:a .\n',
], ids=["empty", "duplicates"])
def test_graph_copies_and_pickles(text):
    g = parse(text)
    for again in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert again == g and again.triples == g.triples and again.prefix_map == g.prefix_map
        assert len(again) == len(g) == (3 if text else 0)
        assert list(again.terms) == list(g.terms)
        with pytest.raises(AttributeError):
            again.triples = ()


def test_graph_equality_is_order_insensitive():
    t1 = triple("ex:a", "ex:r", "ex:b")
    t2 = triple("ex:b", "ex:r", "ex:a")
    assert Graph([t1, t2], EX) == Graph([t2, t1], EX)
    assert Graph([t1], EX) != Graph([t2], EX)
    assert Graph([t1], EX) != Graph([t1], {"ex": "http://elsewhere/"})
    with pytest.raises(PrefixError):
        Graph([t1], {})  # prefixed term with no mapping


def test_graph_rejects_an_unresolved_datatype_prefix():
    t = Triple(Term.iri("<http://e/a>"), Term.iri("ex:r"), Term.literal("v", "zz:dt"))
    with pytest.raises(PrefixError, match=r"^unresolved prefix 'zz:' in datatype zz:dt$"):
        Graph([t], EX)
    assert Graph([t], {**EX, "zz": "http://z/"}).triples == (t,)


def test_an_iri_without_scheme_slashes_round_trips():
    urn = Term.iri("<urn:isbn:0451450523>")
    g = Graph([Triple(Term.iri("<http://e/a>"), Term.iri("<http://e/r>"), urn)], {"urn": "http://u/"})
    assert serialize(g).endswith("<http://e/a> <http://e/r> <urn:isbn:0451450523> .\n")
    assert parse(serialize(g)) == g
    assert Graph(g.triples, {}).triples == g.triples  # a full IRI needs no prefix


def test_graph_terms_are_its_distinct_terms_in_order_of_first_use():
    g = parse('@prefix ex: <http://e.example/ns#> .\nex:a ex:r "v" .\nex:b ex:r ex:a .\nex:a ex:s ??? .\n')
    a, r, v, b, s = (Term.iri("ex:a"), Term.iri("ex:r"), Term.literal("v"), Term.iri("ex:b"),
                     Term.iri("ex:s"))
    assert list(g.terms) == [a, r, v, b, s, Term.placeholder(0)]
    # Equal terms that are distinct objects still count once.
    fresh = Graph([Triple(*map(_fresh, (t.head, t.relation, t.tail))) for t in g.triples], EX)
    assert list(fresh.terms) == list(g.terms)
    assert Term.literal("v", "xsd:string") not in g.terms and list(Graph().terms) == []


def test_parse_hands_graph_the_terms_it_checked(desk_ikg, monkeypatch):
    checked = []
    check = rdf._check_resolvable
    monkeypatch.setattr(
        rdf, "_check_resolvable", lambda term, pm: check(checked.append(term) or term, pm)
    )
    g = parse(serialize(desk_ikg))
    assert checked == [] and g == desk_ikg
    # Any other caller's Graph checks each distinct term once.
    again = Graph(g.triples, g.prefix_map)
    assert checked == list(again.terms) == list(g.terms) and len(checked) == 214
    with pytest.raises(PrefixError, match=r"^unresolved prefix 'icm:' in term icm:Intent$"):
        Graph(g.triples, {})


def _count_scans(monkeypatch) -> list[str]:
    """Record the text of every ``findall`` pass of ``parse``'s scanner."""
    scanned = []
    scanner = rdf._TOKEN_RE

    class Counting:
        def findall(self, text):
            scanned.append(text)
            return scanner.findall(text)

        def __getattr__(self, name):
            return getattr(scanner, name)

    monkeypatch.setattr(rdf, "_TOKEN_RE", Counting())
    return scanned


def test_parse_scans_the_desk_ikg_only_for_its_prefix_header(desk_ikg, monkeypatch):
    # The line rule reads every triple line, those that first use a term too,
    # so the token reader scans only the @prefix lines and the empty ones.
    text = serialize(desk_ikg)
    header = text.split("\n\n")[0].split("\n")
    scanned = _count_scans(monkeypatch)
    assert parse(text) == desk_ikg
    assert [s for s in scanned if s] == header and len(header) == len(desk_ikg.prefix_map)


def test_line_rule_triples_equal_checked_ones(desk_ikg, monkeypatch):
    # The line rule builds its triples without Triple.__init__, whose checks
    # cannot fail there: each equals, and hashes as, the checked Triple of its
    # terms. Every other caller's Triple() keeps both checks.
    built = []
    init = Triple.__init__

    def counting(self, *terms):
        built.append(terms)
        init(self, *terms)

    monkeypatch.setattr(Triple, "__init__", counting)
    g = parse(serialize(desk_ikg))
    assert built == [] and g == desk_ikg
    monkeypatch.undo()
    for t in g.triples:
        checked = Triple(t.head, t.relation, t.tail)
        assert type(t) is Triple and t == checked and hash(t) == hash(checked)
    a, r = g.triples[0].head, g.triples[0].relation
    with pytest.raises(ValueError, match="^literal not allowed in subject position$"):
        Triple(Term.literal("v"), r, a)
    with pytest.raises(ValueError, match="^relation must be an IRI term$"):
        Triple(a, Term.literal("v"), a)


def test_parse_scans_each_line_at_most_once_before_an_error(monkeypatch):
    # An open statement keeps every later line in the token reader until a
    # line ends in '.', so a malformed line is refused when the next one ends
    # its statement. Only the rescan for the first bad character reads the
    # whole document again.
    text = "@prefix ex: <http://e.example/ns#> .\n" + "ex:a ex:r ex:b .\n" * 16
    text += "ex:a ex:r ex:b ex:c\nex:a ex:r ex:b .\n" * 1000
    scanned = _count_scans(monkeypatch)
    with pytest.raises(ParseError, match=r"^line 18, col 16: expected '\.' after triple$"):
        parse(text)
    assert sum(map(len, scanned)) <= 2 * len(text)


def test_graph_contains_matches_linear_scan():
    rng = np.random.default_rng(7)
    pool = [
        triple(f"ex:e{rng.integers(8)}", f"ex:r{rng.integers(3)}", f"ex:e{rng.integers(8)}")
        for _ in range(50)
    ]
    g = Graph(pool, EX)
    for _ in range(100):
        probe = triple(
            f"ex:e{rng.integers(10)}", f"ex:r{rng.integers(4)}", f"ex:e{rng.integers(10)}"
        )
        assert (probe in g) == any(probe == t for t in pool)


# ---------------------------------------------------------------------------
# Vocab


def test_build_vocab_first_seen_order():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:b .\n"
        "ex:c ex:s ex:a .\n"
        'ex:c ex:r "lit" .\n'
    )
    v = build_vocab(g)
    assert [t.text for t in v.entities] == ["ex:a", "ex:b", "ex:c", "lit"]
    assert [t.text for t in v.relations] == ["ex:r", "ex:s"]
    assert v.entity_id(Term.literal("lit")) == 3
    assert v.relation_id(Term.iri("ex:s")) == 1
    for i, e in enumerate(v.entities):
        assert v.entity_id(e) == i
    assert Term.iri("ex:a") in v
    assert Term.iri("ex:zzz") not in v


def test_vocab_subclass_edge_counts_two_entities():
    g = parse(
        "@prefix service: <http://intent.example/service#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "service:GBR rdfs:subclass service:NonMcpttGBRService .\n"
    )
    v = build_vocab(g)
    assert v.n_entities == 2 and v.n_relations == 1


def test_vocab_self_loop_counts_one_entity():
    g = parse("<http://e/a> <http://e/r> <http://e/a> .")
    v = build_vocab(g)
    assert v.n_entities == 1


def test_vocab_errors():
    g = parse("<http://e/a> <http://e/r> ??? .")
    with pytest.raises(VocabError):
        build_vocab(g)
    v = build_vocab(parse("<http://e/a> <http://e/r> <http://e/b> ."))
    with pytest.raises(VocabError):
        v.entity_id(Term.iri("ex:unknown"))
    with pytest.raises(VocabError):
        v.relation_id(Term.iri("ex:unknown"))


def test_vocab_rejects_a_repeated_term():
    a, b, r, s = Term.iri("ex:a"), Term.iri("ex:b"), Term.iri("ex:r"), Term.iri("ex:s")
    assert Vocab([a, b], [r, s]).n_entities == 2
    # Of several repeated terms, the one listed first is named.
    with pytest.raises(ValueError, match="^vocabulary repeats the term ex:a$"):
        Vocab([a, b, Term.literal("x"), b, a], [r])
    with pytest.raises(ValueError, match="^vocabulary repeats the term ex:b$"):
        Vocab([a, b, Term.literal("x"), b], [r])
    with pytest.raises(ValueError, match='^vocabulary repeats the term "x"'):
        Vocab([Term.literal("x"), a, Term.literal("x")], [r])
    with pytest.raises(ValueError, match="^vocabulary repeats the term ex:r$"):
        Vocab([a], [r, s, r])


def test_vocab_triple_ids_and_known_ids():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:b .\n"
        'ex:b ex:s "lit" .\n'
    )
    v = build_vocab(g)
    assert [v.triple_ids(t) for t in g.triples] == [(0, 0, 1), (1, 1, 2)]
    # the first unknown term in head, relation, tail order is named
    with pytest.raises(VocabError, match="ex:zzz"):
        v.triple_ids(Triple(Term.iri("ex:a"), Term.iri("ex:zzz"), Term.iri("ex:yyy")))
    outside = [
        Triple(Term.iri("ex:zzz"), Term.iri("ex:r"), Term.iri("ex:a")),
        Triple(Term.iri("ex:a"), Term.iri("ex:zzz"), Term.iri("ex:a")),
        Triple(Term.iri("ex:a"), Term.iri("ex:r"), Term.literal("zzz")),
    ]
    assert v.known_ids(list(g.triples) + outside) == [(0, 0, 1), (1, 1, 2)]


def test_known_ids_matches_a_triple_ids_loop():
    # A term of the graph can fall outside the vocabulary built from its first
    # quarter, or stand where the vocabulary holds it only in the other role.
    rng = np.random.default_rng(3)
    terms = [Term.iri(f"ex:t{i}") for i in range(8)] + [Term.literal("v"), Term.literal("w")]
    rows = [tuple(terms[i] for i in rng.integers(len(terms), size=3)) for _ in range(200)]
    triples = [Triple(h, r, t) for h, r, t in rows if not h.is_literal and not r.is_literal]
    v = build_vocab(Graph(triples[: len(triples) // 4], EX))
    new = Term.iri("ex:new")  # in no role at all
    a, b = terms[:2]
    triples += [Triple(new, a, b), Triple(a, new, b), Triple(a, b, new)]

    def reference(triples):
        out = []
        for triple in triples:
            try:
                out.append(v.triple_ids(triple))
            except VocabError:
                continue
        return out

    want = reference(triples)
    assert 0 < len(want) < len(triples)
    assert v.known_ids(triples) == want


def test_vocab_non_literal_ids():
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        'ex:a ex:s "lit" .\n'
        "ex:a ex:r ex:b .\n"
        'ex:b ex:s "other" .\n'
    )
    v = build_vocab(g)
    ids = v.non_literal_ids
    assert ids.tolist() == [i for i, t in enumerate(v.entities) if not t.is_literal] == [0, 2]
    assert ids.dtype == np.int64 and v.non_literal_ids is ids
    with pytest.raises(ValueError):
        ids[0] = 1
    assert build_vocab(Graph()).non_literal_ids.tolist() == []


def test_vocab_equality():
    g = parse("<http://e/a> <http://e/r> <http://e/b> .")
    assert build_vocab(g) == build_vocab(g)
    other = parse("<http://e/b> <http://e/r> <http://e/a> .")
    assert build_vocab(g) != build_vocab(other)  # different order


# ---------------------------------------------------------------------------
# property: serialize/parse round trip

_PM = {
    "ex": "http://e.example/ns#",
    "icm": "http://intent.example/icm#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
}
_local = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,6}", fullmatch=True)
_pname = st.builds(
    lambda p, loc: Term.iri(f"{p}:{loc}"), st.sampled_from(["ex", "icm"]), _local
)
_full = st.one_of(
    st.builds(lambda loc: Term.iri(f"<http://e.example/{loc}>"), _local),
    st.builds(lambda loc: Term.iri(f"<urn:isbn:{loc}>"), _local),
)
_iri = st.one_of(_pname, _full)
_lit_text = st.text(alphabet='ab"\\\n\r\t xyz.:#<>?0@', max_size=12)
_literal = st.builds(Term.literal, _lit_text, st.sampled_from([None, "xsd:string"]))
_triples = st.builds(
    Triple, _iri, _iri, st.one_of(_iri, _literal)
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(_triples, max_size=8))
def test_round_trip_property(triples):
    g = Graph(triples, _PM)
    assert parse(serialize(g)) == g


# ---------------------------------------------------------------------------
# differential test: the parser against the line-tracking scanner it replaced
#
# The code from here to ``reference_parse`` is a verbatim copy of the
# previous scanner and parser (entry point renamed). It is the oracle for the
# triples, prefix map, duplicate count and every error's type, message, line
# and column. It still has the N-Triples mode the parser no longer has; for a
# document without directives, the parser must read whatever that mode reads,
# as it reads it.

NTRIPLES = "ntriples"
TURTLE = "turtle"

_LITERAL_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


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


_FORMATS = (NTRIPLES, TURTLE, "turtle_subset")


def reference_parse(text: str, format: str = TURTLE) -> Graph:
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
            return Term.iri(tok.value)
        if tok.kind == "pname":
            if not allow_prefixes:
                fail(tok, "prefixed names are not allowed in N-Triples")
            prefix = tok.value.partition(":")[0]
            if prefix not in prefix_map:
                fail(tok, f"unresolved prefix '{prefix}:'")
            return Term.iri(tok.value)
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


def _outcome(parse_fn, text: str):
    try:
        g = parse_fn(text)
    except (rdf.RdfError, ValueError) as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None))
    return ("parsed", [astuple(t) for t in g.triples], g.prefix_map)


def _raises_value_error(tok: _Token) -> bool:
    try:
        _unescape_literal(tok.value[1:-1], tok.line, tok.col)
    except ParseError:
        return False
    except ValueError:
        return True
    return False


def _reference_parse_ntriples(text: str) -> Graph:
    return reference_parse(text, NTRIPLES)


def assert_same_as_reference(text: str, ntriples: bool = False):
    """The parser's outcome equals the oracle's in Turtle mode; for a
    document written as N-Triples, also the oracle's in N-Triples mode
    whenever that mode reads it."""
    expected = _outcome(reference_parse, text)
    if expected[1] is ValueError and expected[2].startswith("chr()"):
        # The one deliberate difference: the oracle lets ``chr()`` fail on an
        # escape past U+10FFFF, where the parser raises a ParseError at that
        # literal. Every literal read before it unescaped cleanly, so it is the
        # first string token whose unescape fails with the bare ValueError.
        tok = next(t for t in _Scanner(text).tokens if t.kind == "string" and _raises_value_error(t))
        message = f"line {tok.line}, col {tok.col}: unicode escape past U+10FFFF in literal"
        expected = ("raised", ParseError, message, tok.line, tok.col)
    got = _outcome(parse, text)
    assert got == expected
    if ntriples:
        as_ntriples = _outcome(_reference_parse_ntriples, text)
        if as_ntriples[0] == "parsed":
            assert got == as_ntriples
    return expected


_sep = st.lists(
    st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\n\n", " # note: ??? \"q\" .\n", "#\r\n"]),
    min_size=1,
    max_size=3,
).map("".join)
_opt_sep = st.one_of(st.just(""), _sep)
_label = st.sampled_from(["ex", "icm", "xsd", ""])
_local = st.sampled_from(["a", "b", "", "B1", "a.b", "x-y", "_9", "a..z-", "R_0.1"])
_pname_tok = st.builds("{}:{}".format, st.sampled_from(["ex", "icm", ""]), _local)
_iriref_tok = st.builds(
    "<http://e.example/{}>".format, st.sampled_from(["a", "", "b#c", "x/y.z"])
)
_escape = st.sampled_from(["\\n", "\\t", '\\"', "\\\\", "\\r", "\\u00e9", "\\U0001F600"])
_lit_body = st.lists(st.one_of(st.sampled_from(list("ab .:#<>?@^'")), _escape), max_size=5)


@st.composite
def _statement(draw, prefixed: bool):
    """One directive or triple; a false ``prefixed`` keeps to N-Triples."""
    iri = st.one_of(_pname_tok, _pname_tok, _iriref_tok) if prefixed else _iriref_tok
    if prefixed and draw(st.integers(0, 5)) == 0:
        label = draw(_label)
        target = f"<http://{label or 'base'}.example/{draw(_local)}>"
        return f"@prefix{draw(_sep)}{label}:{draw(_sep)}{target}{draw(_opt_sep)}."
    head = draw(st.one_of(iri, st.just("???")))
    relation = draw(iri)
    datatypes = ["", "^^<http://w3/dt>"] + (["^^xsd:string", "^^ex:dt"] if prefixed else [])
    literal = f'"{"".join(draw(_lit_body))}"{draw(st.sampled_from(datatypes))}'
    tail = draw(st.one_of(iri, st.just(literal), st.just("???")))
    return f"{head}{draw(_sep)}{relation}{draw(_sep)}{tail}{draw(_opt_sep)}."


# Names and typed strings as ``serialize`` writes them, under the prefixes
# that ``_document``'s header maps; ``_mutated`` breaks them.
_plain_name = st.builds(
    "{}:{}".format,
    st.sampled_from(["ex", "icm", ""]),
    st.sampled_from(["n", "m", "B1", "a.b", "x-y"]),
)
_plain_literal = st.builds(
    '"{}"^^{}'.format, st.sampled_from(["v", "", "w", "\\u0076", "a b"]), _plain_name
)


@st.composite
def _plain_line(draw):
    """A single-space ``A B C .`` line, whose terms are often new."""
    tail = draw(st.one_of(_plain_name, _plain_literal, _iriref_tok))
    return f"{draw(_plain_name)} {draw(_plain_name)} {tail} ."


@st.composite
def _document(draw, prefixed: bool = True):
    parts = []
    header = prefixed and draw(st.booleans())
    if header:
        parts += [f"@prefix {p}: <http://{p or 'base'}.example/> ." for p in ("ex", "icm", "xsd", "")]
    parts += draw(st.lists(_statement(prefixed), max_size=8))
    seps = [draw(_sep) for _ in parts]
    text = draw(_opt_sep) + "".join(p + s for p, s in zip(parts, seps))
    if header and draw(st.integers(0, 3)) > 0:  # three times in four
        # Every statement before these blank lines ends in '.', so none is
        # open and the line rule is the first to read the lines after them.
        lines = draw(st.lists(_plain_line(), min_size=2, max_size=6))
        text += "\n" * 16 + "".join(line + "\n" for line in lines)
    return text


# a document and whether it was written as N-Triples
_documents = st.one_of(
    st.tuples(_document(True), st.just(False)),
    st.tuples(_document(False), st.just(True)),
)


# Hypothesis leans towards the first entries, so the bad characters come last.
_BAD_SNIPPETS = [
    "zz:a ex:r ex:b .",
    '"lit" ex:r ex:b .',
    'ex:a "lit" ex:b .',
    "ex:a ??? ex:b .",
    'ex:a ex:r "bad\\q" .',
    'ex:a ex:r "\\u12" .',
    'ex:a ex:r "dangling\\" .',
    'ex:a ex:r "\\U00110000" .',
    'ex:a ex:r "v"^^zz:dt .',
    'ex:a ex:r "v"^^"x" .',
    'ex:a ex:r "v"^^',
    '<http://e/a> <http://e/r> "x\\q" .',
    '<http://e/a> "lit" <http://e/b> .',
    "<http://e/a> ??? <http://e/b> .",
    "<http://e/a> <http://e/r> .",
    "@prefix zz <http://z/> .",
    '@prefix zz: "x" .',
    "@prefix zz: <http://z/>",
    "ex:a ex:r",
    "@prefixes",
    "{",
    "%",
]
_SNIPPETS = _BAD_SNIPPETS + ["@prefix zz: <http://z/> .", "<http://e/a> <http://e/r> <http://e/a> ."]


@st.composite
def _mutated(draw):
    text, ntriples = draw(_documents)
    for _ in range(draw(st.sampled_from([1, 1, 2]))):
        at = draw(st.integers(0, len(text)))
        choice = draw(st.integers(0, 4))
        if choice <= 2:  # splice in a snippet, mostly an invalid one, often between lines
            lines = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
            if choice < 2:
                at = draw(st.sampled_from(lines))
            text = text[:at] + draw(st.sampled_from(_SNIPPETS)) + text[at:]
        elif choice == 3:  # drop one character, often a '.'
            dots = [i for i, ch in enumerate(text) if ch == "."]
            if dots and draw(st.booleans()):
                at = draw(st.sampled_from(dots))
            text = text[:at] + text[at + 1 :]
        else:  # insert one character the grammar may not allow there
            text = text[:at] + draw(st.sampled_from(list(".^\"<>?:\\\n#%"))) + text[at:]
    return text, ntriples


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_documents)
def test_parse_matches_reference_on_generated_documents(case):
    text, ntriples = case
    assert_same_as_reference(text, ntriples)
    if ntriples:  # so the N-Triples comparison above is never skipped here
        assert _outcome(_reference_parse_ntriples, text)[0] == "parsed"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_mutated())
def test_parse_matches_reference_on_mutated_documents(case):
    assert_same_as_reference(*case)


# The line rule reads a line of plain terms or terms already read while no
# statement is open. The lines after the second @prefix ex: repeat terms in
# forms the line rule reads as the token reader does (a CRLF line, a glued
# typed literal, a plain literal, an <IRI>) or leaves to it (a tab, a doubled
# space, a trailing comment).
_VALID = (
    "@prefix ex: <http://e.example/ns#> .\r\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    "ex:a ex:r ex:b . # comment\n"
    'ex:a ex:r "v\\n\\u00e9" .\n'
    'ex:a ex:r "v\\n\\u00e9"^^xsd:string .\n'
    'ex:b ex:r "w" ^^ xsd:string .\n'
    "??? ex:r ??? .\n"
    "<http://e/c> ex:s ex:c .\n"
    "ex:c ex:s ex:d .\n"
    "ex:d ex:s <http://e/c> .\n"
    "ex:c ex:r ex:a .\n"
    "ex:d ex:r ex:b .\n"
    "ex:b ex:s ex:d .\n"
    "ex:a ex:s ex:c .\n"
    "@prefix ex: <http://elsewhere/> .\n"
    "\n"
    "ex:a ex:r ex:b .\n"
    'ex:b ex:r "w"^^xsd:string .\r\n'
    "ex:b\tex:r ex:a .\n"
    "ex:a  ex:r ex:b .\n"
    "ex:b ex:r ex:a . # comment\n"
    'ex:a ex:r "v\\n\\u00e9" .\n'
    "<http://e/c> ex:s ex:c .\n"
    "ex:a ex:r ex:b .\n"
)


def test_parse_matches_reference_on_valid_document():
    outcome = assert_same_as_reference(_VALID)
    assert outcome[0] == "parsed" and len(outcome[1]) == 13  # 21 statements, 8 repeated


@pytest.mark.parametrize(
    "text",
    [_VALID + snippet + "\n" for snippet in _BAD_SNIPPETS]
    + [_VALID.replace("ex:b .\n", "ex:b\n", 1)]  # a dropped '.'
    # a line of the line rule's shape after a statement left open
    + [_VALID + "ex:a ex:r\nex:a ex:r ex:b .\nex:a ex:r ex:b .\n"],
)
def test_parse_matches_reference_on_each_mutation(text):
    assert assert_same_as_reference(text)[0] == "raised"


# Every statement of the lead is closed, so the line after it is one the line
# rule reads: there it is the first use of ex:n, ex:q and ex:m. The literal is
# read first in an escaped spelling, which a plain one must share.
_LEAD = (
    "@prefix ex: <http://e.example/ns#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    'ex:a ex:r "\\u0076"^^xsd:string .\n'
) + "ex:a ex:r ex:b .\n" * 16


_NEW_PLAIN_LINES = [
    "ex:n ex:q ex:m .",
    "ex:n ex:n ex:n .",
    'ex:n ex:q "v"^^xsd:string .',
    'ex:n ex:q "w"^^ex:dt .\r',
]
# Lines whose first use the line rule leaves to the token reader, valid or not.
_FIRST_USE_RUN_LINES = [
    "zz:n ex:q ex:m .",
    "ex:n zz:q ex:m .",
    "ex:n ex:q zz:m .",
    'ex:n ex:q "v"^^zz:dt .',
    "ex:n :q ex:m .",
    '"v"^^xsd:string ex:q ex:m .',
    'ex:n "v"^^xsd:string ex:m .',
    "ex:n. ex:q ex:m .",
    "ex:n ex:q ex:m. .",
    "<http://e/n> ex:q ex:m .",
    "ex:n <http://e/q> ex:m .",
    'ex:n ex:q "v\\u0041"^^xsd:string .',
    'ex:n ex:q "v\\q"^^xsd:string .',
    'ex:n ex:q "v" .',
    "ex:n ex:q ??? .",
    "ex:n ex:q % .",
    'ex:n ex:q "v"^^"x" .',
]


@pytest.mark.parametrize(
    "line,plain",
    [(line, True) for line in _NEW_PLAIN_LINES]
    + [(line, False) for line in _FIRST_USE_RUN_LINES],
)
def test_line_rule_reads_a_first_use_as_the_token_reader_does(line, plain, monkeypatch):
    text = _LEAD + line + "\nex:a ex:r ex:b .\n"
    scanned = _count_scans(monkeypatch)
    outcome = assert_same_as_reference(text)
    assert any(line in run for run in scanned) is not plain  # a new plain line needs no scan
    if outcome[0] == "parsed":
        g = parse(text)
        assert list(g.terms) == list(reference_parse(text).terms)
        # One shared Term per term: each one a triple holds is the one listed.
        listed = set(map(id, g.terms))
        assert all(id(term) in listed for t in g for term in (t.head, t.relation, t.tail))


# Hypothesis documents hold at most eight statements; these cases put the
# failing token thousands of tokens into the desk IKG, whose offset is only
# worked out once the error is raised.
def _drop_last_dot(text: str) -> str:
    return text[: text.rindex(" .")] + "\n"


def _bad_escape_in_last_literal(text: str) -> str:
    end = text.rindex('"^^')
    return text[:end] + "\\q" + text[end:]


def _percent_after_early_dot_drop(text: str) -> str:
    lines = text.split("\n")
    lines[20] = lines[20][: lines[20].rindex(" .")]
    return "\n".join(lines) + "%"


@pytest.mark.parametrize(
    "mutate,message",
    [
        (_drop_last_dot, "expected '.' after triple"),
        (_bad_escape_in_last_literal, "unsupported escape '\\q' in literal"),
        (_percent_after_early_dot_drop, "unexpected character '%'"),
        (lambda text: _percent_after_early_dot_drop(text).replace("\n", "\r\n"),
         "unexpected character '%'"),
        (lambda text: _bad_escape_in_last_literal(text).replace("\n", "\r\n"),
         "unsupported escape '\\q' in literal"),
    ],
    ids=["missing-last-dot", "bad-escape-near-end", "bad-char-wins", "bad-char-wins-crlf",
         "bad-escape-crlf"],
)
def test_parse_matches_reference_on_desk_ikg_errors(desk_ikg, mutate, message):
    text = mutate(serialize(desk_ikg))
    outcome = assert_same_as_reference(text)
    assert outcome[:2] == ("raised", ParseError) and outcome[2].endswith(message)
    assert outcome[3] > 1000  # far into the document
