"""Terms, triples, parsing, serialization, vocabulary."""

from __future__ import annotations

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
    assert g.has_placeholders
    assert g.triples[0].placeholder_count == 1
    assert g.triples[2].placeholder_count == 2


def test_parse_escape_sequences():
    text = '<http://e/a> <http://e/r> "line\\nbreak \\"q\\" tab\\t back\\\\ u\\u0041" .'
    g = parse(text)
    assert g.triples[0].tail.text == 'line\nbreak "q" tab\t back\\ uA'


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


def test_ntriples_rejects_turtle_features():
    with pytest.raises(ParseError, match="@prefix"):
        parse("@prefix ex: <http://e/> .", format=rdf.NTRIPLES)
    with pytest.raises(ParseError, match="prefixed names"):
        parse("ex:a <http://e/r> <http://e/b> .", format=rdf.NTRIPLES)


def test_parse_unknown_format():
    with pytest.raises(ValueError):
        parse("", format="rdfxml")


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


def test_serialize_round_trip_both_formats():
    text = (
        "@prefix ex: <http://e.example/ns#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        'ex:a ex:r "v\\nw"^^xsd:string .\n'
        "ex:b ex:r ex:a .\n"
        "<http://other/c> ex:r ex:b .\n"
    )
    g = parse(text)
    assert parse(serialize(g, rdf.TURTLE), rdf.TURTLE) == g

    # N-Triples expands every IRI, so compare against the expanded graph.
    expanded = Graph(
        [
            Triple(*(_expand(term, g) for term in (t.head, t.relation, t.tail)))
            for t in g.triples
        ],
        {},
    )
    nt = serialize(g, rdf.NTRIPLES)
    assert "@prefix" not in nt
    assert parse(nt, rdf.NTRIPLES) == expanded


def _expand(term: Term, g: Graph) -> Term:
    if term.is_iri:
        return Term.iri(g.expand_iri(term), prefixed=False)
    if term.is_literal and term.datatype and not term.datatype.startswith("<"):
        dt = g.expand_iri(Term.iri(term.datatype, prefixed=True))
        return Term.literal(term.text, f"<{dt}>")
    return term


def test_serialize_placeholders():
    g = parse("<http://e/a> <http://e/r> ??? .")
    assert "???" in serialize(g)
    assert parse(serialize(g)) == g


# ---------------------------------------------------------------------------
# terms and triples


def test_term_from_text_inverts_term_to_text():
    cases = [
        Term.iri("ex:a"),
        Term.iri("http://e/x", prefixed=False),
        Term.literal("plain"),
        Term.literal("typed", "xsd:string"),
        Term.literal('tricky "quote"\n', "<http://w3/dt>"),
    ]
    for term in cases:
        assert term_from_text(term_to_text(term)) == term


def test_term_from_text_rejects_placeholder():
    with pytest.raises(ValueError):
        term_from_text("???")


def test_term_iri_autodetects_prefixed_form():
    assert Term.iri("icm:Intent").prefixed
    assert not Term.iri("http://intent.example/icm#Intent").prefixed


def test_triple_validation():
    a = Term.iri("ex:a")
    r = Term.iri("ex:r")
    lit = Term.literal("v")
    with pytest.raises(ValueError):
        Triple(lit, r, a)  # literal head
    with pytest.raises(ValueError):
        Triple(a, lit, a)  # literal relation
    with pytest.raises(ValueError):
        Triple(a, Term.placeholder(0), a)  # placeholder relation
    assert str(Triple(a, r, lit)) == 'ex:a ex:r "v" .'


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
    assert g.duplicates_collapsed == 2


def test_graph_is_immutable():
    g = Graph([triple("ex:a", "ex:r", "ex:b")], EX)
    with pytest.raises(AttributeError):
        g.triples = ()


def test_graph_equality_is_order_insensitive():
    t1 = triple("ex:a", "ex:r", "ex:b")
    t2 = triple("ex:b", "ex:r", "ex:a")
    assert Graph([t1, t2], EX) == Graph([t2, t1], EX)
    assert Graph([t1], EX) != Graph([t2], EX)
    assert Graph([t1], EX) != Graph([t1], {"ex": "http://elsewhere/"})
    with pytest.raises(PrefixError):
        Graph([t1], {})  # prefixed term with no mapping


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


def test_graph_expand_iri():
    g = Graph([], EX)
    assert g.expand_iri(Term.iri("ex:a")) == "http://e.example/ns#a"
    assert g.expand_iri(Term.iri("http://raw/x", prefixed=False)) == "http://raw/x"
    with pytest.raises(PrefixError):
        g.expand_iri(Term.iri("nope:a"))


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
_full = st.builds(lambda loc: Term.iri(f"http://e.example/{loc}", prefixed=False), _local)
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
