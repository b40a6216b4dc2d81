"""Text-to-intent pipeline: gazetteer, templates, slot filling, verification."""

from __future__ import annotations

import copy
import logging
import math
import pickle

import numpy as np
import pytest

from ikge import pipeline
from ikge.ikggen import IkgGenSpec, gen_ikg
from ikge.model import ThresholdTable, init_model, score, score_candidates
from ikge.pipeline import (
    BlueprintError,
    CorpusHint,
    KeywordMatch,
    NetworkIntent,
    RDF_TYPE,
    RDFS_SUBCLASS,
    OntologyIndex,
    Prediction,
    ROLE_ANCHORS,
    ROLE_BY_RELATION,
    ROLE_RESOURCE,
    ROLE_SERVICE,
    ROLE_VALUE,
    Slot,
    UnresolvedSlotError,
    VerificationFailedError,
    build_template,
    complete_template,
    extract_keywords,
    load_corpus,
    merge_hints,
    predict_candidates,
    translate,
    verify_intent,
)
from ikge.rdf import Graph, ParseError, Term, Triple, VocabError, build_vocab, parse, serialize

PREFIX_BLOCK = (
    "@prefix icm: <http://intent.example/icm#> .\n"
    "@prefix kpi: <http://intent.example/kpi#> .\n"
    "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix service: <http://intent.example/service#> .\n"
    "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
)

TOY_IKG_TEXT = PREFIX_BLOCK + (
    "icm:Intent icm:hasExpectation icm:Expectation .\n"
    "icm:Target rdfs:subclass service:VideoService .\n"
    "service:VideoService rdfs:subclass service:StreamVideo .\n"
    "service:VideoService rdfs:subclass service:ConvVideo .\n"
    "service:LegacyVideo rdf:type icm:Target .\n"
    "service:NetworkResource rdfs:subclass service:GBR .\n"
    "service:NetworkResource rdfs:subclass service:NonGBR .\n"
    "service:GBR rdfs:subclass service:Gbr01 .\n"
    "service:GBR rdfs:subclass service:Gbr02 .\n"
    "service:NonGBR rdfs:subclass service:NonGbr01 .\n"
    "service:StreamVideo icm:targetResource service:Gbr01 .\n"
    "service:ConvVideo icm:targetResource service:NonGbr01 .\n"
    "icm:Expectation icm:hasParameter kpi:latency .\n"
    "service:StreamVideo icm:hasParameter kpi:latency .\n"
    'kpi:latency icm:valueBy "150ms"^^xsd:string .\n'
    'kpi:latency icm:valueBy "20ms"^^xsd:string .\n'
    'kpi:throughput icm:valueBy "10mbps"^^xsd:string .\n'
    "icm:PropertyExpectation icm:hasTarget service:StreamVideo .\n"
    "icm:PropertyExpectation icm:hasTarget service:ConvVideo .\n"
)

TOY_CORPUS_TEXT = (
    "# keyword corpus\n"
    "Video\tservice\tservice:VideoService\n"
    "stream video\tservice\tservice:StreamVideo\n"
    "\n"
    "reliable\tresource\tservice:GBR\n"
    "latency\tkpi\tkpi:latency\n"
    'fast\tvalue\t"150ms"^^xsd:string\n'
)

TOY_BLUEPRINT_TEXT = PREFIX_BLOCK + (
    "icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .\n"
    "icm:PropertyExpectation icm:hasTarget ??? .\n"
    "icm:Target icm:targetResource ??? .\n"
    "kpi:latency icm:valueBy ??? .\n"
)


@pytest.fixture(scope="module")
def toy_ikg():
    return parse(TOY_IKG_TEXT)


@pytest.fixture(scope="module")
def toy_model(toy_ikg):
    return init_model(build_vocab(toy_ikg), dim=8, seed=5)


@pytest.fixture(scope="module")
def toy_index(toy_ikg):
    return OntologyIndex(toy_ikg)


@pytest.fixture(scope="module")
def toy_corpus(toy_ikg):
    return load_corpus(TOY_CORPUS_TEXT, toy_ikg)


def iri(text: str) -> Term:
    return Term.iri(text)


# ---------------------------------------------------------------------------
# corpus loading


def test_load_corpus_entries(toy_corpus):
    assert len(toy_corpus.entries) == 5
    assert [h.term.text for h in toy_corpus.entries["video"]] == ["service:VideoService"]
    assert toy_corpus.entries["fast"][0].term == Term.literal("150ms", "xsd:string")
    assert "stream video" in toy_corpus.entries


def test_load_corpus_rejects_wrong_field_count(toy_ikg):
    with pytest.raises(ParseError) as info:
        load_corpus("video\tservice\n", toy_ikg)
    assert info.value.line == 1


def test_load_corpus_rejects_unknown_role(toy_ikg):
    with pytest.raises(ParseError, match="unknown role"):
        load_corpus("video\tflavor\tservice:VideoService\n", toy_ikg)


def test_load_corpus_rejects_term_outside_vocab(toy_ikg):
    with pytest.raises(ParseError, match="not in the IKG vocabulary") as info:
        load_corpus(
            "# header\nvideo\tservice\tservice:VideoService\nghost\tservice\tservice:Ghost\n",
            toy_ikg,
        )
    assert info.value.line == 3


@pytest.mark.parametrize("keyword", ["best-effort", "5g/nr", "low  latency!", "naïve"])
def test_load_corpus_rejects_keywords_that_can_never_match(toy_ikg, keyword):
    # extract_keywords matches [a-z0-9]+ tokens, so no text can match these
    with pytest.raises(ParseError, match="can never match") as info:
        load_corpus(
            f"video\tservice\tservice:VideoService\n{keyword}\tservice\tservice:VideoService\n",
            toy_ikg,
        )
    assert info.value.line == 2


def test_load_corpus_accepts_multiword_and_mixed_case_keywords(toy_ikg):
    corpus = load_corpus("Stream Video\tservice\tservice:VideoService\n", toy_ikg)
    assert [m.keyword for m in extract_keywords("a STREAM video", corpus)] == ["stream video"]


def test_load_corpus_rejects_placeholder_term(toy_ikg):
    with pytest.raises(ParseError):
        load_corpus("video\tservice\t???\n", toy_ikg)


def test_load_corpus_accepts_a_relation_or_literal_tail_hint(toy_ikg):
    # icm:hasTarget is only ever a relation, "20ms" only ever a tail: each is
    # a term of the IKG, so a hint may name it.
    corpus = load_corpus('target\tservice\ticm:hasTarget\nquick\tvalue\t"20ms"^^xsd:string\n',
                         toy_ikg)
    assert corpus.entries["target"][0].term == Term.iri("icm:hasTarget")
    assert corpus.entries["quick"][0].term == Term.literal("20ms", "xsd:string")
    with pytest.raises(ParseError, match='^line 1, col 1: hint term "20ms" not in the IKG'):
        load_corpus('quick\tvalue\t"20ms"\n', toy_ikg)  # no datatype: another term


def test_load_corpus_rejects_an_ikg_with_a_placeholder():
    ikg = parse(TOY_IKG_TEXT + "icm:Intent icm:hasTarget ??? .\n")
    with pytest.raises(VocabError, match="^placeholder term in graph"):
        load_corpus(TOY_CORPUS_TEXT, ikg)


# ---------------------------------------------------------------------------
# keyword extraction


def test_extract_keywords_in_text_order(toy_corpus):
    matches = extract_keywords("I need a reliable video feed", toy_corpus)
    assert [m.keyword for m in matches] == ["reliable", "video"]
    assert matches[1].hints[0].term == iri("service:VideoService")


def test_extract_keywords_prefers_longest_match(toy_corpus):
    matches = extract_keywords("give me Stream Video now", toy_corpus)
    assert [m.keyword for m in matches] == ["stream video"]


def test_extract_keywords_longest_then_rescan(toy_corpus):
    matches = extract_keywords("video stream video", toy_corpus)
    assert [m.keyword for m in matches] == ["video", "stream video"]


def test_extract_keywords_dedupes_case_insensitively(toy_corpus):
    matches = extract_keywords("VIDEO video Video", toy_corpus)
    assert [m.keyword for m in matches] == ["video"]


def test_extract_keywords_no_matches(toy_corpus):
    assert extract_keywords("", toy_corpus) == []
    assert extract_keywords("hello world", toy_corpus) == []


def test_merge_hints_dedupes_in_order():
    a = KeywordMatch("x", (CorpusHint(ROLE_SERVICE, iri("service:A")),))
    b = KeywordMatch(
        "y",
        (
            CorpusHint(ROLE_SERVICE, iri("service:A")),
            CorpusHint(ROLE_SERVICE, iri("service:B")),
            CorpusHint(ROLE_RESOURCE, iri("service:R")),
        ),
    )
    hints = merge_hints([a, b])
    assert hints == {
        ROLE_SERVICE: [iri("service:A"), iri("service:B")],
        ROLE_RESOURCE: [iri("service:R")],
    }


# ---------------------------------------------------------------------------
# templates


def test_build_template_splits_blueprint(toy_ikg):
    # A blueprint may bind the IKG's prefixes as the IKG does, and others freely.
    blueprint = parse("@prefix ex: <http://e.example/> .\n" + TOY_BLUEPRINT_TEXT)
    template = build_template([], toy_ikg, blueprint)
    assert template.intent_id == "intent"
    assert len(template.complete) == 1
    assert [s.slot_id for s in template.slotted] == [0, 1, 2]
    assert [s.role for s in template.slotted] == ["service", "resource", "value"]
    assert all(s.position == "tail" for s in template.slotted)
    assert template.prefixes == {**toy_ikg.prefix_map, "ex": "http://e.example/"}


def test_build_template_intent_id_from_keywords(toy_ikg, toy_corpus):
    matches = extract_keywords("reliable stream video", toy_corpus)
    template = build_template(matches, toy_ikg, parse(TOY_BLUEPRINT_TEXT))
    assert template.intent_id == "intent-reliable-stream_video"


def test_build_template_rejects_double_placeholder(toy_ikg):
    blueprint = parse(PREFIX_BLOCK + "??? icm:hasTarget ??? .\n")
    with pytest.raises(BlueprintError, match="multiple placeholders"):
        build_template([], toy_ikg, blueprint)


def test_build_template_rejects_unmapped_relation(toy_ikg):
    blueprint = parse(PREFIX_BLOCK + "icm:Expectation icm:hasExpectation ??? .\n")
    with pytest.raises(BlueprintError, match="no role mapping"):
        build_template([], toy_ikg, blueprint)


def test_build_template_orders_slots_by_id(toy_ikg):
    # complete_template fills slots in this order, so a later slot can read
    # an earlier slot's anchor substitution
    t5 = Triple(iri("icm:PropertyExpectation"), iri("icm:hasTarget"), Term.placeholder(5))
    t1 = Triple(iri("icm:Target"), iri("icm:targetResource"), Term.placeholder(1))
    template = build_template([], toy_ikg, Graph([t5, t1], toy_ikg.prefix_map))
    assert [(s.slot_id, s.role) for s in template.slotted] == [
        (1, ROLE_RESOURCE),
        (5, ROLE_SERVICE),
    ]


# ---------------------------------------------------------------------------
# ontology index


def test_closure_contents_and_caching(toy_index):
    target = toy_index.closure(iri("icm:Target"))
    assert target == frozenset(
        {
            iri("icm:Target"),
            iri("service:VideoService"),
            iri("service:StreamVideo"),
            iri("service:ConvVideo"),
        }
    )
    assert toy_index.closure(iri("icm:Target")) is target  # cached object
    assert toy_index.closure(iri("service:Gbr01")) == frozenset({iri("service:Gbr01")})


def test_admissible_service_role(toy_index):
    rel = iri("icm:hasTarget")
    assert toy_index.admissible(iri("service:StreamVideo"), ROLE_SERVICE, rel)
    assert toy_index.admissible(iri("service:VideoService"), ROLE_SERVICE, rel)
    # typed but not a subclass
    assert toy_index.admissible(iri("service:LegacyVideo"), ROLE_SERVICE, rel)
    # the anchor class itself is not a valid completion
    assert not toy_index.admissible(iri("icm:Target"), ROLE_SERVICE, rel)
    assert not toy_index.admissible(iri("icm:Intent"), ROLE_SERVICE, rel)
    assert not toy_index.admissible(iri("service:Gbr01"), ROLE_SERVICE, rel)
    assert not toy_index.admissible(Term.literal("150ms", "xsd:string"), ROLE_SERVICE, rel)


def test_admissible_resource_role(toy_index):
    rel = iri("icm:targetResource")
    for name in ("service:GBR", "service:Gbr01", "service:Gbr02", "service:NonGbr01"):
        assert toy_index.admissible(iri(name), ROLE_RESOURCE, rel)
    assert not toy_index.admissible(iri("service:NetworkResource"), ROLE_RESOURCE, rel)
    assert not toy_index.admissible(iri("service:StreamVideo"), ROLE_RESOURCE, rel)


def test_admissible_value_role(toy_index):
    rel = iri("icm:valueBy")
    assert toy_index.admissible(Term.literal("150ms", "xsd:string"), ROLE_VALUE, rel)
    assert toy_index.admissible(Term.literal("10mbps", "xsd:string"), ROLE_VALUE, rel)
    # same lexical form but no datatype is a different term
    assert not toy_index.admissible(Term.literal("150ms"), ROLE_VALUE, rel)
    assert not toy_index.admissible(Term.literal("999h", "xsd:string"), ROLE_VALUE, rel)
    assert not toy_index.admissible(iri("kpi:latency"), ROLE_VALUE, rel)
    # unobserved relation has no literal pool
    assert not toy_index.admissible(
        Term.literal("150ms", "xsd:string"), ROLE_VALUE, iri("icm:hasTarget")
    )


def test_admissible_role_without_anchor(toy_index):
    rel = iri("icm:hasParameter")
    assert toy_index.admissible(iri("kpi:latency"), "kpi", rel)
    assert not toy_index.admissible(Term.literal("150ms", "xsd:string"), "kpi", rel)


def test_hint_consistency(toy_index):
    hints = [iri("service:VideoService")]
    assert toy_index.hint_consistent(iri("service:StreamVideo"), hints)
    assert toy_index.hint_consistent(iri("service:VideoService"), hints)
    assert not toy_index.hint_consistent(iri("service:Gbr01"), hints)
    # any hint may justify the candidate
    assert toy_index.hint_consistent(
        iri("service:Gbr01"), [iri("service:VideoService"), iri("service:GBR")]
    )


# ---------------------------------------------------------------------------
# candidate prediction


def slot_for(text: str, toy_ikg: Graph) -> Slot:
    template = build_template([], toy_ikg, parse(PREFIX_BLOCK + text))
    return template.slotted[0]


def test_predict_candidates_rejects_bad_k(toy_model, toy_ikg):
    slot = slot_for("icm:PropertyExpectation icm:hasTarget ??? .\n", toy_ikg)
    with pytest.raises(ValueError):
        predict_candidates(toy_model, slot, 0, toy_ikg)


def test_predict_candidates_shape(toy_model, toy_ikg):
    slot = slot_for("icm:PropertyExpectation icm:hasTarget ??? .\n", toy_ikg)
    preds = predict_candidates(toy_model, slot, 5, toy_ikg)
    assert [p.rank for p in preds] == [1, 2, 3, 4, 5]
    scores = [p.score for p in preds]
    assert scores == sorted(scores, reverse=True)
    assert all(p.candidate.is_iri for p in preds)


def brute_force_top(model, slot, k, pool_ids):
    vocab = model.vocab
    scored = []
    for e in pool_ids:
        if slot.position == "tail":
            h = vocab.entity_id(slot.triple.head)
            r = vocab.relation_id(slot.triple.relation)
            s = score(model, h, r, e)
        else:
            t = vocab.entity_id(slot.triple.tail)
            r = vocab.relation_id(slot.triple.relation)
            s = score(model, e, r, t)
        scored.append((-s, e))
    scored.sort()
    return [(vocab.entities[e], -neg) for neg, e in scored[:k]]


def test_predict_candidates_matches_brute_force_tail(toy_model, toy_ikg):
    slot = slot_for("icm:PropertyExpectation icm:hasTarget ??? .\n", toy_ikg)
    pool = [i for i, t in enumerate(toy_model.vocab.entities) if not t.is_literal]
    expected = brute_force_top(toy_model, slot, 6, pool)
    preds = predict_candidates(toy_model, slot, 6, toy_ikg)
    assert [(p.candidate, p.score) for p in preds] == expected


def test_predict_candidates_matches_brute_force_head(toy_model, toy_ikg):
    slot = slot_for("??? icm:targetResource service:Gbr01 .\n", toy_ikg)
    assert slot.position == "head"
    pool = [i for i, t in enumerate(toy_model.vocab.entities) if not t.is_literal]
    expected = brute_force_top(toy_model, slot, 6, pool)
    preds = predict_candidates(toy_model, slot, 6, toy_ikg)
    assert [(p.candidate, p.score) for p in preds] == expected


def test_predict_candidates_value_pool(toy_model, toy_ikg):
    slot = slot_for("kpi:latency icm:valueBy ??? .\n", toy_ikg)
    preds = predict_candidates(toy_model, slot, 10, toy_ikg)
    assert len(preds) == 3  # only observed literals for icm:valueBy
    observed = {
        Term.literal("150ms", "xsd:string"),
        Term.literal("20ms", "xsd:string"),
        Term.literal("10mbps", "xsd:string"),
    }
    assert {p.candidate for p in preds} == observed


def test_predict_candidates_breaks_ties_by_entity_id(toy_ikg):
    model = init_model(build_vocab(toy_ikg), dim=4, seed=7)
    vocab = model.vocab
    a = vocab.entity_id(iri("service:StreamVideo"))
    b = vocab.entity_id(iri("service:ConvVideo"))
    model.entity_means[b] = model.entity_means[a]
    model.entity_covs[b] = model.entity_covs[a]
    slot = slot_for("icm:PropertyExpectation icm:hasTarget ??? .\n", toy_ikg)
    preds = predict_candidates(model, slot, vocab.n_entities, toy_ikg)
    ranks = {p.candidate: p.rank for p in preds}
    assert abs(ranks[iri("service:StreamVideo")] - ranks[iri("service:ConvVideo")]) == 1
    first = min((a, b)), max((a, b))
    assert ranks[vocab.entities[first[0]]] < ranks[vocab.entities[first[1]]]


# ---------------------------------------------------------------------------
# slot resolution


def toy_template(toy_ikg, matches=()):
    return build_template(list(matches), toy_ikg, parse(TOY_BLUEPRINT_TEXT))


def test_complete_template_takes_first_admissible(toy_model, toy_ikg, toy_index):
    k = toy_model.vocab.n_entities
    template = toy_template(toy_ikg)
    intent = complete_template(template, toy_model, toy_ikg, k=k)
    preds = predict_candidates(toy_model, template.slotted[0], k, toy_ikg)
    admissible = [
        p
        for p in preds
        if toy_index.admissible(p.candidate, ROLE_SERVICE, template.slotted[0].triple.relation)
    ]
    res = intent.resolutions[0]
    assert res.term == admissible[0].candidate
    assert res.rank == admissible[0].rank
    assert res.score == admissible[0].score
    assert res.note is None
    assert res.classified is None


def test_complete_template_substitutes_anchor(toy_model, toy_ikg):
    k = toy_model.vocab.n_entities
    template = toy_template(toy_ikg)
    intent = complete_template(template, toy_model, toy_ikg, k=k)
    service_term = intent.resolutions[0].term
    resource_resolution = intent.resolutions[1]
    assert resource_resolution.triple.head == service_term
    # the template itself is untouched
    assert template.slotted[1].triple.head == iri("icm:Target")


def test_complete_template_hint_preference(toy_model, toy_ikg, toy_index):
    k = toy_model.vocab.n_entities
    template = toy_template(toy_ikg)
    preds = predict_candidates(toy_model, template.slotted[0], k, toy_ikg)
    admissible = [
        p
        for p in preds
        if toy_index.admissible(p.candidate, ROLE_SERVICE, template.slotted[0].triple.relation)
    ]
    # aim the hint at an admissible candidate that is not ranked first
    target = next(p for p in admissible[1:] if p.candidate != iri("service:LegacyVideo"))
    hints = {ROLE_SERVICE: [target.candidate]}
    intent = complete_template(template, toy_model, toy_ikg, hints=hints, k=k)
    res = intent.resolutions[0]
    assert toy_index.hint_consistent(res.term, hints[ROLE_SERVICE])
    assert res.note is None
    first_consistent = next(
        p for p in admissible if toy_index.hint_consistent(p.candidate, hints[ROLE_SERVICE])
    )
    assert res.term == first_consistent.candidate


def test_complete_template_hint_conflict_logs_and_falls_back(
    toy_model, toy_ikg, toy_index, caplog
):
    k = toy_model.vocab.n_entities
    template = toy_template(toy_ikg)
    preds = predict_candidates(toy_model, template.slotted[0], k, toy_ikg)
    admissible = [
        p
        for p in preds
        if toy_index.admissible(p.candidate, ROLE_SERVICE, template.slotted[0].triple.relation)
    ]
    hints = {ROLE_SERVICE: [iri("service:GBR")]}  # excludes every service candidate
    with caplog.at_level(logging.WARNING, logger="ikge.pipeline"):
        intent = complete_template(template, toy_model, toy_ikg, hints=hints, k=k)
    res = intent.resolutions[0]
    assert res.term == admissible[0].candidate  # admissibility wins
    assert res.note is not None and "hint conflict" in res.note
    assert any("hint conflict" in r.message for r in caplog.records)
    assert intent.resolutions[1].note is None


def fallback_fixture():
    """d=1 model whose top prediction is inadmissible for the slot role."""
    text = PREFIX_BLOCK + (
        "@prefix nonmcptt: <http://intent.example/nonmcptt#> .\n"
        "service:NetworkResource rdfs:subclass service:GBR .\n"
        "service:GBR rdfs:subclass service:ResA .\n"
        "nonmcptt:Svc icm:targetResource service:ResA .\n"
        "nonmcptt:Svc icm:hasParameter kpi:lat .\n"
    )
    ikg = parse(text)
    v = build_vocab(ikg)
    model = init_model(v, dim=1, seed=0)
    means = {
        "service:NetworkResource": -0.9,
        "service:GBR": -0.5,
        "service:ResA": 0.3,
        "nonmcptt:Svc": 0.9,
        "kpi:lat": 0.4,
    }
    for name, mu in means.items():
        model.entity_means[v.entity_id(iri(name)), 0] = mu
    model.entity_covs[:] = 1.0
    model.relation_means[:] = 0.0
    model.relation_means[v.relation_id(iri("icm:targetResource")), 0] = 0.5
    model.relation_covs[:] = 1.0
    blueprint = parse(
        "@prefix icm: <http://intent.example/icm#> .\n"
        "@prefix nonmcptt: <http://intent.example/nonmcptt#> .\n"
        "nonmcptt:Svc icm:targetResource ??? .\n"
    )
    template = build_template([], ikg, blueprint)
    return model, ikg, template


def test_complete_template_skips_inadmissible_leader():
    model, ikg, template = fallback_fixture()
    slot = template.slotted[0]
    preds = predict_candidates(model, slot, 2, ikg)
    assert preds[0].candidate == iri("kpi:lat")  # best score, wrong kind
    assert preds[1].candidate == iri("service:ResA")
    intent = complete_template(template, model, ikg, k=2)
    res = intent.resolutions[0]
    assert res.term == iri("service:ResA")
    assert res.rank == 2


def test_complete_template_unresolved_slot():
    model, ikg, template = fallback_fixture()
    with pytest.raises(UnresolvedSlotError) as info:
        complete_template(template, model, ikg, k=1)
    assert info.value.slot_id == 0
    assert info.value.role == ROLE_RESOURCE
    assert "top-1" in str(info.value)


def test_selection_stable_as_k_grows():
    model, ikg, template = fallback_fixture()
    a = complete_template(template, model, ikg, k=2)
    b = complete_template(template, model, ikg, k=5)
    assert a.resolutions[0].term == b.resolutions[0].term
    assert a.resolutions[0].rank == b.resolutions[0].rank


# ---------------------------------------------------------------------------
# verification


def test_verify_intent_sets_flags(toy_model, toy_ikg):
    k = toy_model.vocab.n_entities
    intent = complete_template(toy_template(toy_ikg), toy_model, toy_ikg, k=k)
    verify_intent(intent, toy_model, ThresholdTable({}, fallback=-math.inf))
    assert intent.verified is True
    assert all(r.classified is True for r in intent.resolutions)
    verify_intent(intent, toy_model, ThresholdTable({}, fallback=math.inf))
    assert intent.verified is False
    assert all(r.classified is False for r in intent.resolutions)


def test_verify_intent_judges_complete_triples_in_the_vocabulary(toy_model, toy_ikg):
    known = toy_ikg.triples[0]  # icm:Intent icm:hasExpectation icm:Expectation
    scaffold = Triple(iri("icm:ServiceIntent"), iri("icm:hasExpectation"), iri("icm:Expectation"))
    intent = NetworkIntent("i", [scaffold, known], [])
    verify_intent(intent, toy_model, ThresholdTable({}, fallback=-math.inf))
    want = score(toy_model, *toy_model.vocab.triple_ids(known))
    assert intent.verdicts == [None, (want, True)]
    assert intent.verified is True
    verify_intent(intent, toy_model, ThresholdTable({}, fallback=math.inf))
    assert intent.verdicts == [None, (want, False)]
    assert intent.verified is False
    assert VerificationFailedError(intent).failing == [known]
    with pytest.raises(ValueError, match="^intent contains no triples the model can classify$"):
        verify_intent(NetworkIntent("i", [scaffold], []), toy_model, ThresholdTable({}, fallback=0.0))


def test_verify_intent_rejects_placeholder(toy_model):
    bad = NetworkIntent(
        "intent",
        [Triple(iri("icm:Intent"), iri("icm:hasTarget"), Term.placeholder(0))],
        [],
    )
    with pytest.raises(ValueError):
        verify_intent(bad, toy_model, ThresholdTable({}, fallback=0.0))


# ---------------------------------------------------------------------------
# end-to-end translation on the desk artifacts


def test_translate_reliable_video(desk_model, desk_ikg, shipped_corpus, shipped_blueprint):
    intent = translate(
        "reliable video", desk_model, desk_ikg, shipped_corpus, shipped_blueprint
    )
    assert intent.verified is True
    assert intent.intent_id == "intent-reliable-video"
    assert len(intent.resolutions) == 3
    svc, res, val = intent.resolutions
    assert svc.role == ROLE_SERVICE and res.role == ROLE_RESOURCE and val.role == ROLE_VALUE
    assert svc.term == iri("nonmcptt:StreamVideo") and svc.rank == 1
    assert res.term == iri("service:GbrResource08") and res.rank == 3
    assert val.term == Term.literal("150ms", "xsd:string") and val.rank == 1
    assert res.triple.head == svc.term  # anchor substitution visible in output
    assert all(r.classified is True for r in intent.resolutions)
    # serialization is deterministic and round-trips
    text = serialize(intent.to_graph())
    assert serialize(intent.to_graph()) == text
    assert parse(text) == intent.to_graph()
    doc = intent.report_document()
    assert doc["verified"] is True
    assert doc["n_triples"] == len(shipped_blueprint) - 3 + 3
    assert [s["slot_id"] for s in doc["slots"]] == [0, 1, 2]


def test_translate_without_keywords_still_verifies(
    desk_model, desk_ikg, shipped_corpus, shipped_blueprint
):
    intent = translate(
        "please help", desk_model, desk_ikg, shipped_corpus, shipped_blueprint
    )
    assert intent.verified is True
    assert intent.intent_id == "intent"
    svc, res, val = intent.resolutions
    assert svc.term == iri("nonmcptt:StreamVideo") and svc.rank == 1
    assert res.term == iri("service:NonGbrResource07") and res.rank == 1
    assert val.term == Term.literal("150ms", "xsd:string") and val.rank == 1


def test_translate_no_slots_blueprint(desk_model, desk_ikg, shipped_corpus):
    blueprint = parse(
        "@prefix icm: <http://intent.example/icm#> .\n"
        "icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .\n"
    )
    # Its one triple is scaffolding the model cannot score: nothing to judge.
    with pytest.raises(ValueError, match="^intent contains no triples the model can classify$"):
        translate("anything", desk_model, desk_ikg, shipped_corpus, blueprint)


def test_translate_refuses_a_blueprint_that_rebinds_an_ikg_prefix(
    desk_model, desk_ikg, shipped_corpus, shipped_blueprint
):
    # Terms match by their text, so the rebound icm: terms would still match
    # the IKG's while the intent declared them in another namespace.
    prefixes = {**shipped_blueprint.prefix_map, "icm": "http://other.example/icm#"}
    blueprint = Graph(shipped_blueprint.triples, prefixes)
    with pytest.raises(BlueprintError) as info:
        translate("reliable video", desk_model, desk_ikg, shipped_corpus, blueprint)
    assert str(info.value) == (
        "blueprint binds prefix 'icm:' to <http://other.example/icm#>,"
        " the IKG to <http://intent.example/icm#>"
    )


def test_translate_requires_thresholds(desk_ikg, desk_split, shipped_corpus, shipped_blueprint):
    bare = init_model(desk_split.vocab, dim=4, seed=0)  # no thresholds attached
    with pytest.raises(ValueError) as info:
        translate("reliable video", bare, desk_ikg, shipped_corpus, shipped_blueprint)
    assert str(info.value) == "model carries no thresholds; re-run train"


def test_translate_verification_failure_carries_intent(
    desk_model, desk_ikg, shipped_corpus, shipped_blueprint
):
    strict = copy.deepcopy(desk_model)
    strict.thresholds = ThresholdTable({}, fallback=1e9)
    with pytest.raises(VerificationFailedError) as info:
        translate("reliable video", strict, desk_ikg, shipped_corpus, shipped_blueprint)
    err = info.value
    assert err.intent.verified is False
    assert len(err.failing) == 3
    assert all(r.classified is False for r in err.intent.resolutions)


# ---------------------------------------------------------------------------
# differential test: OntologyIndex and the candidate pools against the
# list-scanning versions they replaced
#
# The code from here to the end of ``_reference_predict`` is a verbatim copy
# of the previous OntologyIndex and predict_candidates (renamed, with the
# model module's names imported directly). It is the oracle for the index's
# tables, every admissibility and hint verdict, and the candidate pools.

class _ReferenceIndex:
    """Subclass closure, type assertions and literal pools of one IKG."""

    def __init__(self, ikg: Graph):
        self.children: dict[Term, list[Term]] = {}
        self.types: dict[Term, set[Term]] = {}
        self.literal_tails: dict[str, list[Term]] = {}
        for t in ikg.triples:
            if t.relation == RDFS_SUBCLASS:
                self.children.setdefault(t.head, []).append(t.tail)
            elif t.relation == RDF_TYPE:
                self.types.setdefault(t.head, set()).add(t.tail)
            if t.tail.is_literal:
                bucket = self.literal_tails.setdefault(t.relation.text, [])
                if t.tail not in bucket:
                    bucket.append(t.tail)
        self._closures: dict[Term, frozenset[Term]] = {}

    def closure(self, root: Term) -> frozenset[Term]:
        """``root`` plus everything reachable along subclass edges."""
        cached = self._closures.get(root)
        if cached is not None:
            return cached
        out = {root}
        frontier = [root]
        while frontier:
            node = frontier.pop()
            for child in self.children.get(node, ()):
                if child not in out:
                    out.add(child)
                    frontier.append(child)
        result = frozenset(out)
        self._closures[root] = result
        return result

    def admissible(self, candidate: Term, role: str, relation: Term) -> bool:
        """Ontology admissibility of a candidate for a slot role.

        Service and resource candidates must sit strictly below the role's
        anchor class in the subclass hierarchy or be typed (rdf:type) with
        a class from that closure. Value candidates must be literals
        observed as objects of the slot's relation.
        """
        if role == ROLE_VALUE:
            return candidate.is_literal and candidate in self.literal_tails.get(
                relation.text, ()
            )
        anchor = ROLE_ANCHORS.get(role)
        if anchor is None:
            return not candidate.is_literal
        closure = self.closure(anchor)
        if candidate in closure and candidate != anchor:
            return True
        return bool(self.types.get(candidate, set()) & closure)

    def hint_consistent(self, candidate: Term, hint_terms) -> bool:
        return any(candidate in self.closure(h) for h in hint_terms)


def _reference_predict(
    model,
    slot: Slot,
    k: int,
    ikg: Graph,
    index: _ReferenceIndex | None = None,
) -> list[Prediction]:
    """Top-k completions for one slot, scores non-increasing, ranks 1..k.

    Value-role slots draw candidates only from the literals observed for
    the slot's relation in the IKG; other roles draw from all non-literal
    entities. Ties order by entity id.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    index = index or _ReferenceIndex(ikg)
    vocab = model.vocab
    triple = slot.triple
    r = vocab.relation_id(triple.relation)
    if slot.position == "tail":
        h = vocab.entity_id(triple.head)
        scores = score_candidates(model, h, r, 0, position="tail")
    else:
        t = vocab.entity_id(triple.tail)
        scores = score_candidates(model, 0, r, t, position="head")

    if slot.role == ROLE_VALUE:
        pool = [
            vocab.entity_id(lit)
            for lit in index.literal_tails.get(triple.relation.text, ())
            if lit in vocab
        ]
        pool = np.array(sorted(pool), dtype=np.int64)
    else:
        pool = np.array(
            [i for i, term in enumerate(vocab.entities) if not term.is_literal],
            dtype=np.int64,
        )
    if len(pool) == 0:
        return []
    pool_scores = scores[pool]
    order = np.lexsort((pool, -pool_scores))
    top = order[:k]
    return [
        Prediction(candidate=vocab.entities[pool[i]], score=float(pool_scores[i]), rank=rank)
        for rank, i in enumerate(top, start=1)
    ]


_SPEC_GRAPH = IkgGenSpec(seed=9, n_services=25, n_resources=8, n_kpis=6, target_triples=500)


@pytest.fixture(params=["toy", "desk", "spec"])
def any_ikg(request):
    if request.param == "spec":
        return gen_ikg(_SPEC_GRAPH)
    return request.getfixturevalue(f"{request.param}_ikg")


def test_ontology_index_matches_reference(any_ikg):
    g = any_ikg
    new, old = OntologyIndex(g), _ReferenceIndex(g)
    assert list(new.children.items()) == list(old.children.items())
    assert list(new.types.items()) == list(old.types.items())
    assert [(r, list(v)) for r, v in new.literal_tails.items()] == list(
        old.literal_tails.items()
    )
    assert any(old.literal_tails.values())

    vocab = build_vocab(g)
    classes = list(old.children)
    for root in list(ROLE_ANCHORS.values()) + classes:
        assert new.closure(root) == old.closure(root)
    hint_sets = [[a] for a in ROLE_ANCHORS.values()] + [[c] for c in classes[:20]] + [classes, []]
    verdicts = 0
    for candidate in vocab.entities + (Term.literal("never seen"), iri("icm:NeverSeen")):
        for relation in vocab.relations:
            assert new.admissible(candidate, ROLE_VALUE, relation) == old.admissible(
                candidate, ROLE_VALUE, relation
            )
            verdicts += old.admissible(candidate, ROLE_VALUE, relation)
        for role in (ROLE_SERVICE, ROLE_RESOURCE, "kpi"):
            assert new.admissible(candidate, role, vocab.relations[0]) == old.admissible(
                candidate, role, vocab.relations[0]
            )
            verdicts += old.admissible(candidate, role, vocab.relations[0])
        for hints in hint_sets:
            assert new.hint_consistent(candidate, hints) == old.hint_consistent(candidate, hints)
    assert verdicts > 0


def test_candidate_pools_match_reference(any_ikg):
    g = any_ikg
    old = _ReferenceIndex(g)
    # One literal of the graph is left out of the model's vocabulary; both
    # pools must skip it.
    missing = next(t.tail for t in g.triples if t.tail.is_literal)
    vocab = build_vocab(Graph([t for t in g.triples if t.tail != missing], g.prefix_map))
    assert missing not in vocab
    model = init_model(vocab, dim=4, seed=3)
    assert vocab.non_literal_ids.tolist() == [
        i for i, term in enumerate(vocab.entities) if not term.is_literal
    ]
    head = vocab.entities[0]
    slots = [
        Slot(Triple(head, relation, Term.placeholder(0)), 0, role, "tail")
        for relation in vocab.relations
        for role in (ROLE_VALUE, ROLE_SERVICE)
    ] + [Slot(Triple(Term.placeholder(0), relation, head), 0, ROLE_RESOURCE, "head")
         for relation in vocab.relations]
    value_slots = 0
    for slot in slots:
        for k in (1, 10, vocab.n_entities):
            got = predict_candidates(model, slot, k, g)
            assert got == _reference_predict(model, slot, k, g, index=old)
        if slot.role == ROLE_VALUE:
            pool = sorted(vocab.entity_id(p.candidate) for p in got)
            tails = old.literal_tails.get(slot.triple.relation.text, ())
            assert pool == sorted(vocab.entity_id(lit) for lit in tails if lit in vocab)
            value_slots += missing in tails
        else:
            assert len(got) == len(vocab.non_literal_ids)
    assert value_slots > 0


# The six slots the intent-requests benchmark predicts, one per role and
# position it serves.
_BENCH_PREDICT_SLOTS = (
    "icm:PropertyExpectation icm:hasTarget ???",
    "icm:Target icm:targetResource ???",
    "kpi:latency icm:valueBy ???",
    "??? icm:targetResource service:NonMcpttGBRService",
    "nonmcptt:ConvVideo icm:hasParameter ???",
    "??? icm:hasParameter kpi:throughput",
)


def _bench_predict_slot(ikg: Graph, text: str) -> Slot:
    header = "".join(f"@prefix {p}: <{iri}> .\n" for p, iri in sorted(ikg.prefix_map.items()))
    triple = parse(header + text + " .").triples[0]
    position = "head" if triple.head.is_placeholder else "tail"
    return Slot(triple, 0, ROLE_BY_RELATION.get(triple.relation.text, ROLE_SERVICE), position)


def test_one_ontology_index_per_graph(
    desk_model, desk_ikg, shipped_corpus, shipped_blueprint, monkeypatch
):
    # Repeated translates and the six benchmark predicts at every k build
    # the graph's index once, on first use, and a second round builds none.
    builds = []
    init = OntologyIndex.__init__

    def counting(self, ikg):
        builds.append(ikg)
        init(self, ikg)

    monkeypatch.setattr(OntologyIndex, "__init__", counting)
    graph = copy.copy(desk_ikg)  # equal, but no other test has indexed it
    oracle = _ReferenceIndex(graph)
    slots = [_bench_predict_slot(graph, text) for text in _BENCH_PREDICT_SLOTS]
    assert {(s.role == ROLE_VALUE, s.position) for s in slots} == {
        (True, "tail"), (False, "tail"), (False, "head")
    }
    texts = ["reliable video", "please help", "streaming video with low latency", "reliable video"]
    rounds = []
    for _ in range(2):
        builds.clear()
        intents = [
            translate(text, desk_model, graph, shipped_corpus, shipped_blueprint) for text in texts
        ]
        for slot in slots:
            for k in (1, 10, 50):
                got = predict_candidates(desk_model, slot, k, graph)
                assert got == _reference_predict(desk_model, slot, k, graph, index=oracle)
                assert len(got) == k
        rounds.append((list(builds), [serialize(i.to_graph()) for i in intents]))
    (first, intents), (second, again) = rounds
    assert len(first) == 1 and first[0] is graph and second == []
    assert again == intents
    assert intents[0] == serialize(
        translate("reliable video", desk_model, desk_ikg, shipped_corpus, shipped_blueprint).to_graph()
    )


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_graph_builds_its_own_index(toy_ikg, clone):
    graph = Graph(toy_ikg.triples, toy_ikg.prefix_map)
    index = pipeline.ontology_index(graph)
    assert pipeline.ontology_index(graph) is index
    twin = clone(graph)
    # Equality ignores the index: an indexed graph equals an unindexed one.
    assert twin == graph and graph == toy_ikg and twin._ontology_index is None
    assert pipeline.ontology_index(twin) is not index
    assert pipeline.ontology_index(graph) is index


def test_closure_memo_holds_only_classes_of_the_graph(toy_index):
    # A shared index must not grow with the terms its callers ask about.
    for n in range(20):
        stranger = iri(f"icm:NeverSeen{n}")
        assert toy_index.closure(stranger) == {stranger}
        assert not toy_index.hint_consistent(iri("service:GBR"), [stranger])
    assert toy_index.closure(ROLE_ANCHORS[ROLE_SERVICE]) >= {iri("service:StreamVideo")}
    assert toy_index._closures and set(toy_index._closures) <= set(toy_index.children)
