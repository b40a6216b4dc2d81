"""Synthetic IKG generation."""

from __future__ import annotations

import re

import pytest

from ikge import ikggen
from ikge.ikggen import IkgGenSpec, InfeasibleSpecError, build_report, gen_ikg
from ikge.rdf import Term, Triple, build_vocab, parse, serialize


def test_default_spec_hits_target_exactly(desk_ikg):
    assert len(desk_ikg) == 1575
    anchor = Triple(
        Term.iri("service:GBR"),
        Term.iri("rdfs:subclass"),
        Term.iri("service:NonMcpttGBRService"),
    )
    assert anchor in desk_ikg
    assert Triple(
        Term.iri("icm:Intent"), Term.iri("icm:hasExpectation"), Term.iri("icm:Expectation")
    ) in desk_ikg
    assert Triple(
        Term.iri("kpi:latency"),
        Term.iri("icm:valueBy"),
        Term.literal("150ms", "xsd:string"),
    ) in desk_ikg


def test_generation_deterministic(desk_ikg):
    again = gen_ikg(IkgGenSpec())
    assert again == desk_ikg
    assert serialize(again) == serialize(desk_ikg)


def test_generated_graph_round_trips(desk_ikg):
    assert parse(serialize(desk_ikg)) == desk_ikg
    v = build_vocab(desk_ikg)
    assert v.n_entities > 100
    assert v.n_relations >= 5


def test_different_seed_changes_graph(desk_ikg):
    assert gen_ikg(IkgGenSpec(seed=43)) != desk_ikg


def test_custom_spec_sizes():
    g = gen_ikg(IkgGenSpec(seed=7, n_services=20, n_resources=8, n_kpis=4, target_triples=350))
    assert len(g) == 350
    g2 = gen_ikg(IkgGenSpec(seed=7, n_services=20, n_resources=8, n_kpis=4, target_triples=380))
    assert len(g2) == 380


def test_zero_kpis_allowed():
    g = gen_ikg(IkgGenSpec(seed=1, n_kpis=0, target_triples=600))
    assert len(g) == 600
    assert not any(t.relation == Term.iri("icm:valueBy") for t in g.triples)
    assert not any(t.tail.is_literal for t in g.triples)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_services", 2.5),
        ("target_triples", 1575.0),
        ("n_kpis", "3"),
        ("seed", True),
        ("n_resources", None),
    ],
)
def test_spec_fields_must_be_integers(field, value):
    # Checked as TrainConfig checks its integers, before any range check.
    with pytest.raises(TypeError) as info:
        IkgGenSpec(**{field: value})
    assert str(info.value) == f"{field} must be an integer, not {value!r}"


def test_infeasible_target_raises():
    with pytest.raises(InfeasibleSpecError):
        gen_ikg(IkgGenSpec(n_services=12, n_resources=6, n_kpis=4, target_triples=260))
    with pytest.raises(InfeasibleSpecError):
        gen_ikg(IkgGenSpec(target_triples=5))  # below the mandatory skeleton


def test_oversized_spec_is_refused_before_extra_candidates_are_built(monkeypatch):
    built = []

    def counting_triple(head, relation, tail):
        built.append(Triple(head, relation, tail))
        return built[-1]

    monkeypatch.setattr(ikggen, "Triple", counting_triple)
    with pytest.raises(InfeasibleSpecError, match="^mandatory structure needs") as info:
        gen_ikg(IkgGenSpec(n_services=200, n_resources=6, n_kpis=4, target_triples=100))
    # Every triple built is one of the mandatory ones the message counts:
    # no service-resource or service-KPI candidate was made.
    needed = int(re.search(r"needs (\d+) triples", str(info.value))[1])
    assert len(set(built)) == needed


def test_spec_validation():
    with pytest.raises(ValueError):
        IkgGenSpec(n_services=0)
    with pytest.raises(ValueError):
        IkgGenSpec(n_resources=0)
    with pytest.raises(ValueError):
        IkgGenSpec(n_kpis=-1)
    with pytest.raises(ValueError):
        IkgGenSpec(target_triples=0)
    with pytest.raises(ValueError, match="^seed must be non-negative$"):
        IkgGenSpec(seed=-1)
    assert IkgGenSpec(n_kpis=0, target_triples=600).n_kpis == 0


def test_build_report(desk_ikg):
    report = build_report(IkgGenSpec(), desk_ikg)
    assert report["n_triples"] == 1575
    assert report["target_triples"] == 1575
    assert report["seed"] == 42
    assert "positive" in report["note"].lower()


def test_literals_only_in_tail_position(desk_ikg):
    for t in desk_ikg.triples:
        assert t.head.is_iri and t.relation.is_iri
