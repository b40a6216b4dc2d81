"""Acceptance criteria, one test per criterion.

Each criterion is a single test so the verbose pytest run shows one
pass/fail line per criterion. Oracles are independent of the package
code: closed-form densities and Monte Carlo for scores, central finite
differences for gradients, a sort-based re-implementation for ranks.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from ikge import rdf
from ikge.evaluation import (
    ClassificationMetrics,
    evaluate,
    evaluate_ranks,
    rank_triple,
)
from ikge.model import (
    _GRAD_FNS,
    EXPECTED_LIKELIHOOD,
    KL_DIVERGENCE,
    Kg2eModel,
    init_model,
    load_model,
    save_model,
    score,
)
from ikge.pipeline import (
    OntologyIndex,
    UnresolvedSlotError,
    build_template,
    complete_template,
    predict_candidates,
    translate,
)
from ikge.rdf import Graph, Term, Triple, build_vocab, parse, serialize

EL_ORACLE_ATOL = 1e-9
KL_MC_SAMPLES = 1_000_000
KL_MC_RTOL = 1e-2
KL_MC_ATOL = 1e-3
GRAD_FD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_FLOOR = 1e-6
CONVERGENCE_EPOCH_BOUND = 15
ACCURACY_BOUND = 0.80
HITS10_BOUND = 0.80
DIMS = (1, 2, 4, 8)


# Two entities and one relation: the triple (0, 0, 1) is the only one.
TRIPLE_VOCAB = build_vocab(parse("@prefix ex: <http://e.example/ns#> .\nex:h ex:r ex:t ."))


def random_params(rng, d):
    """Mean, then covariance diagonal, of one embedded element."""
    return rng.uniform(-1.0, 1.0, d) / math.sqrt(d), rng.uniform(0.05, 5.0, d)


def triple_model(h, r, t, score_kind=KL_DIVERGENCE):
    """A model whose triple (0, 0, 1) has the ``(mean, cov)`` rows h, r, t."""
    return Kg2eModel(
        TRIPLE_VOCAB,
        np.concatenate((np.stack([h[0], t[0]]), r[0][None])),
        np.concatenate((np.stack([h[1], t[1]]), r[1][None])),
        score_kind=score_kind,
    )


# ---------------------------------------------------------------------------
# criterion 1: score correctness against independent oracles


def test_c1_scores_match_density_and_monte_carlo_oracles():
    rng = np.random.default_rng(1001)
    z = np.random.default_rng(77).standard_normal((KL_MC_SAMPLES, max(DIMS)))
    zbar = z.mean(axis=0)
    m2 = (z**2).mean(axis=0)
    del z

    for i in range(500):
        d = DIMS[i % len(DIMS)]
        (mh, ch), (mr, cr), (mt, ct) = rows = [random_params(rng, d) for _ in range(3)]
        el_model = triple_model(*rows, score_kind=EXPECTED_LIKELIHOOD)
        kl_model = triple_model(*rows, score_kind=KL_DIVERGENCE)

        # expected-likelihood oracle: log-density of (mu_h - mu_t) under a
        # Gaussian at mu_r with the summed diagonal covariance, rescaled
        logpdf = multivariate_normal.logpdf(mh - mt, mean=mr, cov=np.diag(ch + ct + cr))
        oracle_el = 2.0 * logpdf + d * math.log(2.0 * math.pi)
        assert abs(score(el_model, 0, 0, 1) - oracle_el) <= EL_ORACLE_ATOL

        # KL oracle: Monte Carlo estimate of the divergence between the
        # entity-difference Gaussian and the relation Gaussian, via moments
        # of one shared standard-normal sample
        ce = ch + ct
        delta = mh - mt - mr
        est = 0.5 * np.sum(
            np.log(cr / ce)
            + (delta**2 + 2.0 * delta * np.sqrt(ce) * zbar[:d] + ce * m2[:d]) / cr
            - m2[:d]
        )
        np.testing.assert_allclose(
            est, -score(kl_model, 0, 0, 1), rtol=KL_MC_RTOL, atol=KL_MC_ATOL
        )


# ---------------------------------------------------------------------------
# criterion 2: analytic gradients match finite differences


def test_c2_gradients_match_central_finite_differences():
    rng = np.random.default_rng(2002)

    def fd_params(rng, d):
        # covariances away from the box edges so +/- h stays in range
        return rng.uniform(-1.0, 1.0, d) / math.sqrt(d), rng.uniform(0.1, 4.9, d)

    for i in range(200):
        d = DIMS[i % len(DIMS)]
        kind = (EXPECTED_LIKELIHOOD, KL_DIVERGENCE)[i % 2]
        model = triple_model(*[fd_params(rng, d) for _ in range(3)], score_kind=kind)
        # Parameter rows as views into the model, in the gradient's order.
        rows = (
            model.entity_means[0],
            model.relation_means[0],
            model.entity_means[1],
            model.entity_covs[0],
            model.relation_covs[0],
            model.entity_covs[1],
        )
        # The gradient function training applies, on the triple's six rows.
        mh, mr, mt, ch, cr, ct = rows
        grads = _GRAD_FNS[kind](mh, ch, mr, cr, mt, ct)
        names = ("mean_h", "mean_r", "mean_t", "cov_h", "cov_r", "cov_t")
        for name, array, analytic in zip(names, rows, grads):
            for j in range(d):
                orig = array[j]
                array[j] = orig + GRAD_FD_STEP
                up = score(model, 0, 0, 1)
                array[j] = orig - GRAD_FD_STEP
                down = score(model, 0, 0, 1)
                array[j] = orig
                fd = (up - down) / (2.0 * GRAD_FD_STEP)
                denom = max(abs(analytic[j]), abs(fd), GRAD_FLOOR)
                rel = abs(analytic[j] - fd) / denom
                assert rel <= GRAD_RTOL, (kind, name, j, analytic[j], fd)


# ---------------------------------------------------------------------------
# criterion 3: ranking protocol against a sort-based oracle


def oracle_rank(model, triple, side, known, filtered):
    vocab = model.vocab
    h = vocab.entity_id(triple.head)
    r = vocab.relation_id(triple.relation)
    t = vocab.entity_id(triple.tail)
    true_idx = t if side == "right" else h
    scores = []
    for e in range(vocab.n_entities):
        if side == "right":
            scores.append(score(model, h, r, e))
        else:
            scores.append(score(model, e, r, t))
    kept = []
    for e in range(vocab.n_entities):
        if filtered and e != true_idx:
            candidate = (
                Triple(triple.head, triple.relation, vocab.entities[e])
                if side == "right"
                else Triple(vocab.entities[e], triple.relation, triple.tail)
            )
            try:
                drop = candidate in known
            except ValueError:
                drop = False  # a literal head can never be a known triple
            if drop:
                continue
        kept.append(e)
    true_score = scores[true_idx]
    better = sum(1 for e in kept if scores[e] > true_score)
    tied = sum(1 for e in kept if scores[e] == true_score)
    return better + (tied + 1) / 2.0


def test_c3_rank_evaluation_matches_oracle_exactly():
    rng = np.random.default_rng(3003)
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    seen = set()
    while len(seen) < 150:
        s = (int(rng.integers(30)), int(rng.integers(5)), int(rng.integers(30)))
        if s not in seen:
            seen.add(s)
            lines.append(f"ex:e{s[0]} ex:r{s[1]} ex:e{s[2]} .")
    known = parse("\n".join(lines))
    vocab = build_vocab(known)
    model = init_model(vocab, dim=6, seed=11)
    # clone one entity onto another to force exact score ties
    a = vocab.entity_id(Term.iri("ex:e7"))
    b = vocab.entity_id(Term.iri("ex:e13"))
    model.entity_means[b] = model.entity_means[a]
    model.entity_covs[b] = model.entity_covs[a]

    test = Graph(known.triples[:40], known.prefix_map)
    both = evaluate_ranks(
        model,
        np.array(vocab.known_ids(test), dtype=np.int64),
        np.array(vocab.known_ids(known), dtype=np.int64),
        filtered=True,
    )
    for filtered, name in ((False, "raw"), (True, "filtered")):
        ranks = []
        for triple in test.triples:
            for side in ("right", "left"):
                expected = oracle_rank(model, triple, side, known, filtered)
                got = rank_triple(model, triple, side, known, filtered=filtered)
                assert got == expected, (str(triple), side, filtered)
                ranks.append(expected)
        metrics = both[name]
        assert metrics.mean_rank == np.mean(ranks)
        assert metrics.n_ranks == len(ranks)
        for k, value in metrics.hits.items():
            assert value == np.mean([rank <= k for rank in ranks])


# ---------------------------------------------------------------------------
# criterion 4: classification metric identities


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    tp=st.integers(0, 500),
    tn=st.integers(0, 500),
    fp=st.integers(0, 500),
    fn=st.integers(0, 500),
)
def test_c4_classification_metric_identities(tp, tn, fp, fn):
    m = ClassificationMetrics.from_counts(tp, tn, fp, fn)
    total = tp + tn + fp + fn
    if total == 0:
        assert m.accuracy is None
    else:
        assert math.isclose(m.accuracy, (tp + tn) / total, abs_tol=1e-12)
    if tp + fn == 0:
        assert m.tpr is None and m.fnr is None
    else:
        assert math.isclose(m.tpr + m.fnr, 1.0, abs_tol=1e-12)
    if tn + fp == 0:
        assert m.tnr is None and m.fpr is None
    else:
        assert math.isclose(m.tnr + m.fpr, 1.0, abs_tol=1e-12)
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    if precision is None or recall is None or precision + recall == 0:
        assert m.f1 is None
    else:
        assert math.isclose(m.f1, 2 * precision * recall / (precision + recall), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# criterion 5: training converges on the desk graph


def test_c5_training_converges_within_bound(desk_report):
    assert len(desk_report.epoch_losses) == 50
    assert all(np.isfinite(desk_report.epoch_losses))
    assert desk_report.epoch_losses[-1] < desk_report.epoch_losses[0]
    assert desk_report.convergence_epoch is not None
    assert desk_report.convergence_epoch <= CONVERGENCE_EPOCH_BOUND
    assert desk_report.constraint_violations == 0


# ---------------------------------------------------------------------------
# criterion 6: held-out quality bounds


def test_c6_heldout_accuracy_and_hits(desk_model, desk_ikg):
    doc = evaluate(desk_model, desk_ikg)
    assert doc["ranks"]["filtered"]["hits"]["10"] >= HITS10_BOUND
    assert doc["classification"]["accuracy"] >= ACCURACY_BOUND


# ---------------------------------------------------------------------------
# criterion 7: intent translation end to end


def test_c7_translation_and_admissibility_fallback(
    desk_model, desk_ikg, shipped_corpus, shipped_blueprint, desk_index
):
    intent = translate(
        "reliable video", desk_model, desk_ikg, shipped_corpus, shipped_blueprint
    )
    assert intent.verified is True
    svc, res, val = intent.resolutions
    video_closure = desk_index.closure(Term.iri("service:VideoService"))
    assert svc.term in video_closure and svc.term != Term.iri("service:VideoService")
    gbr_closure = desk_index.closure(Term.iri("service:GBR"))
    assert res.term in gbr_closure  # honors the "reliable" resource hint
    assert val.term.is_literal
    assert res.triple.head == svc.term
    again = translate(
        "reliable video", desk_model, desk_ikg, shipped_corpus, shipped_blueprint
    )
    assert serialize(again.to_graph()) == serialize(intent.to_graph())

    # admissibility must override raw rank: a d=1 model whose best-scoring
    # candidate has the wrong ontology type falls back to rank 2, and an
    # over-tight beam leaves the slot unresolved
    ikg = parse(
        "@prefix icm: <http://intent.example/icm#> .\n"
        "@prefix kpi: <http://intent.example/kpi#> .\n"
        "@prefix nonmcptt: <http://intent.example/nonmcptt#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix service: <http://intent.example/service#> .\n"
        "service:NetworkResource rdfs:subclass service:GBR .\n"
        "service:GBR rdfs:subclass service:ResA .\n"
        "nonmcptt:Svc icm:targetResource service:ResA .\n"
        "nonmcptt:Svc icm:hasParameter kpi:lat .\n"
    )
    v = build_vocab(ikg)
    model = init_model(v, dim=1, seed=0)
    for name, mu in (
        ("service:NetworkResource", -0.9),
        ("service:GBR", -0.5),
        ("service:ResA", 0.3),
        ("nonmcptt:Svc", 0.9),
        ("kpi:lat", 0.4),
    ):
        model.entity_means[v.entity_id(Term.iri(name)), 0] = mu
    model.entity_covs[:] = 1.0
    model.relation_means[:] = 0.0
    model.relation_means[v.relation_id(Term.iri("icm:targetResource")), 0] = 0.5
    model.relation_covs[:] = 1.0
    blueprint = parse(
        "@prefix icm: <http://intent.example/icm#> .\n"
        "@prefix nonmcptt: <http://intent.example/nonmcptt#> .\n"
        "nonmcptt:Svc icm:targetResource ??? .\n"
    )
    template = build_template([], ikg, blueprint)
    preds = predict_candidates(model, template.slotted[0], 2, ikg)
    assert preds[0].candidate == Term.iri("kpi:lat")  # top-ranked yet inadmissible
    resolved = complete_template(template, model, ikg, k=2)
    assert resolved.resolutions[0].term == Term.iri("service:ResA")
    assert resolved.resolutions[0].rank == 2
    with pytest.raises(UnresolvedSlotError):
        complete_template(template, model, ikg, k=1)


# ---------------------------------------------------------------------------
# criterion 8: deterministic persistence round trips


def test_c8_persistence_round_trips(desk_model, desk_ikg, shipped_blueprint, tmp_path):
    path = tmp_path / "model.json"
    save_model(desk_model, path)
    back = load_model(path)
    rng = np.random.default_rng(8008)
    n_e = back.vocab.n_entities
    n_r = back.vocab.n_relations
    back_el, desk_el = copy.deepcopy(back), copy.deepcopy(desk_model)
    back_el.score_kind = desk_el.score_kind = EXPECTED_LIKELIHOOD
    for _ in range(1000):
        h = int(rng.integers(n_e))
        r = int(rng.integers(n_r))
        t = int(rng.integers(n_e))
        assert score(back, h, r, t) == score(desk_model, h, r, t)
        assert score(back_el, h, r, t) == score(desk_el, h, r, t)
    save_model(back, tmp_path / "model2.json")
    assert (tmp_path / "model2.json").read_bytes() == path.read_bytes()

    escape_fixture = parse(
        '<http://e/a> <http://e/r> "tricky \\"text\\" with\\nnewlines\\t\\\\" .'
    )
    for graph in (desk_ikg, shipped_blueprint, escape_fixture):
        assert parse(serialize(graph)) == graph
        assert serialize(parse(serialize(graph))) == serialize(graph)
