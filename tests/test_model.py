"""Gaussian embedding scores, gradients, constraints, persistence."""

from __future__ import annotations

import base64
import copy
import json
import math
import re
import sys

import numpy as np
import pytest

from ikge import rdf
from ikge.model import (
    DEFAULT_C_MAX,
    DEFAULT_C_MIN,
    EXPECTED_LIKELIHOOD,
    KL_DIVERGENCE,
    MODEL_FORMAT_VERSION,
    PARAMETER_NAMES,
    Kg2eModel,
    ThresholdTable,
    _GRAD_FNS,
    apply_constraints,
    constraint_violations,
    init_model,
    load_model,
    model_from_document,
    model_to_document,
    require_number,
    save_model,
    score,
    score_candidates,
    score_triples,
)
from ikge.training import TrainConfig, train


def small_vocab(n_entities: int = 4, n_relations: int = 2) -> rdf.Vocab:
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    for r in range(n_relations):
        for e in range(n_entities - 1):
            lines.append(f"ex:e{e} ex:r{r} ex:e{e + 1} .")
    return rdf.build_vocab(rdf.parse("\n".join(lines)))


def gp(mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance diagonal of one embedded element."""
    return np.asarray(mean, float), np.asarray(cov, float)


def random_params(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    return gp(rng.uniform(-1, 1, d) / math.sqrt(d), rng.uniform(0.05, 5.0, d))


def triple_model(h, r, t, score_kind: str = KL_DIVERGENCE) -> Kg2eModel:
    """A 2-entity, 1-relation model whose triple (0, 0, 1) has the
    ``(mean, cov)`` rows h, r, t."""
    return Kg2eModel(
        small_vocab(2, 1),
        np.concatenate((np.stack([h[0], t[0]]), r[0][None])),
        np.concatenate((np.stack([h[1], t[1]]), r[1][None])),
        score_kind=score_kind,
    )


def score_el(h, r, t) -> float:
    return score(triple_model(h, r, t, EXPECTED_LIKELIHOOD), 0, 0, 1)


def score_kl(h, r, t) -> float:
    return score(triple_model(h, r, t, KL_DIVERGENCE), 0, 0, 1)


def grads_el(h, r, t) -> tuple:
    """The partials training uses, ``(mean_h, mean_r, mean_t, cov_h, cov_r,
    cov_t)``, from the six parameter rows of the triple h, r, t."""
    return _GRAD_FNS[EXPECTED_LIKELIHOOD](h[0], h[1], r[0], r[1], t[0], t[1])


def neg_mean(p):
    return -p[0], p[1]


# ---------------------------------------------------------------------------
# hand-checked score values


def test_el_zero_means_unit_covs_d2():
    h = gp([0.0, 0.0], [1.0, 1.0])
    r = gp([0.0, 0.0], [1.0, 1.0])
    t = gp([0.0, 0.0], [1.0, 1.0])
    assert score_el(h, r, t) == pytest.approx(-2.0 * math.log(3.0), rel=1e-14)


def test_el_hand_value_d1():
    h = gp([0.5], [1.0])
    r = gp([0.2], [1.0])
    t = gp([0.1], [1.0])
    expected = -(0.2**2) / 3.0 - math.log(3.0)
    assert score_el(h, r, t) == pytest.approx(expected, rel=1e-14)


def test_kl_identical_distributions_scores_zero():
    # entity difference N(0, 2) against relation N(0, 2): zero divergence
    h = gp([0.3], [1.0])
    t = gp([0.3], [1.0])
    r = gp([0.0], [2.0])
    assert score_kl(h, r, t) == 0.0


def test_kl_hand_value_d1():
    h = gp([0.4], [0.5])
    t = gp([0.4], [0.5])
    r = gp([0.0], [2.0])
    # divergence of N(0,1) from N(0,2): 0.5 * (1/2 - ln(1/2) - 1)
    expected = -0.5 * (0.5 + math.log(2.0) - 1.0)
    assert score_kl(h, r, t) == pytest.approx(expected, rel=1e-14)


def test_el_grad_hand_value_d1():
    h = gp([0.5], [1.0])
    r = gp([0.2], [1.0])
    t = gp([0.1], [1.0])
    mean_h, mean_r, mean_t, *_ = grads_el(h, r, t)
    assert mean_h[0] == pytest.approx(-2.0 * 0.2 / 3.0, rel=1e-14)
    assert mean_r[0] == pytest.approx(2.0 * 0.2 / 3.0, rel=1e-14)
    assert mean_t[0] == pytest.approx(2.0 * 0.2 / 3.0, rel=1e-14)


def test_el_grad_zero_mean_difference():
    h = gp([0.25, -0.5], [0.7, 1.1])
    r = gp([0.0, 0.0], [0.9, 2.0])
    t = gp([0.25, -0.5], [1.3, 0.4])
    mean_h, mean_r, mean_t, cov_h, *_ = grads_el(h, r, t)
    assert np.all(mean_h == 0.0)
    assert np.all(mean_r == 0.0)
    assert np.all(mean_t == 0.0)
    # covariance gradients stay nonzero through the log-determinant term
    assert np.all(cov_h != 0.0)


# ---------------------------------------------------------------------------
# initialization


def test_init_model_deterministic_and_bounded():
    v = small_vocab(6, 3)
    a = init_model(v, dim=10, seed=3)
    b = init_model(v, dim=10, seed=3)
    for name in ("entity_means", "entity_covs", "relation_means", "relation_covs"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    bound = 6.0 / math.sqrt(10)
    assert np.abs(a.entity_means).max() <= bound
    assert np.abs(a.relation_means).max() <= bound
    assert np.all(a.entity_covs == 1.0)
    assert np.all(a.relation_covs == 1.0)
    assert a.entity_means.shape == (v.n_entities, 10)
    assert a.relation_means.shape == (v.n_relations, 10)
    assert init_model(v, dim=10, seed=4).entity_means[0, 0] != a.entity_means[0, 0]


def test_init_model_satisfies_constraints():
    m = init_model(small_vocab(), dim=5, seed=0)
    assert constraint_violations(m) == 0
    before = m.entity_means.copy()
    apply_constraints(m)
    assert np.array_equal(m.entity_means, before)


def test_init_model_validation():
    v = small_vocab()
    with pytest.raises(ValueError, match="^dim must be at least 1$"):
        init_model(v, dim=0, seed=0)
    with pytest.raises(ValueError, match="^dim must be at least 1$"):
        init_model(v, dim=-1, seed=0)
    with pytest.raises(ValueError):
        init_model(v, dim=4, seed=0, score_kind="nope")
    params = (np.zeros((6, 4)), np.ones((6, 4)))  # 4 entity rows, then 2 relation rows
    with pytest.raises(ValueError, match="covariance bounds"):
        Kg2eModel(v, *params, c_min=0.0)
    with pytest.raises(ValueError, match="covariance bounds"):
        Kg2eModel(v, *params, c_min=2.0, c_max=1.0)


@pytest.mark.parametrize(
    "bounds",
    [
        {"c_max": math.inf},
        {"c_max": math.nan},
        {"c_min": math.nan},
        {"c_min": math.inf, "c_max": math.inf},
        {"c_min": -math.inf},
        {"c_max": 10**400},
        {"c_min": 10**400},
        {"c_min": -(10**400)},
    ],
    ids=[
        "inf-c-max",
        "nan-c-max",
        "nan-c-min",
        "inf-both",
        "minus-inf-c-min",
        "huge-int-c-max",
        "huge-int-c-min",
        "minus-huge-int-c-min",
    ],
)
def test_model_rejects_non_finite_covariance_bounds(bounds):
    v = small_vocab()
    params = (np.zeros((6, 4)), np.ones((6, 4)))  # 4 entity rows, then 2 relation rows
    with pytest.raises(ValueError) as info:
        Kg2eModel(v, *params, **bounds)
    assert str(info.value) == "covariance bounds must be finite and satisfy 0 < c_min < c_max"


# ---------------------------------------------------------------------------
# parameter tables


def test_model_keeps_two_tables_and_the_named_arrays_view_them():
    rng = np.random.default_rng(0)
    given = [rng.uniform(0.1, 1.0, shape) for shape in ((4, 3), (4, 3), (2, 3), (2, 3))]
    m = Kg2eModel(
        small_vocab(4, 2), np.concatenate((given[0], given[2])), np.concatenate((given[1], given[3]))
    )
    assert m.dim == m.means.shape[1] == 3
    for table in (m.means, m.covs):
        assert table.shape == (6, 3) and table.dtype == np.float64
        assert table.flags.c_contiguous and table.flags.owndata and table.flags.writeable
    assert m.means.tobytes() == np.concatenate((given[0], given[2])).tobytes()
    assert m.covs.tobytes() == np.concatenate((given[1], given[3])).tobytes()
    for name, arr in zip(PARAMETER_NAMES, given):
        view = getattr(m, name)
        assert view.base is (m.covs if name.endswith("covs") else m.means), name
        assert view.tobytes() == arr.tobytes(), name
    # Relation r is row n_entities + r of each table.
    m.relation_means[1, 2] = 7.0
    m.entity_covs[3, 0] = 8.0
    assert m.means[5, 2] == 7.0 and m.covs[3, 0] == 8.0


def test_model_does_not_alias_the_callers_arrays():
    table = np.arange(18, dtype=np.float64).reshape(6, 3)
    covs = np.ones((6, 3), dtype=np.float32)
    m = Kg2eModel(small_vocab(4, 2), table, covs)
    assert not any(np.shares_memory(a, t) for a in (table, covs) for t in (m.means, m.covs))
    saved = table.copy(), m.means.copy(), m.covs.copy()
    m.means += 1.0
    assert np.array_equal(table, saved[0])
    table[:] = -1.0
    covs[:] = 2.0
    assert np.array_equal(m.means, saved[1] + 1.0) and np.array_equal(m.covs, saved[2])


def test_model_copies_a_table_that_is_not_c_contiguous():
    means = np.asfortranarray(np.arange(18, dtype=np.float64).reshape(6, 3))
    m = Kg2eModel(small_vocab(4, 2), means, np.ones((6, 3))[::-1])
    assert m.means.flags.c_contiguous and m.covs.flags.c_contiguous
    assert np.array_equal(m.means, means)


@pytest.mark.parametrize("name", PARAMETER_NAMES)
def test_named_arrays_cannot_be_rebound(name):
    m = init_model(small_vocab(), dim=3, seed=0)
    with pytest.raises(AttributeError):
        setattr(m, name, np.zeros_like(getattr(m, name)))
    with pytest.raises(AttributeError):
        delattr(m, name)


@pytest.mark.parametrize(
    "means_shape, covs_shape, message",
    [
        ((5, 3), (5, 3), r"means has shape \(5, 3\), expected \(6, dim\)"),
        ((7, 3), (7, 3), r"means has shape \(7, 3\), expected \(6, dim\)"),
        ((6,), (6,), r"means has shape \(6,\), expected \(6, dim\)"),
        ((6, 3, 1), (6, 3, 1), r"means has shape \(6, 3, 1\), expected \(6, dim\)"),
        ((6, 3), (6, 2), r"covs has shape \(6, 2\), expected \(6, 3\)"),
        ((6, 3), (5, 3), r"covs has shape \(5, 3\), expected \(6, 3\)"),
        ((6, 3), (6, 3, 1), r"covs has shape \(6, 3, 1\), expected \(6, 3\)"),
        ((6, 0), (6, 0), "dim must be at least 1"),
    ],
    ids=["too-few-rows", "too-many-rows", "one-axis", "three-axes", "covs-width",
         "covs-rows", "covs-three-axes", "zero-width"],
)
def test_constructor_refuses_tables_of_a_wrong_shape(means_shape, covs_shape, message):
    # 4 entities and 2 relations: each table needs 6 rows.
    with pytest.raises(ValueError, match=f"^{message}$"):
        Kg2eModel(small_vocab(4, 2), np.zeros(means_shape), np.ones(covs_shape))


# ---------------------------------------------------------------------------
# constraints


def test_apply_constraints_rescales_and_clips():
    m = init_model(small_vocab(), dim=2, seed=0)
    m.entity_means[0] = [3.0, 4.0]
    m.entity_covs[0] = [0.001, 7.0]
    m.relation_covs[0, 0] = 100.0
    apply_constraints(m)
    assert m.entity_means[0] == pytest.approx([0.6, 0.8], rel=1e-12)
    assert m.entity_covs[0, 0] == DEFAULT_C_MIN
    assert m.entity_covs[0, 1] == DEFAULT_C_MAX
    assert m.relation_covs[0, 0] == DEFAULT_C_MAX
    assert constraint_violations(m) == 0


def test_apply_constraints_keeps_interior_points():
    m = init_model(small_vocab(), dim=3, seed=1)
    m.entity_means[1] = [0.6, 0.0, 0.8]  # norm exactly 1 stays put
    snap = m.entity_means.copy()
    apply_constraints(m)
    assert np.array_equal(m.entity_means, snap)


def test_apply_constraints_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = init_model(small_vocab(5, 2), dim=4, seed=int(rng.integers(1 << 30)))
        m.entity_means[:] = rng.normal(scale=3.0, size=m.entity_means.shape)
        m.entity_covs[:] = rng.uniform(-1.0, 9.0, m.entity_covs.shape)
        m.relation_means[:] = rng.normal(scale=3.0, size=m.relation_means.shape)
        m.relation_covs[:] = rng.uniform(-1.0, 9.0, m.relation_covs.shape)
        apply_constraints(m)
        snap = [
            m.entity_means.copy(),
            m.entity_covs.copy(),
            m.relation_means.copy(),
            m.relation_covs.copy(),
        ]
        apply_constraints(m)
        assert np.array_equal(m.entity_means, snap[0])
        assert np.array_equal(m.entity_covs, snap[1])
        assert np.array_equal(m.relation_means, snap[2])
        assert np.array_equal(m.relation_covs, snap[3])
        assert constraint_violations(m) == 0


def test_constraint_violations_counts_rows():
    m = init_model(small_vocab(), dim=2, seed=0)
    assert constraint_violations(m) == 0
    m.entity_means[0] = [3.0, 4.0]
    m.entity_covs[1] = [0.001, 0.001]  # one row, counts once
    m.relation_covs[0, 1] = 99.0
    assert constraint_violations(m) == 3


# ---------------------------------------------------------------------------
# invariances


def test_score_invariant_under_mean_negation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        h, r, t = (random_params(rng, d) for _ in range(3))
        assert score_el(h, r, t) == score_el(neg_mean(h), neg_mean(r), neg_mean(t))
        assert score_kl(h, r, t) == score_kl(neg_mean(h), neg_mean(r), neg_mean(t))


def test_score_invariant_under_head_tail_exchange():
    rng = np.random.default_rng(3)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        h, r, t = (random_params(rng, d) for _ in range(3))
        r_neg = neg_mean(r)
        assert score_el(t, r_neg, h) == pytest.approx(
            score_el(h, r, t), rel=1e-12
        )
        assert score_kl(t, r_neg, h) == score_kl(h, r, t)


def test_kl_score_never_positive():
    rng = np.random.default_rng(4)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        h, r, t = (random_params(rng, d) for _ in range(3))
        assert score_kl(h, r, t) <= 0.0


def test_scores_decrease_away_from_relation_translation():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        r = random_params(rng, d)
        t = random_params(rng, d)
        covs_h = rng.uniform(0.05, 5.0, d)
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
        for kind, fn in ((EXPECTED_LIKELIHOOD, score_el), (KL_DIVERGENCE, score_kl)):
            prev = None
            for s in (0.0, 0.25, 0.5, 1.0, 2.0):
                h = (r[0] + t[0] + s * u, covs_h)
                val = fn(h, r, t)
                if prev is not None:
                    assert val < prev, kind
                prev = val


# ---------------------------------------------------------------------------
# model-level scoring


def test_score_candidates_bit_identical_to_scalar():
    v = small_vocab(12, 3)
    for kind in (EXPECTED_LIKELIHOOD, KL_DIVERGENCE):
        m = init_model(v, dim=7, seed=9, score_kind=kind)
        for r in range(v.n_relations):
            tails = score_candidates(m, 2, r, 0, position="tail")
            heads = score_candidates(m, 0, r, 2, position="head")
            assert tails.shape == (v.n_entities,)
            for e in range(v.n_entities):
                assert tails[e] == score(m, 2, r, e)
                assert heads[e] == score(m, e, r, 2)


def test_score_triples_bit_identical_to_scalar():
    v = small_vocab(12, 3)
    rng = np.random.default_rng(4)
    ids = np.stack(
        [rng.integers(12, size=200), rng.integers(3, size=200), rng.integers(12, size=200)],
        axis=1,
    )
    for kind in (EXPECTED_LIKELIHOOD, KL_DIVERGENCE):
        m = init_model(v, dim=7, seed=9, score_kind=kind)
        batch = score_triples(m, ids)
        assert batch.shape == (200,)
        for row, s in zip(ids.tolist(), batch):
            assert s == score(m, *row)
        assert score_triples(m, ids[:1])[0] == score(m, *ids[0].tolist())
        assert score_triples(m, np.empty((0, 3), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("row", [(-1, 0, 0), (0, 0, 12), (12, 0, 0), (0, 3, 0), (0, -1, 0)])
def test_score_triples_rejects_out_of_range_ids(row):
    m = init_model(small_vocab(12, 3), dim=3, seed=0)
    with pytest.raises(IndexError):
        score_triples(m, [row])


def kl_scores_oracle(mh, ch, mr, cr, mt, ct) -> np.ndarray:
    """The KG2E energy formula as first written: ce / cr computed twice."""
    d = np.shape(mh)[-1]
    me = mh - mt
    ce = ch + ct
    delta = mr - me
    energy = 0.5 * (
        (ce / cr).sum(axis=-1)
        + (delta * delta / cr).sum(axis=-1)
        - np.log(ce / cr).sum(axis=-1)
        - d
    )
    return -energy


def test_kl_kernel_bit_identical_to_the_formula(desk_model):
    m = desk_model
    assert m.score_kind == KL_DIVERGENCE
    em, ec, rm, rc = m.entity_means, m.entity_covs, m.relation_means, m.relation_covs
    before = [a.copy() for a in (em, ec, rm, rc)]
    for r in range(m.vocab.n_relations):
        for e in range(m.vocab.n_entities):
            tails = score_candidates(m, e, r, 0, position="tail")
            heads = score_candidates(m, 0, r, e, position="head")
            assert tails.tobytes() == kl_scores_oracle(em[e], ec[e], rm[r], rc[r], em, ec).tobytes()
            assert heads.tobytes() == kl_scores_oracle(em, ec, rm[r], rc[r], em[e], ec[e]).tobytes()
    rng = np.random.default_rng(15)
    h, t = rng.integers(m.vocab.n_entities, size=(2, 4096))
    r = rng.integers(m.vocab.n_relations, size=4096)
    batch = score_triples(m, np.stack([h, r, t], axis=1))
    assert batch.tobytes() == kl_scores_oracle(em[h], ec[h], rm[r], rc[r], em[t], ec[t]).tobytes()
    for i in range(200):
        want = kl_scores_oracle(em[h[i]], ec[h[i]], rm[r[i]], rc[r[i]], em[t[i]], ec[t[i]])
        assert np.float64(score(m, int(h[i]), int(r[i]), int(t[i]))).tobytes() == want.tobytes()
    # The kernel writes only arrays it made, never a parameter row.
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (em, ec, rm, rc)))


def test_score_candidates_rejects_bad_position():
    m = init_model(small_vocab(), dim=3, seed=0)
    with pytest.raises(ValueError):
        score_candidates(m, 0, 0, 0, position="relation")


def test_score_kind_dispatch():
    kl = init_model(small_vocab(), dim=3, seed=1, score_kind=KL_DIVERGENCE)
    el = init_model(small_vocab(), dim=3, seed=1, score_kind=EXPECTED_LIKELIHOOD)
    assert score(kl, 0, 0, 1) == score_triples(kl, [(0, 0, 1)])[0]
    assert score(el, 0, 0, 1) == score_triples(el, [(0, 0, 1)])[0]
    assert score(kl, 0, 0, 1) != score(el, 0, 0, 1)


def test_bad_indices_raise_index_error():
    m = init_model(small_vocab(4, 2), dim=3, seed=0)
    for row in [(-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 2, 0), (0, 0, -1), (0, 0, 4)]:
        with pytest.raises(IndexError):
            score(m, *row)
    # The fixed entity or the relation out of range, on either side.
    for e, r in [(-1, 0), (4, 0), (0, -1), (0, 2)]:
        with pytest.raises(IndexError):
            score_candidates(m, e, r, 0, position="tail")
        with pytest.raises(IndexError):
            score_candidates(m, 0, r, e, position="head")


@pytest.mark.parametrize("kind", [EXPECTED_LIKELIHOOD, KL_DIVERGENCE])
def test_score_bit_identical_to_score_triples_on_desk(desk_model, desk_ikg, kind):
    model = copy.deepcopy(desk_model)
    model.score_kind = kind
    ids = np.array([model.vocab.triple_ids(t) for t in desk_ikg.triples], dtype=np.int64)
    batch = score_triples(model, ids)
    for row, want in zip(ids.tolist(), batch.tolist()):
        assert score(model, *row) == want


# ---------------------------------------------------------------------------
# persistence


def test_document_round_trip_preserves_everything():
    v = small_vocab(5, 2)
    m = init_model(v, dim=6, seed=8, score_kind=EXPECTED_LIKELIHOOD)
    m.thresholds = ThresholdTable({0: 1.5, 1: -2.25}, fallback=-0.5)
    m.train_config = {"epochs": 3, "seed": 8}
    doc = model_to_document(m)
    back = model_from_document(doc)
    assert back.vocab == m.vocab
    assert back.dim == m.dim
    assert back.score_kind == EXPECTED_LIKELIHOOD
    assert back.c_min == m.c_min and back.c_max == m.c_max
    for name in ("entity_means", "entity_covs", "relation_means", "relation_covs"):
        assert np.array_equal(getattr(back, name), getattr(m, name))
    assert back.thresholds.per_relation == m.thresholds.per_relation
    assert back.thresholds.fallback == m.thresholds.fallback
    assert back.train_config == m.train_config


def test_save_load_file_round_trip(tmp_path):
    m = init_model(small_vocab(6, 2), dim=5, seed=12)
    path = tmp_path / "model.json"
    save_model(m, path)
    back = load_model(path)
    rng = np.random.default_rng(0)
    for _ in range(50):
        h, t = rng.integers(6, size=2)
        r = int(rng.integers(2))
        assert score(back, int(h), r, int(t)) == score(m, int(h), r, int(t))
    save_model(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


BAD_PARAMETERS = [
    ("entity_means", 1, 0, math.nan, "entity_means holds a non-finite value"),
    ("relation_means", 0, 1, -math.inf, "relation_means holds a non-finite value"),
    ("entity_covs", 2, 1, math.inf, "entity_covs holds a non-finite value"),
    ("relation_covs", 1, 0, math.nan, "relation_covs holds a non-finite value"),
    ("entity_covs", 0, 0, DEFAULT_C_MIN / 2, r"entity_covs lies outside \[c_min, c_max\]"),
    ("relation_covs", 1, 1, DEFAULT_C_MAX * 2, r"relation_covs lies outside \[c_min, c_max\]"),
]


@pytest.mark.parametrize("name,row,col,value,message", BAD_PARAMETERS)
def test_model_from_document_rejects_bad_parameters(v1_document, name, row, col, value, message):
    doc = v1_document(init_model(small_vocab(), dim=2, seed=0))
    model_from_document(doc)
    doc[name][row][col] = value
    with pytest.raises(ValueError, match=message):
        model_from_document(doc)


@pytest.mark.parametrize("name,row,col,value,message", BAD_PARAMETERS)
def test_v2_document_rejects_bad_parameters(set_v2_entry, name, row, col, value, message):
    doc = model_to_document(init_model(small_vocab(), dim=2, seed=0))
    set_v2_entry(doc[name], row, col, value)
    with pytest.raises(ValueError, match=message):
        model_from_document(doc)


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


# Each case edits one stored array of a dim-1 model over small_vocab(): 4
# entities, 2 relations. At dim 1 a bool shape entry would equal the shape.
V2_ARRAY_DEFECTS = {
    "not-an-object": ("entity_means", lambda a: [[0.0]] * 4, "entity_means must be a JSON object"),
    "missing-f64le": ("entity_covs", lambda a: {"shape": a["shape"]}, "entity_covs must be a JSON object"),
    "bad-base64": ("relation_means", lambda a: {**a, "f64le": "!" + a["f64le"][1:]},
                   "relation_means f64le is not valid base64"),
    # Lenient decoding would skip the inserted characters and load the array.
    "inserted-characters": ("entity_covs", lambda a: {**a, "f64le": a["f64le"][:4] + "\n**\n" + a["f64le"][4:]},
                            "entity_covs f64le is not valid base64"),
    "bad-padding": ("relation_covs", lambda a: {**a, "f64le": a["f64le"].rstrip("=")},
                    "relation_covs f64le is not valid base64"),
    "non-ascii": ("entity_means", lambda a: {**a, "f64le": "é" + a["f64le"][1:]},
                  "entity_means f64le is not valid base64"),
    "not-a-string": ("entity_means", lambda a: {**a, "f64le": 0}, "entity_means f64le is not valid base64"),
    "wrong-shape": ("entity_means", lambda a: {**a, "shape": [2, 2]},
                    r"entity_means has shape \(2, 2\), expected \(4, 1\)"),
    "transposed": ("relation_covs", lambda a: {**a, "shape": [1, 2]},
                   r"relation_covs has shape \(1, 2\), expected \(2, 1\)"),
    "negative-shape": ("entity_covs", lambda a: {**a, "shape": [-1, 1]},
                       r"entity_covs shape \[-1, 1\] is not two non-negative integers"),
    "bool-shape": ("relation_means", lambda a: {**a, "shape": [2, True]},
                   r"relation_means shape \[2, true\] is not two non-negative integers"),
    "float-shape": ("relation_means", lambda a: {**a, "shape": [2.0, 1]},
                    "relation_means shape .* is not two non-negative integers"),
    "three-axes": ("entity_covs", lambda a: {**a, "shape": [4, 1, 1]},
                   "entity_covs shape .* is not two non-negative integers"),
    "truncated": ("entity_covs", lambda a: {**a, "f64le": b64(base64.b64decode(a["f64le"])[:-8])},
                  "entity_covs holds 24 bytes, expected 32"),
    "extra-bytes": ("relation_means", lambda a: {**a, "f64le": b64(base64.b64decode(a["f64le"]) + bytes(8))},
                    "relation_means holds 24 bytes, expected 16"),
}


@pytest.mark.parametrize("case", V2_ARRAY_DEFECTS)
def test_v2_document_rejects_malformed_arrays(case):
    name, edit, message = V2_ARRAY_DEFECTS[case]
    doc = model_to_document(init_model(small_vocab(), dim=1, seed=0))
    model_from_document(doc)
    doc[name] = edit(doc[name])
    with pytest.raises(ValueError, match=message):
        model_from_document(doc)


@pytest.mark.parametrize(
    "name, edit, shown",
    [
        ("entity_means", lambda a: a.pop(), "(3, 1), expected (4, 1)"),
        ("relation_covs", lambda a: [row.append(1.0) for row in a], "(2, 2), expected (2, 1)"),
        ("entity_covs", lambda a: a.clear(), "(0,), expected (4, 1)"),
    ],
    ids=["missing-row", "wide-rows", "empty"],
)
def test_v1_document_names_an_array_of_a_wrong_shape(v1_document, name, edit, shown):
    doc = v1_document(init_model(small_vocab(), dim=1, seed=0))
    edit(doc[name])
    with pytest.raises(ValueError, match=f"^{name} has shape {re.escape(shown)}$"):
        model_from_document(doc)


@pytest.mark.parametrize(
    "per_relation,fallback,message",
    [
        ({"0": 1.0}, math.nan, "thresholds hold a non-finite value"),
        ({"0": math.nan, "1": 1.0}, 0.5, "thresholds hold a non-finite value"),
        ({"1": -math.inf}, 0.5, "thresholds hold a non-finite value"),
        ({"0": 1.0, "2": 1.0}, 0.5, "thresholds name a relation id outside the vocabulary"),
        ({"-1": 1.0}, 0.5, "thresholds name a relation id outside the vocabulary"),
        ([["0", 1.0]], 0.5, "thresholds.per_relation must be a JSON object"),
        ({"00": 1.0}, 0.5, "thresholds key '00' is not a relation id in canonical form"),
        ({"0": 1.0, "00": 2.0}, 0.5, "thresholds key '00' is not a relation id in canonical form"),
        ({"0_1": 1.0}, 0.5, "thresholds key '0_1' is not a relation id in canonical form"),
        ({" 1": 1.0}, 0.5, "thresholds key ' 1' is not a relation id in canonical form"),
        ({"+1": 1.0}, 0.5, r"thresholds key '\+1' is not a relation id in canonical form"),
        ({"abc": 1.0}, 0.5, "thresholds key 'abc' is not a relation id in canonical form"),
        ({"1.5": 1.0}, 0.5, r"thresholds key '1\.5' is not a relation id in canonical form"),
    ],
)
def test_model_from_document_rejects_bad_thresholds(per_relation, fallback, message):
    m = init_model(small_vocab(), dim=2, seed=0)
    m.thresholds = ThresholdTable({0: 1.0, 1: -1.0}, fallback=0.5)
    doc = model_to_document(m)
    model_from_document(doc)
    doc["thresholds"] = {"per_relation": per_relation, "fallback": fallback}
    with pytest.raises(ValueError, match=message):
        model_from_document(doc)


@pytest.mark.parametrize("thresholds", [[], "x"], ids=["list", "string"])
def test_model_from_document_rejects_non_object_thresholds(thresholds):
    doc = model_to_document(init_model(small_vocab(), dim=2, seed=0))
    doc["thresholds"] = thresholds
    with pytest.raises(ValueError, match="^thresholds must be a JSON object or null$"):
        model_from_document(doc)


REQUIRED_FIELDS = [
    "dim", "c_min", "c_max", "score_kind", "entities", "relations", *PARAMETER_NAMES,
    "thresholds.per_relation", "thresholds.fallback",
]


@pytest.mark.parametrize("field", REQUIRED_FIELDS)
def test_missing_required_field_is_named(tmp_path, field):
    m = init_model(small_vocab(), dim=2, seed=0)
    m.thresholds = ThresholdTable({0: 1.0}, fallback=0.5)
    save_model(m, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    model_from_document(copy.deepcopy(doc))
    *parents, key = field.split(".")
    del (doc[parents[0]] if parents else doc)[key]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} is missing$"):
        model_from_document(doc)


# Each case stores one number or vocabulary entry as another JSON type.
WRONG_TYPED_FIELDS = {
    "padded-string-threshold": (
        lambda d: d["thresholds"]["per_relation"].update({"1": " 1e3 "}),
        r"thresholds.per_relation\['1'\] must be a number, not ' 1e3 '",
    ),
    "string-threshold": (
        lambda d: d["thresholds"]["per_relation"].update({"0": "0.5"}),
        r"thresholds.per_relation\['0'\] must be a number, not '0.5'",
    ),
    "bool-fallback": (
        lambda d: d["thresholds"].update(fallback=False),
        "thresholds.fallback must be a number, not False",
    ),
    "string-c-min": (lambda d: d.update(c_min="0.05"), "c_min must be a number, not '0.05'"),
    "bool-c-max": (lambda d: d.update(c_max=True), "c_max must be a number, not True"),
    "float-dim": (lambda d: d.update(dim=2.0), "dim must be an integer, not 2.0"),
    "int-entities": (lambda d: d.update(entities=[1, 2]), "entities must be a list of term strings"),
    "null-relation": (
        lambda d: d["relations"].__setitem__(1, None), "relations must be a list of term strings"
    ),
    "string-entities": (lambda d: d.update(entities="ex:e0"), "entities must be a list of term strings"),
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("case", WRONG_TYPED_FIELDS)
def test_stored_fields_must_hold_their_json_type(v1_document, version, case):
    edit, message = WRONG_TYPED_FIELDS[case]
    m = init_model(small_vocab(), dim=2, seed=0)
    m.thresholds = ThresholdTable({0: 1.0, 1: -1.0}, fallback=0.5)
    doc = v1_document(m) if version == 1 else model_to_document(m)
    model_from_document(doc)
    edit(doc)
    with pytest.raises(TypeError, match=f"^{message}$"):
        model_from_document(doc)


def test_require_number_refuses_an_int_no_float_holds():
    largest = int(sys.float_info.max)
    assert require_number("x", largest) == largest and require_number("x", -largest) == -largest
    for value in (largest + 2**970, -(10**400)):
        with pytest.raises(ValueError, match="^x lies beyond the float range$"):
            require_number("x", value)
    assert require_number("n", 10**400, integer=True) == 10**400


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("dim", [0, -1])
def test_stored_dim_below_one_is_refused_before_any_array_is_read(v1_document, version, dim):
    m = init_model(small_vocab(), dim=2, seed=0)
    doc = v1_document(m) if version == 1 else model_to_document(m)
    doc["dim"] = dim  # the arrays keep their stored shape (n, 2)
    with pytest.raises(ValueError, match="^dim must be at least 1$"):
        model_from_document(doc)
    if version == 2:
        doc["entity_means"]["f64le"] = "!"  # never decoded
        with pytest.raises(ValueError, match="^dim must be at least 1$"):
            model_from_document(doc)


def test_model_from_document_accepts_covariances_on_the_box_edges(v1_document):
    m = init_model(small_vocab(), dim=2, seed=0)
    m.entity_covs[0] = [DEFAULT_C_MIN, DEFAULT_C_MAX]
    m.relation_covs[1] = [DEFAULT_C_MAX, DEFAULT_C_MIN]
    for doc in (v1_document(m), model_to_document(m)):
        back = model_from_document(doc)
        assert np.array_equal(back.entity_covs, m.entity_covs)
        assert np.array_equal(back.relation_covs, m.relation_covs)


def test_unknown_format_version_rejected():
    doc = model_to_document(init_model(small_vocab(), dim=2, seed=0))
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format version"):
        model_from_document(doc)


@pytest.mark.parametrize("version", [True, 2.0, "2", None, 0, 3])
def test_format_version_must_be_a_known_int(version):
    doc = model_to_document(init_model(small_vocab(), dim=2, seed=0))
    doc["format_version"] = version
    with pytest.raises(ValueError, match="format version"):
        model_from_document(doc)


def test_save_writes_format_2_arrays_as_little_endian_base64(tmp_path):
    m = init_model(small_vocab(), dim=3, seed=4)
    save_model(m, tmp_path / "model.json")
    doc = json.loads((tmp_path / "model.json").read_text())
    assert doc["format_version"] == MODEL_FORMAT_VERSION == 2
    for name in PARAMETER_NAMES:
        arr = getattr(m, name)
        assert doc[name] == {"shape": list(arr.shape), "f64le": b64(arr.astype("<f8").tobytes())}


def v1_model(tmp_path, v1_document) -> tuple:
    """A trained-looking model and its format-1 file."""
    m = init_model(small_vocab(5, 2), dim=4, seed=3)
    m.thresholds = ThresholdTable({1: -0.75}, fallback=-1.25)
    m.train_config = {"epochs": 2, "seed": 3}
    path = tmp_path / "v1.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(v1_document(m), fh, indent=1)
    return m, path


def test_v1_file_and_its_v2_resave_load_identically(tmp_path, v1_document):
    m, path = v1_model(tmp_path, v1_document)
    v1 = load_model(path)
    save_model(v1, tmp_path / "v2.json")
    v2 = load_model(tmp_path / "v2.json")
    for name in PARAMETER_NAMES:
        assert getattr(v1, name).tobytes() == getattr(v2, name).tobytes() == getattr(m, name).tobytes()
    assert v1.vocab == v2.vocab == m.vocab
    assert v1.thresholds == v2.thresholds == m.thresholds
    assert v1.train_config == v2.train_config == m.train_config
    assert (v1.dim, v1.score_kind, v1.c_min, v1.c_max) == (v2.dim, v2.score_kind, v2.c_min, v2.c_max)


def test_loading_v1_and_saving_writes_v2(tmp_path, v1_document):
    m, path = v1_model(tmp_path, v1_document)
    save_model(load_model(path), tmp_path / "again.json")
    again = (tmp_path / "again.json").read_text()
    assert json.loads(again)["format_version"] == 2
    save_model(m, tmp_path / "direct.json")
    assert again == (tmp_path / "direct.json").read_text()


def test_loaded_arrays_are_writable_native_copies(tmp_path, desk_model, desk_split):
    save_model(desk_model, tmp_path / "model.json")
    loaded = load_model(tmp_path / "model.json")
    save_model(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()
    tables = loaded.means, loaded.covs
    for table in tables:
        assert table.flags.writeable and table.flags.owndata and table.dtype == np.float64
        assert table.dtype.isnative and table.flags.c_contiguous
    for name in PARAMETER_NAMES:
        arr = getattr(loaded, name)
        assert arr.base is tables[name.endswith("covs")], name
        assert arr.flags.writeable and arr.flags.c_contiguous, name
    apply_constraints(loaded)
    report = train(loaded, desk_split, TrainConfig(epochs=1))
    assert len(report.epoch_losses) == 1
    assert not np.array_equal(loaded.entity_means, desk_model.entity_means)
