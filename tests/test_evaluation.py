"""Ranking protocol, thresholds, and classification metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikge import model as kg2e

from ikge.evaluation import (
    HITS_AT,
    LEFT,
    RIGHT,
    ClassificationMetrics,
    _filter_index,
    _rank_ids,
    ThresholdTable,
    best_threshold,
    classify,
    evaluate_classification,
    evaluate_ranks,
    rank_from_scores,
    rank_triple,
    select_thresholds,
)
from ikge.model import init_model
from ikge.rdf import Graph, Term, Triple, build_vocab, parse


# ---------------------------------------------------------------------------
# rank_from_scores


def test_rank_basic_cases():
    assert rank_from_scores(np.array([5.0, 3.0, 1.0]), 0) == 1.0
    assert rank_from_scores(np.array([5.0, 3.0, 1.0]), 2) == 3.0
    assert rank_from_scores(np.array([5.0]), 0) == 1.0


def test_rank_mean_tie_convention():
    # true score 3 ties with two others behind a single better score:
    # rank = 1 + (3 + 1) / 2 = 3.0
    assert rank_from_scores(np.array([5.0, 3.0, 3.0, 3.0, 1.0]), 2) == 3.0
    # five-way tie across the whole list
    assert rank_from_scores(np.full(5, 2.0), 4) == 3.0


def test_rank_keep_mask_removes_competitors():
    scores = np.array([5.0, 4.0, 3.0, 2.0])
    keep = np.array([False, False, True, True])
    assert rank_from_scores(scores, 2) == 3.0
    assert rank_from_scores(scores, 2, keep=keep) == 1.0


def test_rank_true_index_always_kept():
    scores = np.array([5.0, 4.0, 3.0])
    keep = np.zeros(3, dtype=bool)  # mask drops everything, true stays
    assert rank_from_scores(scores, 1, keep=keep) == 1.0


def test_rank_invariant_under_positive_affine_transform():
    rng = np.random.default_rng(8)
    for _ in range(100):
        scores = rng.integers(-3, 4, size=12).astype(float)  # integer ties
        i = int(rng.integers(12))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal() * 10)
        assert rank_from_scores(scores, i) == rank_from_scores(a * scores + b, i)


# ---------------------------------------------------------------------------
# rank_triple / evaluate_ranks


def ids_of(model, triples):
    """``(n, 3)`` id array of the triples whose terms are all in the model
    vocabulary, in order."""
    return np.array(model.vocab.known_ids(triples), dtype=np.int64).reshape(-1, 3)


def adversarial_fixture():
    """d=1 model where every test triple ranks dead last on both sides."""
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    for i in range(10):
        lines.append(f"ex:e{i} ex:pad ex:e{i} .")
    for j in range(4):
        lines.append(f"ex:e0 ex:r{j} ex:e9 .")
    g = parse("\n".join(lines))
    v = build_vocab(g)
    model = init_model(v, dim=1, seed=0)
    means = [-1.0, -0.35, -0.2, -0.05, 0.1, 0.25, 0.4, 0.55, 0.7, 1.0]
    for i in range(10):
        model.entity_means[v.entity_id(Term.iri(f"ex:e{i}")), 0] = means[i]
    model.entity_covs[:] = 0.05
    model.relation_means[:] = 0.0
    model.relation_covs[:] = 1.0
    test = Graph([t for t in g.triples if t.relation.text != "ex:pad"], g.prefix_map)
    return model, g, test


def test_evaluate_ranks_adversarial_exact():
    model, known, test = adversarial_fixture()
    m = evaluate_ranks(model, ids_of(model, test), ids_of(model, known), filtered=False)
    assert m.mean_rank == 10.0
    assert m.hits == {1: 0.0, 3: 0.0, 10: 1.0}
    assert m.n_ranks == 8
    assert m.side == "both"
    assert m.filtered is False


def test_evaluate_ranks_requires_test_triples():
    model, known, _ = adversarial_fixture()
    with pytest.raises(ValueError):
        evaluate_ranks(model, ids_of(model, []), ids_of(model, known))


def test_single_entity_rank_is_one():
    g = parse("<http://e/a> <http://e/r> <http://e/a> .")
    model = init_model(build_vocab(g), dim=2, seed=0)
    assert rank_triple(model, g.triples[0], RIGHT, g) == 1.0
    assert rank_triple(model, g.triples[0], LEFT, g) == 1.0


def random_eval_fixture(seed: int, n_entities: int = 15):
    rng = np.random.default_rng(seed)
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    seen = set()
    while len(seen) < 60:
        s = (int(rng.integers(n_entities)), int(rng.integers(4)), int(rng.integers(n_entities)))
        if s not in seen:
            seen.add(s)
            lines.append(f"ex:e{s[0]} ex:r{s[1]} ex:e{s[2]} .")
    g = parse("\n".join(lines))
    model = init_model(build_vocab(g), dim=4, seed=seed)
    return model, g


def test_filtered_rank_never_worse():
    model, g = random_eval_fixture(1)
    for t in g.triples[:25]:
        for side in (RIGHT, LEFT):
            raw = rank_triple(model, t, side, g, filtered=False)
            filt = rank_triple(model, t, side, g, filtered=True)
            assert filt <= raw


def test_filtered_removes_known_competitors():
    # two true tails for (a, r); the better-scoring one masks the other in
    # raw mode but not in filtered mode
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:a ex:r ex:b .\n"
        "ex:a ex:r ex:c .\n"
        "ex:b ex:r ex:c .\n"
    )
    model = init_model(build_vocab(g), dim=3, seed=2)
    t_b = g.triples[0]
    t_c = g.triples[1]
    raw_b = rank_triple(model, t_b, RIGHT, g, filtered=False)
    raw_c = rank_triple(model, t_c, RIGHT, g, filtered=False)
    # one of them is beaten by the other true tail in raw mode
    worse_raw = max(raw_b, raw_c)
    filt_b = rank_triple(model, t_b, RIGHT, g, filtered=True)
    filt_c = rank_triple(model, t_c, RIGHT, g, filtered=True)
    assert max(filt_b, filt_c) < worse_raw


def test_hits_monotone_and_saturating():
    # At most 10 entities, so no rank exceeds the largest cut-off.
    model, g = random_eval_fixture(3, n_entities=10)
    test = Graph(g.triples[:20], g.prefix_map)
    n = model.vocab.n_entities
    m = evaluate_ranks(model, ids_of(model, test), ids_of(model, g))
    assert sorted(m.hits) == list(HITS_AT) and n <= HITS_AT[-1]
    for lo, hi in zip(HITS_AT, HITS_AT[1:]):
        assert m.hits[lo] <= m.hits[hi]
    assert m.hits[HITS_AT[-1]] == 1.0
    assert m.hits[1] < 1.0
    assert 1.0 <= m.mean_rank <= n


def test_rank_metrics_document():
    model, g = random_eval_fixture(4)
    test = Graph(g.triples[:10], g.prefix_map)
    doc = evaluate_ranks(model, ids_of(model, test), ids_of(model, g), filtered=True).to_document()
    assert doc["side"] == "both"
    assert doc["filtered"] is True
    assert doc["n_ranks"] == 20
    assert set(doc["hits"]) == {"1", "3", "10"}  # json-friendly keys


def brute_force_rank(model, triple, side, known, filtered):
    """Rank over scalar scores, filtering by Term-level membership in ``known``."""
    vocab = model.vocab
    h, r, t = vocab.triple_ids(triple)
    true_index = t if side == RIGHT else h
    scores, keep = [], []
    for e, term in enumerate(vocab.entities):
        if side == RIGHT:
            scores.append(kg2e.score(model, h, r, e))
            other = Triple(triple.head, triple.relation, term)
        else:
            scores.append(kg2e.score(model, e, r, t))
            other = None if term.is_literal else Triple(term, triple.relation, triple.tail)
        known_other = other is not None and other in known
        keep.append(e == true_index or not (filtered and known_other))
    true_score = scores[true_index]
    kept = [s for s, k in zip(scores, keep) if k]
    better = sum(s > true_score for s in kept)
    tied = sum(s == true_score for s in kept)
    return better + (tied + 1) / 2.0


def filter_fixtures():
    """(model, test, known) cases for the indexed filter."""
    cases = []
    for seed in range(4):
        model, g = random_eval_fixture(seed)
        cases.append((model, Graph(g.triples[:20], g.prefix_map), g))
    # known triples outside the model vocabulary: unknown entities, an
    # unknown relation and a literal are all skipped by the filter
    model, g = random_eval_fixture(5)
    extra = [
        Triple(Term.iri("ex:e1"), Term.iri("ex:r0"), Term.iri("ex:outside")),
        Triple(Term.iri("ex:outside"), Term.iri("ex:r1"), Term.iri("ex:e2")),
        Triple(Term.iri("ex:e1"), Term.iri("ex:rx"), Term.iri("ex:e3")),
        Triple(Term.iri("ex:e1"), Term.iri("ex:r0"), Term.literal("v")),
    ]
    cases.append((model, Graph(g.triples[:20], g.prefix_map), Graph(g.triples + tuple(extra), g.prefix_map)))
    # many tails per (h, r) and many heads per (r, t), with tied scores
    lines = ["@prefix ex: <http://e.example/ns#> ."]
    for i in range(12):
        lines.append(f"ex:hub ex:r ex:e{i} .")
        lines.append(f"ex:e{i} ex:s ex:sink .")
        lines.append(f"ex:e{i} ex:r ex:e{(i * 5) % 12} .")
    g = parse("\n".join(lines))
    model = init_model(build_vocab(g), dim=2, seed=1)
    model.entity_means[:] = np.round(model.entity_means * 2) / 4  # few distinct values
    test = Graph(g.triples[::3] + g.triples[1::9], g.prefix_map)
    cases.append((model, test, g))
    return cases


@pytest.mark.parametrize("case", range(6))
def test_indexed_filter_matches_brute_force(case):
    model, test, known = filter_fixtures()[case]
    for filtered in (False, True):
        expected = []
        for triple in test.triples:
            for side in (RIGHT, LEFT):
                want = brute_force_rank(model, triple, side, known, filtered)
                assert rank_triple(model, triple, side, known, filtered=filtered) == want
                expected.append(want)
        arr = np.array(expected)
        m = evaluate_ranks(model, ids_of(model, test), ids_of(model, known), filtered=filtered)
        assert m.mean_rank == float(arr.mean())
        assert m.hits == {p: float((arr <= p).mean()) for p in (1, 3, 10)}
        assert m.n_ranks == 2 * len(test)


def test_filtered_ranks_differ_from_raw_on_dense_fixture():
    # the dense fixture must exercise the filter, or the oracle test proves little
    model, test, known = filter_fixtures()[-1]
    test, known = ids_of(model, test), ids_of(model, known)
    raw = evaluate_ranks(model, test, known, filtered=False)
    filt = evaluate_ranks(model, test, known, filtered=True)
    assert filt.mean_rank < raw.mean_rank


# ---------------------------------------------------------------------------
# thresholds


def test_best_threshold_separable():
    assert best_threshold([5.0, 4.0], [1.0, 0.0]) == 2.5


def test_best_threshold_inverted_prefers_lowest_candidate():
    assert best_threshold([1.0], [5.0]) == 0.0


def test_best_threshold_empty():
    with pytest.raises(ValueError, match="no scores"):
        best_threshold([], [])


def test_best_threshold_beats_random_candidates():
    rng = np.random.default_rng(9)

    def accuracy(th, pos, neg):
        return ((pos >= th).sum() + (neg < th).sum()) / (len(pos) + len(neg))

    for _ in range(30):
        pos = rng.normal(loc=rng.normal(), size=rng.integers(1, 12))
        neg = rng.normal(loc=rng.normal(), size=rng.integers(1, 12))
        th = best_threshold(pos, neg)
        best = accuracy(th, pos, neg)
        lo = min(pos.min(), neg.min()) - 1.0
        hi = max(pos.max(), neg.max()) + 1.0
        for probe in rng.uniform(lo, hi, 1000):
            assert accuracy(probe, pos, neg) <= best + 1e-12


def test_best_threshold_shift_invariance():
    rng = np.random.default_rng(10)
    for _ in range(100):
        pos = rng.normal(size=rng.integers(1, 8))
        neg = rng.normal(size=rng.integers(1, 8))
        c = float(rng.normal() * 10)
        assert best_threshold(pos + c, neg + c) == pytest.approx(
            best_threshold(pos, neg) + c, abs=1e-9
        )


def loop_best_threshold(pos_scores, neg_scores) -> float:
    """The O(n^2) candidate loop ``best_threshold`` replaced, kept as its oracle."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    values = np.unique(np.concatenate([pos, neg]))
    if len(values) == 0:
        raise ValueError("no scores to threshold")
    candidates = [values[0] - 1.0]
    candidates.extend((values[:-1] + values[1:]) / 2.0)
    candidates.append(values[-1] + 1.0)
    best_t = None
    best_acc = -1.0
    total = len(pos) + len(neg)
    for theta in candidates:
        acc = (int((pos >= theta).sum()) + int((neg < theta).sum())) / total
        if acc > best_acc:
            best_acc = acc
            best_t = float(theta)
    return best_t


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


tie_heavy = st.lists(st.integers(-3, 3).map(lambda i: i / 2.0), max_size=25)
any_float = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=25)
close_floats = st.lists(
    st.sampled_from([1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 1e308, -1e308, 0.0, -0.0]),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_heavy, any_float, close_floats), st.one_of(tie_heavy, any_float, close_floats))
@example([math.nan], [0.0])
@example([math.inf, 1.0], [-math.inf, math.nan])
@example([1e308, 1.7e308], [-1e308])
def test_best_threshold_matches_loop_oracle(pos, neg):
    if not pos and not neg:
        with pytest.raises(ValueError):
            best_threshold(pos, neg)
        return
    with np.errstate(over="ignore", invalid="ignore"):  # midpoints of huge or infinite scores
        assert same_float(best_threshold(pos, neg), loop_best_threshold(pos, neg))


def separable_fixture():
    """d=1 model whose validation positives and negatives are separable."""
    g = parse(
        "@prefix ex: <http://e.example/ns#> .\n"
        "ex:p0 ex:r0 ex:p1 .\n"
        "ex:p1 ex:r0 ex:p0 .\n"
        "ex:p0 ex:r1 ex:p1 .\n"
        "ex:far ex:r0 ex:farther .\n"  # vocab padding
    )
    v = build_vocab(g)
    model = init_model(v, dim=1, seed=0)
    model.entity_means[v.entity_id(Term.iri("ex:p0")), 0] = 0.2
    model.entity_means[v.entity_id(Term.iri("ex:p1")), 0] = 0.2
    model.entity_means[v.entity_id(Term.iri("ex:far")), 0] = 0.9
    model.entity_means[v.entity_id(Term.iri("ex:farther")), 0] = -0.9
    model.entity_covs[:] = 1.0
    model.relation_means[:] = 0.0
    model.relation_covs[:] = 1.0
    pos = Graph(g.triples[:3], g.prefix_map)
    neg = [
        Triple(Term.iri("ex:far"), Term.iri("ex:r0"), Term.iri("ex:farther")),
        Triple(Term.iri("ex:farther"), Term.iri("ex:r1"), Term.iri("ex:far")),
    ]
    return model, pos, neg


def test_select_thresholds_separates_validation_data():
    model, pos, neg = separable_fixture()
    table = select_thresholds(model, ids_of(model, pos), ids_of(model, neg))
    assert set(table.per_relation) == {0, 1}
    for t in pos.triples:
        assert classify(model, t, table)
    for t in neg:
        assert not classify(model, t, table)


def test_threshold_table_fallback_for_unseen_relation():
    table = ThresholdTable({0: 1.0}, fallback=-2.0)
    assert table.lookup(0) == 1.0
    assert table.lookup(999) == -2.0


def test_threshold_table_document_round_trip():
    table = ThresholdTable({0: 1.5, 3: -0.25}, fallback=0.125)
    back = ThresholdTable.from_document(table.to_document())
    assert back.per_relation == table.per_relation
    assert back.fallback == table.fallback


def test_select_thresholds_empty_positives():
    model, pos, neg = separable_fixture()
    with pytest.raises(ValueError):
        select_thresholds(model, ids_of(model, []), ids_of(model, neg))


# ---------------------------------------------------------------------------
# classify


def test_classify_threshold_overrides():
    model, pos, _ = separable_fixture()
    always_false = ThresholdTable({}, fallback=math.inf)
    always_true = ThresholdTable({}, fallback=-math.inf)
    t = pos.triples[0]
    assert not classify(model, t, always_false)
    assert classify(model, t, always_true)


def test_classify_rejects_placeholder():
    model, pos, _ = separable_fixture()
    bad = Triple(Term.iri("ex:p0"), Term.iri("ex:r0"), Term.placeholder(0))
    with pytest.raises(ValueError):
        classify(model, bad, ThresholdTable({}, fallback=0.0))


# ---------------------------------------------------------------------------
# classification metrics


def test_from_counts_hand_values():
    m = ClassificationMetrics.from_counts(8, 7, 2, 3)
    assert m.accuracy == pytest.approx(0.75)
    assert m.tpr == pytest.approx(8 / 11)
    assert m.tnr == pytest.approx(7 / 9)
    assert m.fpr == pytest.approx(2 / 9)
    assert m.fnr == pytest.approx(3 / 11)
    precision = 8 / 10
    assert m.f1 == pytest.approx(2 * precision * m.tpr / (precision + m.tpr))
    assert m.f1 == pytest.approx(16 / 21)


def test_from_counts_perfect():
    m = ClassificationMetrics.from_counts(5, 5, 0, 0)
    assert m.accuracy == 1.0 and m.f1 == 1.0 and m.tpr == 1.0 and m.fpr == 0.0


def test_from_counts_zero_denominators():
    m = ClassificationMetrics.from_counts(0, 5, 0, 0)
    assert m.accuracy == 1.0
    assert m.tpr is None and m.fnr is None and m.f1 is None
    assert m.tnr == 1.0 and m.fpr == 0.0
    empty = ClassificationMetrics.from_counts(0, 0, 0, 0)
    assert empty.accuracy is None


def test_evaluate_classification_counts():
    model, pos, neg = separable_fixture()
    pos_ids, neg_ids = ids_of(model, pos), ids_of(model, neg)
    table = select_thresholds(model, pos_ids, neg_ids)
    m = evaluate_classification(model, pos_ids, neg_ids, table)
    assert m.tp + m.fn == len(pos)
    assert m.tn + m.fp == len(neg)
    # recount by hand
    tp = sum(classify(model, t, table) for t in pos.triples)
    tn = sum(not classify(model, t, table) for t in neg)
    assert m.tp == tp and m.tn == tn
    assert m.accuracy == pytest.approx((tp + tn) / (len(pos) + len(neg)))
    doc = m.to_document()
    assert doc["tp"] == tp and "accuracy" in doc and "f1" in doc


def scalar_verdict(model, triple, table) -> bool:
    h, r, t = model.vocab.triple_ids(triple)
    return kg2e.score(model, h, r, t) >= table.lookup(r)


@pytest.mark.parametrize("seed", range(3))
def test_batched_classification_matches_scalar_path(seed):
    model, g = random_eval_fixture(seed)
    rng = np.random.default_rng(seed)
    pos = Graph(g.triples[:30], g.prefix_map)
    neg = [
        Triple(t.head, t.relation, model.vocab.entities[int(rng.integers(model.vocab.n_entities))])
        for t in g.triples[30:]
    ]
    pos_ids, neg_ids = ids_of(model, pos), ids_of(model, neg)
    table = select_thresholds(model, pos_ids, neg_ids)

    # the thresholds the scalar path picks, relation by relation
    by_rel: dict[int, tuple[list, list]] = {}
    for triples, slot in ((pos.triples, 0), (neg, 1)):
        for triple in triples:
            h, r, t = model.vocab.triple_ids(triple)
            by_rel.setdefault(r, ([], []))[slot].append(kg2e.score(model, h, r, t))
    assert table.per_relation == {r: loop_best_threshold(*by_rel[r]) for r in sorted(by_rel)}
    assert table.fallback == loop_best_threshold(
        [s for p, _ in by_rel.values() for s in p], [s for _, n in by_rel.values() for s in n]
    )

    m = evaluate_classification(model, pos_ids, neg_ids, table)
    tp = sum(scalar_verdict(model, t, table) for t in pos.triples)
    fp = sum(scalar_verdict(model, t, table) for t in neg)
    assert (m.tp, m.fn, m.fp, m.tn) == (tp, len(pos) - tp, fp, len(neg) - fp)
    for t in list(pos.triples) + neg:
        assert classify(model, t, table) is scalar_verdict(model, t, table)


def out_of_range_rows(model):
    """One id row per column with a negative id, and one with an id past
    the end of its table."""
    n_e, n_r = model.vocab.n_entities, model.vocab.n_relations
    return [[-1, 0, 1], [0, -1, 1], [0, 0, -1], [n_e, 0, 1], [0, n_r, 1], [0, 0, n_e]]


@pytest.mark.parametrize("row", range(6))
def test_id_entry_points_reject_out_of_range_ids(row):
    model, pos, neg = separable_fixture()
    pos_ids, neg_ids = ids_of(model, pos), ids_of(model, neg)
    bad = np.array([out_of_range_rows(model)[row]], dtype=np.int64)
    table = select_thresholds(model, pos_ids, neg_ids)
    with pytest.raises(IndexError):
        select_thresholds(model, np.concatenate((pos_ids, bad)), neg_ids)
    with pytest.raises(IndexError):
        select_thresholds(model, pos_ids, np.concatenate((neg_ids, bad)))
    with pytest.raises(IndexError):
        evaluate_classification(model, pos_ids, np.concatenate((neg_ids, bad)), table)
    with pytest.raises(IndexError):
        evaluate_classification(model, np.concatenate((pos_ids, bad)), neg_ids, table)
    with pytest.raises(IndexError):
        evaluate_ranks(model, np.concatenate((pos_ids, bad)), pos_ids)
    # a bad known id would mask the wrong entity, or none
    for filtered in (False, True):
        with pytest.raises(IndexError):
            evaluate_ranks(model, pos_ids, np.concatenate((pos_ids, bad)), filtered=filtered)


def test_rank_triple_matches_evaluate_ranks_on_desk_split(desk_model, desk_split):
    # rank_triple collects only its own query's known completions; each rank
    # must equal the one evaluate_ranks takes from the index of the whole graph
    known = desk_split.full_graph()
    index = _filter_index(ids_of(desk_model, known))
    for filtered in (False, True):
        ranks = []
        for triple in desk_split.test:
            h, r, t = desk_model.vocab.triple_ids(triple)
            for side in (RIGHT, LEFT):
                got = rank_triple(desk_model, triple, side, known, filtered=filtered)
                assert got == _rank_ids(desk_model, h, r, t, side, index if filtered else None)
                ranks.append(got)
        arr = np.array(ranks)
        m = evaluate_ranks(
            desk_model, desk_split.test_ids, ids_of(desk_model, known), filtered=filtered
        )
        assert m.mean_rank == float(arr.mean())
        assert m.hits == {p: float((arr <= p).mean()) for p in (1, 3, 10)}
        assert m.n_ranks == len(ranks)
    raw = evaluate_ranks(desk_model, desk_split.test_ids, ids_of(desk_model, known))
    assert m.mean_rank < raw.mean_rank  # the filter removed candidates
