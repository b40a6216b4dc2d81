"""Ranking protocol, thresholds, and classification metrics."""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ikge import evaluation, model as kg2e

from ikge.evaluation import (
    HITS_AT,
    LEFT,
    RIGHT,
    ClassificationMetrics,
    _filter_index,
    _group_ranks,
    best_threshold,
    classify,
    evaluate,
    evaluate_classification,
    evaluate_ranks,
    rank_triple,
    select_thresholds,
    verdicts,
)
from ikge.model import ThresholdTable, init_model
from ikge.rdf import Graph, Term, Triple, Vocab, VocabError, build_vocab, parse


# ---------------------------------------------------------------------------
# the rank rule: _group_ranks


def reference_rank(scores: np.ndarray, true_index: int, drop=()) -> float:
    """Rank of one true candidate with the mean-tie policy, from its own copy
    of the scores without the ids ``drop`` other than the true one: b strictly
    better and m tied scores (the true one included) give b + (m + 1) / 2."""
    true_score = scores[true_index]
    scores = np.delete(scores, [i for i in drop if i != true_index])
    better = int((scores > true_score).sum())
    tied = int((scores == true_score).sum())
    return better + (tied + 1) / 2.0


def rank_of(scores, true: int, drop=()) -> float:
    """The filtered rank of one true candidate through ``_group_ranks``,
    checked to equal its raw rank when nothing is dropped."""
    raw, filtered = _group_ranks(np.asarray(scores, dtype=np.float64), [true], drop)
    assert drop or raw[0] == filtered[0]
    return float(filtered[0])


def test_rank_basic_cases():
    assert rank_of([5.0, 3.0, 1.0], 0) == 1.0
    assert rank_of([5.0, 3.0, 1.0], 2) == 3.0
    assert rank_of([5.0], 0) == 1.0


def test_rank_mean_tie_convention():
    # true score 3 ties with two others behind a single better score:
    # rank = 1 + (3 + 1) / 2 = 3.0
    assert rank_of([5.0, 3.0, 3.0, 3.0, 1.0], 2) == 3.0
    # five-way tie across the whole list
    assert rank_of(np.full(5, 2.0), 4) == 3.0


def test_rank_drop_removes_competitors():
    scores = [5.0, 4.0, 3.0, 2.0]
    assert rank_of(scores, 2) == 3.0
    assert rank_of(scores, 2, drop={0, 1}) == 1.0


def test_rank_true_index_always_kept():
    scores = [5.0, 4.0, 3.0]
    assert rank_of(scores, 1, drop={0, 1, 2}) == 1.0  # drops everything, true stays


def test_rank_drop_is_a_set_that_never_holds_the_true_id():
    scores = [5.0, 4.0, 4.0, 3.0, 4.0]
    # the true id 2 is among the dropped: 0 and 4 leave, one tie stays, rank 0 + (2 + 1) / 2
    assert rank_of(scores, 2, drop={0, 2, 4}) == 1.5
    assert rank_of(scores, 2, drop={2}) == rank_of(scores, 2) == 3.0


def test_rank_invariant_under_positive_affine_transform():
    rng = np.random.default_rng(8)
    for _ in range(100):
        scores = rng.integers(-3, 4, size=12).astype(float)  # integer ties
        i = int(rng.integers(12))
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.normal() * 10)
        assert rank_of(scores, i) == rank_of(a * scores + b, i)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0, math.nan]), min_size=1, max_size=10).flatmap(
        lambda scores: st.tuples(
            st.just(np.array(scores)),
            st.lists(st.integers(0, len(scores) - 1), min_size=1, max_size=5),
            st.sets(st.integers(0, len(scores) - 1)),
        )
    )
)
def test_group_ranks_match_the_reference_rank_per_member(case):
    # repeated members, exact ties and NaN scores, the members' own ids among
    # the dropped ones: each member ranks as if it were ranked alone
    scores, trues, drop = case
    raw, filtered = _group_ranks(scores, trues, drop)
    assert raw.tolist() == [reference_rank(scores, t) for t in trues]
    assert filtered.tolist() == [reference_rank(scores, t, drop) for t in trues]


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
    ranks = evaluate_ranks(model, ids_of(model, test), ids_of(model, known), filtered=False)
    assert list(ranks) == ["raw"]
    m = ranks["raw"]
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
    m = evaluate_ranks(model, ids_of(model, test), ids_of(model, g))["raw"]
    assert sorted(m.hits) == list(HITS_AT) and n <= HITS_AT[-1]
    for lo, hi in zip(HITS_AT, HITS_AT[1:]):
        assert m.hits[lo] <= m.hits[hi]
    assert m.hits[HITS_AT[-1]] == 1.0
    assert m.hits[1] < 1.0
    assert 1.0 <= m.mean_rank <= n


def test_rank_metrics_document():
    model, g = random_eval_fixture(4)
    test = Graph(g.triples[:10], g.prefix_map)
    ranks = evaluate_ranks(model, ids_of(model, test), ids_of(model, g), filtered=True)
    assert list(ranks) == ["raw", "filtered"]  # the order of eval.json's ranks block
    for name, metrics in ranks.items():
        doc = metrics.to_document()
        assert doc["side"] == "both"
        assert doc["filtered"] is (name == "filtered")
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
    ranks = evaluate_ranks(model, ids_of(model, test), ids_of(model, known), filtered=True)
    for filtered, name in ((False, "raw"), (True, "filtered")):
        expected = []
        for triple in test.triples:
            for side in (RIGHT, LEFT):
                want = brute_force_rank(model, triple, side, known, filtered)
                assert rank_triple(model, triple, side, known, filtered=filtered) == want
                expected.append(want)
        arr = np.array(expected)
        m = ranks[name]
        assert m.mean_rank == float(arr.mean())
        assert m.hits == {p: float((arr <= p).mean()) for p in (1, 3, 10)}
        assert m.n_ranks == 2 * len(test)


def test_duplicated_known_rows_filter_as_one():
    # the filter index holds each completion once, however many copies of its row
    model, test, known = filter_fixtures()[-1]
    test, known = ids_of(model, test), ids_of(model, known)
    once = evaluate_ranks(model, test, known, filtered=True)
    for twice in (np.concatenate((known, known)), np.concatenate((known, test, test))):
        assert evaluate_ranks(model, test, twice, filtered=True) == once


def test_filtered_ranks_differ_from_raw_on_dense_fixture():
    # the dense fixture must exercise the filter, or the oracle test proves little
    model, test, known = filter_fixtures()[-1]
    test, known = ids_of(model, test), ids_of(model, known)
    ranks = evaluate_ranks(model, test, known, filtered=True)
    assert ranks["filtered"].mean_rank < ranks["raw"].mean_rank


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
    back = ThresholdTable.from_document(table.to_document(), 4)
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


def test_verdicts_match_per_row_score_against_lookup():
    model, pos, neg = separable_fixture()
    ids = ids_of(model, list(pos.triples) + neg)
    expected = [kg2e.score(model, *row) for row in ids.tolist()]
    # Thresholds equal to row scores put rows on the ">=" boundary.
    table = ThresholdTable({0: expected[1]}, fallback=expected[2])
    scores, accepted = verdicts(model, ids, table)
    assert scores.tolist() == expected
    want = [s >= table.lookup(r) for s, (_, r, _) in zip(expected, ids.tolist())]
    assert accepted.tolist() == want
    assert set(want) == {True, False}
    scores, accepted = verdicts(model, ids[:0], table)
    assert scores.shape == accepted.shape == (0,)
    with pytest.raises(IndexError):
        verdicts(model, [[0, model.vocab.n_relations, 0]], table)


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


def oracle_rank(model, h: int, r: int, t: int, side: str, index) -> float:
    """One side of one id row ranked from its own score vector; ``index`` is
    a filter index, empty for the raw protocol."""
    if side == RIGHT:
        scores = kg2e.score_candidates(model, h, r, t, position="tail")
        return reference_rank(scores, t, index.get((RIGHT, h, r), ()))
    scores = kg2e.score_candidates(model, h, r, t, position="head")
    return reference_rank(scores, h, index.get((LEFT, r, t), ()))


def oracle_rank_document(model, test, known, filtered: bool) -> dict:
    """``evaluate_ranks(...)["filtered"]`` (or ``["raw"]``) as a document,
    computed row by row, right side then left side, each side scored on its
    own."""
    index = _filter_index(known.tolist()) if filtered else {}
    arr = np.array(
        [oracle_rank(model, h, r, t, side, index) for h, r, t in test.tolist() for side in (RIGHT, LEFT)]
    )
    return {
        "mean_rank": float(arr.mean()),
        "hits": {str(p): float((arr <= p).mean()) for p in HITS_AT},
        "side": "both",
        "filtered": filtered,
        "n_ranks": len(arr),
    }


def test_rank_triple_matches_evaluate_ranks_on_desk_split(desk_model, desk_split):
    # rank_triple indexes its known graph itself; each rank must equal the
    # per-row oracle over the index of the whole split, and all of them
    # together the ranks that the grouped evaluate_ranks aggregates
    known = desk_split.full_graph()
    index = _filter_index(desk_model.vocab.known_ids(known))
    both = evaluate_ranks(desk_model, desk_split.test_ids, ids_of(desk_model, known), filtered=True)
    for filtered, name in ((False, "raw"), (True, "filtered")):
        ranks = []
        for triple in desk_split.test:
            h, r, t = desk_model.vocab.triple_ids(triple)
            for side in (RIGHT, LEFT):
                got = rank_triple(desk_model, triple, side, known, filtered=filtered)
                assert got == oracle_rank(desk_model, h, r, t, side, index if filtered else {})
                ranks.append(got)
        arr = np.array(ranks)
        m = both[name]
        assert m.mean_rank == float(arr.mean())
        assert m.hits == {p: float((arr <= p).mean()) for p in (1, 3, 10)}
        assert m.n_ranks == len(ranks)
    assert both["filtered"].mean_rank < both["raw"].mean_rank  # the filter removed candidates


def test_evaluate_scores_each_distinct_query_once(monkeypatch, desk_model, desk_ikg, desk_split):
    calls = []
    score_candidates = kg2e.score_candidates

    def counted(*args, **kwargs):
        calls.append(args)
        return score_candidates(*args, **kwargs)

    monkeypatch.setattr(kg2e, "score_candidates", counted)
    evaluate(desk_model, desk_ikg)
    rows = desk_split.test_ids.tolist()
    distinct = len({(h, r) for h, r, _ in rows}) + len({(r, t) for _, r, t in rows})
    assert distinct < 2 * len(rows)  # the desk test rows repeat queries
    assert len(calls) == distinct == 151  # one vector serves raw and filtered


def test_evaluate_ranks_both_protocols_in_one_filtered_call(monkeypatch, desk_model, desk_ikg):
    # A benchmark that wraps evaluation.evaluate_ranks times the call whose
    # 4th argument or filtered= keyword is truthy as the filtered ranking:
    # evaluate makes exactly that one call, through the module attribute,
    # and writes what it returns.
    calls, results = [], []
    original = evaluation.evaluate_ranks

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(evaluation, "evaluate_ranks", recorded)
    doc = evaluate(desk_model, desk_ikg)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs.get("filtered", args[3] if len(args) > 3 else False)
    assert doc["ranks"] == {name: m.to_document() for name, m in results[0].items()}
    assert list(doc["ranks"]) == ["raw", "filtered"]


@st.composite
def grouped_ranking_case(draw):
    """A small model whose entity rows repeat (exact score ties), test rows
    that share queries and repeat, and known rows that repeat and may lack
    some test rows."""
    n_e, n_r, dim = draw(st.integers(1, 6)), draw(st.integers(1, 3)), draw(st.integers(1, 2))
    entities = [Term.iri(f"ex:e{i}") for i in range(n_e)]
    relations = [Term.iri(f"ex:r{i}") for i in range(n_r)]
    kind = draw(st.sampled_from([kg2e.KL_DIVERGENCE, kg2e.EXPECTED_LIKELIHOOD]))
    model = init_model(Vocab(entities, relations), dim=dim, seed=draw(st.integers(0, 2**16)), score_kind=kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    model.covs[:] = rng.uniform(0.1, 2.0, size=model.covs.shape)
    copies = draw(st.lists(st.integers(0, n_e - 1), min_size=n_e, max_size=n_e))
    model.entity_means[:] = model.entity_means[copies]
    model.entity_covs[:] = model.entity_covs[copies]
    row = st.tuples(st.integers(0, n_e - 1), st.integers(0, n_r - 1), st.integers(0, n_e - 1))
    test = draw(st.lists(row, min_size=1, max_size=12))
    test += draw(st.lists(st.sampled_from(test), max_size=4))
    keep = draw(st.lists(st.booleans(), min_size=len(test), max_size=len(test)))
    kept = [t for t, k in zip(test, keep) if k]
    known = kept + kept[: len(kept) // 2] + draw(st.lists(row, max_size=8))
    return model, np.array(test), np.array(known, dtype=np.int64).reshape(-1, 3)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(grouped_ranking_case())
def test_grouped_ranks_match_per_row_oracle(case):
    model, test, known = case
    ranks = evaluate_ranks(model, test, known, filtered=True)
    for filtered, name in ((False, "raw"), (True, "filtered")):
        assert ranks[name].to_document() == oracle_rank_document(model, test, known, filtered)
    assert evaluate_ranks(model, test, known) == {"raw": ranks["raw"]}


def test_evaluate_needs_the_split_vocabulary_and_thresholds(desk_model, desk_ikg):
    other = init_model(build_vocab(parse("@prefix ex: <http://e.example/ns#> .\nex:a ex:r ex:b .")))
    other.train_config = desk_model.train_config
    with pytest.raises(VocabError, match="IKG vocabulary does not match the model's vocabulary"):
        evaluate(other, desk_ikg)
    bare = copy.copy(desk_model)
    bare.thresholds = None
    with pytest.raises(ValueError) as info:
        evaluate(bare, desk_ikg)
    assert str(info.value) == "model carries no thresholds; re-run train"


@pytest.mark.parametrize(
    "stored, message",
    [
        (None, "model carries no training config; cannot re-derive the split"),
        ({"seed": -1}, "stored training config is malformed: seed must be non-negative"),
        ({"split": "abc"}, "stored training config is malformed: split must be three numbers, not 'abc'"),
        ({"momentum": 0.9}, "stored training config is malformed: unknown config keys: ['momentum']"),
    ],
    ids=["missing", "negative-seed", "string-split", "unknown-key"],
)
def test_evaluate_reads_the_split_from_the_stored_config(desk_model, desk_ikg, stored, message):
    model = copy.copy(desk_model)
    model.train_config = stored
    with pytest.raises(ValueError) as info:
        evaluate(model, desk_ikg)
    assert str(info.value) == message
