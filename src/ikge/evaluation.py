"""Link-prediction ranking and triple classification.

Ranking, threshold selection and classification metrics take triples in
their id form: ``(n, 3)`` int arrays of ``(h, r, t)`` rows, such as a
split's ``test_ids``. Every id is range-checked on entry (IndexError).
Only ``rank_triple`` and ``classify`` take a Term-level triple, and each
converts its own.

Ranking scores every entity as a replacement for the missing side of a
test triple and reports the rank of the true entity, averaging positions
over exact score ties. The filtered protocol drops candidates that form
other known-true triples (never the true entity itself). The known ids
are indexed once per ranking run: tail ids by ``(h, r)`` and head ids by
``(r, t)``; a single ``rank_triple`` collects only the entry of its own
query, skipping known triples with a term outside the model vocabulary.
Classification applies per-relation score thresholds chosen on validation
data by maximizing accuracy over midpoints of adjacent scores; the triples
of one call are scored in one batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as kg2e
from .rdf import Graph, Triple

RIGHT = "right"  # (h, r, ?): predict the tail
LEFT = "left"  # (?, r, t): predict the head
HITS_AT = (1, 3, 10)


@dataclass
class RankMetrics:
    mean_rank: float
    hits: dict[int, float]
    side: str
    filtered: bool
    n_ranks: int

    def to_document(self) -> dict:
        return {
            "mean_rank": self.mean_rank,
            "hits": {str(p): v for p, v in sorted(self.hits.items())},
            "side": self.side,
            "filtered": self.filtered,
            "n_ranks": self.n_ranks,
        }


@dataclass
class ClassificationMetrics:
    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float | None
    f1: float | None
    tpr: float | None
    tnr: float | None
    fpr: float | None
    fnr: float | None

    @classmethod
    def from_counts(cls, tp: int, tn: int, fp: int, fn: int) -> "ClassificationMetrics":
        def ratio(num: int, den: int) -> float | None:
            return num / den if den else None

        total = tp + tn + fp + fn
        precision = ratio(tp, tp + fp)
        recall = ratio(tp, tp + fn)
        if precision is None or recall is None or precision + recall == 0:
            f1 = None
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        return cls(
            tp=tp,
            tn=tn,
            fp=fp,
            fn=fn,
            accuracy=ratio(tp + tn, total),
            f1=f1,
            tpr=recall,
            tnr=ratio(tn, tn + fp),
            fpr=ratio(fp, fp + tn),
            fnr=ratio(fn, fn + tp),
        )

    def to_document(self) -> dict:
        return asdict(self)


@dataclass
class ThresholdTable:
    """Per-relation decision thresholds with a pooled fallback."""

    per_relation: dict[int, float] = field(default_factory=dict)
    fallback: float = 0.0

    def lookup(self, relation_id: int) -> float:
        return self.per_relation.get(relation_id, self.fallback)

    def to_document(self) -> dict:
        return {
            "per_relation": {str(r): v for r, v in sorted(self.per_relation.items())},
            "fallback": self.fallback,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ThresholdTable":
        return cls(
            per_relation={int(r): float(v) for r, v in doc["per_relation"].items()},
            fallback=float(doc["fallback"]),
        )


def rank_from_scores(scores: np.ndarray, true_index: int, keep: np.ndarray | None = None) -> float:
    """Rank of the true candidate with mean-tie policy.

    ``keep`` masks candidates out of consideration (filtered protocol);
    the true candidate always stays in. With b strictly better scores and
    m tied scores (the true one included) the rank is b + (m + 1) / 2.
    """
    true_score = scores[true_index]
    if keep is not None:
        keep = keep.copy()
        keep[true_index] = True
        scores = scores[keep]
    better = int((scores > true_score).sum())
    tied = int((scores == true_score).sum())
    return better + (tied + 1) / 2.0


def _check_ids(model: kg2e.Kg2eModel, ids) -> np.ndarray:
    return kg2e.check_ids(ids, model.vocab.n_entities, model.vocab.n_relations)


def _filter_index(known: np.ndarray) -> dict[tuple, list[int]]:
    """Known completions of the ``(n, 3)`` id array ``known`` by query:
    ``(RIGHT, h, r)`` -> tail ids and ``(LEFT, r, t)`` -> head ids."""
    index: dict[tuple, list[int]] = {}
    for h, r, t in known.tolist():
        index.setdefault((RIGHT, h, r), []).append(t)
        index.setdefault((LEFT, r, t), []).append(h)
    return index


def _rank_ids(model: kg2e.Kg2eModel, h: int, r: int, t: int, side: str, index) -> float:
    """Rank of one id triple's true completion; ``index`` is a filter
    index, or None for the raw protocol."""
    if side == RIGHT:
        scores = kg2e.score_candidates(model, h, r, t, position="tail")
        true_index, query = t, (RIGHT, h, r)
    else:
        scores = kg2e.score_candidates(model, h, r, t, position="head")
        true_index, query = h, (LEFT, r, t)
    keep = None
    if index is not None:
        keep = np.ones(len(scores), dtype=bool)
        keep[index.get(query, [])] = False
    return rank_from_scores(scores, true_index, keep)


def rank_triple(
    model: kg2e.Kg2eModel,
    triple: Triple,
    side: str,
    known: Graph,
    filtered: bool = False,
) -> float:
    """Rank of the true completion among all entities for one side.

    The filtered protocol collects only the known completions of this
    triple's own query, which is the one entry of ``_filter_index`` it reads.
    """
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be '{RIGHT}' or '{LEFT}', got {side!r}")
    h, r, t = model.vocab.triple_ids(triple)
    index = None
    if filtered:
        head, relation, tail = triple.head, triple.relation, triple.tail
        if side == RIGHT:
            same = (k for k in known.triples if k.head == head and k.relation == relation)
            index = {(RIGHT, h, r): [kt for _, _, kt in model.vocab.known_ids(same)]}
        else:
            same = (k for k in known.triples if k.tail == tail and k.relation == relation)
            index = {(LEFT, r, t): [kh for kh, _, _ in model.vocab.known_ids(same)]}
    return _rank_ids(model, h, r, t, side, index)


def evaluate_ranks(
    model: kg2e.Kg2eModel,
    test: np.ndarray,
    known: np.ndarray,
    filtered: bool = False,
) -> RankMetrics:
    """Aggregate right-side and left-side ranks over the ``test`` id rows;
    the filtered protocol drops the other completions in ``known`` (ids)."""
    test, known = _check_ids(model, test), _check_ids(model, known)
    if len(test) == 0:
        raise ValueError("test graph is empty")
    index = _filter_index(known) if filtered else None
    ranks = []
    for h, r, t in test.tolist():
        ranks.append(_rank_ids(model, h, r, t, RIGHT, index))
        ranks.append(_rank_ids(model, h, r, t, LEFT, index))
    arr = np.array(ranks)
    return RankMetrics(
        mean_rank=float(arr.mean()),
        hits={p: float((arr <= p).mean()) for p in HITS_AT},
        side="both",
        filtered=filtered,
        n_ranks=len(ranks),
    )


def best_threshold(pos_scores, neg_scores) -> float:
    """Accuracy-maximizing threshold for 'valid iff score >= threshold'.

    Candidates are the midpoints of adjacent distinct scores plus one
    sentinel below the minimum and one above the maximum; ties on accuracy
    resolve to the lowest candidate. Each candidate's count of positives
    >= it and negatives below it comes from a binary search of the sorted
    scores, so the cost is O(n log n).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    values = np.unique(np.concatenate([pos, neg]))
    if len(values) == 0:
        raise ValueError("no scores to threshold")
    candidates = np.concatenate(
        [[values[0] - 1.0], (values[:-1] + values[1:]) / 2.0, [values[-1] + 1.0]]
    )
    # NaN compares false either way: a NaN score is never counted correct,
    # and a NaN candidate counts nothing correct.
    pos = np.sort(pos[~np.isnan(pos)])
    neg = np.sort(neg[~np.isnan(neg)])
    correct = len(pos) - np.searchsorted(pos, candidates) + np.searchsorted(neg, candidates)
    correct[np.isnan(candidates)] = 0
    return float(candidates[int(np.argmax(correct))])


def select_thresholds(
    model: kg2e.Kg2eModel, valid_pos: np.ndarray, valid_neg: np.ndarray
) -> ThresholdTable:
    """Per-relation thresholds from validation positive and negative id rows.

    Every relation seen in the validation data gets an entry; the fallback
    pools all scores and covers relations missing from validation.
    """
    pos_ids = _check_ids(model, valid_pos)
    neg_ids = _check_ids(model, valid_neg)
    if len(pos_ids) == 0:
        raise ValueError("validation positives are empty")
    scores = kg2e.score_triples(model, np.concatenate([pos_ids, neg_ids]))
    pos_scores, neg_scores = scores[: len(pos_ids)], scores[len(pos_ids) :]
    pos_rel, neg_rel = pos_ids[:, 1], neg_ids[:, 1]

    table = ThresholdTable()
    for r in sorted(set(pos_rel.tolist()) | set(neg_rel.tolist())):
        table.per_relation[r] = best_threshold(pos_scores[pos_rel == r], neg_scores[neg_rel == r])
    table.fallback = best_threshold(pos_scores, neg_scores)
    return table


def _verdicts(model: kg2e.Kg2eModel, ids: np.ndarray, thresholds: ThresholdTable) -> np.ndarray:
    """Per-row 'score reaches its relation's threshold', scored in one batch."""
    ids = _check_ids(model, ids)
    limits = np.array([thresholds.lookup(r) for r in ids[:, 1].tolist()], dtype=np.float64)
    return kg2e.score_triples(model, ids) >= limits


def classify(model: kg2e.Kg2eModel, triple: Triple, thresholds: ThresholdTable) -> bool:
    """Valid iff the triple's score reaches its relation's threshold; a
    placeholder raises ValueError."""
    if triple.placeholder_count:
        raise ValueError("cannot classify a triple containing a placeholder")
    h, r, t = model.vocab.triple_ids(triple)
    return kg2e.score(model, h, r, t) >= thresholds.lookup(r)


def evaluate_classification(
    model: kg2e.Kg2eModel,
    test_pos: np.ndarray,
    test_neg: np.ndarray,
    thresholds: ThresholdTable,
) -> ClassificationMetrics:
    """Confusion counts and rates over positive and negative test id rows."""
    pos = _verdicts(model, test_pos, thresholds)
    neg = _verdicts(model, test_neg, thresholds)
    tp, fp = int(pos.sum()), int(neg.sum())
    return ClassificationMetrics.from_counts(tp=tp, tn=len(neg) - fp, fp=fp, fn=len(pos) - tp)
