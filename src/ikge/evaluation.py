"""Link-prediction ranking and triple classification.

Ranking, threshold selection and classification metrics take triples in
their id form: ``(n, 3)`` int arrays of ``(h, r, t)`` rows, such as a
split's ``test_ids``. Every id is range-checked on entry (IndexError).
Only ``rank_triple`` and ``classify`` take a Term-level triple, and each
converts its own.

Ranking scores every entity as a replacement for the missing side of a
test triple and reports the rank of the true entity, averaging positions
over exact score ties; each distinct query, ``(h, r, ?)`` or ``(?, r, t)``,
is scored once for all the test rows that ask it, and both protocols rank
from that one score vector. The filtered protocol drops the query's other
known completions (never the true entity itself): the ids that a filter
index, built once per ranking run, lists under ``(h, r)`` (tails) or
``(r, t)`` (heads). ``rank_triple`` indexes its known graph the same way,
skipping triples outside the model vocabulary.
Classification applies a per-relation ``model.ThresholdTable`` chosen on
validation data by maximizing accuracy over midpoints of adjacent scores.
``verdicts`` judges an id array with one batch score; ``classify`` judges
one Term-level triple through the scalar ``score``.

``fit`` and ``evaluate`` are the one train/evaluate protocol, and the only
owner of a model's split: ``fit(graph, config)`` draws the config's split
and returns what ``ikge train`` writes; ``evaluate(model, graph)`` draws
the same split again from the config stored on the model and returns what
``ikge evaluate`` writes, the ranks and classification of its test rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import model as kg2e, training
from .rdf import Graph, Triple, VocabError

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
        return {**asdict(self), "hits": {str(p): v for p, v in sorted(self.hits.items())}}


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


def _group_ranks(scores: np.ndarray, trues, drop) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the true candidates ``trues`` in one score
    vector, with the mean-tie policy: b strictly better and m tied scores (the
    true one included) give the rank b + (m + 1) / 2. The filtered rank leaves
    out the distinct candidate ids ``drop``, never the true one itself."""
    trues = np.array(trues, dtype=np.int64)
    true_scores = scores[trues, None]
    drop = np.fromiter(drop, dtype=np.int64)
    # NaN compares false: a member's own id among the dropped ones is kept
    dropped = np.where(drop == trues[:, None], np.nan, scores[drop])
    better = (scores > true_scores).sum(axis=1)
    tied = (scores == true_scores).sum(axis=1)
    better_kept = better - (dropped > true_scores).sum(axis=1)
    tied_kept = tied - (dropped == true_scores).sum(axis=1)
    return better + (tied + 1) / 2.0, better_kept + (tied_kept + 1) / 2.0


def _check_ids(model: kg2e.Kg2eModel, ids) -> np.ndarray:
    return kg2e.check_ids(ids, model.vocab.n_entities, model.vocab.n_relations)


def _filter_index(known) -> dict[tuple, set[int]]:
    """Known completions of the id rows ``known`` (a list of ``(h, r, t)``)
    by query: ``(RIGHT, h, r)`` -> tail ids and ``(LEFT, r, t)`` -> head ids."""
    index: dict[tuple, set[int]] = {}
    for h, r, t in known:
        index.setdefault((RIGHT, h, r), set()).add(t)
        index.setdefault((LEFT, r, t), set()).add(h)
    return index


def _query_ranks(model: kg2e.Kg2eModel, key: tuple, trues, index) -> tuple[np.ndarray, np.ndarray]:
    """Raw and filtered ranks of the true ids ``trues`` of the query ``key`` (a
    filter index key), all from one score vector; ``index`` is a filter index."""
    side, a, b = key
    if side == RIGHT:
        scores = kg2e.score_candidates(model, a, b, 0, position="tail")
    else:
        scores = kg2e.score_candidates(model, 0, a, b, position="head")
    return _group_ranks(scores, trues, index.get(key, ()))


def rank_triple(
    model: kg2e.Kg2eModel,
    triple: Triple,
    side: str,
    known: Graph,
    filtered: bool = False,
) -> float:
    """Rank of the true completion among all entities for one side; the
    filtered protocol drops the other completions in ``known``."""
    if side not in (RIGHT, LEFT):
        raise ValueError(f"side must be '{RIGHT}' or '{LEFT}', got {side!r}")
    h, r, t = model.vocab.triple_ids(triple)
    index = _filter_index(model.vocab.known_ids(known)) if filtered else {}
    key, true = ((RIGHT, h, r), t) if side == RIGHT else ((LEFT, r, t), h)
    return float(_query_ranks(model, key, [true], index)[1 if filtered else 0][0])


def evaluate_ranks(
    model: kg2e.Kg2eModel,
    test: np.ndarray,
    known: np.ndarray,
    filtered: bool = False,
) -> dict[str, RankMetrics]:
    """Right-side and left-side ranks aggregated over the ``test`` id rows,
    under ``"raw"`` and, if ``filtered``, also under ``"filtered"``: the
    protocol that drops the other completions in ``known`` (ids)."""
    test, known = _check_ids(model, test), _check_ids(model, known)
    if len(test) == 0:
        raise ValueError("test graph is empty")
    index = _filter_index(known.tolist()) if filtered else {}
    groups: dict[tuple, list[tuple[int, int]]] = {}  # query key -> [(rank slot, true id)]
    for i, (h, r, t) in enumerate(test.tolist()):
        groups.setdefault((RIGHT, h, r), []).append((2 * i, t))
        groups.setdefault((LEFT, r, t), []).append((2 * i + 1, h))
    ranks = np.empty((2, 2 * len(test)))  # raw, filtered
    for key, members in groups.items():
        slots, trues = zip(*members)
        ranks[:, list(slots)] = _query_ranks(model, key, trues, index)
    names = ("raw", "filtered") if filtered else ("raw",)
    return {
        name: RankMetrics(
            mean_rank=float(arr.mean()),
            hits={p: float((arr <= p).mean()) for p in HITS_AT},
            side="both",
            filtered=name == "filtered",
            n_ranks=len(arr),
        )
        for name, arr in zip(names, ranks)
    }


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
) -> kg2e.ThresholdTable:
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

    table = kg2e.ThresholdTable()
    for r in sorted(set(pos_rel.tolist()) | set(neg_rel.tolist())):
        table.per_relation[r] = best_threshold(pos_scores[pos_rel == r], neg_scores[neg_rel == r])
    table.fallback = best_threshold(pos_scores, neg_scores)
    return table


def verdicts(model: kg2e.Kg2eModel, ids, thresholds: kg2e.ThresholdTable) -> tuple:
    """Scores of the ``(n, 3)`` id rows ``ids`` in one batch, and per row
    whether its score reaches its relation's threshold."""
    ids = _check_ids(model, ids)
    limits = np.array([thresholds.lookup(r) for r in ids[:, 1].tolist()], dtype=np.float64)
    scores = kg2e.score_triples(model, ids)
    return scores, scores >= limits


def classify(model: kg2e.Kg2eModel, triple: Triple, thresholds: kg2e.ThresholdTable) -> bool:
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
    thresholds: kg2e.ThresholdTable,
) -> ClassificationMetrics:
    """Confusion counts and rates over positive and negative test id rows."""
    _, pos = verdicts(model, test_pos, thresholds)
    _, neg = verdicts(model, test_neg, thresholds)
    tp, fp = int(pos.sum()), int(neg.sum())
    return ClassificationMetrics.from_counts(tp=tp, tn=len(neg) - fp, fp=fp, fn=len(pos) - tp)


def fit(graph: Graph, config: training.TrainConfig) -> tuple[kg2e.Kg2eModel, training.TrainReport]:
    """What ``ikge train`` runs: a model at the default dimension trained on
    the split ``config`` draws from ``graph``, its thresholds fitted on the
    split's ``valid_ids`` against one corruption per row drawn from
    ``(config.seed, 2)``, and ``config`` stored on it."""
    split = training.split_dataset(graph, config.split, config.seed)
    model = kg2e.init_model(split.vocab, seed=config.seed)
    report = training.train(model, split, config)
    valid = split.valid_ids
    negatives = split.sampler.sample_many(valid, np.random.default_rng((config.seed, 2)))
    model.thresholds = select_thresholds(model, valid, negatives)
    model.train_config = config.to_document()
    return model, report


def evaluate(model: kg2e.Kg2eModel, graph: Graph) -> dict:
    """The document ``ikge evaluate`` writes to ``eval.json``, for a model
    ``fit`` made from ``graph``: the split is drawn again from the model's
    stored training config, and its ``test_ids`` are ranked raw and filtered
    against all the split's ids and classified against one corruption per
    row drawn from ``(seed, 3)``. A missing or malformed stored config
    raises ValueError; so does a model without thresholds. The model must
    share the split's vocabulary (VocabError)."""
    if model.train_config is None:
        raise ValueError("model carries no training config; cannot re-derive the split")
    try:
        config = training.TrainConfig.from_document(model.train_config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"stored training config is malformed: {exc}") from exc
    split = training.split_dataset(graph, config.split, config.seed)
    if split.vocab != model.vocab:
        raise VocabError("IKG vocabulary does not match the model's vocabulary")
    thresholds = kg2e.require_thresholds(model)
    test = split.test_ids
    known = np.concatenate((split.train_ids, split.valid_ids, test))
    ranks = evaluate_ranks(model, test, known, filtered=True)
    negatives = split.sampler.sample_many(test, np.random.default_rng((config.seed, 3)))
    classification = evaluate_classification(model, test, negatives, thresholds)
    return {
        "n_test": len(test),
        "seed": config.seed,
        "classification": classification.to_document(),
        "ranks": {name: metrics.to_document() for name, metrics in ranks.items()},
    }
