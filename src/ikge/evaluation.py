"""Link-prediction ranking and triple classification.

Ranking, threshold selection and classification metrics take triples in
their id form: ``(n, 3)`` int arrays of ``(h, r, t)`` rows, such as a
split's ``test_ids`` or, as the filtered protocol's known set, its whole
``ids``. Every id is range-checked on entry (IndexError).
Only ``rank_triple`` and ``classify`` take a Term-level triple, and each
converts its own.

Ranking scores every entity as a replacement for the missing side of a
test triple and reports the rank of the true entity, averaging positions
over exact score ties; each distinct query, ``(h, r, ?)`` or ``(?, r, t)``,
is scored once for all the test rows that ask it, and both protocols rank
from that one score vector. Blocks of ``RANK_BLOCK`` queries are ranked in
array passes, ``RANK_BLOCK`` of their test-row sides at a time: each side
of a test row counts the scores in its query's row above and equal to its
true score, less those that the block's boolean query-by-entity mask of
other known completions (never the true entity itself) drops under the
filtered protocol. ``rank_triple`` ranks its row the same way, skipping
known triples outside the model vocabulary.
Classification applies a per-relation ``model.ThresholdTable`` chosen on
validation data by maximizing accuracy over midpoints of adjacent scores.
``verdicts`` judges an id array with one batch score; ``classify`` judges
one Term-level triple through the scalar ``score``.

``fit`` and ``evaluate`` are the one train/evaluate protocol, and the only
owner of a model's split: ``fit(graph, config)`` draws the config's split
and returns what ``ikge train`` writes; ``evaluate(model, graph)`` draws
the same split again from the config stored on the model and returns what
``ikge evaluate`` writes, the ranks and classification of its test rows.
Neither builds a Term-level part of the split.
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


def _check_ids(model: kg2e.Kg2eModel, ids) -> np.ndarray:
    return kg2e.check_ids(ids, model.vocab.n_entities, model.vocab.n_relations)


# Distinct queries scored per pass, and test-row sides ranked per chunk of a
# pass, which bounds the memory of a pass.
RANK_BLOCK = 64


def _ranks(model: kg2e.Kg2eModel, test: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Raw and filtered ranks, shape ``(2, 2n)``, of the ``n`` checked id rows
    ``test``: column 2i ranks row i's tail and 2i + 1 its head, b better and
    m tied scores (the true one included) giving b + (m + 1) / 2. Filtered
    ranks leave out the query's other completions in the id rows ``known``."""
    n_e, n_r = model.vocab.n_entities, model.vocab.n_relations
    tails = n_e * n_r  # query codes: h * R + r for (h, r, ?), then (?, r, t)
    h, r, t = test.T
    codes = np.column_stack((h * n_r + r, tails + r * n_e + t)).ravel()
    trues = np.column_stack((t, h)).ravel()
    queries, first, of_member = np.unique(codes, return_index=True, return_inverse=True)
    kh, kr, kt = known.T
    known_codes = np.concatenate((kh * n_r + kr, tails + kr * n_e + kt))
    of_known = np.searchsorted(queries, known_codes).clip(max=len(queries) - 1)
    asked = queries[of_known] == known_codes
    of_known, completions = of_known[asked], np.concatenate((kt, kh))[asked]
    rows = test.tolist()
    ranks = np.empty((2, len(codes)))
    scores = np.empty((min(RANK_BLOCK, len(queries)), n_e))
    for lo in range(0, len(queries), RANK_BLOCK):
        block = first[lo : lo + RANK_BLOCK].tolist()  # a member asking each query
        for j, m in enumerate(block):
            position = "head" if m % 2 else "tail"
            scores[j] = kg2e.score_candidates(model, *rows[m // 2], position=position)
        hi = lo + len(block)
        members = np.flatnonzero((of_member >= lo) & (of_member < hi))
        in_block = (of_known >= lo) & (of_known < hi)
        drop = np.zeros((len(block), n_e), dtype=bool)
        drop[of_known[in_block] - lo, completions[in_block]] = True
        for at in range(0, len(members), RANK_BLOCK):
            chunk = members[at : at + RANK_BLOCK]
            query, own = of_member[chunk] - lo, (np.arange(len(chunk)), trues[chunk])
            row_scores = scores[query]
            true_scores = row_scores[own][:, None]
            # NaN compares false: a NaN score is neither better nor tied.
            better, tied = row_scores > true_scores, row_scores == true_scores
            dropped = drop[query]
            dropped[own] = False
            for row, kept in enumerate((True, ~dropped)):
                tied_kept = (tied & kept).sum(axis=1)
                ranks[row, chunk] = (better & kept).sum(axis=1) + (tied_kept + 1) / 2.0
            # Freed before the next chunk gathers its own rows.
            del row_scores, better, tied, dropped
    return ranks


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
    test = np.array([model.vocab.triple_ids(triple)], dtype=np.int64)
    known_ids = model.vocab.known_ids(known) if filtered else []
    ranks = _ranks(model, test, np.array(known_ids, dtype=np.int64).reshape(-1, 3))
    return float(ranks[int(filtered), 0 if side == RIGHT else 1])


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
    ranks = _ranks(model, test, known if filtered else known[:0])
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
    resolve to the lowest candidate. The distinct scores are ``np.unique``'s:
    the sorted scores less each one equal to the one before it or a NaN
    after a NaN, so one NaN stays last. A neighbour mask gives them without
    the ``numpy.ma`` import that ``np.unique`` costs on numpy 2. Each
    candidate's count of positives >= it and negatives below it comes from
    a binary search of the sorted scores, so the cost is O(n log n).
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    values = np.sort(np.concatenate([pos, neg]))
    if len(values) == 0:
        raise ValueError("no scores to threshold")
    values = values[np.concatenate([[True], (values[1:] != values[:-1]) & ~np.isnan(values[:-1])])]
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
    ``(config.seed, 2)``, and ``config`` stored on it. A split that leaves
    a part empty raises ValueError (``split_dataset``) before any training."""
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
    against the split's ``ids`` and classified against one corruption per
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
    ranks = evaluate_ranks(model, test, split.ids, filtered=True)
    negatives = split.sampler.sample_many(test, np.random.default_rng((config.seed, 3)))
    classification = evaluate_classification(model, test, negatives, thresholds)
    return {
        "n_test": len(test),
        "seed": config.seed,
        "classification": classification.to_document(),
        "ranks": {name: metrics.to_document() for name, metrics in ranks.items()},
    }
