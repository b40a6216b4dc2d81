"""Margin-ranking training with RMS-scaled updates under the open-world assumption.

``evaluation.fit`` is what ``ikge train`` runs: it draws the config's
split, then ``init_model``, ``train`` and the threshold fit on the
validation rows.

A split is its graph plus one seeded order of its triples. Each triple is
converted to the id form ``(h, r, t)`` once, into one ``(n, 3)`` int array
``ids`` in that order; training, threshold selection and evaluation read
its views ``train_ids``, ``valid_ids`` and ``test_ids``. The Term-level
parts are built only when an edge such as ``ikge split`` reads them.
Training triples are positives; negatives are sampled per positive by
corrupting the head or the tail (coin flip) with a uniformly random
replacement entity, rejecting corruptions present anywhere in the split
for up to 100 attempts. Membership is one set lookup of the packed key
``(h * R + r) * E + t`` (E entities, R relations), the set built once per
split from its three id arrays. Updates follow the RMS rule

    s <- rho * s + (1 - rho) * g^2
    theta <- theta + lr * g / sqrt(s + eps)

with g the ascent gradient of the batch margin objective, applied
sequentially batch by batch, each batch followed by the model constraints.

A batch step is one pass over stacked id rows. Each part gives the bytes
that drawing, scoring and updating pair by pair would:

* Draws. An epoch's negatives are drawn in one call straight after the
  epoch's permutation, making per triple the draws a single sample
  call makes. Nothing else draws in between, so the stream is unchanged;
  a batch is ``batch_size * negatives_per_positive`` consecutive rows.
* Scores. Training reads and writes the model's own tables, with no
  copy. A batch's b positives and their b negatives form one 2b-row id
  array, relation ids offset to their rows; the six kernel inputs are row
  gathers of ``means`` and ``covs`` by ``ndarray.take``, cheaper per call than
  indexing, then one score call and one gradient call on the rows of the
  active pairs. Both functions are elementwise with per-row reductions,
  so a row's value does not depend on the rows beside it.
* Updates. Gradients are summed per touched row (the ids of nonzero
  count, ascending), its mean then its covariance, with one ``np.bincount``
  in the order positive heads, positive tails, negative heads, negative
  tails, then relations: bincount adds in input order from zero, so each
  row adds the same terms in the same order. One RMS step reads and writes
  the touched rows only, each on its own, so their order does not matter;
  its two halves update those rows of the two tables.
* Constraints. Each batch constrains the rows it updated, and the first
  batch then the whole model. The rule acts on each row alone and is
  idempotent, so a row no batch has updated since the whole-table
  application is already a fixed point. That holds for a model passed in
  outside its constraints too, which is why the first application covers
  every row.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from . import model as kg2e
from .rdf import Graph, Triple, Vocab, VocabError, build_vocab

# Bounds of the raw PCG64 words the negative sampler decodes.
_HALF64 = 1 << 63
_WORD32 = 1 << 32
_LOW32 = _WORD32 - 1

# Draws per negative before the last one is accepted even if it is known.
MAX_ATTEMPTS = 100
CONVERGENCE_REL_TOL = 1e-3
CONVERGENCE_PATIENCE = 3


def _split_fractions(fractions) -> tuple[float, float, float]:
    """Train/valid/test fractions as floats: three in (0, 1) summing to 1."""
    if not isinstance(fractions, (list, tuple)) or not all(map(kg2e.is_number, fractions)):
        raise TypeError(f"split must be three numbers, not {fractions!r}")
    fractions = tuple(float(kg2e.require_number("split", f)) for f in fractions)
    if len(fractions) != 3 or any(not 0.0 < f < 1.0 for f in fractions):
        raise ValueError("split must be three fractions in (0, 1)")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    return fractions


class TrainingDivergedError(Exception):
    """Raised when an epoch produces a non-finite mean loss."""


# Each per-epoch training array holds n_train * negatives_per_positive rows,
# so a config refuses a count beyond this before any array is built.
MAX_NEGATIVES_PER_POSITIVE = 1024


@dataclass
class TrainConfig:
    # seed 27 is the shipped default: on the default desk IKG it converges
    # by epoch 15 and clears the 0.80 accuracy / filtered Hits@10 bounds.
    epochs: int = 50
    learning_rate: float = 0.01
    rms_decay: float = 0.9
    rms_epsilon: float = 1e-8
    margin: float = 1.0
    negatives_per_positive: int = 1
    batch_size: int = 64
    seed: int = 27
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)

    def __post_init__(self):
        for name in ("epochs", "negatives_per_positive", "batch_size", "seed"):
            kg2e.require_number(name, getattr(self, name), integer=True)
        for name in ("learning_rate", "rms_decay", "rms_epsilon", "margin"):
            if not math.isfinite(kg2e.require_number(name, getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 < self.rms_decay < 1.0:
            raise ValueError("rms_decay must lie in (0, 1)")
        if self.rms_epsilon <= 0:
            raise ValueError("rms_epsilon must be positive")
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if not 1 <= self.negatives_per_positive <= MAX_NEGATIVES_PER_POSITIVE:
            raise ValueError(
                f"negatives_per_positive must lie in [1, {MAX_NEGATIVES_PER_POSITIVE}]"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        self.split = _split_fractions(self.split)

    @classmethod
    def from_document(cls, doc: dict) -> "TrainConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_document(self) -> dict:
        return {**asdict(self), "split": list(self.split)}


@dataclass
class TrainReport:
    epoch_losses: list[float]
    convergence_epoch: int | None
    constraint_violations: int

    def to_document(self) -> dict:
        return {"epochs_run": len(self.epoch_losses), **asdict(self)}


@dataclass(eq=False)
class DatasetSplit:
    """``graph``'s triples in the seeded order ``order``: ``n_train`` training
    triples, then ``n_valid`` validation triples, then the test triples.
    ``ids`` converts every triple once, in that order, and the three
    ``*_ids`` arrays are views of it; the Term-level ``train``, ``valid``
    and ``test`` are built from ``order`` only when read."""

    graph: Graph
    vocab: Vocab
    order: np.ndarray
    n_train: int
    n_valid: int

    def full_graph(self) -> Graph:
        return self.graph

    @cached_property
    def ids(self) -> np.ndarray:
        rows = [self.vocab.triple_ids(t) for t in self.graph]
        return np.array(rows, dtype=np.int64).reshape(-1, 3)[self.order]

    def _rows(self, part: int) -> slice:
        cuts = (0, self.n_train, self.n_train + self.n_valid, None)
        return slice(cuts[part], cuts[part + 1])

    def _part(self, part: int) -> Graph:
        triples = [self.graph.triples[i] for i in self.order[self._rows(part)].tolist()]
        return Graph(triples, self.graph.prefix_map)

    train_ids = cached_property(lambda self: self.ids[self._rows(0)])
    valid_ids = cached_property(lambda self: self.ids[self._rows(1)])
    test_ids = cached_property(lambda self: self.ids[self._rows(2)])
    train = cached_property(lambda self: self._part(0))
    valid = cached_property(lambda self: self._part(1))
    test = cached_property(lambda self: self._part(2))

    @cached_property
    def sampler(self) -> "NegativeSampler":
        """The negative sampler over the split's own triples, built once:
        training and the threshold and test negatives all reject these."""
        return NegativeSampler(self.vocab, self.ids)


def split_dataset(
    graph: Graph,
    fractions: tuple[float, float, float] = TrainConfig.split,
    seed: int = TrainConfig.seed,
) -> DatasetSplit:
    """Seeded shuffle split into train/valid/test; the defaults are
    ``TrainConfig()``'s, so this is the split ``ikge train`` draws at it.

    Valid and test sizes are floor(n * fraction); the remainder goes to
    train, so 1575 triples at (0.8, 0.1, 0.1) give 1261/157/157. A split
    that leaves any part empty raises ValueError, naming the split and the
    three counts: training needs its rows, threshold selection the
    validation rows and evaluation the test rows. The vocabulary is built
    from the full graph so held-out entities still resolve.
    """
    n = len(graph)
    if n == 0:
        raise ValueError("cannot split an empty graph")
    fractions = _split_fractions(fractions)
    vocab = build_vocab(graph)
    order = np.random.default_rng(seed).permutation(n)
    n_valid = int(n * fractions[1])
    n_test = int(n * fractions[2])
    n_train = n - n_valid - n_test
    if min(n_train, n_valid, n_test) < 1:
        raise ValueError(
            f"split {list(fractions)} leaves {n_train} training, {n_valid} validation"
            f" and {n_test} test triples of {n}; each part needs at least one"
        )
    return DatasetSplit(graph, vocab, order, n_train, n_valid)


class NegativeSampler:
    """Corruptions of id triples, rejecting the known triples (an ``(n, 3)``
    id array).

    Head replacements exclude literal entities because literals cannot
    stand in subject position; tail replacements range over all entities.
    Known and corrupted ids are range-checked (IndexError): a tail id past
    the last entity would pack to another triple's key.

    Draws are decoded from the raw 64-bit words of the generator's PCG64
    bit generator, by numpy's own rules for ``Generator.random()`` and
    ``Generator.integers(k)``, so they are the draws those calls would
    make and leave the generator in the state they would leave it in;
    calling them once per draw costs about three times as much. The rules:

    * the side coin ``random() < 0.5`` is a word below ``2**63``, since
      ``random()`` is ``(w >> 11) * 2**-53``;
    * a 32-bit draw is the low half of a fresh word, whose high half
      PCG64 buffers (its state's ``has_uint32``/``uinteger``) for the
      next 32-bit draw;
    * ``integers(k)`` for ``k <= 2**32`` is Lemire's multiply-shift on a
      32-bit draw ``x``: ``(x * k) >> 32``, redrawn while the low 32 bits
      of ``x * k`` are below ``(2**32 - k) % k``; ``integers(1)`` draws
      nothing.

    Only a PCG64 bit generator, the one ``np.random.default_rng`` builds,
    is accepted: other bit generators buffer and produce words
    differently. Any other raises TypeError.
    """

    def __init__(self, vocab: Vocab, known: np.ndarray):
        if vocab.n_entities < 2:
            raise ValueError("need at least two entities to corrupt a triple")
        self.n_entities = vocab.n_entities
        self.n_relations = vocab.n_relations
        self.heads = vocab.non_literal_ids.tolist()
        # Position of each entity in the head pool, -1 for literals.
        self.head_pos = [-1] * self.n_entities
        for k, e in enumerate(self.heads):
            self.head_pos[e] = k
        h, r, t = kg2e.check_ids(known, self.n_entities, self.n_relations).T
        self.known = set(self.key(h, r, t).tolist())

    def key(self, h, r, t):
        """Packed key ``(h * R + r) * E + t`` of ids or id arrays."""
        return (h * self.n_relations + r) * self.n_entities + t

    def sample_many(self, triples: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One corruption per row of the ``(n, 3)`` id array ``triples``, as
        an ``(n, 3)`` id array.

        Triples are corrupted in order, each making the draws of the
        one-row call, so the generator ends in the same state as after one
        call per row. A coin picks the side (the head only when the head
        pool has an entity other than ``h``); the replacement always
        differs from the original entity, so a result differs from its
        triple in exactly one position. Known corruptions are redrawn;
        after ``MAX_ATTEMPTS`` the last draw is accepted even if it is a
        known triple.
        """
        ids = kg2e.check_ids(triples, self.n_entities, self.n_relations)
        triples = ids.tolist()
        bits = rng.bit_generator
        if not isinstance(bits, np.random.PCG64):
            raise TypeError(
                f"negative sampling needs a PCG64 bit generator, got {type(bits).__name__}"
            )
        entry = bits.state
        has_half, half = entry["has_uint32"], entry["uinteger"]
        # Words are fetched in chunks; the ones left unread are given back
        # when the state is written on return.
        chunk = 2 * len(triples) + 16
        words: list[int] = []
        used = 0
        heads, head_pos, known = self.heads, self.head_pos, self.known
        n_e, n_r = self.n_entities, self.n_relations
        head_stride, n_heads = n_r * n_e, len(heads)
        # Lemire thresholds of the pools: heads less h, heads without h, entities less t.
        thresholds = {k: (_WORD32 - k) % k for k in (n_heads - 1, n_heads, n_e - 1) if k > 0}
        attempts = range(MAX_ATTEMPTS)
        out_h: list[int] = []
        out_t: list[int] = []
        try:
            for h, r, t in triples:
                if used == len(words):
                    words += bits.random_raw(chunk).tolist()
                corrupt_head = words[used] < _HALF64
                used += 1
                if corrupt_head and n_heads < 2 and (n_heads == 0 or heads[0] == h):
                    corrupt_head = False
                if corrupt_head:
                    size, skip = n_heads, head_pos[h]
                else:
                    size, skip = n_e, t
                # Uniform over the pool minus the original entity.
                k = size - 1 if skip >= 0 else size
                threshold = thresholds[k]
                # Packed key (h * R + r) * E + t with the fixed side folded in.
                hr, rt = h * n_r + r, r * n_e + t
                nh, nt = h, t
                for _ in attempts:
                    i = 0
                    if k > 1:
                        while True:
                            if has_half:
                                x, has_half = half, 0
                            else:
                                if used == len(words):
                                    words += bits.random_raw(chunk).tolist()
                                w = words[used]
                                used += 1
                                x, half, has_half = w & _LOW32, w >> 32, 1
                            m = x * k
                            if m & _LOW32 >= threshold:
                                break
                        i = m >> 32
                    if i >= skip >= 0:
                        i += 1
                    if corrupt_head:
                        nh = heads[i]
                        if nh * head_stride + rt not in known:
                            break
                    else:
                        nt = i
                        if hr * n_e + i not in known:
                            break
                out_h.append(nh)
                out_t.append(nt)
        finally:
            # The state after exactly ``used`` words, with the buffered half.
            bits.state = entry
            bits.advance(used)
            state = bits.state
            state["has_uint32"], state["uinteger"] = has_half, half
            bits.state = state
        negatives = ids.copy()
        negatives[:, 0], negatives[:, 2] = out_h, out_t
        return negatives


def sample_negative(
    positive: Triple,
    vocab: Vocab,
    graph: Graph,
    rng: np.random.Generator,
) -> Triple:
    """One corruption of ``positive`` that is not in ``graph``; see
    :class:`NegativeSampler`, which callers drawing many should build once.
    Triples of ``graph`` with a term outside ``vocab`` are skipped: no
    corruption built from the vocabulary can equal them."""
    sampler = NegativeSampler(vocab, vocab.known_ids(graph))
    nh, _, nt = sampler.sample_many([vocab.triple_ids(positive)], rng)[0].tolist()
    return Triple(vocab.entities[nh], positive.relation, vocab.entities[nt])


def convergence_epoch(epoch_losses) -> int | None:
    """First 1-based epoch ending a run of ``CONVERGENCE_PATIENCE`` consecutive
    epochs whose relative improvement over the best loss so far stayed below
    ``CONVERGENCE_REL_TOL``, or None if the loss keeps improving.

    Improvement is measured against the running best rather than the
    previous epoch so plateau noise cannot mask convergence.
    """
    if not epoch_losses:
        return None
    best = epoch_losses[0]
    streak = 0
    for e in range(1, len(epoch_losses)):
        improvement = (best - epoch_losses[e]) / max(abs(best), 1e-12)
        streak = streak + 1 if improvement < CONVERGENCE_REL_TOL else 0
        best = min(best, epoch_losses[e])
        if streak >= CONVERGENCE_PATIENCE:
            return e + 1
    return None


def train(model: kg2e.Kg2eModel, split: DatasetSplit, config: TrainConfig) -> TrainReport:
    """Run margin-ranking training in place and report per-epoch losses.

    Deterministic for a fixed config seed. Raises TrainingDivergedError as
    soon as an epoch loss is non-finite.
    """
    if model.vocab != split.vocab:
        raise VocabError("model vocabulary does not match the dataset split")
    if split.n_train == 0:
        raise ValueError("training split is empty")

    rng = np.random.default_rng(config.seed)
    sampler = split.sampler
    # Column form (3, n): one contiguous row each of heads, relations, tails.
    pos_ids = np.ascontiguousarray(split.train_ids.T)
    n = pos_ids.shape[1]
    npp = config.negatives_per_positive
    n_rows = n * npp
    batch_rows = min(config.batch_size, n) * npp

    n_e = split.vocab.n_entities
    means, covs, dim = model.means, model.covs, model.dim
    grad_fn = kg2e._GRAD_FNS[model.score_kind]
    score_fn = kg2e._SCORE_FNS[model.score_kind]
    lr, rho, eps = config.learning_rate, config.rms_decay, config.rms_epsilon
    # The RMS state of each row, its mean and then its covariance.
    width = 2 * dim
    state = np.zeros((len(means), width))
    columns = np.arange(width)

    def update(ids, grads, b):
        """Sum ``grads`` per distinct row of ``ids``, in input order, at the
        row's rank among them; take the RMS step on those rows and constrain
        them. A function so that its temporaries are freed batch by batch."""
        touched = np.flatnonzero(np.bincount(ids))
        flat = (np.searchsorted(touched, ids) * width)[:, None] + columns
        g = np.bincount(flat.ravel(), weights=grads.ravel()).reshape(-1, width) / b
        s = rho * state.take(touched, axis=0) + (1.0 - rho) * g * g
        state[touched] = s
        step = lr * g / np.sqrt(s + eps)
        m = means.take(touched, axis=0) + step[:, :dim]
        c = covs.take(touched, axis=0) + step[:, dim:]
        kg2e.constrain_rows(m, c, model.c_min, model.c_max)
        means[touched], covs[touched] = m, c

    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        # The epoch's negatives in one draw, straight after the permutation;
        # then relation ids become table rows.
        pos = pos_ids[:, np.repeat(rng.permutation(n), npp)]
        neg = sampler.sample_many(pos.T, rng).T
        pos[1] += n_e
        neg[1] = pos[1]
        loss_sum = 0.0
        for lo in range(0, n_rows, batch_rows):
            hi = lo + batch_rows
            # A batch's positives, then their negatives, as one id array.
            h, r, t = np.concatenate((pos[:, lo:hi], neg[:, lo:hi]), axis=1)
            b = len(h) // 2
            sides = tuple(table.take(col, axis=0) for col in (h, r, t) for table in (means, covs))
            scores = score_fn(*sides)
            losses = np.maximum(0.0, config.margin - scores[:b] + scores[b:])
            loss_sum += float(losses.sum())

            active = np.flatnonzero(losses > 0.0)
            a = len(active)
            if a:
                if a < b:
                    # Active pairs: positives, then their negatives.
                    rows = np.concatenate((active, active + b))
                    h, r, t = h.take(rows), r.take(rows), t.take(rows)
                    sides = tuple(side.take(rows, axis=0) for side in sides)
                g_mh, g_mr, g_mt, g_ch, g_cr, g_ct = grad_fn(*sides)
                # Ascent on positives, descent on negatives, summed per row
                # in the order positive heads, positive tails, negative
                # heads, negative tails, then the relations.
                ids = np.concatenate((h[:a], t[:a], h[a:], t[a:], r[:a]))
                grads = np.empty((len(ids), width))
                halves = ((g_mh, g_mr, g_mt), (g_ch, g_cr, g_ct))
                for out, (g_h, g_r, g_t) in zip((grads[:, :dim], grads[:, dim:]), halves):
                    np.concatenate(
                        (g_h[:a], g_t[:a], -g_h[a:], -g_t[a:], g_r[:a] - g_r[a:]), out=out
                    )
                update(ids, grads, b)
            if epoch == lo == 0:
                kg2e.constrain_rows(means, covs, model.c_min, model.c_max)

        mean_loss = loss_sum / n_rows
        if not np.isfinite(mean_loss):
            raise TrainingDivergedError(f"non-finite mean loss at epoch {len(epoch_losses) + 1}")
        epoch_losses.append(mean_loss)

    return TrainReport(
        epoch_losses=epoch_losses,
        convergence_epoch=convergence_epoch(epoch_losses),
        constraint_violations=kg2e.constraint_violations(model),
    )
