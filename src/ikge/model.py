"""Gaussian embeddings of knowledge-graph entities and relations.

Every entity and relation is a diagonal Gaussian: the mean carries the
semantics, the covariance diagonal the uncertainty. Two triple scores are
provided, both "higher is better":

* expected likelihood:  f = -sum(mu^2 / c) - sum(ln c)  with
  mu = mu_h - mu_r - mu_t and c = c_h + c_r + c_t elementwise. This is
  twice the log Gaussian-product integral plus the constant d*ln(2*pi).
* negative KL divergence between the entity-pair Gaussian
  N(mu_h - mu_t, c_h + c_t) and the relation Gaussian N(mu_r, c_r).

Gradients are analytic; constraints keep mean norms at most 1 and clamp
covariance diagonals into [c_min, c_max].
"""

from __future__ import annotations

import json

import numpy as np

from .rdf import Term, Vocab, term_from_text, term_to_text

EXPECTED_LIKELIHOOD = "expected_likelihood"
KL_DIVERGENCE = "kl_divergence"
SCORE_KINDS = (EXPECTED_LIKELIHOOD, KL_DIVERGENCE)

DEFAULT_DIM = 50
DEFAULT_C_MIN = 0.05
DEFAULT_C_MAX = 5.0

MODEL_FORMAT_VERSION = 1

# Norm slack: rescaling is skipped below it so that re-applying the
# constraint is an exact no-op despite float rounding.
_NORM_TOL = 1e-9

class Kg2eModel:
    """Embedding table pair plus scoring configuration.

    Parameter arrays are float64 with shape (count, dim). ``thresholds``
    is an optional per-relation score threshold table filled in by the
    evaluation layer; ``train_config`` keeps the training configuration
    document for reproducible downstream splits.
    """

    def __init__(
        self,
        vocab: Vocab,
        dim: int,
        entity_means: np.ndarray,
        entity_covs: np.ndarray,
        relation_means: np.ndarray,
        relation_covs: np.ndarray,
        c_min: float = DEFAULT_C_MIN,
        c_max: float = DEFAULT_C_MAX,
        score_kind: str = KL_DIVERGENCE,
        thresholds=None,
        train_config: dict | None = None,
    ):
        if score_kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {score_kind!r}")
        if not 0 < c_min < c_max:
            raise ValueError("covariance bounds must satisfy 0 < c_min < c_max")
        self.vocab = vocab
        self.dim = int(dim)
        self.entity_means = np.asarray(entity_means, dtype=np.float64)
        self.entity_covs = np.asarray(entity_covs, dtype=np.float64)
        self.relation_means = np.asarray(relation_means, dtype=np.float64)
        self.relation_covs = np.asarray(relation_covs, dtype=np.float64)
        self.c_min = float(c_min)
        self.c_max = float(c_max)
        self.score_kind = score_kind
        self.thresholds = thresholds
        self.train_config = train_config
        expected = {
            "entity_means": (vocab.n_entities, dim),
            "entity_covs": (vocab.n_entities, dim),
            "relation_means": (vocab.n_relations, dim),
            "relation_covs": (vocab.n_relations, dim),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")

    def copy(self) -> "Kg2eModel":
        return Kg2eModel(
            self.vocab,
            self.dim,
            self.entity_means.copy(),
            self.entity_covs.copy(),
            self.relation_means.copy(),
            self.relation_covs.copy(),
            c_min=self.c_min,
            c_max=self.c_max,
            score_kind=self.score_kind,
            thresholds=self.thresholds,
            train_config=self.train_config,
        )


def init_model(
    vocab: Vocab,
    dim: int = DEFAULT_DIM,
    seed: int = 0,
    c_min: float = DEFAULT_C_MIN,
    c_max: float = DEFAULT_C_MAX,
    score_kind: str = KL_DIVERGENCE,
) -> Kg2eModel:
    """Seeded initialization: means uniform in +-6/sqrt(dim), covariances 1.

    Entity rows are drawn before relation rows, so a fixed seed yields
    bitwise-identical parameter arrays.
    """
    if vocab.n_entities == 0 or vocab.n_relations == 0:
        raise ValueError("vocabulary must contain at least one entity and one relation")
    if dim < 1:
        raise ValueError("dim must be at least 1")
    rng = np.random.default_rng(seed)
    bound = 6.0 / np.sqrt(dim)
    model = Kg2eModel(
        vocab,
        dim,
        rng.uniform(-bound, bound, (vocab.n_entities, dim)),
        np.ones((vocab.n_entities, dim)),
        rng.uniform(-bound, bound, (vocab.n_relations, dim)),
        np.ones((vocab.n_relations, dim)),
        c_min=c_min,
        c_max=c_max,
        score_kind=score_kind,
    )
    apply_constraints(model)
    return model


def _el_scores(mh, ch, mr, cr, mt, ct) -> np.ndarray:
    mu = mh - mr - mt
    c = ch + cr + ct
    return -(mu * mu / c).sum(axis=-1) - np.log(c).sum(axis=-1)


def _kl_scores(mh, ch, mr, cr, mt, ct) -> np.ndarray:
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


_SCORE_FNS = {EXPECTED_LIKELIHOOD: _el_scores, KL_DIVERGENCE: _kl_scores}


def _el_grads(mh, ch, mr, cr, mt, ct):
    mu = mh - mr - mt
    c = ch + cr + ct
    gmu = 2.0 * mu / c
    dc = mu * mu / (c * c) - 1.0 / c
    return -gmu, gmu, gmu, dc, dc, dc


def _kl_grads(mh, ch, mr, cr, mt, ct):
    me = mh - mt
    ce = ch + ct
    delta = mr - me
    a = delta / cr
    dce = 0.5 * (1.0 / ce - 1.0 / cr)
    dcr = 0.5 * (ce + delta * delta) / (cr * cr) - 0.5 / cr
    return a, -a, -a, dce, dcr, dce


_GRAD_FNS = {EXPECTED_LIKELIHOOD: _el_grads, KL_DIVERGENCE: _kl_grads}


def _check_triple(model: Kg2eModel, h: int, r: int, t: int) -> None:
    """The one-row form of :func:`check_ids`: the same IndexError."""
    n_entities = model.vocab.n_entities
    if not (0 <= h < n_entities and 0 <= r < model.vocab.n_relations and 0 <= t < n_entities):
        raise IndexError("triple id out of range")


def score(model: Kg2eModel, h: int, r: int, t: int) -> float:
    """Score of one id triple; bit-identical to its row of :func:`score_triples`."""
    _check_triple(model, h, r, t)
    em, ec = model.entity_means, model.entity_covs
    rm, rc = model.relation_means, model.relation_covs
    return float(_SCORE_FNS[model.score_kind](em[h], ec[h], rm[r], rc[r], em[t], ec[t]))


def check_ids(ids, n_entities: int, n_relations: int) -> np.ndarray:
    """``ids`` as an ``(n, 3)`` int64 array of ``(h, r, t)`` rows; an id
    outside its table raises IndexError instead of aliasing another row."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1, 3)
    if len(ids) and (
        ids.min() < 0 or ids[:, ::2].max() >= n_entities or ids[:, 1].max() >= n_relations
    ):
        raise IndexError("triple id out of range")
    return ids


def score_triples(model: Kg2eModel, ids) -> np.ndarray:
    """Scores of an ``(n, 3)`` array of ``(h, r, t)`` id rows in one batch.

    Summation order matches the scalar path, so entry i is bit-identical
    to ``score(model, *ids[i])``.
    """
    h, r, t = check_ids(ids, model.vocab.n_entities, model.vocab.n_relations).T
    em, ec = model.entity_means, model.entity_covs
    rm, rc = model.relation_means, model.relation_covs
    return _SCORE_FNS[model.score_kind](em[h], ec[h], rm[r], rc[r], em[t], ec[t])


def score_candidates(model: Kg2eModel, h: int, r: int, t: int, position: str) -> np.ndarray:
    """Scores of all entities substituted at ``position`` ('head' or 'tail').

    The fixed side keeps the given indices; the returned vector is indexed
    by entity id. Summation order matches the scalar path, so an entry is
    bit-identical to the corresponding single-triple score.
    """
    if position not in ("head", "tail"):
        raise ValueError(f"position must be 'head' or 'tail', got {position!r}")
    # Only the fixed side's entity is an input; 0 stands in for the free one.
    _check_triple(model, 0 if position == "head" else h, r, 0 if position == "tail" else t)
    fn = _SCORE_FNS[model.score_kind]
    em, ec = model.entity_means, model.entity_covs
    rm, rc = model.relation_means[r], model.relation_covs[r]
    if position == "tail":
        return fn(em[h], ec[h], rm, rc, em, ec)
    return fn(em, ec, rm, rc, em[t], ec[t])


def apply_constraints(model: Kg2eModel) -> Kg2eModel:
    """Rescale over-norm means to the unit ball and clamp covariances.

    Idempotent: a second application leaves every array bit-identical.
    """
    constrain_rows(model.entity_means, model.entity_covs, model.c_min, model.c_max)
    constrain_rows(model.relation_means, model.relation_covs, model.c_min, model.c_max)
    return model


def constrain_rows(means: np.ndarray, covs: np.ndarray, c_min: float, c_max: float) -> None:
    """The constraint rule of :func:`apply_constraints`, in place on rows of
    means and the matching rows of covariances.

    Each row is constrained on its own, so a row ends bit-identical
    whichever other rows it is passed with.
    """
    # np.linalg.norm's own formula for real rows, without its call overhead.
    norms = np.sqrt(np.add.reduce(means * means, axis=1, keepdims=True))
    over = norms > 1.0 + _NORM_TOL
    if over.any():
        np.divide(means, norms, out=means, where=over)
    np.clip(covs, c_min, c_max, out=covs)


def constraint_violations(model: Kg2eModel, tol: float = 1e-9) -> int:
    """Count rows violating the norm bound or covariance box."""
    count = 0
    for means in (model.entity_means, model.relation_means):
        count += int((np.linalg.norm(means, axis=1) > 1.0 + tol).sum())
    for covs in (model.entity_covs, model.relation_covs):
        bad = (covs < model.c_min - tol) | (covs > model.c_max + tol)
        count += int(bad.any(axis=1).sum())
    return count


def model_to_document(model: Kg2eModel) -> dict:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "score_kind": model.score_kind,
        "c_min": model.c_min,
        "c_max": model.c_max,
        "entities": [term_to_text(t) for t in model.vocab.entities],
        "relations": [term_to_text(t) for t in model.vocab.relations],
        "entity_means": model.entity_means.tolist(),
        "entity_covs": model.entity_covs.tolist(),
        "relation_means": model.relation_means.tolist(),
        "relation_covs": model.relation_covs.tolist(),
        "thresholds": None if model.thresholds is None else model.thresholds.to_document(),
        "train_config": model.train_config,
    }
    return doc


def model_from_document(doc: dict) -> Kg2eModel:
    """The model a document stores; ValueError if a parameter or threshold
    is not finite, a covariance lies outside ``[c_min, c_max]``, or a
    threshold is keyed by a relation id outside ``[0, n_relations)``."""
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    vocab = Vocab(
        [_vocab_term(s) for s in doc["entities"]],
        [_vocab_term(s) for s in doc["relations"]],
    )
    thresholds = None
    if doc.get("thresholds") is not None:
        from .evaluation import ThresholdTable

        thresholds = ThresholdTable.from_document(doc["thresholds"])
    model = Kg2eModel(
        vocab,
        doc["dim"],
        np.array(doc["entity_means"], dtype=np.float64),
        np.array(doc["entity_covs"], dtype=np.float64),
        np.array(doc["relation_means"], dtype=np.float64),
        np.array(doc["relation_covs"], dtype=np.float64),
        c_min=doc["c_min"],
        c_max=doc["c_max"],
        score_kind=doc["score_kind"],
        thresholds=thresholds,
        train_config=doc.get("train_config"),
    )
    for name in ("entity_means", "entity_covs", "relation_means", "relation_covs"):
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"{name} holds a non-finite value")
    for name in ("entity_covs", "relation_covs"):
        covs = getattr(model, name)
        if (covs < model.c_min).any() or (covs > model.c_max).any():
            raise ValueError(f"{name} lies outside [c_min, c_max]")
    if thresholds is not None:
        if not np.isfinite([thresholds.fallback, *thresholds.per_relation.values()]).all():
            raise ValueError("thresholds hold a non-finite value")
        if not all(0 <= r < vocab.n_relations for r in thresholds.per_relation):
            raise ValueError("thresholds name a relation id outside the vocabulary")
    return model


def _vocab_term(text: str) -> Term:
    term = term_from_text(text)
    if term.is_placeholder:
        raise ValueError("placeholder term in stored vocabulary")
    return term


def save_model(model: Kg2eModel, path) -> None:
    """Write the model as JSON; floats keep their shortest round-trip form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_document(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> Kg2eModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_document(json.load(fh))
