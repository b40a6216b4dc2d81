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

The model owns the parameter layout: two tables, ``means`` and ``covs``,
entity rows then relation rows, which the constructor takes, scoring indexes
and training updates in place; ``dim`` is their width. The four arrays a
model file names are views of their row blocks.

A model may carry a :class:`ThresholdTable`: a triple is valid iff its
score reaches its relation's threshold. ``evaluation`` chooses and applies
the table, and ``require_thresholds`` is the one check that a model has
one; loading a stored model checks every parameter and threshold.
A stored number must be a JSON number (``require_number``, as in a training
config); ``rdf.term_from_text``, the one reader of a stored term, reads each
vocabulary entry.

A stored model is one JSON document. Format 2 stores each parameter array
as ``{"shape": [n, d], "f64le": "<base64 of little-endian float64 bytes>"}``,
so values round-trip bit-exactly; format 1 stored nested lists of float
reprs and is still read.
"""

from __future__ import annotations

import base64
import json
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .rdf import Vocab, term_from_text, term_to_text

EXPECTED_LIKELIHOOD = "expected_likelihood"
KL_DIVERGENCE = "kl_divergence"
SCORE_KINDS = (EXPECTED_LIKELIHOOD, KL_DIVERGENCE)

DEFAULT_DIM = 50
DEFAULT_C_MIN = 0.05
DEFAULT_C_MAX = 5.0

MODEL_FORMAT_VERSION = 2
PARAMETER_NAMES = ("entity_means", "entity_covs", "relation_means", "relation_covs")

# Norm slack: rescaling is skipped below it so that re-applying the
# constraint is an exact no-op despite float rounding.
_NORM_TOL = 1e-9


def is_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a number, an int when ``integer``: what a stored
    or configured number must be. A bool or a string is neither."""
    return not isinstance(value, bool) and isinstance(value, int if integer else (int, float))


def require_number(name: str, value, integer: bool = False):
    """``value`` itself if :func:`is_number`; TypeError naming ``name`` otherwise,
    or ValueError if a number that need not be an int is an int no float holds."""
    if not is_number(value, integer):
        raise TypeError(f"{name} must be {'an integer' if integer else 'a number'}, not {value!r}")
    if not integer and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} lies beyond the float range")
    return value


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
    def from_document(cls, doc: dict, n_relations: int) -> "ThresholdTable":
        """The table a document stores; ValueError if a field is missing,
        ``per_relation`` is not a JSON object, a key is not a relation id
        written as ``str(id)``, an id lies outside ``[0, n_relations)``, or a
        threshold is not finite; TypeError if a threshold is not a number."""
        for name in ("per_relation", "fallback"):
            if name not in doc:
                raise ValueError(f"thresholds.{name} is missing")
        per_relation = doc["per_relation"]
        if not isinstance(per_relation, dict):
            raise ValueError("thresholds.per_relation must be a JSON object")
        for key, value in per_relation.items():
            require_number(f"thresholds.per_relation[{key!r}]", value)
            if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
                raise ValueError(f"thresholds key {key!r} is not a relation id in canonical form")
        fallback = require_number("thresholds.fallback", doc["fallback"])
        table = cls({int(r): float(v) for r, v in per_relation.items()}, float(fallback))
        if not np.isfinite([table.fallback, *table.per_relation.values()]).all():
            raise ValueError("thresholds hold a non-finite value")
        if not all(0 <= r < n_relations for r in table.per_relation):
            raise ValueError("thresholds name a relation id outside the vocabulary")
        return table


def require_thresholds(model: Kg2eModel) -> ThresholdTable:
    """The model's threshold table; ValueError if it carries none."""
    if model.thresholds is None:
        raise ValueError("model carries no thresholds; re-run train")
    return model.thresholds


class Kg2eModel:
    """Embedding tables plus scoring configuration.

    ``means`` and ``covs`` are C-contiguous float64 tables, a row per entity
    and then per relation (relation r at ``n_entities + r``), copied from the
    two tables given; ``dim`` is their width. Read-only properties named
    after the stored arrays give the row-block views. ``thresholds`` is an
    optional :class:`ThresholdTable`; ``train_config`` keeps the training
    config document for reproducible downstream splits.
    """

    def __init__(
        self,
        vocab: Vocab,
        means: np.ndarray,
        covs: np.ndarray,
        c_min: float = DEFAULT_C_MIN,
        c_max: float = DEFAULT_C_MAX,
        score_kind: str = KL_DIVERGENCE,
        thresholds=None,
        train_config: dict | None = None,
    ):
        means, covs = (np.array(t, dtype=np.float64, order="C") for t in (means, covs))
        rows = vocab.n_entities + vocab.n_relations
        if means.ndim != 2 or len(means) != rows:
            raise ValueError(f"means has shape {means.shape}, expected ({rows}, dim)")
        if covs.shape != means.shape:
            raise ValueError(f"covs has shape {covs.shape}, expected {means.shape}")
        if means.shape[1] < 1:
            raise ValueError("dim must be at least 1")
        if score_kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {score_kind!r}")
        if not 0 < c_min < c_max <= sys.float_info.max:
            raise ValueError("covariance bounds must be finite and satisfy 0 < c_min < c_max")
        self.vocab = vocab
        self.dim = means.shape[1]
        self.means, self.covs = means, covs
        self.c_min = float(c_min)
        self.c_max = float(c_max)
        self.score_kind = score_kind
        self.thresholds = thresholds
        self.train_config = train_config

    # Views computed on each read, never stored: a deep copy copies each
    # array on its own, so stored views would come loose from its tables.
    entity_means = property(lambda self: self.means[: self.vocab.n_entities])
    entity_covs = property(lambda self: self.covs[: self.vocab.n_entities])
    relation_means = property(lambda self: self.means[self.vocab.n_entities :])
    relation_covs = property(lambda self: self.covs[self.vocab.n_entities :])


def init_model(
    vocab: Vocab,
    dim: int = DEFAULT_DIM,
    seed: int = 0,
    score_kind: str = KL_DIVERGENCE,
) -> Kg2eModel:
    """Seeded initialization: means uniform in +-6/sqrt(dim), covariances 1,
    covariance bounds ``[DEFAULT_C_MIN, DEFAULT_C_MAX]``.

    One draw fills ``means`` in row order, entity rows before relation
    rows, so a fixed seed yields bitwise-identical parameter arrays.
    """
    if vocab.n_entities == 0 or vocab.n_relations == 0:
        raise ValueError("vocabulary must contain at least one entity and one relation")
    if dim < 1:  # before any array of that width is drawn
        raise ValueError("dim must be at least 1")
    shape = (vocab.n_entities + vocab.n_relations, dim)
    bound = 6.0 / np.sqrt(dim)
    means = np.random.default_rng(seed).uniform(-bound, bound, shape)
    return apply_constraints(Kg2eModel(vocab, means, np.ones(shape), score_kind=score_kind))


def _el_scores(mh, ch, mr, cr, mt, ct) -> np.ndarray:
    mu = mh - mr - mt
    c = ch + cr + ct
    return -(mu * mu / c).sum(axis=-1) - np.log(c).sum(axis=-1)


def _kl_scores(mh, ch, mr, cr, mt, ct) -> np.ndarray:
    # The KG2E energy 0.5 * (sum(ce/cr) + sum(delta^2/cr) - sum(ln(ce/cr)) - d)
    # with ce / cr computed once. Only arrays made here are written in place,
    # never an input row view, and each value takes the same operations.
    d = np.shape(mh)[-1]
    ratio = ch + ct
    ratio /= cr
    delta = mh - mt
    np.subtract(mr, delta, out=delta)
    delta *= delta
    delta /= cr
    trace = ratio.sum(axis=-1)
    np.log(ratio, out=ratio)
    energy = 0.5 * (trace + delta.sum(axis=-1) - ratio.sum(axis=-1) - d)
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
    m, c, r = model.means, model.covs, model.vocab.n_entities + r
    return float(_SCORE_FNS[model.score_kind](m[h], c[h], m[r], c[r], m[t], c[t]))


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
    n_e = model.vocab.n_entities
    h, r, t = check_ids(ids, n_e, model.vocab.n_relations).T
    m, c, r = model.means, model.covs, n_e + r
    return _SCORE_FNS[model.score_kind](m[h], c[h], m[r], c[r], m[t], c[t])


def score_candidates(
    model: Kg2eModel, h: int, r: int, t: int, position: str, candidates=None
) -> np.ndarray:
    """Scores of the entities substituted at ``position`` ('head' or 'tail'):
    of the ids ``candidates`` in their order (IndexError for an id outside
    the table), or of every entity, indexed by id, when it is None.

    The fixed side keeps the given indices. Each row sums alone, in the
    scalar path's order, so an entry is bit-identical to the corresponding
    single-triple score, whichever candidates are scored with it.
    """
    if position not in ("head", "tail"):
        raise ValueError(f"position must be 'head' or 'tail', got {position!r}")
    # Only the fixed side's entity is an input; 0 stands in for the free one.
    _check_triple(model, 0 if position == "head" else h, r, 0 if position == "tail" else t)
    fn = _SCORE_FNS[model.score_kind]
    n_e = model.vocab.n_entities
    em, ec = model.means[:n_e], model.covs[:n_e]
    fixed = h if position == "tail" else t
    fm, fc = em[fixed], ec[fixed]
    if candidates is not None:
        ids = np.asarray(candidates, dtype=np.int64)
        if len(ids) and (ids.min() < 0 or ids.max() >= n_e):
            raise IndexError("candidate id out of range")
        em, ec = em.take(ids, axis=0), ec.take(ids, axis=0)
    rm, rc = model.means[n_e + r], model.covs[n_e + r]
    if position == "tail":
        return fn(fm, fc, rm, rc, em, ec)
    return fn(em, ec, rm, rc, fm, fc)


def apply_constraints(model: Kg2eModel) -> Kg2eModel:
    """Rescale over-norm means to the unit ball and clamp covariances.

    Idempotent: a second application leaves every array bit-identical.
    """
    constrain_rows(model.means, model.covs, model.c_min, model.c_max)
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


def constraint_violations(model: Kg2eModel) -> int:
    """Count rows violating the norm bound or covariance box, each by more
    than ``_NORM_TOL``."""
    over = np.linalg.norm(model.means, axis=1) > 1.0 + _NORM_TOL
    covs = model.covs
    outside = (covs < model.c_min - _NORM_TOL) | (covs > model.c_max + _NORM_TOL)
    return int(over.sum() + outside.any(axis=1).sum())


def model_to_document(model: Kg2eModel) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "dim": model.dim,
        "score_kind": model.score_kind,
        "c_min": model.c_min,
        "c_max": model.c_max,
        "entities": [term_to_text(t) for t in model.vocab.entities],
        "relations": [term_to_text(t) for t in model.vocab.relations],
        **{name: _array_document(getattr(model, name)) for name in PARAMETER_NAMES},
        "thresholds": None if model.thresholds is None else model.thresholds.to_document(),
        "train_config": model.train_config,
    }


def _array_document(arr: np.ndarray) -> dict:
    data = base64.b64encode(arr.astype("<f8", copy=False).tobytes()).decode("ascii")
    return {"shape": list(arr.shape), "f64le": data}


def _array_from_document(version: int, name: str, value, shape: tuple) -> np.ndarray:
    """One stored parameter array of the given ``shape``; every refusal names it.

    Format 1 stores equal-length lists of numbers (``require_number`` checks
    each). Format 2 stores ``{"shape", "f64le"}``; ValueError if the shape is
    not two non-negative ints, either format's shape differs from ``shape``,
    ``f64le`` is not valid base64, or its byte length does not match.
    """
    if version == 1:
        for i, row in enumerate(value if isinstance(value, list) else [value]):
            if not isinstance(row, list) or len(row) != len(value[0]):
                raise ValueError(f"{name} must be a list of equal-length lists of numbers")
            for j in (j for j, x in enumerate(row) if type(x) is not float):  # a float passes
                require_number(f"{name}[{i}][{j}]", row[j])
        arr = np.array(value, dtype=np.float64)
        if arr.shape != shape:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        return arr
    if not isinstance(value, dict) or not {"shape", "f64le"} <= value.keys():
        raise ValueError(f"{name} must be a JSON object with shape and f64le")
    stored, data = value["shape"], value["f64le"]
    # Checked before any reshape, which would infer a -1 entry.
    if not (
        isinstance(stored, list)
        and len(stored) == 2
        and all(type(n) is int and n >= 0 for n in stored)
    ):
        shown = json.dumps(stored, default=repr)
        raise ValueError(f"{name} shape {shown} is not two non-negative integers")
    if tuple(stored) != shape:
        raise ValueError(f"{name} has shape {tuple(stored)}, expected {shape}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} f64le is not valid base64: {exc}") from exc
    expected = 8 * stored[0] * stored[1]
    if len(raw) != expected:
        raise ValueError(f"{name} holds {len(raw)} bytes, expected {expected} for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def model_from_document(doc: dict) -> Kg2eModel:
    """The model a document of format 1 or 2 stores; ValueError if the
    document is not a JSON object, lacks a required field (the message names
    it), a vocabulary term repeats, ``dim`` is below 1, a parameter array is
    malformed (see ``_array_from_document``) or not finite, a covariance lies
    outside ``[c_min, c_max]``, ``thresholds`` or ``train_config`` is neither
    a JSON object nor null, or ``ThresholdTable.from_document`` rejects the
    thresholds; TypeError if ``dim`` is not an int, ``c_min`` or ``c_max`` not
    a number (see ``require_number``), or the vocabulary not lists of strings."""
    if not isinstance(doc, dict):
        raise ValueError("the document must hold a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format version {version!r}")
    for name in ("dim", "c_min", "c_max", "score_kind", "entities", "relations", *PARAMETER_NAMES):
        if name not in doc:
            raise ValueError(f"{name} is missing")
    for name in ("train_config", "thresholds"):
        if doc.get(name) is not None and not isinstance(doc[name], dict):
            raise ValueError(f"{name} must be a JSON object or null")
    tables = ("entities", "relations")
    for name in tables:
        if not isinstance(doc[name], list) or not all(isinstance(s, str) for s in doc[name]):
            raise TypeError(f"{name} must be a list of term strings")
    vocab = Vocab(*([term_from_text(s) for s in doc[name]] for name in tables))
    thresholds = doc.get("thresholds")
    if thresholds is not None:
        thresholds = ThresholdTable.from_document(thresholds, vocab.n_relations)
    dim = require_number("dim", doc["dim"], integer=True)
    if dim < 1:  # before any array is read
        raise ValueError("dim must be at least 1")
    rows = dict(zip(PARAMETER_NAMES, [vocab.n_entities] * 2 + [vocab.n_relations] * 2))
    em, ec, rm, rc = (_array_from_document(version, n, doc[n], (rows[n], dim)) for n in rows)
    model = Kg2eModel(
        vocab,
        np.concatenate((em, rm)),
        np.concatenate((ec, rc)),
        c_min=require_number("c_min", doc["c_min"]),
        c_max=require_number("c_max", doc["c_max"]),
        score_kind=doc["score_kind"],
        thresholds=thresholds,
        train_config=doc.get("train_config"),
    )
    for name in PARAMETER_NAMES:
        if not np.isfinite(getattr(model, name)).all():
            raise ValueError(f"{name} holds a non-finite value")
    for name in ("entity_covs", "relation_covs"):
        covs = getattr(model, name)
        if (covs < model.c_min).any() or (covs > model.c_max).any():
            raise ValueError(f"{name} lies outside [c_min, c_max]")
    return model


def save_model(model: Kg2eModel, path) -> None:
    """Write the model as a format-2 JSON document."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(model_to_document(model), fh, indent=1)
        fh.write("\n")


def load_model(path) -> Kg2eModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_document(json.load(fh))
