"""Spans and counters around ikge's public functions, installed from outside.

The tracer rebinds module and class attributes of the ``ikge`` modules to
thin wrappers while it is installed and restores the originals afterwards;
nothing inside ``src/`` knows about it. Every call through a wrapped name
records a span ``[name, start, end, parent, request, phase]`` in memory.
The hottest calls (``Vocab.entity_id``/``relation_id``,
``Graph.__contains__``, ``OntologyIndex.admissible``) record counts only,
keyed by the innermost open span, so ratios are measured where the work
happens without paying for a span each.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter
from contextlib import contextmanager

from ikge import cli, evaluation, ikggen, model, pipeline, rdf, training

# Field positions of a span record.
_NAME, _START, _END, _PARENT, _REQUEST, _PHASE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (counter, innermost span index) -> n
        self.stack: list[int] = [-1]
        self.request = None
        self.phase = ""
        self.active = True
        self._saved: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1], self.request, self.phase])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        before, self.active = self.active, False
        try:
            yield
        finally:
            self.active = before

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, make in _targets(self):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Gzipped JSON of every span and counter, written once at the end."""
        doc = {
            "fields": ["name", "start", "end", "parent", "request", "phase"],
            "spans": self.spans,
            "counts": [[key, idx, n] for (key, idx), n in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _spanned(tracer: Tracer, name: str, label=None, after=None):
    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(label(args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer, idx, args, result)
            return result

        return wrapper

    return make


def _counted(tracer: Tracer, key: str, true_key: str | None = None):
    counts = tracer.counts
    stack = tracer.stack

    def make(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                counts[key, stack[-1]] += 1
                if true_key is not None and result:
                    counts[true_key, stack[-1]] += 1
            return result

        return wrapper

    return make


def _rank_label(args, kwargs) -> str:
    filtered = kwargs.get("filtered", args[3] if len(args) > 3 else False)
    return "evaluation.rank_filtered" if filtered else "evaluation.rank_raw"


def _cli_label(args, kwargs) -> str:
    argv = kwargs.get("argv", args[0] if args else None) or ["?"]
    return f"cli.{argv[0]}"


def _after_sample_negative(tracer, idx, args, result) -> None:
    # args: (positive, vocab, graph, rng, ...); a forced accept returns a
    # corruption that is itself a known triple.
    if rdf.Graph.contains(args[2], result):
        tracer.counts["training.forced_accepts", idx] += 1


def _after_train(tracer, idx, args, result) -> None:
    tracer.counts["training.epochs", idx] += len(result.epoch_losses)
    if result.convergence_epoch is not None:
        tracer.counts["training.convergence_epoch", idx] += result.convergence_epoch


def _targets(tracer: Tracer):
    s = functools.partial(_spanned, tracer)
    c = functools.partial(_counted, tracer)
    return [
        (rdf, "parse", s("rdf.parse")),
        (rdf, "serialize", s("rdf.serialize")),
        (rdf.Vocab, "entity_id", c("rdf.vocab_lookups")),
        (rdf.Vocab, "relation_id", c("rdf.vocab_lookups")),
        (rdf.Graph, "__contains__", c("rdf.graph_contains")),
        (model, "init_model", s("model.init_model")),
        (model, "score", s("model.score")),
        (model, "score_candidates", s("model.score_candidates")),
        (model, "apply_constraints", s("model.apply_constraints")),
        (model, "save_model", s("model.save")),
        (model, "load_model", s("model.load")),
        (model, "model_from_document", s("model.load")),
        (training, "split_dataset", s("training.split")),
        (training, "train", s("training.train", after=_after_train)),
        (training, "sample_negative", s("training.sample_negative", after=_after_sample_negative)),
        (evaluation, "evaluate_ranks", s("", label=_rank_label)),
        (evaluation, "select_thresholds", s("evaluation.select_thresholds")),
        (evaluation, "best_threshold", s("evaluation.best_threshold")),
        (evaluation, "classify", s("evaluation.classify")),
        (evaluation, "evaluate_classification", s("evaluation.evaluate_classification")),
        (pipeline, "load_corpus", s("pipeline.load_corpus")),
        (pipeline, "extract_keywords", s("pipeline.extract_keywords")),
        (pipeline.OntologyIndex, "__init__", s("pipeline.ontology_index")),
        (pipeline.OntologyIndex, "admissible", c("pipeline.admissible", "pipeline.admissible_true")),
        (pipeline, "predict_candidates", s("pipeline.predict_candidates")),
        (pipeline, "verify_intent", s("pipeline.verify_intent")),
        (pipeline, "translate", s("pipeline.translate")),
        (ikggen, "gen_ikg", s("ikggen.gen")),
        (cli, "main", s("", label=_cli_label)),
    ]


class Profile:
    """Per-layer figures from one traced run.

    Each figure is the layer's total over the traced set-ups divided by
    their number, plus its total over the traced passes divided by theirs:
    the cost of one set-up plus one average pass.
    """

    def __init__(self, tracer: Tracer, n_setups: int, n_passes: int):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for sp in spans:
            if sp[_PARENT] >= 0:
                child[sp[_PARENT]] += sp[_END] - sp[_START]
        # Totals per phase first, so that counts stay whole numbers until
        # the final division.
        inclusive, self_s, calls, children = Counter(), Counter(), Counter(), Counter()
        stage = [""] * len(spans)
        for i, sp in enumerate(spans):
            name, parent, phase = sp[_NAME], sp[_PARENT], sp[_PHASE]
            # Spans are appended on open, so a parent's stage is already known.
            if parent >= 0 and stage[parent]:
                stage[i] = stage[parent]
            elif name.startswith("stage."):
                stage[i] = name[len("stage."):]
            dur = sp[_END] - sp[_START]
            calls[name, phase] += 1
            self_s[name, phase] += dur - child[i]
            if parent >= 0:
                children[spans[parent][_NAME], name, phase] += dur
            up = parent
            while up >= 0 and spans[up][_NAME] != name:
                up = spans[up][_PARENT]
            if up < 0:
                inclusive[name, phase] += dur
        by_span, by_stage = Counter(), Counter()
        for (key, idx), n in tracer.counts.items():
            if idx >= 0:
                by_span[key, spans[idx][_NAME], spans[idx][_PHASE]] += n
                by_stage[key, stage[idx], spans[idx][_PHASE]] += n

        per = {"setup": max(n_setups, 1), "pass": max(n_passes, 1)}

        def combine(totals: Counter) -> Counter:
            out = Counter()
            for key, v in totals.items():
                if key[-1] in per:
                    out[key[:-1] if len(key) > 2 else key[0]] += v / per[key[-1]]
            return out

        self.inclusive = combine(inclusive)  # outermost spans of each name
        self.self_s = combine(self_s)
        self.calls = combine(calls)
        self.by_span = combine(by_span)  # (counter, innermost span name)
        self.by_stage = combine(by_stage)  # (counter, outermost stage)
        self.children: dict[str, Counter] = {}
        for (parent, name), v in combine(children).items():
            self.children.setdefault(parent, Counter())[name] = v

    def count(self, key: str) -> float:
        return sum(n for (k, _), n in self.by_span.items() if k == key)

    def cli_self(self) -> dict[str, float]:
        """Self time of each ``ikge`` subcommand: argparse, JSON and file I/O."""
        return {name: t for name, t in sorted(self.self_s.items()) if name.startswith("cli.")}
