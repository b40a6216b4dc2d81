"""The benchmark workloads and the checks on their outputs.

Each workload has a ``setup`` that makes its inputs from the seed and a
``run_pass`` that does one timed unit of work; ``check_pass`` runs after
the pass's clock has stopped. Every call into ikge goes through a module
attribute (``training.train``, ``cli.main``, ...) so that the tracer in
``tracing.py`` sees it when installed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import numpy as np

from ikge import cli, evaluation, ikggen, model as kg2e, pipeline, rdf, training

DESK_SPEC = dict(n_services=60, n_resources=15, n_kpis=12, target_triples=1575)
TINY_SPEC = dict(n_services=6, n_resources=4, n_kpis=3, target_triples=120)

# Both workloads run on the shipped desk IKG (generator seed 42). The
# workload seed draws the requests only: IKGs of other generator seeds differ
# in entity count, which moves model size and the cost of every CLI command
# by up to 10 % between seeds, and that would read as noise between runs.
DESK_IKG_SEED = 42
DESK_TRANSLATES = 24
DESK_PREDICTS = 8
# Every intent-requests pass serves the same seeded batch, so that passes
# of one run do the same work.
BATCH_REQUESTS = 100
VERIFY_POOL = 32

# The request mix of intent-requests. These shares are assumptions of this
# benchmark, not measured traffic: translate is the majority because it is
# the one-call path from text to intent the README names; verify and predict
# follow the README's command-line loop (translate, verify the intent,
# predict a slot) at lower shares; half of the verified intents get one slot
# swapped so that the failing path is served too.
TRANSLATE_SHARE, VERIFY_SHARE = 0.60, 0.25  # predict takes the rest
SWAPPED_SHARE = 0.5
MAX_KEYWORDS = 3  # corpus keywords per translated text: 0..3, as many of each
MAX_FILLER = 8  # filler words per text, uniformly 0..8

FILLER = (
    "please", "need", "set", "up", "for", "our", "site", "team", "with", "good",
    "quality", "today", "customers", "branch", "office", "link", "new", "urgent",
)
PREDICT_SLOTS = (
    "icm:PropertyExpectation icm:hasTarget ???",
    "icm:Target icm:targetResource ???",
    "kpi:latency icm:valueBy ???",
    "??? icm:targetResource service:NonMcpttGBRService",
    "nonmcptt:ConvVideo icm:hasParameter ???",
    "??? icm:hasParameter kpi:throughput",
)
PREDICT_KS = (1, 10, 50)
EXPECTED_EXITS = {cli.EXIT_UNRESOLVED_SLOT: "unresolved_slot", cli.EXIT_VERIFICATION_FAILED: "verification_failed"}


class Run:
    """Operations, checks and outcome tallies of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outcomes: Counter = Counter()
        self.tracer = None  # set while a traced set-up or pass runs
        # The current record's stage times and (name, start, end) intervals.
        self.stages: dict[str, float] = {}
        self.intervals: list[tuple[str, float, float]] = []

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation or check; a false ``ok`` is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    @contextmanager
    def stage(self, name: str):
        """Time a stage into the current record and span it when traced."""
        t0 = time.perf_counter()
        with self.span(f"stage.{name}"):
            try:
                yield
            finally:
                self.add_stage(name, t0, time.perf_counter())

    def add_stage(self, name: str, t0: float, t1: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + t1 - t0
        self.intervals.append((name, t0, t1))

    def span(self, name: str):
        tracer = self.tracer
        return tracer.span(name) if tracer is not None else nullcontext()

    def paused(self):
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def request(self, number):
        if self.tracer is not None:
            self.tracer.request = number


def new_record() -> dict:
    """One set-up or pass; ``translate`` and ``verify`` hold the (start, end)
    of each request of that kind."""
    return {"stages": {}, "intervals": [], "translate": [], "verify": [], "requests": 0, "hashes": {},
            "quality": {}}


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def data_text(name: str) -> str:
    return resources.files("ikge").joinpath("data", name).read_text(encoding="utf-8")


def run_cli(run: Run, argv: list[str], expect=(cli.EXIT_OK,)) -> tuple[int, tuple[float, float]]:
    """``ikge <argv>`` in process, output captured; returns (exit, (start, end))."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    t1 = time.perf_counter()
    run.op(rc in expect, f"ikge {argv[0]} exited {rc}: {err.getvalue().strip()[:200]}")
    return rc, (t0, t1)


@contextmanager
def filtered_ranking_timer(run: Run):
    """Time every filtered ``evaluation.evaluate_ranks`` call, wherever it is
    called from (``ikge evaluate`` included), into the current record's
    ``rank_filtered`` stage. One timer per call; nothing else is wrapped."""
    original = evaluation.evaluate_ranks

    def evaluate_ranks(*args, **kwargs):
        if not kwargs.get("filtered", args[3] if len(args) > 3 else False):
            return original(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            run.add_stage("rank_filtered", t0, time.perf_counter())

    evaluation.evaluate_ranks = evaluate_ranks
    try:
        yield
    finally:
        evaluation.evaluate_ranks = original


# -- requests -----------------------------------------------------------------


def make_text(rng: np.random.Generator, keywords: list[str], n_kw: int | None = None) -> str:
    """``n_kw`` (default: 0-3) corpus keywords and 0-8 filler words, shuffled
    together."""
    if n_kw is None:
        n_kw = int(rng.integers(0, MAX_KEYWORDS + 1))
    words = [keywords[i] for i in rng.choice(len(keywords), size=n_kw, replace=False)]
    words += [FILLER[i] for i in rng.integers(0, len(FILLER), int(rng.integers(0, MAX_FILLER + 1)))]
    return " ".join(words[i] for i in rng.permutation(len(words)))


def make_requests(rng: np.random.Generator, n: int, keywords: list[str]) -> list[tuple]:
    """A batch of ``n`` requests in seeded order, with exact shares: 60 %
    translate (0-3 keywords in turn), 25 % verify (half of them swapped) and
    15 % predict (slots and k in turn). The seed draws the texts, the verified
    intents, the swapped slots and the order, not the mix, so that batches of
    different seeds cost about the same."""
    n_translate, n_verify = round(n * TRANSLATE_SHARE), round(n * VERIFY_SHARE)
    n_swapped = round(n_verify * SWAPPED_SHARE)
    out = [("translate", make_text(rng, keywords, i % (MAX_KEYWORDS + 1))) for i in range(n_translate)]
    out += [("verify", int(rng.integers(1 << 30)), i < n_swapped, int(rng.integers(1 << 30)),
             int(rng.integers(1 << 30))) for i in range(n_verify)]
    out += [("predict", i % len(PREDICT_SLOTS), PREDICT_KS[i % len(PREDICT_KS)])
            for i in range(n - n_translate - n_verify)]
    return [out[i] for i in rng.permutation(len(out))]


def corpus_keywords(corpus: pipeline.KeywordCorpus) -> list[str]:
    return sorted(corpus.entries)


def slot_from_text(text: str, graph: rdf.Graph) -> pipeline.Slot:
    """The Slot ``ikge predict --triple`` builds from the same text."""
    header = "".join(f"@prefix {p}: <{iri}> .\n" for p, iri in sorted(graph.prefix_map.items()))
    triple = rdf.parse(header + text + " .").triples[0]
    position = "head" if triple.head.is_placeholder else "tail"
    role = pipeline.ROLE_BY_RELATION.get(triple.relation.text, pipeline.ROLE_SERVICE)
    return pipeline.Slot(triple=triple, slot_id=0, role=role, position=position)


def swap_one(intent: pipeline.NetworkIntent, which: int, pick: int, by_role) -> pipeline.NetworkIntent:
    """A copy of ``intent`` with one completed slot given another entity."""
    i = which % len(intent.resolutions)
    old = intent.resolutions[i]
    pool = by_role[old.role]
    term = pool[pick % len(pool)]
    if term == old.term:
        term = pool[(pick + 1) % len(pool)]
    t = old.triple
    if t.tail == old.term:
        triple = rdf.Triple(t.head, t.relation, term)
    else:
        triple = rdf.Triple(term, t.relation, t.tail)
    resolutions = [dataclasses.replace(r, classified=None) for r in intent.resolutions]
    resolutions[i] = dataclasses.replace(old, term=term, triple=triple, classified=None)
    triples = [triple if x == old.triple else x for x in intent.triples]
    return pipeline.NetworkIntent(intent.intent_id, triples, resolutions, None, dict(intent.prefixes))


class Service:
    """What a warm caller holds: model, IKG, corpus, blueprint.

    ``pool`` holds the intents that verify requests pick from; the caller
    fills it once, so that serving the same batch again does the same work.
    """

    def __init__(self, model: kg2e.Kg2eModel, graph: rdf.Graph, corpus, blueprint):
        self.model = model
        self.graph = graph
        self.corpus = corpus
        self.blueprint = blueprint
        entities = model.vocab.entities
        plain = [e for e in entities if not e.is_literal]
        literals = [e for e in entities if e.is_literal] or plain
        self.by_role = {pipeline.ROLE_SERVICE: plain, pipeline.ROLE_RESOURCE: plain,
                        pipeline.ROLE_VALUE: literals}
        self.slots = [slot_from_text(t, graph) for t in PREDICT_SLOTS]
        self.pool: list[pipeline.NetworkIntent] = []

    def serve(self, run: Run, requests, rec: dict) -> None:
        """Closed loop, one client: each request starts when the last ends."""
        done = []
        for number, req in enumerate(requests):
            kind = req[0]
            intent = None
            if kind == "verify":
                if not self.pool:
                    run.outcomes["verify_skipped"] += 1
                    continue
                intent = self.pool[req[1] % len(self.pool)]
                if req[2]:
                    intent = swap_one(intent, req[3], req[4], self.by_role)
            run.request(number)
            with run.span(f"request.{kind}"):
                t0 = time.perf_counter()
                outcome, result = self._one(kind, req, intent)
                t1 = time.perf_counter()
            rec["requests"] += 1
            run.outcomes[outcome] += 1
            run.op(not outcome.startswith("error:"), f"{kind} request {number}: {outcome}")
            if kind == "translate":
                rec["translate"].append((t0, t1))
                if outcome == "translate_ok":
                    done.append(result)
            elif kind == "verify":
                rec["verify"].append((t0, t1))
                if not req[2]:
                    run.op(result.verified is True, f"untouched intent {result.intent_id} failed to verify")
            elif outcome == "predict_ok":
                scores = [p.score for p in result]
                k = req[2]
                run.op(all(a >= b for a, b in zip(scores, scores[1:])) and 0 < len(scores) <= k,
                       f"predict k={k}: scores not non-increasing or wrong length")
        run.request(None)
        rec.setdefault("translated", []).extend(done)

    def _one(self, kind: str, req, intent):
        try:
            if kind == "translate":
                result = pipeline.translate(req[1], self.model, self.graph, self.corpus, self.blueprint)
                return "translate_ok", result
            if kind == "verify":
                result = pipeline.verify_intent(intent, self.model, self.model.thresholds)
                return ("verify_swapped_" if req[2] else "verify_") + str(result.verified).lower(), result
            result = pipeline.predict_candidates(self.model, self.slots[req[1]], req[2], self.graph)
            return "predict_ok", result
        except pipeline.UnresolvedSlotError:
            return "unresolved_slot", None
        except pipeline.VerificationFailedError:
            return "verification_failed", None
        except Exception as exc:  # noqa: BLE001 - any other error is a failed request
            return f"error:{type(exc).__name__}:{exc}"[:200], None

    def check_translated(self, run: Run, rec: dict) -> None:
        """Every translated intent re-verifies through verify_intent."""
        for intent in rec.pop("translated", []):
            again = pipeline.verify_intent(intent, self.model, self.model.thresholds)
            run.op(again.verified is True, f"translated intent {intent.intent_id} does not re-verify")


# -- rank oracle --------------------------------------------------------------


def _sorted_rank(scores: np.ndarray, true_score: float) -> float:
    """Mean position of the true score's tie block in descending order."""
    asc = np.sort(scores)
    lo = int(np.searchsorted(asc, true_score, "left"))
    hi = int(np.searchsorted(asc, true_score, "right"))
    n = len(asc)
    return ((n - hi + 1) + (n - lo)) / 2.0


def oracle_ranks(model: kg2e.Kg2eModel, test: rdf.Graph, known: rdf.Graph):
    """Raw and filtered ranks, right side then left side per test triple."""
    vocab = model.vocab
    ids = lambda t: (vocab.entity_id(t.head), vocab.relation_id(t.relation), vocab.entity_id(t.tail))
    tails, heads = defaultdict(list), defaultdict(list)
    for t in known.triples:
        h, r, tt = ids(t)
        tails[h, r].append(tt)
        heads[r, tt].append(h)
    raw, filtered = [], []
    for triple in test.triples:
        h, r, t = ids(triple)
        for position, true, others in (("tail", t, tails[h, r]), ("head", h, heads[r, t])):
            scores = kg2e.score_candidates(model, h, r, t, position=position)
            raw.append(_sorted_rank(scores, scores[true]))
            keep = np.ones(len(scores), dtype=bool)
            keep[others] = False
            keep[true] = True
            filtered.append(_sorted_rank(scores[keep], scores[true]))
    return raw, filtered


def aggregate(ranks, hits_at=(1, 3, 10)) -> dict:
    arr = np.array(ranks)
    return {"mean_rank": float(arr.mean()), "hits": {str(p): float((arr <= p).mean()) for p in hits_at}}


def check_ranks(run: Run, model, test, known, raw_doc, filtered_doc, sample_rng) -> None:
    """Library rank metrics against the sort-based oracle, every rank."""
    raw, filtered = oracle_ranks(model, test, known)
    run.op(all(f <= r for f, r in zip(filtered, raw)), "a filtered rank exceeds its raw rank")
    for label, ranks, doc in (("raw", raw, raw_doc), ("filtered", filtered, filtered_doc)):
        want = aggregate(ranks)
        got = {"mean_rank": doc["mean_rank"], "hits": {str(k): v for k, v in doc["hits"].items()}}
        run.op(got == want, f"{label} rank metrics {got} differ from the oracle's {want}")
    for i in sample_rng.choice(len(test), size=min(3, len(test)), replace=False):
        triple = test.triples[int(i)]
        for j, side in ((2 * int(i), evaluation.RIGHT), (2 * int(i) + 1, evaluation.LEFT)):
            for flag, ranks in ((False, raw), (True, filtered)):
                got = evaluation.rank_triple(model, triple, side, known, filtered=flag)
                run.op(got == ranks[j], f"rank_triple({triple}, {side}, filtered={flag}) = {got}, oracle {ranks[j]}")


def check_train_report(run: Run, losses, violations) -> None:
    run.op(all(math.isfinite(x) for x in losses), "non-finite training loss")
    run.op(violations == 0, f"{violations} constraint violations after training")


def check_round_trip(run: Run, model: kg2e.Kg2eModel, loaded: kg2e.Kg2eModel) -> None:
    names = ("entity_means", "entity_covs", "relation_means", "relation_covs")
    same = all(getattr(model, n).tobytes() == getattr(loaded, n).tobytes() for n in names)
    run.op(same and loaded.vocab == model.vocab, "save -> load does not round-trip the arrays bit-identically")


# -- workloads ----------------------------------------------------------------


def gen_args(spec: ikggen.IkgGenSpec) -> list[str]:
    """``ikge gen-ikg`` options for a generator spec."""
    return ["--seed", str(spec.seed), "--services", str(spec.n_services), "--resources", str(spec.n_resources),
            "--kpis", str(spec.n_kpis), "--target", str(spec.target_triples)]


class Workload:
    name = ""
    # Where train_s/evaluate_s are measured: in each pass, or in each set-up.
    model_in_setup = False
    # Segments of a run (see run.py): enough set-ups to take their median,
    # and segments no shorter than a pass.
    segments = 5
    # The percentile of a pass's requests that the *_p99_ms metrics report,
    # fixed per workload and chosen so that a pass holds a few requests
    # beyond it: desk-loop makes 24 translate and up to 24 verify calls a
    # pass, so 2 lie beyond its 90th percentile.
    tail_percentile = 90.0

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.train_positives = 0
        self.epochs = 0
        self.filtered_ranks = 0
        self.checked = False  # the heavy output checks run on the first pass only

    def path(self, name: str) -> str:
        return str(self.work / name)


class DeskLoop(Workload):
    """The CLI loop a user runs, in process, on files in a work directory."""

    name = "desk-loop"

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.spec = ikggen.IkgGenSpec(seed=DESK_IKG_SEED, **(TINY_SPEC if tiny else DESK_SPEC))
        self.gen_args = gen_args(self.spec)
        self.train_args = ["--epochs", "2"] if tiny else []

    def setup(self, run: Run, rec: dict) -> None:
        with run.stage("gen"):
            graph = ikggen.gen_ikg(self.spec)
            self.ikg_text = rdf.serialize(graph)
        with run.stage("parse"):
            parsed = rdf.parse(self.ikg_text)
        run.op(parsed == graph, "serialize -> parse does not round-trip the generated IKG")
        corpus = pipeline.load_corpus(data_text("corpus.tsv"), parsed)
        rng = np.random.default_rng(self.seed)
        keywords = corpus_keywords(corpus)
        # As many texts of each keyword count, and slots and k in turn, so
        # that the seed changes the requests and not their mix.
        self.texts = [make_text(rng, keywords, i % (MAX_KEYWORDS + 1)) for i in range(DESK_TRANSLATES)]
        self.predicts = [(PREDICT_SLOTS[i % len(PREDICT_SLOTS)], PREDICT_KS[i % len(PREDICT_KS)])
                         for i in range(DESK_PREDICTS)]

    def run_pass(self, run: Run, rec: dict) -> None:
        ikg, model, ev = self.path("ikg.ttl"), self.path("model.json"), self.path("eval.json")
        with run.stage("gen"):
            run_cli(run, ["gen-ikg", "--out", ikg, *self.gen_args])
        with run.stage("train"):
            run_cli(run, ["train", "--ikg", ikg, "--out", model, "--report", self.path("train.json"),
                          *self.train_args])
        with run.stage("evaluate"):
            run_cli(run, ["evaluate", "--ikg", ikg, "--model", model, "--out", ev])
        intents = []
        with run.stage("pipeline"):
            for i, text in enumerate(self.texts):
                out = self.path(f"intent{i}.ttl")
                run.request(f"translate{i}")
                with run.span("request.translate"):
                    rc, span = run_cli(run, ["translate", "--model", model, "--ikg", ikg, "--text", text,
                                           "--out", out, "--report", self.path(f"intent{i}.json")],
                                     expect=(cli.EXIT_OK, *EXPECTED_EXITS))
                rec["translate"].append(span)
                rec["requests"] += 1
                run.outcomes[EXPECTED_EXITS.get(rc, "translate_ok" if rc == 0 else f"exit_{rc}")] += 1
                if rc != cli.EXIT_OK:
                    continue
                intents.append(out)
                run.request(f"verify{i}")
                with run.span("request.verify"):
                    # A translated intent must re-verify: any exit but 0 fails.
                    rc, span = run_cli(run, ["verify", "--model", model, "--intent", out,
                                           "--out", self.path(f"verify{i}.json")])
                rec["verify"].append(span)
                rec["requests"] += 1
                run.outcomes["verify_true" if rc == 0 else "verify_false"] += 1
            for i, (triple, k) in enumerate(self.predicts):
                run.request(f"predict{i}")
                with run.span("request.predict"):
                    rc, _ = run_cli(run, ["predict", "--model", model, "--ikg", ikg, "--triple", triple,
                                           "-k", str(k), "--out", self.path(f"predict{i}.json")])
                rec["requests"] += 1
                run.outcomes["predict_ok" if rc == 0 else "predict_failed"] += 1
            run.request(None)
        rec["intents"] = intents

    def check_pass(self, run: Run, rec: dict) -> None:
        ikg, model_path = self.path("ikg.ttl"), self.path("model.json")
        run.op(Path(ikg).read_text(encoding="utf-8") == self.ikg_text,
               "ikge gen-ikg output differs from the library's serialization")
        report = json.loads(Path(self.path("train.json")).read_text())
        ev = json.loads(Path(self.path("eval.json")).read_text())
        check_train_report(run, report["epoch_losses"], report["constraint_violations"])
        intent_hash = hashlib.sha256()
        for path in rec.pop("intents"):
            intent_hash.update(Path(path).read_bytes())
        rec["hashes"] = {"model.json": sha256_file(model_path), "eval.json": sha256_file(self.path("eval.json")),
                         "intent.ttl": intent_hash.hexdigest()}
        for i in range(len(self.predicts)):
            scores = [p["score"] for p in json.loads(Path(self.path(f"predict{i}.json")).read_text())["predictions"]]
            run.op(all(a >= b for a, b in zip(scores, scores[1:])), f"predict{i}: scores not non-increasing")
        filtered = ev["ranks"]["filtered"]
        rec["quality"] = {"filtered_hits10": filtered["hits"]["10"], "accuracy": ev["classification"]["accuracy"],
                          "convergence_epoch": report["convergence_epoch"]}
        self.epochs = report["epochs_run"]
        if self.checked:
            return
        # The heavy checks run once; later passes must reproduce the hashes.
        self.checked = True
        loaded = kg2e.load_model(model_path)
        again = self.path("model.again.json")
        kg2e.save_model(loaded, again)
        run.op(Path(again).read_bytes() == Path(model_path).read_bytes(),
               "load -> save of model.json is not byte-identical")
        check_round_trip(run, loaded, kg2e.load_model(again))
        graph = rdf.parse(Path(ikg).read_text(encoding="utf-8"))
        config = training.TrainConfig.from_document(loaded.train_config)
        split = training.split_dataset(graph, config.split, config.seed)
        self.train_positives = len(split.train)
        self.filtered_ranks = 2 * len(split.test)
        check_ranks(run, loaded, split.test, split.full_graph(), ev["ranks"]["raw"], filtered,
                    np.random.default_rng(self.seed))
        if not self.tiny:
            # The acceptance suite's bounds at the shipped config and desk IKG.
            q = rec["quality"]
            run.op(q["convergence_epoch"] is not None and q["convergence_epoch"] <= 15
                   and q["filtered_hits10"] >= 0.80 and q["accuracy"] >= 0.80,
                   f"quality below the acceptance bounds: {q}")


class IntentRequests(Workload):
    """Warm pipeline requests against one trained desk model."""

    name = "intent-requests"
    model_in_setup = True
    # Each set-up trains and evaluates (train_s is the lower quartile of
    # them) in 2.4 s at the reference speed, up to 7 s of wall time on a
    # loaded host, so 6 of them keep a run of 55 s near 55 s; the passes
    # (60 translates and 25 verifies each) fill the rest.
    segments = 6
    tail_percentile = 95.0  # 60 translates a pass, 3 beyond

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.gen_args = gen_args(ikggen.IkgGenSpec(seed=DESK_IKG_SEED, **(TINY_SPEC if tiny else DESK_SPEC)))
        self.train_args = ["--epochs", "2"] if tiny else []
        self.n_requests = 20 if tiny else BATCH_REQUESTS

    def setup(self, run: Run, rec: dict) -> None:
        ikg, model_path, ev = self.path("ikg.ttl"), self.path("model.json"), self.path("eval.json")
        with run.stage("gen"):
            run_cli(run, ["gen-ikg", "--out", ikg, *self.gen_args])
        with run.stage("train"):
            run_cli(run, ["train", "--ikg", ikg, "--out", model_path, "--report", self.path("train.json"),
                          *self.train_args])
        with run.stage("evaluate"):
            run_cli(run, ["evaluate", "--ikg", ikg, "--model", model_path, "--out", ev])
        with run.stage("serve"):
            model = kg2e.load_model(model_path)
            graph = rdf.parse(Path(ikg).read_text(encoding="utf-8"))
            corpus = pipeline.load_corpus(data_text("corpus.tsv"), graph)
            blueprint = rdf.parse(data_text("blueprint.ttl"))
            self.service = Service(model, graph, corpus, blueprint)
            rng = np.random.default_rng(self.seed)
            keywords = corpus_keywords(corpus)
            warm = [("translate", make_text(rng, keywords)) for _ in range(VERIFY_POOL)]
            self.batch = make_requests(rng, self.n_requests, keywords)
        # The verify pool: intents translated by the served model.
        pool_rec = new_record()
        self.service.serve(run, warm, pool_rec)
        self.service.pool = list(pool_rec.get("translated", []))
        run.op(bool(self.service.pool), "no warm-up text translated, so verify requests have no intents")
        with run.paused():
            self.service.check_translated(run, pool_rec)
        report = json.loads(Path(self.path("train.json")).read_text())
        doc = json.loads(Path(ev).read_text())
        check_train_report(run, report["epoch_losses"], report["constraint_violations"])
        config = training.TrainConfig.from_document(model.train_config)
        with run.paused():
            self.train_positives = len(training.split_dataset(graph, config.split, config.seed).train)
        self.epochs = report["epochs_run"]
        self.filtered_ranks = doc["ranks"]["filtered"]["n_ranks"]
        rec["hashes"] = {"model.json": sha256_file(model_path), "eval.json": sha256_file(ev)}
        rec["quality"] = {"filtered_hits10": doc["ranks"]["filtered"]["hits"]["10"],
                          "accuracy": doc["classification"]["accuracy"],
                          "convergence_epoch": report["convergence_epoch"]}

    def run_pass(self, run: Run, rec: dict) -> None:
        with run.stage("pipeline"):
            self.service.serve(run, self.batch, rec)

    def check_pass(self, run: Run, rec: dict) -> None:
        self.service.check_translated(run, rec)


WORKLOADS = {w.name: w for w in (DeskLoop, IntentRequests)}
