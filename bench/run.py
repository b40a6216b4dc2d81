#!/usr/bin/env python3
"""ikge benchmark: one workload at one seed, measured for a fixed time.

    python3 bench/run.py --workload desk-loop --seed 42 --seconds 55 --trace 0

Run from the root of a checkout; the benchmark imports ikge from its
``src/`` and exits with code 2 if that is missing. A run takes about
``--seconds``, set-ups included: a few segments, each of which sets the
workload up (``setup_s`` is the median set-up) and then runs passes to the
segment's end. Times are scaled to a reference CPU speed, against which
``hostspeed.py`` measures the host all through the run. With ``--trace 0``
it reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics, the tracing overhead among them. The last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print every metric by name with its unit. A failed operation or check
makes the exit code 1. A fuller record (environment, sample counts, stage
times, outcome tallies, output hashes) goes to ``.bench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import logging
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# A run is ``wl.segments`` segments that together take --seconds: set-ups
# are part of the measured time. Each segment starts with set-ups (at least
# one, and more while they have taken less than their share of
# SETUP_SECONDS, at most MAX_SETUPS in the run) and then runs passes (at
# least one) while the next pass, as long as the last one, still ends within
# the segment. Spreading set-ups over the run keeps set-up figures from all
# landing in one phase of host interference.
SETUP_SECONDS, MAX_SETUPS = 3.0, 40


def tail(samples, percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) at a nearest-rank ``percentile``."""
    xs = sorted(samples)
    idx = min(max(math.ceil(percentile / 100.0 * len(xs)) - 1, 0), len(xs) - 1)
    return xs[idx], len(xs) - idx - 1


class HintCounter(logging.Handler):
    """Counts the pipeline's hint-conflict warnings instead of printing them."""

    def __init__(self, run):
        super().__init__(logging.WARNING)
        self.run = run

    def emit(self, record):
        self.run.outcomes["hint_conflicts"] += 1
        tracer = self.run.tracer
        if tracer is not None and tracer.active:
            tracer.counts["pipeline.hint_conflicts", tracer.stack[-1]] += 1


def source_digest(*dirs: Path) -> str:
    """sha256 over the files under ``dirs``, names included."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(p for p in top.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else ""

    try:
        if not git("rev-parse", "--show-toplevel") or Path(git("rev-parse", "--show-toplevel")) != ROOT:
            return None
        return git("rev-parse", "HEAD") or None
    except (OSError, subprocess.SubprocessError):
        return None


def measure(wl, run, seconds: float, trace: bool):
    """Set-ups and passes in ``wl.segments`` segments, ``seconds`` in all."""
    import tracing
    from hostspeed import HostSpeed
    from workloads import filtered_ranking_timer, new_record

    tracer = tracing.Tracer() if trace else None
    speed = HostSpeed()

    def timed(fn, rec, phase, traced):
        run.stages, run.intervals = rec["stages"], rec["intervals"]
        root = None
        if traced:
            tracer.phase = phase
            tracer.install()
            run.tracer = tracer
            root = tracer.open(phase)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            fn(run, rec)
        finally:
            rec["t0"], rec["t1"] = t0, time.perf_counter()
            rec["wall"] = rec["t1"] - t0
            rec["cpu"] = time.process_time() - c0
            rec["traced"] = traced
            if traced:
                tracer.close(root)
                tracer.uninstall()
                run.tracer = None

    setups, passes = [], []
    begin = time.perf_counter()
    with filtered_ranking_timer(run), speed:
        for segment in range(1, wl.segments + 1):
            end = begin + seconds * segment / wl.segments
            start, first = time.perf_counter(), len(setups)
            while len(setups) == first or (time.perf_counter() - start < SETUP_SECONDS / wl.segments
                                           and len(setups) < MAX_SETUPS):
                rec = new_record()
                timed(wl.setup, rec, "setup", trace)
                setups.append(rec)
            first, last = len(passes), 0.0
            while len(passes) == first or time.perf_counter() + last < end:
                t0 = time.perf_counter()
                rec = new_record()
                timed(wl.run_pass, rec, "pass", trace and len(passes) % 2 == 1)
                wl.check_pass(run, rec)
                run.op(True, "pass")
                passes.append(rec)
                last = time.perf_counter() - t0
    return setups, passes, tracer, speed


def stage_s(speed, rec, name: str) -> float:
    """A stage's time in one record, at the reference speed."""
    return sum(speed.seconds(t0, t1) for n, t0, t1 in rec["intervals"] if n == name)


def latencies_ms(speed, rec, kind: str) -> list[float]:
    """Every ``kind`` request of a record, in ms at the reference speed."""
    return [speed.seconds(t0, t1) * 1e3 for t0, t1 in rec[kind]]


def lower_quartile(xs) -> float:
    xs = list(xs)
    return statistics.quantiles(xs, n=4, method="inclusive")[0] if len(xs) > 1 else xs[0]


def end_to_end(wl, setups, passes, speed) -> dict:
    """End-to-end metrics from the untraced passes and the set-ups.

    Every time is taken at the reference CPU speed (see ``hostspeed.py``):
    on a shared host the CPU itself slows by up to 2x for minutes at a time,
    which moves wall and CPU time alike. The correction is not exact for
    every kind of code, and what it misses only adds time; so the time of a
    pass, or of a stage over the records that run it (passes, or set-ups
    where the model is built there), is the lower quartile over the run.
    ``setup_s`` is the median set-up. A latency is taken per pass, the
    median or the workload's fixed ``tail_percentile`` of the pass's
    requests of a kind, and is then, too, the lower quartile over the run.
    """
    plain = [p for p in passes if not p["traced"]]
    model_recs = setups if wl.model_in_setup else plain
    stage = lambda name: lower_quartile(stage_s(speed, r, name) for r in model_recs)
    latency = lambda kind, stat: lower_quartile(stat(latencies_ms(speed, p, kind)) for p in plain if p[kind])
    tail_ms = lambda xs: tail(xs, wl.tail_percentile)[0]
    train_s = stage("train")
    quality = model_recs[-1]["quality"]
    return {
        "setup_s": statistics.median(speed.seconds(r["t0"], r["t1"]) for r in setups),
        "loop_s": lower_quartile(speed.seconds(p["t0"], p["t1"]) for p in plain),
        "loop_cpu_s": lower_quartile(speed.scale(p["t0"], p["t1"], p["cpu"]) for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_s": train_s,
        "train_triples_per_s": wl.train_positives * wl.epochs / train_s,
        "evaluate_s": stage("evaluate"),
        "filtered_ranks_per_s": wl.filtered_ranks / stage("rank_filtered"),
        "translate_p50_ms": latency("translate", statistics.median),
        "translate_p99_ms": latency("translate", tail_ms),
        "verify_p50_ms": latency("verify", statistics.median),
        "verify_p99_ms": latency("verify", tail_ms),
        "requests_per_s": statistics.median(p["requests"] for p in plain)
        / lower_quartile(stage_s(speed, p, "pipeline") for p in plain),
        "filtered_hits10": quality["filtered_hits10"],
        "accuracy": quality["accuracy"],
    }


def per_layer(profile, passes, speed) -> dict:
    p = profile
    inc, calls, count = p.inclusive, p.calls, p.count
    requests = sum(n for name, n in calls.items() if name.startswith("request."))
    admissible = count("pipeline.admissible")
    loop = lambda traced: statistics.median(speed.seconds(r["t0"], r["t1"]) for r in passes if r["traced"] == traced)
    return {
        "rdf.parse_s": inc["rdf.parse"],
        "rdf.serialize_s": inc["rdf.serialize"],
        "rdf.vocab_lookups": count("rdf.vocab_lookups"),
        "rdf.vocab_lookups.train": p.by_stage["rdf.vocab_lookups", "train"],
        "rdf.vocab_lookups.evaluate": p.by_stage["rdf.vocab_lookups", "evaluate"],
        "rdf.vocab_lookups.pipeline": p.by_stage["rdf.vocab_lookups", "pipeline"],
        "model.score_candidates_calls": calls["model.score_candidates"],
        "model.score_candidates_s": inc["model.score_candidates"],
        "model.score_calls": calls["model.score"],
        "model.score_s": inc["model.score"],
        "model.apply_constraints_calls": calls["model.apply_constraints"],
        "model.apply_constraints_s": inc["model.apply_constraints"],
        "model.save_s": inc["model.save"],
        "model.load_s": inc["model.load"],
        "training.train_s": inc["training.train"],
        "training.sample_negative_calls": calls["training.sample_negative"],
        "training.sample_negative_s": p.self_s["training.sample_negative"],
        "training.draws_per_negative": p.by_span["rdf.graph_contains", "training.sample_negative"]
        / max(calls["training.sample_negative"], 1e-12),
        "training.forced_accepts": count("training.forced_accepts"),
        "training.split_s": inc["training.split"],
        "training.convergence_epoch": count("training.convergence_epoch") / max(calls["training.train"], 1e-12),
        "evaluation.rank_raw_s": inc["evaluation.rank_raw"],
        "evaluation.rank_filtered_s": inc["evaluation.rank_filtered"],
        "evaluation.filter_overhead_s": inc["evaluation.rank_filtered"] - inc["evaluation.rank_raw"],
        "evaluation.select_thresholds_s": inc["evaluation.select_thresholds"],
        "evaluation.best_threshold_calls": calls["evaluation.best_threshold"],
        "evaluation.best_threshold_s": inc["evaluation.best_threshold"],
        "evaluation.classify_calls": calls["evaluation.classify"],
        "evaluation.classify_s": inc["evaluation.classify"],
        "pipeline.ontology_index_builds": calls["pipeline.ontology_index"] / max(requests, 1e-12),
        "pipeline.ontology_index_s": inc["pipeline.ontology_index"],
        "pipeline.extract_keywords_s": inc["pipeline.extract_keywords"],
        "pipeline.predict_candidates_calls": calls["pipeline.predict_candidates"],
        "pipeline.predict_candidates_s": inc["pipeline.predict_candidates"],
        "pipeline.verify_intent_s": inc["pipeline.verify_intent"],
        "pipeline.admissible_frac": count("pipeline.admissible_true") / admissible if admissible else 0.0,
        "pipeline.hint_conflicts": count("pipeline.hint_conflicts"),
        "ikggen.gen_s": inc["ikggen.gen"],
        "cli.self_s": sum(p.cli_self().values()),
        "trace.overhead_s": loop(True) - loop(False),
    }


def attribution(profile) -> dict:
    """Where the traced time goes, for the claims a reader checks first."""
    top = lambda name: dict(profile.children[name].most_common(4)) if name in profile.children else {}
    evaluate = profile.inclusive["stage.evaluate"]
    return {
        "filter_overhead_share_of_evaluate": (profile.inclusive["evaluation.rank_filtered"]
                                              - profile.inclusive["evaluation.rank_raw"]) / evaluate
        if evaluate else None,
        "children_of_training.train": top("training.train"),
        "children_of_pipeline.translate": top("pipeline.translate"),
        "cli_self_s": profile.cli_self(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny specs, for the smoke test")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "ikge" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no ikge sources under {src} or no {spec_path.name}; "
              "run from the root of an ikge checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    import ikge

    if Path(ikge.__file__).resolve().parent != (src / "ikge").resolve():
        print(f"error: ikge imported from {ikge.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    digest = source_digest(src / "ikge")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    work = OUT / f"work-{stem}-{os.getpid()}"
    work.mkdir()
    run = Run()
    wl = WORKLOADS[args.workload](args.seed, args.tiny, work)
    logger = logging.getLogger("ikge.pipeline")
    handler = HintCounter(run)
    logger.addHandler(handler)
    propagate, logger.propagate = logger.propagate, False
    metrics, detail = {}, {}
    try:
        setups, passes, tracer, speed = measure(wl, run, args.seconds, bool(args.trace))
        records = setups + passes
        distinct = {json.dumps(r["hashes"], sort_keys=True) for r in records if r["hashes"]}
        run.op(len(distinct) <= 1, f"output hashes differ between the passes of one run: {sorted(distinct)}")
        hashes = next((r["hashes"] for r in reversed(records) if r["hashes"]), {})
        # Outputs depend on the program and on the inputs the benchmark makes.
        check_hashes(run, args, wl, hashes, source_digest(src / "ikge", Path(__file__).resolve().parent))
        if args.trace:
            profile = tracing.Profile(tracer, len(setups), sum(p["traced"] for p in passes))
            metrics = per_layer(profile, passes, speed)
            detail["attribution"] = attribution(profile)
            tracer.write(OUT / f"{stem}.spans.json.gz")
        else:
            metrics = end_to_end(wl, setups, passes, speed)
            for kind in ("translate", "verify"):
                counts = [len(p[kind]) for p in passes if not p["traced"]]
                detail[f"{kind}_samples"] = {"per_pass": statistics.median(counts), "passes": len(counts),
                                             "tail_percentile": wl.tail_percentile,
                                             "beyond_tail_per_pass": tail(range(max(counts)), wl.tail_percentile)[1]}
        detail["host_speed"] = speed.summary()

        def brief(r):  # raw wall and stage times, and the same at the reference speed
            return {"wall": r["wall"], "cpu": r["cpu"], "stages": r["stages"], "traced": r["traced"],
                    "wall_at_ref": speed.seconds(r["t0"], r["t1"]),
                    "stages_at_ref": {n: stage_s(speed, r, n) for n in r["stages"]},
                    **{f"{k}_ms": [(t1 - t0) * 1e3 for t0, t1 in r[k]] for k in ("translate", "verify")},
                    **{f"{k}_ms_at_ref": latencies_ms(speed, r, k) for k in ("translate", "verify")}}

        detail["setups"] = [brief(r) for r in setups]
        detail["passes"] = [brief(r) for r in passes]
        detail["stages_median"] = {
            name: statistics.median(r["stages"][name] for r in passes if name in r["stages"])
            for name in sorted({n for r in passes for n in r["stages"]})
        }
        detail["quality"] = next(r["quality"] for r in reversed(records) if r["quality"])
        detail["hashes"] = hashes
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        run.op(False, traceback.format_exc(limit=8))
    finally:
        logger.removeHandler(handler)
        logger.propagate = propagate
        shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units) and not run.failed:
        run.op(False, f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest,
    }
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units.get(name, "?")} for name in metrics},
    }
    detail.update(env=env, outcomes=dict(sorted(run.outcomes.items())), failures=run.failures,
                  failed_frac=run.failed / max(run.attempted, 1), result=result)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True, default=str) + "\n")

    print(f"# ikge benchmark {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} commit={env['git_commit']}")
    for name in metrics:
        print(f"{name:36s} {metrics[name]:14.6g} {units.get(name, '?')}")
    print(f"{'failed_frac':36s} {detail['failed_frac']:14.6g} fraction "
          f"({run.failed} of {run.attempted} operations and checks)")
    print(f"# outcomes: {detail['outcomes']}")
    if "attribution" in detail:
        print(f"# attribution: {json.dumps(detail['attribution'], default=str)}")
    for failure in run.failures:
        print(f"# FAILED: {failure}")
    print(f"# detail: {OUT.name}/{stem}.json")
    print(json.dumps(result))
    return 0 if correct else 1


def check_hashes(run, args, wl, hashes: dict, digest: str) -> None:
    """Runs of the same sources at the same seed must write the same files."""
    if not hashes:
        return
    store = OUT / "hashes.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{digest}:{wl.name}:{args.seed}:{'tiny' if args.tiny else 'full'}"
    if key in known:
        run.op(known[key] == hashes, f"output hashes {hashes} differ from an earlier run's {known[key]}")
    else:
        known[key] = hashes
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, store)


if __name__ == "__main__":
    sys.exit(main())
