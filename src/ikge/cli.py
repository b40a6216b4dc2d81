"""Command-line front end.

Subcommands cover the full loop: ``gen-ikg``, ``split``, ``train``,
``evaluate``, ``predict``, ``verify`` and ``translate``. Failures map to
a fixed error taxonomy, printed as one machine-parsable stderr line
``error: <category>: <message>`` with a category-specific exit code:

    parse=3  vocab=4  train-diverged=5  unresolved-slot=6
    verification-failed=7  io=8  config=9

Outputs are deterministic: identical inputs and seeds produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import evaluation, ikggen, model as kg2e, pipeline, rdf, training

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_VOCAB = 4
EXIT_TRAIN_DIVERGED = 5
EXIT_UNRESOLVED_SLOT = 6
EXIT_VERIFICATION_FAILED = 7
EXIT_IO = 8
EXIT_CONFIG = 9

_CATEGORY_EXITS = {
    "parse": EXIT_PARSE,
    "vocab": EXIT_VOCAB,
    "train-diverged": EXIT_TRAIN_DIVERGED,
    "unresolved-slot": EXIT_UNRESOLVED_SLOT,
    "verification-failed": EXIT_VERIFICATION_FAILED,
    "io": EXIT_IO,
    "config": EXIT_CONFIG,
}


class CliError(Exception):
    """Command-level failure with an explicit taxonomy category."""

    def __init__(self, category: str, message: str):
        if category not in _CATEGORY_EXITS:
            raise ValueError(f"unknown error category {category!r}")
        super().__init__(message)
        self.category = category


def _categorize(exc: Exception) -> str:
    if isinstance(exc, CliError):
        return exc.category
    if isinstance(exc, (rdf.ParseError, rdf.PrefixError, json.JSONDecodeError)):
        return "parse"
    if isinstance(exc, rdf.VocabError):
        return "vocab"
    if isinstance(exc, training.TrainingDivergedError):
        return "train-diverged"
    if isinstance(exc, pipeline.UnresolvedSlotError):
        return "unresolved-slot"
    if isinstance(exc, pipeline.VerificationFailedError):
        return "verification-failed"
    if isinstance(exc, OSError):
        return "io"
    return "config"


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc}") from exc


def _write_json(path: str, doc: dict) -> None:
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str) -> rdf.Graph:
    return rdf.parse(_read_text(path))


def _load_model(path: str) -> kg2e.Kg2eModel:
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError("parse", f"model file {path} is not valid JSON: {exc}") from exc
    try:
        return kg2e.model_from_document(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError("config", f"model file {path} is malformed: {exc}") from exc


def _data_text(name: str) -> str:
    return resources.files("ikge").joinpath("data", name).read_text(encoding="utf-8")


def _fractions(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated fractions")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _train_config(args) -> training.TrainConfig:
    doc = {}
    if args.config:
        try:
            doc = json.loads(_read_text(args.config))
        except json.JSONDecodeError as exc:
            raise CliError("parse", f"config file {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("config", f"config file {args.config} must hold a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.epochs is not None:
        doc["epochs"] = args.epochs
    try:
        return training.TrainConfig.from_document(doc)
    except (TypeError, ValueError) as exc:
        raise CliError("config", str(exc)) from exc


def _cmd_gen_ikg(args) -> int:
    try:
        spec = ikggen.IkgGenSpec(
            seed=args.seed,
            n_services=args.services,
            n_resources=args.resources,
            n_kpis=args.kpis,
            target_triples=args.target,
        )
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    graph = ikggen.gen_ikg(spec)
    _write_text(args.out, rdf.serialize(graph))
    if args.report:
        _write_json(args.report, ikggen.build_report(spec, graph))
    print(f"wrote {args.out}: {len(graph)} triples")
    return EXIT_OK


def _cmd_split(args) -> int:
    graph = _load_graph(args.ikg)
    split = training.split_dataset(graph, args.fractions, args.seed)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("io", f"cannot create {out_dir}: {exc}") from exc
    for name, triples in (
        ("train", split.train),
        ("valid", split.valid),
        ("test", split.test),
    ):
        part = rdf.Graph(triples, graph.prefix_map)
        _write_text(str(out_dir / f"{name}.ttl"), rdf.serialize(part))
    print(
        f"wrote {out_dir}/: train={len(split.train)}"
        f" valid={len(split.valid)} test={len(split.test)}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    graph = _load_graph(args.ikg)
    config = _train_config(args)
    split = training.split_dataset(graph, config.split, config.seed)
    model = kg2e.init_model(
        split.vocab, dim=args.dim, seed=config.seed, score_kind=args.score_kind
    )
    report = training.train(model, split, config)

    negatives = split.sampler.sample_many(split.valid_ids, np.random.default_rng((config.seed, 2)))
    model.thresholds = evaluation.select_thresholds(model, split.valid_ids, negatives)
    model.train_config = config.to_document()
    kg2e.save_model(model, args.out)

    doc = {
        "config": config.to_document(),
        "dim": args.dim,
        "score_kind": args.score_kind,
        **report.to_document(),
    }
    if args.report:
        _write_json(args.report, doc)
    epoch = report.convergence_epoch
    print(
        f"wrote {args.out}: {len(report.epoch_losses)} epochs, "
        f"convergence epoch {epoch if epoch is not None else 'none'}, "
        f"final loss {report.epoch_losses[-1]:.6f}"
    )
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = _load_model(args.model)
    graph = _load_graph(args.ikg)
    if model.train_config is None:
        raise CliError("config", "model carries no training config; cannot re-derive the split")
    try:
        config = training.TrainConfig.from_document(model.train_config)
    except (TypeError, ValueError) as exc:
        raise CliError("config", f"stored training config is malformed: {exc}") from exc
    split = training.split_dataset(graph, config.split, config.seed)
    if split.vocab != model.vocab:
        raise rdf.VocabError("IKG vocabulary does not match the model's vocabulary")
    if model.thresholds is None:
        raise CliError("config", "model carries no thresholds; re-run train")

    test = split.test_ids
    known = np.concatenate((split.train_ids, split.valid_ids, test))
    raw = evaluation.evaluate_ranks(model, test, known, filtered=False)
    filtered = evaluation.evaluate_ranks(model, test, known, filtered=True)
    negatives = split.sampler.sample_many(test, np.random.default_rng((config.seed, 3)))
    classification = evaluation.evaluate_classification(
        model, test, negatives, model.thresholds
    )

    doc = {
        "n_test": len(split.test),
        "seed": config.seed,
        "classification": classification.to_document(),
        "ranks": {"raw": raw.to_document(), "filtered": filtered.to_document()},
    }
    _write_json(args.out, doc)
    acc = classification.accuracy
    acc_text = f"{acc:.4f}" if acc is not None else "undefined"
    print(
        f"wrote {args.out}: filtered mean rank {filtered.mean_rank:.2f}, "
        f"filtered hits@10 {filtered.hits[10]:.4f}, accuracy {acc_text}"
    )
    return EXIT_OK


def _parse_slot_triple(text: str, graph: rdf.Graph) -> rdf.Triple:
    """The one triple of ``--triple``, read under the IKG's prefixes; a
    ParseError gives its line and column within the argument."""
    header = "".join(
        f"@prefix {p}: <{iri}> .\n" for p, iri in sorted(graph.prefix_map.items())
    )
    statement = text.rstrip()
    if not statement.endswith("."):
        statement += " ."
    try:
        parsed = rdf.parse(header + statement)
    except rdf.ParseError as exc:
        # The header is one line per prefix and always parses.
        raise rdf.ParseError(exc.message, exc.line - len(graph.prefix_map), exc.col) from None
    if len(parsed.triples) != 1:
        raise CliError("config", "--triple must contain exactly one statement")
    return parsed.triples[0]


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    graph = _load_graph(args.ikg)
    triple = _parse_slot_triple(args.triple, graph)
    if triple.placeholder_count != 1:
        raise CliError("config", "--triple must contain exactly one ??? placeholder")
    position = "head" if triple.head.is_placeholder else "tail"
    role = pipeline.ROLE_BY_RELATION.get(triple.relation.text, pipeline.ROLE_SERVICE)
    slot = pipeline.Slot(triple=triple, slot_id=0, role=role, position=position)
    if args.k < 1:
        raise CliError("config", "-k must be at least 1")
    predictions = pipeline.predict_candidates(model, slot, args.k, graph)

    doc = {
        "triple": str(triple),
        "position": position,
        "k": args.k,
        "predictions": [
            {"candidate": rdf.term_to_text(p.candidate), "score": p.score, "rank": p.rank}
            for p in predictions
        ],
    }
    if args.out:
        _write_json(args.out, doc)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    if model.thresholds is None:
        raise CliError("config", "model carries no thresholds; re-run train")
    intent_graph = _load_graph(args.intent)
    for triple in intent_graph.triples:
        if triple.placeholder_count:
            raise CliError("unresolved-slot", f"intent still holds a placeholder: {triple}")

    # Blueprint skeleton terms (e.g. the intent node itself) are not model
    # vocabulary; only triples the model can score participate in the verdict.
    rows = []
    failing: list[rdf.Triple] = []
    classified_count = 0
    for triple in intent_graph.triples:
        try:
            h, r, t = model.vocab.triple_ids(triple)
        except rdf.VocabError as exc:
            rows.append({"triple": str(triple), "skipped": str(exc)})
            continue
        score = kg2e.score(model, h, r, t)
        ok = score >= model.thresholds.lookup(r)
        rows.append({"triple": str(triple), "score": score, "classified": ok})
        classified_count += 1
        if not ok:
            failing.append(triple)
    if classified_count == 0:
        raise CliError("config", "intent contains no triples the model can classify")
    verified = not failing
    doc = {
        "verified": verified,
        "n_triples": len(intent_graph.triples),
        "n_classified": classified_count,
        "triples": rows,
    }
    if args.out:
        _write_json(args.out, doc)
    if not verified:
        raise pipeline.VerificationFailedError(
            pipeline.NetworkIntent("intent", list(intent_graph.triples), []), failing
        )
    print(f"verified: all {classified_count} classifiable triples classify as true")
    return EXIT_OK


def _cmd_translate(args) -> int:
    model = _load_model(args.model)
    if model.thresholds is None:
        raise CliError("config", "model carries no thresholds; re-run train")
    graph = _load_graph(args.ikg)
    corpus_text = _read_text(args.corpus) if args.corpus else _data_text("corpus.tsv")
    corpus = pipeline.load_corpus(corpus_text, graph)
    blueprint_text = (
        _read_text(args.blueprint) if args.blueprint else _data_text("blueprint.ttl")
    )
    blueprint = rdf.parse(blueprint_text)

    try:
        intent = pipeline.translate(
            args.text, model, graph, corpus, blueprint, k=args.k
        )
    except pipeline.VerificationFailedError as exc:
        if args.report:
            _write_json(args.report, {"text": args.text, **exc.intent.report_document()})
        raise
    _write_text(args.out, rdf.serialize(intent.to_graph()))
    if args.report:
        _write_json(args.report, {"text": args.text, **intent.report_document()})
    print(f"wrote {args.out}: verified intent {intent.intent_id}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ikge",
        description="Gaussian knowledge-graph embeddings for intent translation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-ikg", help="generate the deterministic desk IKG")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--services", type=int, default=60)
    p.add_argument("--resources", type=int, default=15)
    p.add_argument("--kpis", type=int, default=12)
    p.add_argument("--target", type=int, default=1575)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_gen_ikg)

    p = sub.add_parser("split", help="write train/valid/test Turtle files")
    p.add_argument("--ikg", required=True)
    p.add_argument("--out-dir", required=True)
    # Defaults write the split that train and evaluate derive at the default config.
    p.add_argument("--seed", type=int, default=training.TrainConfig().seed)
    p.add_argument("--fractions", type=_fractions, default=training.TrainConfig().split)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a model and select thresholds")
    p.add_argument("--ikg", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with training-config fields")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--epochs", type=int, help="override the config epoch count")
    p.add_argument("--dim", type=int, default=kg2e.DEFAULT_DIM)
    p.add_argument(
        "--score-kind",
        choices=sorted(kg2e.SCORE_KINDS),
        default=kg2e.KL_DIVERGENCE,
    )
    p.add_argument("--report")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="rank and classification metrics on the test split")
    p.add_argument("--ikg", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="top-k completions for a ??? triple")
    p.add_argument("--model", required=True)
    p.add_argument("--ikg", required=True)
    p.add_argument("--triple", required=True, help='e.g. "icm:Target icm:targetResource ???"')
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="classify every triple of an intent file")
    p.add_argument("--model", required=True)
    p.add_argument("--intent", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("translate", help="free text to a verified network intent")
    p.add_argument("--model", required=True)
    p.add_argument("--ikg", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--corpus", help="keyword corpus TSV (default: shipped corpus)")
    p.add_argument("--blueprint", help="intent blueprint Turtle (default: shipped blueprint)")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_translate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single taxonomy boundary
        category = _categorize(exc)
        print(f"error: {category}: {exc}", file=sys.stderr)
        return _CATEGORY_EXITS[category]


if __name__ == "__main__":
    sys.exit(main())
