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
    except (TypeError, ValueError) as exc:
        raise CliError("config", f"model file {path} is malformed: {exc}") from exc


def _data_text(name: str) -> str:
    return resources.files("ikge").joinpath("data", name).read_text(encoding="utf-8")


def _train_config(path: str | None, epochs: int | None = None) -> training.TrainConfig:
    doc = {}
    if path:
        try:
            doc = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise CliError("parse", f"config file {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CliError("config", f"config file {path} must hold a JSON object")
    if epochs is not None:
        doc["epochs"] = epochs
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
    config = _train_config(args.config)
    split = training.split_dataset(_load_graph(args.ikg), config.split, config.seed)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("io", f"cannot create {out_dir}: {exc}") from exc
    for name, part in (("train", split.train), ("valid", split.valid), ("test", split.test)):
        _write_text(str(out_dir / f"{name}.ttl"), rdf.serialize(part))
    print(
        f"wrote {out_dir}/: train={len(split.train)}"
        f" valid={len(split.valid)} test={len(split.test)}"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    config = _train_config(args.config, args.epochs)
    model, report = evaluation.fit(_load_graph(args.ikg), config)
    kg2e.save_model(model, args.out)

    doc = {
        "config": config.to_document(),
        "dim": model.dim,
        "score_kind": model.score_kind,
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
    doc = evaluation.evaluate(model, _load_graph(args.ikg))
    _write_json(args.out, doc)
    filtered = doc["ranks"]["filtered"]
    acc = doc["classification"]["accuracy"]
    acc_text = f"{acc:.4f}" if acc is not None else "undefined"
    print(
        f"wrote {args.out}: filtered mean rank {filtered['mean_rank']:.2f}, "
        f"filtered hits@10 {filtered['hits']['10']:.4f}, accuracy {acc_text}"
    )
    return EXIT_OK


def _parse_slot_triple(text: str, graph: rdf.Graph) -> rdf.Triple:
    """The one triple of ``--triple``, read under the IKG's prefixes; a
    ParseError gives its line and column within the argument."""
    header = rdf.serialize(rdf.Graph((), graph.prefix_map))
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
    thresholds = kg2e.require_thresholds(model)
    intent_graph = _load_graph(args.intent)
    for triple in intent_graph.triples:
        if triple.placeholder_count:
            raise CliError("unresolved-slot", f"intent still holds a placeholder: {triple}")

    intent = pipeline.NetworkIntent(args.intent, list(intent_graph.triples), [])
    pipeline.verify_intent(intent, model, thresholds)
    rows = []
    for triple, verdict in zip(intent.triples, intent.verdicts):
        row = {"triple": str(triple)}
        if verdict is None:
            try:  # a skipped triple names its first term outside the vocabulary
                model.vocab.triple_ids(triple)
            except rdf.VocabError as exc:
                row["skipped"] = str(exc)
        else:
            row["score"], row["classified"] = verdict
        rows.append(row)
    n_classified = sum(verdict is not None for verdict in intent.verdicts)
    doc = {
        "verified": intent.verified,
        "n_triples": len(rows),
        "n_classified": n_classified,
        "triples": rows,
    }
    if args.out:
        _write_json(args.out, doc)
    if not intent.verified:
        raise pipeline.VerificationFailedError(intent)
    print(f"verified: all {n_classified} classifiable triples classify as true")
    return EXIT_OK


def _cmd_translate(args) -> int:
    model = _load_model(args.model)
    graph = _load_graph(args.ikg)
    corpus_text = _read_text(args.corpus) if args.corpus else _data_text("corpus.tsv")
    corpus = pipeline.load_corpus(corpus_text, graph)
    blueprint_text = _read_text(args.blueprint) if args.blueprint else _data_text("blueprint.ttl")
    blueprint = rdf.parse(blueprint_text)

    try:
        intent = pipeline.translate(args.text, model, graph, corpus, blueprint, k=args.k)
    except pipeline.VerificationFailedError as exc:
        if args.report:
            _write_json(args.report, {"text": args.text, **exc.intent.report_document()})
        raise
    _write_text(args.out, rdf.serialize(intent.to_graph()))
    if args.report:
        _write_json(args.report, {"text": args.text, **intent.report_document()})
    print(f"wrote {args.out}: verified intent {intent.intent_id}")
    return EXIT_OK


_GEN_DEFAULTS = ikggen.IkgGenSpec()
_REQUIRED = {"required": True}

# Each subcommand's help line, handler and arguments; an argument is its flag
# and the keywords of ``add_argument``.
COMMANDS = {
    "gen-ikg": ("generate the deterministic desk IKG", _cmd_gen_ikg, [
        ("--out", _REQUIRED),
        ("--seed", {"type": int, "default": _GEN_DEFAULTS.seed}),
        ("--services", {"type": int, "default": _GEN_DEFAULTS.n_services}),
        ("--resources", {"type": int, "default": _GEN_DEFAULTS.n_resources}),
        ("--kpis", {"type": int, "default": _GEN_DEFAULTS.n_kpis}),
        ("--target", {"type": int, "default": _GEN_DEFAULTS.target_triples}),
        ("--report", {}),
    ]),
    "split": ("write train/valid/test Turtle files", _cmd_split, [
        ("--ikg", _REQUIRED),
        ("--out-dir", _REQUIRED),
        ("--config", {"help": "JSON training config whose seed and split choose the split"}),
    ]),
    "train": ("train a model and select thresholds", _cmd_train, [
        ("--ikg", _REQUIRED),
        ("--out", _REQUIRED),
        ("--config", {"help": "JSON file with training-config fields"}),
        ("--epochs", {"type": int, "help": "override the config epoch count"}),
        ("--report", {}),
    ]),
    "evaluate": ("rank and classification metrics on the test split", _cmd_evaluate, [
        ("--ikg", _REQUIRED), ("--model", _REQUIRED), ("--out", _REQUIRED),
    ]),
    "predict": ("top-k completions for a ??? triple", _cmd_predict, [
        ("--model", _REQUIRED),
        ("--ikg", _REQUIRED),
        ("--triple", {"required": True, "help": 'e.g. "icm:Target icm:targetResource ???"'}),
        ("-k", {"type": int, "default": 10}),
        ("--out", {}),
    ]),
    "verify": ("classify every triple of an intent file", _cmd_verify, [
        ("--model", _REQUIRED), ("--intent", _REQUIRED), ("--out", {}),
    ]),
    "translate": ("free text to a verified network intent", _cmd_translate, [
        ("--model", _REQUIRED),
        ("--ikg", _REQUIRED),
        ("--text", _REQUIRED),
        ("--corpus", {"help": "keyword corpus TSV (default: shipped corpus)"}),
        ("--blueprint", {"help": "intent blueprint Turtle (default: shipped blueprint)"}),
        ("-k", {"type": int, "default": 10}),
        ("--out", _REQUIRED),
        ("--report", {}),
    ]),
}


def build_parser(commands: dict = COMMANDS) -> argparse.ArgumentParser:
    """The ``ikge`` parser with the ``COMMANDS`` entries given; its usage names them all."""
    parser = argparse.ArgumentParser(
        prog="ikge",
        description="Gaussian knowledge-graph embeddings for intent translation.",
    )
    # Set for a part only: a metavar also renames the argument in errors.
    metavar = None if commands.keys() == COMMANDS.keys() else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, func, arguments) in commands.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    name = argv[0] if argv else None
    # Only the named subcommand's parser is built; ``--help`` or a typo gets all.
    args = build_parser({name: COMMANDS[name]} if name in COMMANDS else COMMANDS).parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - single taxonomy boundary
        category = _categorize(exc)
        print(f"error: {category}: {exc}", file=sys.stderr)
        return _CATEGORY_EXITS[category]


if __name__ == "__main__":
    sys.exit(main())
