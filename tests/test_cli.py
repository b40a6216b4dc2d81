"""CLI behavior: happy paths, error taxonomy, deterministic outputs."""

from __future__ import annotations

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ikge import rdf, training
from ikge.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TRAIN_DIVERGED,
    EXIT_UNRESOLVED_SLOT,
    EXIT_VERIFICATION_FAILED,
    EXIT_VOCAB,
    CliError,
    _categorize,
    _data_text,
    main,
)
from ikge.evaluation import evaluate, fit
from ikge.ikggen import IkgGenSpec, gen_ikg
from ikge.model import PARAMETER_NAMES, load_model, save_model, score
from ikge.pipeline import UnresolvedSlotError, VerificationFailedError, NetworkIntent
from ikge.rdf import ParseError, PrefixError, VocabError, parse
from ikge.training import TrainConfig, TrainingDivergedError, split_dataset

INTENT_PREFIXES = (
    "@prefix icm: <http://intent.example/icm#> .\n"
    "@prefix kpi: <http://intent.example/kpi#> .\n"
    "@prefix nonmcptt: <http://intent.example/service/nonmcptt#> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix service: <http://intent.example/service#> .\n"
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# taxonomy


def test_exit_codes_are_distinct():
    codes = {
        EXIT_PARSE,
        EXIT_VOCAB,
        EXIT_TRAIN_DIVERGED,
        EXIT_UNRESOLVED_SLOT,
        EXIT_VERIFICATION_FAILED,
        EXIT_IO,
        EXIT_CONFIG,
    }
    assert codes == {3, 4, 5, 6, 7, 8, 9}
    assert EXIT_OK == 0


def test_categorize_maps_exception_types():
    assert _categorize(ParseError("x", 1, 1)) == "parse"
    assert _categorize(PrefixError("x")) == "parse"
    assert _categorize(json.JSONDecodeError("x", "doc", 0)) == "parse"
    assert _categorize(VocabError("x")) == "vocab"
    assert _categorize(TrainingDivergedError("x")) == "train-diverged"
    assert _categorize(UnresolvedSlotError(0, "service", 1)) == "unresolved-slot"
    intent = NetworkIntent("intent", [], [])
    assert _categorize(VerificationFailedError(intent)) == "verification-failed"
    assert _categorize(OSError("x")) == "io"
    assert _categorize(RuntimeError("x")) == "config"
    assert _categorize(CliError("io", "x")) == "io"


def test_cli_error_rejects_unknown_category():
    with pytest.raises(ValueError):
        CliError("catastrophe", "x")


def test_stderr_line_format(tmp_path, capsys):
    rc, _, err = run(capsys, ["gen-ikg", "--out", str(tmp_path / "g.ttl"), "--services", "0"])
    assert rc == EXIT_CONFIG
    assert err.startswith("error: config: ")
    assert err.strip().splitlines()[-1] == err.strip()  # single line


# ---------------------------------------------------------------------------
# argument parsing

COMMANDS = ["gen-ikg", "split", "train", "evaluate", "predict", "verify", "translate"]
TOP_USAGE = "usage: ikge [-h] {" + ",".join(COMMANDS) + "} ...\n"


@pytest.fixture
def usage_exit(capsys, monkeypatch):
    """``main(argv)``'s exit code, stdout and stderr for an argv that argparse
    ends; at 80 columns, so that the usage line is not wrapped."""
    monkeypatch.setenv("COLUMNS", "80")

    def run_usage(argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        return info.value.code, captured.out, captured.err

    return run_usage


def test_top_level_help_lists_every_subcommand(usage_exit):
    code, out, _ = usage_exit(["--help"])
    assert code == 0 and out.startswith(TOP_USAGE)
    listed = out.split("positional arguments:", 1)[1]
    assert [name for name in COMMANDS if f"    {name} " in listed] == COMMANDS


def test_subcommand_help_exits_zero(usage_exit):
    code, out, _ = usage_exit(["translate", "--help"])
    assert code == 0 and out.startswith("usage: ikge translate [-h] --model MODEL --ikg IKG")


def test_unknown_subcommand_is_a_usage_error_listing_the_choices(usage_exit):
    code, out, err = usage_exit(["tranlsate", "--model", "m.json"])
    assert code == 2 and out == "" and err.startswith(TOP_USAGE)
    message = err.splitlines()[-1]
    assert message.startswith("ikge: error: argument command: invalid choice: 'tranlsate'")
    choices = message.split("choose from", 1)[1]
    assert all(name in choices for name in COMMANDS)


def test_missing_subcommand_is_a_usage_error(usage_exit):
    code, _, err = usage_exit([])
    assert code == 2
    assert err == TOP_USAGE + "ikge: error: the following arguments are required: command\n"


def test_unrecognized_argument_prints_the_full_usage(usage_exit):
    # The error comes from the top-level parser, whose usage names every
    # subcommand even when only the chosen one was built.
    code, _, err = usage_exit(["verify", "--model", "m.json", "--intent", "i.ttl", "--bogus"])
    assert code == 2
    assert err == TOP_USAGE + "ikge: error: unrecognized arguments: --bogus\n"


def test_main_calls_do_not_share_defaults(tmp_path, capsys, desk_paths):
    out = tmp_path / "p.json"
    argv = ["predict", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
            "--triple", "icm:PropertyExpectation icm:hasTarget ???", "--out", str(out)]
    assert run(capsys, argv + ["-k", "3"])[0] == EXIT_OK
    assert json.loads(out.read_text())["k"] == 3
    assert run(capsys, argv)[0] == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["k"] == 10 and len(doc["predictions"]) == 10


# ---------------------------------------------------------------------------
# gen-ikg


def test_gen_ikg_writes_target_graph(tmp_path, capsys):
    out = tmp_path / "ikg.ttl"
    report = tmp_path / "report.json"
    rc, stdout, _ = run(
        capsys, ["gen-ikg", "--out", str(out), "--report", str(report)]
    )
    assert rc == EXIT_OK
    assert "1575 triples" in stdout
    assert len(parse(out.read_text())) == 1575
    doc = json.loads(report.read_text())
    assert doc["n_triples"] == 1575 and doc["seed"] == 42

    out2 = tmp_path / "again.ttl"
    rc, _, _ = run(capsys, ["gen-ikg", "--out", str(out2)])
    assert rc == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()


def test_gen_ikg_custom_spec(tmp_path, capsys):
    out = tmp_path / "small.ttl"
    rc, stdout, _ = run(
        capsys,
        [
            "gen-ikg", "--out", str(out), "--seed", "7", "--services", "20",
            "--resources", "8", "--kpis", "4", "--target", "350",
        ],
    )
    assert rc == EXIT_OK and "350 triples" in stdout


def test_gen_ikg_infeasible_target(tmp_path, capsys):
    rc, _, err = run(
        capsys, ["gen-ikg", "--out", str(tmp_path / "g.ttl"), "--target", "5"]
    )
    assert rc == EXIT_CONFIG and err.startswith("error: config:")


def test_gen_ikg_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "g.ttl"
    rc, _, err = run(capsys, ["gen-ikg", "--out", str(out), "--seed", "-1"])
    assert rc == EXIT_CONFIG
    assert err == "error: config: seed must be non-negative\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# split


def test_split_writes_partition(tmp_path, capsys, desk_paths, desk_ikg):
    out_dir = tmp_path / "splits"
    rc, stdout, _ = run(
        capsys, ["split", "--ikg", str(desk_paths["ikg"]), "--out-dir", str(out_dir)]
    )
    assert rc == EXIT_OK
    assert "train=1261 valid=157 test=157" in stdout
    parts = {name: parse((out_dir / f"{name}.ttl").read_text()) for name in ("train", "valid", "test")}
    assert len(parts["train"]) == 1261
    assert len(parts["valid"]) == 157
    assert len(parts["test"]) == 157
    union = set(parts["train"]) | set(parts["valid"]) | set(parts["test"])
    assert union == set(desk_ikg.triples)


def test_split_defaults_to_the_split_train_uses(tmp_path, capsys, desk_paths, desk_ikg):
    # Without --config the default config's split; with one, that config's.
    cases = [(None, (1261, 157, 157)), ({"seed": 5, "split": [0.7, 0.2, 0.1]}, (1103, 315, 157))]
    for i, (doc, sizes) in enumerate(cases):
        out_dir = tmp_path / f"splits{i}"
        argv = ["split", "--ikg", str(desk_paths["ikg"]), "--out-dir", str(out_dir)]
        if doc is not None:
            (tmp_path / "c.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp_path / "c.json")]
        rc, _, _ = run(capsys, argv)
        assert rc == EXIT_OK
        config = TrainConfig.from_document(doc or {})
        expected = split_dataset(desk_ikg, config.split, config.seed)
        assert (len(expected.train), len(expected.valid), len(expected.test)) == sizes
        for name in ("train", "valid", "test"):
            written = (out_dir / f"{name}.ttl").read_text(encoding="utf-8")
            assert written == rdf.serialize(getattr(expected, name))


def test_split_rejects_unknown_config_key(tmp_path, capsys, desk_paths):
    config = tmp_path / "c.json"
    config.write_text('{"seed": 5, "fractions": [0.7, 0.2, 0.1]}')
    out_dir = tmp_path / "splits"
    rc, _, err = run(
        capsys,
        ["split", "--ikg", str(desk_paths["ikg"]), "--out-dir", str(out_dir), "--config", str(config)],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: unknown config keys: ['fractions']\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["split", "--out-dir", "{tmp}/o", "--seed", "3"],
        ["split", "--out-dir", "{tmp}/o", "--fractions", "0.7,0.2,0.1"],
        ["train", "--out", "{tmp}/m.json", "--seed", "3"],
    ],
    ids=["split-seed", "split-fractions", "train-seed"],
)
def test_removed_run_setting_options_are_usage_errors(tmp_path, capsys, desk_paths, argv):
    # The seed and the split fractions are set only in the --config file.
    with pytest.raises(SystemExit) as info:
        main([a.format(tmp=tmp_path) for a in argv] + ["--ikg", str(desk_paths["ikg"])])
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[3:])}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_split_missing_input(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        ["split", "--ikg", str(tmp_path / "nope.ttl"), "--out-dir", str(tmp_path / "o")],
    )
    assert rc == EXIT_IO and err.startswith("error: io:")


def test_split_out_dir_under_a_file_is_an_io_error(tmp_path, capsys, desk_paths):
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "splits"
    rc, _, err = run(capsys, ["split", "--ikg", str(desk_paths["ikg"]), "--out-dir", str(out_dir)])
    assert rc == EXIT_IO and err.startswith(f"error: io: cannot create {out_dir}:")


def test_split_out_of_range_escape_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text('@prefix ex: <http://e.example/ns#> .\nex:a ex:r "\\U00110000" .\n')
    rc, _, err = run(capsys, ["split", "--ikg", str(bad), "--out-dir", str(tmp_path / "o")])
    assert rc == EXIT_PARSE
    assert err == "error: parse: line 2, col 11: unicode escape past U+10FFFF in literal\n"


# ---------------------------------------------------------------------------
# train


def test_train_quick_run(tmp_path, capsys, desk_paths):
    out = tmp_path / "m.json"
    report = tmp_path / "r.json"
    rc, stdout, _ = run(
        capsys,
        [
            "train", "--ikg", str(desk_paths["ikg"]), "--out", str(out),
            "--epochs", "2", "--report", str(report),
        ],
    )
    assert rc == EXIT_OK
    assert "2 epochs" in stdout
    model = load_model(out)
    assert model.thresholds is not None
    assert model.train_config["epochs"] == 2
    assert model.train_config["seed"] == 27
    doc = json.loads(report.read_text())
    assert len(doc["epoch_losses"]) == 2
    assert doc["epochs_run"] == 2
    assert doc["config"]["epochs"] == 2
    assert doc["dim"] == 50
    assert doc["score_kind"] == "kl_divergence"

    out2 = tmp_path / "m2.json"
    rc, _, _ = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(out2), "--epochs", "2"],
    )
    assert rc == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()


def test_train_imports_no_more_of_numpy_ma_than_numpy_does(tmp_path):
    # numpy.ma costs a cold `ikge train` about 1.3 MB and 10 ms on numpy 2,
    # where `import numpy` leaves it out; numpy 1.x imports it with numpy.
    ikg = tmp_path / "ikg.ttl"
    spec = IkgGenSpec(n_services=6, n_resources=4, n_kpis=3, target_triples=120)
    ikg.write_text(rdf.serialize(gen_ikg(spec)), encoding="utf-8")
    code = (
        "import sys\n"
        "import numpy\n"
        "ma = lambda: {m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')}\n"
        "before = ma()\n"
        "from ikge.cli import main\n"
        "argv = ['train', '--ikg', sys.argv[1], '--out', sys.argv[2], '--epochs', '2']\n"
        "assert main(argv) == 0, argv\n"
        "print(sorted(ma() - before))\n"
    )
    src = str(Path(rdf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code, str(ikg), str(tmp_path / "m.json")],
        env=env, check=True, timeout=120, capture_output=True, text=True,
    )
    assert done.stdout.splitlines()[-1] == "[]"
    assert load_model(tmp_path / "m.json").train_config["epochs"] == 2


def test_train_and_evaluate_build_one_sampler_each(tmp_path, capsys, monkeypatch, desk_paths):
    # Training and the threshold (or test) negatives share the split's sampler.
    built = []
    init = training.NegativeSampler.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(training.NegativeSampler, "__init__", counting_init)
    model = tmp_path / "m.json"
    rc, _, _ = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(model), "--epochs", "1"],
    )
    assert rc == EXIT_OK and len(built) == 1
    rc, _, _ = run(
        capsys,
        [
            "evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(model),
            "--out", str(tmp_path / "eval.json"),
        ],
    )
    assert rc == EXIT_OK and len(built) == 2


def test_train_and_evaluate_convert_each_triple_once(tmp_path, capsys, monkeypatch, desk_paths):
    # The split's id arrays are the only Term-to-id conversion: every layer
    # that scores reads them.
    calls = []
    triple_ids = rdf.Vocab.triple_ids

    def counting(self, triple):
        calls.append(triple)
        return triple_ids(self, triple)

    monkeypatch.setattr(rdf.Vocab, "triple_ids", counting)
    model = tmp_path / "m.json"
    rc, _, _ = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(model), "--epochs", "1"],
    )
    assert rc == EXIT_OK and len(calls) == 1575
    calls.clear()
    rc, _, _ = run(
        capsys,
        [
            "evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(model),
            "--out", str(tmp_path / "eval.json"),
        ],
    )
    assert rc == EXIT_OK and len(calls) == 1575


def test_train_rejects_unknown_config_key(tmp_path, capsys, desk_paths):
    config = tmp_path / "c.json"
    config.write_text('{"epochs": 2, "momentum": 0.9}')
    rc, _, err = run(
        capsys,
        [
            "train", "--ikg", str(desk_paths["ikg"]), "--out", str(tmp_path / "m.json"),
            "--config", str(config),
        ],
    )
    assert rc == EXIT_CONFIG and "momentum" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"epochs": 2.5}, "epochs must be an integer, not 2.5"),
        ({"batch_size": 8.5}, "batch_size must be an integer, not 8.5"),
        ({"negatives_per_positive": 1.5}, "negatives_per_positive must be an integer, not 1.5"),
        ({"seed": "27"}, "seed must be an integer, not '27'"),
        ({"learning_rate": "0.01"}, "learning_rate must be a number, not '0.01'"),
        ({"epochs": True}, "epochs must be an integer, not True"),
        ({"split": ["0.8", "0.1", "0.1"]}, "split must be three numbers, not ['0.8', '0.1', '0.1']"),
        ({"split": "abc"}, "split must be three numbers, not 'abc'"),
        ({"seed": -1}, "seed must be non-negative"),
        # Python's json reads NaN and Infinity.
        ({"learning_rate": float("nan")}, "learning_rate must be finite"),
        ({"rms_decay": float("-inf")}, "rms_decay must be finite"),
        ({"rms_epsilon": float("inf")}, "rms_epsilon must be finite"),
        ({"margin": float("nan")}, "margin must be finite"),
        ({"learning_rate": 10**400}, "learning_rate lies beyond the float range"),
        ({"rms_decay": -(10**400)}, "rms_decay lies beyond the float range"),
        ({"rms_epsilon": 10**400}, "rms_epsilon lies beyond the float range"),
        ({"margin": 10**400}, "margin lies beyond the float range"),
        ({"split": [0.5, 10**400, 0.5]}, "split lies beyond the float range"),
        # Refused before any array is sized by it.
        ({"negatives_per_positive": 2**63}, "negatives_per_positive must lie in [1, 1024]"),
        ({"negatives_per_positive": 10**400}, "negatives_per_positive must lie in [1, 1024]"),
    ],
    ids=[
        "float-epochs", "float-batch", "float-negatives", "string-seed", "string-rate",
        "bool-epochs", "string-fractions", "string-split", "negative-seed",
        "nan-rate", "minus-inf-decay", "inf-epsilon", "nan-margin",
        "huge-rate", "huge-decay", "huge-epsilon", "huge-margin", "huge-split",
        "long-negatives", "huge-negatives",
    ],
)
def test_train_rejects_wrong_typed_config_fields(tmp_path, capsys, monkeypatch, desk_paths, doc, message):
    # The config is checked before the split is drawn.
    monkeypatch.setattr(training, "split_dataset", None)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "m.json"
    rc, _, err = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(out), "--config", str(config)],
    )
    assert rc == EXIT_CONFIG
    assert err == f"error: config: {message}\n"
    assert not out.exists()


def test_train_refuses_a_split_without_validation_rows_before_training(
    tmp_path, capsys, monkeypatch, desk_paths
):
    # 1575 * 0.0005 rounds down to 0 validation triples: refused before any
    # epoch runs, naming the split.
    trained = []
    monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
    config = tmp_path / "c.json"
    config.write_text('{"split": [0.999, 0.0005, 0.0005]}')
    out = tmp_path / "m.json"
    rc, _, err = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(out), "--config", str(config)],
    )
    assert rc == EXIT_CONFIG
    assert err == (
        "error: config: split [0.999, 0.0005, 0.0005] leaves 1575 training, 0 validation"
        " and 0 test triples of 1575; each part needs at least one\n"
    )
    assert not out.exists() and trained == []


@pytest.mark.parametrize("command, out", [("train", "--out"), ("split", "--out-dir")])
def test_a_split_without_test_rows_exits_config_before_training(
    tmp_path, capsys, monkeypatch, desk_paths, command, out
):
    # 1575 * 0.0005 rounds down to 0 test triples: a model trained on it
    # could never be evaluated, so train refuses it as split does, before any
    # epoch runs.
    trained = []
    monkeypatch.setattr(training, "train", lambda *args: trained.append(args))
    config = tmp_path / "c.json"
    config.write_text('{"split": [0.9, 0.0995, 0.0005], "epochs": 2}')
    rc, _, err = run(
        capsys,
        [command, "--ikg", str(desk_paths["ikg"]), out, str(tmp_path / "o"), "--config", str(config)],
    )
    assert rc == EXIT_CONFIG
    assert err == (
        "error: config: split [0.9, 0.0995, 0.0005] leaves 1419 training, 156 validation"
        " and 0 test triples of 1575; each part needs at least one\n"
    )
    assert not (tmp_path / "o").exists() and trained == []


def test_train_rejects_malformed_config_json(tmp_path, capsys, desk_paths):
    config = tmp_path / "c.json"
    config.write_text("{not json")
    rc, _, err = run(
        capsys,
        [
            "train", "--ikg", str(desk_paths["ikg"]), "--out", str(tmp_path / "m.json"),
            "--config", str(config),
        ],
    )
    assert rc == EXIT_PARSE and err.startswith("error: parse:")


def test_train_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, desk_paths):
    config = tmp_path / "c.json"
    config.write_text("[1,2]")
    argv = ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(tmp_path / "m.json")]
    rc, _, err = run(capsys, [*argv, "--config", str(config)])
    assert rc == EXIT_CONFIG
    assert err == f"error: config: config file {config} must hold a JSON object\n"
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command, out", [("train", "--out"), ("split", "--out-dir")])
@pytest.mark.parametrize("ikg", ["desk", "missing"])
def test_config_is_read_before_the_ikg(tmp_path, capsys, monkeypatch, desk_paths, command, out, ikg):
    # A bad config fails before the IKG is parsed, and wins over a missing IKG.
    parsed = []
    monkeypatch.setattr(rdf, "parse", lambda text: parsed.append(text))
    config = tmp_path / "c.json"
    config.write_text('{"seed": -1}')
    path = desk_paths["ikg"] if ikg == "desk" else tmp_path / "missing.ttl"
    rc, _, err = run(
        capsys,
        [command, "--ikg", str(path), out, str(tmp_path / "o"), "--config", str(config)],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: seed must be non-negative\n"
    assert parsed == [] and not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_desk_model(tmp_path, capsys, desk_paths):
    out = tmp_path / "eval.json"
    rc, stdout, _ = run(
        capsys,
        [
            "evaluate", "--ikg", str(desk_paths["ikg"]),
            "--model", str(desk_paths["model"]), "--out", str(out),
        ],
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n_test"] == 157
    assert doc["seed"] == 27
    assert doc["ranks"]["raw"]["n_ranks"] == 314
    assert doc["ranks"]["filtered"]["n_ranks"] == 314
    assert doc["ranks"]["filtered"]["mean_rank"] <= doc["ranks"]["raw"]["mean_rank"]
    assert 0.0 <= doc["classification"]["accuracy"] <= 1.0
    assert doc["classification"]["tp"] + doc["classification"]["fn"] == 157
    assert "filtered mean rank" in stdout

    out2 = tmp_path / "eval2.json"
    rc, _, _ = run(
        capsys,
        [
            "evaluate", "--ikg", str(desk_paths["ikg"]),
            "--model", str(desk_paths["model"]), "--out", str(out2),
        ],
    )
    assert rc == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()


def test_train_and_evaluate_write_what_the_library_returns(
    tmp_path, capsys, desk_paths, desk_model, desk_ikg
):
    # desk_paths["model"] is save_model(desk_model), and desk_model is fit's.
    model = tmp_path / "m.json"
    rc, _, _ = run(capsys, ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(model)])
    assert rc == EXIT_OK
    assert model.read_bytes() == desk_paths["model"].read_bytes()
    out = tmp_path / "eval.json"
    rc, _, _ = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(model), "--out", str(out)],
    )
    assert rc == EXIT_OK
    doc = evaluate(desk_model, desk_ikg)
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_evaluate_draws_the_split_the_model_was_fitted_on(tmp_path, capsys, desk_paths, desk_ikg):
    # At a non-default config, train writes fit(graph, config) and evaluate
    # writes evaluate(model, graph): the test rows of the config's own split.
    doc = {"seed": 5, "split": [0.7, 0.2, 0.1]}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(doc))
    model_path = tmp_path / "m.json"
    rc, _, _ = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(model_path), "--config", str(config)],
    )
    assert rc == EXIT_OK
    model, _ = fit(desk_ikg, TrainConfig.from_document(doc))
    save_model(model, tmp_path / "fit.json")
    assert model_path.read_bytes() == (tmp_path / "fit.json").read_bytes()
    out = tmp_path / "eval.json"
    rc, _, _ = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(model_path), "--out", str(out)],
    )
    assert rc == EXIT_OK
    expected = evaluate(model, desk_ikg)
    assert out.read_text() == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert expected["seed"] == 5 and expected["n_test"] == 157


def test_evaluate_vocab_mismatch(tmp_path, capsys, desk_paths):
    grown = tmp_path / "grown.ttl"
    grown.write_text(
        desk_paths["ikg"].read_text()
        + "icm:Intent icm:hasExpectation icm:BrandNewNode .\n"
    )
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(grown), "--model", str(desk_paths["model"]),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_VOCAB and err.startswith("error: vocab:")


def test_evaluate_missing_model_file(tmp_path, capsys, desk_paths):
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]),
         "--model", str(tmp_path / "missing.json"), "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_IO


def test_evaluate_out_in_a_missing_directory_is_an_io_error(tmp_path, capsys, desk_paths):
    out = tmp_path / "missing" / "e.json"
    rc, stdout, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(desk_paths["model"]),
         "--out", str(out)],
    )
    assert rc == EXIT_IO and stdout == ""
    assert err.startswith(f"error: io: cannot write {out}:")


def test_evaluate_invalid_model_json(tmp_path, capsys, desk_paths):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_PARSE


def model_argv(command, desk_paths, tmp_path):
    """The arguments besides ``--model`` that take ``command`` to its model load."""
    ikg = str(desk_paths["ikg"])
    return {
        "evaluate": ["--ikg", ikg, "--out", str(tmp_path / "e.json")],
        "predict": ["--ikg", ikg, "--triple", "icm:PropertyExpectation icm:hasTarget ???"],
        "translate": ["--ikg", ikg, "--text", "reliable video", "--out", str(tmp_path / "i.ttl")],
        "verify": ["--intent", ikg],
    }[command]


@pytest.mark.parametrize("command", ["evaluate", "translate", "verify"])
def test_non_finite_model_is_a_config_error(tmp_path, capsys, desk_paths, v1_document, command):
    doc = v1_document(load_model(desk_paths["model"]))
    doc["entity_means"][3][1] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, _, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG
    assert err.startswith(f"error: config: model file {bad} is malformed: entity_means")


def _b64_bytes(array: dict, end: int) -> str:
    return base64.b64encode(base64.b64decode(array["f64le"])[:end]).decode("ascii")


# Each case edits one array of the desk model's format-2 document; the
# second argument sets one entry of it.
V2_ARRAY_DEFECTS = {
    "bad-base64": ("relation_means", lambda a, _: {**a, "f64le": "****" + a["f64le"]},
                   "relation_means f64le is not valid base64"),
    "wrong-shape": ("entity_means", lambda a, _: {**a, "shape": [a["shape"][0], a["shape"][1] - 1]},
                    "entity_means has shape"),
    "negative-shape": ("entity_covs", lambda a, _: {**a, "shape": [-1, a["shape"][1]]},
                       "entity_covs shape [-1, 50] is not two non-negative integers"),
    "bool-shape": ("relation_covs", lambda a, _: {**a, "shape": [a["shape"][0], True]},
                   "relation_covs shape"),
    "truncated": ("entity_means", lambda a, _: {**a, "f64le": _b64_bytes(a, -8)},
                  "entity_means holds"),
    "non-finite": ("entity_means", lambda a, put: put(a, 3, 1, float("nan")),
                   "entity_means holds a non-finite value"),
    "covariance-out-of-range": ("relation_covs", lambda a, put: put(a, 0, 2, 1e3),
                                "relation_covs lies outside [c_min, c_max]"),
}


@pytest.mark.parametrize("command", ["evaluate", "predict", "translate", "verify"])
@pytest.mark.parametrize("case", V2_ARRAY_DEFECTS)
def test_malformed_v2_array_is_a_config_error(
    tmp_path, capsys, desk_paths, set_v2_entry, command, case
):
    name, edit, message = V2_ARRAY_DEFECTS[case]
    doc = json.loads(desk_paths["model"].read_text())
    doc[name] = edit(doc[name], set_v2_entry)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err.startswith(f"error: config: model file {bad} is malformed: {message}")


# Each case edits the format-1 entity_means of the desk model.
V1_ARRAY_DEFECTS = {
    "true": (lambda a: a[0].__setitem__(0, True), "entity_means[0][0] must be a number, not True"),
    "string": (lambda a: a[0].__setitem__(0, "0.5"),
               "entity_means[0][0] must be a number, not '0.5'"),
    "huge-int": (lambda a: a[2].__setitem__(1, 10**400),
                 "entity_means[2][1] lies beyond the float range"),
    "ragged": (lambda a: a[3].pop(), "entity_means must be a list of equal-length lists of numbers"),
    "not-a-list": (lambda a: a.__setitem__(1, 0.5),
                   "entity_means must be a list of equal-length lists of numbers"),
}


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize("case", V1_ARRAY_DEFECTS)
def test_malformed_v1_array_is_a_config_error_naming_it(
    tmp_path, capsys, desk_paths, v1_document, command, case
):
    edit, message = V1_ARRAY_DEFECTS[case]
    doc = v1_document(load_model(desk_paths["model"]))
    edit(doc["entity_means"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: {message}\n"


def test_v1_model_file_writes_the_same_outputs(tmp_path, capsys, desk_paths, v1_document):
    v1 = tmp_path / "v1.json"
    with open(v1, "w", encoding="utf-8") as fh:
        json.dump(v1_document(load_model(desk_paths["model"])), fh, indent=1)
    ikg = str(desk_paths["ikg"])
    for tag, model in (("v2", desk_paths["model"]), ("v1", v1)):
        out = tmp_path / tag
        out.mkdir()
        for argv in (
            ["evaluate", "--ikg", ikg, "--out", str(out / "eval.json")],
            ["translate", "--ikg", ikg, "--text", "reliable video", "--out", str(out / "intent.ttl"),
             "--report", str(out / "intent.json")],
            ["verify", "--intent", str(out / "intent.ttl"), "--out", str(out / "verify.json")],
            ["predict", "--ikg", ikg, "--triple", "icm:PropertyExpectation icm:hasTarget ???",
             "-k", "10", "--out", str(out / "predict.json")],
        ):
            rc, _, _ = run(capsys, [argv[0], "--model", str(model), *argv[1:]])
            assert rc == EXIT_OK, argv
    for name in ("eval.json", "intent.ttl", "intent.json", "verify.json", "predict.json"):
        assert (tmp_path / "v1" / name).read_bytes() == (tmp_path / "v2" / name).read_bytes(), name


@pytest.mark.parametrize("command", ["translate", "verify"])
@pytest.mark.parametrize(
    "key,value,message",
    [
        ("fallback", float("nan"), "thresholds hold a non-finite value"),
        ("0", float("nan"), "thresholds hold a non-finite value"),
        ("999", 0.0, "thresholds name a relation id outside the vocabulary"),
        ("per_relation", [], "thresholds.per_relation must be a JSON object"),
        ("00", 99.0, "thresholds key '00' is not a relation id in canonical form"),
        ("0_1", 0.0, "thresholds key '0_1' is not a relation id in canonical form"),
        (" 1", 0.0, "thresholds key ' 1' is not a relation id in canonical form"),
        ("+1", 0.0, "thresholds key '+1' is not a relation id in canonical form"),
        ("abc", 0.0, "thresholds key 'abc' is not a relation id in canonical form"),
        ("1.5", 0.0, "thresholds key '1.5' is not a relation id in canonical form"),
        (None, [], "thresholds must be a JSON object or null"),
        (None, "x", "thresholds must be a JSON object or null"),
        ("fallback", 10**400, "thresholds.fallback lies beyond the float range"),
        ("0", -(10**400), "thresholds.per_relation['0'] lies beyond the float range"),
    ],
    ids=[
        "nan-fallback", "nan-relation", "unknown-relation", "list-per-relation",
        "leading-zero", "underscore", "space", "plus", "letters", "decimal",
        "list-thresholds", "string-thresholds", "huge-fallback", "huge-relation",
    ],
)
def test_bad_thresholds_are_a_config_error(
    tmp_path, capsys, desk_paths, command, key, value, message
):
    ikg = str(desk_paths["ikg"])
    intent = tmp_path / "intent.ttl"
    translate = ["--ikg", ikg, "--text", "reliable video", "--out", str(intent)]
    rc, _, _ = run(capsys, ["translate", "--model", str(desk_paths["model"]), *translate])
    assert rc == EXIT_OK
    argv = {"translate": translate, "verify": ["--intent", str(intent)]}[command]
    rc, _, _ = run(capsys, [command, "--model", str(desk_paths["model"]), *argv])
    assert rc == EXIT_OK
    doc = json.loads(desk_paths["model"].read_text())
    thresholds = doc["thresholds"]
    if key is None:  # the whole table
        doc["thresholds"] = value
    elif key in thresholds:
        thresholds[key] = value
    else:
        thresholds["per_relation"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG
    assert err.startswith(f"error: config: model file {bad} is malformed: {message}")


@pytest.mark.parametrize("command", ["evaluate", "predict", "translate", "verify"])
@pytest.mark.parametrize(
    "repeat",
    [None, ("entities", 5, 4), ("relations", 2, 0)],
    ids=["non-object", "repeated-entity", "repeated-relation"],
)
def test_malformed_model_is_a_config_error(tmp_path, capsys, desk_paths, command, repeat):
    if repeat is None:
        doc, message = [], "the document must hold a JSON object"
    else:
        table, at, original = repeat
        doc = json.loads(desk_paths["model"].read_text())
        doc[table][at] = doc[table][original]
        message = f"vocabulary repeats the term {doc[table][original]}"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, _, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG
    assert err == f"error: config: model file {bad} is malformed: {message}\n"


@pytest.mark.parametrize("field", ["dim", "entity_covs", "thresholds.per_relation"])
def test_model_missing_a_field_is_a_config_error_naming_it(tmp_path, capsys, desk_paths, field):
    doc = json.loads(desk_paths["model"].read_text())
    *parents, key = field.split(".")
    del (doc[parents[0]] if parents else doc)[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv("evaluate", desk_paths, tmp_path)
    rc, stdout, err = run(capsys, ["evaluate", "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: {field} is missing\n"


@pytest.mark.parametrize("command", ["evaluate", "predict", "translate", "verify"])
@pytest.mark.parametrize(
    "token, message",
    [
        ("nonmcptt:Stream Video", "not one term token: 'nonmcptt:Stream Video'"),
        ('"x"^^"y"', """not one term token: '"x"^^"y"'"""),
        ("???", "placeholder token carries no slot id in isolation"),
    ],
    ids=["space", "string-datatype", "placeholder"],
)
def test_vocabulary_term_that_is_not_one_token_is_a_malformed_model(
    tmp_path, capsys, desk_paths, command, token, message
):
    doc = json.loads(desk_paths["model"].read_text())
    doc["entities"][5] = token
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: {message}\n"


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["thresholds"]["per_relation"].update({"3": " 1e3 "}),
         "thresholds.per_relation['3'] must be a number, not ' 1e3 '"),
        (lambda d: d["thresholds"]["per_relation"].update({"3": "0.5"}),
         "thresholds.per_relation['3'] must be a number, not '0.5'"),
        (lambda d: d["thresholds"].update(fallback=False),
         "thresholds.fallback must be a number, not False"),
        (lambda d: d.update(c_max="5.0"), "c_max must be a number, not '5.0'"),
        (lambda d: d.update(dim=50.0), "dim must be an integer, not 50.0"),
        (lambda d: d.update(entities=[1, 2]), "entities must be a list of term strings"),
    ],
    ids=["padded-threshold", "string-threshold", "bool-fallback", "string-c-max", "float-dim",
         "int-entities"],
)
@pytest.mark.parametrize("version", [1, 2])
def test_wrong_typed_model_field_is_a_config_error(
    tmp_path, capsys, desk_paths, v1_document, command, edit, message, version
):
    model = load_model(desk_paths["model"])
    doc = v1_document(model) if version == 1 else json.loads(desk_paths["model"].read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: {message}\n"


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize("version", [1, 2])
def test_zero_dim_model_is_a_config_error(
    tmp_path, capsys, desk_paths, v1_document, command, version
):
    # Arrays of shape [n, 0] score every triple -0.0, which every threshold
    # table would pass; a model of dim below 1 is refused on load.
    model = load_model(desk_paths["model"])
    doc = v1_document(model) if version == 1 else json.loads(desk_paths["model"].read_text())
    for name in PARAMETER_NAMES:
        n = len(getattr(model, name))
        doc[name] = [[]] * n if version == 1 else {"shape": [n, 0], "f64le": ""}
    doc["dim"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: dim must be at least 1\n"


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("dim", [0, -1])
def test_dim_below_one_is_named_whatever_the_stored_arrays(
    tmp_path, capsys, desk_paths, v1_document, version, dim
):
    # The arrays keep their (n, 50) shapes; format 2 names dim, as format 1
    # does, not the first array whose shape disagrees with it.
    model = load_model(desk_paths["model"])
    doc = v1_document(model) if version == 1 else json.loads(desk_paths["model"].read_text())
    doc["dim"] = dim
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv("verify", desk_paths, tmp_path)
    rc, stdout, err = run(capsys, ["verify", "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: dim must be at least 1\n"


@pytest.mark.parametrize("command", ["evaluate", "translate", "verify"])
def test_model_without_thresholds_is_a_config_error(tmp_path, capsys, desk_paths, command):
    doc = json.loads(desk_paths["model"].read_text())
    doc["thresholds"] = None
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, _, err = run(capsys, [command, "--model", str(bare), *argv])
    assert rc == EXIT_CONFIG
    assert err == "error: config: model carries no thresholds; re-run train\n"
    assert not (tmp_path / "e.json").exists() and not (tmp_path / "i.ttl").exists()


@pytest.mark.parametrize("value", ["x", [], 3], ids=["string", "list", "number"])
def test_non_object_train_config_is_a_malformed_model(tmp_path, capsys, desk_paths, value):
    doc = json.loads(desk_paths["model"].read_text())
    doc["train_config"] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_CONFIG
    assert err == (
        f"error: config: model file {bad} is malformed: train_config must be a JSON object or null\n"
    )


def test_null_train_config_cannot_re_derive_the_split(tmp_path, capsys, desk_paths):
    doc = json.loads(desk_paths["model"].read_text())
    doc["train_config"] = None
    bad = tmp_path / "bare.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: model carries no training config; cannot re-derive the split\n"


def test_negative_stored_seed_is_a_malformed_training_config(tmp_path, capsys, desk_paths):
    doc = json.loads(desk_paths["model"].read_text())
    doc["train_config"]["seed"] = -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "e.json"
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad), "--out", str(out)],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: stored training config is malformed: seed must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "value, problem",
    [(float("nan"), "must be finite"), (10**400, "lies beyond the float range")],
    ids=["nan", "huge-int"],
)
@pytest.mark.parametrize("name", ["learning_rate", "margin"])
def test_non_finite_stored_config_number_is_a_malformed_training_config(
    tmp_path, capsys, desk_paths, name, value, problem
):
    doc = json.loads(desk_paths["model"].read_text())
    doc["train_config"][name] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "e.json"
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad), "--out", str(out)],
    )
    assert rc == EXIT_CONFIG
    assert err == f"error: config: stored training config is malformed: {name} {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize(
    "bound, value",
    [("c_min", 10**400), ("c_max", 10**400), ("c_max", -(10**400))],
    ids=["c-min", "c-max", "minus-c-max"],
)
def test_covariance_bound_beyond_the_float_range_is_a_config_error(
    tmp_path, capsys, desk_paths, command, bound, value
):
    doc = json.loads(desk_paths["model"].read_text())
    doc[bound] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == f"error: config: model file {bad} is malformed: {bound} lies beyond the float range\n"


@pytest.mark.parametrize("command", ["evaluate", "verify"])
@pytest.mark.parametrize(
    "bound, value", [("c_max", float("inf")), ("c_max", float("nan")), ("c_min", float("nan"))]
)
def test_non_finite_covariance_bound_is_a_config_error(
    tmp_path, capsys, desk_paths, command, bound, value
):
    doc = json.loads(desk_paths["model"].read_text())
    doc[bound] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    argv = model_argv(command, desk_paths, tmp_path)
    rc, stdout, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == (
        f"error: config: model file {bad} is malformed: "
        "covariance bounds must be finite and satisfy 0 < c_min < c_max\n"
    )


def test_evaluate_malformed_ikg(tmp_path, capsys, desk_paths):
    bad = tmp_path / "bad.ttl"
    bad.write_text("this is not turtle %%%\n")
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(bad), "--model", str(desk_paths["model"]),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_PARSE and err.startswith("error: parse:")


# ---------------------------------------------------------------------------
# predict


def test_predict_stdout_json(capsys, desk_paths):
    rc, stdout, _ = run(
        capsys,
        [
            "predict", "--model", str(desk_paths["model"]),
            "--ikg", str(desk_paths["ikg"]),
            "--triple", "icm:PropertyExpectation icm:hasTarget ???",
            "-k", "5",
        ],
    )
    assert rc == EXIT_OK
    doc = json.loads(stdout)
    assert doc["position"] == "tail"
    assert [p["rank"] for p in doc["predictions"]] == [1, 2, 3, 4, 5]
    scores = [p["score"] for p in doc["predictions"]]
    assert scores == sorted(scores, reverse=True)


def test_predict_writes_file(tmp_path, capsys, desk_paths):
    out = tmp_path / "pred.json"
    rc, stdout, _ = run(
        capsys,
        [
            "predict", "--model", str(desk_paths["model"]),
            "--ikg", str(desk_paths["ikg"]),
            "--triple", "kpi:latency icm:valueBy ???",
            "-k", "3", "--out", str(out),
        ],
    )
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["predictions"]) == 3
    assert all(p["candidate"].startswith('"') for p in doc["predictions"])


@pytest.mark.parametrize(
    "triple",
    [
        "??? icm:hasTarget ???",
        "icm:PropertyExpectation icm:hasTarget icm:Target",
    ],
)
def test_predict_requires_exactly_one_placeholder(capsys, desk_paths, triple):
    rc, _, err = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]),
         "--ikg", str(desk_paths["ikg"]), "--triple", triple],
    )
    assert rc == EXIT_CONFIG and "placeholder" in err


@pytest.mark.parametrize(
    "triple, position",
    [
        ('icm:Target icm:targetResource "\\q"', "line 1, col 31: unsupported escape"),
        ('\n  icm:Target icm:targetResource "\\q"', "line 2, col 33: unsupported escape"),
        ("zz:Target icm:targetResource ???", "line 1, col 1: unresolved prefix 'zz:'"),
        ("icm:Target icm:targetResource", "line 1, col 31: expected an IRI, got '.'"),
    ],
)
def test_predict_triple_errors_are_placed_within_the_argument(capsys, desk_paths, triple, position):
    rc, _, err = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]),
         "--ikg", str(desk_paths["ikg"]), "--triple", triple],
    )
    assert rc == EXIT_PARSE and err.startswith(f"error: parse: {position}")


def test_predict_triple_with_two_statements_is_a_config_error(capsys, desk_paths):
    triple = "icm:PropertyExpectation icm:hasTarget ??? . kpi:latency icm:valueBy ???"
    rc, stdout, err = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
         "--triple", triple],
    )
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == "error: config: --triple must contain exactly one statement\n"


def test_predict_head_value_slot_proposes_no_literals(capsys, desk_paths):
    # A literal is never a subject, so a value slot in head position draws
    # from the non-literal entities, not from the relation's literal tails.
    rc, stdout, _ = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]),
         "--ikg", str(desk_paths["ikg"]),
         "--triple", '??? icm:valueBy "150ms"^^xsd:string', "-k", "3"],
    )
    assert rc == EXIT_OK
    doc = json.loads(stdout)
    assert doc["position"] == "head"
    assert len(doc["predictions"]) == 3
    assert not any(p["candidate"].startswith('"') for p in doc["predictions"])


def test_predict_rejects_bad_k(capsys, desk_paths):
    # predict and translate share pipeline.predict_candidates' message.
    rc, _, err = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]),
         "--ikg", str(desk_paths["ikg"]),
         "--triple", "icm:PropertyExpectation icm:hasTarget ???", "-k", "0"],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: k must be at least 1\n"


def test_translate_rejects_bad_k(tmp_path, capsys, desk_paths):
    out = tmp_path / "i.ttl"
    rc, _, err = run(
        capsys,
        ["translate", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
         "--text", "reliable video", "-k", "0", "--out", str(out)],
    )
    assert rc == EXIT_CONFIG
    assert err == "error: config: k must be at least 1\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# translate and verify


def test_translate_then_verify_chain(tmp_path, capsys, desk_paths):
    intent_path = tmp_path / "intent.ttl"
    report_path = tmp_path / "report.json"
    rc, stdout, _ = run(
        capsys,
        [
            "translate", "--model", str(desk_paths["model"]),
            "--ikg", str(desk_paths["ikg"]),
            "--text", "reliable video",
            "--out", str(intent_path), "--report", str(report_path),
        ],
    )
    assert rc == EXIT_OK
    assert "verified intent intent-reliable-video" in stdout
    report = json.loads(report_path.read_text())
    assert report["verified"] is True
    assert report["text"] == "reliable video"
    assert len(report["slots"]) == 3
    assert report["slots"][0]["term"] == "nonmcptt:StreamVideo"
    intent_graph = parse(intent_path.read_text())
    assert len(intent_graph) == 5

    verify_out = tmp_path / "verify.json"
    rc, stdout, _ = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]),
         "--intent", str(intent_path), "--out", str(verify_out)],
    )
    assert rc == EXIT_OK
    assert "all 3 classifiable triples" in stdout
    doc = json.loads(verify_out.read_text())
    assert doc["verified"] is True
    assert doc["n_triples"] == 5
    assert doc["n_classified"] == 3
    skipped = [row for row in doc["triples"] if "skipped" in row]
    assert len(skipped) == 2  # instance-level scaffolding is not scoreable
    classified = [row for row in doc["triples"] if "classified" in row]
    assert all(row["classified"] for row in classified)


def test_translate_corpus_with_an_empty_keyword_is_a_parse_error(tmp_path, capsys, desk_paths):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("video\tservice\tservice:VideoService\n \tservice\tservice:VideoService\n")
    out = tmp_path / "i.ttl"
    rc, stdout, err = run(
        capsys,
        ["translate", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
         "--corpus", str(corpus), "--text", "reliable video", "--out", str(out)],
    )
    assert rc == EXIT_PARSE and stdout == "" and not out.exists()
    assert err == "error: parse: line 2, col 1: empty keyword\n"


def test_translate_on_an_ikg_with_a_placeholder_is_a_vocab_error(tmp_path, capsys, desk_paths):
    ikg = tmp_path / "ikg.ttl"
    ikg.write_text(desk_paths["ikg"].read_text() + "icm:Intent icm:hasTarget ??? .\n")
    out = tmp_path / "i.ttl"
    rc, stdout, err = run(
        capsys,
        ["translate", "--model", str(desk_paths["model"]), "--ikg", str(ikg),
         "--text", "reliable video", "--out", str(out)],
    )
    assert rc == EXIT_VOCAB and stdout == "" and not out.exists()
    assert err == "error: vocab: placeholder term in graph; vocabulary needs a complete graph\n"


def test_translate_deterministic(tmp_path, capsys, desk_paths):
    a = tmp_path / "a.ttl"
    b = tmp_path / "b.ttl"
    for path in (a, b):
        rc, _, _ = run(
            capsys,
            ["translate", "--model", str(desk_paths["model"]),
             "--ikg", str(desk_paths["ikg"]), "--text", "reliable video",
             "--out", str(path)],
        )
        assert rc == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_translate_verification_failure(tmp_path, capsys, desk_paths):
    doc = json.loads(desk_paths["model"].read_text())
    doc["thresholds"]["per_relation"] = {
        k: 1e9 for k in doc["thresholds"]["per_relation"]
    }
    doc["thresholds"]["fallback"] = 1e9
    strict = tmp_path / "strict.json"
    strict.write_text(json.dumps(doc))

    report_path = tmp_path / "report.json"
    rc, _, err = run(
        capsys,
        ["translate", "--model", str(strict), "--ikg", str(desk_paths["ikg"]),
         "--text", "reliable video", "--out", str(tmp_path / "i.ttl"),
         "--report", str(report_path)],
    )
    assert rc == EXIT_VERIFICATION_FAILED
    assert err.startswith("error: verification-failed:")
    report = json.loads(report_path.read_text())
    assert report["verified"] is False
    assert not (tmp_path / "i.ttl").exists()  # no unverified intent emitted


FALSE_TRIPLE = "kpi:latency icm:hasParameter icm:Intent ."  # in the vocabulary, classifies false
TRUE_TRIPLE = "icm:Intent icm:hasExpectation icm:Expectation ."  # of the desk IKG, classifies true


def _translate_blueprint(capsys, desk_paths, tmp_path, blueprint_text):
    blueprint = tmp_path / "blueprint.ttl"
    blueprint.write_text(blueprint_text)
    return run(
        capsys,
        ["translate", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
         "--text", "reliable video", "--blueprint", str(blueprint),
         "--out", str(tmp_path / "i.ttl"), "--report", str(tmp_path / "report.json")],
    )


def test_translate_judges_a_complete_triple_that_classifies_false(tmp_path, capsys, desk_paths):
    rc, stdout, err = _translate_blueprint(
        capsys, desk_paths, tmp_path, _data_text("blueprint.ttl") + FALSE_TRIPLE + "\n"
    )
    assert rc == EXIT_VERIFICATION_FAILED and stdout == ""
    assert err == (
        "error: verification-failed: intent 'intent-reliable-video' failed verification:"
        f" {FALSE_TRIPLE}\n"
    )
    assert json.loads((tmp_path / "report.json").read_text())["verified"] is False
    assert not (tmp_path / "i.ttl").exists()


def test_translate_and_verify_judge_a_complete_triple_that_classifies_true(
    tmp_path, capsys, desk_paths
):
    rc, _, _ = _translate_blueprint(
        capsys, desk_paths, tmp_path, _data_text("blueprint.ttl") + TRUE_TRIPLE + "\n"
    )
    assert rc == EXIT_OK
    out = tmp_path / "verify.json"
    rc, stdout, _ = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]),
         "--intent", str(tmp_path / "i.ttl"), "--out", str(out)],
    )
    assert rc == EXIT_OK and "all 4 classifiable triples" in stdout
    rows = {row["triple"]: row for row in json.loads(out.read_text())["triples"]}
    assert rows[TRUE_TRIPLE]["classified"] is True


def test_translate_refuses_an_intent_with_no_triple_to_judge(tmp_path, capsys, desk_paths):
    rc, stdout, err = _translate_blueprint(
        capsys, desk_paths, tmp_path,
        INTENT_PREFIXES + "icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .\n",
    )
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == "error: config: intent contains no triples the model can classify\n"
    assert not (tmp_path / "i.ttl").exists() and not (tmp_path / "report.json").exists()


def test_translate_refuses_a_blueprint_that_rebinds_an_ikg_prefix(tmp_path, capsys, desk_paths):
    blueprint = _data_text("blueprint.ttl").replace(
        "<http://intent.example/icm#>", "<http://other.example/icm#>"
    )
    rc, stdout, err = _translate_blueprint(capsys, desk_paths, tmp_path, blueprint)
    assert rc == EXIT_CONFIG and stdout == ""
    assert err == (
        "error: config: blueprint binds prefix 'icm:' to <http://other.example/icm#>,"
        " the IKG to <http://intent.example/icm#>\n"
    )
    assert not (tmp_path / "i.ttl").exists() and not (tmp_path / "report.json").exists()


def test_translate_head_value_slot_is_unresolved(tmp_path, capsys, desk_paths):
    # No literal is proposed for a subject, and no non-literal is an
    # admissible value, so the slot stays unresolved.
    blueprint = tmp_path / "blueprint.ttl"
    blueprint.write_text(
        "@prefix icm: <http://intent.example/icm#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        '??? icm:valueBy "150ms"^^xsd:string .\n'
    )
    rc, _, err = run(
        capsys,
        ["translate", "--model", str(desk_paths["model"]), "--ikg", str(desk_paths["ikg"]),
         "--text", "reliable video", "--blueprint", str(blueprint),
         "--out", str(tmp_path / "i.ttl")],
    )
    assert rc == EXIT_UNRESOLVED_SLOT
    assert err.startswith("error: unresolved-slot: slot 0 (value)")
    assert not (tmp_path / "i.ttl").exists()


def test_verify_rejects_false_triples(tmp_path, capsys, desk_paths):
    intent = tmp_path / "bad.ttl"
    intent.write_text(
        INTENT_PREFIXES
        + "icm:Intent icm:hasTarget kpi:latency .\n"
        + "kpi:latency icm:hasParameter icm:Intent .\n"
        + "nonmcptt:ConvVideo rdfs:subclass icm:Intent .\n"
        + "service:GbrResource00 icm:targetResource nonmcptt:ConvVideo .\n"
    )
    out = tmp_path / "verify.json"
    rc, _, err = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]),
         "--intent", str(intent), "--out", str(out)],
    )
    assert rc == EXIT_VERIFICATION_FAILED
    assert err == (
        f"error: verification-failed: intent {str(intent)!r} failed verification:"
        " icm:Intent icm:hasTarget kpi:latency .;"
        " kpi:latency icm:hasParameter icm:Intent .;"
        " nonmcptt:ConvVideo rdfs:subclass icm:Intent .;"
        " service:GbrResource00 icm:targetResource nonmcptt:ConvVideo .\n"
    )
    doc = json.loads(out.read_text())
    assert doc["verified"] is False
    assert doc["n_classified"] == 4
    assert all(row["classified"] is False for row in doc["triples"])


def test_verify_rows_keep_file_order_and_scalar_scores(tmp_path, capsys, desk_paths):
    intent = tmp_path / "mixed.ttl"
    intent.write_text(
        INTENT_PREFIXES
        + "icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .\n"
        + "icm:Intent icm:hasTarget kpi:latency .\n"
        + "nonmcptt:ConvVideo icm:targetResource service:NonGBRService .\n"
        + "icm:ServiceExpectation icm:hasTarget nonmcptt:ConvVideo .\n"
        + "kpi:latency icm:hasParameter icm:Intent .\n"
    )
    out = tmp_path / "verify.json"
    rc, _, _ = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]),
         "--intent", str(intent), "--out", str(out)],
    )
    doc = json.loads(out.read_text())
    triples = parse(intent.read_text()).triples
    rows = doc["triples"]
    assert [row["triple"] for row in rows] == [str(t) for t in triples]
    assert ["skipped" in row for row in rows] == [True, False, False, True, False]
    model = load_model(desk_paths["model"])
    for row, triple in zip(rows, triples):
        if "skipped" in row:
            continue
        h, r, t = model.vocab.triple_ids(triple)
        want = score(model, h, r, t)
        assert row["score"].hex() == want.hex()  # bit for bit, after the JSON round trip
        assert row["classified"] is (want >= model.thresholds.lookup(r))
    assert doc["verified"] is all(row.get("classified", True) for row in rows)
    assert rc == (EXIT_OK if doc["verified"] else EXIT_VERIFICATION_FAILED)


def test_verify_rejects_placeholder_intent(tmp_path, capsys, desk_paths):
    intent = tmp_path / "holes.ttl"
    intent.write_text(INTENT_PREFIXES + "icm:PropertyExpectation icm:hasTarget ??? .\n")
    rc, _, err = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]), "--intent", str(intent)],
    )
    assert rc == EXIT_UNRESOLVED_SLOT
    assert err == (
        "error: unresolved-slot: intent still holds a placeholder:"
        " icm:PropertyExpectation icm:hasTarget ??? .\n"
    )


def test_verify_needs_classifiable_triples(tmp_path, capsys, desk_paths):
    intent = tmp_path / "scaffold.ttl"
    intent.write_text(
        INTENT_PREFIXES + "icm:ServiceIntent icm:hasExpectation icm:ServiceExpectation .\n"
    )
    rc, _, err = run(
        capsys,
        ["verify", "--model", str(desk_paths["model"]), "--intent", str(intent)],
    )
    assert rc == EXIT_CONFIG and "classify" in err
