"""CLI behavior: happy paths, error taxonomy, deterministic outputs."""

from __future__ import annotations

import json

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
    main,
)
from ikge.model import load_model
from ikge.pipeline import UnresolvedSlotError, VerificationFailedError, NetworkIntent
from ikge.rdf import ParseError, PrefixError, VocabError, parse
from ikge.training import TrainConfig, TrainingDivergedError, split_dataset

INTENT_PREFIXES = (
    "@prefix icm: <http://intent.example/icm#> .\n"
    "@prefix kpi: <http://intent.example/kpi#> .\n"
    "@prefix nonmcptt: <http://intent.example/nonmcptt#> .\n"
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
    assert _categorize(VerificationFailedError(intent, [])) == "verification-failed"
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
    out_dir = tmp_path / "splits"
    rc, _, _ = run(capsys, ["split", "--ikg", str(desk_paths["ikg"]), "--out-dir", str(out_dir)])
    assert rc == EXIT_OK
    config = TrainConfig()
    expected = split_dataset(desk_ikg, config.split, config.seed)
    for name in ("train", "valid", "test"):
        written = (out_dir / f"{name}.ttl").read_text(encoding="utf-8")
        assert written == rdf.serialize(getattr(expected, name))


def test_split_missing_input(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        ["split", "--ikg", str(tmp_path / "nope.ttl"), "--out-dir", str(tmp_path / "o")],
    )
    assert rc == EXIT_IO and err.startswith("error: io:")


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

    out2 = tmp_path / "m2.json"
    rc, _, _ = run(
        capsys,
        ["train", "--ikg", str(desk_paths["ikg"]), "--out", str(out2), "--epochs", "2"],
    )
    assert rc == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()


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


def test_evaluate_invalid_model_json(tmp_path, capsys, desk_paths):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc, _, err = run(
        capsys,
        ["evaluate", "--ikg", str(desk_paths["ikg"]), "--model", str(bad),
         "--out", str(tmp_path / "e.json")],
    )
    assert rc == EXIT_PARSE


@pytest.mark.parametrize("command", ["evaluate", "translate", "verify"])
def test_non_finite_model_is_a_config_error(tmp_path, capsys, desk_paths, command):
    doc = json.loads(desk_paths["model"].read_text())
    doc["entity_means"][3][1] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    ikg = str(desk_paths["ikg"])
    argv = {
        "evaluate": ["--ikg", ikg, "--out", str(tmp_path / "e.json")],
        "translate": ["--ikg", ikg, "--text", "reliable video", "--out", str(tmp_path / "i.ttl")],
        "verify": ["--intent", ikg],
    }[command]
    rc, _, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG
    assert err.startswith(f"error: config: model file {bad} is malformed: entity_means")


@pytest.mark.parametrize("command", ["translate", "verify"])
@pytest.mark.parametrize(
    "key,value,message",
    [
        ("fallback", float("nan"), "thresholds hold a non-finite value"),
        ("0", float("nan"), "thresholds hold a non-finite value"),
        ("999", 0.0, "thresholds name a relation id outside the vocabulary"),
    ],
    ids=["nan-fallback", "nan-relation", "unknown-relation"],
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
    if key == "fallback":
        thresholds["fallback"] = value
    else:
        thresholds["per_relation"][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, [command, "--model", str(bad), *argv])
    assert rc == EXIT_CONFIG
    assert err.startswith(f"error: config: model file {bad} is malformed: {message}")


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


def test_predict_rejects_bad_k(capsys, desk_paths):
    rc, _, err = run(
        capsys,
        ["predict", "--model", str(desk_paths["model"]),
         "--ikg", str(desk_paths["ikg"]),
         "--triple", "icm:PropertyExpectation icm:hasTarget ???", "-k", "0"],
    )
    assert rc == EXIT_CONFIG


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
    doc = json.loads(out.read_text())
    assert doc["verified"] is False
    assert doc["n_classified"] == 4
    assert all(row["classified"] is False for row in doc["triples"])


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
