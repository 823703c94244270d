"""The command line: every command's flags and defaults, and the output
paths that the other tests do not reach."""

import json

import click
import pytest
from helpers import clustered_dataset

import pmltk
from pmltk import build_graph, load
from pmltk.cli import cli, main
from pmltk.data import save
from pmltk.metrics import evaluate, report_to_json, reports_to_csv
from pmltk.trainer import load_predictions

REQUIRED = "required"

# Each command's options with their defaults, as the commands declare them.
FLAGS = {
    "inject-noise": {
        "--data-format": "sparse-multilabel", "--noise": 100, "--seed": 0, "--out": REQUIRED,
    },
    "enrich": {
        "--data-format": "sparse-multilabel", "--k": 10, "--alpha": 0.05,
        "--standardize-features": False, "--out": REQUIRED,
    },
    "train": {
        "--enrichment": None, "--data-format": "sparse-multilabel", "--k": 10,
        "--alpha": 0.05, "--lambda1": 1.0, "--lambda2": None, "--lambda2-grid": "10,100",
        "--cv-folds": 5, "--tau": 1.0, "--admm-iters": 5, "--seed": 0,
        "--standardize-features": False, "--add-bias": False, "--out": REQUIRED,
        "--trace-out": None,
    },
    "predict": {"--data-format": "sparse-multilabel", "--add-bias": False, "--out": REQUIRED},
    "evaluate": {"--data-format": "sparse-multilabel", "--format": "json", "--out": None},
    "benchmark": {
        "--noise": 100, "--splits": 5, "--split-fraction": 0.5,
        "--data-format": "sparse-multilabel", "--k": 10, "--alpha": 0.05, "--lambda1": 1.0,
        "--lambda2": None, "--lambda2-grid": "10,100", "--cv-folds": 5, "--tau": 1.0,
        "--admm-iters": 5, "--seed": 0, "--standardize-features": False,
        "--add-bias": False, "--format": "json", "--out": None,
    },
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_flags_and_defaults(command):
    params = cli.commands[command].params
    declared = {
        p.opts[0]: REQUIRED if p.required else p.default
        for p in params if isinstance(p, click.Option)
    }
    assert declared == FLAGS[command]
    # types matter too: "--k 10" must stay an int and "--alpha 0.05" a float
    for p in params:
        if isinstance(p, click.Option) and isinstance(p.default, (int, float)):
            assert type(p.type(str(p.default))) is type(p.default), p.opts[0]


def test_commands():
    assert sorted(cli.commands) == sorted(FLAGS)


@pytest.fixture()
def toy_file(tmp_path):
    p = tmp_path / "toy.sml"
    save(clustered_dataset(n=40, d=5, l=4, groups=3, seed=8), p, "sparse-multilabel")
    return p


def test_train_trace_out(toy_file, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    assert main(["train", str(toy_file), "--k", "4", "--lambda2", "10",
                 "--out", str(tmp_path / "model.txt"), "--trace-out", str(trace)]) == 0
    *_, iterations = capsys.readouterr().out.split(", ")
    header, *rows = trace.read_text().splitlines()
    assert header == "iter,objective"
    assert [int(r.split(",")[0]) for r in rows] == list(range(len(rows)))
    assert iterations == f"{len(rows) - 1} iterations)\n"
    values = [float(r.split(",")[1]) for r in rows]
    assert all(repr(v) == r.split(",")[1] for v, r in zip(values, rows))
    assert values[-1] <= values[0]


def test_evaluate_csv_and_stdout(toy_file, tmp_path, capsys):
    preds = tmp_path / "preds.csv"
    model = tmp_path / "model.txt"
    assert main(["train", str(toy_file), "--k", "4", "--lambda2", "10", "--out", str(model)]) == 0
    assert main(["predict", str(model), str(toy_file), "--out", str(preds)]) == 0
    capsys.readouterr()
    report = evaluate(*load_predictions(preds), load(toy_file).Ytruth)

    csv_out = tmp_path / "report.csv"
    assert main(["evaluate", str(preds), str(toy_file), "--format", "csv",
                 "--out", str(csv_out)]) == 0
    assert capsys.readouterr().out == f"wrote {csv_out}\n"
    assert csv_out.read_text() == reports_to_csv([report])

    assert main(["evaluate", str(preds), str(toy_file), "--format", "csv"]) == 0
    assert capsys.readouterr().out == reports_to_csv([report])
    assert main(["evaluate", str(preds), str(toy_file)]) == 0
    out = capsys.readouterr().out
    assert out == report_to_json(report)
    assert json.loads(out)["ap"] == report.ap


@pytest.mark.parametrize("command", ["train", "benchmark"])
def test_bad_grid_value_exit_code(toy_file, tmp_path, capsys, command):
    argv = [command, str(toy_file), "--lambda2-grid", "1,x"]
    if command == "train":
        argv += ["--out", str(tmp_path / "model.txt")]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: bad lambda2 grid '1,x'; expected comma-separated numbers"
    assert not (tmp_path / "model.txt").exists()


def test_help_shows_defaults(capsys):
    assert main(["train", "--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for shown in ("[default: 10]", "[default: 0.05]", "[default: 10,100]",
                  "[default: sparse-multilabel]"):
        assert shown in text
    assert "[default: False]" not in text


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_add_bias_routes_agree(tmp_path, capsys, seed):
    # the graph never sees the bias column, so enriching first changes nothing
    clean, noisy = tmp_path / "clean.sml", tmp_path / "noisy.sml"
    save(clustered_dataset(n=80, d=6, l=5, seed=seed), clean, "sparse-multilabel")
    assert main(["inject-noise", str(clean), "--noise", "100", "--seed", str(seed),
                 "--out", str(noisy)]) == 0
    yhat, two_step, one_step = tmp_path / "yhat.csv", tmp_path / "m2.txt", tmp_path / "m1.txt"
    fixed = ["--lambda2", "10", "--add-bias"]
    assert main(["enrich", str(noisy), "--out", str(yhat)]) == 0
    assert main(["train", str(noisy), "--enrichment", str(yhat), *fixed,
                 "--out", str(two_step)]) == 0
    assert main(["train", str(noisy), *fixed, "--out", str(one_step)]) == 0
    capsys.readouterr()
    assert two_step.read_bytes() == one_step.read_bytes()


def test_misshaped_enrichment_fails_before_any_graph(toy_file, tmp_path, capsys, monkeypatch):
    graphs = []

    def spy(*args, **kwargs):
        graphs.append(args)
        return build_graph(*args, **kwargs)

    monkeypatch.setattr(pmltk.pipeline, "build_graph", spy)
    yhat = tmp_path / "yhat.csv"
    yhat.write_text("#3 4\n" + "0.5,-0.5,0.5,-0.5\n" * 3)
    # no --lambda2: the shape check must come before the cross-validation too
    assert main(["train", str(toy_file), "--k", "4", "--cv-folds", "2", "--enrichment",
                 str(yhat), "--out", str(tmp_path / "model.txt")]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == "error: enrichment is 3 x 4 but dataset is 40 x 4"
    assert graphs == []
    assert not (tmp_path / "model.txt").exists()
