"""The command line: every command's flags and defaults, and the output
paths that the other tests do not reach."""

import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
from helpers import clustered_dataset

import pmltk
from pmltk import Dataset, EnrichmentMatrix, build_graph, load
from pmltk.cli import cli, main
from pmltk.data import save
from pmltk.enrichment import save_enrichment
from pmltk.metrics import aggregate, evaluate, report_to_json, reports_to_csv
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
    "predict": {"--data-format": "sparse-multilabel", "--out": REQUIRED},
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
    assert csv_out.read_text() == reports_to_csv([report], aggregate([report]))

    assert main(["evaluate", str(preds), str(toy_file), "--format", "csv"]) == 0
    assert capsys.readouterr().out == reports_to_csv([report], aggregate([report]))
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


@pytest.mark.parametrize("command", ["inject-noise", "train", "benchmark"])
def test_negative_seed_fails_before_any_read(tmp_path, capsys, command):
    # the dataset does not exist: a read would exit 2
    argv = [command, str(tmp_path / "missing.sml"), "--seed", "-1"]
    if command != "benchmark":
        argv += ["--out", str(tmp_path / "out.txt")]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["error: seed must be >= 0, got -1"]


def test_evaluate_non_finite_scores_exit_3(tmp_path, capsys):
    truth, preds = tmp_path / "truth.sml", tmp_path / "preds.csv"
    save(Dataset(np.zeros((2, 1)), np.array([[1, 0, 1], [0, 1, 0]], dtype=np.int8)), truth,
         "sparse-multilabel")
    preds.write_text("#2 3\n0.9,nan,0.8;1,0,1\n0.1,0.9,0.2;0,1,0\n")
    assert main(["evaluate", str(preds), str(truth)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: non-finite scores"]


@pytest.mark.parametrize("weights", ["nan,0.0,1.0\ninf,0.0,0.0", "1e300,0.0,0.0\n1e300,0.0,0.0"],
                         ids=["non-finite", "overflow"])
def test_predict_non_finite_scores_exit_3(tmp_path, weights):
    # in a child process, so numpy's RuntimeWarnings would reach its stderr
    model, dataset, out = tmp_path / "model.txt", tmp_path / "test.sml", tmp_path / "preds.csv"
    model.write_text(f"#2 3 1.0 10.0\n{weights}\n")
    save(Dataset(np.full((2, 2), 1e300), np.eye(3, dtype=np.int8)[:2]), dataset,
         "sparse-multilabel")
    src = str(Path(pmltk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "pmltk.cli", "predict", str(model),
                          str(dataset), "--out", str(out)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3
    assert run.stderr.splitlines() == ["error: non-finite scores"]
    assert not out.exists()


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


@pytest.mark.parametrize("route, line", [
    ("enrichment", "error: training stage: ridge factorization failed: "),
    ("graph", "error: enrichment stage: feature rows too large: squared distances overflow"),
])
def test_overflowing_features_exit_3(tmp_path, capsys, route, line):
    # finite features whose Gram products overflow to inf
    X = np.random.default_rng(0).normal(size=(20, 30)) * 1e200
    Y = np.eye(4, dtype=np.int8)[np.arange(20) % 4]
    data_file, yhat = tmp_path / "big.sml", tmp_path / "yhat.csv"
    save(Dataset(X, Y), data_file, "sparse-multilabel")
    save_enrichment(EnrichmentMatrix(Y.astype(np.float64)), yhat)
    stage1 = ["--enrichment", str(yhat)] if route == "enrichment" else ["--k", "3"]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", str(data_file), *stage1, "--lambda2", "10",
                     "--out", str(tmp_path / "model.txt")])
    assert code == 3
    [err] = capsys.readouterr().err.splitlines()
    assert err.startswith(line)
    assert not (tmp_path / "model.txt").exists()


@pytest.mark.parametrize("route", ["enrichment", "graph"])
def test_overflowing_features_one_stderr_line(tmp_path, route):
    # in a child process, so numpy's RuntimeWarnings would reach its stderr
    X = np.random.default_rng(0).normal(size=(20, 30)) * 1e200
    Y = np.eye(4, dtype=np.int8)[np.arange(20) % 4]
    data_file, yhat = tmp_path / "big.sml", tmp_path / "yhat.csv"
    save(Dataset(X, Y), data_file, "sparse-multilabel")
    save_enrichment(EnrichmentMatrix(Y.astype(np.float64)), yhat)
    stage1 = ["--enrichment", str(yhat)] if route == "enrichment" else ["--k", "3"]
    src = str(Path(pmltk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "pmltk.cli", "train", str(data_file), *stage1,
                          "--lambda2", "10", "--out", str(tmp_path / "model.txt")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 3
    [err] = run.stderr.splitlines()
    assert err.startswith("error: ")


# Inputs that inject-noise must write back with their own feature text:
# (format, file text, the output for --noise 0, which adds no label).
KEEPS_FEATURE_TEXT = {
    "sparse-spacing": (
        "sparse-multilabel",
        "#3 3 3\n0 0:1_0\t2:-0.0\n\n1  1:0.5   1:0.25\r\n2\n",
        "#3 3 3\n0|0 0:1_0\t2:-0.0\n1|1 1:0.5   1:0.25\n2|2\n",
    ),
    "sparse-truth": (
        "sparse-multilabel",
        "#2 3 3\r\n0,1|0 0:0.1000\r\n\r\n1,2|2 2:-1e-3\r\n",
        "#2 3 3\n0|0 0:0.1000\n2|2 2:-1e-3\n",
    ),
    "dense-crlf": (
        "dense-csv",
        "#2 3 3\r\n0.1000,-0.0,1_0;1,0,0\r\n\r\n  2.50,0,1e-3;0,1,0  \r\n",
        "#2 3 3\n0.1000,-0.0,1_0;1,0,0;1,0,0\n2.50,0,1e-3;0,1,0;0,1,0\n",
    ),
    "dense-truth": (
        "dense-csv",
        "#2 3 3\n0.1,0.2,0.3;1,1,0;1,0,0\n0.4,0.5,0.6;0,1,1;0,0,1\n",
        "#2 3 3\n0.1,0.2,0.3;1,0,0;1,0,0\n0.4,0.5,0.6;0,0,1;0,0,1\n",
    ),
}


@pytest.mark.parametrize("case", sorted(KEEPS_FEATURE_TEXT))
@pytest.mark.parametrize("noise, seed", [(0, 0), (100, 3), (300, 5)])
def test_inject_noise_keeps_feature_text(tmp_path, capsys, case, noise, seed):
    fmt, text, quiet = KEEPS_FEATURE_TEXT[case]
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_bytes(text.encode())
    assert main(["inject-noise", str(src), "--data-format", fmt, "--noise", str(noise),
                 "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    want = pmltk.inject_noise(load(src, fmt), pmltk.NoiseConfig(a=noise, seed=seed))
    back = load(out, fmt)
    assert back.X.tobytes() == want.X.tobytes()
    assert back.Y.tobytes() == want.Y.tobytes()
    assert back.Ytruth.tobytes() == want.Ytruth.tobytes()
    if noise == 0:
        assert out.read_bytes() == quiet.encode()


def test_inject_noise_round_trips_random_data(tmp_path, capsys):
    for fmt in ("sparse-multilabel", "dense-csv"):
        src, out = tmp_path / "in.txt", tmp_path / "out.txt"
        save(clustered_dataset(n=50, d=6, l=5, seed=3), src, fmt)
        assert main(["inject-noise", str(src), "--data-format", fmt, "--seed", "9",
                     "--out", str(out)]) == 0
        want = pmltk.inject_noise(load(src, fmt), pmltk.NoiseConfig(a=100, seed=9))
        back = load(out, fmt)
        assert back.X.tobytes() == want.X.tobytes()
        assert (back.Y == want.Y).all() and (back.Ytruth == want.Ytruth).all()
    capsys.readouterr()


# Bad inputs with the exit code and stderr line that reading the whole file
# with data.load gives.
BAD_DATASETS = {
    ("dense-csv", "header"): ("#2 2\n0.1,0.2;1,0\n0.3,0.4;0,1\n",
                              "error: line 1: expected header '#n d l'"),
    ("dense-csv", "feature"): ("#2 2 2\n\n0.1,0.2;1,0\n0.3,x;0,1\n",
                               "error: line 4: bad feature value: could not convert string to "
                               "float: 'x'"),
    ("dense-csv", "label"): ("#2 2 2\n0.1,0.2;1,0\n0.3,0.4;0.5,1\n",
                             "error: line 3: candidate labels must be 0 or 1, got 0.5"),
    ("dense-csv", "empty"): ("#2 2 2\n0.1,0.2;1,0\n0.3,0.4;0,0\n",
                             "error: line 3: empty candidate label set"),
    ("dense-csv", "mixed"): ("#2 2 2\n0.1,0.2;1,0;1,0\n0.3,0.4;0,1\n",
                             "error: line 3: mixed rows: some carry a ground-truth block and "
                             "some do not"),
    ("sparse-multilabel", "header"): ("#2 2 2 2\n0 0:0.5\n1 1:0.5\n",
                                      "error: line 1: expected header '#n d l'"),
    ("sparse-multilabel", "feature"): ("#2 2 2\n0 0:0.5\n1 1:x\n",
                                       "error: line 3: bad feature pair '1:x'"),
    ("sparse-multilabel", "label"): ("#2 2 2\n0 0:0.5\nx 1:0.5\n",
                                     "error: line 3: bad label index 'x'"),
    ("sparse-multilabel", "empty"): ("#2 2 2\n0 0:0.5\n|1 1:0.5\n",
                                     "error: line 3: empty candidate label set"),
    ("sparse-multilabel", "mixed"): ("#2 3 3\n0|0 0:0.5\n1 1:0.5\n",
                                     "error: line 3: mixed rows: some carry a ground-truth block "
                                     "and some do not"),
}


@pytest.mark.parametrize("fmt, what", sorted(BAD_DATASETS))
def test_inject_noise_bad_input(tmp_path, capsys, fmt, what):
    text, line = BAD_DATASETS[fmt, what]
    src, out = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text(text)
    assert main(["inject-noise", str(src), "--data-format", fmt, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize("fmt, what", sorted(k for k in BAD_DATASETS if k[1] != "feature"))
def test_evaluate_bad_labels(tmp_path, capsys, fmt, what):
    text, line = BAD_DATASETS[fmt, what]
    src, preds = tmp_path / "in.txt", tmp_path / "preds.csv"
    src.write_text(text)
    preds.write_text("#2 2\n0.1,0.2;1,0\n0.3,0.4;0,1\n")
    assert main(["evaluate", str(preds), str(src), "--data-format", fmt]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


@pytest.mark.parametrize("fmt", ["dense-csv", "sparse-multilabel"])
def test_evaluate_reads_only_label_blocks(tmp_path, capsys, fmt):
    # evaluate uses the ground truth alone, so a bad feature value does not fail it
    bad_text, _ = BAD_DATASETS[fmt, "feature"]
    good_text = bad_text.replace("0.3,x", "0.3,0.4").replace("1:x", "1:0.5")
    preds, bad, good = tmp_path / "preds.csv", tmp_path / "bad.txt", tmp_path / "good.txt"
    preds.write_text("#2 2\n0.1,0.2;1,0\n0.3,0.4;0,1\n")
    bad.write_text(bad_text)
    good.write_text(good_text)
    assert main(["evaluate", str(preds), str(good), "--data-format", fmt]) == 0
    report = capsys.readouterr().out
    assert main(["evaluate", str(preds), str(bad), "--data-format", fmt]) == 0
    assert capsys.readouterr().out == report
