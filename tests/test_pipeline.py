import contextlib
import importlib
import io
import json
import logging
from pathlib import Path

import numpy as np
import pytest
from helpers import clustered_dataset, random_dataset

import pmltk
from pmltk import (
    ConfigError,
    ExperimentConfig,
    KnnConfig,
    ParseError,
    PropagationConfig,
    TrainerConfig,
    build_graph,
    derive_seed,
    enrich,
    evaluate,
    fit,
    load,
    predict,
    run_benchmark,
    run_pipeline,
    save,
    save_model,
    select_lambda2,
)
from pmltk.cli import _StderrHandler, main
from pmltk.metrics import METRIC_NAMES
from pmltk.pipeline import _fold_indices, _stage


@pytest.fixture()
def toy_file(tmp_path):
    ds = clustered_dataset(n=48, d=5, l=4, groups=3, seed=21)
    p = tmp_path / "toy.sml"
    save(ds, p, "sparse-multilabel")
    return p


def toy_config(path, **over):
    base = dict(
        dataset=str(path),
        noise=100,
        splits=2,
        k=4,
        alpha=0.05,
        cv_folds=2,
        seed=7,
    )
    base.update(over)
    return ExperimentConfig(**base)


def toy_args(path, *extra):
    """``pmltk benchmark`` arguments equal to ``toy_config(path)``."""
    return ["benchmark", str(path), "--noise", "100", "--splits", "2", "--k", "4",
            "--alpha", "0.05", "--cv-folds", "2", "--seed", "7", *extra]


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        assert derive_seed(5, 1, 0) == derive_seed(5, 1, 0)
        assert derive_seed(5, 1, 0) != derive_seed(5, 1, 1)
        assert derive_seed(5, 1, 0) != derive_seed(6, 1, 0)
        assert derive_seed(5, 0) != derive_seed(5, 1)


class TestFolds:
    def test_even_partition(self):
        parts = _fold_indices(10, 5, seed=3)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]
        assert sorted(np.concatenate(parts).tolist()) == list(range(10))

    def test_uneven_partition(self):
        parts = _fold_indices(11, 5, seed=3)
        assert sorted(len(p) for p in parts) == [2, 2, 2, 2, 3]


class TestSelectLambda2:
    def test_singleton_grid_short_circuits(self):
        # a dataset far too small for any cross-validation: must not matter
        ds = random_dataset(n=3, d=2, l=3, seed=0)
        assert select_lambda2(ds, [42.0], folds=5, seed=0) == 42.0

    def test_tie_goes_to_smaller_value(self):
        # perfectly separable data: both grid values reach AP 1 on every fold
        ds = clustered_dataset(n=40, d=4, l=4, groups=2, seed=5, scale=0.05)
        lam = select_lambda2(
            ds, [100.0, 10.0], folds=2, seed=1,
            knn_cfg=KnnConfig(k=3), prop_cfg=PropagationConfig(),
        )
        assert lam == 10.0

    def test_logs_cv_score_table(self, caplog):
        ds = clustered_dataset(n=40, d=6, l=5, groups=4, seed=3, scale=4.0)
        grid, folds, seed, knn = [100.0, 0.1], 2, 1, KnnConfig(k=3)
        with caplog.at_level(logging.INFO, logger="pmltk"):
            lam = select_lambda2(ds, grid, folds=folds, seed=seed, knn_cfg=knn)
        [record] = [r for r in caplog.records if r.name == "pmltk.pipeline"]
        assert record.levelno == logging.INFO
        head, _, chosen = record.getMessage().partition("; selected ")
        assert float(chosen) == lam
        prefix, _, table = head.partition(": ")
        assert prefix == f"lambda2 CV mean AP over {folds} folds"
        logged = {float(g): float(ap) for g, ap in (e.split(": ") for e in table.split(", "))}
        # the same folds, enrichments and fits, made by hand
        expect = dict.fromkeys(sorted(grid), 0.0)
        for part in _fold_indices(ds.n, folds, seed):
            sub, held = ds.subset(np.setdiff1d(np.arange(ds.n), part)), ds.subset(part)
            em = enrich(sub, build_graph(sub.X, knn), PropagationConfig())
            for g in expect:
                model, _, _ = fit(sub.X, em.Yhat, sub.Y, TrainerConfig(lambda2=g))
                expect[g] += evaluate(*predict(model, held.X), held.Y).ap
        assert list(logged) == list(expect)
        assert list(logged.values()) == [float(f"{ap / folds:.6f}") for ap in expect.values()]
        assert logged[lam] == max(logged.values())

    def test_fewer_instances_than_folds(self):
        ds = random_dataset(n=4, d=2, l=3, seed=1)
        with pytest.raises(ConfigError):
            select_lambda2(ds, [1.0, 10.0], folds=5, seed=0, knn_cfg=KnnConfig(k=2))


class TestRunPipeline:
    def test_deterministic_report(self, toy_file):
        cfg = toy_config(toy_file)
        _, r1 = run_pipeline(cfg, split_index=0)
        _, r2 = run_pipeline(cfg, split_index=0)
        assert r1 == r2

    def test_split_index_changes_result(self, toy_file):
        cfg = toy_config(toy_file)
        _, r0 = run_pipeline(cfg, split_index=0)
        _, r1 = run_pipeline(cfg, split_index=1)
        assert r0 != r1

    def test_separable_data_scores_high(self, toy_file):
        cfg = toy_config(toy_file, noise=50)
        _, report = run_pipeline(cfg)
        assert report.ap > 0.9

    def test_noise_degrades_gently(self, toy_file):
        # soft check: clean supervision should not lose to heavy corruption
        ap0 = run_pipeline(toy_config(toy_file, noise=0))[1].ap
        ap200 = run_pipeline(toy_config(toy_file, noise=200))[1].ap
        assert ap0 >= ap200 - 0.02


class TestRunBenchmark:
    def test_aggregates_and_writes_json(self, toy_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(toy_args(toy_file, "--format", "json", "--out", str(out))) == 0
        assert "lambda2 per split" in capsys.readouterr().out
        result = run_benchmark(toy_config(toy_file))
        assert len(result["per_split"]) == 2
        doc = json.loads(out.read_text())
        assert doc["mean"]["ap"] == pytest.approx(result["mean"]["ap"])

    def test_prints_and_writes_nothing(self, toy_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = run_benchmark(toy_config(toy_file, splits=1))
        assert capsys.readouterr() == ("", "")
        assert [p.name for p in tmp_path.iterdir()] == ["toy.sml"]
        assert len(result["per_split"]) == 1

    def test_command_prints_summary_table(self, toy_file, capsys):
        assert main(toy_args(toy_file)) == 0
        out = capsys.readouterr().out.splitlines()
        result = run_benchmark(toy_config(toy_file))
        assert out[0].split() == ["metric", "mean", "std"]
        for line, name in zip(out[1:], METRIC_NAMES):
            assert line == f"{name:<14} {result['mean'][name]:>10.4f} {result['std'][name]:>10.4f}"
        lambdas = ", ".join(map(repr, result["lambda2_per_split"]))
        assert out[8:] == [f"lambda2 per split: {lambdas}"]

    def test_single_split_zero_std(self, toy_file, capsys):
        cfg = toy_config(toy_file, splits=1)
        result = run_benchmark(cfg)
        capsys.readouterr()
        assert all(v == 0.0 for v in result["std"].values())

    def test_prefix_stability_when_adding_splits(self, toy_file, capsys):
        two = run_benchmark(toy_config(toy_file, splits=2))
        three = run_benchmark(toy_config(toy_file, splits=3))
        capsys.readouterr()
        assert three["per_split"][:2] == two["per_split"]

    def test_json_and_csv_numeric_content_identical(self, toy_file, tmp_path, capsys):
        jout = tmp_path / "r.json"
        cout = tmp_path / "r.csv"
        assert main(toy_args(toy_file, "--format", "json", "--out", str(jout))) == 0
        assert main(toy_args(toy_file, "--format", "csv", "--out", str(cout))) == 0
        capsys.readouterr()
        doc = json.loads(jout.read_text())
        lines = cout.read_text().strip().split("\n")
        header = lines[0].split(",")
        for i, split_doc in enumerate(doc["splits"]):
            row = dict(zip(header, lines[1 + i].split(",")))
            for name in ("saccuracy", "ap", "rloss"):
                assert float(row[name]) == split_doc[name]

    def test_byte_identical_reports(self, toy_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(toy_args(toy_file, "--out", str(a))) == 0
        assert main(toy_args(toy_file, "--out", str(b))) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestErrorContext:
    def test_stage_name_in_pipeline_errors(self, toy_file):
        # k larger than any cross-validation subtrain: fails during tuning
        cfg = toy_config(toy_file, k=30)
        with pytest.raises(ConfigError, match="lambda2 selection stage"):
            run_pipeline(cfg)

    def test_split_index_in_benchmark_errors(self, toy_file, capsys):
        cfg = toy_config(toy_file, k=30)
        with pytest.raises(ConfigError, match="^split 0 failed: lambda2 selection stage: "):
            run_benchmark(cfg)
        capsys.readouterr()

    def test_stage_keeps_exception_attributes(self):
        with pytest.raises(ParseError) as info:
            with _stage("split"):
                raise ParseError("bad value", line=7)
        assert info.value.line == 7
        assert str(info.value) == "split stage: line 7: bad value"


class TestConfigValidation:
    def test_bad_grid(self, toy_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset=str(toy_file), lambda2_grid=())

    def test_bad_folds(self, toy_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset=str(toy_file), cv_folds=1)

    def test_bad_splits(self, toy_file):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset=str(toy_file), splits=0)


class TestCli:
    def test_full_command_chain(self, toy_file, tmp_path, capsys):
        noisy = tmp_path / "noisy.sml"
        yhat = tmp_path / "yhat.csv"
        model = tmp_path / "model.txt"
        preds = tmp_path / "preds.csv"
        report = tmp_path / "report.json"
        assert main(["inject-noise", str(toy_file), "--noise", "100",
                     "--seed", "3", "--out", str(noisy)]) == 0
        assert main(["enrich", str(noisy), "--k", "4", "--out", str(yhat)]) == 0
        assert main(["train", str(noisy), "--k", "4", "--enrichment", str(yhat),
                     "--lambda2", "10", "--out", str(model)]) == 0
        assert main(["predict", str(model), str(noisy), "--out", str(preds)]) == 0
        assert main(["evaluate", str(preds), str(noisy), "--out", str(report)]) == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert set(doc) == {
            "saccuracy", "hloss", "oerror", "rloss", "ap",
            "macro_f1", "micro_f1", "skipped_instances",
        }

    def test_train_with_cross_validated_lambda2(self, toy_file, tmp_path, capsys):
        model = tmp_path / "model.txt"
        code = main(["train", str(toy_file), "--k", "4", "--cv-folds", "2",
                     "--lambda2-grid", "10,100", "--seed", "2", "--out", str(model)])
        out = capsys.readouterr().out
        assert code == 0
        assert "selected lambda2=" in out
        assert model.exists()

    def test_train_matches_library_calls(self, toy_file, tmp_path, capsys):
        # train's cross-validation is seeded like split 0 of the benchmark
        model = tmp_path / "model.txt"
        assert main(["train", str(toy_file), "--cv-folds", "2", "--seed", "2",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        ds = load(toy_file)
        knn, prop = KnnConfig(k=10), PropagationConfig(alpha=0.05)
        lam = select_lambda2(ds, (10.0, 100.0), 2, derive_seed(2, 2, 0),
                             knn_cfg=knn, prop_cfg=prop)
        em = enrich(ds, build_graph(ds.X, knn), prop)
        ref, _, _ = fit(ds.X, em.Yhat, ds.Y, TrainerConfig(lambda2=lam))
        save_model(ref, tmp_path / "ref.txt")
        assert model.read_bytes() == (tmp_path / "ref.txt").read_bytes()

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_train_rejects_bad_cv_folds(self, toy_file, tmp_path, capsys, folds):
        code = main(["train", str(toy_file), "--cv-folds", folds,
                     "--out", str(tmp_path / "model.txt")])
        assert "cv_folds must be >= 2" in capsys.readouterr().err
        assert code == 1

    def test_negative_model_dimension_exit_code(self, toy_file, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("#2 -1 1.0 10.0\n0.1,0.2\n0.3,0.4\n")
        code = main(["predict", str(model), str(toy_file),
                     "--out", str(tmp_path / "preds.csv")])
        assert "line 1: header dimensions must be positive" in capsys.readouterr().err
        assert code == 2

    def test_unwritable_output_exit_code(self, toy_file, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "yhat.csv"
        assert main(["enrich", str(toy_file), "--k", "4", "--out", str(out)]) == 2
        assert f"cannot write enrichment {out}" in capsys.readouterr().err

    def test_benchmark_command(self, toy_file, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        code = main(["benchmark", str(toy_file), "--splits", "2", "--k", "4",
                     "--cv-folds", "2", "--seed", "1", "--format", "csv",
                     "--out", str(report)])
        capsys.readouterr()
        assert code == 0
        assert report.read_text().startswith("split,")

    def test_non_finite_test_features_exit_code(self, tmp_path, capsys):
        model = tmp_path / "model.txt"
        model.write_text("#2 2 1.0 10.0\n0.1,0.2\n0.3,0.4\n")
        test = tmp_path / "test.csv"
        test.write_text("#2 2 2\n1.0,nan;1,0\n0.5,0.5;0,1\n")
        code = main(["predict", str(model), str(test), "--data-format", "dense-csv",
                     "--out", str(tmp_path / "preds.csv")])
        capsys.readouterr()
        assert code == 3

    def test_missing_dataset_exit_code(self, capsys):
        assert main(["benchmark", "no-such-file.sml"]) == 2
        capsys.readouterr()

    def test_bad_flag_exit_code(self, toy_file, capsys):
        assert main(["benchmark", str(toy_file), "--cv-folds", "1"]) == 1
        assert main(["benchmark", str(toy_file), "--no-such-flag"]) == 1
        capsys.readouterr()

    def test_env_var_override(self, toy_file, tmp_path, capsys, monkeypatch):
        # same invocation, seed supplied through the documented env prefix
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        args = ["benchmark", str(toy_file), "--splits", "1", "--k", "4",
                "--cv-folds", "2", "--lambda2", "10"]
        monkeypatch.setenv("PMLTK_BENCHMARK_SEED", "99")
        assert main(args + ["--out", str(out1)]) == 0
        monkeypatch.delenv("PMLTK_BENCHMARK_SEED")
        assert main(args + ["--out", str(out2), "--seed", "99"]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestCliWarnings:
    def test_cap_warning_printed_once_per_command(self, toy_file, tmp_path, capsys):
        args = ["train", str(toy_file), "--k", "4", "--lambda2", "10",
                "--out", str(tmp_path / "model.txt")]
        # each call writes to the stderr in place when it runs, as when a
        # caller redirects every command into its own buffer
        for _ in range(2):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert main(args) == 0
            [line] = err.getvalue().splitlines()
            assert line.startswith("WARNING: fit stopped at outer_max=50 without meeting outer_tol")
        assert main(args) == 0
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("WARNING: fit stopped at outer_max=50")
        log = logging.getLogger("pmltk")
        assert sum(isinstance(h, _StderrHandler) for h in log.handlers) == 1

    def test_info_stays_silent(self, toy_file, tmp_path, capsys, caplog):
        # let INFO records reach the handlers: the CV table is logged at INFO
        caplog.set_level(logging.INFO, logger="pmltk")
        assert main(["train", str(toy_file), "--k", "4", "--cv-folds", "2",
                     "--out", str(tmp_path / "model.txt")]) == 0
        assert any(r.levelno == logging.INFO and "lambda2 CV" in r.getMessage()
                   for r in caplog.records)
        err = capsys.readouterr().err
        assert "lambda2 CV" not in err
        assert "WARNING: fit stopped at outer_max" in err


class TestBenchHooks:
    """``bench/`` wraps and calls pmltk functions by module and name."""

    def test_traced_functions_exist(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        tracing = importlib.import_module("tracing")
        for module, name in tracing.LAYER_FUNCTIONS:
            fn = getattr(importlib.import_module(f"pmltk.{module}"), name, None)
            assert callable(fn), (module, name)

    def test_worker_loaders_exist(self):
        assert callable(pmltk.load_enrichment)
        assert callable(pmltk.load_model)
        assert callable(pmltk.trainer.load_predictions)
