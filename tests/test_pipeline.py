import contextlib
import dataclasses
import importlib
import io
import json
import logging
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from helpers import clustered_dataset, random_dataset

import pmltk
from pmltk import (
    ConfigError,
    ExperimentConfig,
    KnnConfig,
    NoiseConfig,
    ParseError,
    PropagationConfig,
    SplitSpec,
    TrainerConfig,
    ValidationError,
    build_graph,
    enrich,
    evaluate,
    fit,
    inject_noise,
    load,
    predict,
    run_benchmark,
    select_lambda2,
    split,
)
from pmltk import pipeline
from pmltk.cli import main
from pmltk.data import FORMATS, Dataset, save
from pmltk.metrics import METRIC_NAMES
from pmltk.pipeline import (
    _STAGE_NOISE,
    _STAGE_SPLIT,
    _fold_indices,
    _stage,
    derive_seed,
    transform_features,
)
from pmltk.trainer import load_model, load_predictions, save_model


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


def split_report(cfg, index=0):
    """The report of split ``index`` of the benchmark protocol under ``cfg``."""
    return run_benchmark(dataclasses.replace(cfg, splits=index + 1))["per_split"][index]


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
    # select_lambda2 reads no file, so its configs name none

    def test_singleton_grid_short_circuits(self):
        # a dataset far too small for any cross-validation: must not matter,
        # also when the one value is repeated
        ds = random_dataset(n=3, d=2, l=3, seed=0)
        for grid in [(42.0,), (42.0, 42.0)]:
            assert select_lambda2(ds, toy_config("", lambda2_grid=grid, cv_folds=5), seed=0) == 42.0

    def test_tie_goes_to_smaller_value(self):
        # perfectly separable data: both grid values reach AP 1 on every fold
        ds = clustered_dataset(n=40, d=4, l=4, groups=2, seed=5, scale=0.05)
        lam = select_lambda2(ds, toy_config("", k=3, lambda2_grid=(100.0, 10.0)), seed=1)
        assert lam == 10.0

    def test_logs_cv_score_table(self, caplog):
        ds = clustered_dataset(n=40, d=6, l=5, groups=4, seed=3, scale=4.0)
        # a repeated grid value is fit and listed once
        grid, folds, seed, knn = [100.0, 0.1, 100.0], 2, 1, KnnConfig(k=3)
        cfg = toy_config("", k=3, lambda2_grid=tuple(grid), cv_folds=folds)
        with caplog.at_level(logging.INFO, logger="pmltk"):
            lam = select_lambda2(ds, cfg, seed=seed)
        [record] = [r for r in caplog.records if r.name == "pmltk.pipeline"]
        assert record.levelno == logging.INFO
        head, _, chosen = record.getMessage().partition("; selected ")
        assert float(chosen) == lam
        prefix, _, table = head.partition(": ")
        assert prefix == f"lambda2 CV mean AP over {folds} folds"
        entries = [e.split(": ") for e in table.split(", ")]
        logged = {float(g): float(ap) for g, ap in entries}
        assert len(entries) == len(logged)
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
            select_lambda2(ds, toy_config("", k=2, lambda2_grid=(1.0, 10.0), cv_folds=5), seed=0)


def run_python(code):
    """stdout of ``code`` run by a fresh interpreter that imports pmltk from
    this checkout; fails the test on a non-zero exit or after 120 s."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmltk.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def use_workers(monkeypatch, count):
    monkeypatch.setattr(pipeline, "_cv_workers", lambda folds: count)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestForkedFolds:
    """``select_lambda2`` spread over forked children acts as the caller alone."""

    # capped fits with a distinct warning on every fold
    DATA = dict(n=40, d=6, l=5, groups=4, seed=3, scale=4.0)

    def test_same_model_report_and_stderr_for_any_worker_count(
            self, toy_file, tmp_path, capsys, monkeypatch):
        # more workers than folds or CPUs is allowed too
        out = {}
        for count in (1, 2, 5):
            use_workers(monkeypatch, count)
            model = tmp_path / "model.txt"
            assert main(["train", str(toy_file), "--k", "4", "--cv-folds", "5", "--seed", "2",
                         "--out", str(model)]) == 0
            report = run_benchmark(toy_config(toy_file, cv_folds=5))
            assert_no_child_left()
            out[count] = (model.read_bytes(), capsys.readouterr(), report)
        assert "WARNING: fit stopped at outer_max" in out[1][1].err
        assert out[1] == out[2] == out[5]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
    def test_one_cpu_process_matches_forked_run(self, toy_file, tmp_path, capsys, monkeypatch):
        cfg = toy_config(toy_file, cv_folds=5)
        args = ["train", str(toy_file), "--k", "4", "--cv-folds", "5", "--seed", "2"]
        code = f"""if True:
            import contextlib, io, json, os
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            import pmltk, pmltk.cli
            from pmltk import ExperimentConfig, pipeline
            assert pipeline._cv_workers(5) == 1
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert pmltk.cli.main({args + ["--out", str(tmp_path / "one.txt")]!r}) == 0
            print(json.dumps(pmltk.run_benchmark({cfg!r})))
        """
        one_cpu = json.loads(run_python(code))
        use_workers(monkeypatch, 3)
        assert main(args + ["--out", str(tmp_path / "forked.txt")]) == 0
        capsys.readouterr()
        assert one_cpu == json.loads(json.dumps(run_benchmark(cfg)))
        assert (tmp_path / "one.txt").read_bytes() == (tmp_path / "forked.txt").read_bytes()

    @pytest.mark.parametrize("failing", [(3, 4), (1, 4)])
    def test_lowest_failing_fold_raises_as_in_one_process(self, monkeypatch, caplog, failing):
        # with 3 workers the blocks are folds 0-1 (caller), 2-3 and 4 (children)
        ds, folds, seed = clustered_dataset(**self.DATA), 5, 1
        cfg = toy_config("", k=3, lambda2_grid=(10.0, 100.0), cv_folds=folds)
        parts = _fold_indices(ds.n, folds, seed)
        rows = {f: ds.X[np.setdiff1d(np.arange(ds.n), parts[f])] for f in failing}
        real_fit = pipeline.fit

        def failing_fit(X, *args):
            for f, X_f in rows.items():
                if X.shape == X_f.shape and np.array_equal(X, X_f):
                    raise ParseError(f"fold {f} failed", line=f)
            return real_fit(X, *args)

        monkeypatch.setattr(pipeline, "fit", failing_fit)
        seen = {}
        for count in (1, 3):
            use_workers(monkeypatch, count)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="pmltk"), pytest.raises(ParseError) as info:
                select_lambda2(ds, cfg, seed)
            assert_no_child_left()
            seen[count] = (type(info.value), str(info.value), info.value.line,
                           [r.getMessage() for r in caplog.records])
        first = min(failing)
        assert seen[3] == seen[1]
        assert seen[1][:3] == (ParseError, f"line {first}: fold {first} failed", first)

    def test_block_a_child_did_not_finish_runs_whole_in_caller(self, monkeypatch):
        # with 3 workers the blocks are folds 0-1 (caller), 2-3 and 4 (children)
        ds, folds, seed = clustered_dataset(**self.DATA), 5, 1
        cfg = toy_config("", k=3, lambda2_grid=(10.0, 100.0), cv_folds=folds)
        rows = [ds.X[np.setdiff1d(np.arange(ds.n), p)] for p in _fold_indices(ds.n, folds, seed)]
        caller, in_caller, real_fit = os.getpid(), [], pipeline.fit

        def failing_fit(X, *args):
            fold = next(f for f, X_f in enumerate(rows)
                        if X.shape == X_f.shape and np.array_equal(X, X_f))
            if os.getpid() == caller:
                in_caller.append(fold)
            if fold == 3:
                raise ParseError("fold 3 failed")
            return real_fit(X, *args)

        monkeypatch.setattr(pipeline, "fit", failing_fit)
        use_workers(monkeypatch, 3)
        with pytest.raises(ParseError) as info:
            select_lambda2(ds, cfg, seed)
        assert str(info.value) == "fold 3 failed"
        assert sorted(set(in_caller)) == [0, 1, 2, 3]

    def test_interrupt_in_caller_leaves_no_child(self, monkeypatch):
        caller, real_fit = os.getpid(), pipeline.fit

        def interrupted_fit(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            return real_fit(*args)

        monkeypatch.setattr(pipeline, "fit", interrupted_fit)
        use_workers(monkeypatch, 3)
        with pytest.raises(KeyboardInterrupt):
            select_lambda2(clustered_dataset(**self.DATA), toy_config("", k=3, cv_folds=5), 1)
        assert_no_child_left()

    def test_fold_warnings_reach_handlers_once_in_fold_order(self, monkeypatch, caplog):
        ds = clustered_dataset(**self.DATA)
        cfg = toy_config("", k=3, lambda2_grid=(10.0, 100.0), cv_folds=5)
        logs = {}
        for count in (1, 2, 3):
            use_workers(monkeypatch, count)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="pmltk"):
                select_lambda2(ds, cfg, seed=1)
            logs[count] = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
        capped = [m for name, _, m in logs[1] if name == "pmltk.trainer"]
        assert len(capped) > 5 and len(set(capped)) == len(capped)
        assert logs[1][-1][0] == "pmltk.pipeline"
        assert logs[2] == logs[1] and logs[3] == logs[1]

    def test_handler_and_filter_below_pmltk_see_each_record_once(self, tmp_path, monkeypatch):
        # a handler and a filter on pmltk.trainer itself, which a child also
        # holds; both write to files, so what runs in a child counts too
        ds = clustered_dataset(**self.DATA)
        cfg = toy_config("", k=3, lambda2_grid=(10.0, 100.0), cv_folds=5)
        log, seen = logging.getLogger("pmltk.trainer"), {}
        for count in (1, 3):
            use_workers(monkeypatch, count)
            path, filtered = tmp_path / f"{count}.log", tmp_path / f"{count}.filtered"
            handler = logging.FileHandler(path, encoding="utf-8")

            def counting(record, filtered=filtered):
                with open(filtered, "a", encoding="utf-8") as fh:
                    fh.write(record.getMessage() + "\n")
                return True

            log.addHandler(handler)
            log.addFilter(counting)
            try:
                select_lambda2(ds, cfg, seed=1)
            finally:
                log.removeFilter(counting)
                log.removeHandler(handler)
                handler.close()
            seen[count] = (path.read_text(encoding="utf-8"), filtered.read_text(encoding="utf-8"))
        assert seen[1][0].count("\n") > 5 and seen[1][0] == seen[1][1]
        assert seen[3] == seen[1]

    def test_other_thread_keeps_every_fold_in_caller(self, monkeypatch):
        pids, real_fit = [], pipeline.fit

        def recording_fit(*args):
            pids.append(os.getpid())
            return real_fit(*args)

        monkeypatch.setattr(pipeline, "fit", recording_fit)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            assert pipeline._cv_workers(5) == 1
            select_lambda2(clustered_dataset(**self.DATA), toy_config("", k=3, cv_folds=5), 1)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pids == [os.getpid()] * 10

    @pytest.mark.parametrize("cause", ["fork refused", "results not picklable"])
    def test_folds_not_sent_back_run_in_caller(self, monkeypatch, caplog, cause):
        pids, real_fit = [], pipeline.fit

        class Unsendable:
            def __repr__(self):
                return "unsendable"

            def __reduce__(self):
                raise TypeError("cannot be pickled")

        def recording_fit(*args):
            pids.append(os.getpid())
            if cause == "results not picklable":
                logging.getLogger("pmltk.trainer").warning("fit with %r", Unsendable())
            return real_fit(*args)

        def refused_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(pipeline, "fit", recording_fit)
        if cause == "fork refused":
            monkeypatch.setattr(os, "fork", refused_fork)
        ds, cfg = clustered_dataset(**self.DATA), toy_config("", k=3, cv_folds=5)
        seen = {}
        for count in (1, 3):
            use_workers(monkeypatch, count)
            caplog.clear()
            pids.clear()
            with caplog.at_level(logging.INFO, logger="pmltk"):
                lam = select_lambda2(ds, cfg, 1)
            assert_no_child_left()
            seen[count] = (lam, list(pids), [r.getMessage() for r in caplog.records])
        assert seen[3] == seen[1]
        assert seen[1][1] == [os.getpid()] * 10

    def test_fork_after_threaded_blas_finishes(self, toy_file):
        # OpenBLAS has started its own threads before the children are forked
        ds, cfg = load(toy_file), toy_config(toy_file, cv_folds=5)
        code = f"""if True:
            import numpy as np
            import pmltk
            from pmltk import ExperimentConfig, pipeline
            a = np.random.default_rng(0).random((400, 400))
            assert np.isfinite((a @ a).sum())
            pipeline._cv_workers = lambda folds: 3
            print(pmltk.select_lambda2(pmltk.load({str(toy_file)!r}), {cfg!r}, 1))
        """
        assert float(run_python(code)) == select_lambda2(ds, cfg, 1)


class TestRunPipeline:
    """One split of the protocol, read from ``run_benchmark``'s reports."""

    def test_deterministic_report(self, toy_file):
        cfg = toy_config(toy_file)
        assert split_report(cfg, 0) == split_report(cfg, 0)

    def test_split_index_changes_result(self, toy_file):
        r0, r1 = run_benchmark(toy_config(toy_file, splits=2))["per_split"]
        assert r0 != r1

    def test_separable_data_scores_high(self, toy_file):
        assert split_report(toy_config(toy_file, noise=50))["ap"] > 0.9

    def test_noise_degrades_gently(self, toy_file):
        # soft check: clean supervision should not lose to heavy corruption
        ap0 = split_report(toy_config(toy_file, noise=0))["ap"]
        ap200 = split_report(toy_config(toy_file, noise=200))["ap"]
        assert ap0 >= ap200 - 0.02


# The report files of ``pmltk benchmark`` with ``toy_args`` on the toy data, as
# literal bytes, so neither the formats nor the aggregation can drift.
BENCHMARK_REPORTS = {
    "json": b"""{
  "mean": {
    "ap": 0.96875,
    "hloss": 0.27604166666666663,
    "macro_f1": 0.38425925925925924,
    "micro_f1": 0.5041928721174005,
    "oerror": 0.0625,
    "rloss": 0.020833333333333332,
    "saccuracy": 0.041666666666666664
  },
  "splits": [
    {
      "ap": 1.0,
      "hloss": 0.3020833333333333,
      "macro_f1": 0.2685185185185185,
      "micro_f1": 0.4528301886792453,
      "oerror": 0.0,
      "rloss": 0.0,
      "saccuracy": 0.08333333333333333,
      "skipped_instances": 0
    },
    {
      "ap": 0.9375,
      "hloss": 0.25,
      "macro_f1": 0.5,
      "micro_f1": 0.5555555555555556,
      "oerror": 0.125,
      "rloss": 0.041666666666666664,
      "saccuracy": 0.0,
      "skipped_instances": 0
    }
  ],
  "std": {
    "ap": 0.04419417382415922,
    "hloss": 0.03682847818679934,
    "macro_f1": 0.1636821252746638,
    "micro_f1": 0.07263780351811495,
    "oerror": 0.08838834764831845,
    "rloss": 0.02946278254943948,
    "saccuracy": 0.05892556509887896
  }
}
""",
    "csv": b"""split,saccuracy,hloss,oerror,rloss,ap,macro_f1,micro_f1,skipped_instances
0,0.08333333333333333,0.3020833333333333,0.0,0.0,1.0,0.2685185185185185,0.4528301886792453,0
1,0.0,0.25,0.125,0.041666666666666664,0.9375,0.5,0.5555555555555556,0
mean,0.041666666666666664,0.27604166666666663,0.0625,0.020833333333333332,0.96875,0.38425925925925924,0.5041928721174005,0.0
std,0.05892556509887896,0.03682847818679934,0.08838834764831845,0.02946278254943948,0.04419417382415922,0.1636821252746638,0.07263780351811495,0.0
""",
}


class TestRunBenchmark:
    @pytest.mark.parametrize("fmt", sorted(BENCHMARK_REPORTS))
    def test_report_file_bytes(self, toy_file, tmp_path, capsys, fmt):
        out = tmp_path / f"report.{fmt}"
        assert main(toy_args(toy_file, "--format", fmt, "--out", str(out))) == 0
        capsys.readouterr()
        assert out.read_bytes() == BENCHMARK_REPORTS[fmt]

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


class TestSplitOrder:
    """``run_splits`` gathers a split's test rows only after its fit, and
    they are the rows ``split`` takes."""

    def test_test_rows_gathered_after_the_fit(self, toy_file, monkeypatch):
        # a fixed lambda2 runs no CV folds, so every subset is a split's
        cfg = toy_config(toy_file, lambda2=10.0)
        events = []
        subset, fit_pipeline = Dataset.subset, pipeline.fit_pipeline

        def traced_subset(ds, indices):
            events.append(("rows", np.asarray(indices).tolist()))
            return subset(ds, indices)

        def traced_fit(train, *args, **kwargs):
            events.append(("fit", train.n))
            return fit_pipeline(train, *args, **kwargs)

        monkeypatch.setattr(Dataset, "subset", traced_subset)
        monkeypatch.setattr(pipeline, "fit_pipeline", traced_fit)
        run_benchmark(cfg)
        noisy = inject_noise(load(str(toy_file)),
                             NoiseConfig(cfg.noise, derive_seed(cfg.seed, _STAGE_NOISE)))
        run_events = events[:]
        for i in range(cfg.splits):
            del events[:]
            split(noisy, SplitSpec(cfg.split_fraction, derive_seed(cfg.seed, _STAGE_SPLIT, i)))
            (_, train_rows), (_, test_rows) = events
            assert run_events[3 * i:3 * i + 3] == [
                ("rows", train_rows), ("fit", len(train_rows)), ("rows", test_rows),
            ]
        assert len(run_events) == 3 * cfg.splits

    def test_empty_half_fails_before_the_fit(self, toy_file, monkeypatch):
        monkeypatch.setattr(pipeline, "fit_pipeline", None)
        with pytest.raises(ValidationError, match="^split 0 failed: split stage: train fraction "
                                                  "0.99 of 48 instances leaves a half empty$"):
            run_benchmark(toy_config(toy_file, split_fraction=0.99))


class TestErrorContext:
    def test_stage_name_in_pipeline_errors(self, toy_file):
        # k larger than any cross-validation subtrain: fails during tuning
        cfg = toy_config(toy_file, k=30)
        with pytest.raises(ConfigError, match="lambda2 selection stage"):
            split_report(cfg)

    def test_split_index_in_benchmark_errors(self, toy_file, capsys):
        cfg = toy_config(toy_file, k=30)
        with pytest.raises(ConfigError, match="^split 0 failed: lambda2 selection stage: "):
            run_benchmark(cfg)
        capsys.readouterr()

    def test_stage_keeps_exception_attributes(self):
        with pytest.raises(ParseError) as info:
            with _stage("split stage"):
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

    def test_bad_format(self):
        # the CLI's choice of formats rejects the value first, so only the library reaches this
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(dataset="x", data_format="csv")
        assert "'csv'" in str(info.value)
        assert all(f"'{fmt}'" in str(info.value) for fmt in FORMATS)

    @pytest.mark.parametrize("over", [
        dict(lambda2=float("nan")), dict(lambda2_grid=(float("nan"), 10.0)),
        dict(lambda2=10.0, lambda2_grid=(-1.0,)), dict(lambda1=-1.0), dict(tau=0.0),
        dict(admm_iters=0), dict(k=0), dict(alpha=2.0), dict(noise=-1),
        dict(split_fraction=1.0), dict(seed=-1),
    ], ids=lambda over: ",".join(f"{k}={v}" for k, v in over.items()))
    def test_stage_settings_checked_at_construction(self, over):
        # the file does not exist: the check comes before it would be read
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset="no-such-file.sml", **over)

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_bad_weight_fails_before_any_graph(self, toy_file, tmp_path, capsys, monkeypatch,
                                               command):
        graphs = []

        def spy(*args, **kwargs):
            graphs.append(args)
            return build_graph(*args, **kwargs)

        monkeypatch.setattr(pmltk.pipeline, "build_graph", spy)
        monkeypatch.setattr(pmltk.graph, "build_graph", spy)
        argv = [command, str(toy_file), "--k", "4", "--cv-folds", "2", "--lambda2", "nan"]
        if command == "train":
            argv += ["--out", str(tmp_path / "model.txt")]
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: lambda1, lambda2 and tau must be finite")
        assert graphs == []


class TestFeatureTransform:
    def test_test_set_uses_training_statistics(self):
        train = random_dataset(n=20, d=4, l=3, seed=1)
        test = random_dataset(n=7, d=4, l=3, seed=2)
        transform, out_train = transform_features(toy_config("", standardize_features=True), train)
        mu, sd = train.X.mean(axis=0), train.X.std(axis=0)
        assert transform.apply(test.X).tobytes() == ((test.X - mu) / sd).tobytes()
        assert out_train.X.tobytes() == ((train.X - mu) / sd).tobytes()
        assert (out_train.Y == train.Y).all() and (out_train.Ytruth == train.Ytruth).all()

    def test_constant_column_and_bias_last(self):
        ds = random_dataset(n=12, d=3, l=3, seed=4)
        X = ds.X.copy()
        X[:, 1] = 3.0
        ds = pmltk.Dataset(X, ds.Y, ds.Ytruth)
        _, out = transform_features(toy_config("", standardize_features=True, add_bias=True), ds)
        assert out.X.shape == (12, 4)
        assert (out.X[:, -1] == 1.0).all()
        assert (out.X[:, 1] == 0.0).all()  # centred, not scaled
        np.testing.assert_allclose(out.X[:, [0, 2]].std(axis=0), 1.0)
        _, bias_only = transform_features(toy_config("", add_bias=True), ds)
        assert bias_only.X.tobytes() == np.hstack([X, np.ones((12, 1))]).tobytes()

    def test_no_transform_passes_sets_through(self):
        train = random_dataset(seed=1)
        transform, out = transform_features(toy_config(""), train)
        assert transform is None and out is train

    def test_benchmark_with_transform_is_deterministic(self, toy_file):
        cfg = toy_config(toy_file, splits=1, standardize_features=True, add_bias=True)
        assert run_benchmark(cfg) == run_benchmark(cfg)

    def test_train_then_predict_with_transform(self, toy_file, tmp_path, capsys):
        # on noisy candidates the graph weights move the enrichment, so a graph
        # that saw the bias column would give another model
        noisy, model, preds = tmp_path / "noisy.sml", tmp_path / "model.txt", tmp_path / "preds.csv"
        save(inject_noise(load(toy_file), NoiseConfig(a=100, seed=3)), noisy, "sparse-multilabel")
        assert main(["train", str(noisy), "--k", "4", "--lambda2", "10",
                     "--standardize-features", "--add-bias", "--out", str(model)]) == 0
        assert main(["predict", str(model), str(noisy), "--out", str(preds)]) == 0
        capsys.readouterr()
        raw = load(noisy)
        W = load_model(model).W
        assert W.shape == (raw.d + 1, raw.l)
        scores, labels = load_predictions(preds)
        assert scores.shape == labels.shape == (raw.n, raw.l)
        # the fit sees the transformed features, the graph those without the bias column
        _, ds = transform_features(toy_config(noisy, standardize_features=True, add_bias=True),
                                   raw)
        em = enrich(ds, build_graph(ds.X[:, :-1], KnnConfig(k=4)), PropagationConfig())
        ref, _, _ = fit(ds.X, em.Yhat, ds.Y, TrainerConfig(lambda2=10.0))
        assert W.tobytes() == ref.W.tobytes()

    @pytest.mark.parametrize("options", [["--standardize-features", "--add-bias"],
                                         ["--standardize-features"], ["--add-bias"]])
    def test_predict_applies_model_transform(self, toy_file, tmp_path, capsys, options):
        # a test set with other statistics than the training set
        model, preds, test = tmp_path / "model.txt", tmp_path / "preds.csv", tmp_path / "test.sml"
        save(clustered_dataset(n=20, d=5, l=4, groups=3, seed=5, scale=2.0), test,
             "sparse-multilabel")
        assert main(["train", str(toy_file), "--k", "4", "--lambda2", "10", *options,
                     "--out", str(model)]) == 0
        assert main(["predict", str(model), str(test), "--out", str(preds)]) == 0
        capsys.readouterr()
        cfg = toy_config(toy_file, standardize_features="--standardize-features" in options,
                         add_bias="--add-bias" in options)
        fitted, train = transform_features(cfg, load(toy_file))
        held_X = fitted.apply(load(test).X)
        em = enrich(train, build_graph(train.X[:, :-1] if cfg.add_bias else train.X,
                                       KnnConfig(k=4)), PropagationConfig())
        ref, _, _ = fit(train.X, em.Yhat, train.Y, TrainerConfig(lambda2=10.0))
        scores, labels = pmltk.predict(ref, held_X)
        got_scores, got_labels = load_predictions(preds)
        assert got_scores.tobytes() == scores.tobytes()
        assert (got_labels == labels).all()
        # the model file keeps the transform it was trained with
        transform = load_model(model).transform
        assert transform.bias is cfg.add_bias
        if cfg.standardize_features:
            assert transform.mean.tobytes() == load(toy_file).X.mean(axis=0).tobytes()
        else:
            assert not transform.mean.any() and (transform.scale == 1.0).all()

    def test_model_without_transform_keeps_version_1(self, toy_file, tmp_path, capsys):
        model = tmp_path / "model.txt"
        assert main(["train", str(toy_file), "--k", "4", "--lambda2", "10",
                     "--out", str(model)]) == 0
        capsys.readouterr()
        header = model.read_text().split("\n", 1)[0]
        assert header == "#5 4 1.0 10.0"
        assert load_model(model).transform is None


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
        lam = select_lambda2(ds, toy_config(toy_file, k=10), derive_seed(2, 2, 0))
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

    @pytest.mark.parametrize("flags", [
        ["--lambda2", "nan"], ["--lambda2", "inf"], ["--lambda1", "nan"],
        ["--lambda2-grid", "nan,10"],
    ])
    def test_non_finite_weight_exit_code(self, toy_file, tmp_path, capsys, flags):
        code = main(["train", str(toy_file), "--k", "4", "--cv-folds", "2", *flags,
                     "--out", str(tmp_path / "model.txt")])
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "must be finite" in line
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


def library_handlers_only():
    """Whether the ``pmltk`` logger holds only the library's NullHandler."""
    return [type(h) for h in logging.getLogger("pmltk").handlers] == [logging.NullHandler]


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
        assert library_handlers_only()

    def test_library_calls_after_main_stay_silent(self, toy_file, tmp_path, capsys, caplog):
        # the handler lives only while main runs: a later library call whose
        # fits stop at their cap logs its warning but prints nothing
        assert main(["train", str(toy_file), "--k", "4", "--lambda2", "10",
                     "--out", str(tmp_path / "model.txt")]) == 0
        assert "WARNING: fit stopped at outer_max" in capsys.readouterr().err
        assert library_handlers_only()
        caplog.clear()
        result = run_benchmark(toy_config(toy_file, splits=1, lambda2=10.0))
        assert any("fit stopped at outer_max" in r.getMessage() for r in caplog.records)
        assert capsys.readouterr() == ("", "")
        assert len(result["per_split"]) == 1

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
