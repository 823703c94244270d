"""One workload child: set up the inputs, then run passes in a closed loop.

Started by ``run.py`` in a fresh interpreter with ``src/`` of the checkout
on ``PYTHONPATH`` and the BLAS thread variables removed, so pmltk runs with
the library's default thread count, as a user's process would. Prints one
JSON object per line on stdout: ``ready`` after set-up, and with
``--setup-only`` nothing else; otherwise a final ``result``. Output that
pmltk itself prints during a pass is captured and dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

import datagen
from tracing import CLI_COMMANDS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
GRID = (10.0, 100.0)
METRIC_NAMES = ("saccuracy", "hloss", "oerror", "rloss", "ap", "macro_f1", "micro_f1")

# Protocol workloads drive pmltk.run_benchmark; a pass is one call.
PROTOCOL = {
    "genbase-cv": {"shape": "genbase", "lambda2": None, "splits": 1},
    "medical-fixed": {"shape": "medical", "lambda2": 10.0, "splits": 1},
}
CLI_SHAPE = "genbase"
WORKLOADS = tuple(PROTOCOL) + ("cli-roundtrip",)


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def fingerprint(report) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def metric_problems(values: dict, where: str) -> list[str]:
    out = []
    for name in METRIC_NAMES:
        v = values.get(name)
        if not isinstance(v, (int, float)) or not math.isfinite(v) or not 0.0 <= v <= 1.0:
            out.append(f"{where}: {name}={v!r} is not a finite number in [0, 1]")
    return out


# ---------------------------------------------------------------- set-up


def setup(workload: str, seed: int, workdir: str) -> dict:
    """Generate and write the workload's input files; return their sha256."""
    os.makedirs(workdir, exist_ok=True)
    if workload in PROTOCOL:
        X, Y = datagen.generate(PROTOCOL[workload]["shape"], "binary", seed)
        return {"data.sml": datagen.write(os.path.join(workdir, "data.sml"), datagen.to_sparse_text(X, Y))}
    n = datagen.SHAPES[CLI_SHAPE][0]
    X, Y = datagen.generate(CLI_SHAPE, "real", seed, rows=n + n // 2)
    return {
        "train.csv": datagen.write(os.path.join(workdir, "train.csv"), datagen.to_dense_text(X[:n], Y[:n])),
        "test.csv": datagen.write(os.path.join(workdir, "test.csv"), datagen.to_dense_text(X[n:], Y[n:])),
    }


# ---------------------------------------------------------------- passes


def protocol_pass(pmltk, workload: str, seed: int, workdir: str) -> dict:
    """One run_benchmark call; an operation is one split."""
    spec = PROTOCOL[workload]
    cfg = pmltk.ExperimentConfig(
        dataset=os.path.join(workdir, "data.sml"),
        noise=100,
        splits=spec["splits"],
        k=10,
        alpha=0.05,
        lambda2=spec["lambda2"],
        lambda2_grid=GRID,
        cv_folds=5,
        seed=seed,
    )
    problems = []
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            report = pmltk.run_benchmark(cfg)
        except Exception:
            report = None
            problems.append(traceback.format_exc(limit=3))
    if report is None:
        return {"report": None, "attempted": spec["splits"], "failed": spec["splits"], "problems": problems}
    splits = report.get("per_split", [])
    lambdas = report.get("lambda2_per_split", [])
    bad = set()
    if len(splits) != spec["splits"] or len(lambdas) != spec["splits"]:
        problems.append(f"report has {len(splits)} splits / {len(lambdas)} lambda2 values, expected {spec['splits']}")
        bad.update(range(spec["splits"]))
    for i, split_report in enumerate(splits):
        p = metric_problems(split_report, f"split {i}")
        allowed = GRID if spec["lambda2"] is None else (spec["lambda2"],)
        if i < len(lambdas) and lambdas[i] not in allowed:
            p.append(f"split {i}: lambda2={lambdas[i]!r} not in {allowed}")
        if p:
            problems += p
            bad.add(i)
    mean_problems = metric_problems(report.get("mean", {}), "mean")
    if mean_problems:
        problems += mean_problems
        bad.update(range(spec["splits"]))
    return {
        "report": report,
        "ap": report.get("mean", {}).get("ap"),
        "attempted": spec["splits"],
        "failed": len(bad),
        "problems": problems,
    }


def cli_commands(seed: int, workdir: str) -> list[tuple[str, list[str]]]:
    p = {name: os.path.join(workdir, name) for name in
         ("train.csv", "test.csv", "noisy.csv", "yhat.csv", "model.txt", "preds.csv", "report.json")}
    dense = ["--data-format", "dense-csv"]
    return [
        ("inject-noise", ["inject-noise", p["train.csv"], *dense, "--noise", "100",
                          "--seed", str(seed), "--out", p["noisy.csv"]]),
        ("enrich", ["enrich", p["noisy.csv"], *dense, "--k", "10", "--alpha", "0.05",
                    "--out", p["yhat.csv"]]),
        ("train", ["train", p["noisy.csv"], *dense, "--enrichment", p["yhat.csv"],
                   "--lambda2", "10", "--out", p["model.txt"]]),
        ("predict", ["predict", p["model.txt"], p["test.csv"], *dense, "--out", p["preds.csv"]]),
        ("evaluate", ["evaluate", p["preds.csv"], p["test.csv"], *dense, "--format", "json",
                      "--out", p["report.json"]]),
    ]


def check_cli_outputs(pmltk, workdir: str) -> tuple[dict[str, list[str]], dict | None]:
    """Load every file the round trip wrote back and check its shape."""
    n, d, l = datagen.SHAPES[CLI_SHAPE]
    m = n // 2

    def path(name):
        return os.path.join(workdir, name)

    # command -> (load its output, shape of what loaded, expected shape)
    checks = {
        "inject-noise": (lambda: pmltk.load(path("noisy.csv"), "dense-csv"),
                         lambda ds: (ds.n, ds.d, ds.l), (n, d, l)),
        "enrich": (lambda: pmltk.load_enrichment(path("yhat.csv")), lambda em: em.Yhat.shape, (n, l)),
        "train": (lambda: pmltk.load_model(path("model.txt")), lambda model: model.W.shape, (d, l)),
        "predict": (lambda: pmltk.trainer.load_predictions(path("preds.csv")),
                    lambda sl: (sl[0].shape, sl[1].shape), ((m, l), (m, l))),
    }
    problems: dict[str, list[str]] = {cmd: [] for cmd in CLI_COMMANDS}
    for cmd, (load, shape, expected) in checks.items():
        try:
            got = shape(load())
        except Exception as exc:
            problems[cmd].append(f"{cmd} output does not load: {exc}")
            continue
        if got != expected:
            problems[cmd].append(f"{cmd} output has shape {got}, expected {expected}")
    try:
        with open(path("report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        problems["evaluate"] += metric_problems(report, "evaluate report")
    except (OSError, ValueError) as exc:
        problems["evaluate"].append(f"evaluate report does not load: {exc}")
        report = None
    return problems, report


def cli_pass(pmltk, tracer: Tracer, seed: int, workdir: str) -> dict:
    """Five CLI commands in-process; an operation is one command."""
    for name in ("noisy.csv", "yhat.csv", "model.txt", "preds.csv", "report.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(workdir, name))
    codes = {}
    problems = []
    for cmd, argv in cli_commands(seed, workdir):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span(f"cli.{cmd}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                codes[cmd] = pmltk.cli.main(argv)
            except Exception:
                codes[cmd] = None
                err.write(traceback.format_exc(limit=3))
        if codes[cmd] != 0:
            problems.append(f"{cmd} exited {codes[cmd]!r}: {err.getvalue().strip()}")
            break
    return {"codes": codes, "problems": problems}


def finish_cli_pass(pmltk, rec: dict, workdir: str) -> dict:
    output_problems, report = check_cli_outputs(pmltk, workdir)
    failed = 0
    for cmd in CLI_COMMANDS:
        if rec["codes"].get(cmd) != 0 or output_problems[cmd]:
            failed += 1
            rec["problems"] += output_problems[cmd]
    rec.update(report=report, ap=(report or {}).get("ap"), attempted=len(CLI_COMMANDS), failed=failed)
    return rec


def run_pass(pmltk, tracer: Tracer, workload: str, seed: int, workdir: str, traced: bool) -> dict:
    tracer.enabled = traced
    cpu0, t0 = time.process_time(), time.perf_counter()
    with tracer.span("pass"):
        if workload in PROTOCOL:
            rec = protocol_pass(pmltk, workload, seed, workdir)
        else:
            rec = cli_pass(pmltk, tracer, seed, workdir)
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    tracer.enabled = False
    if traced:
        tracer.passes += 1
    if workload not in PROTOCOL:
        rec = finish_cli_pass(pmltk, rec, workdir)
    rec.update(wall_s=wall, cpu_s=cpu, traced=traced,
               fingerprint=None if rec["report"] is None else fingerprint(rec["report"]))
    return rec


# ---------------------------------------------------------------- environment


def blas_threads() -> dict:
    """Thread count each bundled OpenBLAS will use (read-only query)."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception as exc:  # build info is best-effort metadata
            return f"unknown ({exc})"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import pmltk
    import pmltk.cli  # noqa: F401  (loaded before tracing patches namespaces)

    src = os.path.realpath(os.path.join(ROOT, "src", "pmltk"))
    if os.path.dirname(os.path.realpath(pmltk.__file__)) != src:
        print(f"pmltk imported from {pmltk.__file__}, not from {src}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    hashes = setup(args.workload, args.seed, workdir)
    emit({"event": "ready", "t_ready": time.monotonic(), "sha256": hashes})
    if args.setup_only:
        return 0

    tracer = Tracer()
    if args.trace:
        tracer.install()
    passes = []
    start = time.perf_counter()
    # The traced run alternates untraced and traced passes, in pairs.
    step = 2 if args.trace else 1
    while True:
        for _ in range(step):
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(pmltk, tracer, args.workload, args.seed, workdir, traced))
        elapsed = time.perf_counter() - start
        if elapsed + step * statistics.median(p["wall_s"] for p in passes) > args.seconds:
            break
    tracer.uninstall()

    result = {
        "event": "result",
        "env": environment(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: v for k, v in p.items() if k != "report"} for p in passes],
        "report": passes[0]["report"],
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics()
        spans_path = os.path.join(workdir, "spans.json")
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
        result["spans_file"] = spans_path
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
