"""Layered benchmark for pmltk's two-stage learner.

Run from the repository root::

    python3 bench/run.py --workload genbase-cv --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 0 --trace 1

Each workload runs in fresh child processes (``worker.py``), one caller at
a time in a closed loop: a pass starts when the previous one ends, and no
pass starts that would overrun ``--seconds``. The children import pmltk
from ``src/`` of this checkout and run without the BLAS thread variables,
so BLAS uses its default thread count. Set-up (interpreter start, import,
data generation and writing) is timed in several children and the median
reported. ``--trace 1`` alternates untraced and traced passes and reports
the per-layer numbers. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit, plus the environment. Each result and the
traced spans are kept under ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5  # set-up samples per run: SETUP_RUNS-1 set-up-only children + the worker
TIME_LIMIT_S = 170.0
# Largest difference from the stored reference report that still counts as
# the same output: far below one flipped label or rank, far above rounding.
DRIFT_TOL = 1e-3


class BenchError(Exception):
    pass


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_reference() -> dict:
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh)


def src_info() -> dict:
    """The git commit when the checkout is a git tree, and the src line count."""
    files = sorted(
        os.path.join(d, f)
        for d, _, fs in os.walk(os.path.join(ROOT, "src"))
        for f in fs
        if f.endswith(".py")
    )
    lines = 0
    for f in files:
        with open(f, "rb") as fh:
            lines += fh.read().count(b"\n")
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"git_commit": commit, "src_lines": lines}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_child(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Start one worker; return its last JSON message and its set-up seconds."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{args.workload} worker ran past the time limit")
    messages = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not messages:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}")
    ready = next((m for m in messages if m.get("event") == "ready"), None)
    if ready is None:
        raise BenchError(f"{args.workload} worker never became ready")
    return messages[-1] | {"sha256": ready["sha256"]}, ready["t_ready"] - t_spawn


def quartiles(values) -> tuple[float, float, float]:
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report_drift(report, reference) -> float | None:
    """Max absolute difference over every number in two reports of one shape."""
    if reference is None or report is None:
        return None

    def numbers(obj):
        if isinstance(obj, dict):
            for key in sorted(obj):
                yield from numbers(obj[key])
        elif isinstance(obj, list):
            for item in obj:
                yield from numbers(item)
        elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield float(obj)

    a, b = list(numbers(report)), list(numbers(reference))
    if len(a) != len(b):
        return math.inf
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def run_workload(args, manifest: dict, deadline: float) -> dict:
    setup_s, hashes = [], []
    for _ in range(SETUP_RUNS - 1):
        msg, seconds = run_child(args, deadline, setup_only=True)
        setup_s.append(seconds)
        hashes.append(msg["sha256"])
    result, seconds = run_child(args, deadline, setup_only=False)
    setup_s.append(seconds)
    hashes.append(result["sha256"])

    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = [q for p in passes for q in p["problems"]]
    if any(h != hashes[0] for h in hashes):
        problems.append(f"generator wrote different bytes for one seed: {hashes}")
    fingerprints = {p["fingerprint"] for p in passes}
    if len(fingerprints) != 1:
        problems.append(f"passes gave {len(fingerprints)} different report fingerprints")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)

    reference = load_reference()["reference_reports"].get(args.workload, {}).get(str(args.seed))
    drift = report_drift(result["report"], reference and reference["report"])
    notices = []
    if reference is not None and result["report"] is not None:
        if drift > DRIFT_TOL:
            problems.append(f"report differs from the reference for seed {args.seed} by {drift:.6g}"
                            f" (tolerance {DRIFT_TOL:g})")
        elif reference["sha256"] not in fingerprints:
            notices.append(f"report fingerprint differs from the reference for seed {args.seed};"
                           f" largest difference {drift:.3g} is within tolerance {DRIFT_TOL:g}")

    summary = {
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "setup_s": setup_s,
    }
    values = {name: statistics.median(v) for name, v in summary.items()}
    values["peak_rss_mb"] = result["peak_rss_mb"]
    aps = [p["ap"] for p in passes if p["ap"] is not None]
    values["ap"] = statistics.median(aps) if aps else float("nan")  # no report: correct is false
    if args.trace:
        values.update(result["layers"])
        values["trace_overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - values["wall_s"]
        )
    wanted = manifest["per_layer"] if args.trace else manifest["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": result["env"] | {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))} | src_info(),
        "quartiles": {name: quartiles(v) for name, v in summary.items()},
        "samples": {name: len(v) for name, v in summary.items()},
        "report_fingerprint": sorted(f for f in fingerprints if f),
        "reference_fingerprint": reference and reference["sha256"],
        "report_drift": drift,
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": problems,
        "notices": notices,
        "passes": passes,
        "report": result["report"],
        "input_sha256": hashes[0],
        "spans_file": result.get("spans_file"),
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"== {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}"
          f" (untraced {len(plain)}, traced {len(traced)})")
    for name, m in metrics.items():
        q = detail["quartiles"].get(name)
        spread = f"  q1={q[0]:.6g} q3={q[2]:.6g} n={detail['samples'][name]}" if q else ""
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{spread}")
    print(f"{'report_drift':40s} {drift if drift is not None else 'n/a (no reference for this seed)'}")
    print(f"{'failed_frac':40s} {detail['failed_frac']:.6g} ({failed}/{attempted})")
    print(f"{'report_fingerprint':40s} {', '.join(detail['report_fingerprint'])}")
    print("env " + json.dumps(detail["env"], sort_keys=True))
    for n in notices:
        print("notice: " + n)
    for p in problems:
        print("problem: " + p.replace("\n", " | "))
    return {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    manifest = load_manifest()
    workloads = tuple(w["name"] for w in manifest["workloads"])
    ap = argparse.ArgumentParser(description="pmltk layered benchmark")
    ap.add_argument("--workload", choices=workloads + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds in BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pmltk", "__init__.py")):
        print(f"error: no pmltk sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = manifest["run_seconds"]
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S  # per workload
        try:
            results[name] = run_workload(argparse.Namespace(**vars(args) | {"workload": name}),
                                         manifest, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
