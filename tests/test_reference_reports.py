"""The benchmark's seed-0 passes reproduce the reference reports in
``bench/baseline.json``.

genbase-cv, medical-fixed and cli-roundtrip each run one pass in-process,
through ``bench/worker.py``'s ``setup`` and ``run_pass``, on the data
``bench/datagen.py`` generates. With the numpy and scipy builds and the
two BLAS builds the references were recorded with, every report's sha256
must equal its reference and every file cli-roundtrip writes must keep
its bytes: the run is deterministic per build. With other builds a
report may drift from its reference by the benchmark's bound
(``bench/run.py``'s ``DRIFT_TOL``) and the files are not compared.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

import pmltk
import pmltk.cli  # noqa: F401  (the cli-roundtrip pass calls pmltk.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"
BASELINE = json.loads((BENCH / "baseline.json").read_text(encoding="utf-8"))
BUILD_KEYS = ("numpy", "scipy", "numpy_blas", "scipy_blas")

# sha256 of the five files the seed-0 cli-roundtrip pass writes
CLI_FILES = {
    "noisy.csv": "acc3ba95a2d0add6294c3206eef6773fba0e087ce6805800294b0a977ffb032d",
    "yhat.csv": "cf7e0bb7de4c03db52e111c3f0585ee006ea11edf21eaf6ca38aad38ce51d78b",
    "model.txt": "8dc71cc31bf54b1db83c7b0095022656e4d25263670de3f20d7f849f329afd7f",
    "preds.csv": "e28508d1918974cc8eceb9d213ef960619e99b6e61ce890c3902d72d2d87f131",
    "report.json": "62a0208eb8d8ad3a04d42b4a0f2f703875d0303f6bd751df61eef03cab7a941e",
}


@pytest.fixture(scope="module")
def bench():
    """``bench/``'s ``run``, ``tracing`` and ``worker`` modules, imported as
    ``bench/run.py`` starts them: with ``bench/`` on ``sys.path``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield tuple(importlib.import_module(name) for name in ("run", "tracing", "worker"))


@pytest.fixture(scope="module")
def same_build(bench):
    """Whether numpy, scipy and both BLAS builds are the references'."""
    _, _, worker = bench
    env = worker.environment()
    return all(env[key] == BASELINE["env"][key] for key in BUILD_KEYS)


@pytest.mark.parametrize("workload", ["genbase-cv", "medical-fixed", "cli-roundtrip"])
def test_seed0_pass_matches_reference(bench, same_build, tmp_path, workload):
    run, tracing, worker = bench
    worker.setup(workload, 0, str(tmp_path))
    rec = worker.run_pass(pmltk, tracing.Tracer(), workload, 0, str(tmp_path), False)
    assert rec["failed"] == 0, rec["problems"]
    reference = BASELINE["reference_reports"][workload]["0"]
    if not same_build:
        assert run.report_drift(rec["report"], reference["report"]) <= run.DRIFT_TOL
        return
    assert rec["fingerprint"] == reference["sha256"]
    if workload == "cli-roundtrip":
        written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in CLI_FILES}
        assert written == CLI_FILES
