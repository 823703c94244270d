import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from helpers import clustered_dataset

import pmltk
from pmltk import TrainerConfig, fit
from pmltk.data import save
from pmltk._blas import single_threaded, thread_counts

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestSingleThreaded:
    def test_pins_and_restores_when_nested(self):
        before = thread_counts()
        with single_threaded:
            assert thread_counts() == [1] * len(before)
            with single_threaded:
                assert thread_counts() == [1] * len(before)
            assert thread_counts() == [1] * len(before)
        assert thread_counts() == before

    def test_restores_after_error(self):
        before = thread_counts()
        with pytest.raises(ValueError):
            with single_threaded:
                raise ValueError("boom")
        assert thread_counts() == before

    def test_fit_leaves_thread_count_unchanged(self):
        ds = clustered_dataset(n=30, d=5, l=4, groups=3, seed=2)
        before = thread_counts()
        fit(ds.X, ds.Y.astype(float), ds.Y, TrainerConfig())
        assert thread_counts() == before

    def test_concurrent_callers(self):
        # More threads than cores and a short switch interval: a lost update
        # of the depth counter restores the count while a caller is inside.
        before = thread_counts()
        errors = []

        def worker():
            for _ in range(2000):
                with single_threaded:
                    counts = thread_counts()
                    if counts != [1] * len(before):
                        errors.append(counts)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(2 * (os.cpu_count() or 1) + 2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert thread_counts() == before


def test_model_and_predictions_independent_of_blas_threads(tmp_path):
    """Train and predict in two processes, one with OPENBLAS_NUM_THREADS=1 and
    one with the library default; the written files must be byte-identical.

    At this size multithreaded OpenBLAS rounds W differently from a single
    thread, so the files differ unless pmltk pins the count. On a one-core
    host the default is one thread and the test cannot tell the two apart.
    """
    ds = clustered_dataset(n=200, d=100, l=10, groups=10, seed=3, scale=1.0)
    data = tmp_path / "data.sml"
    save(ds, data, "sparse-multilabel")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pmltk.__file__)))
    script = (
        "import sys; from pmltk.cli import main; d, m, p = sys.argv[1:]; "
        "sys.exit(main(['train', d, '--lambda2', '10', '--out', m]) "
        "or main(['predict', m, d, '--out', p]))"
    )
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        model, preds = tmp_path / f"model-{threads}.txt", tmp_path / f"preds-{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(data), str(model), str(preds)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((model.read_bytes(), preds.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert np.isfinite(pmltk.load_model(tmp_path / "model-1.txt").W).all()
