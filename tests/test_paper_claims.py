"""Properties the paper claims, checked on the benchmark's synthetic data.

Acceptance criteria 1-3 need the real Genbase and Medical files, which are
not bundled. The Genbase-shaped data that ``bench/datagen.py`` generates
poses the same shape of problem, so the properties that do not depend on
the real numbers are checked on it here, on fixed seeds.
"""

import importlib
from pathlib import Path

import pytest

from pmltk import ExperimentConfig, run_benchmark


@pytest.fixture()
def datagen(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("datagen")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noise_monotonicity_on_genbase_shaped_data(datagen, tmp_path, seed):
    # criterion 3's property at its tolerance: AP with a=50 % irrelevant
    # candidates per true label is no worse than with a=200 %, less 0.01
    X, Y = datagen.generate("genbase", "binary", seed)
    path = tmp_path / "genbase.sml"
    datagen.write(path, datagen.to_sparse_text(X, Y))
    ap = {
        noise: run_benchmark(ExperimentConfig(str(path), noise=noise, splits=1, k=10, alpha=0.05,
                                              lambda2=10.0, seed=seed))["mean"]["ap"]
        for noise in (50, 200)
    }
    assert ap[50] >= ap[200] - 0.01
