"""Invariances the learner keeps through ``enrich``, ``fit``, ``predict``
and ``evaluate``.

Permuting the label columns permutes the enrichment, the scores and the
predicted labels the same way and leaves every metric and iteration
count as it was. Permuting the training rows does the same on
real-valued features, where no two distances tie. On binary features it
need not: ``build_knn`` breaks distance ties toward the smaller row
index, so the row order can pick the neighbour set.
"""

import numpy as np
import pytest
from helpers import fix_label_rows

from pmltk import (
    Dataset,
    KnnConfig,
    PropagationConfig,
    TrainerConfig,
    build_graph,
    enrich,
    evaluate,
    fit,
    predict,
)
from pmltk import enrichment

TOL = 1e-12


def noisy_split(binary, seed, n=60, m=20, d=12, l=6):
    """A training ``Dataset`` whose candidates add noise labels to the
    truth, and test features with their truth. Binary features get a
    constant-1 column: a zero row would score 0 on every label, and the
    metrics break score ties toward the smaller label index."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n + m, d)) < 0.3).astype(np.float64) if binary else rng.normal(size=(n + m, d))
    if binary:
        X[:, 0] = 1.0
    T = fix_label_rows((rng.random((n + m, l)) < 0.3).astype(np.int8), rng)
    Y = T | (rng.random((n + m, l)) < 0.2).astype(np.int8)
    Y[Y.sum(axis=1) == l] = T[Y.sum(axis=1) == l]
    return Dataset(X[:n], Y[:n], T[:n]), X[n:], T[n:]


def learn(monkeypatch, train, X_test, T_test):
    """The enrichment, test scores, test labels and metrics of one run,
    with its (propagation, outer) iteration counts."""
    steps = []
    normalize = enrichment.normalize_step
    monkeypatch.setattr(enrichment, "normalize_step", lambda F, Y: steps.append(1) or normalize(F, Y))
    em = enrich(train, build_graph(train.X, KnnConfig(k=5)), PropagationConfig(alpha=0.5))
    # outer_tol stops both fits before the cap, so the outer counts are compared
    monkeypatch.setattr(TrainerConfig, "outer_tol", 1e-3)
    model, _, trace = fit(train.X, em.Yhat, train.Y, TrainerConfig())
    assert len(trace) - 1 < TrainerConfig().outer_max
    scores, labels = predict(model, X_test)
    return em.Yhat, scores, labels, evaluate(scores, labels, T_test).to_dict(), (len(steps), len(trace) - 1)


@pytest.mark.parametrize("binary", [True, False], ids=["binary", "real"])
@pytest.mark.parametrize("seed", [0, 1])
def test_label_permutation_equivariance(monkeypatch, binary, seed):
    train, X_test, T_test = noisy_split(binary, seed)
    perm = np.random.default_rng(seed + 100).permutation(train.l)
    Yhat, scores, labels, report, iters = learn(monkeypatch, train, X_test, T_test)
    permuted = Dataset(train.X, train.Y[:, perm], train.Ytruth[:, perm])
    Yhat_p, scores_p, labels_p, report_p, iters_p = learn(monkeypatch, permuted, X_test, T_test[:, perm])
    assert np.abs(Yhat_p - Yhat[:, perm]).max() <= TOL
    assert np.abs(scores_p - scores[:, perm]).max() <= TOL
    assert (labels_p == labels[:, perm]).all()
    assert report_p == pytest.approx(report, abs=TOL)
    assert iters_p == iters


@pytest.mark.parametrize("seed", [0, 1])
def test_row_permutation_equivariance_on_real_features(monkeypatch, seed):
    train, X_test, T_test = noisy_split(False, seed)
    perm = np.random.default_rng(seed + 100).permutation(train.n)
    Yhat, scores, labels, report, iters = learn(monkeypatch, train, X_test, T_test)
    permuted = Dataset(train.X[perm], train.Y[perm], train.Ytruth[perm])
    Yhat_p, scores_p, labels_p, report_p, iters_p = learn(monkeypatch, permuted, X_test, T_test)
    assert np.abs(Yhat_p - Yhat[perm]).max() <= TOL
    assert np.abs(scores_p - scores).max() <= TOL
    assert (labels_p == labels).all()
    assert report_p == pytest.approx(report, abs=TOL)
    assert iters_p == iters
