import logging

import numpy as np
import pytest
from helpers import fix_label_rows, random_dataset
from hypothesis import given, settings
from hypothesis import strategies as st

from pmltk import (
    ConfigError,
    Dataset,
    KnnConfig,
    PropagationConfig,
    ShapeError,
    ValidationError,
    build_graph,
    enrich,
)
from pmltk import enrichment
from pmltk.enrichment import load_enrichment, normalize_step, save_enrichment
from pmltk.graph import WeightGraph


def two_node_graph():
    return WeightGraph(np.array([[1], [0]]), np.array([[1.0], [1.0]]))


def propagated(monkeypatch, Y, graph, alpha, first=None):
    """The scores ``enrich`` hands to ``normalize_step`` in its first
    iteration, or in its second when the first normalization returns
    ``first``: ``alpha * V.T @ F_prev + (1 - alpha) * F0`` with F0 = Y."""
    seen, returns = [], [] if first is None else [first]

    def record(F, _Y):
        seen.append(F.copy())
        return returns.pop() if returns else F

    monkeypatch.setattr(enrichment, "normalize_step", record)
    cfg = PropagationConfig(alpha=alpha, max_iters=len(returns) + 1)
    enrich(Dataset(np.zeros((graph.n, 1)), Y), graph, cfg)
    return seen[-1]


class TestPropagateStep:
    def test_zero_alpha_returns_original(self, monkeypatch):
        g = two_node_graph()
        Y = np.array([[1, 0], [0, 1]])
        F_prev = np.array([[0.3, 0.4], [0.9, 0.1]])
        assert (propagated(monkeypatch, Y, g, 0.0, first=F_prev) == Y).all()

    def test_mutual_neighbors_half_mix(self, monkeypatch):
        g = two_node_graph()
        out = propagated(monkeypatch, np.array([[1, 0], [0, 1]]), g, 0.5)
        assert np.allclose(out, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_preserves_nonnegativity(self, monkeypatch):
        rng = np.random.default_rng(0)
        g = build_graph(rng.normal(size=(12, 3)), KnnConfig(k=4))
        Y = fix_label_rows((rng.random((12, 5)) < 0.5).astype(np.int8), rng)
        assert (propagated(monkeypatch, Y, g, 1.0) >= 0).all()


class TestNormalizeStep:
    def test_hand_computed_row(self):
        F = np.array([[0.2, 0.8, 0.5]])
        Y = np.array([[1, 1, 0]])
        out = normalize_step(F, Y)
        assert np.allclose(out, [[0.0, 1.0, 0.5]], atol=1e-15)

    def test_noncandidate_above_candidate_max_capped(self):
        F = np.array([[0.2, 0.5, 0.9]])
        Y = np.array([[1, 1, 0]])
        out = normalize_step(F, Y)
        # raw ratio would be (0.9 - 0.2) / 0.3 = 2.33; the cap pins it at 1
        assert out[0, 2] == 1.0
        assert np.allclose(out[0, :2], [0.0, 1.0], atol=1e-15)

    def test_single_candidate_at_row_min_is_degenerate(self):
        # candidate max equals the row min, so the fallback fires
        out = normalize_step(np.array([[0.2, 0.9]]), np.array([[1, 0]]))
        assert out.tolist() == [[1.0, 0.0]]

    def test_constant_row_fallback(self):
        F = np.array([[0.4, 0.4, 0.4]])
        Y = np.array([[0, 1, 1]])
        assert normalize_step(F, Y).tolist() == [[0.0, 1.0, 1.0]]

    def test_row_without_candidates_rejected(self):
        with pytest.raises(ValidationError):
            normalize_step(np.ones((1, 2)), np.array([[0, 0]]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_range_and_pinned_max(self, seed):
        rng = np.random.default_rng(seed)
        n, l = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        F = rng.random((n, l)) * rng.uniform(0.5, 3.0)
        Y = np.zeros((n, l), dtype=np.int8)
        for i in range(n):
            Y[i, rng.choice(l, size=int(rng.integers(1, l)), replace=False)] = 1
        out = normalize_step(F, Y)
        assert (out >= 0).all() and (out <= 1).all()
        # per-row candidate maximum lands exactly on 1 unless degenerate
        M = np.where(Y == 1, F, -np.inf).max(axis=1)
        span = M - F.min(axis=1)
        for i in range(n):
            if span[i] > 1e-12:
                assert np.where(Y[i] == 1, out[i], -np.inf).max() == 1.0


class TestEnrich:
    def test_zero_alpha_signs_candidates(self):
        ds = random_dataset(n=12, d=3, l=4, seed=1)
        g = build_graph(ds.X, KnnConfig(k=3))
        em = enrich(ds, g, PropagationConfig(alpha=0.0))
        cand = ds.Y == 1
        assert (em.Yhat[cand] == 1.0).all()
        assert (em.Yhat[~cand] == -1.0).all()

    def test_signing_rule(self):
        # candidate keeps its degree, non-candidate is shifted down by one
        ds = random_dataset(n=15, d=3, l=4, seed=2)
        g = build_graph(ds.X, KnnConfig(k=4))
        em = enrich(ds, g, PropagationConfig())
        cand = ds.Y == 1
        assert (em.Yhat[cand] >= 0).all() and (em.Yhat[cand] <= 1).all()
        assert (em.Yhat[~cand] >= -1).all() and (em.Yhat[~cand] <= 0).all()
        # undoing the shift recovers the converged scores, which must be a
        # fixed point of the row normalization
        F = np.where(cand, em.Yhat, em.Yhat + 1.0)
        assert (normalize_step(F, ds.Y) == F).all()

    def test_single_pass_hand_trace(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        ds = Dataset(X, np.array([[1, 0], [0, 1]]))
        g = two_node_graph()
        em = enrich(ds, g, PropagationConfig(alpha=0.5, tol=np.inf))
        # one propagate gives the constant 0.5 matrix; per-row normalization is
        # degenerate and resets candidates to 1, so signing yields +-1
        assert em.Yhat.tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_zero_graph_fixed_point_in_one_iteration(self):
        ds = random_dataset(n=10, d=3, l=5, seed=3)
        nbrs = np.stack([(np.arange(10) + 1) % 10, (np.arange(10) + 2) % 10], axis=1)
        zero = WeightGraph(nbrs, np.zeros((10, 2)))
        one = enrich(ds, zero, PropagationConfig(max_iters=1))
        many = enrich(ds, zero, PropagationConfig(max_iters=100))
        assert (one.Yhat == many.Yhat).all()

    def test_deterministic(self):
        ds = random_dataset(n=25, d=4, l=6, seed=4)
        g = build_graph(ds.X, KnnConfig(k=5))
        a = enrich(ds, g, PropagationConfig())
        b = enrich(ds, g, PropagationConfig())
        assert a.Yhat.tobytes() == b.Yhat.tobytes()

    def test_graph_size_mismatch(self):
        ds = random_dataset(n=10, seed=0)
        with pytest.raises(ShapeError):
            enrich(ds, two_node_graph(), PropagationConfig())

    def test_warns_when_capped(self, caplog):
        ds = random_dataset(n=15, d=3, l=4, seed=2)
        g = build_graph(ds.X, KnnConfig(k=4))
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            enrich(ds, g, PropagationConfig(max_iters=1, tol=1e-12))
        [record] = caplog.records
        assert record.name == "pmltk.enrichment"
        F0 = ds.Y.astype(float)
        F1 = normalize_step(0.05 * (g.matrix().T @ F0) + (1.0 - 0.05) * F0, ds.Y)
        change = np.linalg.norm(F1 - F0) / max(1.0, np.linalg.norm(F0))
        assert "max_iters=1" in record.getMessage()
        assert f"last relative change {change:.3g}" in record.getMessage()

    def test_silent_when_converged(self, caplog):
        ds = random_dataset(n=15, d=3, l=4, seed=2)
        g = build_graph(ds.X, KnnConfig(k=4))
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            enrich(ds, g, PropagationConfig())
        assert caplog.records == []


class TestConfig:
    def test_alpha_range(self):
        with pytest.raises(ConfigError):
            PropagationConfig(alpha=1.5)
        with pytest.raises(ConfigError):
            PropagationConfig(alpha=-0.1)

    def test_tol_positive(self):
        with pytest.raises(ConfigError):
            PropagationConfig(tol=0.0)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = random_dataset(n=9, d=3, l=4, seed=6)
        g = build_graph(ds.X, KnnConfig(k=3))
        em = enrich(ds, g, PropagationConfig())
        p = tmp_path / "yhat.csv"
        save_enrichment(em, p)
        back = load_enrichment(p)
        assert back.Yhat.tobytes() == em.Yhat.tobytes()
        header = p.read_text().splitlines()[0]
        assert header == f"#{em.n} {em.l}"
