import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from helpers import brute_force_knn, nnls_kkt_residual, nnls_objective, reference_nnls

import pmltk
from pmltk import (
    ConfigError,
    KnnConfig,
    NumericError,
    ValidationError,
    build_graph,
    nnls,
)
from pmltk.graph import NNLS_STEPS_PER_COLUMN, WeightGraph, _nnls_stack, build_knn, normalize_rows


def duplicated_binary_rows(seed):
    """Rows that repeat a few binary patterns or unions of two of them, so
    neighbor columns are duplicated or linearly dependent. At a unit of
    300 the gradient's roundoff exceeds the NNLS tolerance, a dependent
    column enters the passive set and its block of A.T A is singular."""
    rng = np.random.default_rng(seed)
    base = rng.random((10, 30)) < 0.5
    X = base[rng.integers(0, 10, size=40)]
    X[:20] |= base[rng.integers(0, 10, size=20)]
    return X * 300.0


def neighbor_problems(X, k):
    """The (A, b) pair of every row's weight solve in the kNN graph."""
    nbrs = build_knn(X, KnnConfig(k=k))
    return [(X[nbrs[i]].T, X[i]) for i in range(len(X))]


def normal_equations(problems):
    G = np.stack([A.T @ A for A, _ in problems])
    c = np.stack([A.T @ b for A, b in problems])
    return G, c


def assert_matches_oracle(problems, got):
    """Same support as the single-row loop, weights within 1e-12 relative."""
    for i, ((A, b), v) in enumerate(zip(problems, got)):
        ref = reference_nnls(A, b)
        assert ((v > 0) == (ref > 0)).all(), f"row {i}"
        assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max(), f"row {i}"


class TestBuildKnn:
    def test_line_example(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        nbrs = build_knn(X, KnnConfig(k=1))
        assert nbrs.tolist() == [[1], [0], [1]]

    @pytest.mark.parametrize("X, k, expected", [
        pytest.param(np.ones((3, 2)), 1, [[1], [0], [0]], id="all-tied"),
        # 12 duplicates after 3 other rows: more than k rows tie at the k-th distance
        pytest.param(
            np.vstack([[[0.0, 0.0], [3.0, 1.0], [1.0, 5.0]], np.ones((12, 2))]), 3,
            [[3, 4, 5]] * 3 + [[j for j in range(3, 15) if j != i][:3] for i in range(3, 15)],
            id="more-ties-than-k",
        ),
    ])
    def test_duplicate_rows_tie_break(self, X, k, expected):
        nbrs = build_knn(X, KnnConfig(k=k))
        # smaller index wins among exact ties, excluding self
        assert nbrs.tolist() == expected

    def test_full_neighborhood(self):
        X = np.arange(12.0).reshape(4, 3)
        nbrs = build_knn(X, KnnConfig(k=3))
        for i in range(4):
            assert sorted(nbrs[i]) == sorted(set(range(4)) - {i})

    def test_k_too_large(self):
        with pytest.raises(ConfigError):
            build_knn(np.zeros((3, 2)), KnnConfig(k=3))

    def test_non_finite_rejected(self):
        X = np.zeros((4, 2))
        X[2, 1] = np.nan
        with pytest.raises(NumericError):
            build_knn(X, KnnConfig(k=1))

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        # integer coordinates make both distance computations exact,
        # so ties are real and the tie-break rule is actually exercised
        X = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        k = int(rng.integers(1, 6))
        assert (build_knn(X, KnnConfig(k=k)) == brute_force_knn(X, k)).all()

    # A common offset cancels most digits of |xi|^2 + |xj|^2 - 2 xi.xj: at 1e6
    # that form misorders neighbors, at 1e7 it also picks the wrong ones.
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e7])
    def test_agrees_with_brute_force_floats(self, offset):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(200, 4)) + offset
        assert (build_knn(X, KnnConfig(k=7)) == brute_force_knn(X, 7)).all()


class TestNnls:
    def test_exact_reconstruction_single_neighbor(self):
        x = np.array([2.0, -1.0, 0.5])
        w = nnls(x[:, None], x)
        assert np.allclose(w, [1.0], atol=1e-12)

    def test_symmetric_pair(self):
        w = nnls(np.array([[1.0, 1.0], [1.0, -1.0]]).T, np.array([1.0, 0.0]))
        assert np.allclose(w, [0.5, 0.5], atol=1e-12)

    def test_nonnegativity_binds(self):
        w = nnls(np.array([[-1.0, 0.0]]).T, np.array([1.0, 0.0]))
        assert w.tolist() == [0.0]

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            nnls(np.ones((2, 2)).T, np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("seed", range(40))
    def test_kkt_and_feasible_point_dominance(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 11))
        d = int(rng.integers(1, 21))
        A = rng.normal(size=(d, k))
        b = rng.normal(size=d)
        v = nnls(A, b)
        assert (v >= 0).all()
        assert nnls_kkt_residual(A, b, v) <= 1e-8
        obj = nnls_objective(A, b, v)
        assert obj <= nnls_objective(A, b, np.zeros(k)) + 1e-9
        assert obj <= nnls_objective(A, b, np.full(k, 1.0 / k)) + 1e-9

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_reference_solver(self, seed):
        rng = np.random.default_rng(100 + seed)
        A = rng.normal(size=(12, 6))
        b = rng.normal(size=12)
        v = nnls(A, b)
        ref, _ = scipy.optimize.nnls(A, b)
        assert nnls_objective(A, b, v) <= nnls_objective(A, b, ref) + 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_active_set_least_squares_consistency(self, seed):
        rng = np.random.default_rng(200 + seed)
        A = rng.normal(size=(15, 8))
        b = rng.normal(size=15)
        v = nnls(A, b)
        support = np.flatnonzero(v > 0)
        if support.size:
            z, *_ = np.linalg.lstsq(A[:, support], b, rcond=None)
            assert np.abs(v[support] - z).max() <= 1e-8

    def test_import_leaves_scipy_optimize_unloaded(self):
        # importing scipy.optimize costs about 19 MB of resident memory and
        # a quarter of a second, and nothing in the package needs it
        src = os.path.dirname(os.path.dirname(os.path.abspath(pmltk.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        code = "import sys, pmltk, pmltk.cli; print('scipy.optimize' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_duplicate_columns(self):
        a = np.array([1.0, 2.0, 0.0])
        A = np.stack([a, a], axis=1)
        b = 3.0 * a
        v = nnls(A, b)
        assert np.allclose(A @ v, b, atol=1e-12)
        assert nnls_kkt_residual(A, b, v) <= 1e-8

    def test_zero_columns(self):
        v = nnls(np.zeros((3, 0)), np.ones(3))
        assert v.shape == (0,)


class TestNnlsStack:
    """The lock-step core against the single-row loop, one kind of row at a time."""

    @staticmethod
    def solve_and_count(problems):
        counts = []
        for A, b in problems:
            counts.append({})
            reference_nnls(A, b, counts[-1])
        return _nnls_stack(*normal_equations(problems)), counts

    def test_rows_that_stop_at_step_zero(self):
        # non-negative columns and a non-positive target: every gradient is <= 0
        rng = np.random.default_rng(5)
        problems = [(rng.random((12, 6)), -rng.random(12)) for _ in range(8)]
        got, counts = self.solve_and_count(problems)
        assert all(c["steps"] == 0 for c in counts)
        assert (got == 0).all()
        assert_matches_oracle(problems, got)

    def test_rows_that_take_blocking_steps(self):
        # fewer rows than columns: the passive set often overshoots
        rng = np.random.default_rng(3)
        problems = list(zip(rng.normal(size=(1000, 8, 10)), rng.normal(size=(1000, 8))))
        got, counts = self.solve_and_count(problems)
        # rows without blocking steps, with one and with two in a row, all
        # in the same stack
        assert {c["blocking_run"] for c in counts} == {0, 1, 2}
        assert_matches_oracle(problems, got)

    def test_rows_that_hit_the_step_cap(self):
        # more columns than rows around a large common offset: roundoff lets a
        # coordinate enter and leave again until the step cap
        problems = []
        for offset, seed in [(1e4, 285), (1e5, 53), (1e5, 167), (1e6, 173)]:
            rng = np.random.default_rng(seed)
            k, d = int(rng.integers(2, 9)), int(rng.integers(3, 20))
            problems.append((offset + rng.normal(size=(d, k)), offset + rng.normal(size=d)))
        rng = np.random.default_rng(7)
        problems += [(rng.normal(size=(6, 7)), rng.normal(size=6)) for _ in range(4)]
        got, counts = self.solve_and_count(problems)
        capped = [c["steps"] == NNLS_STEPS_PER_COLUMN * 7 + 10 for c in counts]
        assert capped == [True] * 4 + [False] * 4
        assert_matches_oracle(problems, got)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicated_binary_rows(self, seed):
        problems = neighbor_problems(duplicated_binary_rows(seed), 8)
        got, counts = self.solve_and_count(problems)
        if seed == 0:
            assert any(c["lstsq"] for c in counts)  # the singular fallback runs
        assert_matches_oracle(problems, got)

    def test_singular_row_leaves_the_others_alone(self):
        problems = neighbor_problems(duplicated_binary_rows(0), 8)
        singular = [i for i, c in enumerate(self.solve_and_count(problems)[1]) if c["lstsq"]]
        rng = np.random.default_rng(8)
        stack = [(rng.normal(size=(30, 8)), rng.normal(size=30)) for _ in range(20)]
        stack.insert(7, problems[singular[0]])
        G, c = normal_equations(stack)
        got = _nnls_stack(G, c)
        for i in range(len(stack)):
            assert (got[i] == _nnls_stack(G[i:i + 1], c[i:i + 1])[0]).all(), f"row {i}"

    def test_empty_stacks(self):
        assert _nnls_stack(np.zeros((0, 4, 4)), np.zeros((0, 4))).shape == (0, 4)
        assert _nnls_stack(np.zeros((3, 0, 0)), np.zeros((3, 0))).shape == (3, 0)


class TestNormalizeRows:
    NBRS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

    def test_plain_division(self):
        raw = np.array([[2.0, 2.0, 0.0], [1, 1, 1], [1, 1, 1], [1, 1, 1]], dtype=float)
        g = normalize_rows(self.NBRS, raw)
        assert g.weights[0].tolist() == [0.5, 0.5, 0.0]

    def test_zero_row_fallback(self):
        nbrs = np.array([[1, 2], [0, 2], [0, 1]])
        raw = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
        g = normalize_rows(nbrs, raw)
        assert g.weights[0].tolist() == [0.5, 0.5]

    def test_idempotent_on_normalized(self):
        nbrs = np.array([[1, 2], [0, 2], [0, 1]])
        w = np.array([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
        g = normalize_rows(nbrs, w)
        assert (g.weights == w).all()

    def test_rejects_negative(self):
        nbrs = np.array([[1], [0]])
        with pytest.raises(ValidationError):
            normalize_rows(nbrs, np.array([[-0.1], [1.0]]))


class TestWeightGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            WeightGraph(np.array([[0], [0]]), np.array([[1.0], [1.0]]))

    def test_matrix_layout(self):
        g = WeightGraph(np.array([[1, 2], [0, 2], [0, 1]]),
                        np.array([[0.3, 0.7], [1.0, 0.0], [0.5, 0.5]]))
        M = g.matrix().toarray()
        assert M[0, 1] == 0.3 and M[0, 2] == 0.7 and M[1, 0] == 1.0
        assert M.diagonal().sum() == 0.0


class TestBuildGraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one_with_support_on_neighbors(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(25, 4))
        g = build_graph(X, KnnConfig(k=6))
        assert np.abs(g.weights.sum(axis=1) - 1.0).max() <= 1e-12
        M = g.matrix().toarray()
        for i in range(25):
            off_support = np.setdiff1d(np.arange(25), g.neighbors[i])
            assert (M[i, off_support] == 0).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_rows_with_duplicates(self, seed):
        X = duplicated_binary_rows(seed)
        g = build_graph(X, KnnConfig(k=8))
        assert np.abs(g.weights.sum(axis=1) - 1.0).max() <= 1e-12
        for i in range(40):
            A = X[g.neighbors[i]].T
            assert nnls_kkt_residual(A, X[i], nnls(A, X[i])) <= 1e-8

    def test_solver_never_worse_than_trivial_points(self):
        rng = np.random.default_rng(77)
        X = rng.normal(size=(30, 5))
        cfg = KnnConfig(k=4)
        nbrs = build_knn(X, cfg)
        for i in range(30):
            A = X[nbrs[i]].T
            v = nnls(A, X[i])
            obj = nnls_objective(A, X[i], v)
            assert obj <= nnls_objective(A, X[i], np.zeros(4)) + 1e-9
            assert obj <= nnls_objective(A, X[i], np.full(4, 0.25)) + 1e-9

    @pytest.mark.parametrize("features", ["binary", "real"])
    def test_matches_oracle_on_benchmark_shaped_data(self, features, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        datagen = importlib.import_module("datagen")
        X, _ = datagen.generate("genbase", features, 3, rows=90)
        g = build_graph(X, KnnConfig(k=10))
        problems = [(X[g.neighbors[i]].T, X[i]) for i in range(len(X))]
        raw = np.stack([reference_nnls(A, b) for A, b in problems])
        ref = normalize_rows(g.neighbors, raw).weights
        assert ((g.weights > 0) == (ref > 0)).all()
        assert np.abs(g.weights - ref).max() <= 1e-12
