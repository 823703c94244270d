import logging
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from helpers import fix_label_rows, random_dataset, reference_fit, svt_objective, trainer_state

from pmltk import trainer
from pmltk import (ConfigError, NumericError, ShapeError, TrainerConfig, ValidationError, fit, predict,
                   prox_nuclear)
from pmltk.trainer import (
    Model,
    RidgeSolver,
    TrainerState,
    _cholesky,
    _solve,
    load_model,
    load_predictions,
    nuclear_norm,
    objective,
    save_model,
    save_predictions,
    update_b_admm,
    update_c,
    update_w,
)


def signed_enrichment(Y, rng):
    """Random matrix obeying the enrichment sign structure for mask Y."""
    F = rng.random(Y.shape)
    return np.where(Y == 1, F, F - 1.0)


def ridge_w(state, X, cfg):
    """Predictor from ``update_w``, after checking the fitted values and
    squared norm it returns against that predictor."""
    solver = RidgeSolver(X, cfg.lambda2)
    coef, XW, W_norm2 = update_w(state, solver)
    W = solver.predictor(coef)
    scale = max(1.0, np.abs(state.C).max())
    assert np.abs(XW - X @ W).max() <= 1e-10 * scale
    assert W_norm2 == pytest.approx(float(np.vdot(W, W)), rel=1e-10, abs=1e-10 * scale**2)
    return W


def random_state(X, l, rng, w_scale=1.0):
    n, d = X.shape
    return trainer_state(
        X,
        C=rng.random((n, l)),
        B=rng.normal(size=(l, l)),
        Theta=rng.normal(size=(l, l)),
        W=rng.normal(size=(d, l)) * w_scale,
    )


class TestObjective:
    def test_zero_state_is_enrichment_energy(self):
        rng = np.random.default_rng(0)
        Yhat = rng.normal(size=(4, 3))
        state = trainer_state(
            np.zeros((4, 2)), C=np.zeros((4, 3)), B=np.zeros((3, 3)),
            Theta=np.zeros((3, 3)), W=np.zeros((2, 3)),
        )
        val = objective(state, Yhat, TrainerConfig())
        assert val == pytest.approx((Yhat ** 2).sum(), abs=1e-12)

    def test_perfect_fit_zero_weights(self):
        X = np.eye(3)
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.eye(2)
        state = trainer_state(X, C=C, B=B, Theta=np.zeros((2, 2)), W=C)
        cfg = TrainerConfig(lambda1=0.0, lambda2=0.0)
        assert objective(state, C @ B, cfg) == 0.0

    def test_scalar_case(self):
        one = np.ones((1, 1))
        state = trainer_state(one, C=one, B=one, Theta=np.zeros((1, 1)), W=one)
        cfg = TrainerConfig(lambda1=1.0, lambda2=1.0)
        assert objective(state, one, cfg) == pytest.approx(2.0, abs=1e-12)


class TestUpdateC:
    def test_identity_correlation_halves_enrichment(self):
        rng = np.random.default_rng(1)
        n, d, l = 6, 3, 4
        Y = fix_label_rows((rng.random((n, l)) < 0.5).astype(np.int8), rng)
        Yhat = signed_enrichment(Y, rng)
        state = trainer_state(
            rng.normal(size=(n, d)) * 0, C=np.zeros((n, l)), B=np.eye(l),
            Theta=np.zeros((l, l)), W=np.zeros((d, l)),
        )
        C = update_c(state, Yhat, Y == 0)
        expect = np.clip(Yhat / 2.0, 0.0, 1.0)
        expect[Y == 0] = 0.0
        assert np.allclose(C, expect, atol=1e-12)

    def test_clamp_and_mask(self):
        rng = np.random.default_rng(2)
        n, d, l = 10, 4, 5
        Y = fix_label_rows((rng.random((n, l)) < 0.4).astype(np.int8), rng)
        # large W drives unclamped values far outside [0, 1]
        state = random_state(rng.normal(size=(n, d)), l, rng, w_scale=50)
        C = update_c(state, signed_enrichment(Y, rng), Y == 0)
        assert (C >= 0).all() and (C <= 1).all()
        assert (C[Y == 0] == 0).all()


class TestProxNuclear:
    def test_diagonal_shrinkage(self):
        out = prox_nuclear(np.diag([3.0, 1.0]), 2.0)
        assert np.abs(out - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_nuclear_norm_never_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            M = rng.normal(size=(4, 4))
            t = float(rng.uniform(0.05, 3.0))
            assert nuclear_norm(prox_nuclear(M, t)) <= nuclear_norm(M) + 1e-9

    @pytest.mark.parametrize("t", [0.1, 1.0, 3.0])
    def test_beats_local_perturbations(self, t):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(4, 4))
        B = prox_nuclear(M, t)
        base = svt_objective(B, M, t)
        for _ in range(10):
            delta = rng.normal(size=(4, 4))
            delta *= 1e-3 / np.linalg.norm(delta)
            assert svt_objective(B + delta, M, t) >= base - 1e-9


class TestUpdateBAdmm:
    def test_degenerate_data_term(self, monkeypatch):
        rng = np.random.default_rng(5)
        l = 3
        B = rng.normal(size=(l, l))
        Theta = rng.normal(size=(l, l))
        state = trainer_state(
            np.zeros((4, 2)), C=np.zeros((4, l)), B=B, Theta=Theta, W=np.zeros((2, l))
        )
        monkeypatch.setattr(TrainerConfig, "admm_iters", 1)
        cfg = TrainerConfig(lambda1=1.0)
        B1, Theta1 = update_b_admm(state, np.zeros((4, l)), cfg)
        Bhat = B1 - (Theta1 - Theta) / cfg.tau  # the pass's auxiliary, from its ascent step
        assert np.allclose(Bhat, B + Theta, atol=1e-12)

    def test_consensus_fixed_point_keeps_theta_zero(self):
        rng = np.random.default_rng(6)
        l = 3
        C = rng.random((5, l))
        Yhat = C.copy()  # so the auxiliary solve stays near the identity
        state = trainer_state(
            np.zeros((5, 2)), C=C, B=np.eye(l), Theta=np.zeros((l, l)), W=np.zeros((2, l)),
        )
        # with lambda1=0 the thresholding is the identity, so B==Bhat after
        # each pass and the multipliers never move off zero
        cfg = TrainerConfig(lambda1=0.0)
        _, Theta = update_b_admm(state, Yhat, cfg)
        assert np.abs(Theta).max() <= 1e-12

    def test_auxiliary_step_is_exact_minimizer(self, monkeypatch):
        rng = np.random.default_rng(7)
        n, l = 8, 4
        C = rng.random((n, l))
        Yhat = rng.normal(size=(n, l))
        B = rng.normal(size=(l, l))
        Theta = rng.normal(size=(l, l))
        state = trainer_state(np.zeros((n, 2)), C=C, B=B, Theta=Theta, W=np.zeros((2, l)))
        monkeypatch.setattr(TrainerConfig, "tau", 1.7)
        monkeypatch.setattr(TrainerConfig, "admm_iters", 1)
        cfg = TrainerConfig(lambda1=0.5)
        B1, Theta1 = update_b_admm(state, Yhat, cfg)
        Bhat = B1 - (Theta1 - Theta) / cfg.tau  # the pass's auxiliary, from its ascent step
        grad = 2.0 * C.T @ (C @ Bhat - Yhat) + cfg.tau * Bhat - cfg.tau * B - Theta
        assert np.abs(grad).max() <= 1e-8


class TestUpdateW:
    def test_identity_design_zero_ridge(self):
        rng = np.random.default_rng(8)
        C = rng.random((4, 3))
        state = trainer_state(np.eye(4), C=C, B=np.eye(3),
                              Theta=np.zeros((3, 3)), W=np.zeros((4, 3)))
        W = ridge_w(state, np.eye(4), TrainerConfig(lambda2=0.0))
        assert np.allclose(W, C, atol=1e-12)

    def test_scalar_ridge(self):
        X = np.array([[1.0], [1.0]])
        state = trainer_state(
            X, C=np.array([[1.0], [0.0]]), B=np.eye(1),
            Theta=np.zeros((1, 1)), W=np.zeros((1, 1)),
        )
        W = ridge_w(state, X, TrainerConfig(lambda2=1.0))
        assert W[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_huge_ridge_kills_weights(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(6, 4))
        W = ridge_w(random_state(X, 3, rng), X, TrainerConfig(lambda2=1e12))
        assert np.linalg.norm(W) <= 1e-6

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12)])
    def test_gradient_residual_primal_and_dual(self, shape):
        # n > d exercises the primal normal equations, n < d the dual form
        rng = np.random.default_rng(10)
        n, d = shape
        X = rng.normal(size=(n, d))
        C = rng.random((n, 3))
        lam = 10.0
        state = trainer_state(X, C=C, B=np.eye(3),
                              Theta=np.zeros((3, 3)), W=np.zeros((d, 3)))
        W = ridge_w(state, X, TrainerConfig(lambda2=lam))
        grad = 2.0 * X.T @ (X @ W - C) + 2.0 * lam * W
        assert np.linalg.norm(grad) <= 1e-6 * max(1.0, np.linalg.norm(X.T @ C))

    def test_dual_matches_primal(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(4, 9))
        C = rng.random((4, 2))
        lam = 2.5
        dual = RidgeSolver(X, lam)
        assert dual.dual
        primal = np.linalg.solve(X.T @ X + lam * np.eye(9), X.T @ C)
        assert np.allclose(dual.predictor(dual.solve(C)[0]), primal, atol=1e-10)


class TestFit:
    def test_single_outer_iteration_trace(self, monkeypatch):
        ds = random_dataset(n=8, d=3, l=4, seed=12)
        rng = np.random.default_rng(12)
        Yhat = signed_enrichment(ds.Y, rng)
        monkeypatch.setattr(TrainerConfig, "outer_max", 1)
        _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        assert len(trace) == 2

    def test_identity_toy_objective_decreases(self):
        rng = np.random.default_rng(13)
        Y = fix_label_rows((rng.random((3, 3)) < 0.5).astype(np.int8), rng)
        cfg = TrainerConfig(lambda1=1e-6, lambda2=1e-6)
        _, state, trace = fit(np.eye(3), Y.astype(float), Y, cfg)
        assert trace[-1] < trace[0]
        # the predictor reproduces the recovered confidences on X = I
        assert np.abs(np.eye(3) @ state.W - state.C).max() <= 1e-3

    def test_deterministic(self):
        ds = random_dataset(n=15, d=6, l=5, seed=14)
        rng = np.random.default_rng(14)
        Yhat = signed_enrichment(ds.Y, rng)
        m1, _, _ = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        m2, _, _ = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        assert m1.W.tobytes() == m2.W.tobytes()

    def test_confidence_bounds_and_finiteness(self):
        ds = random_dataset(n=20, d=8, l=5, seed=15)
        rng = np.random.default_rng(15)
        Yhat = signed_enrichment(ds.Y, rng)
        _, state, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        assert (state.C >= 0).all() and (state.C <= ds.Y).all()
        for arr in (state.C, state.B, state.Theta, state.W):
            assert np.isfinite(arr).all()
        assert len(trace) - 1 <= TrainerConfig().outer_max

    def test_w_step_never_raises_objective(self):
        ds = random_dataset(n=12, d=5, l=4, seed=16)
        rng = np.random.default_rng(16)
        Yhat = signed_enrichment(ds.Y, rng)
        cfg = TrainerConfig()
        # replay the loop manually, checking the W block each time
        state = trainer_state(
            ds.X, C=np.where(ds.Y == 1, np.maximum(Yhat, 0.0), 0.0),
            B=np.eye(4), Theta=np.zeros((4, 4)),
            W=np.zeros((5, 4)),
        )
        for _ in range(4):
            state.C = update_c(state, Yhat, ds.Y == 0)
            state.B, state.Theta = update_b_admm(state, Yhat, cfg)
            before = objective(state, Yhat, cfg)
            W = ridge_w(state, ds.X, cfg)
            state = trainer_state(ds.X, state.C, state.B, state.Theta, W)
            after = objective(state, Yhat, cfg)
            assert after <= before + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fit(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 2)), TrainerConfig())

    @pytest.mark.parametrize("n, d, l", [(0, 3, 2), (4, 0, 2), (4, 3, 0)])
    def test_zero_dimension(self, n, d, l):
        # none of these is a problem to fit; each used to return a zero model
        with pytest.raises(ShapeError, match=f"n={n} d={d} l={l}"):
            fit(np.zeros((n, d)), np.zeros((n, l)), np.zeros((n, l)), TrainerConfig())

    def test_non_finite_input(self):
        Yhat = np.full((3, 2), np.nan)
        with pytest.raises(NumericError):
            fit(np.zeros((3, 2)), Yhat, np.ones((3, 2)), TrainerConfig())

    def test_warns_when_capped(self, caplog, monkeypatch):
        ds = random_dataset(n=12, d=4, l=3, seed=5)
        Yhat = signed_enrichment(ds.Y, np.random.default_rng(5))
        monkeypatch.setattr(TrainerConfig, "outer_max", 2)
        monkeypatch.setattr(TrainerConfig, "outer_tol", 1e-12)
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        assert len(trace) == 3
        [record] = caplog.records
        assert record.name.startswith("pmltk")
        change = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
        assert "outer_max=2" in record.getMessage()
        assert f"last relative change {change:.3g}" in record.getMessage()

    def test_silent_when_converged(self, caplog, monkeypatch):
        ds = random_dataset(n=12, d=4, l=3, seed=5)
        Yhat = signed_enrichment(ds.Y, np.random.default_rng(5))
        monkeypatch.setattr(TrainerConfig, "outer_tol", 1e-2)
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig())
        assert len(trace) - 1 < 50
        assert caplog.records == []


def trainer_grams(n, l, rng):
    """The Gram forms the trainer factors, built as it builds them:
    ``B B^T + I`` (confidence update), ``2 C^T C + tau I`` (ADMM) and the
    ridge Gram ``X X^T + lambda I`` (dual) or ``X^T X + lambda I`` (primal)."""
    B = rng.normal(size=(l, l))
    C = rng.random((n, l))
    X = (rng.random((n, n + 50)) < 0.05) * 1.0
    Xp = np.ascontiguousarray(X[:, :n // 2])
    grams = {"confidence": (B @ B.T, 1.0), "admm": (2.0 * (C.T @ C), 1.0),
             "ridge-dual": (X @ X.T, 10.0), "ridge-primal": (Xp.T @ Xp, 10.0)}
    for G, shift in grams.values():
        G.flat[::G.shape[0] + 1] += shift
    return {name: G for name, (G, _) in grams.items()}


class TestCholesky:
    """``_cholesky``/``_solve`` make the LAPACK calls ``cho_factor`` and
    ``cho_solve`` make, so their results are the same bytes. ``_cholesky``
    factors the Gram it is given in place."""

    @pytest.mark.parametrize("n", [27, 45, 265, 489])
    def test_byte_equal_to_scipy(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n + 3, n))
        G = A.T @ A
        G.flat[::n + 1] += 1.0
        factor = cho_factor(G.copy(), lower=True)
        c = _cholesky(G, "test")
        assert np.shares_memory(c, G)
        assert c.tobytes() == factor[0].tobytes()
        b = rng.normal(size=(n, 7))
        for rhs in (b, np.asfortranarray(b), rng.normal(size=(7, n)).T):
            got, want = _solve(c, rhs), cho_solve(factor, rhs)
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous == want.flags.f_contiguous

    @pytest.mark.parametrize("l", [27, 45])
    @pytest.mark.parametrize("n", [265, 489, 662])
    def test_trainer_grams_factor_in_place(self, n, l):
        # in place, dpotrf reads the transpose of G: the same matrix only
        # because numpy forms A A^T and A^T A exactly symmetric
        for name, G in trainer_grams(n, l, np.random.default_rng(n * l)).items():
            assert (G == G.T).all(), name
            want = cho_factor(G.copy(), lower=True)[0]
            c = _cholesky(G, "test")
            assert np.shares_memory(c, G), name
            assert c.tobytes() == want.tobytes(), name

    def test_ridge_solver_holds_one_gram(self):
        # the n x n dual Gram and its finiteness mask, but no second copy
        n, d = 600, 900
        X = np.random.default_rng(0).normal(size=(n, d))
        tracemalloc.start()
        try:
            RidgeSolver(X, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_right_hand_side(self, bad):
        b = np.ones((3, 2))
        b[1, 0] = bad
        with pytest.raises(NumericError, match="right-hand side"):
            _solve(_cholesky(np.eye(3), "test"), b)


def confidence_site(case):
    # G = B B^T + I: an entry of 1e200 overflows it, equal rows of 1e8
    # make it rank one after the + 1 rounds away
    l = 3
    B = np.full((l, l), 1e8) if case == "singular" else np.eye(l)
    if case == "inf":
        B[0, 0] = 1e200
    state = trainer_state(np.zeros((4, 2)), C=np.zeros((4, l)), B=B,
                          Theta=np.zeros((l, l)), W=np.zeros((2, l)))
    update_c(state, np.zeros((4, l)), np.zeros((4, l), dtype=bool))


def admm_site(case):
    # G = 2 C^T C + tau I, by the same two constructions on C
    l = 3
    C = np.full((4, l), 1e8) if case == "singular" else np.zeros((4, l))
    if case == "inf":
        C[0, 0] = 1e200
    state = trainer_state(np.zeros((4, 2)), C=C, B=np.eye(l),
                          Theta=np.zeros((l, l)), W=np.zeros((2, l)))
    update_b_admm(state, np.zeros((4, l)), TrainerConfig())


def ridge_site(case):
    # G = X^T X + lambda I: overflowing features, or zero features and lambda 0
    X = np.zeros((6, 3))
    if case == "inf":
        X[0, 0] = 1e200
    RidgeSolver(X, 0.0)


class TestFactorizationFailures:
    @pytest.mark.parametrize("case", ["inf", "singular"])
    @pytest.mark.parametrize("site,prefix", [
        (confidence_site, "confidence-system factorization failed: "),
        (admm_site, "ADMM auxiliary factorization failed: "),
        (ridge_site, "ridge factorization failed: "),
    ])
    def test_prefix(self, site, prefix, case):
        with pytest.raises(NumericError) as info, np.errstate(over="ignore", invalid="ignore"):
            site(case)
        assert str(info.value).startswith(prefix)
        assert ("infs or NaNs" if case == "inf" else "not positive definite") in str(info.value)


def svd_failing(compute_uv_only=False):
    real = np.linalg.svd

    def svd(M, *args, compute_uv=True, **kwargs):
        if compute_uv or not compute_uv_only:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(M, *args, compute_uv=compute_uv, **kwargs)
    return svd


class TestNumericFailures:
    def test_objective_not_finite_at_start(self, monkeypatch):
        # finite inputs whose first residual ||Yhat - C B||^2 overflows
        ds = random_dataset(n=20, d=4, l=3, seed=11)
        steps = []
        monkeypatch.setattr(trainer, "_step", lambda *args: steps.append(args))
        with pytest.raises(NumericError) as info:
            fit(ds.X, np.where(ds.Y == 1, 1.0, -1e200), ds.Y, TrainerConfig())
        assert str(info.value) == "objective is not finite"
        assert steps == []

    def test_nuclear_norm_svd_failure(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", svd_failing())
        state = trainer_state(np.zeros((4, 2)), C=np.zeros((4, 3)), B=np.eye(3),
                              Theta=np.zeros((3, 3)), W=np.zeros((2, 3)))
        with pytest.raises(NumericError) as info:
            objective(state, np.zeros((4, 3)), TrainerConfig())
        assert str(info.value) == "SVD failed in nuclear norm: SVD did not converge"

    def test_thresholding_svd_failure_names_its_pass(self, monkeypatch):
        # the nuclear norm's SVD (no U, V) still works; the thresholding's fails
        monkeypatch.setattr(np.linalg, "svd", svd_failing(compute_uv_only=True))
        state = trainer_state(np.zeros((4, 2)), C=np.ones((4, 3)), B=np.eye(3),
                              Theta=np.zeros((3, 3)), W=np.zeros((2, 3)))
        assert nuclear_norm(np.eye(3)) == 3.0
        with pytest.raises(NumericError) as info:
            update_b_admm(state, np.zeros((4, 3)), TrainerConfig())
        assert str(info.value) == (
            "ADMM pass 1/5: SVD failed in singular value thresholding: SVD did not converge")


def fit_problem(n, d, l, seed):
    ds = random_dataset(n=n, d=d, l=l, seed=seed)
    return ds.X, signed_enrichment(ds.Y, np.random.default_rng(seed)), ds.Y


# n < d runs the ridge step in dual coefficients, n > d in the primal form.
DUAL_PROBLEMS = [(30, 60, 5, 0, 10.0), (30, 60, 5, 1, 100.0), (25, 80, 6, 3, 1.0)]
PRIMAL_PROBLEMS = [(40, 8, 5, 2, 10.0), (40, 8, 5, 4, 0.0)]


class TestCachedLoop:
    """``fit`` carries X W and ||W||^2 between steps; ``reference_fit``
    recomputes them from W at every step."""

    @pytest.mark.parametrize("n,d,l,seed,lam", DUAL_PROBLEMS)
    def test_dual_matches_reference_loop(self, n, d, l, seed, lam):
        X, Yhat, Y = fit_problem(n, d, l, seed)
        cfg = TrainerConfig(lambda2=lam)
        assert RidgeSolver(X, lam).dual
        model, _, trace = fit(X, Yhat, Y, cfg)
        W_ref, trace_ref = reference_fit(X, Yhat, Y, cfg)
        assert len(trace) == len(trace_ref)
        assert np.allclose(trace, trace_ref, rtol=1e-12, atol=0.0)
        assert np.abs(model.W - W_ref).max() <= 1e-12 * np.abs(W_ref).max()

    @pytest.mark.parametrize("n,d,l,seed,lam", PRIMAL_PROBLEMS)
    def test_primal_equals_reference_loop(self, n, d, l, seed, lam):
        X, Yhat, Y = fit_problem(n, d, l, seed)
        cfg = TrainerConfig(lambda2=lam)
        assert not RidgeSolver(X, lam).dual
        model, _, trace = fit(X, Yhat, Y, cfg)
        W_ref, trace_ref = reference_fit(X, Yhat, Y, cfg)
        assert trace == trace_ref
        assert model.W.tobytes() == W_ref.tobytes()

    @pytest.mark.parametrize("n,d,l,seed,lam", DUAL_PROBLEMS + PRIMAL_PROBLEMS)
    def test_returned_state_is_self_consistent(self, n, d, l, seed, lam):
        X, Yhat, Y = fit_problem(n, d, l, seed)
        cfg = TrainerConfig(lambda2=lam)
        model, state, trace = fit(X, Yhat, Y, cfg)
        assert model.W.shape == state.W.shape == (d, l)
        fresh = trainer_state(X, state.C, state.B, state.Theta, state.W)
        assert objective(fresh, Yhat, cfg) == pytest.approx(trace[-1], rel=1e-10)
        scores, _ = predict(model, X)
        assert np.abs(scores - state.XW).max() <= 1e-10 * max(1.0, np.abs(state.C).max())

    @pytest.mark.parametrize("n,d,l,seed,lam", [DUAL_PROBLEMS[0], PRIMAL_PROBLEMS[0]])
    def test_layer_functions_called_per_iteration(self, monkeypatch, n, d, l, seed, lam):
        # the benchmark's per-layer trainer numbers come from wrapping these
        # module attributes, so fit must keep calling them through the module
        calls = Counter()
        for name in ("update_c", "update_b_admm", "update_w", "objective", "prox_nuclear"):
            def counted(*args, _name=name, _fn=getattr(trainer, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(trainer, name, counted)
        X, Yhat, Y = fit_problem(n, d, l, seed)
        monkeypatch.setattr(TrainerConfig, "admm_iters", 3)
        cfg = TrainerConfig(lambda2=lam)
        _, _, trace = fit(X, Yhat, Y, cfg)
        iters = len(trace) - 1
        assert iters >= 2
        assert calls == {
            "update_c": iters,
            "update_b_admm": iters,
            "update_w": iters,
            "objective": iters + 1,  # plus the initial point
            "prox_nuclear": cfg.admm_iters * iters,
        }


    def test_candidate_mask_built_once(self, monkeypatch):
        masks = []
        def recording(state, Yhat, outside, _fn=trainer.update_c):
            masks.append(outside)
            return _fn(state, Yhat, outside)
        monkeypatch.setattr(trainer, "update_c", recording)
        X, Yhat, Y = fit_problem(*PRIMAL_PROBLEMS[0][:4])
        monkeypatch.setattr(TrainerConfig, "outer_max", 3)
        monkeypatch.setattr(TrainerConfig, "outer_tol", 1e-12)
        _, _, trace = fit(X, Yhat, Y, TrainerConfig())
        assert len(masks) == len(trace) - 1 == 3
        assert all(m is masks[0] for m in masks)
        assert (masks[0] == (Y == 0)).all()

    def test_step_leaves_its_input_state(self):
        X, Yhat, Y = fit_problem(*DUAL_PROBLEMS[0][:4])
        l = Y.shape[1]
        state = trainer_state(X, C=np.where(Y == 1, np.maximum(Yhat, 0.0), 0.0), B=np.eye(l),
                              Theta=np.zeros((l, l)), W=np.zeros((X.shape[1], l)))
        before = {k: np.copy(v) for k, v in vars(state).items() if v is not None}
        new = trainer._step(state, Yhat, Y == 0, RidgeSolver(X, 10.0), TrainerConfig())
        assert isinstance(new, TrainerState) and new is not state
        for k, v in before.items():
            assert np.array_equal(getattr(state, k), v), k
        assert state.coef is None and new.coef is not None and new.XW.shape == state.XW.shape

class TestPredict:
    def test_zero_model(self):
        model = Model(W=np.zeros((3, 2)), lambda1=1.0, lambda2=1.0)
        scores, labels = predict(model, np.ones((4, 3)))
        assert (scores == 0).all() and (labels == 0).all()

    def test_threshold_rule(self):
        model = Model(W=np.array([[0.9, 0.1]]), lambda1=1.0, lambda2=1.0)
        scores, labels = predict(model, np.array([[1.0]]))
        assert labels.tolist() == [[1, 0]]

    def test_threshold_inclusive(self):
        model = Model(W=np.array([[0.5]]), lambda1=1.0, lambda2=1.0)
        _, labels = predict(model, np.array([[1.0]]))
        assert labels[0, 0] == 1

    def test_dimension_mismatch(self):
        model = Model(W=np.zeros((3, 2)), lambda1=1.0, lambda2=1.0)
        with pytest.raises(ShapeError):
            predict(model, np.ones((4, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        model = Model(W=np.ones((3, 2)), lambda1=1.0, lambda2=1.0)
        X = np.ones((4, 3))
        X[2, 1] = bad
        with pytest.raises(NumericError):
            predict(model, X)

    @pytest.mark.parametrize("W", [[[np.nan, 0.0], [0.0, 0.0]], [[np.inf, 0.0], [0.0, 0.0]],
                                   [[1e300, 0.0], [1e300, 0.0]]],
                             ids=["nan", "inf", "overflow"])
    def test_non_finite_scores(self, W):
        # a bad model file or a product that overflows, with no RuntimeWarning on the way
        model = Model(W=np.array(W), lambda1=1.0, lambda2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="non-finite scores"):
                predict(model, np.full((3, 2), 1e300))


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("lambda1", -1.0),
        *((f, v) for f in ("lambda1", "lambda2", "tau") for v in (np.nan, np.inf, -np.inf)),
    ])
    def test_rejects_negative_weights(self, field, value):
        # tau is a class constant, so no value of it gets in as a keyword
        with pytest.raises(TypeError if field == "tau" else ConfigError):
            TrainerConfig(**{field: value})

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            TrainerConfig(tau=0.0)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: fit(np.eye(2), np.zeros((2, 2)), [[0.5, 1.0], [1.0, 0.0]]), ValidationError,
         "row 0: Y must be binary (0/1 entries), got 0.5"),
        (lambda: fit(np.eye(2), np.zeros((2, 2)), [[1, 0], [2, 1]]), ValidationError,
         "row 1: Y must be binary (0/1 entries), got 2"),
        (lambda: save_predictions(np.zeros((2, 3)), np.zeros((2, 2)), "unwritten.txt"),
         ShapeError, "scores(2, 3) and labels(2, 2) must match"),
        (lambda: save_predictions([[0.1, 0.9]], [[0.7, 1.0]], "unwritten.txt"), ValidationError,
         "row 0: prediction labels must be binary (0/1 entries), got 0.7"),
        (lambda: save_predictions([[0.1, 0.9]], [[2, 1]], "unwritten.txt"), ValidationError,
         "row 0: prediction labels must be binary (0/1 entries), got 2"),
    ], ids=["fit-fractional-label", "fit-label-2", "predictions-shape",
            "predictions-fractional-label", "predictions-label-2"])
    def test_input_check_message(self, call, error, message, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a path a broken check would write to
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error and str(exc.value) == message
        assert list(tmp_path.iterdir()) == []


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        ds = random_dataset(n=10, d=4, l=3, seed=17)
        rng = np.random.default_rng(17)
        model, _, _ = fit(ds.X, signed_enrichment(ds.Y, rng), ds.Y, TrainerConfig(lambda2=100.0))
        p = tmp_path / "model.txt"
        save_model(model, p)
        back = load_model(p)
        assert back.W.tobytes() == model.W.tobytes()
        assert (back.lambda1, back.lambda2) == (model.lambda1, model.lambda2)
        assert p.read_text().splitlines()[0] == "#4 3 1.0 100.0"

    def test_model_header_dimensions_from_w(self, tmp_path):
        p = tmp_path / "model.txt"
        save_model(Model(np.arange(6.0).reshape(3, 2), 1.0, 10.0), p)
        assert p.read_text().splitlines()[0] == "#3 2 1.0 10.0"
        back = load_model(p)
        assert back.W.tolist() == np.arange(6.0).reshape(3, 2).tolist()
        assert (back.lambda1, back.lambda2) == (1.0, 10.0)

    def test_predictions_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        scores = rng.normal(size=(6, 4))
        labels = (scores >= 0.5).astype(np.int8)
        p = tmp_path / "preds.csv"
        save_predictions(scores, labels, p)
        s, lbl = load_predictions(p)
        assert s.tobytes() == scores.tobytes()
        assert (lbl == labels).all()
