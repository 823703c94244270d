import logging

import numpy as np
import pytest
from helpers import fix_label_rows, random_dataset, svt_objective

from pmltk import (
    ConfigError,
    NumericError,
    ShapeError,
    TrainerConfig,
    TrainerState,
    fit,
    nuclear_norm,
    objective,
    predict,
    prox_nuclear,
    update_b_admm,
    update_c,
    update_w,
)
from pmltk.trainer import (
    Model,
    RidgeSolver,
    load_model,
    load_predictions,
    save_model,
    save_predictions,
)


def signed_enrichment(Y, rng):
    """Random matrix obeying the enrichment sign structure for mask Y."""
    F = rng.random(Y.shape)
    return np.where(Y == 1, F, F - 1.0)


def random_state(n, d, l, rng):
    return TrainerState(
        C=rng.random((n, l)),
        B=rng.normal(size=(l, l)),
        Bhat=rng.normal(size=(l, l)),
        Theta=rng.normal(size=(l, l)),
        W=rng.normal(size=(d, l)),
    )


class TestObjective:
    def test_zero_state_is_enrichment_energy(self):
        rng = np.random.default_rng(0)
        Yhat = rng.normal(size=(4, 3))
        state = TrainerState(
            C=np.zeros((4, 3)), B=np.zeros((3, 3)), Bhat=np.zeros((3, 3)),
            Theta=np.zeros((3, 3)), W=np.zeros((2, 3)),
        )
        val = objective(state, np.zeros((4, 2)), Yhat, TrainerConfig())
        assert val == pytest.approx((Yhat ** 2).sum(), abs=1e-12)

    def test_perfect_fit_zero_weights(self):
        X = np.eye(3)
        C = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        B = np.eye(2)
        state = TrainerState(C=C, B=B, Bhat=B, Theta=np.zeros((2, 2)), W=C)
        cfg = TrainerConfig(lambda1=0.0, lambda2=0.0)
        assert objective(state, X, C @ B, cfg) == 0.0

    def test_scalar_case(self):
        one = np.ones((1, 1))
        state = TrainerState(C=one, B=one, Bhat=one, Theta=np.zeros((1, 1)), W=one)
        cfg = TrainerConfig(lambda1=1.0, lambda2=1.0)
        assert objective(state, one, one, cfg) == pytest.approx(2.0, abs=1e-12)


class TestUpdateC:
    def test_identity_correlation_halves_enrichment(self):
        rng = np.random.default_rng(1)
        n, d, l = 6, 3, 4
        Y = fix_label_rows((rng.random((n, l)) < 0.5).astype(np.int8), rng)
        Yhat = signed_enrichment(Y, rng)
        state = TrainerState(
            C=np.zeros((n, l)), B=np.eye(l), Bhat=np.eye(l),
            Theta=np.zeros((l, l)), W=np.zeros((d, l)),
        )
        C = update_c(state, rng.normal(size=(n, d)) * 0, Yhat, Y)
        expect = np.clip(Yhat / 2.0, 0.0, 1.0)
        expect[Y == 0] = 0.0
        assert np.allclose(C, expect, atol=1e-12)

    def test_clamp_and_mask(self):
        rng = np.random.default_rng(2)
        n, d, l = 10, 4, 5
        Y = fix_label_rows((rng.random((n, l)) < 0.4).astype(np.int8), rng)
        state = random_state(n, d, l, rng)
        # large W drives unclamped values far outside [0, 1]
        state.W = state.W * 50
        C = update_c(state, rng.normal(size=(n, d)), signed_enrichment(Y, rng), Y)
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
    def test_degenerate_data_term(self):
        rng = np.random.default_rng(5)
        l = 3
        B = rng.normal(size=(l, l))
        Theta = rng.normal(size=(l, l))
        state = TrainerState(
            C=np.zeros((4, l)), B=B, Bhat=np.eye(l), Theta=Theta, W=np.zeros((2, l))
        )
        cfg = TrainerConfig(tau=1.0, admm_iters=1, lambda1=1.0)
        Bhat, _, _ = update_b_admm(state, np.zeros((4, l)), cfg)
        assert np.allclose(Bhat, B + Theta, atol=1e-12)

    def test_consensus_fixed_point_keeps_theta_zero(self):
        rng = np.random.default_rng(6)
        l = 3
        C = rng.random((5, l))
        Yhat = C.copy()  # so the auxiliary solve stays near the identity
        state = TrainerState(
            C=C, B=np.eye(l), Bhat=np.eye(l), Theta=np.zeros((l, l)),
            W=np.zeros((2, l)),
        )
        # with lambda1=0 the thresholding is the identity, so B==Bhat after
        # each pass and the multipliers never move off zero
        cfg = TrainerConfig(lambda1=0.0, tau=1.0, admm_iters=5)
        _, _, Theta = update_b_admm(state, Yhat, cfg)
        assert np.abs(Theta).max() <= 1e-12

    def test_auxiliary_step_is_exact_minimizer(self):
        rng = np.random.default_rng(7)
        n, l = 8, 4
        C = rng.random((n, l))
        Yhat = rng.normal(size=(n, l))
        B = rng.normal(size=(l, l))
        Theta = rng.normal(size=(l, l))
        state = TrainerState(C=C, B=B, Bhat=np.eye(l), Theta=Theta, W=np.zeros((2, l)))
        cfg = TrainerConfig(tau=1.7, admm_iters=1, lambda1=0.5)
        Bhat, _, _ = update_b_admm(state, Yhat, cfg)
        grad = 2.0 * C.T @ (C @ Bhat - Yhat) + cfg.tau * Bhat - cfg.tau * B - Theta
        assert np.abs(grad).max() <= 1e-8


class TestUpdateW:
    def test_identity_design_zero_ridge(self):
        rng = np.random.default_rng(8)
        C = rng.random((4, 3))
        state = TrainerState(C=C, B=np.eye(3), Bhat=np.eye(3),
                             Theta=np.zeros((3, 3)), W=np.zeros((4, 3)))
        W = update_w(state, np.eye(4), TrainerConfig(lambda2=0.0))
        assert np.allclose(W, C, atol=1e-12)

    def test_scalar_ridge(self):
        state = TrainerState(
            C=np.array([[1.0], [0.0]]), B=np.eye(1), Bhat=np.eye(1),
            Theta=np.zeros((1, 1)), W=np.zeros((1, 1)),
        )
        W = update_w(state, np.array([[1.0], [1.0]]), TrainerConfig(lambda2=1.0))
        assert W[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_huge_ridge_kills_weights(self):
        rng = np.random.default_rng(9)
        state = random_state(6, 4, 3, rng)
        W = update_w(state, rng.normal(size=(6, 4)), TrainerConfig(lambda2=1e12))
        assert np.linalg.norm(W) <= 1e-6

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12)])
    def test_gradient_residual_primal_and_dual(self, shape):
        # n > d exercises the primal normal equations, n < d the dual form
        rng = np.random.default_rng(10)
        n, d = shape
        X = rng.normal(size=(n, d))
        C = rng.random((n, 3))
        lam = 10.0
        state = TrainerState(C=C, B=np.eye(3), Bhat=np.eye(3),
                             Theta=np.zeros((3, 3)), W=np.zeros((d, 3)))
        W = update_w(state, X, TrainerConfig(lambda2=lam))
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
        assert np.allclose(dual.solve(C), primal, atol=1e-10)


class TestFit:
    def test_single_outer_iteration_trace(self):
        ds = random_dataset(n=8, d=3, l=4, seed=12)
        rng = np.random.default_rng(12)
        Yhat = signed_enrichment(ds.Y, rng)
        _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig(outer_max=1))
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
        for arr in (state.C, state.B, state.Bhat, state.Theta, state.W):
            assert np.isfinite(arr).all()
        assert len(trace) - 1 <= TrainerConfig().outer_max

    def test_w_step_never_raises_objective(self):
        ds = random_dataset(n=12, d=5, l=4, seed=16)
        rng = np.random.default_rng(16)
        Yhat = signed_enrichment(ds.Y, rng)
        cfg = TrainerConfig(outer_max=4)
        # replay the loop manually, checking the W block each time
        state = TrainerState(
            C=np.where(ds.Y == 1, np.maximum(Yhat, 0.0), 0.0),
            B=np.eye(4), Bhat=np.eye(4), Theta=np.zeros((4, 4)),
            W=np.zeros((5, 4)),
        )
        for _ in range(4):
            state.C = update_c(state, ds.X, Yhat, ds.Y)
            state.Bhat, state.B, state.Theta = update_b_admm(state, Yhat, cfg)
            before = objective(state, ds.X, Yhat, cfg)
            state.W = update_w(state, ds.X, cfg)
            after = objective(state, ds.X, Yhat, cfg)
            assert after <= before + 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            fit(np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((4, 2)), TrainerConfig())

    def test_non_finite_input(self):
        Yhat = np.full((3, 2), np.nan)
        with pytest.raises(NumericError):
            fit(np.zeros((3, 2)), Yhat, np.ones((3, 2)), TrainerConfig())

    def test_warns_when_capped(self, caplog):
        ds = random_dataset(n=12, d=4, l=3, seed=5)
        Yhat = signed_enrichment(ds.Y, np.random.default_rng(5))
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig(outer_max=2, outer_tol=1e-12))
        assert len(trace) == 3
        [record] = caplog.records
        assert record.name.startswith("pmltk")
        change = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
        assert "outer_max=2" in record.getMessage()
        assert f"last relative change {change:.3g}" in record.getMessage()

    def test_silent_when_converged(self, caplog):
        ds = random_dataset(n=12, d=4, l=3, seed=5)
        Yhat = signed_enrichment(ds.Y, np.random.default_rng(5))
        with caplog.at_level(logging.WARNING, logger="pmltk"):
            _, _, trace = fit(ds.X, Yhat, ds.Y, TrainerConfig(outer_max=50, outer_tol=1e-2))
        assert len(trace) - 1 < 50
        assert caplog.records == []


class TestPredict:
    def test_zero_model(self):
        model = Model(W=np.zeros((3, 2)), metadata={"d": 3, "l": 2, "lambda1": 1.0, "lambda2": 1.0})
        scores, labels = predict(model, np.ones((4, 3)))
        assert (scores == 0).all() and (labels == 0).all()

    def test_threshold_rule(self):
        model = Model(W=np.array([[0.9, 0.1]]), metadata={"d": 1, "l": 2, "lambda1": 1.0, "lambda2": 1.0})
        scores, labels = predict(model, np.array([[1.0]]))
        assert labels.tolist() == [[1, 0]]

    def test_threshold_inclusive(self):
        model = Model(W=np.array([[0.5]]), metadata={"d": 1, "l": 1, "lambda1": 1.0, "lambda2": 1.0})
        _, labels = predict(model, np.array([[1.0]]))
        assert labels[0, 0] == 1

    def test_dimension_mismatch(self):
        model = Model(W=np.zeros((3, 2)), metadata={})
        with pytest.raises(ShapeError):
            predict(model, np.ones((4, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input(self, bad):
        model = Model(W=np.ones((3, 2)), metadata={})
        X = np.ones((4, 3))
        X[2, 1] = bad
        with pytest.raises(NumericError):
            predict(model, X)


class TestConfigValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ConfigError):
            TrainerConfig(lambda1=-1.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ConfigError):
            TrainerConfig(tau=0.0)

    def test_rejects_zero_iters(self):
        with pytest.raises(ConfigError):
            TrainerConfig(admm_iters=0)


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        ds = random_dataset(n=10, d=4, l=3, seed=17)
        rng = np.random.default_rng(17)
        model, _, _ = fit(ds.X, signed_enrichment(ds.Y, rng), ds.Y, TrainerConfig(lambda2=100.0))
        p = tmp_path / "model.txt"
        save_model(model, p)
        back = load_model(p)
        assert back.W.tobytes() == model.W.tobytes()
        assert back.metadata == model.metadata
        assert p.read_text().splitlines()[0] == "#4 3 1.0 100.0"

    def test_predictions_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        scores = rng.normal(size=(6, 4))
        labels = (scores >= 0.5).astype(np.int8)
        p = tmp_path / "preds.csv"
        save_predictions(scores, labels, p)
        s, lbl = load_predictions(p)
        assert s.tobytes() == scores.tobytes()
        assert (lbl == labels).all()
