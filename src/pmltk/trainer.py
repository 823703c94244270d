"""Joint estimation of label confidences and a linear predictor.

Given features ``X`` and a signed enrichment matrix ``Yhat``, the
trainer alternates three block updates until the objective

    ||Yhat - C B||_F^2 + ||C - X W||_F^2
        + lambda1 * ||B||_* + lambda2 * ||W||_F^2

stops moving: a closed-form confidence update clamped into [0, 1] and
masked to the candidate set, an inner ADMM loop on the label
correlation matrix ``B`` with singular value thresholding for the
nuclear norm, and a ridge solve for the predictor ``W``. All linear
systems go through symmetric positive-definite factorizations; no
matrix is ever inverted explicitly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ._blas import single_threaded
from .data import csv_rows, parse_float_row, read_table, write_lines
from .errors import (
    ConfigError,
    NumericError,
    ParseError,
    ShapeError,
    ValidationError,
)

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainerConfig:
    """Regularization weights and iteration controls.

    ``lambda2`` defaults to the small end of the usual cross-validation
    grid; the pipeline overrides it with the selected value. Weights may
    be zero (useful for probing individual terms), the ADMM penalty must
    stay positive.
    """

    lambda1: float = 1.0
    lambda2: float = 10.0
    tau: float = 1.0
    admm_iters: int = 5
    outer_max: int = 50
    outer_tol: float = 1e-5

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("regularization weights must be non-negative")
        if not self.tau > 0:
            raise ConfigError(f"ADMM penalty must be positive, got {self.tau}")
        if self.admm_iters < 1 or self.outer_max < 1:
            raise ConfigError("iteration caps must be >= 1")
        if not self.outer_tol > 0:
            raise ConfigError(f"outer_tol must be positive, got {self.outer_tol}")


@dataclass
class TrainerState:
    """Mutable optimization state: confidences C (n x l), correlation B
    (l x l), ADMM auxiliary Bhat and multipliers Theta, predictor W (d x l)."""

    C: np.ndarray
    B: np.ndarray
    Bhat: np.ndarray
    Theta: np.ndarray
    W: np.ndarray


@dataclass(frozen=True)
class Model:
    """Trained linear predictor with the metadata needed to persist it."""

    W: np.ndarray
    metadata: dict = field(default_factory=dict)


def nuclear_norm(M) -> float:
    """Sum of singular values."""
    try:
        return float(np.linalg.svd(M, compute_uv=False).sum())
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed in nuclear norm: {exc}") from None


def prox_nuclear(M, threshold: float) -> np.ndarray:
    """Proximal operator of the nuclear norm (singular value thresholding).

    Computes a full SVD and shrinks every singular value by
    ``threshold``, flooring at zero; the unique minimizer of
    ``threshold * ||B||_* + 0.5 * ||B - M||_F^2``.
    """
    try:
        U, s, Vt = np.linalg.svd(np.asarray(M, dtype=np.float64), full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed in singular value thresholding: {exc}") from None
    return (U * np.maximum(s - threshold, 0.0)) @ Vt


def objective(state: TrainerState, X, Yhat, cfg: TrainerConfig) -> float:
    """Full objective value at the current state."""
    r1 = Yhat - state.C @ state.B
    r2 = state.C - X @ state.W
    val = (
        float(np.vdot(r1, r1))
        + float(np.vdot(r2, r2))
        + cfg.lambda1 * nuclear_norm(state.B)
        + cfg.lambda2 * float(np.vdot(state.W, state.W))
    )
    if not np.isfinite(val):
        raise NumericError("objective is not finite")
    return val


def update_c(state: TrainerState, X, Yhat, Y) -> np.ndarray:
    """Confidence update: solve the stationarity system, clamp, mask.

    The unconstrained minimizer ``(Yhat B^T + X W)(B B^T + I)^{-1}`` is
    clamped entrywise into [0, 1] and then zeroed outside the candidate
    set, so ``0 <= C <= Y`` holds exactly afterwards.
    """
    B = state.B
    G = B @ B.T
    G[np.diag_indices_from(G)] += 1.0
    try:
        factor = cho_factor(G, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"confidence-system factorization failed: {exc}") from None
    rhs = Yhat @ B.T + X @ state.W
    C = cho_solve(factor, rhs.T).T
    np.clip(C, 0.0, 1.0, out=C)
    C[np.asarray(Y) == 0] = 0.0
    return C


def update_b_admm(state: TrainerState, Yhat, cfg: TrainerConfig):
    """Inner ADMM on the correlation matrix.

    Runs ``cfg.admm_iters`` passes of: auxiliary solve against the data
    term, singular value thresholding at ``lambda1 / tau``, multiplier
    ascent. Returns the new ``(Bhat, B, Theta)`` triple.
    """
    C = state.C
    tau = cfg.tau
    G = 2.0 * (C.T @ C)
    G[np.diag_indices_from(G)] += tau
    try:
        factor = cho_factor(G, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"ADMM auxiliary factorization failed: {exc}") from None
    data_term = 2.0 * (C.T @ Yhat)
    B, Bhat, Theta = state.B, state.Bhat, state.Theta
    for it in range(cfg.admm_iters):
        Bhat = cho_solve(factor, data_term + tau * B + Theta)
        try:
            B = prox_nuclear(Bhat - Theta / tau, cfg.lambda1 / tau)
        except NumericError as exc:
            raise NumericError(f"ADMM pass {it + 1}/{cfg.admm_iters}: {exc}") from None
        Theta = Theta + tau * (B - Bhat)
    return Bhat, B, Theta


class RidgeSolver:
    """Cached SPD factorization for ``W = (X^T X + lambda I)^{-1} X^T C``.

    When the problem is underdetermined (n < d, positive lambda) the
    algebraically identical dual form ``X^T (X X^T + lambda I)^{-1} C``
    is factored instead, which keeps the factorization at the smaller
    of the two Gram matrices.
    """

    def __init__(self, X, lam: float):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        self.X = X
        self.dual = lam > 0 and n < d
        G = X @ X.T if self.dual else X.T @ X
        G[np.diag_indices_from(G)] += lam
        try:
            self.factor = cho_factor(G, lower=True)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"ridge factorization failed: {exc}") from None

    def solve(self, C) -> np.ndarray:
        if self.dual:
            return self.X.T @ cho_solve(self.factor, C)
        return cho_solve(self.factor, self.X.T @ C)


def update_w(state: TrainerState, X, cfg: TrainerConfig, solver: RidgeSolver | None = None) -> np.ndarray:
    """Ridge update of the predictor given the current confidences."""
    if solver is None:
        solver = RidgeSolver(X, cfg.lambda2)
    return solver.solve(state.C)


@single_threaded
def fit(X, Yhat, Y, cfg: TrainerConfig = TrainerConfig()):
    """Alternating minimization over (C, B, W).

    Initialization: C is the positive part of ``Yhat`` masked to the
    candidate set, B and Bhat start at the identity, Theta and W at
    zero. The loop runs confidence, correlation and predictor updates
    until the relative objective change drops below ``cfg.outer_tol``
    or ``cfg.outer_max`` is hit; the latter logs a warning on the
    ``pmltk.trainer`` logger.

    Returns ``(model, state, trace)`` where ``trace`` holds the
    objective at initialization and after every outer iteration.
    """
    X = np.asarray(X, dtype=np.float64)
    Yhat = np.asarray(Yhat, dtype=np.float64)
    Y = np.asarray(Y)
    if X.ndim != 2 or Yhat.ndim != 2 or Y.shape != Yhat.shape or X.shape[0] != Yhat.shape[0]:
        raise ShapeError(
            f"inconsistent shapes: X{X.shape}, Yhat{Yhat.shape}, Y{Y.shape}"
        )
    if not np.isfinite(X).all() or not np.isfinite(Yhat).all():
        raise NumericError("non-finite training input")
    n, d = X.shape
    l = Yhat.shape[1]
    state = TrainerState(
        C=np.where(Y == 1, np.maximum(Yhat, 0.0), 0.0),
        B=np.eye(l),
        Bhat=np.eye(l),
        Theta=np.zeros((l, l)),
        W=np.zeros((d, l)),
    )
    solver = RidgeSolver(X, cfg.lambda2)
    trace = [objective(state, X, Yhat, cfg)]
    for _ in range(cfg.outer_max):
        state.C = update_c(state, X, Yhat, Y)
        state.Bhat, state.B, state.Theta = update_b_admm(state, Yhat, cfg)
        state.W = update_w(state, X, cfg, solver=solver)
        trace.append(objective(state, X, Yhat, cfg))
        change = abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))
        if change < cfg.outer_tol:
            break
    else:
        _log.warning(
            "fit stopped at outer_max=%d without meeting outer_tol=%g; last relative change %.3g",
            cfg.outer_max, cfg.outer_tol, change,
        )
    model = Model(
        W=state.W,
        metadata={"d": d, "l": l, "lambda1": cfg.lambda1, "lambda2": cfg.lambda2},
    )
    return model, state, trace


@single_threaded
def predict(model: Model, X_test):
    """Scores ``X_test @ W`` and binary labels at the 0.5 threshold (inclusive)."""
    X_test = np.asarray(X_test, dtype=np.float64)
    d = model.W.shape[0]
    if X_test.ndim != 2 or X_test.shape[1] != d:
        raise ShapeError(
            f"test features have {X_test.shape[1] if X_test.ndim == 2 else '?'} columns, model expects {d}"
        )
    if not np.isfinite(X_test).all():
        raise NumericError("non-finite test features")
    scores = X_test @ model.W
    labels = (scores >= 0.5).astype(np.int8)
    return scores, labels


def save_model(model: Model, path) -> None:
    """Persist as a ``#d l lambda1 lambda2`` header plus dense CSV rows of W."""
    meta = model.metadata
    header = f"#{meta['d']} {meta['l']} {float(meta['lambda1'])!r} {float(meta['lambda2'])!r}"
    W = np.asarray(model.W, dtype=np.float64)
    write_lines(path, "model", [header, *csv_rows(W)])


def load_model(path) -> Model:
    (d, l, lambda1, lambda2), rows = read_table(path, "model", "d l lambda1 lambda2", floats=2)
    W = np.empty((d, l), dtype=np.float64)
    for i, (lineno, line) in enumerate(rows):
        W[i] = parse_float_row(line, l, lineno, "W")
    return Model(W=W, metadata={"d": d, "l": l, "lambda1": lambda1, "lambda2": lambda2})


def save_predictions(scores, labels, path) -> None:
    """Write per-instance ``scores;labels`` rows under a ``#m l`` header."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"scores{scores.shape} and labels{labels.shape} must match")
    rows = map(";".join, zip(csv_rows(scores), csv_rows(labels.astype(np.int64))))
    write_lines(path, "predictions", [f"#{scores.shape[0]} {scores.shape[1]}", *rows])


def load_predictions(path):
    (m, l), rows = read_table(path, "predictions", "m l")
    scores = np.empty((m, l), dtype=np.float64)
    labels = np.empty((m, l), dtype=np.int8)
    for i, (lineno, line) in enumerate(rows):
        sblock, sep, lblock = line.partition(";")
        if not sep:
            raise ParseError("expected 'scores;labels'", line=lineno)
        scores[i] = parse_float_row(sblock, l, lineno, "score")
        ltoks = lblock.split(",")
        if len(ltoks) != l:
            raise ParseError(f"expected {l} labels, got {len(ltoks)}", line=lineno)
        try:
            labels[i] = [int(t) for t in ltoks]
        except ValueError as exc:
            raise ParseError(f"bad label value: {exc}", line=lineno) from None
    if not np.isin(labels, (0, 1)).all():
        raise ValidationError("prediction labels must be binary")
    return scores, labels
