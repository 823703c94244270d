"""Joint estimation of label confidences and a linear predictor.

Given features ``X`` and a signed enrichment matrix ``Yhat``, the
trainer iterates three block updates on the objective

    ||Yhat - C B||_F^2 + ||C - X W||_F^2
        + lambda1 * ||B||_* + lambda2 * ||W||_F^2

until its relative change is below ``outer_tol``: a confidence update
that clamps the unconstrained solution into [0, 1] and masks it to the
candidate set, an inner ADMM loop on the label correlation matrix ``B``
with singular value thresholding, and a ridge solve for the predictor
``W``. The clamp is not the box minimizer, so this is a fixed-point
iteration, not a minimization: the objective need not fall, and the
stop can fire at a turning point rather than a minimum. All linear
systems go through symmetric positive-definite factorizations; no
matrix is ever inverted explicitly: each is factored by LAPACK's
``dpotrf`` and solved by its ``dpotrs``, called directly rather than
through ``scipy.linalg.cho_factor``/``cho_solve``, whose argument checks
cost two to three times the LAPACK call on these small systems. Both
come from ``scipy.linalg._flapack``, loaded without ``scipy.linalg``
(``_blas.scipy_extension``); they are the functions
``scipy.linalg.lapack`` exports, not numpy's own LAPACK, whose last bits
differ. The bits match scipy's because ``cho_factor(G, lower=True)`` and
``cho_solve`` make these same two calls with the same arguments
(``lower=1``, ``clean=0``), after the checks that ``_cholesky`` and
``_solve`` keep: a Gram that holds an inf or a nan (one that overflowed),
or that is not positive definite, raises ``NumericError``, and so does a
non-finite right-hand side. ``_cholesky`` factors the Gram in place
(``overwrite_a=1`` on the Fortran-ordered view ``G.T``), where
``cho_factor`` factors a Fortran-ordered copy. Every Gram is built for
that one call, with ``A @ A.T`` or ``A.T @ A``, which numpy forms exactly
symmetric, so ``G.T`` is the same matrix in the copy's layout; writing in
place changes only where ``dpotrf`` writes, not what it computes, and
the factor keeps its bytes without a second Gram.

The loop touches ``W`` only through the fitted values ``X W`` and
``||W||_F^2``, which the ridge step returns and the state carries. When
``n < d`` the ridge step keeps the dual coefficients
``alpha = (X X^T + lambda2 I)^{-1} C`` instead of ``W``: the solve gives
``X W = C - lambda2 alpha`` and ``||W||_F^2 = <alpha, X W>`` without a
product through ``X``, and ``W = X^T alpha`` is formed once, when
``fit`` returns it in a ``Model`` with the weights it was fit with.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from ._blas import scipy_extension, single_threaded
from .data import _as_binary, _blocks, csv_rows, parse_float_rows, read_table, write_lines
from .errors import ConfigError, NumericError, ParseError, ShapeError

_log = logging.getLogger(__name__)

# scipy.linalg.lapack re-exports these two from this module
_flapack = scipy_extension("linalg", "_flapack")
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs


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
        if not np.isfinite([self.lambda1, self.lambda2, self.tau]).all():
            raise ConfigError(
                f"lambda1, lambda2 and tau must be finite, got {self.lambda1}, {self.lambda2}, {self.tau}"
            )
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
    (l x l), ADMM multipliers Theta, predictor W (d x l), and the fitted
    values ``XW = X @ W`` (n x l) and ``W_norm2 = ||W||_F^2``.

    The updates read the predictor only through ``XW`` and ``W_norm2``.
    ``fit`` keeps those two current, with ``coef``, the ridge
    coefficients they came from (``None`` before the first predictor
    step), and forms ``W`` from ``coef`` only when it returns, so whoever
    builds or changes a state by hand must set ``W``, ``XW`` and
    ``W_norm2`` consistently.
    """

    C: np.ndarray
    B: np.ndarray
    Theta: np.ndarray
    W: np.ndarray
    XW: np.ndarray
    W_norm2: float
    coef: np.ndarray | None = None


@dataclass(frozen=True)
class FeatureTransform:
    """The feature transform a model was trained with: z-scores
    ``(X - mean) / scale`` on training statistics, then, with ``bias``, a
    constant-1 column appended last. Without standardization ``mean`` is
    0 and ``scale`` is 1, which leave every float as it is."""

    mean: np.ndarray
    scale: np.ndarray
    bias: bool

    def apply(self, X) -> np.ndarray:
        X = (np.asarray(X, dtype=np.float64) - self.mean) / self.scale
        return np.hstack([X, np.ones((X.shape[0], 1))]) if self.bias else X


@dataclass(frozen=True)
class Model:
    """Trained d x l linear predictor ``W``, the weights it was fit with
    and the ``FeatureTransform`` its training features went through, if
    any; ``predict`` applies it to the features it is given."""

    W: np.ndarray
    lambda1: float
    lambda2: float
    transform: FeatureTransform | None = None


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


def objective(state: TrainerState, Yhat, cfg: TrainerConfig) -> float:
    """Full objective value at the current state."""
    r1 = Yhat - state.C @ state.B
    r2 = state.C - state.XW
    val = (
        float(np.vdot(r1, r1))
        + float(np.vdot(r2, r2))
        + cfg.lambda1 * nuclear_norm(state.B)
        + cfg.lambda2 * state.W_norm2
    )
    if not np.isfinite(val):
        raise NumericError("objective is not finite")
    return val


def _cholesky(G, what: str) -> np.ndarray:
    """Lower Cholesky factor of the exactly symmetric SPD matrix ``G``,
    from ``dpotrf`` as ``cho_factor(G, lower=True)`` calls it. ``G`` is
    consumed: a C-ordered ``G`` is factored in place, through its
    Fortran-ordered transpose, and the factor shares its memory. A ``G``
    that holds an inf or a nan, or that is not positive definite, raises
    ``NumericError`` prefixed ``"<what> factorization failed: "``."""
    if not np.isfinite(G).all():
        raise NumericError(f"{what} factorization failed: array must not contain infs or NaNs")
    c, info = dpotrf(G.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NumericError(
            f"{what} factorization failed: {info}-th leading minor of the array is not positive definite"
        )
    if info < 0:
        raise NumericError(f"{what} factorization failed: illegal value in argument {-info} of potrf")
    return c


def _solve(c, b) -> np.ndarray:
    """Solve ``G x = b`` from ``c = _cholesky(G, ...)`` with ``dpotrs``, as
    ``cho_solve((c, True), b)`` does. A non-finite ``b`` raises
    ``NumericError``."""
    if not np.isfinite(b).all():
        raise NumericError("Cholesky solve: right-hand side must not contain infs or NaNs")
    x, info = dpotrs(c, b, lower=1)
    if info != 0:
        raise NumericError(f"Cholesky solve: illegal value in argument {-info} of potrs")
    return x


def update_c(state: TrainerState, Yhat, outside) -> np.ndarray:
    """Confidence update: solve the stationarity system, clamp, mask.

    The unconstrained solution ``(Yhat B^T + X W)(B B^T + I)^{-1}`` is
    clamped entrywise into [0, 1] and then zeroed where the boolean mask
    ``outside`` (``Y == 0``) is true, so ``0 <= C <= Y`` holds exactly
    afterwards. ``B B^T + I`` is not diagonal, so this is not the
    minimizer over the box, and the step can raise the objective.
    """
    B = state.B
    G = B @ B.T
    G.flat[::G.shape[0] + 1] += 1.0
    factor = _cholesky(G, "confidence-system")
    rhs = Yhat @ B.T + state.XW
    C = _solve(factor, rhs.T).T
    np.clip(C, 0.0, 1.0, out=C)
    C[outside] = 0.0
    return C


def update_b_admm(state: TrainerState, Yhat, cfg: TrainerConfig):
    """Inner ADMM on the correlation matrix.

    Runs ``cfg.admm_iters`` passes of: auxiliary solve against the data
    term, singular value thresholding at ``lambda1 / tau``, multiplier
    ascent. Returns the new ``(B, Theta)`` pair; the auxiliary ``Bhat``
    lives only inside a pass.
    """
    C = state.C
    tau = cfg.tau
    G = 2.0 * (C.T @ C)
    G.flat[::G.shape[0] + 1] += tau
    factor = _cholesky(G, "ADMM auxiliary")
    data_term = 2.0 * (C.T @ Yhat)
    B, Theta = state.B, state.Theta
    for it in range(cfg.admm_iters):
        Bhat = _solve(factor, data_term + tau * B + Theta)
        try:
            B = prox_nuclear(Bhat - Theta / tau, cfg.lambda1 / tau)
        except NumericError as exc:
            raise NumericError(f"ADMM pass {it + 1}/{cfg.admm_iters}: {exc}") from None
        Theta = Theta + tau * (B - Bhat)
    return B, Theta


class RidgeSolver:
    """Cached SPD factorization for ``W = (X^T X + lambda I)^{-1} X^T C``.

    When the problem is underdetermined (n < d, positive lambda) the
    algebraically identical dual form ``W = X^T alpha`` with
    ``alpha = (X X^T + lambda I)^{-1} C`` is factored instead, which
    keeps the factorization at the smaller of the two Gram matrices.
    The Gram is factored once by ``dpotrf`` and each ``solve`` is one
    ``dpotrs``, the two LAPACK calls ``cho_factor``/``cho_solve`` make,
    with the same arguments and the same functions (scipy's ``_flapack``),
    so the coefficients are bit for bit scipy's. ``solve`` returns the
    coefficients (``alpha`` in the dual form, ``W`` in the primal one) with
    the fitted values ``X W`` and ``||W||_F^2``; ``predictor`` turns
    coefficients into ``W``.
    """

    def __init__(self, X, lam: float):
        X = np.asarray(X, dtype=np.float64)
        n, d = X.shape
        self.X = X
        self.lam = lam
        self.dual = lam > 0 and n < d
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails just below
            G = X @ X.T if self.dual else X.T @ X
        G.flat[::G.shape[0] + 1] += lam
        self.factor = _cholesky(G, "ridge")

    def solve(self, C):
        """``(coef, X W, ||W||_F^2)`` for targets C."""
        if self.dual:
            # (X X^T + lam I) alpha = C gives X W = X X^T alpha = C - lam alpha
            alpha = _solve(self.factor, C)
            XW = C - self.lam * alpha
            return alpha, XW, float(np.vdot(alpha, XW))
        W = _solve(self.factor, self.X.T @ C)
        return W, self.X @ W, float(np.vdot(W, W))

    def predictor(self, coef) -> np.ndarray:
        """The d x l predictor W for coefficients from ``solve``."""
        return self.X.T @ coef if self.dual else coef


def update_w(state: TrainerState, solver: RidgeSolver):
    """Ridge update of the predictor given the current confidences:
    ``(coef, X W, ||W||_F^2)`` from ``solver.solve``."""
    return solver.solve(state.C)


def _step(state: TrainerState, Yhat, outside, solver: RidgeSolver,
          cfg: TrainerConfig) -> TrainerState:
    """One outer iteration: the confidence, correlation and predictor
    updates in turn, each reading what the ones before it wrote. Returns
    a new state and leaves ``state`` as it was; its ``W`` is not formed
    (see ``TrainerState``)."""
    new = replace(state, C=update_c(state, Yhat, outside))
    new.B, new.Theta = update_b_admm(new, Yhat, cfg)
    new.coef, new.XW, new.W_norm2 = update_w(new, solver)
    return new


def _relative_change(trace) -> float:
    """The stop rule's measure: the last objective change relative to the
    objective before it, floored at 1."""
    return abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2]))


@single_threaded
def fit(X, Yhat, Y, cfg: TrainerConfig = TrainerConfig()):
    """Fixed-point iteration of the (C, B, W) block updates.

    Initialization: C is the positive part of ``Yhat`` masked to the
    candidate set, B starts at the identity, Theta and W at zero. The
    loop runs ``_step`` until ``_relative_change`` of the objective
    drops below ``cfg.outer_tol`` or ``cfg.outer_max`` is hit;
    the latter logs a warning on the ``pmltk.trainer`` logger. The
    objective need not fall (``update_c``): the stop can fire at a
    turning point. ``W`` is formed from the ridge coefficients on return.

    Returns ``(model, state, trace)`` where ``trace`` holds the
    objective at initialization and after every outer iteration, and
    ``state.W`` and ``model.W`` are the d x l predictor.
    """
    X = np.asarray(X, dtype=np.float64)
    Yhat = np.asarray(Yhat, dtype=np.float64)
    Y = np.asarray(Y)
    if X.ndim != 2 or Yhat.ndim != 2 or Y.shape != Yhat.shape or X.shape[0] != Yhat.shape[0]:
        raise ShapeError(
            f"inconsistent shapes: X{X.shape}, Yhat{Yhat.shape}, Y{Y.shape}"
        )
    n, d = X.shape
    l = Yhat.shape[1]
    if n == 0 or d == 0 or l == 0:
        raise ShapeError(f"dimensions must be positive, got n={n} d={d} l={l}")
    if not np.isfinite(X).all() or not np.isfinite(Yhat).all():
        raise NumericError("non-finite training input")
    state = TrainerState(
        C=np.where(Y == 1, np.maximum(Yhat, 0.0), 0.0),
        B=np.eye(l),
        Theta=np.zeros((l, l)),
        W=np.zeros((d, l)),
        XW=np.zeros((n, l)),
        W_norm2=0.0,
    )
    outside = Y == 0
    solver = RidgeSolver(X, cfg.lambda2)
    trace = [objective(state, Yhat, cfg)]
    for _ in range(cfg.outer_max):
        state = _step(state, Yhat, outside, solver, cfg)
        trace.append(objective(state, Yhat, cfg))
        change = _relative_change(trace)
        if change < cfg.outer_tol:
            break
    else:
        _log.warning(
            "fit stopped at outer_max=%d without meeting outer_tol=%g; last relative change %.3g",
            cfg.outer_max, cfg.outer_tol, change,
        )
    state.W = solver.predictor(state.coef)
    return Model(state.W, cfg.lambda1, cfg.lambda2), state, trace


@single_threaded
def predict(model: Model, X_test):
    """Scores ``X_test @ W`` and binary labels at the 0.5 threshold
    (inclusive). A model with a transform applies it to ``X_test`` first,
    so ``X_test`` holds the features as they were before training."""
    X_test = np.asarray(X_test, dtype=np.float64)
    t = model.transform
    d = model.W.shape[0] if t is None else t.mean.shape[0]
    if X_test.ndim != 2 or X_test.shape[1] != d:
        raise ShapeError(
            f"test features have {X_test.shape[1] if X_test.ndim == 2 else '?'} columns, model expects {d}"
        )
    if t is not None:
        X_test = t.apply(X_test)
    if not np.isfinite(X_test).all():
        raise NumericError("non-finite test features")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score fails just below
        scores = X_test @ model.W
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores")
    return scores, (scores >= 0.5).astype(np.int8)


# The two model file versions, told apart by their header's field count.
_MODEL_V1 = "d l lambda1 lambda2"
_MODEL_V2 = "rows features d l lambda1 lambda2"


def save_model(model: Model, path) -> None:
    """Persist as a ``#d l lambda1 lambda2`` header, with ``d l`` taken from
    ``W``'s shape, plus dense CSV rows of W (version 1).

    A model with a transform is written as version 2: a
    ``#rows features d l lambda1 lambda2`` header, the transform's mean
    and scale rows over the ``features`` input columns, then W; ``d`` is
    ``features + 1`` when the bias column is appended, and ``rows`` is
    ``d + 2``.
    """
    W = np.asarray(model.W, dtype=np.float64)
    header = f"{W.shape[0]} {W.shape[1]} {float(model.lambda1)!r} {float(model.lambda2)!r}"
    t = model.transform
    if t is None:
        write_lines(path, "model", ["#" + header, *csv_rows(W)])
    else:
        header = f"#{W.shape[0] + 2} {t.mean.shape[0]} {header}"
        write_lines(path, "model", [header, *csv_rows([t.mean, t.scale]), *csv_rows(W)])


def load_model(path) -> Model:
    """Read a ``save_model`` file of either version; the float rows are
    parsed in one C-level pass, with the row loop as the error path
    (``parse_float_rows``)."""
    header, rows = read_table(path, "model", (_MODEL_V1, _MODEL_V2), floats=2)
    if len(header) == 4:
        d, l, lambda1, lambda2 = header
        return Model(parse_float_rows(rows, l, "W"), lambda1, lambda2)
    _, m, d, l, lambda1, lambda2 = header
    if d - m not in (0, 1) or len(rows) != d + 2:
        raise ParseError(
            f"a version-2 model needs d = features or features + 1 and rows = d + 2, "
            f"got rows={len(rows)} features={m} d={d}", line=1
        )
    mean, scale = parse_float_rows(rows[:2], m, "transform")
    if not (np.isfinite(scale) & (scale > 0)).all():
        raise ParseError("transform scale values must be finite and positive", line=rows[1][0])
    return Model(parse_float_rows(rows[2:], l, "W"), lambda1, lambda2,
                 FeatureTransform(mean, scale, d > m))


def save_predictions(scores, labels, path) -> None:
    """Write per-instance ``scores;labels`` rows under a ``#m l`` header."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 2:
        raise ShapeError(f"scores{scores.shape} and labels{labels.shape} must match")
    rows = map(";".join, zip(csv_rows(scores), csv_rows(labels.astype(np.int64))))
    write_lines(path, "predictions", [f"#{scores.shape[0]} {scores.shape[1]}", *rows])


def load_predictions(path):
    """Read a ``save_predictions`` file as two float tables, as a dense
    dataset is read: every row's block count (``_blocks``) comes first,
    then the scores and the labels of all rows (``parse_float_rows``),
    then ``_as_binary``'s check that every label is 0 or 1."""
    (_, l), rows = read_table(path, "predictions", "m l")
    lines = [lineno for lineno, _ in rows]
    scores, labels = (parse_float_rows(list(zip(lines, column)), l, what)
                      for column, what in zip(zip(*_blocks(rows, (2,))), ("score", "label")))
    return scores, _as_binary(labels, "prediction labels", lines)
