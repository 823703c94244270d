"""Weighted k-nearest-neighbor graph with reconstruction weights.

Each instance is expressed as a non-negative combination of its k
nearest neighbors (Euclidean distance, brute force by design at desk
scale: one Gram product for all pairs, then an exact re-rank of the
rows near each k-th distance). The per-instance weights solve a
non-negative least squares problem with the exact Lawson-Hanson
active-set method on the k x k normal equations. One loop runs it for
every instance at once, in lock step over the stack of normal
equations, and gives each instance the result of solving it alone.
Rows are then normalized to sum to one, yielding the propagation
weight matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from ._blas import single_threaded
from .errors import ConfigError, NumericError, ShapeError, ValidationError

#: Row sums at or below this are treated as degenerate during normalization.
DEGENERATE_ROW_SUM = 1e-12

#: NNLS stops once no coordinate pinned at zero has a gradient above this.
NNLS_TOL = 1e-10

#: NNLS outer steps allowed per column of ``A`` (plus ten) before it stops.
NNLS_STEPS_PER_COLUMN = 3


@dataclass(frozen=True)
class KnnConfig:
    k: int = 10

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"neighbor count must be >= 1, got {self.k}")


@dataclass(frozen=True)
class WeightGraph:
    """Neighbor lists plus aligned reconstruction weights.

    ``neighbors[i]`` holds the k neighbor indices of instance i (never
    including i itself) and ``weights[i]`` the matching non-negative
    weights. After :func:`normalize_rows` every weight row sums to one.
    """

    neighbors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nb = np.asarray(self.neighbors, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        if nb.ndim != 2 or nb.shape != w.shape:
            raise ShapeError(
                f"neighbors {nb.shape} and weights {w.shape} must be equal 2-d shapes"
            )
        n = nb.shape[0]
        if (nb < 0).any() or (nb >= n).any():
            raise ValidationError("neighbor index out of range")
        if (nb == np.arange(n)[:, None]).any():
            raise ValidationError("self-loops are not allowed")
        if (w < 0).any():
            raise ValidationError("weights must be non-negative")
        object.__setattr__(self, "neighbors", nb)
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.neighbors.shape[0]

    def matrix(self) -> sparse.csr_matrix:
        """The n x n weight matrix in CSR form (row-sparse, k entries per row)."""
        n, k = self.neighbors.shape
        indptr = np.arange(0, n * k + 1, k)
        return sparse.csr_matrix(
            (self.weights.ravel(), self.neighbors.ravel(), indptr), shape=(n, n)
        )


def build_knn(X: np.ndarray, cfg: KnnConfig) -> np.ndarray:
    """Neighbor lists: for each row the k nearest other rows.

    Distance ties are broken toward the smaller index, which makes the
    result deterministic and lets duplicated rows resolve predictably.

    All squared distances come from one Gram product,
    ``|xi|**2 + |xj|**2 - 2 xi.xj``. That form can be off by rounding
    (badly so when the rows share a large offset), so it only picks
    candidates: every row whose Gram distance lies within a rounding
    bound of the k-th smallest. The candidates are then ranked by the
    difference form ``|xj - xi|**2``, so the lists are those of an exact
    difference-form scan.
    """
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise NumericError("non-finite feature matrix")
    n, d = X.shape
    k = cfg.k
    if k >= n:
        raise ConfigError(f"k={k} must be smaller than the instance count {n}")
    sq = np.einsum("ij,ij->i", X, X)
    # built in place so that only one n x n array is live
    gram = X @ X.T
    gram *= -2.0
    gram += sq[:, None]
    gram += sq[None, :]
    np.fill_diagonal(gram, np.inf)
    kth = np.partition(gram, k - 1, axis=1)[:, k - 1]
    # Each form errs by at most about (d + 3) * eps/2 * (|xi| + |xj|)**2, and
    # a row of the exact top k has a Gram distance within twice the sum of
    # both errors of the k-th smallest; this bound is larger than that.
    norms = np.sqrt(sq)
    slack = 4 * (d + 3) * np.finfo(np.float64).eps * (norms + norms.max()) ** 2
    rows, cols = np.nonzero(gram <= (kth + slack)[:, None])
    exact = np.empty(rows.size)
    # blocks of about 2**16 values keep the gathered rows small next to X
    step = max(1, 2**16 // d)
    for lo in range(0, rows.size, step):
        diff = X[cols[lo:lo + step]] - X[rows[lo:lo + step]]
        exact[lo:lo + step] = np.einsum("ij,ij->i", diff, diff)
    # lexsort is stable and np.nonzero lists columns in ascending order,
    # so exact ties keep the smaller index first
    order = np.lexsort((exact, rows))
    first = np.searchsorted(rows, np.arange(n))
    return cols[order][first[:, None] + np.arange(k)]


def _solve_passive(G: np.ndarray, c: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Each row's normal equations restricted to its passive set, zero elsewhere.

    The p x p passive blocks are gathered in column order and solved in
    one stacked ``np.linalg.solve`` per block size p, so every row gets
    the arithmetic of solving its own block alone. A stack with a
    singular block is solved row by row, with ``lstsq`` on the singular
    ones.
    """
    z = np.zeros(c.shape)
    size = passive.sum(axis=1)
    # the passive columns of each row first, in column order
    order = np.argsort(~passive, axis=1, kind="stable")
    for p in np.unique(size[size > 0]):
        rows = np.flatnonzero(size == p)
        cols = order[rows, :p]
        block = G[rows[:, None, None], cols[:, :, None], cols[:, None, :]]
        rhs = c[rows[:, None], cols]
        try:
            z[rows[:, None], cols] = np.linalg.solve(block, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            for i, row in enumerate(rows):
                try:
                    z[row, cols[i]] = np.linalg.solve(block[i], rhs[i])
                except np.linalg.LinAlgError:
                    # a column that depends on the passive ones (a duplicated
                    # neighbor row) enters when roundoff in the gradient
                    # exceeds NNLS_TOL
                    z[row, cols[i]] = np.linalg.lstsq(block[i], rhs[i], rcond=None)[0]
    return z


def _nnls_stack(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Lawson-Hanson on a stack of normal equations, all rows in lock step.

    Row i minimizes ``v.G[i] v - 2 c[i].v`` subject to ``v >= 0``; for
    ``G[i] = A.T A`` and ``c[i] = A.T b`` that is ``||A v - b||**2``.
    Every row takes the steps of the single-row loop: the entering
    coordinate is the largest gradient (ties to the smaller index), the
    row stops once that gradient is at most ``NNLS_TOL`` or after
    ``NNLS_STEPS_PER_COLUMN * k + 10`` steps, and a blocking step moves
    only the rows whose solve left a passive coordinate at or below
    zero. A row leaves the working stack as soon as it stops, and its
    result does not depend on the other rows of the stack.
    """
    m, k = c.shape
    x = np.zeros((m, k))
    if k == 0:
        return x
    # the working stack: rows still running, as indices into the input
    live, Gl, cl, xl = np.arange(m), G, c, x.copy()
    passive = np.zeros((m, k), dtype=bool)
    for _ in range(NNLS_STEPS_PER_COLUMN * k + 10):
        w = cl - np.matmul(Gl, xl[:, :, None])[:, :, 0]
        w[passive] = -np.inf
        j = np.argmax(w, axis=1)  # ties resolve to the smaller index
        going = w[np.arange(live.size), j] > NNLS_TOL
        x[live[~going]] = xl[~going]
        live, Gl, cl, xl, passive, j = (a[going] for a in (live, Gl, cl, xl, passive, j))
        if live.size == 0:
            break
        passive[np.arange(live.size), j] = True
        z = _solve_passive(Gl, cl, passive)
        # inner loop: only rows whose solve left a passive coordinate <= 0
        blocking = passive & (z <= 0.0)
        inner = np.flatnonzero(blocking.any(axis=1))
        while inner.size:
            xb, zb, bb = xl[inner], z[inner], blocking[inner]
            denom = xb - zb
            steps = np.where(denom > 0.0, xb / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = np.where(bb, steps, np.inf).min(axis=1, keepdims=True)
            xb = xb + alpha * (zb - xb)
            xb[bb & (steps == alpha)] = 0.0
            xl[inner] = xb
            passive[inner] &= xb > 0.0
            z[inner] = _solve_passive(Gl[inner], cl[inner], passive[inner])
            blocking[inner] = passive[inner] & (z[inner] <= 0.0)
            inner = inner[blocking[inner].any(axis=1)]
        xl = z
    x[live] = xl
    return x


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact active-set non-negative least squares.

    Minimizes ``||A v - b||**2`` subject to ``v >= 0`` with the
    Lawson-Hanson active-set loop, run on the k x k normal equations
    ``G = A.T A``, ``c = A.T b`` by the same core that solves every row
    of :func:`build_graph` at once. On return the KKT conditions hold up
    to roundoff: coordinates in the passive set satisfy the normal
    equations, coordinates pinned at zero have gradient
    ``>= -2*NNLS_TOL``.
    """
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or b.ndim != 1 or A.shape[0] != b.shape[0]:
        raise ShapeError(f"incompatible shapes A{A.shape}, b{b.shape}")
    if not np.isfinite(A).all() or not np.isfinite(b).all():
        raise NumericError("non-finite input to nnls")
    return _nnls_stack((A.T @ A)[None], (A.T @ b)[None])[0]


def normalize_rows(neighbors: np.ndarray, raw_weights: np.ndarray) -> WeightGraph:
    """Scale each weight row to sum to one.

    Rows whose sum is at most ``DEGENERATE_ROW_SUM`` (all neighbors
    anti-correlated, so every raw weight is zero) fall back to uniform
    1/k weights over the neighbor list.
    """
    w = np.asarray(raw_weights, dtype=np.float64)
    if (w < 0).any():
        raise ValidationError("raw weights must be non-negative")
    sums = w.sum(axis=1, keepdims=True)
    degenerate = sums[:, 0] <= DEGENERATE_ROW_SUM
    normalized = w / np.where(degenerate[:, None], 1.0, sums)
    if degenerate.any():
        normalized[degenerate] = 1.0 / w.shape[1]
    return WeightGraph(neighbors, normalized)


@single_threaded
def build_graph(X: np.ndarray, cfg: KnnConfig) -> WeightGraph:
    """End to end: neighbor search, the weight solve of every row at once,
    row normalization."""
    X = np.asarray(X, dtype=np.float64)
    neighbors = build_knn(X, cfg)
    n, k = neighbors.shape
    G = np.empty((n, k, k))
    c = np.empty((n, k))
    # blocks of about 2**16 gathered values keep the neighbor rows small next to X
    step = max(1, 2**16 // (k * X.shape[1]))
    for lo in range(0, n, step):
        A = X[neighbors[lo:lo + step]]
        G[lo:lo + step] = np.matmul(A, A.transpose(0, 2, 1))
        c[lo:lo + step] = np.matmul(A, X[lo:lo + step, :, None])[:, :, 0]
    return normalize_rows(neighbors, _nnls_stack(G, c))
