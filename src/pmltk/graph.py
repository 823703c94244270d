"""Weighted k-nearest-neighbor graph with reconstruction weights.

Each instance is expressed as a non-negative combination of its k
nearest neighbors (Euclidean distance, brute force by design at desk
scale: one Gram product for all pairs, then an exact re-rank of the
rows near each k-th distance). The per-instance weights solve a
non-negative least squares problem with the exact Lawson-Hanson
active-set method on the k x k normal equations, then rows are
normalized to sum to one, yielding the propagation weight matrix.
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
    distance: str = "euclidean"

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"neighbor count must be >= 1, got {self.k}")
        if self.distance != "euclidean":
            raise ConfigError(f"unsupported distance {self.distance!r}")


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

    @property
    def k(self) -> int:
        return self.neighbors.shape[1]

    def matrix(self) -> sparse.csr_matrix:
        """The n x n weight matrix in CSR form (row-sparse, k entries per row)."""
        n, k = self.neighbors.shape
        indptr = np.arange(0, n * k + 1, k)
        return sparse.csr_matrix(
            (self.weights.ravel(), self.neighbors.ravel(), indptr), shape=(n, n)
        )

    def dumps(self) -> str:
        """Debug text form, one ``i: j=w j=w ...`` line per instance."""
        lines = []
        for i in range(self.n):
            pairs = " ".join(
                f"{int(j)}={float(w)!r}"
                for j, w in zip(self.neighbors[i], self.weights[i])
            )
            lines.append(f"{i}: {pairs}")
        return "\n".join(lines) + "\n"


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


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact active-set non-negative least squares.

    Minimizes ``||A v - b||**2`` subject to ``v >= 0`` with the
    Lawson-Hanson active-set loop, run on the k x k normal equations
    ``G = A.T A``, ``c = A.T b``. On return the KKT conditions hold up
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
    k = A.shape[1]
    G = A.T @ A
    c = A.T @ b
    x = np.zeros(k)
    passive = np.zeros(k, dtype=bool)

    def solve_on_passive():
        cols = np.flatnonzero(passive)
        block = G[np.ix_(cols, cols)]
        z = np.zeros(k)
        try:
            z[cols] = np.linalg.solve(block, c[cols])
        except np.linalg.LinAlgError:
            # a column that depends on the passive ones (a duplicated neighbor
            # row) enters when roundoff in w exceeds NNLS_TOL
            z[cols] = np.linalg.lstsq(block, c[cols], rcond=None)[0]
        return z

    for _ in range(NNLS_STEPS_PER_COLUMN * k + 10):
        w = c - G @ x
        w[passive] = -np.inf
        j = int(np.argmax(w))  # ties resolve to the smaller index
        if w[j] <= NNLS_TOL:
            break
        passive[j] = True
        z = solve_on_passive()
        while True:
            blocking = passive & (z <= 0.0)
            if not blocking.any():
                break
            denom = x[blocking] - z[blocking]
            steps = np.where(denom > 0.0, x[blocking] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(steps.min())
            x = x + alpha * (z - x)
            x[blocking] = np.where(steps == alpha, 0.0, x[blocking])
            passive &= x > 0.0
            z = solve_on_passive()
        x = z
    return x


def solve_weights(x: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Non-negative weights reconstructing ``x`` from the given neighbor rows."""
    nb = np.asarray(neighbors, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if nb.ndim != 2 or x.ndim != 1 or nb.shape[1] != x.shape[0]:
        raise ShapeError(f"incompatible shapes: x{x.shape}, neighbors{nb.shape}")
    return nnls(nb.T, x)


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
    """End to end: neighbor search, per-instance weight solve, row normalization."""
    X = np.asarray(X, dtype=np.float64)
    neighbors = build_knn(X, cfg)
    raw = np.empty_like(neighbors, dtype=np.float64)
    for i in range(X.shape[0]):
        raw[i] = solve_weights(X[i], X[neighbors[i]])
    return normalize_rows(neighbors, raw)
