"""Label enrichment by unconstrained propagation over the weight graph.

Starting from the candidate matrix, each iteration mixes the previous
scores propagated through the transposed weight matrix with the
original annotation, then rescales every row against its global
minimum and its candidate maximum. At convergence the scores are
re-signed: candidate entries keep their relevance degree in [0, 1],
non-candidate entries become irrelevance degrees in [-1, 0].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ._blas import single_threaded
from .data import Dataset, csv_rows, parse_float_row, read_table, write_lines
from .errors import ConfigError, ShapeError, ValidationError
from .graph import WeightGraph

#: Row spans at or below this trigger the degenerate normalization fallback.
DEGENERATE_SPAN = 1e-12

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PropagationConfig:
    """Propagation rate, iteration cap and relative-change stop threshold."""

    alpha: float = 0.05
    max_iters: int = 100
    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0,1], got {self.alpha}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class EnrichmentMatrix:
    """Signed n x l enrichment: relevance degrees on candidates in [0, 1],
    irrelevance degrees on non-candidates in [-1, 0]."""

    Yhat: np.ndarray

    def __post_init__(self):
        Yhat = np.asarray(self.Yhat, dtype=np.float64)
        if Yhat.ndim != 2:
            raise ShapeError(f"enrichment must be 2-d, got ndim={Yhat.ndim}")
        object.__setattr__(self, "Yhat", Yhat)

    @property
    def n(self) -> int:
        return self.Yhat.shape[0]

    @property
    def l(self) -> int:
        return self.Yhat.shape[1]


def normalize_step(F, Y) -> np.ndarray:
    """Rescale each row by its global minimum and candidate maximum.

    Entry f becomes ``min(1, (f - min_row) / (cand_max - min_row))``,
    which keeps candidates inside [0, 1] with the best candidate pinned
    at exactly 1 and caps non-candidates that overshoot. Rows whose
    span is degenerate get candidates set to 1 and the rest to 0.
    """
    F = np.asarray(F, dtype=np.float64)
    Y = np.asarray(Y)
    if F.shape != Y.shape:
        raise ShapeError(f"F{F.shape} and Y{Y.shape} must match")
    cand = Y == 1
    if not cand.any(axis=1).all():
        raise ValidationError("every row needs at least one candidate label")
    m = F.min(axis=1, keepdims=True)
    M = np.where(cand, F, -np.inf).max(axis=1, keepdims=True)
    span = M - m
    degenerate = span[:, 0] < DEGENERATE_SPAN
    out = np.minimum(1.0, (F - m) / np.where(degenerate[:, None], 1.0, span))
    if degenerate.any():
        out[degenerate] = cand[degenerate].astype(np.float64)
    return out


@single_threaded
def enrich(ds: Dataset, graph: WeightGraph, cfg: PropagationConfig) -> EnrichmentMatrix:
    """Run the propagation to a fixed point and sign the result.

    Iterates propagate/normalize until the relative Frobenius change
    ``||F_t - F_{t-1}|| / max(1, ||F_{t-1}||)`` drops below ``cfg.tol``
    or ``cfg.max_iters`` is reached; stopping at the cap logs a warning
    on the ``pmltk.enrichment`` logger. Deterministic: identical inputs
    yield a bit-identical matrix.
    """
    if graph.n != ds.n:
        raise ShapeError(f"graph has {graph.n} nodes but dataset has {ds.n} instances")
    Y = ds.Y
    F0 = Y.astype(np.float64)
    VT = graph.matrix().T.tocsr()
    F = F0
    for _ in range(cfg.max_iters):
        F_next = normalize_step(cfg.alpha * (VT @ F) + (1.0 - cfg.alpha) * F0, Y)
        change = np.linalg.norm(F_next - F) / max(1.0, np.linalg.norm(F))
        F = F_next
        if change < cfg.tol:
            break
    else:
        _log.warning(
            "enrich stopped at max_iters=%d without meeting tol=%g; last relative change %.3g",
            cfg.max_iters, cfg.tol, change,
        )
    Yhat = np.where(Y == 1, F, F - 1.0)
    return EnrichmentMatrix(Yhat)


def save_enrichment(em: EnrichmentMatrix, path) -> None:
    """Persist as dense CSV under a ``#n l`` header (stage checkpoint)."""
    write_lines(path, "enrichment", [f"#{em.n} {em.l}", *csv_rows(em.Yhat)])


def load_enrichment(path) -> EnrichmentMatrix:
    (n, l), rows = read_table(path, "enrichment", "n l")
    out = np.empty((n, l), dtype=np.float64)
    for i, (lineno, line) in enumerate(rows):
        out[i] = parse_float_row(line, l, lineno, "enrichment")
    return EnrichmentMatrix(out)
