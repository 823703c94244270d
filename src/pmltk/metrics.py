"""Seven multi-label evaluation metrics with deterministic tie handling.

Instance-based: subset accuracy, Hamming loss, one-error, ranking loss,
average precision. Label-based: macro and micro F1. Ranking metrics use
raw scores; score ties count as ranking violations and argmax/rank ties
resolve toward the smaller label index. Instances whose ground truth is
empty or covers every label are excluded from the ranking metrics
(their denominators are undefined) and counted in
``skipped_instances``; when no instance remains, the three ranking
metrics are reported as 0.

The ranking metrics are computed over all eligible rows at once, with
the arithmetic of a per-row loop, so every value is the float that loop
gives. One-error is one ``argmax``, and ranking loss one broadcast
pair comparison taken in row blocks. Average precision ranks by one
stable sort and is averaged per group of rows that share a
relevant-label count ``r``: each group is one ``(rows, r)`` array whose
row means sum in the same order as a 1-D mean over one row's ``r``
precisions.
"""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass, fields

import numpy as np

from .data import _as_binary
from .errors import NumericError, ShapeError, ValidationError

# Most entries of the rows x l x l boolean temporary ``_violations`` holds.
_PAIR_CELLS = 1 << 20

METRIC_NAMES = (
    "saccuracy",
    "hloss",
    "oerror",
    "rloss",
    "ap",
    "macro_f1",
    "micro_f1",
)


@dataclass(frozen=True)
class MetricsReport:
    saccuracy: float
    hloss: float
    oerror: float
    rloss: float
    ap: float
    macro_f1: float
    micro_f1: float
    skipped_instances: int = 0

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def evaluate(scores, labels, truth) -> MetricsReport:
    """Score predictions against ground truth.

    ``scores`` are real-valued, ``labels`` the binarized predictions and
    ``truth`` the ground-truth matrix, all m x l.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = _as_binary(labels, "labels")
    truth = _as_binary(truth, "truth")
    if scores.ndim != 2 or scores.shape != labels.shape or scores.shape != truth.shape:
        raise ShapeError(
            f"shape mismatch: scores{scores.shape}, labels{labels.shape}, truth{truth.shape}"
        )
    if not np.isfinite(scores).all():
        raise NumericError("non-finite scores")
    m, l = scores.shape
    if m == 0:
        raise ValidationError("cannot evaluate zero instances")

    saccuracy = float((labels == truth).all(axis=1).mean())
    hloss = float((labels != truth).mean())

    row_truth = truth.sum(axis=1)
    eligible = np.flatnonzero((row_truth > 0) & (row_truth < l))
    skipped = int(m - eligible.size)

    if eligible.size:
        S = scores[eligible]
        T = truth[eligible] == 1
        top = np.argmax(S, axis=1)  # first occurrence = smaller index on ties
        oerror = float(np.mean(np.where(T[np.arange(T.shape[0]), top], 0.0, 1.0)))
        r = T.sum(axis=1)
        rloss_v = float(np.mean(_violations(S, T) / (r * (l - r))))
        ap_v = float(np.mean(_average_precision(S, T, r)))
    else:
        oerror = rloss_v = ap_v = 0.0

    tp = ((labels == 1) & (truth == 1)).sum(axis=0).astype(np.float64)
    fp = ((labels == 1) & (truth == 0)).sum(axis=0).astype(np.float64)
    fn = ((labels == 0) & (truth == 1)).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    per_label = np.divide(2 * tp, denom, out=np.zeros(l), where=denom > 0)
    macro_f1 = float(per_label.mean())
    pooled = denom.sum()
    micro_f1 = float(2 * tp.sum() / pooled) if pooled > 0 else 0.0

    return MetricsReport(
        saccuracy=saccuracy,
        hloss=hloss,
        oerror=oerror,
        rloss=rloss_v,
        ap=ap_v,
        macro_f1=macro_f1,
        micro_f1=micro_f1,
        skipped_instances=skipped,
    )


def _violations(S, T) -> np.ndarray:
    """Per row, the (relevant, irrelevant) label pairs whose relevant
    score is not above the irrelevant one; ``T`` marks the relevant
    labels. Rows go in blocks so the rows x l x l temporary stays under
    ``_PAIR_CELLS`` entries."""
    m, l = S.shape
    out = np.empty(m, dtype=np.int64)
    step = max(1, _PAIR_CELLS // (l * l))
    for a in range(0, m, step):
        s, t = S[a:a + step], T[a:a + step]
        pairs = s[:, :, None] <= s[:, None, :]
        pairs &= t[:, :, None]
        pairs &= ~t[:, None, :]
        out[a:a + step] = pairs.sum(axis=(1, 2))
    return out


def _average_precision(S, T, r) -> np.ndarray:
    """Per row, the mean over relevant labels of (relevant labels ranked
    at or above it) / (its rank), where ``r`` counts each row's relevant
    labels. Ranks come from one stable descending sort, so ties go to the
    smaller index; the relevant labels' ranks are read in rank order, so
    the j-th of them has j relevant labels at or above it. Rows with the
    same ``r`` form one ``(rows, r)`` array whose row means sum in the
    order of a per-row 1-D mean."""
    order = np.argsort(-S, axis=1, kind="stable")
    hits = np.take_along_axis(T, order, axis=1)
    out = np.empty(S.shape[0])
    for k in np.unique(r):
        rows = np.flatnonzero(r == k)
        ranks = np.nonzero(hits[rows])[1].reshape(rows.size, k) + 1
        out[rows] = (np.arange(1, k + 1) / ranks).mean(axis=1)
    return out


def aggregate(reports) -> dict[str, tuple[float, float]]:
    """Sample mean and (n-1)-normalized standard deviation of every report
    field, ``skipped_instances`` included.

    A single report aggregates to std 0.
    """
    reports = list(reports)
    if not reports:
        raise ValidationError("cannot aggregate zero reports")
    out = {}
    for f in fields(MetricsReport):
        vals = np.array([getattr(r, f.name) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[f.name] = (float(vals.mean()), std)
    return out


def report_to_json(report: MetricsReport) -> str:
    """Single report as a flat JSON object."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def reports_to_json(reports, agg) -> str:
    """Benchmark-style JSON: per-split reports plus the metrics' mean/std
    maps, taken from ``agg``, the reports' ``aggregate``."""
    doc = {
        "splits": [r.to_dict() for r in reports],
        "mean": {name: agg[name][0] for name in METRIC_NAMES},
        "std": {name: agg[name][1] for name in METRIC_NAMES},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports, agg) -> str:
    """CSV with one row per split and a mean/std footer taken from
    ``agg``, the reports' ``aggregate``."""
    names = METRIC_NAMES + ("skipped_instances",)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("split",) + names)
    for i, r in enumerate(reports):
        writer.writerow([i] + [repr(getattr(r, name)) for name in METRIC_NAMES]
                        + [r.skipped_instances])
    for j, label in enumerate(("mean", "std")):
        writer.writerow([label] + [repr(agg[name][j]) for name in names])
    return buf.getvalue()
