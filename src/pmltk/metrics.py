"""Seven multi-label evaluation metrics with deterministic tie handling.

Instance-based: subset accuracy, Hamming loss, one-error, ranking loss,
average precision. Label-based: macro and micro F1. Ranking metrics use
raw scores; score ties count as ranking violations and argmax/rank ties
resolve toward the smaller label index. Instances whose ground truth is
empty or covers every label are excluded from the ranking metrics
(their denominators are undefined) and counted in
``skipped_instances``; when no instance remains, the three ranking
metrics are reported as 0.
"""

from __future__ import annotations

import io
import csv
import json
from dataclasses import dataclass, fields

import numpy as np

from .data import _as_binary
from .errors import ShapeError, ValidationError

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

    @classmethod
    def from_dict(cls, d: dict) -> "MetricsReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


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
    m, l = scores.shape
    if m == 0:
        raise ValidationError("cannot evaluate zero instances")

    saccuracy = float((labels == truth).all(axis=1).mean())
    hloss = float((labels != truth).mean())

    row_truth = truth.sum(axis=1)
    eligible = np.flatnonzero((row_truth > 0) & (row_truth < l))
    skipped = int(m - eligible.size)

    if eligible.size:
        oerr = []
        rloss = []
        ap = []
        for i in eligible:
            s = scores[i]
            rel = np.flatnonzero(truth[i] == 1)
            irr = np.flatnonzero(truth[i] == 0)
            top = int(np.argmax(s))  # first occurrence = smaller index on ties
            oerr.append(0.0 if truth[i, top] == 1 else 1.0)
            violations = (s[rel][:, None] <= s[irr][None, :]).sum()
            rloss.append(violations / (rel.size * irr.size))
            order = np.lexsort((np.arange(l), -s))  # descending score, index tie-break
            rank = np.empty(l, dtype=np.int64)
            rank[order] = np.arange(1, l + 1)
            rel_ranks = np.sort(rank[rel])
            ap.append(float((np.arange(1, rel.size + 1) / rel_ranks).mean()))
        oerror = float(np.mean(oerr))
        rloss_v = float(np.mean(rloss))
        ap_v = float(np.mean(ap))
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


def aggregate(reports, names=METRIC_NAMES) -> dict[str, tuple[float, float]]:
    """Sample mean and (n-1)-normalized standard deviation of each named
    report field.

    A single report aggregates to std 0.
    """
    reports = list(reports)
    if not reports:
        raise ValidationError("cannot aggregate zero reports")
    out = {}
    for name in names:
        vals = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        out[name] = (float(vals.mean()), std)
    return out


def report_to_json(report: MetricsReport) -> str:
    """Single report as a flat JSON object."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def reports_to_json(reports) -> str:
    """Benchmark-style JSON: per-split reports plus mean/std maps."""
    agg = aggregate(reports)
    doc = {
        "splits": [r.to_dict() for r in reports],
        "mean": {name: agg[name][0] for name in METRIC_NAMES},
        "std": {name: agg[name][1] for name in METRIC_NAMES},
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    """CSV with one row per split and a mean/std footer."""
    reports = list(reports)
    names = METRIC_NAMES + ("skipped_instances",)
    agg = aggregate(reports, names)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("split",) + names)
    for i, r in enumerate(reports):
        writer.writerow([i] + [repr(getattr(r, name)) for name in METRIC_NAMES]
                        + [r.skipped_instances])
    for j, label in enumerate(("mean", "std")):
        writer.writerow([label] + [repr(agg[name][j]) for name in names])
    return buf.getvalue()
