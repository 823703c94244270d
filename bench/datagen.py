"""Seeded synthetic multi-label datasets shaped like Genbase and Medical.

The real Genbase and Medical files are not bundled, so the benchmark
generates data of the same shape: instances fall into label-specific
clusters, each cluster carries a label set of one or two labels (plus
an occasional extra label per instance), and features are either
sparse binary (a per-cluster motif over a low background rate, like
the real files) or real-valued Gaussian around a per-cluster centre.

Files are written in pmltk's documented text formats by this module's
own writer, so a change to pmltk's writer never changes the inputs.
The same (shape, features, seed, rows) always yields the same bytes.
"""

from __future__ import annotations

import hashlib

import numpy as np

SHAPES = {"genbase": (662, 1186, 27), "medical": (978, 1449, 45)}
FEATURES = ("binary", "real")

# (motif size, motif on-rate, background on-rate) for binary features.
_BINARY_DENSITY = {"genbase": (40, 0.6, 0.01), "medical": (60, 0.5, 0.01)}
_SHAPE_TAG = {"genbase": 1, "medical": 2}
_FEATURE_TAG = {"binary": 1, "real": 2}


def generate(shape: str, features: str, seed: int, rows: int | None = None):
    """Feature matrix X (rows x d) and binary label matrix Y (rows x l).

    ``rows`` defaults to the shape's instance count. Cluster structure
    depends only on (shape, features, seed), so extra rows (a test half)
    come from the same distribution.
    """
    n, d, l = SHAPES[shape]
    rows = n if rows is None else rows
    root = np.random.SeedSequence(seed, spawn_key=(_SHAPE_TAG[shape], _FEATURE_TAG[features]))
    struct_rng, row_rng = (np.random.default_rng(s) for s in root.spawn(2))

    # One cluster per label; a third of the clusters pair their label with
    # another. The pairing count and the size profile are fixed and only
    # their placement is drawn, so every seed poses a problem of the same
    # difficulty and run times compare across seeds.
    label_sets = np.zeros((l, l), dtype=np.int8)
    label_sets[np.arange(l), np.arange(l)] = 1
    for g in struct_rng.choice(l, size=l // 3, replace=False):
        other = int(struct_rng.integers(l - 1))
        label_sets[g, other + (other >= g)] = 1
    # imbalanced cluster sizes, as in the real label distributions
    profile = 1.0 / np.arange(1, l + 1) ** 0.7
    weights = (profile / profile.sum())[struct_rng.permutation(l)]

    gid = row_rng.choice(l, size=rows, p=weights)
    Y = label_sets[gid].copy()
    extra = row_rng.random(rows) < 0.1
    Y[np.flatnonzero(extra), row_rng.integers(l, size=int(extra.sum()))] = 1

    if features == "binary":
        motif_size, on_rate, background = _BINARY_DENSITY[shape]
        motifs = np.zeros((l, d), dtype=bool)
        for g in range(l):
            motifs[g, struct_rng.choice(d, size=motif_size, replace=False)] = True
        rate = np.where(motifs[gid], on_rate, background)
        X = (row_rng.random((rows, d)) < rate).astype(np.float64)
    elif features == "real":
        centres = struct_rng.normal(size=(l, d))
        X = np.round(centres[gid] + 1.5 * row_rng.normal(size=(rows, d)), 4)
    else:
        raise ValueError(f"unknown feature kind {features!r}; expected one of {FEATURES}")

    check_shape(X, Y, (rows, d, l))
    return X, Y


def check_shape(X, Y, expected) -> None:
    """Raise unless (n, d, l) matches and every label row has 1..l-1 labels."""
    got = (X.shape[0], X.shape[1], Y.shape[1])
    if got != tuple(expected) or Y.shape[0] != X.shape[0]:
        raise ValueError(f"generated shape {got} (Y {Y.shape}) != expected {tuple(expected)}")
    sums = Y.sum(axis=1)
    if (sums < 1).any():
        raise ValueError(f"row {int(np.argmin(sums))} has an empty label set")
    if (sums > Y.shape[1] - 1).any():
        raise ValueError(f"row {int(np.argmax(sums))} carries more than l-1 labels")


def to_sparse_text(X, Y) -> str:
    """``sparse-multilabel`` text: ``#n d l`` then ``L f:v ...`` per row."""
    lines = [f"#{X.shape[0]} {X.shape[1]} {Y.shape[1]}"]
    for x, y in zip(X, Y):
        labels = ",".join(str(j) for j in np.flatnonzero(y))
        feats = " ".join(f"{j}:{float(x[j])!r}" for j in np.flatnonzero(x))
        lines.append(f"{labels} {feats}" if feats else labels)
    return "\n".join(lines) + "\n"


def to_dense_text(X, Y) -> str:
    """``dense-csv`` text: ``#n d l`` then ``x1,...,xd;y1,...,yl`` per row."""
    fmt = "{:.4f}".format
    lines = [f"#{X.shape[0]} {X.shape[1]} {Y.shape[1]}"]
    for x, y in zip(X, Y):
        lines.append(",".join(map(fmt, x.tolist())) + ";" + ",".join(map(str, y.tolist())))
    return "\n".join(lines) + "\n"


def write(path, text: str) -> str:
    """Write ``text`` as UTF-8 with LF endings; return the sha256 of the bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()

