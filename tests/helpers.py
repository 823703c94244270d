"""Shared dataset builders and independent oracles used across tests.

Oracles are deliberately written as literal loops over the metric and
optimality definitions so they stay independent of the library's
vectorized implementations.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from pmltk import Dataset
from pmltk._blas import single_threaded
from pmltk.graph import NNLS_STEPS_PER_COLUMN, NNLS_TOL
from pmltk.trainer import TrainerState, nuclear_norm, update_b_admm


def fix_label_rows(T, rng):
    """Force every row to carry between 1 and l-1 labels."""
    l = T.shape[1]
    for i in range(T.shape[0]):
        if T[i].sum() == 0:
            T[i, rng.integers(l)] = 1
        if T[i].sum() == l:
            T[i, rng.integers(l)] = 0
    return T


def random_dataset(n=30, d=5, l=4, seed=0, density=0.3):
    """Unstructured dataset with valid label rows; truth equals candidates."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    T = (rng.random((n, l)) < density).astype(np.int8)
    T = fix_label_rows(T, rng)
    return Dataset(X, T, T)


def clustered_dataset(n=60, d=6, l=5, groups=4, seed=0, scale=0.25):
    """Separable dataset: tight clusters sharing a label set per cluster."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(groups, d)) * 4.0
    label_sets = np.zeros((groups, l), dtype=np.int8)
    for g in range(groups):
        size = int(rng.integers(1, min(3, l - 1) + 1))
        label_sets[g, rng.choice(l, size=size, replace=False)] = 1
    gid = rng.integers(groups, size=n)
    X = centers[gid] + rng.normal(size=(n, d)) * scale
    return Dataset(X, label_sets[gid].copy(), label_sets[gid].copy())


def brute_force_knn(X, k):
    """O(n^2) neighbor scan; ties broken toward the smaller index."""
    n = len(X)
    out = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            dist = sum((float(X[i][t]) - float(X[j][t])) ** 2 for t in range(len(X[i])))
            scored.append((dist, j))
        scored.sort()
        out.append([j for _, j in scored[:k]])
    return np.array(out, dtype=np.int64)


def nnls_kkt_residual(A, b, v):
    """Worst KKT violation of ``min ||Av-b||^2 s.t. v >= 0`` at v."""
    grad = 2.0 * A.T @ (A @ v - b)
    worst = 0.0
    for j in range(len(v)):
        if v[j] > 0:
            worst = max(worst, abs(grad[j]))
        else:
            worst = max(worst, max(0.0, -grad[j]))
    return worst


def nnls_objective(A, b, v):
    r = A @ v - b
    return float(r @ r)


def reference_nnls(A, b, counts=None):
    """Oracle for the batched NNLS core: the single-row Lawson-Hanson loop
    on ``G = A.T A``, ``c = A.T b``. When a dict is given as ``counts``,
    it receives the outer steps taken (``steps``), the blocking steps
    (``blocking``), the most blocking steps within one outer step
    (``blocking_run``) and the singular passive blocks solved by least
    squares (``lstsq``)."""
    counts = {} if counts is None else counts
    counts.update(steps=0, blocking=0, blocking_run=0, lstsq=0)
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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
            counts["lstsq"] += 1
            z[cols] = np.linalg.lstsq(block, c[cols], rcond=None)[0]
        return z

    for _ in range(NNLS_STEPS_PER_COLUMN * k + 10):
        w = c - G @ x
        w[passive] = -np.inf
        j = int(np.argmax(w))  # ties resolve to the smaller index
        if w[j] <= NNLS_TOL:
            break
        counts["steps"] += 1
        passive[j] = True
        z = solve_on_passive()
        run = 0
        while True:
            blocking = passive & (z <= 0.0)
            if not blocking.any():
                break
            counts["blocking"] += 1
            run += 1
            counts["blocking_run"] = max(counts["blocking_run"], run)
            denom = x[blocking] - z[blocking]
            steps = np.where(denom > 0.0, x[blocking] / np.where(denom > 0, denom, 1.0), 0.0)
            alpha = float(steps.min())
            x = x + alpha * (z - x)
            x[blocking] = np.where(steps == alpha, 0.0, x[blocking])
            passive &= x > 0.0
            z = solve_on_passive()
        x = z
    return x


def svt_objective(B, M, t):
    """Proximal objective the thresholding operator is supposed to minimize."""
    sing = np.linalg.svd(B, compute_uv=False)
    return float(t * sing.sum() + 0.5 * ((B - M) ** 2).sum())


def trainer_state(X, C, B, Theta, W):
    """A ``TrainerState`` whose carried ``X W`` and ``||W||_F^2`` are
    computed from ``W``."""
    return TrainerState(C, B, Theta, W, X @ W, float(np.vdot(W, W)))


@single_threaded
def reference_fit(X, Yhat, Y, cfg):
    """Oracle for ``fit``: the alternating loop without carried values,
    so every iteration forms the predictor W and recomputes ``X @ W`` in
    the confidence step and in the objective. Returns ``(W, trace)``."""
    X = np.asarray(X, dtype=np.float64)
    Yhat = np.asarray(Yhat, dtype=np.float64)
    Y = np.asarray(Y)
    n, d = X.shape
    l = Yhat.shape[1]
    C = np.where(Y == 1, np.maximum(Yhat, 0.0), 0.0)
    B, Theta = np.eye(l), np.zeros((l, l))
    W = np.zeros((d, l))
    dual = cfg.lambda2 > 0 and n < d
    G = X @ X.T if dual else X.T @ X
    G[np.diag_indices_from(G)] += cfg.lambda2
    ridge = cho_factor(G, lower=True)

    def objective(C, B, W):
        r1 = Yhat - C @ B
        r2 = C - X @ W
        return (
            float(np.vdot(r1, r1))
            + float(np.vdot(r2, r2))
            + cfg.lambda1 * nuclear_norm(B)
            + cfg.lambda2 * float(np.vdot(W, W))
        )

    trace = [objective(C, B, W)]
    for _ in range(cfg.outer_max):
        G = B @ B.T
        G[np.diag_indices_from(G)] += 1.0
        rhs = Yhat @ B.T + X @ W
        C = cho_solve(cho_factor(G, lower=True), rhs.T).T
        np.clip(C, 0.0, 1.0, out=C)
        C[Y == 0] = 0.0
        B, Theta = update_b_admm(trainer_state(X, C, B, Theta, W), Yhat, cfg)
        W = X.T @ cho_solve(ridge, C) if dual else cho_solve(ridge, X.T @ C)
        trace.append(objective(C, B, W))
        if abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.outer_tol:
            break
    return W, trace


def reference_evaluate(scores, labels, truth):
    """Oracle for ``metrics.evaluate``: the per-row loop it replaced, with
    the same arithmetic row by row. Returns the report as a plain dict, in
    ``MetricsReport.to_dict`` form, so the two can be compared exactly."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    m, l = scores.shape
    row_truth = truth.sum(axis=1)
    eligible = np.flatnonzero((row_truth > 0) & (row_truth < l))
    oerr, rloss, ap = [], [], []
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
    tp = ((labels == 1) & (truth == 1)).sum(axis=0).astype(np.float64)
    fp = ((labels == 1) & (truth == 0)).sum(axis=0).astype(np.float64)
    fn = ((labels == 0) & (truth == 1)).sum(axis=0).astype(np.float64)
    denom = 2 * tp + fp + fn
    pooled = denom.sum()
    return {
        "saccuracy": float((labels == truth).all(axis=1).mean()),
        "hloss": float((labels != truth).mean()),
        "oerror": float(np.mean(oerr)) if ap else 0.0,
        "rloss": float(np.mean(rloss)) if ap else 0.0,
        "ap": float(np.mean(ap)) if ap else 0.0,
        "macro_f1": float(np.divide(2 * tp, denom, out=np.zeros(l), where=denom > 0).mean()),
        "micro_f1": float(2 * tp.sum() / pooled) if pooled > 0 else 0.0,
        "skipped_instances": int(m - eligible.size),
    }


def brute_force_metrics(scores, labels, truth):
    """All seven metrics by direct enumeration; returns a plain dict."""
    m, l = scores.shape
    sacc = sum(
        1 for i in range(m) if all(labels[i][j] == truth[i][j] for j in range(l))
    ) / m
    hl = sum(
        1 for i in range(m) for j in range(l) if labels[i][j] != truth[i][j]
    ) / (m * l)

    oerr, rloss, ap = [], [], []
    skipped = 0
    for i in range(m):
        rel = [j for j in range(l) if truth[i][j] == 1]
        irr = [j for j in range(l) if truth[i][j] == 0]
        if not rel or not irr:
            skipped += 1
            continue
        best = max(range(l), key=lambda j: (scores[i][j], -j))
        oerr.append(0.0 if best in rel else 1.0)
        violations = sum(
            1 for u in rel for v in irr if scores[i][u] <= scores[i][v]
        )
        rloss.append(violations / (len(rel) * len(irr)))
        order = sorted(range(l), key=lambda j: (-scores[i][j], j))
        rank = {j: p + 1 for p, j in enumerate(order)}
        total = 0.0
        for u in rel:
            above = sum(1 for v in rel if rank[v] <= rank[u])
            total += above / rank[u]
        ap.append(total / len(rel))

    per_label = []
    for j in range(l):
        tp = sum(1 for i in range(m) if labels[i][j] == 1 and truth[i][j] == 1)
        fp = sum(1 for i in range(m) if labels[i][j] == 1 and truth[i][j] == 0)
        fn = sum(1 for i in range(m) if labels[i][j] == 0 and truth[i][j] == 1)
        denom = 2 * tp + fp + fn
        per_label.append(2 * tp / denom if denom > 0 else 0.0)
    tp = sum(1 for i in range(m) for j in range(l) if labels[i][j] == 1 and truth[i][j] == 1)
    fp = sum(1 for i in range(m) for j in range(l) if labels[i][j] == 1 and truth[i][j] == 0)
    fn = sum(1 for i in range(m) for j in range(l) if labels[i][j] == 0 and truth[i][j] == 1)
    denom = 2 * tp + fp + fn

    return {
        "saccuracy": sacc,
        "hloss": hl,
        "oerror": float(np.mean(oerr)) if oerr else 0.0,
        "rloss": float(np.mean(rloss)) if rloss else 0.0,
        "ap": float(np.mean(ap)) if ap else 0.0,
        "macro_f1": float(np.mean(per_label)),
        "micro_f1": 2 * tp / denom if denom > 0 else 0.0,
        "skipped_instances": skipped,
    }
