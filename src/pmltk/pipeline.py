"""Experimental protocol: noise, repeated splits, tuning, reporting.

One run corrupts the dataset once, draws the requested number of
train/test splits, and for each split enriches the training labels,
selects the ridge weight by cross-validation scored against the
candidate labels of held-out folds (ground truth is never visible to
the learner), fits the predictor and evaluates on the test half
against ground truth.

Every random draw is seeded through a hierarchy rooted at the master
seed (numpy ``SeedSequence`` spawn keys), so adding splits never
perturbs the results of earlier splits. The run holds BLAS at one
thread (see ``_blas``), so for a given numpy/scipy build the whole
report is a deterministic function of (dataset, config, seed).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ._blas import single_threaded
from .data import (
    FORMATS,
    SPARSE_FORMAT,
    Dataset,
    NoiseConfig,
    SplitSpec,
    inject_noise,
    load,
    split,
)
from .enrichment import EnrichmentMatrix, PropagationConfig, enrich
from .errors import ConfigError, DataError, PmltkError, StateError
from .graph import KnnConfig, build_graph
from .metrics import METRIC_NAMES, MetricsReport, aggregate, evaluate
from .trainer import Model, TrainerConfig, fit, predict

# Seed-derivation stage tags (spawn-key prefixes under the master seed).
_STAGE_NOISE = 0
_STAGE_SPLIT = 1
_STAGE_CV = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run or a ``train`` command needs, defaults
    matching the usual protocol."""

    dataset: str
    data_format: str = SPARSE_FORMAT
    noise: int = 100
    splits: int = 5
    split_fraction: float = 0.5
    k: int = 10
    alpha: float = 0.05
    lambda1: float = 1.0
    lambda2: float | None = None
    lambda2_grid: tuple[float, ...] = (10.0, 100.0)
    cv_folds: int = 5
    tau: float = 1.0
    admm_iters: int = 5
    seed: int = 0
    standardize_features: bool = False
    add_bias: bool = False

    def __post_init__(self):
        if self.data_format not in FORMATS:
            raise ConfigError(f"unknown dataset format {self.data_format!r}")
        if self.noise < 0:
            raise ConfigError(f"noise percentage must be >= 0, got {self.noise}")
        if self.splits < 1:
            raise ConfigError(f"split count must be >= 1, got {self.splits}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError(f"split fraction must lie in (0,1), got {self.split_fraction}")
        if not self.lambda2_grid:
            raise ConfigError("lambda2 grid must be non-empty")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")

    def knn_config(self) -> KnnConfig:
        return KnnConfig(k=self.k)

    def propagation_config(self) -> PropagationConfig:
        return PropagationConfig(alpha=self.alpha)

    def trainer_config(self, lambda2: float) -> TrainerConfig:
        return TrainerConfig(
            lambda1=self.lambda1,
            lambda2=lambda2,
            tau=self.tau,
            admm_iters=self.admm_iters,
        )


def derive_seed(master: int, *path: int) -> int:
    """Deterministic child seed for a stage path under the master seed."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def prepare_dataset(cfg: ExperimentConfig) -> Dataset:
    """Load and corrupt once; all splits share the same noisy dataset."""
    ds = load(cfg.dataset, cfg.data_format)
    return inject_noise(ds, NoiseConfig(a=cfg.noise, seed=derive_seed(cfg.seed, _STAGE_NOISE)))


def standardize(train: Dataset, test: Dataset | None = None):
    """Z-score features on train statistics; constant columns pass through."""
    mu = train.X.mean(axis=0)
    sigma = train.X.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)

    def apply(ds):
        return Dataset((ds.X - mu) / sigma, ds.Y, ds.Ytruth)

    return apply(train) if test is None else (apply(train), apply(test))


def add_bias_column(ds: Dataset) -> Dataset:
    ones = np.ones((ds.n, 1))
    return Dataset(np.hstack([ds.X, ones]), ds.Y, ds.Ytruth)


def _transform(train: Dataset, test: Dataset, cfg: ExperimentConfig):
    if cfg.standardize_features:
        train, test = standardize(train, test)
    if cfg.add_bias:
        train, test = add_bias_column(train), add_bias_column(test)
    return train, test


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded even partition: the first n % folds folds get one extra index."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = np.array_split(rng.permutation(n), folds)
    return [np.sort(p) for p in parts]


@single_threaded
def select_lambda2(
    train: Dataset,
    grid,
    folds: int,
    seed: int,
    knn_cfg: KnnConfig = KnnConfig(),
    prop_cfg: PropagationConfig = PropagationConfig(),
    lambda1: float = 1.0,
    tau: float = 1.0,
    admm_iters: int = 5,
) -> float:
    """Cross-validated ridge weight.

    For each fold the remaining instances are enriched once (the
    enrichment does not depend on the grid value) and a model is fit
    per grid value; fold scores are average precision against the
    held-out candidate labels. Highest mean wins, ties go to the
    smaller value.
    """
    grid = sorted(float(g) for g in grid)
    if not grid:
        raise ConfigError("lambda2 grid must be non-empty")
    if len(grid) == 1:
        return grid[0]
    if train.n < folds:
        raise ConfigError(
            f"cannot make {folds} folds out of {train.n} training instances"
        )
    fold_parts = _fold_indices(train.n, folds, seed)
    ap_sums = np.zeros(len(grid))
    all_idx = np.arange(train.n)
    for part in fold_parts:
        rest = np.setdiff1d(all_idx, part)
        sub = train.subset(rest)
        held = train.subset(part)
        graph = build_graph(sub.X, knn_cfg)
        em = enrich(sub, graph, prop_cfg)
        for gi, lam in enumerate(grid):
            tcfg = TrainerConfig(
                lambda1=lambda1, lambda2=lam, tau=tau, admm_iters=admm_iters
            )
            model, _, _ = fit(sub.X, em.Yhat, sub.Y, tcfg)
            scores, labels = predict(model, held.X)
            ap_sums[gi] += evaluate(scores, labels, held.Y).ap
    best = int(np.argmax(ap_sums))  # first max = smallest grid value on ties
    return grid[best]


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing pipeline stage prefixed.

    The message is changed on the exception itself, so its type and
    attributes (such as ``ParseError.line``) survive.
    """
    try:
        yield
    except PmltkError as exc:
        exc.args = (f"{name} stage: {exc}",)
        raise


def fit_pipeline(
    train: Dataset,
    cfg: ExperimentConfig,
    split_index: int,
    enrichment: EnrichmentMatrix | None = None,
):
    """Both stages on a training set: select lambda2 by cross-validation
    (unless ``cfg.lambda2`` fixes it), build the graph and enrich (unless
    ``enrichment`` is given), then fit.

    The cross-validation folds are seeded from ``cfg.seed`` and
    ``split_index``. Returns ``(model, trace, lambda2)``, where ``trace``
    is the objective trace of the fit.
    """
    if enrichment is not None and (enrichment.n, enrichment.l) != (train.n, train.l):
        raise DataError(
            f"enrichment is {enrichment.n} x {enrichment.l} but dataset is {train.n} x {train.l}"
        )
    if cfg.lambda2 is not None:
        lam2 = float(cfg.lambda2)
    else:
        with _stage("lambda2 selection"):
            lam2 = select_lambda2(
                train,
                cfg.lambda2_grid,
                cfg.cv_folds,
                derive_seed(cfg.seed, _STAGE_CV, split_index),
                knn_cfg=cfg.knn_config(),
                prop_cfg=cfg.propagation_config(),
                lambda1=cfg.lambda1,
                tau=cfg.tau,
                admm_iters=cfg.admm_iters,
            )
    if enrichment is None:
        with _stage("enrichment"):
            graph = build_graph(train.X, cfg.knn_config())
            enrichment = enrich(train, graph, cfg.propagation_config())
    with _stage("training"):
        model, _, trace = fit(train.X, enrichment.Yhat, train.Y, cfg.trainer_config(lam2))
    return model, trace, lam2


def _run_split(noisy: Dataset, cfg: ExperimentConfig, index: int):
    with _stage("split"):
        train, test = split(
            noisy,
            SplitSpec(cfg.split_fraction, derive_seed(cfg.seed, _STAGE_SPLIT, index)),
        )
        train, test = _transform(train, test, cfg)
    model, _, lam2 = fit_pipeline(train, cfg, index)
    with _stage("evaluation"):
        scores, labels = predict(model, test.X)
        if test.Ytruth is None:
            raise StateError("test split carries no ground truth to evaluate against")
        report = evaluate(scores, labels, test.Ytruth)
    return model, report, lam2


def run_pipeline(cfg: ExperimentConfig, split_index: int = 0) -> tuple[Model, MetricsReport]:
    """Full two-stage run on one split: corrupt, split, enrich, train, evaluate."""
    noisy = prepare_dataset(cfg)
    model, report, _ = _run_split(noisy, cfg, split_index)
    return model, report


@single_threaded
def run_benchmark(cfg: ExperimentConfig) -> dict:
    """Repeated-split protocol.

    Returns a dict with per-split reports, aggregate mean/std and the
    selected lambda2 values. Writes and prints nothing; the CLI's
    ``benchmark`` command writes the report file and the summary table.
    """
    noisy = prepare_dataset(cfg)
    reports: list[MetricsReport] = []
    lambdas: list[float] = []
    for i in range(cfg.splits):
        try:
            _, report, lam2 = _run_split(noisy, cfg, i)
        except PmltkError as exc:
            exc.args = (f"split {i} failed: {exc}",)
            raise
        reports.append(report)
        lambdas.append(lam2)
    agg = aggregate(reports)
    return {
        "per_split": [r.to_dict() for r in reports],
        "mean": {name: agg[name][0] for name in METRIC_NAMES},
        "std": {name: agg[name][1] for name in METRIC_NAMES},
        "lambda2_per_split": lambdas,
    }
