"""Experimental protocol: noise, repeated splits, tuning, reporting.

One run corrupts the dataset once, draws the requested number of
train/test splits, and for each split selects the ridge weight by
cross-validation scored against the candidate labels of held-out folds
(ground truth is never visible to the learner), enriches the training
labels, fits the predictor and evaluates on the test half against
ground truth. Stage 1 is always ``enrich_dataset``: the folds,
``fit_pipeline`` and the CLI's ``enrich`` all call it, so the graph
never sees the bias column.

Every random draw is seeded through a hierarchy rooted at the master
seed (numpy ``SeedSequence`` spawn keys), so adding splits never
perturbs the results of earlier splits. The run holds BLAS at one
thread (see ``_blas``), so for a given numpy/scipy build the whole
report is a deterministic function of (dataset, config, seed).
"""

from __future__ import annotations

import logging
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
from .errors import ConfigError, DataError, PmltkError
from .graph import KnnConfig, build_graph
from .metrics import METRIC_NAMES, MetricsReport, aggregate, evaluate
from .trainer import TrainerConfig, fit, predict

_log = logging.getLogger(__name__)

# Seed-derivation stage tags (spawn-key prefixes under the master seed).
_STAGE_NOISE = 0
_STAGE_SPLIT = 1
_STAGE_CV = 2


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run or a CLI command needs. The stage
    settings default to the stage configs' defaults, and every stage
    config is built once here, so a bad value fails before a file is
    read."""

    dataset: str
    data_format: str = SPARSE_FORMAT
    noise: int = 100
    splits: int = 5
    split_fraction: float = SplitSpec.train_fraction
    k: int = KnnConfig.k
    alpha: float = PropagationConfig.alpha
    lambda1: float = TrainerConfig.lambda1
    lambda2: float | None = None
    lambda2_grid: tuple[float, ...] = (10.0, 100.0)
    cv_folds: int = 5
    tau: float = TrainerConfig.tau
    admm_iters: int = TrainerConfig.admm_iters
    seed: int = 0
    standardize_features: bool = False
    add_bias: bool = False

    def __post_init__(self):
        if self.data_format not in FORMATS:
            raise ConfigError(f"unknown dataset format {self.data_format!r}")
        if self.splits < 1:
            raise ConfigError(f"split count must be >= 1, got {self.splits}")
        if not self.lambda2_grid:
            raise ConfigError("lambda2 grid must be non-empty")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        NoiseConfig(self.noise)
        SplitSpec(self.split_fraction)
        self.knn_config()
        self.propagation_config()
        fixed = () if self.lambda2 is None else (self.lambda2,)
        for lam in (*self.lambda2_grid, *fixed):
            self.trainer_config(lam)

    def knn_config(self) -> KnnConfig:
        return KnnConfig(k=self.k)

    def propagation_config(self) -> PropagationConfig:
        return PropagationConfig(alpha=self.alpha)

    def trainer_config(self, lambda2: float) -> TrainerConfig:
        return TrainerConfig(lambda1=self.lambda1, lambda2=lambda2, tau=self.tau,
                             admm_iters=self.admm_iters)


def derive_seed(master: int, *path: int) -> int:
    """Deterministic child seed for a stage path under the master seed."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def transform_features(cfg: ExperimentConfig, train: Dataset, *others: Dataset) -> list[Dataset]:
    """``train`` and ``others`` with the feature transform ``cfg`` asks for,
    fitted on ``train`` alone: z-scores on the training mean and std
    (constant columns are centred, not scaled), then a constant-1 column
    appended last. Without either setting the sets come back as given."""
    if cfg.standardize_features:
        mu = train.X.mean(axis=0)
        sigma = train.X.std(axis=0)
        sigma = np.where(sigma < 1e-12, 1.0, sigma)
    out = []
    for ds in (train, *others):
        X = (ds.X - mu) / sigma if cfg.standardize_features else ds.X
        if cfg.add_bias:
            X = np.hstack([X, np.ones((ds.n, 1))])
        out.append(ds if X is ds.X else Dataset(X, ds.Y, ds.Ytruth))
    return out


def _fold_indices(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded even partition: the first n % folds folds get one extra index."""
    rng = np.random.Generator(np.random.PCG64(seed))
    parts = np.array_split(rng.permutation(n), folds)
    return [np.sort(p) for p in parts]


def enrich_dataset(ds: Dataset, cfg: ExperimentConfig) -> EnrichmentMatrix:
    """Stage 1: the kNN graph with ``cfg.knn_config()`` and the propagation
    with ``cfg.propagation_config()``. The graph sees the instance
    features only: with ``cfg.add_bias`` the constant column that
    ``transform_features`` appends last is left out."""
    X = ds.X[:, :-1] if cfg.add_bias else ds.X
    return enrich(ds, build_graph(X, cfg.knn_config()), cfg.propagation_config())


@single_threaded
def select_lambda2(train: Dataset, cfg: ExperimentConfig, seed: int) -> float:
    """Cross-validated ridge weight from ``cfg.lambda2_grid``, or
    ``cfg.lambda2`` when that fixes it.

    ``train`` is split into ``cfg.cv_folds`` folds seeded by ``seed``.
    For each fold the remaining instances are enriched once with
    ``enrich_dataset`` (the enrichment does not depend on the grid
    value) and a model is fit per grid value with
    ``cfg.trainer_config``; fold scores are average precision against
    the held-out candidate labels. Highest mean wins, ties go to the
    smaller value. The mean AP of every grid value and the choice are
    logged at INFO on the ``pmltk.pipeline`` logger.
    """
    if cfg.lambda2 is not None:
        return float(cfg.lambda2)
    grid = sorted(float(g) for g in cfg.lambda2_grid)
    if len(grid) == 1:
        return grid[0]
    folds = cfg.cv_folds
    if train.n < folds:
        raise ConfigError(f"cannot make {folds} folds out of {train.n} training instances")
    ap_sums = np.zeros(len(grid))
    for part in _fold_indices(train.n, folds, seed):
        sub = train.subset(np.setdiff1d(np.arange(train.n), part))
        held = train.subset(part)
        em = enrich_dataset(sub, cfg)
        for gi, lam in enumerate(grid):
            model, _, _ = fit(sub.X, em.Yhat, sub.Y, cfg.trainer_config(lam))
            scores, labels = predict(model, held.X)
            ap_sums[gi] += evaluate(scores, labels, held.Y).ap
    best = int(np.argmax(ap_sums))  # first max = smallest grid value on ties
    _log.info(
        "lambda2 CV mean AP over %d folds: %s; selected %r",
        folds, ", ".join(f"{lam!r}: {ap:.6f}" for lam, ap in zip(grid, ap_sums / folds)), grid[best],
    )
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


def fit_pipeline(train: Dataset, cfg: ExperimentConfig, split_index: int,
                 enrichment: EnrichmentMatrix | None = None):
    """Both stages on a training set: select lambda2 (``select_lambda2``),
    enrich (``enrich_dataset``, unless ``enrichment`` is given), then fit.

    The cross-validation folds are seeded from ``cfg.seed`` and
    ``split_index``. Returns ``(model, trace, lambda2)``, where ``trace``
    is the objective trace of the fit.
    """
    if enrichment is not None and (enrichment.n, enrichment.l) != (train.n, train.l):
        raise DataError(
            f"enrichment is {enrichment.n} x {enrichment.l} but dataset is {train.n} x {train.l}"
        )
    with _stage("lambda2 selection"):
        lam2 = select_lambda2(train, cfg, derive_seed(cfg.seed, _STAGE_CV, split_index))
    if enrichment is None:
        with _stage("enrichment"):
            enrichment = enrich_dataset(train, cfg)
    with _stage("training"):
        model, _, trace = fit(train.X, enrichment.Yhat, train.Y, cfg.trainer_config(lam2))
    return model, trace, lam2


@single_threaded
def run_benchmark(cfg: ExperimentConfig) -> dict:
    """Repeated-split protocol.

    Returns a dict with per-split reports, aggregate mean/std and the
    selected lambda2 values. Writes and prints nothing; the CLI's
    ``benchmark`` command writes the report file and the summary table.
    """
    # corrupt once: all splits share the same noisy dataset
    ds = load(cfg.dataset, cfg.data_format)
    noisy = inject_noise(ds, NoiseConfig(a=cfg.noise, seed=derive_seed(cfg.seed, _STAGE_NOISE)))
    reports: list[MetricsReport] = []
    lambdas: list[float] = []
    for i in range(cfg.splits):
        try:
            with _stage("split"):
                spec = SplitSpec(cfg.split_fraction, derive_seed(cfg.seed, _STAGE_SPLIT, i))
                train, test = transform_features(cfg, *split(noisy, spec))
            model, _, lam2 = fit_pipeline(train, cfg, i)
            with _stage("evaluation"):
                report = evaluate(*predict(model, test.X), test.Ytruth)
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
