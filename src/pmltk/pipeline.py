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
perturbs the results of earlier splits. BLAS runs at one thread (see
``_blas``), so for one numpy/scipy build and CPU type the report is a
deterministic function of (dataset with its row order, config, seed).

The cross-validation folds are independent, so ``_run_folds`` runs
them on up to one process per usable CPU. Each fold's arithmetic is the
same in any process and the fold scores are summed in the caller in fold
order, so the result does not depend on the number of processes.
Children are forked, not spawned: a spawned worker would import numpy,
scipy and pmltk again, which costs about as much as the folds it would
take over. A fork is made only while no other Python thread is alive;
the bundled OpenBLAS builds stop their own thread pools around a fork
(``pthread_atfork``).
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace

import numpy as np

from ._blas import single_threaded
from .data import (
    SPARSE_FORMAT,
    Dataset,
    NoiseConfig,
    SplitSpec,
    _check_format,
    _split_rows,
    inject_noise,
    load,
)
from .enrichment import EnrichmentMatrix, PropagationConfig, enrich
from .errors import ConfigError, DataError, PmltkError
from .graph import KnnConfig, build_graph
from .metrics import METRIC_NAMES, MetricsReport, aggregate, evaluate
from .trainer import FeatureTransform, TrainerConfig, fit, predict

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
    seed: int = 0
    standardize_features: bool = False
    add_bias: bool = False

    def __post_init__(self):
        _check_format(self.data_format)
        if self.splits < 1:
            raise ConfigError(f"split count must be >= 1, got {self.splits}")
        if not self.lambda2_grid:
            raise ConfigError("lambda2 grid must be non-empty")
        if self.cv_folds < 2:
            raise ConfigError(f"cv_folds must be >= 2, got {self.cv_folds}")
        NoiseConfig(self.noise, self.seed)
        SplitSpec(self.split_fraction, self.seed)
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
        return TrainerConfig(lambda1=self.lambda1, lambda2=lambda2)


def derive_seed(master: int, *path: int) -> int:
    """Deterministic child seed for a stage path under the master seed."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def transform_features(cfg: ExperimentConfig,
                       train: Dataset) -> tuple[FeatureTransform | None, Dataset]:
    """The feature transform ``cfg`` asks for, fitted on ``train`` alone,
    and ``train`` through it: z-scores on the training mean and std
    (constant columns are centred, not scaled), then a constant-1 column
    appended last. ``(None, train)`` without either setting. Any other set
    goes through the model's transform, which ``predict`` applies."""
    if not (cfg.standardize_features or cfg.add_bias):
        return None, train
    if cfg.standardize_features:
        mean, scale = train.X.mean(axis=0), train.X.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
    else:
        mean, scale = np.zeros(train.d), np.ones(train.d)
    transform = FeatureTransform(mean, scale, cfg.add_bias)
    return transform, Dataset(transform.apply(train.X), train.Y, train.Ytruth)


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


def _fold_aps(train: Dataset, cfg: ExperimentConfig, grid: list[float], part) -> np.ndarray:
    """AP on the held-out fold ``part`` of ``train`` per grid value, each
    model fit on the rest of ``train`` after one ``enrich_dataset``."""
    sub = train.subset(np.setdiff1d(np.arange(train.n), part))
    held = train.subset(part)
    em = enrich_dataset(sub, cfg)
    aps = np.zeros(len(grid))
    for gi, lam in enumerate(grid):
        model, _, _ = fit(sub.X, em.Yhat, sub.Y, cfg.trainer_config(lam))
        scores, labels = predict(model, held.X)
        aps[gi] = evaluate(scores, labels, held.Y).ap
    return aps


def _cv_workers(folds: int) -> int:
    """Processes that run the CV folds: one per usable CPU, at most one
    per fold. One, the caller alone, without ``os.fork`` or while another
    thread is alive, because a forked child holds only the forking thread
    and would inherit any lock another thread held at the fork."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(folds, cpus or 1))


def _run_folds(folds: int, run_fold) -> list:
    """``[run_fold(i) for i in range(folds)]``, on up to one process per
    usable CPU (see the module docstring).

    The folds are cut into contiguous blocks, one per process
    (``_cv_workers``): the caller runs the first block, forked children
    run the others. The caller alone runs every fold when there is one
    usable CPU, when ``os.fork`` is missing or when another thread is
    alive. A child sends ``(results in fold order, log records)`` back
    through a pipe once it has run its whole block. It hands back every
    log record, of any logger, before a filter or handler sees it, and
    the caller passes it to its logger after the earlier folds, so each
    record meets the filters and handlers once and in fold order, as in
    a run in one process. A block a child did not send back whole (a fold
    failed, the fork failed or the results could not be pickled) runs in
    the caller, so a failure raises the error of the lowest failing fold,
    as the caller alone would. No child outlives the call.
    """
    own, *shares = [b.tolist() for b in np.array_split(np.arange(folds), _cv_workers(folds))]
    children = []  # [block, pid (None: no child, or reaped), pipe] per share
    try:
        for block in shares:
            read_fd, write_fd = os.pipe()
            pid = None
            with suppress(OSError):  # no child: the pipe reads empty
                pid = os.fork()
            if pid == 0:
                # the child leaves only through os._exit, with status 0 once
                # the results are written: it never returns into the caller's
                # frames, so every logger may hand its records to the list
                status = 1
                try:
                    os.close(read_fd)
                    records = []
                    logging.Logger.handle = records.append
                    results = [run_fold(i) for i in block]
                    with open(write_fd, "wb") as out:
                        pickle.dump((results, records), out)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children.append([block, pid, open(read_fd, "rb")])
        results = [run_fold(i) for i in own]
        for child in children:
            block, pid, pipe = child
            data, code = pipe.read(), None
            if pid is not None:
                _, status = os.waitpid(pid, 0)
                child[1], code = None, os.waitstatus_to_exitcode(status)
            sent, records = pickle.loads(data) if code == 0 else ([run_fold(i) for i in block], [])
            for record in records:
                logging.getLogger(record.name).handle(record)
            results += sent
    finally:
        for _, pid, pipe in children:
            pipe.close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


@single_threaded
def select_lambda2(train: Dataset, cfg: ExperimentConfig, seed: int) -> float:
    """Cross-validated ridge weight from ``cfg.lambda2_grid``, or
    ``cfg.lambda2`` when that fixes it.

    ``train`` is split into ``cfg.cv_folds`` folds seeded by ``seed``.
    For each fold the remaining instances are enriched once with
    ``enrich_dataset`` (the enrichment does not depend on the grid
    value) and a model is fit per distinct grid value with
    ``cfg.trainer_config``; fold scores are average precision against
    the held-out candidate labels. Highest mean wins, ties go to the
    smaller value. A grid of one distinct value returns it without any
    fold. The mean AP of every grid value and the choice are logged at
    INFO on the ``pmltk.pipeline`` logger.

    The folds run on up to one process per usable CPU (``_run_folds``),
    and their scores are summed here in fold order.
    """
    if cfg.lambda2 is not None:
        return float(cfg.lambda2)
    grid = sorted({float(g) for g in cfg.lambda2_grid})
    if len(grid) == 1:
        return grid[0]
    folds = cfg.cv_folds
    if train.n < folds:
        raise ConfigError(f"cannot make {folds} folds out of {train.n} training instances")
    parts = _fold_indices(train.n, folds, seed)

    ap_sums = np.zeros(len(grid))
    for aps in _run_folds(folds, lambda i: _fold_aps(train, cfg, grid, parts[i])):
        ap_sums += aps
    best = int(np.argmax(ap_sums))  # first max = smallest grid value on ties
    _log.info(
        "lambda2 CV mean AP over %d folds: %s; selected %r",
        folds, ", ".join(f"{lam!r}: {ap:.6f}" for lam, ap in zip(grid, ap_sums / folds)), grid[best],
    )
    return grid[best]


@contextmanager
def _stage(prefix: str):
    """Re-raise package errors with ``prefix`` (the stage or split) first.

    The message is changed on the exception itself, so its type and
    attributes (such as ``ParseError.line``) survive.
    """
    try:
        yield
    except PmltkError as exc:
        exc.args = (f"{prefix}: {exc}",)
        raise


def fit_pipeline(train: Dataset, cfg: ExperimentConfig, split_index: int,
                 enrichment: EnrichmentMatrix | None = None):
    """Both stages on a training set: fit the feature transform and apply
    it (``transform_features``), select lambda2 (``select_lambda2``),
    enrich (``enrich_dataset``, unless ``enrichment`` is given), then fit.

    The cross-validation folds are seeded from ``cfg.seed`` and
    ``split_index``. Returns ``(model, trace, lambda2)``, where ``trace``
    is the objective trace of the fit and ``model`` carries the
    transform, so ``predict`` takes features as ``train`` holds them.
    """
    if enrichment is not None and (enrichment.n, enrichment.l) != (train.n, train.l):
        raise DataError(
            f"enrichment is {enrichment.n} x {enrichment.l} but dataset is {train.n} x {train.l}"
        )
    transform, train = transform_features(cfg, train)
    with _stage("lambda2 selection stage"):
        lam2 = select_lambda2(train, cfg, derive_seed(cfg.seed, _STAGE_CV, split_index))
    if enrichment is None:
        with _stage("enrichment stage"):
            enrichment = enrich_dataset(train, cfg)
    with _stage("training stage"):
        model, _, trace = fit(train.X, enrichment.Yhat, train.Y, cfg.trainer_config(lam2))
    return replace(model, transform=transform), trace, lam2


@single_threaded
def run_splits(cfg: ExperimentConfig) -> tuple[list[MetricsReport], list[float]]:
    """Repeated-split protocol: the test report and the selected lambda2 of
    every split. Writes and prints nothing.

    Each split takes the rows ``split`` would. Its training rows are
    gathered for ``fit_pipeline`` and dropped when it returns; its test
    rows are gathered only then, so the fit never holds them."""
    # corrupt once: all splits share the same noisy dataset
    ds = load(cfg.dataset, cfg.data_format)
    noisy = inject_noise(ds, NoiseConfig(a=cfg.noise, seed=derive_seed(cfg.seed, _STAGE_NOISE)))
    reports: list[MetricsReport] = []
    lambdas: list[float] = []
    for i in range(cfg.splits):
        with _stage(f"split {i} failed"):
            with _stage("split stage"):
                spec = SplitSpec(cfg.split_fraction, derive_seed(cfg.seed, _STAGE_SPLIT, i))
                train_rows, test_rows = _split_rows(noisy.n, spec)
            model, _, lam2 = fit_pipeline(noisy.subset(train_rows), cfg, i)
            with _stage("evaluation stage"):
                test = noisy.subset(test_rows)
                report = evaluate(*predict(model, test.X), test.Ytruth)
                del test  # not held through the next split's fit
        reports.append(report)
        lambdas.append(lam2)
    return reports, lambdas


def run_benchmark(cfg: ExperimentConfig) -> dict:
    """``run_splits`` as a dict of per-split reports, their mean/std maps
    (``aggregate``) and the selected lambda2 values. Writes and prints
    nothing; the CLI's ``benchmark`` command writes the report file and
    the summary table from ``run_splits`` and one ``aggregate``."""
    reports, lambdas = run_splits(cfg)
    agg = aggregate(reports)
    return {
        "per_split": [r.to_dict() for r in reports],
        "mean": {name: agg[name][0] for name in METRIC_NAMES},
        "std": {name: agg[name][1] for name in METRIC_NAMES},
        "lambda2_per_split": lambdas,
    }
