"""Partial multi-label learning toolkit.

Learning from candidate label sets that superset the unknown ground
truth: graph-based label enrichment, joint confidence/predictor
training, ranking metrics and a reproducible benchmark harness.
"""

import logging

from .data import (
    DENSE_FORMAT,
    FORMATS,
    SPARSE_FORMAT,
    Dataset,
    NoiseConfig,
    SplitSpec,
    inject_noise,
    load,
    save,
    split,
)
from .enrichment import (
    EnrichmentMatrix,
    PropagationConfig,
    enrich,
    load_enrichment,
    normalize_step,
    propagate_step,
    save_enrichment,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    PmltkError,
    RangeError,
    ShapeError,
    StateError,
    ValidationError,
)
from .graph import (
    KnnConfig,
    WeightGraph,
    build_graph,
    build_knn,
    nnls,
    normalize_rows,
)
from .metrics import MetricsReport, aggregate, evaluate
from .pipeline import (
    ExperimentConfig,
    derive_seed,
    prepare_dataset,
    run_benchmark,
    run_pipeline,
    select_lambda2,
)
from .trainer import (
    Model,
    TrainerConfig,
    TrainerState,
    fit,
    load_model,
    nuclear_norm,
    objective,
    predict,
    prox_nuclear,
    save_model,
    update_b_admm,
    update_c,
    update_w,
)

__version__ = "0.1.0"

# Library logging: silent unless the application configures a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())
