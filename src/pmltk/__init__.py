"""Partial multi-label learning toolkit.

Learning from candidate label sets that superset the unknown ground
truth: graph-based label enrichment, joint confidence/predictor
training, ranking metrics and a reproducible benchmark harness.
"""

import logging

from .data import Dataset, NoiseConfig, SplitSpec, inject_noise, load, split
from .enrichment import EnrichmentMatrix, PropagationConfig, enrich, load_enrichment
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
from .graph import KnnConfig, build_graph, nnls
from .metrics import MetricsReport, evaluate
from .pipeline import ExperimentConfig, run_benchmark, select_lambda2
from .trainer import Model, TrainerConfig, fit, load_model, predict, prox_nuclear

__version__ = "0.1.0"

# Library logging: silent unless the application configures a handler.
logging.getLogger(__name__).addHandler(logging.NullHandler())
