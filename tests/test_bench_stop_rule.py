"""``bench/tracing.py`` recomputes ``fit``'s stop rule from the trace
``fit`` returns (``Tracer._observe_trainer_fit``). Its recorded
``(iterations, capped)`` must agree with what ``fit`` did: the trace
length and whether the ``outer_max`` warning was logged. The traced
counts of the layer functions that ``fit`` and ``enrich`` call inside
their loops must equal the iteration counts too.
"""

import logging

import numpy as np
import pytest
from helpers import random_dataset
from test_reference_reports import bench  # noqa: F401  (the bench/ import fixture)

import pmltk
from pmltk import KnnConfig, PropagationConfig, TrainerConfig


@pytest.fixture
def traced(bench):  # noqa: F811
    """A ``Tracer`` installed around the test; it records once enabled."""
    _, tracing, _ = bench
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def span_count(tracer, name):
    return sum(span[0] == name for span in tracer.spans)


def problem():
    ds = random_dataset(n=12, d=4, l=3, seed=5)
    F = np.random.default_rng(5).random(ds.Y.shape)
    return ds, np.where(ds.Y == 1, F, F - 1.0)


def converged_iters():
    ds, Yhat = problem()
    _, _, trace = pmltk.fit(ds.X, Yhat, ds.Y, TrainerConfig(outer_tol=1e-2))
    return len(trace) - 1


@pytest.mark.parametrize("cap, tol, at_cap, warns", [
    (2, 1e-12, True, True),
    (50, 1e-2, False, False),
    (None, 1e-2, True, False),  # the step that converges is the last one allowed
], ids=["capped", "converged", "converged-at-cap"])
def test_recorded_fit_runs_agree_with_fit(traced, caplog, cap, tol, at_cap, warns):
    cap = converged_iters() if cap is None else cap
    ds, Yhat = problem()
    traced.enabled = True
    with caplog.at_level(logging.WARNING, logger="pmltk"):
        _, _, trace = pmltk.fit(ds.X, Yhat, ds.Y, TrainerConfig(outer_max=cap, outer_tol=tol))
    iters = len(trace) - 1
    warned = any("fit stopped at outer_max" in r.getMessage() for r in caplog.records)
    assert traced.fit_runs == [(iters, warned)]
    assert (iters == cap, warned) == (at_cap, warns)
    assert span_count(traced, "trainer.objective") == len(trace)


def test_traced_propagation_steps_are_enrich_iterations(traced, caplog):
    ds = random_dataset(n=15, d=3, l=4, seed=2)
    graph = pmltk.build_graph(ds.X, KnnConfig(k=4))
    traced.enabled = True
    with caplog.at_level(logging.WARNING, logger="pmltk"):
        pmltk.enrich(ds, graph, PropagationConfig(max_iters=3, tol=1e-12))
    assert span_count(traced, "enrichment.normalize_step") == 3
    assert any("enrich stopped at max_iters=3" in r.getMessage() for r in caplog.records)
