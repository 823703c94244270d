"""Span tracing around pmltk's public layer functions, from outside the package.

``Tracer.install`` replaces each listed function in every loaded
``pmltk`` module namespace that refers to it (so calls made through
``from .graph import build_graph`` are caught too) with a wrapper that
records a span ``(name, start, end, parent id)`` in memory. Spans are
written out only when the benchmark ends. The wrappers pass arguments
and results through untouched; the benchmark checks this by comparing
the report fingerprint of a traced pass with an untraced one.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced run.
LAYER_FUNCTIONS = (
    ("pipeline", "run_benchmark"),
    ("pipeline", "select_lambda2"),
    ("graph", "build_graph"),
    ("graph", "build_knn"),
    ("graph", "nnls"),
    ("trainer", "fit"),
    ("trainer", "update_c"),
    ("trainer", "update_b_admm"),
    ("trainer", "update_w"),
    ("trainer", "objective"),
    ("trainer", "prox_nuclear"),
    ("trainer", "predict"),
    ("trainer", "save_model"),
    ("trainer", "load_model"),
    ("trainer", "save_predictions"),
    ("trainer", "load_predictions"),
    ("data", "load"),
    ("data", "save"),
    ("data", "inject_noise"),
    ("data", "split"),
    ("enrichment", "enrich"),
    ("enrichment", "normalize_step"),
    ("enrichment", "save_enrichment"),
    ("enrichment", "load_enrichment"),
    ("metrics", "evaluate"),
)

CLI_COMMANDS = ("inject-noise", "enrich", "train", "predict", "evaluate")


class Tracer:
    """In-memory span recorder; spans are only taken while ``enabled``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.fit_runs: list[tuple[int, bool]] = []  # (outer iterations, hit cap)
        self.load_bytes = 0
        self.passes = 0

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if observe is not None:
                observe(out, *args, **kwargs)
            return out

        return wrapper

    def _observe_trainer_fit(self, out, X, Yhat, Y, cfg=None):
        from pmltk import TrainerConfig

        cfg = cfg or TrainerConfig()
        trace = out[2]
        iters = len(trace) - 1
        converged = iters > 0 and (
            abs(trace[-1] - trace[-2]) / max(1.0, abs(trace[-2])) < cfg.outer_tol
        )
        self.fit_runs.append((iters, iters >= cfg.outer_max and not converged))

    def _observe_data_load(self, out, path, *args, **kwargs):
        self.load_bytes += os.path.getsize(path)

    def install(self) -> None:
        """Patch every pmltk namespace that holds one of the layer functions."""
        modules = [m for n, m in list(sys.modules.items()) if n == "pmltk" or n.startswith("pmltk.")]
        for mod_name, fn_name in LAYER_FUNCTIONS:
            original = getattr(sys.modules["pmltk." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass layer numbers: ``.s`` inclusive seconds, ``.self_s`` self
        seconds (minus traced children), ``.calls`` calls."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        under_cv = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            calls[name] += 1
            p = parent
            while p >= 0:
                if spans[p][0] == "pipeline.select_lambda2":
                    under_cv[name] += 1
                    break
                p = spans[p][3]
        per = max(self.passes, 1)
        fits = len(self.fit_runs)
        enrich_calls = calls["enrichment.enrich"]
        m = {
            "pipeline.select_lambda2.s": total["pipeline.select_lambda2"] / per,
            "pipeline.select_lambda2.fits": under_cv["trainer.fit"] / per,
            "pipeline.select_lambda2.graph_builds": under_cv["graph.build_graph"] / per,
            "graph.build_knn.s": total["graph.build_knn"] / per,
            "graph.build_knn.calls": calls["graph.build_knn"] / per,
            "graph.nnls.s": total["graph.nnls"] / per,
            "graph.nnls.calls": calls["graph.nnls"] / per,
            "graph.build_graph.self_s": self_time["graph.build_graph"] / per,
            "trainer.fit.s": total["trainer.fit"] / per,
            "trainer.fit.calls": fits / per,
            "trainer.fit.outer_iters": sum(i for i, _ in self.fit_runs) / per,
            "trainer.fit.capped_frac": (sum(c for _, c in self.fit_runs) / fits) if fits else 0.0,
            "trainer.update_c.s": total["trainer.update_c"] / per,
            "trainer.update_w.s": total["trainer.update_w"] / per,
            "trainer.objective.s": total["trainer.objective"] / per,
            "trainer.update_b_admm.self_s": self_time["trainer.update_b_admm"] / per,
            "trainer.prox_nuclear.s": total["trainer.prox_nuclear"] / per,
            "trainer.prox_nuclear.calls": calls["trainer.prox_nuclear"] / per,
            "trainer.predict.s": total["trainer.predict"] / per,
            "data.load.s": total["data.load"] / per,
            "data.load.bytes": self.load_bytes / per,
            "data.save.s": total["data.save"] / per,
            "data.inject_noise.s": total["data.inject_noise"] / per,
            "data.split.s": total["data.split"] / per,
            "enrichment.enrich.s": total["enrichment.enrich"] / per,
            "enrichment.propagation_iters": (
                calls["enrichment.normalize_step"] / enrich_calls if enrich_calls else 0.0
            ),
            "enrichment.save_enrichment.s": total["enrichment.save_enrichment"] / per,
            "enrichment.load_enrichment.s": total["enrichment.load_enrichment"] / per,
            "trainer.save_model.s": total["trainer.save_model"] / per,
            "trainer.load_model.s": total["trainer.load_model"] / per,
            "trainer.save_predictions.s": total["trainer.save_predictions"] / per,
            "trainer.load_predictions.s": total["trainer.load_predictions"] / per,
            "metrics.evaluate.s": total["metrics.evaluate"] / per,
        }
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}.s"] = total[f"cli.{cmd}"] / per
        return m

    def dump(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        spans = [s for s in self.spans if s is not None]
        t0 = spans[0][1] if spans else 0.0
        return [
            {"id": i, "name": n, "start": s - t0, "end": e - t0, "parent": p}
            for i, (n, s, e, p) in enumerate(spans)
        ]
