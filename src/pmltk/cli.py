"""Command-line interface.

Every option can also be set through an environment variable named
``PMLTK_<COMMAND>_<OPTION>`` (click's auto-envvar mechanism), e.g.
``PMLTK_BENCHMARK_SEED=7``. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numeric error. Warnings from the
library (a fit or a propagation stopped at its iteration cap) are
printed on stderr.
"""

from __future__ import annotations

import logging
import sys

import click

from . import data, enrichment, graph, metrics, pipeline, trainer
from .errors import ConfigError, DataError, NumericError

_FORMAT_CHOICE = click.Choice(data.FORMATS)
_REPORT_CHOICE = click.Choice(("json", "csv"))


def _parse_grid(ctx, param, text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"bad lambda2 grid {text!r}; expected comma-separated numbers")
    if not values:
        raise ConfigError("lambda2 grid must be non-empty")
    return values


# Options of ``train`` and ``benchmark``, named after the ExperimentConfig
# fields they set.
_FIT_OPTIONS = (
    click.option("--data-format", type=_FORMAT_CHOICE, default=data.SPARSE_FORMAT, show_default=True),
    click.option("--k", type=int, default=10, show_default=True),
    click.option("--alpha", type=float, default=0.05, show_default=True),
    click.option("--lambda1", type=float, default=1.0, show_default=True),
    click.option("--lambda2", type=float, default=None, help="Fixed ridge weight; skips tuning."),
    click.option("--lambda2-grid", default="10,100", show_default=True, callback=_parse_grid),
    click.option("--cv-folds", type=int, default=5, show_default=True),
    click.option("--tau", type=float, default=1.0, show_default=True),
    click.option("--admm-iters", type=int, default=5, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--standardize-features", is_flag=True, default=False),
    click.option("--add-bias", is_flag=True, default=False),
)


def _fit_options(command):
    for option in reversed(_FIT_OPTIONS):
        command = option(command)
    return command


def _write_report(path, text: str) -> None:
    data.write_lines(path, "report", text.splitlines())


def _prepared(path, data_format, standardize_features, add_bias):
    ds = data.load(path, data_format)
    if standardize_features:
        ds = pipeline.standardize(ds)
    if add_bias:
        ds = pipeline.add_bias_column(ds)
    return ds


@click.group(context_settings={"auto_envvar_prefix": "PMLTK"})
def cli():
    """Partial multi-label learning toolkit."""


@cli.command("inject-noise")
@click.argument("dataset", type=click.Path())
@click.option("--data-format", type=_FORMAT_CHOICE, default=data.SPARSE_FORMAT, show_default=True)
@click.option("--noise", type=int, default=100, show_default=True, help="Noise percentage a.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(), help="Output dataset path.")
def inject_noise_cmd(dataset, data_format, noise, seed, out):
    """Corrupt ground-truth labels into candidate sets."""
    ds = data.load(dataset, data_format)
    noisy = data.inject_noise(ds, data.NoiseConfig(a=noise, seed=seed))
    data.save(noisy, out, data_format)
    click.echo(f"wrote {out} (n={noisy.n}, d={noisy.d}, l={noisy.l}, a={noise})")


@cli.command("enrich")
@click.argument("dataset", type=click.Path())
@click.option("--data-format", type=_FORMAT_CHOICE, default=data.SPARSE_FORMAT, show_default=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--alpha", type=float, default=0.05, show_default=True)
@click.option("--standardize-features", is_flag=True, default=False)
@click.option("--out", required=True, type=click.Path(), help="Enrichment CSV path.")
def enrich_cmd(dataset, data_format, k, alpha, standardize_features, out):
    """Stage 1: compute the signed enrichment matrix."""
    ds = _prepared(dataset, data_format, standardize_features, False)
    g = graph.build_graph(ds.X, graph.KnnConfig(k=k))
    em = enrichment.enrich(ds, g, enrichment.PropagationConfig(alpha=alpha))
    enrichment.save_enrichment(em, out)
    click.echo(f"wrote {out} ({em.n} x {em.l})")


@cli.command("train")
@click.argument("dataset", type=click.Path())
@click.option("--enrichment", "enrichment_path", type=click.Path(), default=None,
              help="Precomputed enrichment CSV; skips stage 1.")
@_fit_options
@click.option("--out", required=True, type=click.Path(), help="Model output path.")
@click.option("--trace-out", type=click.Path(), default=None,
              help="Optional objective trace CSV ('iter,objective').")
def train_cmd(dataset, enrichment_path, out, trace_out, **options):
    """Stages 1 and 2: enrich (unless given) and fit the predictor."""
    cfg = pipeline.ExperimentConfig(dataset=dataset, **options)
    ds = _prepared(dataset, cfg.data_format, cfg.standardize_features, cfg.add_bias)
    em = None if enrichment_path is None else enrichment.load_enrichment(enrichment_path)
    model, trace, lambda2 = pipeline.fit_pipeline(ds, cfg, 0, em)
    if cfg.lambda2 is None:
        click.echo(f"selected lambda2={lambda2!r}")
    trainer.save_model(model, out)
    if trace_out:
        rows = (f"{i},{v!r}" for i, v in enumerate(trace))
        data.write_lines(trace_out, "trace", ["iter,objective", *rows])
    click.echo(f"wrote {out} (objective {trace[0]:.6g} -> {trace[-1]:.6g}, {len(trace) - 1} iterations)")


@cli.command("predict")
@click.argument("model", type=click.Path())
@click.argument("dataset", type=click.Path())
@click.option("--data-format", type=_FORMAT_CHOICE, default=data.SPARSE_FORMAT, show_default=True)
@click.option("--add-bias", is_flag=True, default=False,
              help="Append the constant feature used at training time.")
@click.option("--out", required=True, type=click.Path(), help="Predictions output path.")
def predict_cmd(model, dataset, data_format, add_bias, out):
    """Score a dataset with a trained model."""
    mdl = trainer.load_model(model)
    ds = _prepared(dataset, data_format, False, add_bias)
    scores, labels = trainer.predict(mdl, ds.X)
    trainer.save_predictions(scores, labels, out)
    click.echo(f"wrote {out} ({scores.shape[0]} x {scores.shape[1]})")


@cli.command("evaluate")
@click.argument("predictions", type=click.Path())
@click.argument("dataset", type=click.Path())
@click.option("--data-format", type=_FORMAT_CHOICE, default=data.SPARSE_FORMAT, show_default=True)
@click.option("--format", "report_format", type=_REPORT_CHOICE, default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Report path (default: stdout).")
def evaluate_cmd(predictions, dataset, data_format, report_format, out):
    """Score stored predictions against the dataset's ground truth."""
    scores, labels = trainer.load_predictions(predictions)
    ds = data.load(dataset, data_format)
    report = metrics.evaluate(scores, labels, ds.Ytruth)
    text = (
        metrics.report_to_json(report)
        if report_format == "json"
        else metrics.reports_to_csv([report])
    )
    if out:
        _write_report(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@cli.command("benchmark")
@click.argument("dataset", type=click.Path())
@click.option("--noise", type=int, default=100, show_default=True)
@click.option("--splits", type=int, default=5, show_default=True)
@click.option("--split-fraction", type=float, default=0.5, show_default=True)
@_fit_options
@click.option("--format", "report_format", type=_REPORT_CHOICE, default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Report file path.")
def benchmark_cmd(dataset, report_format, out, **options):
    """Run the repeated-split protocol and aggregate the metrics."""
    result = pipeline.run_benchmark(pipeline.ExperimentConfig(dataset=dataset, **options))
    reports = [metrics.MetricsReport.from_dict(r) for r in result["per_split"]]
    if out:
        to_text = metrics.reports_to_json if report_format == "json" else metrics.reports_to_csv
        _write_report(out, to_text(reports))
    click.echo(f"{'metric':<14} {'mean':>10} {'std':>10}")
    for name in metrics.METRIC_NAMES:
        click.echo(f"{name:<14} {result['mean'][name]:>10.4f} {result['std'][name]:>10.4f}")
    click.echo("lambda2 per split: " + ", ".join(map(repr, result["lambda2_per_split"])))
    if out:
        click.echo(f"wrote {out}")


class _StderrHandler(logging.StreamHandler):
    """Writes to whatever ``sys.stderr`` is when a record is emitted, so a
    stderr redirected after the handler was installed still gets it."""

    def __init__(self):
        logging.Handler.__init__(self, logging.WARNING)

    @property
    def stream(self):
        return sys.stderr


def _install_stderr_handler() -> None:
    """Print the library's warnings on stderr; at most one handler is added."""
    log = logging.getLogger("pmltk")
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
        log.addHandler(handler)


def main(argv=None) -> int:
    """Entry point returning the documented exit codes."""
    _install_stderr_handler()
    try:
        cli.main(args=argv, prog_name="pmltk", standalone_mode=False)
    except click.exceptions.Exit as exc:  # e.g. --help
        return int(exc.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ConfigError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except NumericError as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
