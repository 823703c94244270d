"""Command-line interface.

Each command but ``predict`` and ``evaluate``, which take only the data
format, builds a ``pipeline.ExperimentConfig`` from its options, so a
bad setting fails before any file is read. An option that sets a
config field is declared once, in ``_OPTIONS``, with the field's default.
Every option can also be set through an environment variable named
``PMLTK_<COMMAND>_<OPTION>`` (click's auto-envvar mechanism), e.g.
``PMLTK_BENCHMARK_SEED=7``. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 numeric error. Warnings from the
library (a fit or a propagation stopped at its iteration cap) are
printed on stderr.
"""

from __future__ import annotations

import dataclasses
import logging
import sys

import click

from . import data, enrichment, metrics, pipeline, trainer
from .errors import EXIT_CODES, ConfigError
from .pipeline import ExperimentConfig

_REPORT_FORMAT = click.option("--format", "report_format", type=click.Choice(("json", "csv")),
                              default="json")


def _parse_grid(ctx, param, text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"bad lambda2 grid {text!r}; expected comma-separated numbers")


# The options that set an ExperimentConfig field are named after the field,
# take its default and, unless set here, the type click infers from it.
_OPTIONS = {
    "data_format": dict(type=click.Choice(data.FORMATS)),
    "noise": dict(help="Noise percentage a."),
    "lambda2": dict(type=float, help="Fixed ridge weight; skips tuning."),
    "lambda2_grid": dict(callback=_parse_grid),
    "add_bias": dict(help="Append a constant-1 feature; the model records it."),
}
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
_FIT = ("data_format", "k", "alpha", "lambda1", "lambda2", "lambda2_grid", "cv_folds",
        "seed", "standardize_features", "add_bias")


def _config_options(*fields):
    """Declare the options of the named ExperimentConfig fields, in order."""
    def decorate(command):
        for name in reversed(fields):
            default = _DEFAULTS[name]
            if isinstance(default, tuple):  # the lambda2 grid, as typed
                default = ",".join(repr(g).removesuffix(".0") for g in default)
            command = click.option("--" + name.replace("_", "-"), default=default,
                                   is_flag=isinstance(default, bool),
                                   **_OPTIONS.get(name, {}))(command)
        return command
    return decorate


@click.group(context_settings={"auto_envvar_prefix": "PMLTK", "show_default": True})
def cli():
    """Partial multi-label learning toolkit."""


@cli.command("inject-noise")
@click.argument("dataset", type=click.Path())
@_config_options("data_format", "noise", "seed")
@click.option("--out", required=True, type=click.Path(), help="Output dataset path.")
def inject_noise_cmd(dataset, out, **options):
    """Corrupt ground-truth labels into candidate sets."""
    cfg = ExperimentConfig(dataset=dataset, **options)
    noise = data.NoiseConfig(a=cfg.noise, seed=cfg.seed)
    noisy = data.inject_noise_file(cfg.dataset, out, noise, cfg.data_format)
    click.echo(f"wrote {out} (n={noisy.n}, d={noisy.d}, l={noisy.l}, a={cfg.noise})")


@cli.command("enrich")
@click.argument("dataset", type=click.Path())
@_config_options("data_format", "k", "alpha", "standardize_features")
@click.option("--out", required=True, type=click.Path(), help="Enrichment CSV path.")
def enrich_cmd(dataset, out, **options):
    """Stage 1: compute the signed enrichment matrix."""
    cfg = ExperimentConfig(dataset=dataset, **options)
    _, ds = pipeline.transform_features(cfg, data.load(cfg.dataset, cfg.data_format))
    em = pipeline.enrich_dataset(ds, cfg)
    enrichment.save_enrichment(em, out)
    click.echo(f"wrote {out} ({em.n} x {em.l})")


@cli.command("train")
@click.argument("dataset", type=click.Path())
@click.option("--enrichment", "enrichment_path", type=click.Path(), default=None,
              help="Precomputed enrichment CSV; skips stage 1.")
@_config_options(*_FIT)
@click.option("--out", required=True, type=click.Path(), help="Model output path.")
@click.option("--trace-out", type=click.Path(), default=None,
              help="Optional objective trace CSV ('iter,objective').")
def train_cmd(dataset, enrichment_path, out, trace_out, **options):
    """Stages 1 and 2: enrich (unless given) and fit the predictor."""
    cfg = ExperimentConfig(dataset=dataset, **options)
    ds = data.load(cfg.dataset, cfg.data_format)
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
@_config_options("data_format")
@click.option("--out", required=True, type=click.Path(), help="Predictions output path.")
def predict_cmd(model, dataset, data_format, out):
    """Score a dataset with a trained model, through the model's own
    feature transform."""
    mdl = trainer.load_model(model)
    scores, labels = trainer.predict(mdl, data.load(dataset, data_format).X)
    trainer.save_predictions(scores, labels, out)
    click.echo(f"wrote {out} ({scores.shape[0]} x {scores.shape[1]})")


@cli.command("evaluate")
@click.argument("predictions", type=click.Path())
@click.argument("dataset", type=click.Path())
@_config_options("data_format")
@_REPORT_FORMAT
@click.option("--out", type=click.Path(), default=None, help="Report path (default: stdout).")
def evaluate_cmd(predictions, dataset, data_format, report_format, out):
    """Score stored predictions against the dataset's ground truth."""
    scores, labels = trainer.load_predictions(predictions)
    report = metrics.evaluate(scores, labels, data.load_truth(dataset, data_format))
    text = (
        metrics.report_to_json(report)
        if report_format == "json"
        else metrics.reports_to_csv([report], metrics.aggregate([report]))
    )
    if out:
        data.write_lines(out, "report", text.splitlines())
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@cli.command("benchmark")
@click.argument("dataset", type=click.Path())
@_config_options("noise", "splits", "split_fraction", *_FIT)
@_REPORT_FORMAT
@click.option("--out", type=click.Path(), default=None, help="Report file path.")
def benchmark_cmd(dataset, report_format, out, **options):
    """Run the repeated-split protocol and aggregate the metrics."""
    reports, lambdas = pipeline.run_splits(ExperimentConfig(dataset=dataset, **options))
    agg = metrics.aggregate(reports)
    if out:
        to_text = metrics.reports_to_json if report_format == "json" else metrics.reports_to_csv
        data.write_lines(out, "report", to_text(reports, agg).splitlines())
    click.echo(f"{'metric':<14} {'mean':>10} {'std':>10}")
    for name in metrics.METRIC_NAMES:
        mean, std = agg[name]
        click.echo(f"{name:<14} {mean:>10.4f} {std:>10.4f}")
    click.echo("lambda2 per split: " + ", ".join(map(repr, lambdas)))
    if out:
        click.echo(f"wrote {out}")


def main(argv=None) -> int:
    """Entry point returning the documented exit codes. While it runs, the
    library's warnings go to the ``sys.stderr`` in place when it is called."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setLevel(logging.WARNING)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    log = logging.getLogger("pmltk")
    log.addHandler(handler)
    try:
        cli.main(args=argv, prog_name="pmltk", standalone_mode=False)
    except click.exceptions.Exit as exc:  # e.g. --help
        return int(exc.exit_code)
    except click.exceptions.Abort:
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except tuple(EXIT_CODES) as exc:
        click.echo(f"error: {exc}", err=True)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))
    finally:
        log.removeHandler(handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
