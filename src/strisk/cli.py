"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 stage failure.
Every command reads and writes plain files; nothing depends on wall
clock or environment, so identical invocations produce identical bytes.
"""
from __future__ import annotations

import csv
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, TypeVar

import click

from . import pipeline
from .features import parse_window, read_features_csv
from .models import ModelSpec, load_model, predict_proba_many, save_model, train, train_stacked
from .names import MatchConfig
from .noise import CONFIDENT_JOINT, CONFUSION_MATRIX, noise_detection_experiment
from .pipeline import (
    PipelineConfig,
    StageFailure,
    render_report_text,
    require_both_classes,
    run_pipeline,
    stage_guard,
)
from .records import Folds, RecordError, Seed, check_bounds, read_config, read_json, read_names, read_value, write_json
from .synth import GeneratorConfig

T = TypeVar("T")

_METHOD_ALIASES = {
    "cj": CONFIDENT_JOINT,
    "cm": CONFUSION_MATRIX,
    CONFIDENT_JOINT: CONFIDENT_JOINT,
    CONFUSION_MATRIX: CONFUSION_MATRIX,
}


def _parse_config(path: str, what: str, parse: Callable[[object], T]) -> T:
    """Read the JSON config at ``path`` and parse it; a config that is not
    JSON, is nested too deeply to read, or is not the expected shape is a
    usage error (exit code 1)."""
    try:
        return parse(read_json(path))
    except ValueError as exc:
        raise click.UsageError(f"bad {what} config {path}: {exc}") from exc


def _load_features(path: str):
    profiles = read_features_csv(path)
    if not profiles:
        raise RecordError(f"{path}: no feature rows")
    return profiles


def _model_specs_from_file(path: str) -> tuple[ModelSpec, ...]:
    """The specs of a --models file: one spec, or a list of them."""

    def specs(data) -> tuple[ModelSpec, ...]:
        return read_value([data] if isinstance(data, dict) else data, tuple[ModelSpec, ...], "models")

    return _parse_config(path, "model", specs)


@dataclass(frozen=True)
class StackedSpec:
    """A ``train --spec`` file that fits a stacked model over ``bases``."""

    bases: tuple[ModelSpec, ...]
    folds: Folds = 5
    seed: Seed = 0

    def __post_init__(self) -> None:
        check_bounds(self)
        if len(self.bases) < 2:
            raise ValueError(f"field 'bases' must hold at least 2 specs, got {len(self.bases)}")

    from_dict = classmethod(read_config)


def _echo(ctx: click.Context, message: str) -> None:
    if not ctx.obj.get("quiet"):
        click.echo(message)


@click.group(name="strisk")
@click.option("--seed", type=int, default=0, show_default=True, help="Default seed for commands that take one.")
@click.option("--quiet", is_flag=True, help="Suppress progress output.")
@click.pass_context
def cli(ctx: click.Context, seed: int, quiet: bool) -> None:
    """Breach-risk pipeline: match, featurize, denoise, train, evaluate."""
    ctx.obj = {"seed": seed, "quiet": quiet}


@cli.command()
@click.option("--incidents", "incidents_path", required=True, type=click.Path())
@click.option("--registry", "registry_path", required=True, type=click.Path())
@click.option("--config", "config_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def match(ctx, incidents_path, registry_path, config_path, out_path) -> None:
    """Match incident names against a registry of organization names."""
    config = (
        _parse_config(config_path, "match", MatchConfig.from_dict)
        if config_path
        else MatchConfig()
    )
    incident_names = read_names(incidents_path)
    registry_names = read_names(registry_path)
    candidates = pipeline.match(incident_names, registry_names, config, out_path)
    _echo(ctx, f"matched {len(candidates)} names -> {out_path}")


@cli.command()
@click.option("--orgs", "orgs_path", required=True, type=click.Path())
@click.option("--observations", "observations_path", required=True, type=click.Path())
@click.option("--tweets", "tweets_path", required=True, type=click.Path())
@click.option("--incidents", "incidents_path", required=True, type=click.Path())
@click.option("--window", "window_spec", default=None, help="Inclusive date window YYYY-MM-DD:YYYY-MM-DD.")
@click.option("--ground-truth", "truth_path", type=click.Path(), default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def featurize(ctx, orgs_path, observations_path, tweets_path, incidents_path, window_spec, truth_path, out_path) -> None:
    """Build per-organization feature vectors from record files."""
    if window_spec is not None:
        try:
            window = parse_window(window_spec)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    else:
        window = None
    paths = {
        "organizations": orgs_path,
        "observations": observations_path,
        "tweets": tweets_path,
        "incidents": incidents_path,
    }
    profiles = pipeline.featurize(pipeline.load_corpus(paths, truth_path), window, out_path)
    _echo(ctx, f"featurized {len(profiles)} organizations -> {out_path}")


@cli.command()
@click.option("--features", "features_path", required=True, type=click.Path())
@click.option("--models", "models_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(sorted(set(_METHOD_ALIASES))), default="cm", show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--report", "report_path", required=True, type=click.Path())
@click.pass_context
def denoise(ctx, features_path, models_path, method, folds, seed, out_path, report_path) -> None:
    """Flip confidently mislabeled negatives and write the corrected set."""
    method = _METHOD_ALIASES[method]
    seed = ctx.obj["seed"] if seed is None else seed
    specs = _model_specs_from_file(models_path)
    profiles = _load_features(features_path)
    _, report = pipeline.denoise(profiles, features_path, specs, method, folds, seed, out_path, report_path)
    _echo(ctx, f"flipped {len(report.flipped_ids)} labels -> {out_path}")


@cli.command(name="train")
@click.option("--features", "features_path", required=True, type=click.Path())
@click.option("--spec", "spec_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def train_cmd(ctx, features_path, spec_path, out_path) -> None:
    """Train one model (or a stacked ensemble) from a spec file."""

    def trainer(data) -> Callable:
        if isinstance(data, dict) and "bases" in data:
            stacked = StackedSpec.from_dict({"seed": ctx.obj["seed"], **data}, "stacked spec")
            return lambda profiles: train_stacked(profiles, stacked.bases, stacked.folds, stacked.seed)
        spec = ModelSpec.from_dict(data)
        return lambda profiles: train(profiles, spec)

    fit = _parse_config(spec_path, "model", trainer)
    profiles = _load_features(features_path)
    with stage_guard("train"):
        require_both_classes(profiles, features_path)
        model = fit(profiles)
    save_model(model, out_path)
    _echo(ctx, f"trained -> {out_path}")


def _load_model(path: str):
    try:
        return load_model(path)
    except ValueError as exc:
        raise RecordError(f"model file {path}: {exc}") from exc


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--features", "features_path", required=True, type=click.Path())
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def predict(ctx, model_path, features_path, out_path) -> None:
    """Score organizations: org_id, probability, class at 0.5."""
    model = _load_model(model_path)
    profiles = _load_features(features_path)
    with stage_guard("predict"):
        scores = predict_proba_many(model, profiles)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["org_id", "probability", "class"])
        for profile, score in zip(profiles, scores):
            writer.writerow([profile.org_id, repr(float(score)), int(score >= 0.5)])
    _echo(ctx, f"scored {len(profiles)} organizations -> {out_path}")


@cli.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--features", "features_path", required=True, type=click.Path())
@click.option("--threshold", type=float, default=0.5, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def evaluate(ctx, model_path, features_path, threshold, out_path) -> None:
    """Compute TPR/FPR/F1/AUC/Brier for a model on labeled features."""
    model = _load_model(model_path)
    profiles = _load_features(features_path)
    with stage_guard("evaluate"):
        require_both_classes(profiles, features_path)
        report = pipeline.evaluate_model(model, profiles, threshold)
    write_json(out_path, report.to_dict())
    _echo(ctx, f"evaluated {model.name} -> {out_path}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.pass_context
def simulate(ctx, config_path, out_dir) -> None:
    """Generate a synthetic corpus with known latent labels."""
    config = _parse_config(config_path, "generator", GeneratorConfig.from_dict)
    _, paths = pipeline.simulate(config, out_dir)
    _echo(ctx, f"simulated {config.n_orgs} organizations -> {out_dir}")
    if not ctx.obj.get("quiet"):
        for name, path in sorted(paths.items()):
            click.echo(f"  {name}: {path}")


@cli.command()
@click.option("--features", "features_path", required=True, type=click.Path())
@click.option("--models", "models_path", required=True, type=click.Path())
@click.option("--fraction", type=float, default=0.1, show_default=True)
@click.option("--repeats", type=int, default=10, show_default=True)
@click.option("--method", type=click.Choice(sorted(set(_METHOD_ALIASES)) + ["both"]), default="both", show_default=True)
@click.option("--folds", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.pass_context
def experiment(ctx, features_path, models_path, fraction, repeats, method, folds, seed, out_path) -> None:
    """Hide slices of positives and score how well models recover them."""
    seed = ctx.obj["seed"] if seed is None else seed
    specs = _model_specs_from_file(models_path)
    profiles = _load_features(features_path)
    chosen = None if method == "both" else _METHOD_ALIASES[method]
    with stage_guard("experiment"):
        result = noise_detection_experiment(
            profiles,
            specs,
            flip_fraction=fraction,
            repeats=repeats,
            method=chosen,
            folds=folds,
            seed=seed,
        )
    write_json(out_path, result.to_dict())
    _echo(ctx, f"experiment table -> {out_path}")


@cli.command()
@click.option("--report", "report_path", required=True, type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def report(ctx, report_path, out_path) -> None:
    """Render a report.json as fixed-width text tables."""
    data = read_json(report_path)
    try:
        text = render_report_text(data)
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        raise RecordError(f"report file {report_path} is not a report: {exc!r}") from exc
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text, encoding="utf-8")
        _echo(ctx, f"rendered -> {out_path}")
    else:
        click.echo(text, nl=False)


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--workdir", type=click.Path(), default=None, help="Override the config workdir.")
@click.option("--skip", "skips", multiple=True, help="Stage to skip: simulate, match or denoise (repeatable).")
@click.pass_context
def run(ctx, config_path, workdir, skips) -> None:
    """Run the full pipeline from a single JSON config."""

    def pipeline_config(data) -> PipelineConfig:
        config = PipelineConfig.from_dict(data, workdir=Path(workdir) if workdir else None)
        if skips:
            config = replace(config, skip=tuple(sorted(set(config.skip) | set(skips))))
        return config

    config = _parse_config(config_path, "pipeline", pipeline_config)
    run_pipeline(config)
    _echo(ctx, f"pipeline complete -> {config.workdir}")
    if not ctx.obj.get("quiet"):
        for kind in ("json", "txt"):
            click.echo(f"  report_{kind}: {config.workdir / f'report.{kind}'}")


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, prog_name="strisk", standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.NoArgsIsHelpError as exc:
        click.echo(exc.format_message())
        return 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except RecordError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except StageFailure as exc:
        click.echo(f"error: {exc}", err=True)
        return 3
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        click.echo(f"usage error: {exc.strerror}: {exc.filename}", err=True)
        return 1
    except OSError as exc:  # an unreadable input or an unwritable output
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
