"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 stage failure.
Every command reads and writes plain files; nothing depends on wall
clock or environment, so identical invocations produce identical bytes.
"""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, TypeVar

import click

from .evaluation import evaluate_scores
from .features import featurize_corpus, parse_window, read_features_csv, write_features_csv
from .models import ModelSpec, load_model, predict_proba_many, save_model, train, train_stacked
from .names import MatchConfig, match_names
from .noise import CONFIDENT_JOINT, CONFUSION_MATRIX, correct_labels, noise_detection_experiment
from .pipeline import (
    PipelineConfig,
    StageFailure,
    render_report_text,
    require_both_classes,
    run_pipeline,
    stage_guard,
)
from .records import (
    RecordError,
    load_incidents,
    load_observations,
    load_organizations,
    load_tweets,
    read_names,
    write_json,
    write_jsonl,
)
from .synth import GeneratorConfig, generate_corpus, load_ground_truth, write_corpus

T = TypeVar("T")

_METHOD_ALIASES = {
    "cj": CONFIDENT_JOINT,
    "cm": CONFUSION_MATRIX,
    CONFIDENT_JOINT: CONFIDENT_JOINT,
    CONFUSION_MATRIX: CONFUSION_MATRIX,
}


def _parse_config(path: str, what: str, parse: Callable[[object], T]) -> T:
    """Read the JSON config at ``path`` and parse it; a missing, invalid
    or malformed config is a usage error (exit code 1)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise click.UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config file {path} is not valid JSON: {exc}") from exc
    try:
        return parse(data)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise click.UsageError(f"bad {what} config {path}: {exc}") from exc


def _load_features(path: str):
    profiles = read_features_csv(path)
    if not profiles:
        raise RecordError(f"{path}: no feature rows")
    return profiles


def _model_specs_from_file(path: str) -> list[ModelSpec]:
    return _parse_config(
        path,
        "model",
        lambda data: [
            ModelSpec.from_dict(entry) for entry in ([data] if isinstance(data, dict) else data)
        ],
    )


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
    with stage_guard("match"):
        candidates = match_names(incident_names, registry_names, config)
    write_jsonl(out_path, (c.to_dict() for c in candidates))
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
    organizations = load_organizations(orgs_path)
    observations = load_observations(observations_path)
    tweets = load_tweets(tweets_path)
    incidents = load_incidents(incidents_path)
    latent = load_ground_truth(truth_path) if truth_path else None
    with stage_guard("featurize"):
        profiles = featurize_corpus(
            organizations, observations, tweets, incidents,
            window=window, latent_labels=latent,
        )
    write_features_csv(out_path, profiles)
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
    with stage_guard("denoise"):
        require_both_classes(profiles, features_path)
        corrected, report = correct_labels(profiles, specs, method, k=folds, seed=seed)
    write_features_csv(out_path, corrected)
    write_json(report_path, report.to_dict())
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
            bases = [ModelSpec.from_dict(b) for b in data["bases"]]
            folds = int(data.get("folds", 5))
            seed = int(data.get("seed", ctx.obj["seed"]))
            return lambda profiles: train_stacked(profiles, bases, folds=folds, seed=seed)
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
    except FileNotFoundError as exc:
        raise click.UsageError(f"model file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise RecordError(f"model file {path} is not valid JSON: {exc}") from exc
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
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
        scores = predict_proba_many(model, profiles).tolist()
        labels = [p.label for p in profiles]
        report = evaluate_scores(model.name, scores, labels, threshold)
    write_json(out_path, report.to_dict())
    _echo(ctx, f"evaluated {model.name} -> {out_path}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.pass_context
def simulate(ctx, config_path, out_dir) -> None:
    """Generate a synthetic corpus with known latent labels."""
    config = _parse_config(config_path, "generator", GeneratorConfig.from_dict)
    with stage_guard("simulate"):
        bundle = generate_corpus(config)
        paths = write_corpus(bundle, out_dir)
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
    try:
        data = json.loads(Path(report_path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise click.UsageError(f"report file not found: {report_path}") from exc
    except json.JSONDecodeError as exc:
        raise RecordError(f"report file {report_path} is not valid JSON: {exc}") from exc
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
    result = run_pipeline(config)
    _echo(ctx, f"pipeline complete -> {result.workdir}")
    if not ctx.obj.get("quiet"):
        for name in ("report_json", "report_txt"):
            click.echo(f"  {name}: {result.artifacts[name]}")


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


if __name__ == "__main__":
    sys.exit(main())
