"""End-to-end pipeline: simulate, match, featurize, denoise, split,
train, evaluate, report.

Every stage reads files and writes files, so a run is restartable and
each stage is independently inspectable. All randomness flows from seeds
in the config; reports are rendered with stable ordering and repr-exact
floats, making identical configs produce byte-identical artifacts.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from .evaluation import EvaluationReport, evaluate_scores, split_train_test
from .features import (
    FeatureVector,
    featurize_corpus,
    parse_window,
    read_features_csv,
    write_features_csv,
)
from .models import (
    ImportanceReport,
    ModelSpec,
    permutation_importance,
    predict_proba_many,
    save_model,
    train,
    train_stacked,
)
from .names import MatchConfig, match_names
from .noise import CONFUSION_MATRIX, METHODS, NoiseReport, correct_labels
from .records import (
    RecordError,
    load_incidents,
    load_observations,
    load_organizations,
    load_tweets,
    write_json,
    write_jsonl,
)
from .synth import GeneratorConfig, generate_corpus, load_ground_truth, write_corpus

STAGES = ("simulate", "match", "featurize", "denoise", "split", "train", "evaluate", "report")
SKIPPABLE_STAGES = ("simulate", "match", "denoise")

NOISY_LABEL_POLICY = "training on noisy labels"
CORRECTED_LABEL_POLICY = "noise-corrected labels"


class StageFailure(Exception):
    """A pipeline stage failed; carries the stage name for the exit message."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage


@contextmanager
def stage_guard(name: str):
    """Turn a ValueError raised in stage ``name`` into a StageFailure (exit
    code 3); a RecordError is bad input data (exit code 2) and passes."""
    try:
        yield
    except RecordError:
        raise
    except ValueError as exc:
        raise StageFailure(name, str(exc)) from exc


def require_both_classes(rows: Sequence[FeatureVector], what: str, advice: str = "") -> None:
    """Raise ValueError naming ``what`` and its class counts unless
    ``rows`` hold both classes, which training and AUC need."""
    positive = sum(p.label for p in rows)
    if positive in (0, len(rows)):
        raise ValueError(
            f"{what} holds one class ({len(rows)} rows: {positive} positive, "
            f"{len(rows) - positive} negative); both are needed{advice}"
        )


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    """Paths, stage settings, and seeds for one pipeline run; denoise_models
    default to the training models."""

    workdir: Path
    seed: int = 0
    simulate: GeneratorConfig | None = None
    inputs: dict[str, Path] | None = None
    ground_truth: Path | None = None
    window: str | None = None
    match: MatchConfig = field(default_factory=MatchConfig)
    denoise_method: str = CONFUSION_MATRIX
    denoise_folds: int = 5
    denoise_models: tuple[ModelSpec, ...] = ()
    split_fraction: float = 0.7
    models: tuple[ModelSpec, ...] = ()
    stack_folds: int | None = None
    threshold: float = 0.5
    importance_repeats: int | None = None
    skip: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.simulate is None and not self.inputs:
            raise ValueError("config needs either a simulate section or input paths")
        if "simulate" in self.skip and not self.inputs:
            raise ValueError("skip lists simulate, so the config needs input paths")
        if not self.models:
            raise ValueError("config lists no models to train")
        if not self.denoise_models:
            object.__setattr__(self, "denoise_models", self.models)
        if self.denoise_method not in METHODS:
            raise ValueError(
                f"unknown denoise method {self.denoise_method!r}; use one of {', '.join(METHODS)}"
            )
        for stage in self.skip:
            if stage not in SKIPPABLE_STAGES:
                kind = "stage that cannot be skipped" if stage in STAGES else "unknown stage"
                skippable = ", ".join(SKIPPABLE_STAGES)
                raise ValueError(f"{kind} in skip list: {stage!r}; skippable: {skippable}")
        if self.window is not None:
            parse_window(self.window)

    @classmethod
    def from_dict(cls, data: dict, workdir: Path | None = None) -> PipelineConfig:
        """Read a run config. A key it does not define is a ValueError
        naming the key; a key left out keeps the field's default."""
        _json_object(data, "config", _TOP_LEVEL_KEYS)
        if not isinstance(data.get("skip", []), list):
            raise ValueError(f"skip must be a list of stage names, got {data['skip']!r}")
        kwargs = {}
        for section, fields in [("", _TOP_LEVEL_FIELDS), *_SECTION_FIELDS.items()]:
            values = _json_object(data.get(section, {}), section, fields) if section else data
            kwargs.update((name, read(values[key])) for key, (name, read) in fields.items() if key in values)
        inputs = _json_object(data.get("inputs", {}), "inputs", _INPUT_ROLES)
        return cls(
            workdir=Path(workdir or data["workdir"]),
            inputs={role: Path(path) for role, path in inputs.items()} or None,
            **kwargs,
        )

    @classmethod
    def from_file(cls, path: str | Path, workdir: Path | None = None) -> PipelineConfig:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(data, workdir=workdir)


def _json_object(value: object, where: str, keys: Sequence[str]) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object, got {value!r}")
    for key in value:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}; known keys: {', '.join(keys)}")
    return value


def _model_specs(entries: list) -> tuple[ModelSpec, ...]:
    return tuple(ModelSpec.from_dict(entry) for entry in entries)


# The keys a run config may hold besides workdir and inputs: the
# PipelineConfig field each one sets and how its JSON value is read.
_TOP_LEVEL_FIELDS: dict[str, tuple[str, Callable]] = {
    "seed": ("seed", int),
    "simulate": ("simulate", lambda data: GeneratorConfig.from_dict(data) if data else None),
    "ground_truth": ("ground_truth", lambda path: Path(path) if path else None),
    "window": ("window", lambda spec: spec),
    "match": ("match", lambda data: MatchConfig.from_dict(data) if data else MatchConfig()),
    "models": ("models", _model_specs),
    "skip": ("skip", tuple),
}
_SECTION_FIELDS: dict[str, dict[str, tuple[str, Callable]]] = {
    "denoise": {
        "method": ("denoise_method", lambda method: method),
        "folds": ("denoise_folds", int),
        "models": ("denoise_models", _model_specs),
    },
    "split": {"train_fraction": ("split_fraction", float)},
    "stack": {"folds": ("stack_folds", int)},
    "evaluate": {"threshold": ("threshold", float)},
    "importance": {"repeats": ("importance_repeats", int)},
}
_INPUT_ROLES = ("organizations", "observations", "tweets", "incidents")
_TOP_LEVEL_KEYS = ("workdir", "inputs", *_TOP_LEVEL_FIELDS, *_SECTION_FIELDS)


@dataclass
class PipelineResult:
    workdir: Path
    report: dict
    artifacts: dict[str, Path]


def run_pipeline(config: PipelineConfig) -> PipelineResult:
    """Execute every non-skipped stage in order; artifacts land in workdir."""
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    artifacts: dict[str, Path] = {}
    skip = set(config.skip)

    # A simulated corpus is featurized as generated; its files are written
    # for inspection and for the standalone commands.
    latent: dict[str, int] | None = None
    if config.simulate is not None and "simulate" not in skip:
        with stage_guard("simulate"):
            bundle = generate_corpus(config.simulate)
            artifacts.update(write_corpus(bundle, workdir / "corpus"))
        organizations, observations = bundle.organizations, bundle.observations
        tweets, incidents = bundle.tweets, bundle.incidents
        latent = bundle.ground_truth
    else:
        try:
            organizations = load_organizations(config.inputs["organizations"])
            observations = load_observations(config.inputs["observations"])
            tweets = load_tweets(config.inputs["tweets"])
            incidents = load_incidents(config.inputs["incidents"])
        except KeyError as exc:
            raise RecordError(f"missing input path for {exc.args[0]!r}") from exc
        if config.ground_truth:
            latent = load_ground_truth(config.ground_truth)

    match_summary: dict[str, int] = {}
    if "match" not in skip:
        with stage_guard("match"):
            candidates = match_names(
                [incident.name for incident in incidents],
                [org.name for org in organizations],
                config.match,
            )
        matches_path = workdir / "matches.jsonl"
        write_jsonl(matches_path, (c.to_dict() for c in candidates))
        artifacts["matches"] = matches_path
        for candidate in candidates:
            match_summary[candidate.verdict] = match_summary.get(candidate.verdict, 0) + 1

    with stage_guard("featurize"):
        window = parse_window(config.window) if config.window else None
        profiles = featurize_corpus(
            organizations,
            observations,
            tweets,
            incidents,
            window=window,
            latent_labels=latent,
        )
    features_path = workdir / "features.csv"
    write_features_csv(features_path, profiles)
    artifacts["features"] = features_path

    noise_report: NoiseReport | None = None
    if "denoise" not in skip:
        with stage_guard("denoise"):
            profiles, noise_report = correct_labels(
                profiles,
                config.denoise_models,
                config.denoise_method,
                k=config.denoise_folds,
                seed=config.seed,
            )
        denoised_path = workdir / "features_denoised.csv"
        write_features_csv(denoised_path, profiles)
        noise_path = workdir / "noise_report.json"
        write_json(noise_path, noise_report.to_dict())
        artifacts["features_denoised"] = denoised_path
        artifacts["noise_report"] = noise_path

    with stage_guard("split"):
        train_set, test_set = split_train_test(
            profiles, config.split_fraction, seed=config.seed
        )
        # The split is unstratified; a half without both classes can be
        # neither trained on nor scored by AUC, so say which one it is.
        for half, rows in (("train", train_set), ("test", test_set)):
            require_both_classes(
                rows, f"the {half} half", ", so use more organizations or another train_fraction"
            )
    train_path = workdir / "train.csv"
    test_path = workdir / "test.csv"
    write_features_csv(train_path, train_set)
    write_features_csv(test_path, test_set)
    artifacts["train"] = train_path
    artifacts["test"] = test_path

    # Bases first, then the stacked model over them: importance scores the last.
    # A stacked model's bases are the single models, so they are fitted once.
    with stage_guard("train"):
        if config.stack_folds and len(config.models) >= 2:
            stacked = train_stacked(
                train_set, config.models, folds=config.stack_folds, seed=config.seed
            )
            trained = [(base.name, base) for base in stacked.bases] + [("stacked", stacked)]
        else:
            trained = [(spec.family, train(train_set, spec)) for spec in config.models]
    for key, model in trained:
        path = workdir / "models" / f"{key}.json"
        save_model(model, path)
        artifacts[f"model:{key}"] = path

    evaluations: list[EvaluationReport] = []
    importance: ImportanceReport | None = None
    with stage_guard("evaluate"):
        test_labels = [p.label for p in test_set]
        for _, model in trained:
            scores = predict_proba_many(model, test_set).tolist()
            evaluations.append(
                evaluate_scores(model.name, scores, test_labels, config.threshold)
            )
        if config.importance_repeats:
            importance = permutation_importance(
                trained[-1][1], test_set, repeats=config.importance_repeats, seed=config.seed
            )
    evaluations_path = workdir / "evaluations.json"
    write_json(
        evaluations_path,
        {"evaluations": [e.to_dict() for e in evaluations]},
    )
    artifacts["evaluations"] = evaluations_path

    label_policy = (
        NOISY_LABEL_POLICY if "denoise" in skip else CORRECTED_LABEL_POLICY
    )
    report = {
        "label_policy": label_policy,
        "seed": config.seed,
        "match": match_summary,
        "corpus": {
            "organizations": len(organizations),
            "observations": len(observations),
            "tweets": len(tweets),
            "incidents": len(incidents),
        },
        "labels": {
            "train": {
                "positive": sum(p.label for p in train_set),
                "negative": sum(1 - p.label for p in train_set),
            },
            "test": {
                "positive": sum(test_labels),
                "negative": len(test_labels) - sum(test_labels),
            },
        },
        "noise": noise_report.to_dict() if noise_report else None,
        "transition_note": (
            None
            if noise_report is None
            else "Q-hat is the simple column-normalized conditional; the "
            "row-normalized view is the count share within each true-label "
            "row (rows summing to 1)."
        ),
        "metrics": [e.to_dict() for e in evaluations],
        "importance": importance.to_dict() if importance else None,
    }
    report_json = workdir / "report.json"
    write_json(report_json, report)
    report_txt = workdir / "report.txt"
    report_txt.write_text(render_report_text(report), encoding="utf-8")
    artifacts["report_json"] = report_json
    artifacts["report_txt"] = report_txt
    return PipelineResult(workdir=workdir, report=report, artifacts=artifacts)


def _format_cell(value: object) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    def line(parts: Sequence[str]) -> str:
        return "  ".join(part.ljust(widths[i]) for i, part in enumerate(parts)).rstrip()

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def render_report_text(report: dict) -> str:
    """Human-readable mirror of report.json with fixed section order."""
    sections: list[str] = []
    sections.append(f"label policy: {report['label_policy']}")
    corpus = report["corpus"]
    sections.append(
        "corpus: {organizations} orgs, {observations} observations, "
        "{tweets} tweets, {incidents} incidents".format(**corpus)
    )
    if report["match"]:
        match_rows = [[k, v] for k, v in sorted(report["match"].items())]
        sections.append("name matching\n" + _render_table(["verdict", "count"], match_rows))
    labels = report["labels"]
    sections.append(
        "class counts\n"
        + _render_table(
            ["split", "positive", "negative"],
            [
                ["train", labels["train"]["positive"], labels["train"]["negative"]],
                ["test", labels["test"]["positive"], labels["test"]["negative"]],
            ],
        )
    )
    noise = report.get("noise")
    if noise:
        before = noise["before_counts"]
        after = noise["after_counts"]
        sections.append(
            "label correction ({})\n".format(noise["method"])
            + _render_table(
                ["", "negative", "positive"],
                [
                    ["before", before[0], before[1]],
                    ["after", after[0], after[1]],
                    ["flipped", len(noise["flipped_ids"]), ""],
                ],
            )
        )
        transition = noise["transition"]
        rows = []
        for i, row_name in enumerate(("given 0", "given 1")):
            rows.append(
                [
                    row_name,
                    transition["row_normalized"][i][0],
                    transition["row_normalized"][i][1],
                    transition["conditional"][i][0],
                    transition["conditional"][i][1],
                ]
            )
        sections.append(
            "noise transition (row-normalized | conditional)\n"
            + _render_table(
                ["", "row:true 0", "row:true 1", "cond:true 0", "cond:true 1"], rows
            )
        )
        if report.get("transition_note"):
            sections.append("note: " + report["transition_note"])
    metric_rows = [
        [m["model"], m["tpr"], m["fpr"], m["auc"], m["f1"], m["brier"]]
        for m in report["metrics"]
    ]
    sections.append(
        "test metrics (threshold {})\n".format(
            report["metrics"][0]["threshold"] if report["metrics"] else "-"
        )
        + _render_table(["model", "tpr", "fpr", "auc", "f1", "brier"], metric_rows)
    )
    importance = report.get("importance")
    if importance:
        share_rows = [
            [category, importance["category_shares"][category]]
            for category in ("technical", "twitter", "sector", "org_size")
        ]
        sections.append(
            "feature importance by category (model {}, baseline AUC {:.4f})\n".format(
                importance["model"], importance["baseline_auc"]
            )
            + _render_table(["category", "share %"], share_rows)
        )
    return "\n\n".join(sections) + "\n"
