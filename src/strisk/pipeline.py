"""End-to-end pipeline: simulate, match, featurize, denoise, split,
train, evaluate, report.

Every stage reads files and writes files, so a run is restartable and
each stage is independently inspectable. run_pipeline chains the stage
functions below, and the standalone commands call the same ones. All
randomness flows from seeds in the config; reports are rendered with
stable ordering and repr-exact floats, making identical configs produce
byte-identical artifacts.
"""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, Mapping, Sequence

from .evaluation import EvaluationReport, evaluate_scores, split_train_test
from .features import (
    FeatureVector,
    TimeWindow,
    featurize_corpus,
    parse_window,
    write_features_csv,
)
from .models import (
    ImportanceReport,
    ModelSpec,
    predict_proba_many,
    save_model,
    train,
    train_stacked,
)
from .models.api import Model
from .models.importance import IMPORTANCE_CATEGORIES, permutation_importance
from .names import MatchCandidate, MatchConfig, match_names
from .noise import CONFUSION_MATRIX, METHODS, NoiseReport, correct_labels
from .records import (
    Bound,
    Folds,
    RecordError,
    Seed,
    check_bounds,
    field_types,
    json_object,
    load_incidents,
    load_observations,
    load_organizations,
    load_tweets,
    read_json,
    read_value,
    write_json,
    write_jsonl,
)
from .synth import CorpusBundle, GeneratorConfig, generate_corpus, load_ground_truth, write_corpus

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
    seed: Seed = 0
    simulate: GeneratorConfig | None = None
    inputs: dict[str, Path] | None = None
    ground_truth: Path | None = None
    window: str | None = None
    match: MatchConfig = field(default_factory=MatchConfig)
    denoise_method: str = CONFUSION_MATRIX
    denoise_folds: Folds = 5
    denoise_models: tuple[ModelSpec, ...] = ()
    split_fraction: Annotated[float, Bound(0, 1, "()")] = 0.7
    models: tuple[ModelSpec, ...] = ()
    stack_folds: Annotated[int | None, Bound(2)] = None
    threshold: float = 0.5
    importance_repeats: Annotated[int | None, Bound(1)] = None
    skip: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.simulate is None and not self.inputs:
            raise ValueError("config needs either a simulate section or input paths")
        if "simulate" in self.skip and not self.inputs:
            raise ValueError("skip lists simulate, so the config needs input paths")
        # Inputs are read only when nothing is simulated, so a config that
        # simulates may carry a partial inputs section.
        if self.simulate is None or "simulate" in self.skip:
            missing = ", ".join(repr(role) for role in _INPUT_ROLES if role not in self.inputs)
            if missing:
                raise ValueError(f"inputs lacks {missing}, read when nothing is simulated")
        if not self.models:
            raise ValueError("config lists no models to train")
        if self.stack_folds is not None and len(self.models) < 2:
            raise ValueError(f"'stack' needs at least 2 models to stack, got {len(self.models)}")
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
        """Read a run config. A key it does not define, or a value its field does not
        admit (read_value), is a ValueError naming the key; a key left out keeps its default."""
        json_object(data, "config", _TOP_LEVEL_KEYS)
        if not isinstance(data.get("skip", []), list):
            raise ValueError(f"skip must be a list of stage names, got {data['skip']!r}")
        kwargs = {}
        for section, names in [("", _TOP_LEVEL_FIELDS), *_SECTION_FIELDS.items()]:
            values = json_object(data.get(section, {}), section, names) if section else data
            for key, name in names.items():
                if key in values:
                    kwargs[name] = read_value(values[key], field_types(cls)[name], key)
        inputs = json_object(data.get("inputs", {}), "inputs", _INPUT_ROLES)
        if not workdir and "workdir" not in data:
            raise RecordError("missing field 'workdir'")
        return cls(
            workdir=Path(workdir) if workdir else read_value(data["workdir"], Path, "workdir"),
            inputs=read_value(inputs, field_types(cls)["inputs"], "inputs") or None,
            **kwargs,
        )

    @classmethod
    def from_file(cls, path: str | Path, workdir: Path | None = None) -> PipelineConfig:
        return cls.from_dict(read_json(path), workdir=workdir)


# The keys a run config may hold besides workdir and inputs, and the
# PipelineConfig field each one sets; the field's annotation reads the value.
_TOP_LEVEL_FIELDS = {k: k for k in ("seed", "simulate", "ground_truth", "window", "match", "models", "skip")}
_SECTION_FIELDS = {
    "denoise": {"method": "denoise_method", "folds": "denoise_folds", "models": "denoise_models"},
    "split": {"train_fraction": "split_fraction"},
    "stack": {"folds": "stack_folds"},
    "evaluate": {"threshold": "threshold"},
    "importance": {"repeats": "importance_repeats"},
}
_INPUT_ROLES = ("organizations", "observations", "tweets", "incidents")
_TOP_LEVEL_KEYS = ("workdir", "inputs", *_TOP_LEVEL_FIELDS, *_SECTION_FIELDS)


def simulate(config: GeneratorConfig, out_dir: str | Path) -> tuple[CorpusBundle, dict[str, Path]]:
    """Generate a corpus and write its files under ``out_dir``; returns it and the paths."""
    with stage_guard("simulate"):
        bundle = generate_corpus(config)
        return bundle, write_corpus(bundle, out_dir)


def load_corpus(paths: Mapping[str, str | Path], ground_truth: str | Path | None = None) -> CorpusBundle:
    """The record files ``paths`` names by role, and the ground truth file when given."""
    return CorpusBundle(
        organizations=load_organizations(paths["organizations"]),
        observations=load_observations(paths["observations"]),
        tweets=load_tweets(paths["tweets"]),
        incidents=load_incidents(paths["incidents"]),
        ground_truth=load_ground_truth(ground_truth) if ground_truth else None,
    )


def match(
    incident_names: Sequence[str], registry_names: Sequence[str], config: MatchConfig, out: str | Path
) -> list[MatchCandidate]:
    """Match incident names against the registry and write the candidates to ``out``."""
    with stage_guard("match"):
        candidates = match_names(incident_names, registry_names, config)
    write_jsonl(out, (c.to_dict() for c in candidates))
    return candidates


def featurize(corpus: CorpusBundle, window: TimeWindow | None, out: str | Path) -> list[FeatureVector]:
    """Profile every organization of ``corpus`` and write the profiles to ``out``."""
    with stage_guard("featurize"):
        profiles = featurize_corpus(
            corpus.organizations, corpus.observations, corpus.tweets, corpus.incidents,
            window=window, latent_labels=corpus.ground_truth,
        )
    write_features_csv(out, profiles)
    return profiles


def denoise(
    profiles: Sequence[FeatureVector], what: str, specs: Sequence[ModelSpec], method: str,
    folds: int, seed: int, out: str | Path, report_path: str | Path,
) -> tuple[list[FeatureVector], NoiseReport]:
    """Correct the labels of ``profiles`` (read from ``what``, which must hold both
    classes); write the corrected profiles to ``out`` and the report to ``report_path``."""
    with stage_guard("denoise"):
        require_both_classes(profiles, what)
        corrected, report = correct_labels(profiles, specs, method, k=folds, seed=seed)
    write_features_csv(out, corrected)
    write_json(report_path, report.to_dict())
    return corrected, report


def evaluate_model(model: Model, profiles: Sequence[FeatureVector], threshold: float) -> EvaluationReport:
    """Score ``profiles`` with ``model`` and measure the scores against their labels."""
    scores = predict_proba_many(model, profiles).tolist()
    return evaluate_scores(model.name, scores, [p.label for p in profiles], threshold)


def _profile_corpus(
    config: PipelineConfig, workdir: Path
) -> tuple[list[FeatureVector], dict[str, int], dict[str, int]]:
    """Simulate or load the corpus, match it and featurize it: the profiles, the count
    of each match verdict and the record count of each role. The corpus and the match
    candidates are freed on return, so they do not outlive featurize."""
    # A simulated corpus is featurized as generated; its files are written
    # for inspection and for the standalone commands.
    if config.simulate is not None and "simulate" not in config.skip:
        corpus, _ = simulate(config.simulate, workdir / "corpus")
    else:
        corpus = load_corpus(config.inputs, config.ground_truth)

    match_summary: dict[str, int] = {}
    if "match" not in config.skip:
        incident_names = [incident.name for incident in corpus.incidents]
        registry_names = [org.name for org in corpus.organizations]
        candidates = match(incident_names, registry_names, config.match, workdir / "matches.jsonl")
        match_summary = dict(Counter(candidate.verdict for candidate in candidates))

    window = parse_window(config.window) if config.window else None
    profiles = featurize(corpus, window, workdir / "features.csv")
    return profiles, match_summary, {role: len(getattr(corpus, role)) for role in _INPUT_ROLES}


def run_pipeline(config: PipelineConfig) -> None:
    """Execute every non-skipped stage in order; artifacts land in workdir."""
    workdir = Path(config.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    skip = set(config.skip)
    profiles, match_summary, corpus_counts = _profile_corpus(config, workdir)

    noise_report: NoiseReport | None = None
    if "denoise" not in skip:
        profiles, noise_report = denoise(
            profiles, str(workdir / "features.csv"), config.denoise_models, config.denoise_method,
            config.denoise_folds, config.seed, workdir / "features_denoised.csv", workdir / "noise_report.json",
        )

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
    write_features_csv(workdir / "train.csv", train_set)
    write_features_csv(workdir / "test.csv", test_set)

    # Bases first, then the stacked model over them: importance scores the last.
    # A stacked model's bases are the single models, so they are fitted once.
    with stage_guard("train"):
        if config.stack_folds:
            stacked = train_stacked(
                train_set, config.models, folds=config.stack_folds, seed=config.seed
            )
            trained = [(base.name, base) for base in stacked.bases] + [("stacked", stacked)]
        else:
            trained = [(spec.family, train(train_set, spec)) for spec in config.models]
    for key, model in trained:
        save_model(model, workdir / "models" / f"{key}.json")

    importance: ImportanceReport | None = None
    with stage_guard("evaluate"):
        evaluations = [evaluate_model(model, test_set, config.threshold) for _, model in trained]
        if config.importance_repeats:
            importance = permutation_importance(
                trained[-1][1], test_set, repeats=config.importance_repeats, seed=config.seed
            )
    write_json(workdir / "evaluations.json", {"evaluations": [e.to_dict() for e in evaluations]})

    test_positive = sum(p.label for p in test_set)
    report = {
        "label_policy": NOISY_LABEL_POLICY if "denoise" in skip else CORRECTED_LABEL_POLICY,
        "seed": config.seed,
        "match": match_summary,
        "corpus": corpus_counts,
        "labels": {
            "train": {
                "positive": sum(p.label for p in train_set),
                "negative": sum(1 - p.label for p in train_set),
            },
            "test": {
                "positive": test_positive,
                "negative": len(test_set) - test_positive,
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
    write_json(workdir / "report.json", report)
    (workdir / "report.txt").write_text(render_report_text(report), encoding="utf-8")


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
            for category in IMPORTANCE_CATEGORIES
        ]
        sections.append(
            "feature importance by category (model {}, baseline AUC {:.4f})\n".format(
                importance["model"], importance["baseline_auc"]
            )
            + _render_table(["category", "share %"], share_rows)
        )
    return "\n\n".join(sections) + "\n"
