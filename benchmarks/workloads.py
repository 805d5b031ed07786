"""The three workloads: how their inputs are prepared and what is timed.

``prepare`` builds a workload's input files from the workload seed with
the program's own generator, trainer and writers; it runs outside the
timed region. ``operate`` is the timed operation: it receives only those
files and writes its outputs into a fresh directory. ``parse_config`` is
the configuration step every ``strisk`` invocation pays, timed as part
of ``setup_s``.
"""
from __future__ import annotations

import csv
import json
import random
import string
from pathlib import Path

from strisk import features, names, pipeline, records, synth
from strisk.models import api, importance, stacking

from reference import normalize_tokens

QUICKSTART = "quickstart-2k"
INGEST = "ingest-5k"
SCORE = "score-5k"
WORKLOADS = (QUICKSTART, INGEST, SCORE)

# Organizations each workload processes, at full and at smoke size.
# ``orgs`` is the count orgs_per_s divides by; ``train_orgs`` sizes the
# corpus the scored model is trained on.
SIZES = {
    "full": {
        QUICKSTART: {"orgs": 2000},
        INGEST: {"orgs": 5000},
        SCORE: {"orgs": 5000, "train_orgs": 2000},
    },
    "smoke": {
        QUICKSTART: {"orgs": 200},
        INGEST: {"orgs": 300},
        SCORE: {"orgs": 300, "train_orgs": 200},
    },
}

QUICKSTART_SIGNAL = {"technical": 2.0, "social": 1.5}
WEAK_SIGNAL = {"technical": 0.5, "social": 0.5}
STACK_FAMILIES = ("logistic_regression", "naive_bayes", "random_forest")
IMPORTANCE_REPEATS = 5
# Folds of the scored model's meta-learner. Its bases are fitted on every
# training row whatever this is, so scoring does the same work; 2 folds
# keep preparation (which every new seed pays) near 10 s instead of 20 s.
SCORE_MODEL_FOLDS = 2

# ingest-5k: one victim in ten, so about 400 incident names are matched
# against the 5,000-name registry and matching is about half the run.
INGEST_NEGATIVE_RATIO = 9.0

# Share of incident names given each perturbation in ingest-5k.
PERTURBATION_MIX = (
    ("exact", 0.40),
    ("suffix_swap", 0.15),
    ("typo", 0.15),
    ("dropped_token", 0.15),
    ("no_overlap", 0.15),
)
# The suffix words strisk's default MatchConfig drops, in display form.
STOPLIST_SUFFIXES = ("Inc", "LLC", "Corp", "Ltd", "Co")


def quickstart_config(seed: int, n_orgs: int) -> dict:
    """The README quick-start pipeline config at ``n_orgs``."""
    return {
        "workdir": "out",
        "seed": seed,
        "simulate": {
            "n_orgs": n_orgs,
            "negative_ratio": 4.0,
            "signal": dict(QUICKSTART_SIGNAL),
            "noise_fraction": 0.2,
            "seed": seed,
        },
        "denoise": {"method": "confusion_matrix", "folds": 5},
        "split": {"train_fraction": 0.7},
        "models": [{"family": family} for family in STACK_FAMILIES],
        "stack": {"folds": 5},
        "evaluate": {"threshold": 0.5},
        "importance": {"repeats": IMPORTANCE_REPEATS},
    }


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _pseudo_word(rng: random.Random) -> str:
    consonants, vowels = "bcdfghjklmnpqrstvwxz", "aeiouy"
    return "".join(
        rng.choice(consonants) + rng.choice(vowels) for _ in range(rng.randint(3, 4))
    )


def perturb_name(name: str, kind: str, rng: random.Random, vocabulary: set[str]) -> str:
    """One incident-name variant of registry name ``name``."""
    words = name.split()
    core = [i for i, w in enumerate(words) if w not in STOPLIST_SUFFIXES + ("Group", "Holdings")]
    if kind == "exact":
        return name
    if kind == "suffix_swap":
        stem = [w for i, w in enumerate(words) if i in core]
        current = words[-1] if len(words) > len(stem) else ""
        return " ".join(stem + [rng.choice([s for s in STOPLIST_SUFFIXES if s != current])])
    if kind == "typo":
        i = rng.choice(core)
        word = words[i]
        at = rng.randrange(len(word))
        letter = rng.choice([c for c in string.ascii_lowercase if c != word[at].lower()])
        words[i] = word[:at] + letter + word[at + 1:]
        return " ".join(words)
    if kind == "dropped_token":
        del words[rng.choice(core)]
        return " ".join(words)
    if kind == "no_overlap":
        made: list[str] = []
        while len(made) < 2:
            word = _pseudo_word(rng)
            if word not in vocabulary and word not in made:
                made.append(word)
        return " ".join(w.title() for w in made)
    raise ValueError(f"unknown perturbation {kind!r}")


def _prepare_quickstart(seed: int, size: dict, out: Path) -> None:
    _write_json(out / "pipeline.json", quickstart_config(seed, size["orgs"]))


def _prepare_ingest(seed: int, size: dict, out: Path) -> None:
    config = synth.GeneratorConfig(
        n_orgs=size["orgs"],
        negative_ratio=INGEST_NEGATIVE_RATIO,
        signal=dict(QUICKSTART_SIGNAL),
        noise_fraction=0.2,
        seed=seed,
    )
    paths = synth.write_corpus(synth.generate_corpus(config), out / "corpus")
    stoplist = names.MatchConfig().suffix_stoplist
    registry = [r["name"] for r in records.read_jsonl(paths["organizations"])]
    vocabulary = {t for name in registry for t in normalize_tokens(name, stoplist)}
    incidents = list(records.read_jsonl(paths["incidents"]))
    rng = random.Random(seed)
    kinds = rng.choices(
        [k for k, _ in PERTURBATION_MIX], [w for _, w in PERTURBATION_MIX], k=len(incidents)
    )
    for incident, kind in zip(incidents, kinds):
        incident["name"] = perturb_name(incident["name"], kind, rng, vocabulary)
    records.write_jsonl(paths["incidents"], incidents)
    _write_json(out / "perturbations.json", {"kinds": kinds})
    _write_json(out / "ingest.json", {"match": names.MatchConfig().to_dict()})


def _prepare_score(seed: int, size: dict, out: Path) -> None:
    def corpus(n_orgs: int, corpus_seed: int, latent: bool) -> list[features.FeatureVector]:
        config = synth.GeneratorConfig(
            n_orgs=n_orgs, signal=dict(WEAK_SIGNAL), noise_fraction=0.2, seed=corpus_seed
        )
        bundle = synth.generate_corpus(config)
        return features.featurize_corpus(
            bundle.organizations,
            bundle.observations,
            bundle.tweets,
            bundle.incidents,
            latent_labels=bundle.ground_truth if latent else None,
        )

    specs = [api.ModelSpec(family=family) for family in STACK_FAMILIES]
    model = stacking.train_stacked(
        corpus(size["train_orgs"], 2 * seed, latent=False),
        specs,
        folds=SCORE_MODEL_FOLDS,
        seed=seed,
    )
    stacking.save_stacked(model, out / "model.json")
    features.write_features_csv(
        out / "features.csv", corpus(size["orgs"], 2 * seed + 1, latent=True)
    )
    _write_json(out / "score.json", {"importance": {"repeats": IMPORTANCE_REPEATS}, "seed": seed})


def prepare(workload: str, seed: int, size: dict, out: Path) -> None:
    {QUICKSTART: _prepare_quickstart, INGEST: _prepare_ingest, SCORE: _prepare_score}[
        workload
    ](seed, size, out)


CONFIG_FILES = {QUICKSTART: "pipeline.json", INGEST: "ingest.json", SCORE: "score.json"}


def parse_config(workload: str, prep: Path):
    """Parse the workload config the way the program's entry points do."""
    path = prep / CONFIG_FILES[workload]
    if workload == QUICKSTART:
        return pipeline.PipelineConfig.from_file(path, workdir=prep / "unused")
    data = json.loads(path.read_text(encoding="utf-8"))
    if workload == INGEST:
        return names.MatchConfig.from_dict(data["match"])
    return int(data["importance"]["repeats"]), int(data["seed"])


def _operate_quickstart(prep: Path, out: Path) -> None:
    pipeline.run_pipeline(pipeline.PipelineConfig.from_file(prep / "pipeline.json", workdir=out))


def _operate_ingest(prep: Path, out: Path) -> None:
    """The work of ``strisk match`` plus ``strisk featurize``."""
    config = parse_config(INGEST, prep)
    corpus = prep / "corpus"
    organizations = records.load_organizations(corpus / "organizations.jsonl")
    observations = records.load_observations(corpus / "observations.jsonl")
    tweets = records.load_tweets(corpus / "tweets.jsonl")
    incidents = records.load_incidents(corpus / "incidents.jsonl")
    candidates = names.match_names(
        [i.name for i in incidents], [o.name for o in organizations], config
    )
    records.write_jsonl(
        out / "matches.jsonl",
        (
            {
                "incident_name": c.incident_name.original,
                "registry_name": c.registry_name.original,
                "jaccard": c.jaccard,
                "jaro_winkler": c.jaro_winkler,
                "verdict": c.verdict,
            }
            for c in candidates
        ),
    )
    profiles = features.featurize_corpus(organizations, observations, tweets, incidents)
    features.write_features_csv(out / "features.csv", profiles)


def _operate_score(prep: Path, out: Path) -> None:
    repeats, seed = parse_config(SCORE, prep)
    model = stacking.load_stacked(prep / "model.json")
    profiles = features.read_features_csv(prep / "features.csv")
    scores = stacking.predict_stacked_many(model, profiles)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scores.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["org_id", "probability", "class"])
        for profile, score in zip(profiles, scores):
            writer.writerow([profile.org_id, repr(float(score)), int(score >= 0.5)])
    report = importance.permutation_importance(model, profiles, repeats=repeats, seed=seed)
    _write_json(out / "importance.json", report.to_dict())


def operate(workload: str, prep: Path, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    {QUICKSTART: _operate_quickstart, INGEST: _operate_ingest, SCORE: _operate_score}[
        workload
    ](prep, out)

