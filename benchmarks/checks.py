"""Output checks for one timed operation of each workload.

Every check compares the program's output with a computation made here
(see ``reference.py``) or with a property the method must have; none
compares with a stored copy of earlier output. ``check`` returns the
list of failures, a fingerprint of the output that must repeat across
the operations of one invocation, and the quality numbers it checked.
"""
from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from pathlib import Path

import reference as ref

# Floors that every seed clears with room to spare (the README lists the
# observed values). AUC floors are against the latent labels, which the
# program never sees.
QUICKSTART_LATENT_AUC_FLOOR = 0.95
QUICKSTART_FLIPPED_VICTIM_FLOOR = 0.50
SCORE_LATENT_AUC_FLOOR = 0.95
# Incident names whose reference best match is recomputed per operation.
MATCH_SAMPLE = 25
TOLERANCE = 1e-12

KIND_TO_COUNT_COLUMN = {
    "blacklist_ip": "blacklist_count",
    "darknet_ip": "darknet_count",
    "open_port": "open_port_count",
    "expired_cert": "expired_cert_count",
    "spam_domain": "spam_domain_count",
}


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _score_with_program(model_path: Path, features_path: Path, rows: list[int] | None = None):
    from strisk.features import read_features_csv
    from strisk.models.stacking import load_stacked, predict_stacked_many

    profiles = read_features_csv(features_path)
    if rows is not None:
        profiles = [profiles[i] for i in rows]
    return predict_stacked_many(load_stacked(model_path), profiles).tolist()


def check_quickstart(prep: Path, out: Path, seed: int, errors: list[str], quality: dict) -> str:
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    stacked = [m for m in report["metrics"] if m["model"].startswith("stacked(")]
    test_rows = ref.read_csv_rows(out / "test.csv")
    scores = _score_with_program(out / "models" / "stacked.json", out / "test.csv")
    labels = [int(r["label"]) for r in test_rows]
    own_auc = ref.pairwise_auc(scores, labels)
    if len(stacked) != 1 or abs(stacked[0]["auc"] - own_auc) > TOLERANCE:
        errors.append(f"stacked AUC in report.json != rescored test.csv AUC {own_auc!r}")
    latent = {
        r["org_id"]: int(r["latent_label"])
        for r in ref.read_jsonl(out / "corpus" / "ground_truth.jsonl")
    }
    latent_auc = ref.pairwise_auc(scores, [latent[r["org_id"]] for r in test_rows])
    quality["latent_auc"] = latent_auc
    if latent_auc < QUICKSTART_LATENT_AUC_FLOOR:
        errors.append(f"latent-label AUC {latent_auc:.4f} < {QUICKSTART_LATENT_AUC_FLOOR}")

    noise = report["noise"]
    before = {r["org_id"]: int(r["label"]) for r in ref.read_csv_rows(out / "features.csv")}
    after = {
        r["org_id"]: int(r["label"]) for r in ref.read_csv_rows(out / "features_denoised.csv")
    }
    flipped = noise["flipped_ids"]
    changed = sorted(k for k in before if before[k] != after[k])
    if sorted(flipped) != changed or any(before[k] != 0 or after[k] != 1 for k in flipped):
        errors.append("flipped ids are not exactly the labels that went from 0 to 1")
    n_pos = sum(before.values())
    counts_before = [len(before) - n_pos, n_pos]
    counts_after = [counts_before[0] - len(flipped), counts_before[1] + len(flipped)]
    if noise["before_counts"] != counts_before or noise["after_counts"] != counts_after:
        errors.append("noise report before/after counts disagree with the label files")
    if not flipped:
        errors.append("denoising flipped no labels")
    else:
        victim_share = sum(latent[k] for k in flipped) / len(flipped)
        quality["flipped_victim_share"] = victim_share
        if victim_share < QUICKSTART_FLIPPED_VICTIM_FLOOR:
            errors.append(f"flipped-victim share {victim_share:.3f} too low")

    registry = {r["name"] for r in ref.read_jsonl(out / "corpus" / "organizations.jsonl")}
    for row in ref.read_jsonl(out / "matches.jsonl"):
        if row["incident_name"] in registry and row["verdict"] != "accepted":
            errors.append(f"exact registry name {row['incident_name']!r} not accepted")
            break
    return _digest((out / "report.json").read_bytes())


def check_ingest(prep: Path, out: Path, seed: int, errors: list[str], quality: dict) -> str:
    config = json.loads((prep / "ingest.json").read_text(encoding="utf-8"))["match"]
    corpus = prep / "corpus"
    orgs = ref.read_jsonl(corpus / "organizations.jsonl")
    incidents = ref.read_jsonl(corpus / "incidents.jsonl")
    kinds = json.loads((prep / "perturbations.json").read_text(encoding="utf-8"))["kinds"]
    matches = ref.read_jsonl(out / "matches.jsonl")
    if [m["incident_name"] for m in matches] != [i["name"] for i in incidents]:
        errors.append("matches.jsonl does not hold one row per incident, in order")
        return ""

    for m, kind in zip(matches, kinds):
        jac_ok = m["jaccard"] >= config["jaccard_threshold"]
        jw_ok = m["jaro_winkler"] >= config["jw_threshold"]
        # A tie between distinct positive-score candidates adds needs_review.
        if jac_ok and jw_ok:
            allowed = {"accepted", "needs_review"}
        elif jac_ok or jw_ok:
            allowed = {"needs_review"}
        elif m["jaccard"] > 0.0:
            allowed = {"rejected", "needs_review"}
        else:
            allowed = {"rejected"}
        if m["verdict"] not in allowed:
            errors.append(f"verdict {m['verdict']} contradicts scores for {m['incident_name']!r}")
        if kind == "exact" and (m["jaccard"] != 1.0 or m["verdict"] != "accepted"):
            errors.append(f"exact copy {m['incident_name']!r} not accepted at Jaccard 1.0")
        if kind == "no_overlap" and (m["jaccard"] != 0.0 or m["verdict"] == "accepted"):
            errors.append(f"name with no registry token {m['incident_name']!r} mis-scored")
    verdicts = Counter(m["verdict"] for m in matches)
    quality.update(verdicts)
    if set(verdicts) != {"accepted", "needs_review", "rejected"}:
        errors.append(f"the name mix did not produce all three verdicts: {dict(verdicts)}")

    stoplist = config["suffix_stoplist"]
    registry = [ref.normalize_tokens(o["name"], stoplist) for o in orgs]
    for i in random.Random(seed).sample(range(len(matches)), min(MATCH_SAMPLE, len(matches))):
        m = matches[i]
        want = ref.best_match(ref.normalize_tokens(m["incident_name"], stoplist), registry, config)
        got_name = " ".join(ref.normalize_tokens(m["registry_name"], stoplist))
        if (
            abs(m["jaccard"] - want["jaccard"]) > TOLERANCE
            or abs(m["jaro_winkler"] - want["jaro_winkler"]) > TOLERANCE
            or got_name != want["registry_normalized"]
            or m["verdict"] != want["verdict"]
        ):
            errors.append(f"match for {m['incident_name']!r} differs from reference {want}")

    distinct: dict[str, dict[str, set]] = {o["org_id"]: {} for o in orgs}
    for obs in ref.read_jsonl(corpus / "observations.jsonl"):
        distinct[obs["org_id"]].setdefault(obs["kind"], set()).add(obs["subject"])
    victims = {i["org_id"] for i in incidents}
    rows = ref.read_csv_rows(out / "features.csv")
    if [r["org_id"] for r in rows] != [o["org_id"] for o in orgs]:
        errors.append("features.csv does not hold one row per organization, in order")
        return ""
    for row in rows:
        org_id = row["org_id"]
        for kind, column in KIND_TO_COUNT_COLUMN.items():
            if float(row[column]) != len(distinct[org_id].get(kind, ())):
                errors.append(f"{org_id} {column}={row[column]} disagrees with observations")
        if int(row["label"]) != int(org_id in victims):
            errors.append(f"{org_id} label {row['label']} disagrees with incident records")
    return _digest((out / "matches.jsonl").read_bytes(), (out / "features.csv").read_bytes())


def check_score(prep: Path, out: Path, seed: int, errors: list[str], quality: dict) -> str:
    feature_rows = ref.read_csv_rows(prep / "features.csv")
    score_rows = ref.read_csv_rows(out / "scores.csv")
    if [r["org_id"] for r in score_rows] != [r["org_id"] for r in feature_rows]:
        errors.append("scores.csv does not hold one row per feature row, in order")
        return ""
    scores = [float(r["probability"]) for r in score_rows]
    if any(not 0.0 <= s <= 1.0 for s in scores):
        errors.append("a score lies outside [0, 1]")
    if any(int(r["class"]) != int(float(r["probability"]) >= 0.5) for r in score_rows):
        errors.append("a class column disagrees with its probability")
    half = sorted(random.Random(seed).sample(range(len(scores)), len(scores) // 2))
    subset = _score_with_program(prep / "model.json", prep / "features.csv", half)
    if any(abs(scores[i] - s) > TOLERANCE for i, s in zip(half, subset)):
        errors.append("scoring half of the rows changed their scores")
    labels = [int(r["label"]) for r in feature_rows]
    report = json.loads((out / "importance.json").read_text(encoding="utf-8"))
    own_auc = ref.pairwise_auc(scores, labels)
    if abs(report["baseline_auc"] - own_auc) > TOLERANCE:
        errors.append(f"importance baseline AUC != own AUC of the scores {own_auc!r}")
    latent_auc = ref.pairwise_auc(scores, [int(r["latent_label"]) for r in feature_rows])
    quality["latent_auc"] = latent_auc
    if latent_auc < SCORE_LATENT_AUC_FLOOR:
        errors.append(f"latent-label AUC {latent_auc:.4f} < {SCORE_LATENT_AUC_FLOOR}")
    shares = report["category_shares"]
    if any(v < 0.0 for v in shares.values()) or abs(sum(shares.values()) - 100.0) > 1e-9:
        errors.append(f"category shares are not a split of 100: {shares}")
    return _digest((out / "scores.csv").read_bytes(), (out / "importance.json").read_bytes())


CHECKS = {"quickstart-2k": check_quickstart, "ingest-5k": check_ingest, "score-5k": check_score}


def check(workload: str, prep: Path, out: Path, seed: int) -> tuple[list[str], str, dict]:
    errors: list[str] = []
    quality: dict = {}
    fingerprint = CHECKS[workload](prep, out, seed, errors, quality)
    return errors, fingerprint, quality
