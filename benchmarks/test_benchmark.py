"""Tests of the benchmark itself: reference code, checks, and the command.

    python3 -m pytest benchmarks
"""
from __future__ import annotations

import csv
import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_pairwise_auc_counts_every_pair():
    rng = random.Random(3)
    for _ in range(50):
        scores = [rng.choice([0.1, 0.2, 0.3, 0.5, 0.9]) for _ in range(30)]
        labels = [rng.randint(0, 1) for _ in range(30)]
        if len(set(labels)) < 2:
            continue
        pairs = [(p, n) for p, n in itertools.product(
            [s for s, y in zip(scores, labels) if y], [s for s, y in zip(scores, labels) if not y]
        )]
        want = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p, n in pairs) / len(pairs)
        assert ref.pairwise_auc(scores, labels) == pytest.approx(want, abs=1e-15)


def test_jaro_winkler_textbook_values():
    assert ref.jaro("martha", "marhta") == pytest.approx(0.944444, abs=1e-6)
    assert ref.jaro_winkler("martha", "marhta", 0.1, 4) == pytest.approx(0.961111, abs=1e-6)
    assert ref.jaro("", "") == 1.0 and ref.jaro("a", "") == 0.0


def test_normalize_drops_suffixes_and_punctuation():
    assert ref.normalize_tokens("Café Labs, Inc.", {"inc"}) == ("cafe", "labs")


def test_perturbations_keep_their_promises():
    rng = random.Random(0)
    vocab = {"apex", "labs", "group"}
    assert workloads.perturb_name("Apex Labs Inc", "exact", rng, vocab) == "Apex Labs Inc"
    swapped = workloads.perturb_name("Apex Labs Inc", "suffix_swap", rng, vocab)
    assert swapped.startswith("Apex Labs ") and swapped != "Apex Labs Inc"
    assert len(workloads.perturb_name("Apex Labs Group", "dropped_token", rng, vocab).split()) == 2
    typo = workloads.perturb_name("Apex Labs", "typo", rng, vocab)
    assert sum(a != b for a, b in zip(typo, "Apex Labs")) == 1
    fresh = workloads.perturb_name("Apex Labs", "no_overlap", rng, vocab)
    assert not set(ref.normalize_tokens(fresh, ())) & vocab


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [("child", 1.0, 3.0, 1, 0), ("parent", 0.0, 10.0, 0, -1)]
    assert tracer.self_times() == {"child": 2.0, "parent": 8.0}


def test_metric_names_match_benchmark_json():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in config["per_layer"]] == spans.metric_names()
    assert [m["name"] for m in config["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [w["name"] for w in config["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Prepare and run each workload once at smoke size, in this process."""
    base = tmp_path_factory.mktemp("smoke")
    done = {}
    for workload in workloads.WORKLOADS:
        prep, out = base / workload / "prep", base / workload / "out"
        workloads.prepare(workload, 5, workloads.SIZES["smoke"][workload], prep)
        workloads.operate(workload, prep, out)
        done[workload] = (prep, out)
    return done


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    edit(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_pass_on_program_output(smoke_outputs, workload):
    prep, out = smoke_outputs[workload]
    errors, fingerprint, _ = checks.check(workload, prep, out, 5)
    assert errors == [] and fingerprint


def _tampered(smoke_outputs, workload, tmp_path):
    prep, out = smoke_outputs[workload]
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return prep, copy


def test_ingest_check_catches_a_wrong_label(smoke_outputs, tmp_path):
    prep, out = _tampered(smoke_outputs, "ingest-5k", tmp_path)

    def flip(rows):
        rows[0]["label"] = str(1 - int(rows[0]["label"]))

    _rewrite_csv(out / "features.csv", flip)
    errors, _, _ = checks.check("ingest-5k", prep, out, 5)
    assert any("label" in e for e in errors)


def test_ingest_check_catches_a_wrong_score(smoke_outputs, tmp_path):
    prep, out = _tampered(smoke_outputs, "ingest-5k", tmp_path)
    rows = ref.read_jsonl(out / "matches.jsonl")
    kinds = json.loads((prep / "perturbations.json").read_text())["kinds"]
    rows[kinds.index("exact")]["jaccard"] = 0.75
    (out / "matches.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    errors, _, _ = checks.check("ingest-5k", prep, out, 5)
    assert any("exact copy" in e for e in errors)


def test_score_check_catches_a_wrong_baseline(smoke_outputs, tmp_path):
    prep, out = _tampered(smoke_outputs, "score-5k", tmp_path)
    report = json.loads((out / "importance.json").read_text())
    report["baseline_auc"] += 1e-6
    (out / "importance.json").write_text(json.dumps(report))
    errors, _, _ = checks.check("score-5k", prep, out, 5)
    assert any("baseline AUC" in e for e in errors)


def test_quickstart_check_catches_a_wrong_flip(smoke_outputs, tmp_path):
    prep, out = _tampered(smoke_outputs, "quickstart-2k", tmp_path)
    flipped = set(json.loads((out / "report.json").read_text())["noise"]["flipped_ids"])

    def unflip(rows):
        for row in rows:
            if row["org_id"] in flipped:
                row["label"] = "0"
                return

    _rewrite_csv(out / "features_denoised.csv", unflip)
    errors, _, _ = checks.check("quickstart-2k", prep, out, 5)
    assert any("flipped ids" in e for e in errors)


def test_smoke_command_runs_every_workload_and_check():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    summary, results = lines[-1], lines[:-1]
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] == 6
    metric_sets = {tuple(r["metrics"]) for r in results}
    assert metric_sets == {tuple(run.END_TO_END_UNITS), tuple(spans.metric_names())}
    assert all(m["value"] > 0 for r in results[::2] for m in r["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "score-5k", "--seed", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert done.returncode != 0 and "{" not in done.stdout
