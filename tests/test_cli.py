"""Command-line surface: happy paths and the exit-code contract."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strisk
from conftest import make_dataset
from strisk.cli import main
from strisk.features import read_features_csv, write_features_csv


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulated corpus plus features, built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    gen = write_json(
        root / "gen.json",
        {
            "n_orgs": 60,
            "negative_ratio": 4.0,
            "signal": {"technical": 2.0, "social": 1.5},
            "noise_fraction": 0.2,
            "seed": 21,
        },
    )
    corpus = root / "corpus"
    assert main(["--quiet", "simulate", "--config", str(gen), "--out-dir", str(corpus)]) == 0
    features = root / "features.csv"
    code = main(
        [
            "--quiet",
            "featurize",
            "--orgs", str(corpus / "organizations.jsonl"),
            "--observations", str(corpus / "observations.jsonl"),
            "--tweets", str(corpus / "tweets.jsonl"),
            "--incidents", str(corpus / "incidents.jsonl"),
            "--ground-truth", str(corpus / "ground_truth.jsonl"),
            "--out", str(features),
        ]
    )
    assert code == 0
    models = write_json(
        root / "models.json",
        [{"family": "logistic_regression"}, {"family": "naive_bayes"}],
    )
    return root, corpus, features, models


class TestSimulateAndFeaturize:
    def test_corpus_files_written(self, workspace):
        _, corpus, _, _ = workspace
        for name in (
            "organizations.jsonl",
            "observations.jsonl",
            "tweets.jsonl",
            "incidents.jsonl",
            "ground_truth.jsonl",
        ):
            assert (corpus / name).exists()

    def test_features_parse_with_latent_labels(self, workspace):
        _, _, features, _ = workspace
        profiles = read_features_csv(features)
        assert len(profiles) == 60
        assert all(p.latent_label is not None for p in profiles)

    def test_bad_window_is_usage_error(self, workspace):
        _, corpus, _, _ = workspace
        code = main(
            [
                "featurize",
                "--orgs", str(corpus / "organizations.jsonl"),
                "--observations", str(corpus / "observations.jsonl"),
                "--tweets", str(corpus / "tweets.jsonl"),
                "--incidents", str(corpus / "incidents.jsonl"),
                "--window", "whenever",
                "--out", "/tmp/unused.csv",
            ]
        )
        assert code == 1


class TestMatch:
    def test_match_round_trip(self, tmp_path):
        incidents = tmp_path / "incidents.jsonl"
        incidents.write_text('{"name": "Acme, Inc."}\n{"name": "Zebra Holdings"}\n')
        registry = tmp_path / "registry.jsonl"
        registry.write_text('{"name": "Acme"}\n{"name": "Bolt Freight"}\n')
        out = tmp_path / "matches.jsonl"
        code = main(
            [
                "--quiet",
                "match",
                "--incidents", str(incidents),
                "--registry", str(registry),
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2
        by_name = {row["incident_name"]: row for row in rows}
        assert by_name["Acme, Inc."]["registry_name"] == "Acme"
        assert by_name["Acme, Inc."]["verdict"] == "accepted"
        assert by_name["Zebra Holdings"]["verdict"] == "rejected"

    @pytest.mark.parametrize("broken", ["incidents", "registry"])
    def test_record_without_name_exit_data_error(self, tmp_path, capsys, broken):
        paths = {}
        for role in ("incidents", "registry"):
            paths[role] = tmp_path / f"{role}.jsonl"
            body = '{"name": "Acme"}\n'
            if role == broken:
                body += '{"title": "Acme"}\n'
            paths[role].write_text(body)
        code = main(
            [
                "match",
                "--incidents", str(paths["incidents"]),
                "--registry", str(paths["registry"]),
                "--out", str(tmp_path / "matches.jsonl"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{paths[broken]}:2" in err
        assert "Traceback" not in err


class TestDenoise:
    def test_writes_corrected_features_and_report(self, workspace, tmp_path):
        root, _, features, models = workspace
        out = tmp_path / "denoised.csv"
        report = tmp_path / "noise.json"
        code = main(
            [
                "--quiet",
                "denoise",
                "--features", str(features),
                "--models", str(models),
                "--method", "cm",
                "--folds", "3",
                "--seed", "5",
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == 0
        data = json.loads(report.read_text())
        before = data["before_counts"]
        after = data["after_counts"]
        assert after[1] - before[1] == len(data["flipped_ids"])
        corrected = read_features_csv(out)
        assert sum(p.label for p in corrected) == after[1]

    def test_method_alias_matches_full_name(self, workspace, tmp_path):
        _, _, features, models = workspace
        reports = []
        for i, method in enumerate(("cm", "confusion_matrix")):
            report = tmp_path / f"noise{i}.json"
            code = main(
                [
                    "--quiet",
                    "denoise",
                    "--features", str(features),
                    "--models", str(models),
                    "--method", method,
                    "--folds", "3",
                    "--seed", "5",
                    "--out", str(tmp_path / f"out{i}.csv"),
                    "--report", str(report),
                ]
            )
            assert code == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]


@pytest.fixture(scope="module")
def model_path(workspace, tmp_path_factory):
    root, _, features, _ = workspace
    spec = write_json(
        tmp_path_factory.mktemp("train") / "spec.json",
        {"family": "logistic_regression"},
    )
    out = spec.parent / "model.json"
    assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(out)]) == 0
    return out


class TestTrainPredictEvaluate:
    def test_model_file_is_versioned_json(self, model_path):
        data = json.loads(model_path.read_text())
        assert data["format_version"] == 1
        assert data["spec"]["family"] == "logistic_regression"

    def test_predict_writes_scores(self, workspace, model_path, tmp_path):
        _, _, features, _ = workspace
        out = tmp_path / "scores.csv"
        assert main(["--quiet", "predict", "--model", str(model_path), "--features", str(features), "--out", str(out)]) == 0
        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 60
        assert set(rows[0]) == {"org_id", "probability", "class"}
        for row in rows:
            p = float(row["probability"])
            assert 0.0 <= p <= 1.0
            assert row["class"] == str(int(p >= 0.5))

    def test_evaluate_writes_metric_report(self, workspace, model_path, tmp_path):
        _, _, features, _ = workspace
        out = tmp_path / "eval.json"
        assert main(["--quiet", "evaluate", "--model", str(model_path), "--features", str(features), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["model"] == "logistic_regression"
        assert 0.0 <= report["auc"] <= 1.0
        assert report["n_positive"] + report["n_negative"] == 60

    def test_stacked_spec_trains_stacked_model(self, workspace, tmp_path):
        _, _, features, _ = workspace
        spec = write_json(
            tmp_path / "stack.json",
            {
                "bases": [{"family": "logistic_regression"}, {"family": "naive_bayes"}],
                "folds": 3,
            },
        )
        out = tmp_path / "stacked.json"
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "stacked"
        scores = tmp_path / "scores.csv"
        assert main(["--quiet", "predict", "--model", str(out), "--features", str(features), "--out", str(scores)]) == 0


class TestExperiment:
    def test_experiment_table_written(self, workspace, tmp_path):
        _, _, features, models = workspace
        out = tmp_path / "experiment.json"
        code = main(
            [
                "--quiet",
                "--seed", "3",
                "experiment",
                "--features", str(features),
                "--models", str(models),
                "--fraction", "0.25",
                "--repeats", "2",
                "--method", "cm",
                "--folds", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["repeats"] == 2
        combos = {tuple(row["models"]) for row in data["rows"]}
        assert ("logistic_regression", "naive_bayes") in combos


@pytest.fixture(scope="module")
def run_workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    config = write_json(
        root / "pipeline.json",
        {
            "workdir": str(root / "work"),
            "seed": 13,
            "simulate": {
                "n_orgs": 60,
                "negative_ratio": 4.0,
                "signal": {"technical": 2.0, "social": 1.5},
                "noise_fraction": 0.2,
            },
            "denoise": {"method": "confusion_matrix", "folds": 3},
            "models": [{"family": "logistic_regression"}, {"family": "naive_bayes"}],
            "stack": {"folds": 3},
            "importance": {"repeats": 2},
        },
    )
    assert main(["--quiet", "run", "--config", str(config)]) == 0
    return root / "work"


class TestRunAndReport:
    def test_run_writes_report(self, run_workdir):
        assert (run_workdir / "report.json").exists()
        assert (run_workdir / "report.txt").exists()

    def test_report_command_renders_to_stdout(self, run_workdir, capsys):
        assert main(["report", "--report", str(run_workdir / "report.json")]) == 0
        printed = capsys.readouterr().out
        assert printed == (run_workdir / "report.txt").read_text()

    def test_skip_flag_merges_into_config(self, tmp_path):
        config = write_json(
            tmp_path / "pipeline.json",
            {
                "workdir": str(tmp_path / "work"),
                "simulate": {"n_orgs": 60, "noise_fraction": 0.2},
                "models": [{"family": "naive_bayes"}],
            },
        )
        code = main(["--quiet", "run", "--config", str(config), "--skip", "denoise"])
        assert code == 0
        assert not (tmp_path / "work" / "features_denoised.csv").exists()

    def test_unknown_skip_stage_is_usage_error(self, tmp_path):
        config = write_json(
            tmp_path / "pipeline.json",
            {
                "workdir": str(tmp_path / "work"),
                "simulate": {"n_orgs": 60},
                "models": [{"family": "naive_bayes"}],
            },
        )
        assert main(["run", "--config", str(config), "--skip", "optimize"]) == 1


class TestExitCodes:
    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        assert "Usage: strisk" in capsys.readouterr().out

    def test_no_arguments_prints_help(self, capsys):
        assert main([]) == 0
        assert "Usage: strisk" in capsys.readouterr().out

    def test_unknown_command_is_usage_error(self):
        assert main(["optimize"]) == 1

    def test_missing_option_is_usage_error(self):
        assert main(["train"]) == 1

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 1

    def test_malformed_features_exit_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("org_id,nope\nx,1\n")
        model = tmp_path / "model.json"
        features = tmp_path / "features.csv"
        write_features_csv(features, make_dataset(8, 4, seed=0))
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes"})
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--features", str(bad), "--out", str(tmp_path / "s.csv")]) == 2

    def test_tree_child_out_of_range_exit_data_error(self, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        spec = write_json(
            tmp_path / "spec.json",
            {"family": "random_forest", "hyperparameters": {"n_estimators": 2, "max_depth": 3}},
        )
        model = tmp_path / "model.json"
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        data["params"]["trees"][0]["left"][0] = 10**6
        write_json(model, data)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "child index out of range" in err
        assert "Traceback" not in err

    def test_truncated_linear_weights_exit_data_error(self, model_path, workspace, tmp_path):
        _, _, features, _ = workspace
        data = json.loads(model_path.read_text())
        data["params"]["weights"] = data["params"]["weights"][:-1]
        model = write_json(tmp_path / "model.json", data)
        assert main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [("learning_rate", "fast"), ("learning_rate", float("nan")), ("base_score", None)],
    )
    def test_bad_boosting_params_exit_data_error(self, workspace, tmp_path, capsys, key, value):
        _, _, features, _ = workspace
        spec = write_json(
            tmp_path / "spec.json",
            {"family": "gradient_boosted_trees", "hyperparameters": {"n_estimators": 3}},
        )
        model = tmp_path / "model.json"
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        data["params"][key] = value
        write_json(model, data)
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_model_file_not_an_object_exit_data_error(self, model_path, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        model = write_json(tmp_path / "model.json", [json.loads(model_path.read_text())])
        assert main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "column, value",
        [
            ("blacklist_count", "abc"),
            ("org_size", "1.5"),
            pytest.param("org_size", "9" * 401, id="org_size-401-digits"),
            ("org_size", "-5"),
            ("org_size", "0"),
            ("label", "2"),
            ("blacklist_count", "nan"),
            ("mentions", "inf"),
            ("spreadability", "-inf"),
            ("org_size", "1_000"),
            pytest.param("label", " 1 ", id="label-spaced-1"),
            ("blacklist_count", "1_0.5"),
            pytest.param("org_size", "\u0663", id="org_size-arabic-indic-3"),
        ],
    )
    def test_bad_feature_cell_exit_data_error(self, model_path, workspace, tmp_path, capsys, column, value):
        _, _, features, _ = workspace
        with features.open(newline="") as handle:
            rows = list(csv.reader(handle))
        rows[3][rows[0].index(column)] = value
        bad = tmp_path / "features.csv"
        with bad.open("w", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
        code = main(["predict", "--model", str(model_path), "--features", str(bad), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "role, field, value",
        [
            ("organizations", "sector", None),
            ("organizations", "org_size", "12"),
            ("organizations", "domains", "example.com"),
            ("observations", "timestamp", None),
            ("observations", "subject", 7),
            ("tweets", "likes", "many"),
            ("tweets", "is_reply_to", "false"),
            ("incidents", "source", None),
            ("ground_truth", "latent_label", None),
            ("ground_truth", "latent_label", "yes"),
            ("ground_truth", "latent_label", "1"),
            ("ground_truth", "latent_label", True),
            ("ground_truth", "latent_label", 7),
            ("ground_truth", "org_id", 7),
            ("ground_truth", None, ["org-1", 1]),
            pytest.param("organizations", "org_size", int("9" * 401), id="organizations-org_size-401-digits"),
        ],
    )
    def test_incomplete_record_exit_data_error(self, workspace, tmp_path, capsys, role, field, value):
        # value None removes the field; field None makes value the whole record.
        _, corpus, _, _ = workspace
        roles = ("organizations", "observations", "tweets", "incidents", "ground_truth")
        paths = {name: corpus / f"{name}.jsonl" for name in roles}
        lines = paths[role].read_text().splitlines()
        record = json.loads(lines[1])
        if field is None:
            record = value
        elif value is None:
            del record[field]
        else:
            record[field] = value
        lines[1] = json.dumps(record)
        paths[role] = tmp_path / f"{role}.jsonl"
        paths[role].write_text("\n".join(lines) + "\n")
        code = main(
            [
                "featurize",
                "--orgs", str(paths["organizations"]),
                "--observations", str(paths["observations"]),
                "--tweets", str(paths["tweets"]),
                "--incidents", str(paths["incidents"]),
                "--ground-truth", str(paths["ground_truth"]),
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{paths[role]}:2" in err
        assert (field or "JSON object") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mismatch", ["missing", "unknown"])
    def test_ground_truth_org_mismatch_exit_data_error(self, workspace, tmp_path, capsys, mismatch):
        _, corpus, _, _ = workspace
        lines = (corpus / "ground_truth.jsonl").read_text().splitlines()
        if mismatch == "missing":
            org_id = json.loads(lines.pop(0))["org_id"]
        else:
            org_id = "ghost"
            lines.append(json.dumps({"org_id": org_id, "latent_label": 0}))
        truth = tmp_path / "ground_truth.jsonl"
        truth.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "featurize",
                "--orgs", str(corpus / "organizations.jsonl"),
                "--observations", str(corpus / "observations.jsonl"),
                "--tweets", str(corpus / "tweets.jsonl"),
                "--incidents", str(corpus / "incidents.jsonl"),
                "--ground-truth", str(truth),
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert repr(org_id) in err
        assert "Traceback" not in err
        assert not (tmp_path / "f.csv").exists()

    def test_org_size_past_float_range_stops_featurize_and_run(self, workspace, tmp_path, capsys):
        _, corpus, _, _ = workspace
        roles = ("organizations", "observations", "tweets", "incidents")
        paths = {role: corpus / f"{role}.jsonl" for role in roles}
        lines = paths["organizations"].read_text().splitlines()
        record = json.loads(lines[1])
        record["org_size"] = int("9" * 401)
        lines[1] = json.dumps(record)
        paths["organizations"] = tmp_path / "organizations.jsonl"
        paths["organizations"].write_text("\n".join(lines) + "\n")
        where = f"{paths['organizations']}:2"
        code = main(
            [
                "featurize",
                "--orgs", str(paths["organizations"]),
                "--observations", str(paths["observations"]),
                "--tweets", str(paths["tweets"]),
                "--incidents", str(paths["incidents"]),
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        _assert_exit(code, 2, capsys, where, "org_size")
        config = write_json(
            tmp_path / "pipeline.json",
            _run_config(
                tmp_path,
                simulate=None,
                inputs={role: str(path) for role, path in paths.items()},
            ),
        )
        _assert_exit(main(["--quiet", "run", "--config", str(config)]), 2, capsys, where, "org_size")

    def test_malformed_jsonl_exit_data_error(self, workspace, tmp_path):
        _, corpus, _, _ = workspace
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{not json}\n")
        code = main(
            [
                "featurize",
                "--orgs", str(broken),
                "--observations", str(corpus / "observations.jsonl"),
                "--tweets", str(corpus / "tweets.jsonl"),
                "--incidents", str(corpus / "incidents.jsonl"),
                "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 2

    def test_single_class_training_is_stage_failure(self, tmp_path):
        features = tmp_path / "all_negative.csv"
        write_features_csv(features, make_dataset(12, 0, seed=0))
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes"})
        code = main(["train", "--features", str(features), "--spec", str(spec), "--out", str(tmp_path / "m.json")])
        assert code == 3

    def test_quiet_flag_suppresses_progress(self, tmp_path, capsys):
        gen = write_json(tmp_path / "gen.json", {"n_orgs": 30, "seed": 1})
        assert main(["--quiet", "simulate", "--config", str(gen), "--out-dir", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().out == ""


def _run_config(tmp_path: Path, **changes) -> dict:
    config = {
        "workdir": str(tmp_path / "work"),
        "simulate": {"n_orgs": 60},
        "models": [{"family": "naive_bayes"}],
    }
    config.update(changes)
    return config


def _assert_exit(code: int, expected: int, capsys, *phrases: str) -> None:
    assert code == expected
    err = capsys.readouterr().err
    for phrase in phrases:
        assert phrase in err
    assert "Traceback" not in err


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("split", None),
            ("denoise", "cm"),
            ("evaluate", []),
            ("inputs", ["a"]),
            ("window", 5),
        ],
    )
    def test_bad_run_config_is_usage_error(self, tmp_path, capsys, key, value):
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, **{key: value}))
        code = main(["run", "--config", str(config)])
        _assert_exit(code, 1, capsys, "usage error: bad pipeline config")

    def test_skip_string_is_not_read_per_character(self, tmp_path, capsys):
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, skip="denoise"))
        code = main(["run", "--config", str(config), "--skip", "match"])
        _assert_exit(code, 1, capsys, "skip must be a list of stage names")
        assert not (tmp_path / "work").exists()

    def test_run_config_list_is_usage_error(self, tmp_path, capsys):
        config = write_json(tmp_path / "pipeline.json", [_run_config(tmp_path)])
        code = main(["run", "--config", str(config)])
        _assert_exit(code, 1, capsys, "usage error: bad pipeline config")

    @pytest.mark.parametrize(
        "payload",
        [{"threshold": 0.5}, [["jw_threshold", 0.9]], {"jw_threshold": "high"}],
    )
    def test_bad_match_config_is_usage_error(self, tmp_path, capsys, payload):
        names = tmp_path / "names.jsonl"
        names.write_text('{"name": "Acme"}\n')
        config = write_json(tmp_path / "match.json", payload)
        code = main(
            [
                "match",
                "--incidents", str(names),
                "--registry", str(names),
                "--config", str(config),
                "--out", str(tmp_path / "m.jsonl"),
            ]
        )
        _assert_exit(code, 1, capsys, "usage error: bad match config")
        assert not (tmp_path / "m.jsonl").exists()

    @pytest.mark.parametrize("payload", [{"n_orgs": 30, "signal": [1]}, [["n_orgs", 30]]])
    def test_bad_generator_config_is_usage_error(self, tmp_path, capsys, payload):
        config = write_json(tmp_path / "gen.json", payload)
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "c")])
        _assert_exit(code, 1, capsys, "usage error: bad generator config")

    def test_bad_stacked_folds_is_usage_error(self, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        spec = write_json(
            tmp_path / "spec.json",
            {"bases": [{"family": "naive_bayes"}, {"family": "logistic_regression"}], "folds": "x"},
        )
        code = main(["train", "--features", str(features), "--spec", str(spec), "--out", str(tmp_path / "m.json")])
        _assert_exit(code, 1, capsys, "usage error: bad model config")

    @pytest.mark.parametrize("damage", ["list", "no_corpus"])
    def test_file_that_is_not_a_report_exit_data_error(self, run_workdir, tmp_path, capsys, damage):
        data = json.loads((run_workdir / "report.json").read_text())
        if damage == "list":
            data = [data]
        else:
            del data["corpus"]
        report = write_json(tmp_path / "report.json", data)
        code = main(["report", "--report", str(report)])
        _assert_exit(code, 2, capsys, "data error:", "is not a report")

    @pytest.mark.parametrize("stage", ["featurize", "split", "train", "evaluate", "report"])
    def test_unskippable_stage_is_usage_error(self, tmp_path, capsys, stage):
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path))
        code = main(["run", "--config", str(config), "--skip", stage])
        _assert_exit(code, 1, capsys, f"cannot be skipped in skip list: {stage!r}", "simulate, match, denoise")
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"denoise": {"fold": 3}}, "'fold' in denoise"),
            ({"split": {"fraction": 0.5}}, "'fraction' in split"),
            ({"importnace": {"repeats": 2}}, "'importnace' in config"),
            ({"denoise": {"method": "median"}}, "denoise method 'median'"),
            ({"skip": ["simulate"]}, "skip lists simulate, so the config needs input paths"),
        ],
    )
    def test_config_mistake_stops_before_any_stage(self, tmp_path, capsys, changes, named):
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, **changes))
        code = main(["run", "--config", str(config)])
        _assert_exit(code, 1, capsys, "usage error: bad pipeline config", named)
        assert not (tmp_path / "work").exists()


# Every key a run config may hold, by section (None is the top level).
RUN_CONFIG_KEYS = {
    None: {
        "workdir", "seed", "simulate", "inputs", "ground_truth", "window", "match",
        "denoise", "split", "models", "stack", "evaluate", "importance", "skip",
    },
    "denoise": {"method", "folds", "models"},
    "split": {"train_fraction"},
    "stack": {"folds"},
    "evaluate": {"threshold"},
    "importance": {"repeats"},
    "inputs": {"organizations", "observations", "tweets", "incidents"},
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, deadline=None)
@given(section=st.sampled_from(sorted(RUN_CONFIG_KEYS, key=str)), key=st.text(min_size=1, max_size=12))
def test_unknown_run_config_key_is_named_usage_error(fuzz_dir, section, key):
    assume(key not in RUN_CONFIG_KEYS[section])
    config = _run_config(
        fuzz_dir,
        denoise={"method": "confident_joint"},
        split={"train_fraction": 0.7},
        stack={"folds": 3},
        evaluate={"threshold": 0.5},
        importance={"repeats": 2},
        inputs={"organizations": "organizations.jsonl"},
    )
    (config if section is None else config[section])[key] = 1
    path = write_json(fuzz_dir / "pipeline.json", config)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["run", "--config", str(path)]) == 1
    assert f"unknown key {key!r} in " in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert not (fuzz_dir / "work").exists()


class TestOneClassSplit:
    @pytest.mark.parametrize(
        "fraction, message",
        [
            (0.1, "the train half holds one class (2 rows: 2 positive, 0 negative)"),
            (0.9, "the test half holds one class (2 rows: 0 positive, 2 negative)"),
        ],
    )
    def test_one_class_half_is_named(self, tmp_path, capsys, fraction, message):
        config = _run_config(
            tmp_path,
            seed=2,
            simulate={"n_orgs": 20, "seed": 2},
            skip=["denoise"],
            split={"train_fraction": fraction},
        )
        code = main(["run", "--config", str(write_json(tmp_path / "pipeline.json", config))])
        _assert_exit(code, 3, capsys, f"error: stage split: {message}")
        assert not (tmp_path / "work" / "models").exists()


class TestOneClassFile:
    @pytest.mark.parametrize("command", ["evaluate", "train", "denoise"])
    def test_one_class_file_is_named(self, model_path, workspace, tmp_path, capsys, command):
        _, _, _, models = workspace
        features = tmp_path / "all_negative.csv"
        write_features_csv(features, make_dataset(12, 0, seed=0))
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes"})
        out = tmp_path / "out.json"
        options = {
            "evaluate": ["--model", str(model_path), "--out", str(out)],
            "train": ["--spec", str(spec), "--out", str(out)],
            "denoise": ["--models", str(models), "--out", str(out), "--report", str(tmp_path / "r.json")],
        }[command]
        code = main([command, "--features", str(features), *options])
        _assert_exit(
            code,
            3,
            capsys,
            f"error: stage {command}: {features} holds one class "
            "(12 rows: 0 positive, 12 negative); both are needed",
        )
        assert not out.exists()


def test_import_loads_no_scipy():
    # Every strisk process pays for what importing the CLI loads.
    src = Path(strisk.__file__).resolve().parent.parent
    probe = "import strisk.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
