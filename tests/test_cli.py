"""Command-line surface: happy paths and the exit-code contract."""
from __future__ import annotations

import contextlib
import copy
import csv
import errno
import functools
import io
import json
import operator
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import strisk
from conftest import make_dataset
from strisk.cli import main
from strisk.features import FEATURES, read_features_csv, write_features_csv
from strisk.models import FeatureSchema
from strisk.pipeline import PipelineConfig
from strisk.records import SECTORS, IncidentRecord, ObservationRecord, OrganizationRecord, TweetRecord


def write_json(path: Path, payload) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def read_rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def featurize(paths: dict[str, Path], out: Path) -> int:
    """``strisk featurize`` on the four record files named by role."""
    return main(
        [
            "featurize",
            "--orgs", str(paths["organizations"]),
            "--observations", str(paths["observations"]),
            "--tweets", str(paths["tweets"]),
            "--incidents", str(paths["incidents"]),
            "--out", str(out),
        ]
    )


def write_rows(path: Path, rows: list[list[str]]) -> Path:
    # \r\n line ends make the writer quote a cell holding either character,
    # so every row reads back whole.
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\r\n").writerows(rows)
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


# Small tree ensembles keep the saved files, and the leaves a mutation can hit, few.
SMALL_TREES = {"n_estimators": 2, "max_depth": 2}
FAMILY_SPECS = {
    "logistic_regression": {"family": "logistic_regression"},
    "naive_bayes": {"family": "naive_bayes"},
    "linear_svm_platt": {"family": "linear_svm_platt"},
    "random_forest": {"family": "random_forest", "hyperparameters": SMALL_TREES},
    "bagged_trees": {"family": "bagged_trees", "hyperparameters": SMALL_TREES},
    "gradient_boosted_trees": {"family": "gradient_boosted_trees", "hyperparameters": SMALL_TREES},
    "stacked": {"bases": [{"family": "naive_bayes"}, {"family": "random_forest", "hyperparameters": SMALL_TREES}], "folds": 3},
}


@pytest.fixture(scope="module")
def family_models(workspace, tmp_path_factory):
    """A model file written by ``train`` for every family and for a stacked spec."""
    _, _, features, _ = workspace
    root = tmp_path_factory.mktemp("families")
    paths = {}
    for name, spec in FAMILY_SPECS.items():
        paths[name] = root / f"{name}.json"
        spec_path = write_json(root / f"{name}-spec.json", spec)
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec_path), "--out", str(paths[name])]) == 0
    return paths


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

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_stage_failure(self, workspace, model_path, tmp_path, capsys, threshold):
        _, _, features, _ = workspace
        out = tmp_path / "eval.json"
        args = ["--model", str(model_path), "--features", str(features), "--threshold", threshold, "--out", str(out)]
        code = main(["evaluate", *args])
        _assert_exit(code, 3, capsys, f"error: stage evaluate: threshold must be a finite number, got {threshold}")
        assert not out.exists()

    def test_overflowing_variance_floor_is_stage_failure(self, tmp_path, capsys):
        gen = write_json(tmp_path / "gen.json", {"n_orgs": 60, "seed": 5})
        assert main(["--quiet", "simulate", "--config", str(gen), "--out-dir", str(tmp_path / "corpus")]) == 0
        paths = {role: tmp_path / "corpus" / f"{role}.jsonl" for role in ("organizations", "observations", "tweets", "incidents")}
        assert featurize(paths, tmp_path / "features.csv") == 0
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes", "hyperparameters": {"var_smoothing": 1e308}})
        out = tmp_path / "model.json"
        capsys.readouterr()
        code = main(["train", "--features", str(tmp_path / "features.csv"), "--spec", str(spec), "--out", str(out)])
        _assert_exit(code, 3, capsys, "error: stage train: var_smoothing 1e+308 times variance")
        assert not out.exists()

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

    def test_zero_repeats_is_stage_failure(self, workspace, tmp_path, capsys):
        _, _, features, models = workspace
        out = tmp_path / "experiment.json"
        code = main(
            ["experiment", "--features", str(features), "--models", str(models), "--repeats", "0", "--out", str(out)]
        )
        _assert_exit(code, 3, capsys, "error: stage experiment: repeats must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("fraction", ["inf", "nan"])
    def test_non_finite_fraction_is_stage_failure(self, workspace, tmp_path, capsys, fraction):
        _, _, features, models = workspace
        out = tmp_path / "experiment.json"
        code = main(
            ["experiment", "--features", str(features), "--models", str(models), "--fraction", fraction, "--out", str(out)]
        )
        _assert_exit(code, 3, capsys, f"error: stage experiment: fraction must be in (0, 1], got {fraction}")
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "path, value",
        [
            pytest.param(("logistic_regression", "spec", "hyperparameters", "l2"), int("9" * 401), id="l2-401-digits"),
            (("logistic_regression", "spec", "seed"), 2.9),
            (("logistic_regression", "spec", "hyperparameters", "max_iter"), "7"),
            pytest.param(("logistic_regression", "params", "bias"), "1.5", id="bias-text"),
            pytest.param(("logistic_regression", "params", "l2"), "x", id="l2-text"),
            pytest.param(("logistic_regression", "params", "max_iter"), 2.5, id="max_iter-2.5"),
            pytest.param(("logistic_regression", "params", "weights"), ["0.1"] * 37, id="weights-text"),
            pytest.param(("naive_bayes", "params", "var_smoothing"), "abc", id="var_smoothing-text"),
            pytest.param(("linear_svm_platt", "params", "platt_a"), True, id="platt_a-true"),
            pytest.param(("gradient_boosted_trees", "params", "learning_rate"), True, id="learning_rate-true"),
            pytest.param(("gradient_boosted_trees", "params", "n_estimators"), "50", id="n_estimators-text"),
            pytest.param(("bagged_trees", "params", "seed"), "x", id="seed-text"),
            pytest.param(("random_forest", "params", "max_features"), [1], id="max_features-list"),
            pytest.param(("naive_bayes", "params", "junk"), 1, id="unknown-params-key"),
            pytest.param(("naive_bayes", "junk"), 1, id="unknown-top-level-key"),
            pytest.param(("logistic_regression", "schema", "version"), ..., id="schema-without-version"),
            pytest.param(("logistic_regression", "schema", "columns"), 5, id="schema-columns-5"),
        ],
    )
    def test_mistyped_model_spec_exit_data_error(self, family_models, workspace, tmp_path, capsys, path, value):
        """A saved model of family path[0] with the value at path[1:] replaced, or removed for ``...``."""
        _, _, features, _ = workspace
        family, *keys = path
        data = json.loads(family_models[family].read_text())
        node = functools.reduce(operator.getitem, keys[:-1], data)
        if value is ...:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        model = write_json(tmp_path / "model.json", data)
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, "data error: model file", repr(keys[-1]))

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    @pytest.mark.parametrize("bias", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_bias_exit_data_error(self, model_path, workspace, tmp_path, capsys, command, bias):
        _, _, features, _ = workspace
        data = json.loads(model_path.read_text())
        data["params"]["bias"] = bias
        model = write_json(tmp_path / "model.json", data)
        out = tmp_path / "out"
        code = main([command, "--model", str(model), "--features", str(features), "--out", str(out)])
        _assert_exit(code, 2, capsys, "data error: model file", "field 'bias' must be a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("seed", 2.9), ("folds", "7")])
    def test_mistyped_stacked_model_exit_data_error(self, workspace, tmp_path, capsys, key, value):
        _, _, features, _ = workspace
        spec = write_json(tmp_path / "spec.json", {"bases": [{"family": "naive_bayes"}, {"family": "logistic_regression"}]})
        model = tmp_path / "model.json"
        assert main(["--quiet", "train", "--features", str(features), "--spec", str(spec), "--out", str(model)]) == 0
        data = json.loads(model.read_text())
        data[key] = value
        write_json(model, data)
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, "data error: model file", repr(key))

    def test_model_file_not_an_object_exit_data_error(self, model_path, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        model = write_json(tmp_path / "model.json", [json.loads(model_path.read_text())])
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, "must hold a JSON object, not a list")

    @pytest.mark.parametrize("kept", [0, 1])
    def test_stacked_model_with_too_few_bases_exit_data_error(self, family_models, workspace, tmp_path, capsys, kept):
        _, _, features, _ = workspace
        data = json.loads(family_models["stacked"].read_text())
        data["bases"] = data["bases"][:kept]
        for key in ("weights", "mean", "scale"):
            data["meta"][key] = data["meta"][key][:kept]
        model = write_json(tmp_path / "model.json", data)
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, f"at least 2 bases, got {kept}")

    def test_saved_setting_out_of_range_exit_data_error(self, family_models, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        data = json.loads(family_models["random_forest"].read_text())
        data["params"]["n_estimators"] = 0
        model = write_json(tmp_path / "model.json", data)
        out = tmp_path / "s.csv"
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(out)])
        _assert_exit(code, 2, capsys, "data error: model file", "field 'n_estimators' must be >= 1, got 0")
        assert not out.exists()

    def test_stacked_bases_of_different_layouts_exit_data_error(self, family_models, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        data = json.loads(family_models["stacked"].read_text())
        schema = data["bases"][1]["schema"]
        schema["version"] = 2
        schema["fingerprint"] = FeatureSchema(tuple(schema["columns"]), 2).fingerprint
        model = write_json(tmp_path / "model.json", data)
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, "data error: model file", "stacked bases use different feature layouts")

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
        rows = read_rows(features)
        rows[3][rows[0].index(column)] = value
        bad = write_rows(tmp_path / "features.csv", rows)
        code = main(["predict", "--model", str(model_path), "--features", str(bad), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{bad}:4" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["evaluate", "predict", "denoise", "train"])
    def test_unknown_sector_in_features_exit_data_error(self, model_path, workspace, tmp_path, capsys, command):
        _, _, features, models = workspace
        rows = read_rows(features)
        rows[3][rows[0].index("sector")] = "spaceships"
        bad = write_rows(tmp_path / "features.csv", rows)
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes"})
        out = tmp_path / "out"
        options = {
            "evaluate": ["--model", str(model_path), "--out", str(out)],
            "predict": ["--model", str(model_path), "--out", str(out)],
            "train": ["--spec", str(spec), "--out", str(out)],
            "denoise": ["--models", str(models), "--out", str(out), "--report", str(tmp_path / "r.json")],
        }[command]
        code = main([command, "--features", str(bad), *options])
        _assert_exit(code, 2, capsys, f"data error: {bad}:4: unknown sector 'spaceships'")
        assert not out.exists()

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
            # Every field of the four record types, each required one removed
            # and each one given a value of the wrong JSON type.
            ("organizations", "org_id", None),
            ("organizations", "name", None),
            ("organizations", "org_size", None),
            ("organizations", "org_id", 7),
            ("organizations", "name", 7),
            ("organizations", "sector", 3),
            pytest.param("organizations", "ip_ranges", "10.0.0.0/8", id="organizations-ip_ranges-string"),
            pytest.param("organizations", "ip_ranges", [7], id="organizations-ip_ranges-list-of-int"),
            ("observations", "org_id", None),
            ("observations", "kind", None),
            ("observations", "subject", None),
            ("observations", "org_id", 7),
            ("observations", "kind", True),
            ("observations", "timestamp", 1546300800),
            pytest.param("observations", "detail", {}, id="observations-detail-object"),
            ("tweets", "org_id", None),
            ("tweets", "text", None),
            ("tweets", "likes", None),
            ("tweets", "retweets", None),
            ("tweets", "replies", None),
            ("tweets", "account", None),
            ("tweets", "is_reply_to", None),
            ("tweets", "is_replied_to", None),
            ("tweets", "timestamp", None),
            ("tweets", "org_id", 7),
            pytest.param("tweets", "text", ["hi"], id="tweets-text-list"),
            ("tweets", "retweets", 1.5),
            ("tweets", "replies", False),
            ("tweets", "account", 7),
            ("tweets", "is_replied_to", 1),
            ("tweets", "timestamp", 1546300800),
            ("incidents", "org_id", None),
            ("incidents", "name", None),
            ("incidents", "date", None),
            ("incidents", "org_id", 7),
            ("incidents", "name", 7),
            ("incidents", "date", 20190201),
            ("incidents", "source", 1),
            ("incidents", "breach_type", 0),
            ("incidents", "date", "2019-02-30"),
            ("incidents", "date", "yesterday"),
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

    def test_record_file_not_utf8_exit_data_error(self, workspace, tmp_path, capsys):
        _, corpus, _, _ = workspace
        paths = {role: corpus / f"{role}.jsonl" for role in RECORD_TYPES}
        paths["tweets"] = tmp_path / "tweets.jsonl"
        paths["tweets"].write_bytes((corpus / "tweets.jsonl").read_bytes() + b"\xff\n")
        code = featurize(paths, tmp_path / "f.csv")
        _assert_exit(code, 2, capsys, f"data error: {paths['tweets']}: not UTF-8 text")
        assert not (tmp_path / "f.csv").exists()

    def test_features_csv_not_utf8_exit_data_error(self, model_path, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        bad = tmp_path / "features.csv"
        bad.write_bytes(features.read_bytes() + b"\xff\n")
        code = main(["predict", "--model", str(model_path), "--features", str(bad), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, f"data error: {bad}: not UTF-8 text")
        assert not (tmp_path / "s.csv").exists()

    def test_carriage_return_in_org_id_stops_featurize(self, workspace, tmp_path, capsys):
        # Written unquoted, the id would split its features.csv row in two.
        _, corpus, _, _ = workspace
        org_id = json.loads((corpus / "organizations.jsonl").read_text().splitlines()[0])["org_id"]
        paths = {role: tmp_path / f"{role}.jsonl" for role in RECORD_TYPES}
        for role, path in paths.items():
            text = (corpus / f"{role}.jsonl").read_text()
            path.write_text(text.replace(json.dumps(org_id), json.dumps(org_id + "\rx")))
        code = featurize(paths, tmp_path / "f.csv")
        _assert_exit(code, 2, capsys, f"data error: {paths['organizations']}:1: org_id must not hold a carriage return")
        assert not (tmp_path / "f.csv").exists()

    def test_carriage_return_in_features_org_id_stops_predict(self, model_path, workspace, tmp_path, capsys):
        _, _, features, _ = workspace
        rows = read_rows(features)
        rows[3][0] += "\rx"
        bad = write_rows(tmp_path / "features.csv", rows)
        code = main(["predict", "--model", str(model_path), "--features", str(bad), "--out", str(tmp_path / "s.csv")])
        _assert_exit(code, 2, capsys, f"data error: {bad}:4: org_id must not hold a carriage return")
        assert not (tmp_path / "s.csv").exists()

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

    @pytest.mark.parametrize(
        "reader, expected",
        [("predict --model", 2), ("simulate --config", 1), ("featurize --orgs", 2), ("report --report", 2)],
    )
    def test_deeply_nested_json_exits_cleanly(self, workspace, tmp_path, capsys, reader, expected):
        _, corpus, features, _ = workspace
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        out = str(tmp_path / "out")
        args = {
            "predict --model": ["predict", "--model", str(nested), "--features", str(features), "--out", out],
            "simulate --config": ["simulate", "--config", str(nested), "--out-dir", out],
            "featurize --orgs": [
                "featurize",
                "--orgs", str(nested),
                "--observations", str(corpus / "observations.jsonl"),
                "--tweets", str(corpus / "tweets.jsonl"),
                "--incidents", str(corpus / "incidents.jsonl"),
                "--out", out,
            ],
            "report --report": ["report", "--report", str(nested)],
        }[reader]
        _assert_exit(main(args), expected, capsys, str(nested))

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

    def test_missing_workdir_is_named_usage_error(self, tmp_path, capsys):
        config = _run_config(tmp_path)
        del config["workdir"]
        code = main(["run", "--config", str(write_json(tmp_path / "nowork.json", config))])
        _assert_exit(code, 1, capsys, "usage error: bad pipeline config", "missing field 'workdir'")

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": -1},
            {"simulate": {"n_orgs": 60, "seed": -1}},
            {"models": [{"family": "naive_bayes", "seed": -1}]},
        ],
        ids=["top-level", "simulate", "model-spec"],
    )
    def test_negative_seed_is_named_usage_error_before_any_stage(self, tmp_path, capsys, changes):
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, **changes))
        code = main(["run", "--config", str(config)])
        _assert_exit(code, 1, capsys, "usage error: bad pipeline config", "field 'seed' must be >= 0, got -1")
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
        "changes", [{"simulate": None}, {"skip": ["simulate"]}], ids=["no-simulate", "simulate-skipped"]
    )
    def test_partial_inputs_read_stop_before_any_stage(self, tmp_path, capsys, changes):
        inputs = {role: str(tmp_path / f"{role}.jsonl") for role in ("organizations", "tweets")}
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, inputs=inputs, **changes))
        code = main(["run", "--config", str(config)])
        _assert_exit(
            code, 1, capsys, "usage error: bad pipeline config", "inputs lacks 'observations', 'incidents'"
        )
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize(
        "command, payload, key",
        [
            ("run", {"seed": 13.9}, "seed"),
            ("run", {"simulate": {"n_orgs": 200.5}}, "n_orgs"),
            ("run", {"simulate": {"n_orgs": 60, "seed": "7"}}, "seed"),
            ("run", {"denoise": {"folds": True}}, "folds"),
            ("run", {"match": {"max_prefix": 2.5}}, "max_prefix"),
            ("run", {"models": [{"family": "naive_bayes", "hyperparmeters": {}}]}, "hyperparmeters"),
            (
                "run",
                {"models": [{"family": "naive_bayes", "hyperparameters": {"var_smoothing": "x"}}]},
                "var_smoothing",
            ),
            ("train", {"family": "naive_bayes", "seed": 2.9}, "seed"),
            ("train", {"family": "naive_bayes", "hyperparameters": {"var_smoothing": "x"}}, "var_smoothing"),
            (
                "train",
                {"bases": [{"family": "naive_bayes"}, {"family": "logistic_regression"}], "fold": 3},
                "fold",
            ),
            ("simulate", {"n_orgs": "200"}, "n_orgs"),
            pytest.param("run", {"evaluate": {"threshold": int("9" * 401)}}, "threshold", id="threshold-401-digits"),
            pytest.param(
                "train",
                {"family": "logistic_regression", "hyperparameters": {"l2": int("9" * 401)}},
                "l2",
                id="l2-401-digits",
            ),
            pytest.param("run", {"evaluate": {"threshold": float("nan")}}, "threshold", id="threshold-NaN"),
            pytest.param(
                "train",
                {"family": "logistic_regression", "hyperparameters": {"l2": float("nan")}},
                "l2",
                id="l2-NaN",
            ),
            pytest.param(
                "train",
                {"family": "naive_bayes", "hyperparameters": {"var_smoothing": float("inf")}},
                "var_smoothing",
                id="var_smoothing-Infinity",
            ),
            pytest.param("simulate", {"n_orgs": 60, "signal": {"technical": float("nan")}}, "technical", id="signal-NaN"),
            pytest.param("simulate", {"n_orgs": 60, "negative_ratio": float("inf")}, "negative_ratio", id="ratio-Infinity"),
            # Values out of a field's declared range; a run-config section's field is named as PipelineConfig's.
            ("run", {"models": [{"family": "random_forest", "hyperparameters": {"n_estimators": 0}}]}, "n_estimators"),
            ("run", {"denoise": {"folds": 1}}, "denoise_folds"),
            ("run", {"split": {"train_fraction": 1.0}}, "split_fraction"),
            ("run", {"models": [{"family": "naive_bayes"}, {"family": "logistic_regression"}], "stack": {"folds": 1}}, "stack_folds"),
            ("run", {"importance": {"repeats": 0}}, "importance_repeats"),
            # Stacking needs two models; _run_config lists one.
            ("run", {"stack": {"folds": 5}}, "stack"),
            ("run", {"models": [{"family": "gradient_boosted_trees", "hyperparameters": {"learning_rate": 2.0}}]}, "learning_rate"),
            ("run", {"models": [{"family": "random_forest", "hyperparameters": {"max_features": "log2"}}]}, "max_features"),
            ("train", {"family": "naive_bayes", "hyperparameters": {"var_smoothing": 0}}, "var_smoothing"),
            ("train", {"family": "linear_svm_platt", "hyperparameters": {"c": -1}}, "c"),
            ("train", {"family": "logistic_regression", "hyperparameters": {"max_iter": 0}}, "max_iter"),
            ("train", {"bases": [{"family": "naive_bayes"}, {"family": "logistic_regression"}], "seed": -1}, "seed"),
            ("train", {"bases": [{"family": "naive_bayes"}, {"family": "logistic_regression"}], "folds": 1}, "folds"),
            ("train", {"bases": [{"family": "naive_bayes"}]}, "bases"),
        ],
        ids=lambda value: json.dumps(value) if isinstance(value, dict) else str(value),
    )
    def test_mistyped_config_is_named_usage_error(self, workspace, tmp_path, capsys, command, payload, key):
        _, _, features, _ = workspace
        if command == "run":
            payload = _run_config(tmp_path, **payload)
        config = write_json(tmp_path / "config.json", payload)
        out = tmp_path / "work"
        args = {
            "run": ["--config", str(config)],
            "train": ["--features", str(features), "--spec", str(config), "--out", str(out / "model.json")],
            "simulate": ["--config", str(config), "--out-dir", str(out)],
        }[command]
        _assert_exit(main([command, *args]), 1, capsys, "usage error: bad", repr(key))
        assert not out.exists()

    def test_config_not_utf8_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xff\xfe{")
        code = main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "work")])
        _assert_exit(code, 1, capsys, "usage error: bad generator config", "can't decode byte 0xff")

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


# The README quick-start run config, and for each of its leaves the
# values of MISTYPED_CANDIDATES that the leaf's field admits.
QUICK_START_CONFIG = {
    "workdir": "out",
    "seed": 13,
    "simulate": {
        "n_orgs": 200,
        "negative_ratio": 4.0,
        "signal": {"technical": 2.0, "social": 1.5},
        "noise_fraction": 0.2,
    },
    "denoise": {"method": "confusion_matrix", "folds": 5},
    "split": {"train_fraction": 0.7},
    "models": [{"family": "logistic_regression"}, {"family": "naive_bayes"}, {"family": "random_forest"}],
    "stack": {"folds": 5},
    "evaluate": {"threshold": 0.5},
    "importance": {"repeats": 5},
}
MISTYPED_CANDIDATES = (None, True, 1, 1.5, "x", [], {})
_TEXT, _INT, _NUMBER, _OPTIONAL_INT = ("x",), (1,), (1, 1.5), (None, 1)
QUICK_START_LEAVES = {
    ("workdir",): _TEXT,
    ("seed",): _INT,
    ("simulate", "n_orgs"): _INT,
    ("simulate", "negative_ratio"): _NUMBER,
    ("simulate", "signal", "technical"): _NUMBER,
    ("simulate", "signal", "social"): _NUMBER,
    ("simulate", "noise_fraction"): _NUMBER,
    ("denoise", "method"): _TEXT,
    ("denoise", "folds"): _INT,
    ("split", "train_fraction"): _NUMBER,
    ("models", 0, "family"): _TEXT,
    ("models", 2, "family"): _TEXT,
    ("stack", "folds"): _OPTIONAL_INT,
    ("evaluate", "threshold"): _NUMBER,
    ("importance", "repeats"): _OPTIONAL_INT,
}


@settings(max_examples=60, deadline=None)
@given(leaf=st.sampled_from(sorted(QUICK_START_LEAVES, key=str)), value=st.sampled_from(MISTYPED_CANDIDATES))
def test_mistyped_run_config_leaf_is_named(leaf, value):
    assume(not any(type(value) is type(ok) and value == ok for ok in QUICK_START_LEAVES[leaf]))
    config = copy.deepcopy(QUICK_START_CONFIG)
    functools.reduce(operator.getitem, leaf[:-1], config)[leaf[-1]] = value
    with pytest.raises(ValueError, match=re.escape(repr(leaf[-1]))):
        PipelineConfig.from_dict(config)


def _json_leaves(node, path=()):
    """(path, value) of every value below ``node``, a JSON document such as a saved model
    or a record: each object and list, and each scalar, except that only the first item
    of a list of scalars is taken, as the others are read the same way."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        if key == 0 or not isinstance(key, int) or isinstance(value, (dict, list)):
            yield path + (key,), value
            yield from _json_leaves(value, path + (key,))


def _admits(key: str, saved: object, value: object) -> bool:
    """Whether field ``key``, saved as ``saved``, admits a value of ``value``'s JSON type."""
    if key == "max_features":  # an integer, a string or null
        return value is None or type(value) in (int, str)
    if type(saved) is float:  # an integer is accepted for a number
        return type(value) in (int, float)
    return type(value) is type(saved)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_model_file_is_named_data_error(family_models, workspace, fuzz_dir, data):
    _, _, features, _ = workspace
    document = json.loads(family_models[data.draw(st.sampled_from(sorted(family_models)))].read_text())
    leaves = list(_json_leaves(document))
    if data.draw(st.booleans(), label="unknown key"):
        path = data.draw(st.sampled_from([()] + [path for path, value in leaves if isinstance(value, dict)]))
        node = functools.reduce(operator.getitem, path, document)
        key = data.draw(st.text(min_size=1, max_size=12), label="key")
        assume(key not in node)
        node[key] = 1
    else:
        path, saved = data.draw(st.sampled_from(leaves))
        key = next(part for part in reversed(path) if isinstance(part, str))
        wrong = [value for value in MISTYPED_CANDIDATES if not _admits(key, saved, value)]
        functools.reduce(operator.getitem, path[:-1], document)[path[-1]] = data.draw(st.sampled_from(wrong))
    model = write_json(fuzz_dir / "model.json", document)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["predict", "--model", str(model), "--features", str(features), "--out", str(fuzz_dir / "s.csv")])
    assert code == 2, err.getvalue()
    assert repr(key) in err.getvalue()
    assert "Traceback" not in err.getvalue()


RECORD_TYPES = {
    "organizations": OrganizationRecord,
    "observations": ObservationRecord,
    "tweets": TweetRecord,
    "incidents": IncidentRecord,
}
RECORD_DAMAGE = (
    "delete a required key",
    "mistype a leaf",
    "carriage return in org_id",
    "trailing byte that is not UTF-8",
)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mutated_record_is_named_data_error(workspace, fuzz_dir, data):
    _, corpus, _, _ = workspace
    paths = {role: corpus / f"{role}.jsonl" for role in RECORD_TYPES}
    role = data.draw(st.sampled_from(sorted(RECORD_TYPES)), label="file")
    lines = paths[role].read_text().splitlines()
    index = data.draw(st.integers(0, len(lines) - 1), label="record")
    record = json.loads(lines[index])
    paths[role] = fuzz_dir / f"{role}.jsonl"
    expected = f"{paths[role]}:{index + 1}: "
    damage = data.draw(st.sampled_from(RECORD_DAMAGE), label="damage")
    if damage == "delete a required key":
        required = [
            f.name
            for f in fields(RECORD_TYPES[role])
            if f.init and f.default is MISSING and f.default_factory is MISSING
        ]
        del record[data.draw(st.sampled_from(required), label="key")]
    elif damage == "mistype a leaf":
        path, saved = data.draw(st.sampled_from(list(_json_leaves(record))), label="leaf")
        wrong = [value for value in MISTYPED_CANDIDATES if type(value) is not type(saved)]
        functools.reduce(operator.getitem, path[:-1], record)[path[-1]] = data.draw(st.sampled_from(wrong))
    elif damage == "carriage return in org_id":
        at = data.draw(st.integers(0, len(record["org_id"])), label="at")
        record["org_id"] = record["org_id"][:at] + "\r" + record["org_id"][at:]
        if role != "organizations":  # the record then names an unknown org
            expected = repr(record["org_id"])
    lines[index] = json.dumps(record)
    text = ("\n".join(lines) + "\n").encode("utf-8")
    if damage == "trailing byte that is not UTF-8":
        text += bytes([data.draw(st.integers(0x80, 0xFF), label="byte")]) + b"\n"
        expected = f"{paths[role]}: not UTF-8 text"
    paths[role].write_bytes(text)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = featurize(paths, fuzz_dir / "f.csv")
    assert code == 2, err.getvalue()
    assert expected in err.getvalue()
    assert "Traceback" not in err.getvalue()


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


NUMBER_COLUMNS = (*FEATURES, "org_size", "label", "latent_label")
# Kind of damage -> (the columns it may hit, the values it writes there).
BAD_FEATURE_CELLS = {
    "non-numeral": (NUMBER_COLUMNS, st.text(min_size=1).filter(_not_a_number)),
    "non-finite": (NUMBER_COLUMNS, st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"])),
    "unknown sector": (("sector",), st.text().filter(lambda text: text not in SECTORS)),
    "label outside {0, 1}": (("label", "latent_label"), st.integers().filter(lambda n: n not in (0, 1)).map(str)),
    "carriage return in org_id": (("org_id",), st.tuples(st.text(), st.text()).map("\r".join)),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_features_csv_is_named_data_error(model_path, workspace, fuzz_dir, data):
    _, _, features, _ = workspace
    rows = read_rows(features)
    line = data.draw(st.integers(2, len(rows)), label="line")
    row = rows[line - 1]
    bad = fuzz_dir / "features.csv"
    expected = f"{bad}:{line}: "
    kind = data.draw(
        st.sampled_from(sorted(BAD_FEATURE_CELLS) + ["field count", "trailing byte that is not UTF-8"]), label="damage"
    )
    if kind in BAD_FEATURE_CELLS:
        columns, values = BAD_FEATURE_CELLS[kind]
        row[rows[0].index(data.draw(st.sampled_from(columns), label="column"))] = data.draw(values, label="value")
    elif kind == "field count":
        if data.draw(st.booleans(), label="extra field"):
            row.append("0")
        else:
            row.pop()
    write_rows(bad, rows)
    if kind == "trailing byte that is not UTF-8":
        with bad.open("ab") as handle:
            handle.write(bytes([data.draw(st.integers(0x80, 0xFF), label="byte")]) + b"\n")
        expected = f"{bad}: not UTF-8 text"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["evaluate", "--model", str(model_path), "--features", str(bad), "--out", str(fuzz_dir / "e.json")])
    assert code == 2, err.getvalue()
    assert expected in err.getvalue()
    assert "Traceback" not in err.getvalue()


class TestMissingInputFile:
    @pytest.mark.parametrize(
        "command", ["featurize", "match", "predict", "evaluate", "train", "denoise", "experiment", "run"]
    )
    def test_missing_input_file_is_usage_error(self, workspace, model_path, tmp_path, capsys, command):
        _, corpus, _, models = workspace
        records = {role: str(corpus / f"{role}.jsonl") for role in ("organizations", "observations", "tweets", "incidents")}
        missing = str(tmp_path / "missing.file")
        out = tmp_path / "out"
        scoring = ["--model", str(model_path), "--features", missing, "--out", str(out)]
        noisy = ["--features", missing, "--models", str(models), "--out", str(out)]
        args = {
            "featurize": [
                "--orgs", missing,
                "--observations", records["observations"],
                "--tweets", records["tweets"],
                "--incidents", records["incidents"],
                "--out", str(out),
            ],
            "match": ["--incidents", missing, "--registry", records["organizations"], "--out", str(out)],
            "predict": scoring,
            "evaluate": scoring,
            "train": [
                "--features", missing,
                "--spec", str(write_json(tmp_path / "spec.json", {"family": "naive_bayes"})),
                "--out", str(out),
            ],
            "denoise": [*noisy, "--report", str(tmp_path / "report.json")],
            "experiment": noisy,
            "run": [
                "--config",
                str(
                    write_json(
                        tmp_path / "pipeline.json",
                        _run_config(tmp_path, simulate=None, inputs={**records, "incidents": missing}),
                    )
                ),
            ],
        }[command]
        _assert_exit(main([command, *args]), 1, capsys, "usage error:", missing)
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--model", "--spec"])
    def test_missing_model_or_spec_file_is_usage_error(self, workspace, tmp_path, capsys, option):
        _, _, features, _ = workspace
        missing = str(tmp_path / "missing.json")
        out = str(tmp_path / "out")
        command = "predict" if option == "--model" else "train"
        code = main([command, option, missing, "--features", str(features), "--out", out])
        _assert_exit(code, 1, capsys, f"usage error: No such file or directory: {missing}")

    def test_failed_write_is_error_not_usage_error(self, workspace, tmp_path, capsys, monkeypatch):
        _, _, features, _ = workspace
        spec = write_json(tmp_path / "spec.json", {"family": "naive_bayes"})

        def full_disk(model, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr("strisk.cli.save_model", full_disk)
        code = main(["train", "--features", str(features), "--spec", str(spec), "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: [Errno 28]")


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


    def test_run_denoise_on_one_class_corpus_is_named(self, workspace, tmp_path, capsys):
        _, corpus, _, _ = workspace
        inputs = {role: str(corpus / f"{role}.jsonl") for role in ("organizations", "observations", "tweets")}
        inputs["incidents"] = str(tmp_path / "incidents.jsonl")
        (tmp_path / "incidents.jsonl").write_text("")
        config = write_json(tmp_path / "pipeline.json", _run_config(tmp_path, simulate=None, inputs=inputs))
        features = tmp_path / "work" / "features.csv"
        _assert_exit(
            main(["run", "--config", str(config)]),
            3,
            capsys,
            f"error: stage denoise: {features} holds one class (60 rows: 0 positive, 60 negative)",
        )


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
