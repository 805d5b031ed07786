"""End-to-end pipeline orchestration and the text report."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from strisk.models import ModelSpec
from strisk.pipeline import (
    NOISY_LABEL_POLICY,
    STAGES,
    PipelineConfig,
    StageFailure,
    render_report_text,
    run_pipeline,
)
from strisk.synth import GeneratorConfig

BASE_CONFIG = {
    "seed": 13,
    "simulate": {
        "n_orgs": 60,
        "negative_ratio": 4.0,
        "signal": {"technical": 2.0, "social": 1.5},
        "noise_fraction": 0.2,
    },
    "denoise": {"method": "confusion_matrix", "folds": 3},
    "split": {"train_fraction": 0.7},
    "models": [
        {"family": "logistic_regression"},
        {"family": "naive_bayes"},
    ],
    "stack": {"folds": 3},
    "evaluate": {"threshold": 0.5},
    "importance": {"repeats": 2},
}


def config_for(tmp_path, **overrides):
    data = dict(BASE_CONFIG, workdir=str(tmp_path / "work"), **overrides)
    return PipelineConfig.from_dict(data)


class TestPipelineConfig:
    def test_needs_simulate_or_inputs(self):
        data = {k: v for k, v in BASE_CONFIG.items() if k != "simulate"}
        data["workdir"] = "/tmp/x"
        with pytest.raises(ValueError, match="simulate section or input paths"):
            PipelineConfig.from_dict(data)

    def test_needs_models(self):
        data = dict(BASE_CONFIG, workdir="/tmp/x", models=[])
        with pytest.raises(ValueError, match="no models"):
            PipelineConfig.from_dict(data)

    def test_unknown_skip_stage_rejected(self):
        data = dict(BASE_CONFIG, workdir="/tmp/x", skip=["optimize"])
        with pytest.raises(ValueError, match="unknown stage"):
            PipelineConfig.from_dict(data)

    def test_denoise_models_default_to_training_models(self):
        config = PipelineConfig.from_dict(dict(BASE_CONFIG, workdir="/tmp/x"))
        assert [s.family for s in config.denoise_models] == [
            "logistic_regression",
            "naive_bayes",
        ]

    def test_direct_construction_equals_from_dict(self):
        direct = PipelineConfig(
            workdir=Path("/tmp/x"),
            simulate=GeneratorConfig(n_orgs=60),
            models=(ModelSpec("naive_bayes"),),
        )
        data = {"workdir": "/tmp/x", "simulate": {"n_orgs": 60}, "models": [{"family": "naive_bayes"}]}
        assert direct == PipelineConfig.from_dict(data)
        assert direct.denoise_models == direct.models
        assert (direct.stack_folds, direct.importance_repeats) == (None, None)

    def test_partial_inputs_beside_simulate_are_accepted(self):
        # Inputs are read only when nothing is simulated.
        data = {
            "workdir": "/tmp/x",
            "simulate": {"n_orgs": 60},
            "inputs": {"organizations": "organizations.jsonl"},
            "models": [{"family": "naive_bayes"}],
        }
        assert PipelineConfig.from_dict(data).inputs == {"organizations": Path("organizations.jsonl")}

    def test_from_file_refuses_json_nested_too_deeply(self, tmp_path):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        with pytest.raises(ValueError, match="cannot be read as JSON: maximum recursion depth"):
            PipelineConfig.from_file(nested)

    def test_workdir_override(self, tmp_path):
        config = PipelineConfig.from_dict(
            dict(BASE_CONFIG, workdir="/ignored"), workdir=tmp_path
        )
        assert config.workdir == tmp_path


def run_config(tmp_path, **overrides) -> PipelineConfig:
    """Run the pipeline on BASE_CONFIG with ``overrides``; returns the config run."""
    config = config_for(tmp_path, **overrides)
    run_pipeline(config)
    return config


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    return run_config(tmp_path_factory.mktemp("pipeline"))


class TestRunPipeline:
    def test_artifacts_exist(self, config):
        workdir = config.workdir
        for name in (
            "matches.jsonl",
            "features.csv",
            "features_denoised.csv",
            "noise_report.json",
            "train.csv",
            "test.csv",
            "evaluations.json",
            "report.json",
            "report.txt",
        ):
            assert (workdir / name).exists(), name
        assert (workdir / "models" / "logistic_regression.json").exists()
        assert (workdir / "models" / "stacked.json").exists()

    def test_report_structure(self, config):
        report = json.loads((config.workdir / "report.json").read_text())
        assert report["label_policy"] == "noise-corrected labels"
        assert report["corpus"]["organizations"] == 60
        assert {m["model"] for m in report["metrics"]} >= {
            "logistic_regression",
            "naive_bayes",
            "stacked(logistic_regression+naive_bayes)",
        }
        assert set(report["importance"]["category_shares"]) == {
            "technical",
            "twitter",
            "sector",
            "org_size",
        }

    def test_text_report_renders_every_section(self, config):
        text = (config.workdir / "report.txt").read_text()
        for heading in (
            "label policy",
            "corpus:",
            "name matching",
            "class counts",
            "label correction",
            "noise transition",
            "test metrics",
            "feature importance by category",
        ):
            assert heading in text, heading

    def test_rerun_is_byte_identical(self, config, tmp_path):
        # Each denoise method runs twice; the module's run is the first
        # run of the configured one.
        for method in ("confusion_matrix", "confident_joint"):
            denoise = dict(BASE_CONFIG["denoise"], method=method)
            first = (
                config
                if method == BASE_CONFIG["denoise"]["method"]
                else run_config(tmp_path / method, denoise=denoise)
            )
            again = run_config(tmp_path / f"{method}-again", denoise=denoise)
            names = sorted(
                str(path.relative_to(first.workdir))
                for path in first.workdir.rglob("*")
                if path.is_file()
            )
            assert "noise_report.json" in names
            for name in names:
                assert (again.workdir / name).read_bytes() == (
                    first.workdir / name
                ).read_bytes(), (method, name)
            noise = json.loads((first.workdir / "noise_report.json").read_text())
            assert noise["method"] == method

    def test_run_from_the_corpus_files_repeats_the_simulated_run(self, config, tmp_path):
        # The simulated corpus is featurized in memory; read back from its
        # files with its ground truth, it must give the same artifacts.
        corpus = config.workdir / "corpus"
        roles = ("organizations", "observations", "tweets", "incidents")
        data = {k: v for k, v in BASE_CONFIG.items() if k != "simulate"}
        from_files = PipelineConfig.from_dict(
            dict(
                data,
                workdir=str(tmp_path / "work"),
                inputs={role: str(corpus / f"{role}.jsonl") for role in roles},
                ground_truth=str(corpus / "ground_truth.jsonl"),
            )
        )
        run_pipeline(from_files)

        def artifacts(workdir):
            return sorted(
                str(path.relative_to(workdir))
                for path in workdir.rglob("*")
                if path.is_file() and path.relative_to(workdir).parts[0] != "corpus"
            )

        names = artifacts(config.workdir)
        assert "features.csv" in names and "models/stacked.json" in names
        assert artifacts(from_files.workdir) == names
        for name in names:
            assert (from_files.workdir / name).read_bytes() == (config.workdir / name).read_bytes(), name

    def test_skip_denoise_trains_on_noisy_labels(self, tmp_path):
        workdir = run_config(tmp_path, skip=["denoise"]).workdir
        report = json.loads((workdir / "report.json").read_text())
        assert report["label_policy"] == NOISY_LABEL_POLICY
        assert not (workdir / "features_denoised.csv").exists()

    def test_no_incidents_match_nothing(self, config, tmp_path):
        corpus = config.workdir / "corpus"
        inputs = {
            name: str(corpus / f"{name}.jsonl")
            for name in ("organizations", "observations", "tweets")
        }
        inputs["incidents"] = str(tmp_path / "incidents.jsonl")
        (tmp_path / "incidents.jsonl").write_text("")
        data = {k: v for k, v in BASE_CONFIG.items() if k != "simulate"}
        from_files = PipelineConfig.from_dict(
            dict(data, workdir=str(tmp_path / "work"), inputs=inputs)
        )
        # With no incidents every label is 0, so denoising cannot run; the
        # match stage before it must still have matched nothing.
        with pytest.raises(StageFailure, match="denoise"):
            run_pipeline(from_files)
        assert (tmp_path / "work" / "matches.jsonl").read_text() == ""

    def test_saved_bases_are_the_stacked_bases_fitted_once(self, tmp_path, monkeypatch):
        import strisk.models.stacking
        import strisk.pipeline

        fits = []

        def counted(train):
            def counting_train(dataset, spec):
                fits.append(spec.family)
                return train(dataset, spec)

            return counting_train

        for module in (strisk.pipeline, strisk.models.stacking):
            monkeypatch.setattr(module, "train", counted(module.train))
        workdir = run_config(tmp_path).workdir / "models"
        assert fits == ["logistic_regression", "naive_bayes"]
        stacked = json.loads((workdir / "stacked.json").read_text())
        for base in stacked["bases"]:
            saved = json.loads((workdir / f"{base['spec']['family']}.json").read_text())
            assert saved == base

    def test_stage_order_is_documented(self):
        assert STAGES == (
            "simulate",
            "match",
            "featurize",
            "denoise",
            "split",
            "train",
            "evaluate",
            "report",
        )


class TestRenderReport:
    def test_undefined_metrics_render_as_text(self):
        report = {
            "label_policy": NOISY_LABEL_POLICY,
            "seed": 0,
            "corpus": {"organizations": 10, "observations": 0, "tweets": 0, "incidents": 0},
            "match": {"accepted": 1},
            "labels": {"train": {"positive": 1, "negative": 6}, "test": {"positive": 0, "negative": 3}},
            "metrics": [
                {
                    "model": "m",
                    "threshold": 0.5,
                    "n_positive": 0,
                    "n_negative": 3,
                    "tpr": None,
                    "fpr": 0.0,
                    "f1": None,
                    "auc": 0.5,
                    "brier": 0.1,
                }
            ],
        }
        text = render_report_text(report)
        assert "undefined" in text
        assert "m" in text
