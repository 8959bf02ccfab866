import csv
import os
import re
from pathlib import Path

import numpy as np
import pytest

from costlab.bench import (
    BenchConfig,
    BenchResult,
    ModelRun,
    _train_test,
    build_rule_base,
    derive_seed,
    parse_config,
    predict_one,
    render,
    run_bench,
    write_outputs,
)
from costlab.cbr import CbrPredictor
from costlab.cli import main as cli_main
from costlab.core import EvalReport
from costlab.data import FEATURE_NAMES, Dataset, FeatureVector
from costlab.errors import ConfigError, CostLabError
from costlab.fuzzy import OUTPUT_NAME, derive_rule_base, save_rules
from costlab.metrics import MapeCategory
from costlab.zoo import build_model
from test_model_run import TENTH_SCALE

FAST_MODELS = ("frozen_quadratic", "sqrt_regression", "cart", "cbr")


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg.source == "synthesize"
        assert cfg.n == 144 and cfg.noise_pct == 5.0
        assert len(cfg.enabled) == 20

    def test_full_document(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(
            "id,area_served,pipeline_length_m,irrigation_valves,construction_year,cost_le\n"
            "a,1,2,3,2013,100\nb,2,3,4,2013,200\n"
        )
        text = """
[data]
source = csv
path = d.csv

[split]
train_fraction = 0.5

[metrics]
n_override = 144

[models]
enabled = cart, cbr

[model.cart]
max_depth = 3

[run]
seed = 99
"""
        cfg = parse_config(text, base_dir=str(tmp_path))
        assert cfg.source == "csv" and cfg.csv_path.endswith("d.csv")
        assert cfg.train_fraction == 0.5
        assert cfg.n_override == 144
        assert cfg.enabled == ("cart", "cbr")
        assert cfg.model_params["cart"] == {"max_depth": "3"}
        assert cfg.seed == 99

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[data]\nsource = synthesize\ntypo_key = 5\n")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[models]\nenabled = cart, not_a_model\n")
        with pytest.raises(ConfigError):
            parse_config("[model.not_a_model]\nx = 1\n")

    def test_unknown_hyperparameter_rejected_at_build(self):
        with pytest.raises(ConfigError):
            parse_config("[models]\nenabled = cart\n\n[model.cart]\nbogus = 1\n")

    def test_section_of_a_disabled_model_is_checked(self):
        with pytest.raises(ConfigError, match="svr"):
            parse_config("[models]\nenabled = cart\n\n[model.svr]\nbogus = 1\nc = -5\n")

    def test_both_split_forms_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[split]\ntrain_fraction = 0.5\ntrain_count = 10\n")

    def test_missing_csv_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config("[data]\nsource = csv\n", base_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            parse_config("[data]\nsource = csv\npath = ghost.csv\n", base_dir=str(tmp_path))

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[data]\nn = twelve\n")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"source": "xlsx"},
            {"source": "csv"},
            {"train_fraction": 0.5, "train_count": 10},
            {"train_fraction": 1.0},
            {"k_predictors": -3},
            {"n_override": 5},
            {"enabled": ()},
            {"enabled": ("cart", "cart")},
            {"model_params": {"not_a_model": {}}},
            {"enabled": ("cart",), "model_params": {"svr": {"bogus": "1", "c": "-5"}}},
            {"enabled": ("cart",), "model_params": {"svr": {"c": "-5"}}},
        ],
    )
    def test_config_built_in_code_is_checked(self, kwargs):
        with pytest.raises(ConfigError):
            BenchConfig(**kwargs)

    def test_readme_example_config_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Benchmark config"):]
        start = section.index("```ini\n") + len("```ini\n")
        cfg = parse_config(section[start:section.index("```\n", start)])
        assert len(cfg.model_params) == 8
        for model_id, params in cfg.model_params.items():
            assert params, model_id
            documented = build_model(model_id, params, derive_seed(42, model_id))
            default = build_model(model_id, {}, derive_seed(42, model_id))
            assert vars(documented) == vars(default), model_id


# Keys that name a setting the model does not have.
UNKNOWN_KEYS = [
    ("fuzzy", {"samples": "1001"}),  # the centroid grid is fixed at fuzzy.SAMPLES points
    ("genetic_fuzzy", {"samples": "1001"}),
    ("regularized_boosting", {"subsample": "0.3"}),  # the booster draws no row subsample
]

# One out-of-range value per model family (the regression family takes no
# hyperparameters, so any key is bad there), and the unknown keys.
BAD_HYPERPARAMETERS = [
    ("plain_regression", {"degree": "2"}),
    ("plain_mlp", {"epochs": "-1"}),
    ("dnn", {"learning_rate": "-0.01"}),
    ("cart", {"max_depth": "-1"}),
    ("bagging", {"n_members": "0"}),
    ("random_forest", {"min_samples_leaf": "0"}),
    ("extra_trees", {"min_samples_split": "1"}),
    ("adaboost_r2", {"n_members": "-3"}),
    ("sgb", {"subsample": "1.5"}),
    ("regularized_boosting", {"lam": "-1"}),
    ("genetic_fuzzy", {"elitism_count": "0"}),
    ("cbr", {"k": "0"}),
    ("cbr", {"weights": "0,0,0,0"}),
    ("svr", {"c": "0"}),
    ("genetic_fuzzy", {"mutation_prob": "1.5"}),
    ("svr", {"gamma_rbf": "-5"}),
    ("svr", {"c": "nan"}),
    ("cbr", {"weights": "nan,1,1,1"}),
    ("regularized_boosting", {"lam": "nan"}),
    ("regularized_boosting", {"gamma": "nan"}),
    ("dnn", {"learning_rate": "nan"}),
    ("plain_mlp", {"learning_rate": "nan"}),
    ("svr", {"max_passes": "-3"}),
    ("cbr", {"weights": "inf,1,1,1"}),
    ("cbr", {"weights": "-1,1,1,1"}),
    ("svr", {"gamma_rbf": "inf"}),
    ("svr", {"epsilon": "inf"}),
    ("plain_mlp", {"learning_rate": "inf"}),
    ("dnn", {"learning_rate": "inf"}),
    ("regularized_boosting", {"lam": "inf"}),
    ("regularized_boosting", {"gamma": "inf"}),
    *UNKNOWN_KEYS,
    ("svr", {"c": "1e-9"}),
]


class TestBadHyperparameters:
    @pytest.mark.parametrize("model_id, params", BAD_HYPERPARAMETERS)
    def test_build_raises_config_error(self, model_id, params):
        with pytest.raises(ConfigError, match=model_id):
            build_model(model_id, params, 0)

    @pytest.mark.parametrize("model_id, params", UNKNOWN_KEYS)
    def test_unknown_key_is_named(self, model_id, params):
        with pytest.raises(ConfigError, match=re.escape(f"unknown keys {list(params)}")):
            build_model(model_id, params, 0)

    @pytest.mark.parametrize("model_id, params", BAD_HYPERPARAMETERS)
    def test_bench_config_raises_config_error(self, model_id, params):
        enabled = tuple(dict.fromkeys(("cart", model_id)))  # a duplicate id is a ConfigError
        with pytest.raises(ConfigError, match=model_id):
            BenchConfig(enabled=enabled, model_params={model_id: params})

    @pytest.mark.parametrize(
        "section",
        [
            "[models]\nenabled = cart, svr\n\n[model.svr]\nc = 0\n",
            "[models]\nenabled = cart, genetic_fuzzy\n\n[model.genetic_fuzzy]\nelitism_count = 0\n",
            "[models]\nenabled = bagging\n\n[model.bagging]\nn_members = 0\n",
            "[models]\nenabled = cart\n\n[model.svr]\nbogus = 1\nc = -5\n",
            "[data]\nn = 0\n",
            "[data]\nnoise_pct = -1\n",
            "[data]\nnoise_pct = inf\n",
            "[models]\nenabled = cart, cart\n",
            "[split]\ntrain_fraction = nan\n",
            "[split]\ntrain_fraction = 0\n",
            "[split]\ntrain_count = 0\n",
            "[metrics]\nk_predictors = -3\n",
            "[metrics]\nn_override = 0\n",
        ],
        ids=[
            "svr_c",
            "genetic_fuzzy_elitism_count",
            "bagging_n_members",
            "disabled_svr",
            "data_n",
            "data_noise_pct",
            "data_noise_pct_inf",
            "models_duplicate",
            "split_train_fraction_nan",
            "split_train_fraction_zero",
            "split_train_count",
            "metrics_k_predictors",
            "metrics_n_override",
        ],
    )
    def test_cli_reports_config_error(self, section, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text(section)
        assert cli_main(["bench", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "CONFIG_ERROR" in err
        assert "VALUE_ERROR" not in err


# a second rule for the antecedent (1, 1, 1, 1), and the words its error names
RULE_CONFLICTS = {
    "duplicate": ("1 1 1 1 -> 2", "duplicate rule"),
    "conflicting": ("1 1 1 1 -> 3", "conflicting consequents 2 and 3"),
}


def _bad_rule_file(tmp_path, kind):
    """A rule file that exists but does not load, and the words its error names."""
    if kind == "directory":
        path = tmp_path / "rules_dir"
        path.mkdir()
        return str(path), "directory"
    path = tmp_path / f"{kind}.txt"
    if kind in RULE_CONFLICTS:  # every universe declared, then two rules on one antecedent
        rule, words = RULE_CONFLICTS[kind]
        universes = "".join(f"universe {name} 0 100\n" for name in (*FEATURE_NAMES, OUTPUT_NAME))
        path.write_text(f"{universes}1 1 1 1 -> 2\n{rule}\n")
        return str(path), words
    path.write_text("garbage line\n" if kind == "malformed" else "universe p1_area_served 0 100\n")
    return str(path), ("garbage line" if kind == "malformed" else "missing universe")


class TestRuleFile:
    """A ``[model.fuzzy] rule_file`` is loaded at config time, whether or not
    ``fuzzy`` is enabled."""

    KINDS = ["malformed", "incomplete", "directory", *RULE_CONFLICTS]

    @pytest.mark.parametrize("enabled", ["cart", "fuzzy"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_parse_config(self, kind, enabled, tmp_path):
        path, words = _bad_rule_file(tmp_path, kind)
        name = os.path.basename(path)
        text = f"[models]\nenabled = {enabled}\n\n[model.fuzzy]\nrule_file = {name}\n"
        with pytest.raises(ConfigError, match=r"\[model\.fuzzy\] rule_file") as info:
            parse_config(text, base_dir=str(tmp_path))
        assert path in str(info.value) and words in str(info.value).lower()

    @pytest.mark.parametrize("enabled", [("cart",), ("fuzzy",)])
    @pytest.mark.parametrize("kind", KINDS)
    def test_config_built_in_code(self, kind, enabled, tmp_path):
        path, words = _bad_rule_file(tmp_path, kind)
        with pytest.raises(ConfigError, match=r"\[model\.fuzzy\] rule_file") as info:
            BenchConfig(enabled=enabled, model_params={"fuzzy": {"rule_file": path}})
        assert path in str(info.value) and words in str(info.value).lower()

    @pytest.mark.parametrize("kind", KINDS)
    def test_cli(self, kind, tmp_path, capsys):
        path, words = _bad_rule_file(tmp_path, kind)
        config = tmp_path / "bad.ini"
        config.write_text(f"[models]\nenabled = fuzzy\n\n[model.fuzzy]\nrule_file = {path}\n")
        assert cli_main(["bench", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CONFIG_ERROR") and path in err
        assert not os.path.exists(tmp_path / "out")

    def test_missing_file_message_is_unchanged(self, tmp_path):
        path = str(tmp_path / "ghost.txt")
        with pytest.raises(ConfigError) as info:
            BenchConfig(model_params={"fuzzy": {"rule_file": path}})
        assert str(info.value) == f"[model.fuzzy] rule_file does not exist: {path}"

    def test_a_saved_rule_base_is_accepted(self, tmp_path):
        path = str(tmp_path / "rules.txt")
        train, _ = _train_test(BenchConfig(), 42)
        save_rules(derive_rule_base(train), path)
        cfg = BenchConfig(enabled=("fuzzy",), model_params={"fuzzy": {"rule_file": path}})
        assert cfg.model_params["fuzzy"]["rule_file"] == path


class TestDeriveSeed:
    def test_stable_and_namespaced(self):
        assert derive_seed(42, "cart") == derive_seed(42, "cart")
        assert derive_seed(42, "cart") != derive_seed(42, "cbr")
        assert derive_seed(42, "cart") != derive_seed(43, "cart")
        assert derive_seed(42, "cart") >= 0


def _notations(result):
    """The first column of each leaderboard row."""
    return [cells[0] for cells in csv.reader(render(result, "csv").splitlines()[1:])]


class TestRunBench:
    def test_frozen_reference_on_noise_free_data_is_exact(self):
        cfg = BenchConfig(noise_pct=0.0, enabled=("frozen_quadratic",))
        result = run_bench(cfg, seed=3)
        row = result.rows[0]
        assert _notations(result) == ["M1"]
        assert row.report.mape_pct == 0.0
        assert row.report.mape_category is MapeCategory.BELOW_10
        assert row.report.r2 == 1.0

    def test_rows_sorted_ascending_by_mape(self):
        cfg = BenchConfig(enabled=FAST_MODELS)
        result = run_bench(cfg, seed=5)
        scores = [r.report.mape_pct for r in result.rows if r.report]
        assert scores == sorted(scores)
        assert _notations(result) == [f"M{i+1}" for i in range(len(result.rows))]

    def test_failed_model_gets_error_marker_row(self):
        cfg = BenchConfig(enabled=("sqrt_regression", "square_regression"))
        result = run_bench(cfg, seed=42)
        by_id = {r.model_id: r for r in result.rows}
        assert len(result.rows) == 2
        assert by_id["square_regression"].report is None
        assert "NEGATIVE_SQRT_DOMAIN" in by_id["square_regression"].error
        assert by_id["sqrt_regression"].report is not None

    def test_unexpected_exception_becomes_error_row(self, monkeypatch):
        def boom(self, X):
            raise RuntimeError("boom")

        monkeypatch.setattr(CbrPredictor, "_predict_batch", boom)
        result = run_bench(BenchConfig(enabled=FAST_MODELS), seed=7)
        by_id = {r.model_id: r for r in result.rows}
        assert by_id["cbr"].report is None
        assert by_id["cbr"].error == "RuntimeError: boom"
        assert result.rows[-1].model_id == "cbr"
        for model_id in ("frozen_quadratic", "sqrt_regression", "cart"):
            assert by_id[model_id].report is not None
        ranked = {r.model_id for r in result.rows if r.predicted is not None}
        assert ranked == {"frozen_quadratic", "sqrt_regression", "cart"}
        assert any("Traceback" in w and "RuntimeError: boom" in w for w in result.warnings)

    def test_model_isolation(self):
        full = run_bench(BenchConfig(enabled=FAST_MODELS), seed=7)
        solo = run_bench(BenchConfig(enabled=("cart",)), seed=7)
        full_cart = next(r for r in full.rows if r.model_id == "cart")
        solo_cart = solo.rows[0]
        assert solo_cart.report == full_cart.report

    def test_green_rule_warning_on_small_data(self):
        cfg = BenchConfig(n=40, enabled=("cart",))
        result = run_bench(cfg, seed=1)
        assert result.warnings and "below the minimum" in result.warnings[0]
        assert run_bench(BenchConfig(enabled=("cart",)), seed=1).warnings == []

    def test_predictions_recorded_per_model(self):
        cfg = BenchConfig(enabled=FAST_MODELS)
        result = run_bench(cfg, seed=9)
        by_id = {r.model_id: r for r in result.rows}
        for model_id in FAST_MODELS:
            predicted = by_id[model_id].predicted
            assert predicted.dtype == np.float64 and len(predicted) == len(result.test)
            assert (result.test.targets > 0).all() and np.isfinite(predicted).all()


def _golden_result():
    report = EvalReport("cart", 9.091, MapeCategory.BELOW_10, 0.931, 0.929)
    return BenchResult([ModelRun("cart", report=report)], [], Dataset([]))


class TestRender:
    def test_documented_row_formatting(self):
        text = render(_golden_result(), "markdown")
        for token in ("9.091", "below 10", "0.931", "0.929", "M1"):
            assert token in text

    def test_csv_and_markdown_numbers_identical(self):
        cfg = BenchConfig(enabled=FAST_MODELS)
        result = run_bench(cfg, seed=11)
        md = render(result, "markdown")
        csv_text = render(result, "csv")
        for row in result.rows:
            if row.report:
                for value in (row.report.mape_pct, row.report.r2, row.report.adj_r2):
                    assert f"{value:.3f}" in md and f"{value:.3f}" in csv_text

    def test_header_only_for_empty(self):
        empty = BenchResult([], [], Dataset([]))
        csv_text = render(empty, "csv").strip().splitlines()
        assert len(csv_text) == 1 and csv_text[0].startswith("Notation")

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            render(_golden_result(), "yaml")


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path):
        cfg = BenchConfig(
            enabled=("sqrt_regression", "cart", "random_forest", "sgb", "genetic_fuzzy"),
            model_params={"genetic_fuzzy": {"generations": "5"}},
        )
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        write_outputs(run_bench(cfg, seed=13), dir_a, "csv")
        write_outputs(run_bench(cfg, seed=13), dir_b, "csv")
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        assert any(n.startswith("ga_fitness") for n in names)
        for name in names:
            with open(os.path.join(dir_a, name), "rb") as fa:
                with open(os.path.join(dir_b, name), "rb") as fb:
                    assert fa.read() == fb.read(), name


class TestPredictOne:
    def test_quote_reports_its_leaderboard_row(self):
        cfg = BenchConfig(model_params=TENTH_SCALE)
        rows = {run.model_id: run for run in run_bench(cfg, 42).rows}
        query = FeatureVector(100.0, 1000.0, 10.0, 2013.0)
        failed = []
        for model_id in cfg.enabled:
            try:
                report = predict_one(cfg, 42, model_id, query).report
            except CostLabError as exc:
                assert f"{exc.code}: {exc}" == rows[model_id].error
                failed.append(model_id)
            else:
                assert report == rows[model_id].report, model_id
        assert failed == ["square_regression"]
        assert rows["square_regression"].error.startswith("NEGATIVE_SQRT_DOMAIN: ")

    def test_cbr_trace_for_stored_case(self):
        cfg = BenchConfig(enabled=("cbr",), noise_pct=0.0)
        seed = 17
        from costlab.bench import _train_test

        train, _ = _train_test(cfg, seed)
        stored = train[0]
        result = predict_one(cfg, seed, "cbr", stored.features)
        assert result.cost == stored.cost_le
        assert any("similarity 1.0000" in line for line in result.trace)
        assert any(stored.id in line for line in result.trace)

    def test_fuzzy_degraded_flag_out_of_universe(self):
        cfg = BenchConfig(enabled=("fuzzy",))
        query = FeatureVector(100.0, 1000.0, 10.0, 2090.0)  # year far outside data
        result = predict_one(cfg, 19, "fuzzy", query)
        assert any("DEGRADED" in line for line in result.trace)
        assert np.isfinite(result.cost)

    def test_fuzzy_fired_rules_listed(self):
        cfg = BenchConfig(enabled=("fuzzy",))
        from costlab.bench import _train_test

        train, _ = _train_test(cfg, 21)
        result = predict_one(cfg, 21, "fuzzy", train[0].features)
        assert any("fired at" in line for line in result.trace)

    def test_frozen_quadratic_known_point(self):
        cfg = BenchConfig(enabled=("frozen_quadratic",))
        result = predict_one(cfg, 23, "frozen_quadratic", FeatureVector(100.0, 1000.0, 10.0, 2013.0))
        assert result.cost == pytest.approx(655552.554, abs=0.5)


class TestRuleDump:
    def test_derived_rules_saved_and_reloadable(self, tmp_path):
        from costlab.fuzzy import load_rules, save_rules

        cfg = BenchConfig(enabled=("fuzzy",))
        rb = build_rule_base(cfg, seed=25)
        path = str(tmp_path / "rules.txt")
        save_rules(rb, path)
        assert load_rules(path) == rb

    def test_evolved_rules(self):
        cfg = BenchConfig(
            n=30, enabled=("genetic_fuzzy",),
            model_params={"genetic_fuzzy": {"generations": "3", "population_size": "10"}},
        )
        rb = build_rule_base(cfg, seed=27, evolved=True)
        assert len(rb.rules) >= 1


class TestCli:
    def test_generate_bench_predict_rules(self, tmp_path, capsys):
        data = str(tmp_path / "d.csv")
        assert cli_main(["generate", "--n", "40", "--noise-pct", "2", "--seed", "3", "--out", data]) == 0
        config = tmp_path / "bench.ini"
        config.write_text(
            f"[data]\nsource = csv\npath = d.csv\n\n[models]\nenabled = cart, cbr\n\n[run]\nseed = 4\n"
        )
        out_dir = str(tmp_path / "out")
        assert cli_main(["bench", "--config", str(config), "--out", out_dir, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "Notation" in captured.out
        assert os.path.exists(os.path.join(out_dir, "leaderboard.csv"))
        assert cli_main([
            "predict", "--config", str(config), "--model", "cart",
            "--p1", "100", "--p2", "1000", "--p3", "10", "--p4", "2013",
        ]) == 0
        assert "predicted cost" in capsys.readouterr().out
        rules_path = str(tmp_path / "rules.txt")
        assert cli_main(["rules", "--config", str(config), "--out", rules_path]) == 0
        assert os.path.exists(rules_path)

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.ini"
        config.write_text("[data]\nsource = csv\n")  # missing path
        assert cli_main(["bench", "--config", str(config)]) == 1
        assert "CONFIG_ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["bench"],
        ["predict", "--model", "cart", "--p1", "100", "--p2", "1000", "--p3", "10", "--p4", "2013"],
        ["rules", "--out", "rules.txt"],
    ])
    def test_missing_config_file_is_a_config_error(self, command, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        assert cli_main([command[0], "--config", missing, *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: CONFIG_ERROR") and "missing.ini" in err

    @pytest.mark.parametrize("command, name", [
        (["rules"], "r.txt"),
        (["generate", "--n", "5"], "x.csv"),
    ])
    def test_unwritable_out_path_is_an_os_error(self, command, name, tmp_path, capsys):
        out = str(tmp_path / "MISSING_DIR" / name)
        assert cli_main([*command, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: OS_ERROR: ") and "MISSING_DIR" in err
        assert not os.path.exists(tmp_path / "MISSING_DIR")

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COSTLAB_SEED", "31")
        data = str(tmp_path / "a.csv")
        assert cli_main(["generate", "--n", "5", "--out", data]) == 0
        monkeypatch.setenv("COSTLAB_SEED", "junk")
        assert cli_main(["generate", "--n", "5", "--out", data]) == 1
        assert "CONFIG_ERROR" in capsys.readouterr().err
