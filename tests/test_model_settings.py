"""One reader per setting: a model's constructor checks its settings and reads
any file they name, every config error names its section, and ``[data]``
values that the configured source would not read are errors."""

import ast
from pathlib import Path

import pytest

from costlab.bench import BenchConfig, _train_test, parse_config, run_bench
from costlab.cli import main as cli_main
from costlab.errors import ConfigError
from costlab.zoo import build_model

BENCH_PY = Path(__file__).resolve().parents[1] / "src" / "costlab" / "bench.py"
CSV_HEADER = "id,area_served,pipeline_length_m,irrigation_valves,construction_year,cost_le\n"


def _seed_42_rules(tmp_path, capsys) -> str:
    """The rule file ``costlab rules --seed 42`` writes."""
    path = str(tmp_path / "rules.txt")
    assert cli_main(["rules", "--seed", "42", "--out", path]) == 0
    capsys.readouterr()
    return path


def _write_csv(tmp_path) -> str:
    path = tmp_path / "d.csv"
    path.write_text(CSV_HEADER + "a,1,2,3,2013,100\nb,2,3,4,2013,200\n")
    return str(path)


class TestFuzzyFitsWithTheRulesItsBuildRead:
    def test_a_file_overwritten_after_the_build(self, tmp_path, capsys):
        path = _seed_42_rules(tmp_path, capsys)
        train, test = _train_test(BenchConfig(), 42)
        before = build_model("fuzzy", {"rule_file": path}, 0).fit(train).predict_many(test)
        model = build_model("fuzzy", {"rule_file": path}, 0)
        Path(path).write_text("garbage line\n")
        after = model.fit(train).predict_many(test)
        assert after.tobytes() == before.tobytes()

    def test_a_file_gone_bad_after_the_config_check_is_its_error_row(self, tmp_path, capsys):
        path = _seed_42_rules(tmp_path, capsys)
        cfg = parse_config(
            "[models]\nenabled = fuzzy, cbr, sqrt_regression\n\n"
            "[model.fuzzy]\nrule_file = rules.txt\n",
            base_dir=str(tmp_path),
        )
        Path(path).write_text("garbage line\n")
        result = run_bench(cfg, 42)
        *ranked, fuzzy = result.rows
        assert {run.model_id for run in ranked} == {"cbr", "sqrt_regression"}
        assert all(run.report is not None for run in ranked)
        assert fuzzy.model_id == "fuzzy" and fuzzy.report is None and fuzzy.predicted is None
        assert fuzzy.error.startswith(f"CONFIG_ERROR: [model.fuzzy] rule_file {path}: ")
        assert result.warnings == []  # a CostLabError is an expected failure


class TestDataValuesTheSourceWouldNotRead:
    def test_path_without_source_csv(self, tmp_path):
        path = _write_csv(tmp_path)
        with pytest.raises(ConfigError, match=r"^\[data\] path applies only to source = csv$"):
            parse_config("[data]\npath = d.csv\n", base_dir=str(tmp_path))
        with pytest.raises(ConfigError, match=r"^\[data\] path applies only to source = csv$"):
            BenchConfig(csv_path=path)

    @pytest.mark.parametrize("key, value", [("n", 7), ("noise_pct", 50.0)])
    def test_synthesis_values_with_source_csv(self, key, value, tmp_path):
        path = _write_csv(tmp_path)
        message = rf"^\[data\] {key} applies only to source = synthesize$"
        with pytest.raises(ConfigError, match=message):
            parse_config(f"[data]\nsource = csv\npath = d.csv\n{key} = {value}\n", str(tmp_path))
        with pytest.raises(ConfigError, match=message):
            BenchConfig(source="csv", csv_path=path, **{key: value})

    def test_defaults_written_out_are_accepted(self, tmp_path):
        path = _write_csv(tmp_path)
        text = "[data]\nsource = csv\npath = d.csv\nn = 144\nnoise_pct = 5.0\n"
        assert parse_config(text, str(tmp_path)).csv_path == path
        assert BenchConfig(source="csv", csv_path=path, n=144, noise_pct=5).n == 144


# One bad value per section, and the bracketed section its message starts with.
BAD_SECTIONS = {
    "data": ("[data]\nn = 0\n", "[data]"),
    "split": ("[split]\ntrain_fraction = 2\n", "[split]"),
    "metrics": ("[metrics]\nk_predictors = -1\n", "[metrics]"),
    "models": ("[models]\nenabled = nope\n", "[models]"),
    "svr_c": ("[model.svr]\nc = 0\n", "[model.svr]"),
    "model_bad_value": ("[model.cart]\nmax_depth = deep\n", "[model.cart]"),
    "model_unknown_key": ("[model.cart]\ndepth = 3\n", "[model.cart]"),
    "missing_rule_file": (
        "[model.fuzzy]\nrule_file = ghost.txt\n", "[model.fuzzy] rule_file does not exist: "
    ),
    "malformed_rule_file": ("[model.fuzzy]\nrule_file = bad.txt\n", "[model.fuzzy] rule_file "),
}


@pytest.mark.parametrize("case", BAD_SECTIONS)
def test_every_config_error_names_its_section(case, tmp_path):
    text, prefix = BAD_SECTIONS[case]
    (tmp_path / "bad.txt").write_text("garbage line\n")
    with pytest.raises(ConfigError) as info:
        parse_config(text, base_dir=str(tmp_path))
    assert str(info.value).startswith(prefix)


def test_bench_imports_no_model_family():
    """``bench.py`` builds every model through ``zoo.build_model``."""
    tree = ast.parse(BENCH_PY.read_text(encoding="utf-8"))
    package_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            package_modules.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert not any(name.startswith("costlab") for name in names)
    assert package_modules <= {"core", "data", "errors", "zoo"}
