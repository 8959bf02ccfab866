"""One reader per setting: a model's constructor checks its settings and reads
any file they name, every declared key reaches its model, every config error
names its section, and ``[data]`` values that the configured source would not
read are errors."""

import ast
from pathlib import Path

import pytest

from costlab.bench import BenchConfig, _train_test, parse_config, run_bench
from costlab.cli import main as cli_main
from costlab.errors import ConfigError
from costlab.zoo import MODEL_REGISTRY, build_model

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


# One bad value per section, and the bracketed section its message starts with
# (or the whole message, for the forms that every section shares).
BAD_SECTIONS = {
    "unknown_section": ("[x]\na = 1\n", "[x] unknown section"),
    "default_alone": ("[DEFAULT]\nseed = 5\n", "[DEFAULT] unknown section"),
    "default_with_run": ("[DEFAULT]\nseed = 5\n\n[run]\n", "[DEFAULT] unknown section"),
    "default_with_data": ("[DEFAULT]\nseed = 5\n\n[data]\n", "[DEFAULT] unknown section"),
    "data_unknown_key": ("[data]\nsize = 5\n", "[data] unknown keys ['size']"),
    "data_bad_value": ("[data]\nn = x\n", "[data] bad value 'x' for 'n'"),
    "split_both": (
        "[split]\ntrain_fraction = 0.5\ntrain_count = 10\n",
        "[split] give train_fraction or train_count, not both",
    ),
    "unknown_model": ("[model.nope]\n", "[model.nope] unknown model id"),
    "data": ("[data]\nn = 0\n", "[data]"),
    "split": ("[split]\ntrain_fraction = 2\n", "[split]"),
    "metrics": ("[metrics]\nk_predictors = -1\n", "[metrics]"),
    "models": ("[models]\nenabled = nope\n", "[models]"),
    "svr_c": ("[model.svr]\nc = 0\n", "[model.svr]"),
    "model_bad_value": (
        "[model.cart]\nmax_depth = deep\n", "[model.cart] bad value 'deep' for 'max_depth'"
    ),
    "model_unknown_key": ("[model.cart]\ndepth = 3\n", "[model.cart] unknown keys ['depth']"),
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


def test_predict_names_an_unknown_model_id(capsys):
    args = ["predict", "--model", "nope", "--p1", "1", "--p2", "1", "--p3", "1", "--p4", "2013"]
    assert cli_main(args) == 1
    assert capsys.readouterr().err == "error: CONFIG_ERROR: unknown model id 'nope'\n"


# One valid value for every [model.*] key, unlike the default of every model
# that declares the key (``rule_file`` is a written rules file).
NON_DEFAULT_VALUES = {
    "max_depth": "3",
    "min_samples_leaf": "3",
    "min_samples_split": "5",
    "n_members": "7",
    "n_rounds": "7",
    "learning_rate": "0.2",
    "lam": "2",
    "gamma": "0.5",
    "subsample": "0.5",
    "epochs": "7",
    "population_size": "9",
    "generations": "3",
    "crossover_prob": "0.5",
    "mutation_prob": "0.2",
    "elitism_count": "1",
    "k": "3",
    "weights": "1,2,1,1",
    "c": "2",
    "epsilon": "0.2",
    "gamma_rbf": "0.5",
    "max_passes": "7",
}


@pytest.mark.parametrize(
    "model_id, key",
    [(model_id, key) for model_id, info in MODEL_REGISTRY.items() for key in info.param_keys],
)
def test_every_declared_key_reaches_its_model(model_id, key, tmp_path, capsys):
    """A key that its model's build dropped would leave the model at its defaults."""
    value = _seed_42_rules(tmp_path, capsys) if key == "rule_file" else NON_DEFAULT_VALUES[key]
    assert vars(build_model(model_id, {key: value}, 0)) != vars(build_model(model_id, {}, 0))


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
