"""One record per model run: what ``run_bench`` keeps of each model, the files
``write_outputs`` makes of the records, and the exact ``costlab predict`` traces
the models' ``explain`` hooks give."""

import gc
import os
import weakref

import pytest

from costlab.bench import BenchConfig, _train_test, predict_one, run_bench, write_outputs
from costlab.cbr import CbrPredictor
from costlab.cli import main as cli_main
from costlab.core import Predictor
from costlab.data import FeatureVector
from costlab.genetic_fuzzy import GeneticFuzzyPredictor
from costlab.zoo import DEFAULT_MODEL_IDS

# Every iteration count of the default zoo cut tenfold, as perfbench's leaderboard runs it.
TENTH_SCALE = {
    **{m: {"n_members": "10"} for m in ("bagging", "random_forest", "extra_trees", "adaboost_r2")},
    **{m: {"n_rounds": "10"} for m in ("sgb", "regularized_boosting")},
    **{m: {"epochs": "300"} for m in ("plain_mlp", "sqrt_mlp", "log_mlp")},
    "dnn": {"epochs": "100"},
    "genetic_fuzzy": {"generations": "20"},
}


def _boom(self, X):
    raise RuntimeError("boom")


def test_no_fitted_predictor_outlives_run_bench(monkeypatch):
    # perfbench keeps every pass's result (36-63 passes in a 30 s leaderboard
    # run); with the fitted predictors held in the result, leaderboard
    # peak_rss_mb rose from about 57 MB to 98-106 MB. The records hold none.
    refs = []
    inner_fit = Predictor.fit

    def recording_fit(self, train):
        refs.append(weakref.ref(self))
        return inner_fit(self, train)

    monkeypatch.setattr(Predictor, "fit", recording_fit)
    monkeypatch.setattr(CbrPredictor, "_predict_batch", _boom)  # an unexpected failure too
    cfg = BenchConfig(enabled=DEFAULT_MODEL_IDS, model_params=TENTH_SCALE)
    result = run_bench(cfg, seed=42)
    gc.collect()
    assert len(refs) == len(DEFAULT_MODEL_IDS)
    by_id = {run.model_id: run for run in result.rows}
    assert by_id["cbr"].error == "RuntimeError: boom"
    assert by_id["square_regression"].error.startswith("NEGATIVE_SQRT_DOMAIN")
    alive = [type(ref()).__name__ for ref in refs if ref() is not None]
    assert alive == []


def _bench_config(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(
        "[models]\nenabled = genetic_fuzzy, square_regression, sqrt_regression, cbr\n"
        "[model.genetic_fuzzy]\ngenerations = 2\n"
    )
    return str(path)


def _wrote_lines(capsys, argv) -> list[str]:
    assert cli_main(argv) == 0
    err = capsys.readouterr().err.splitlines()
    return [line.removeprefix("wrote ") for line in err if line.startswith("wrote ")]


def test_error_rows_write_no_files(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(GeneticFuzzyPredictor, "_predict_batch", _boom)
    out = tmp_path / "out"
    wrote = _wrote_lines(
        capsys, ["bench", "--config", _bench_config(tmp_path), "--seed", "42", "--out", str(out)]
    )
    names = ["leaderboard.md", "predictions_cbr.csv", "predictions_sqrt_regression.csv"]
    assert wrote == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(names)
    cfg = BenchConfig(
        enabled=("genetic_fuzzy", "square_regression"),
        model_params={"genetic_fuzzy": {"generations": "2"}},
    )
    result = run_bench(cfg, seed=42)
    assert [run.predicted for run in result.rows] == [None, None]
    assert [run.files for run in result.rows] == [{}, {}]
    assert write_outputs(result, str(tmp_path / "errors")) == [
        str(tmp_path / "errors" / "leaderboard.md")
    ]


def test_written_files_keep_their_order(monkeypatch, tmp_path, capsys):
    # the leaderboard, then predictions by model id, then the extra files by model id
    def extra(self, model_id):
        return {f"extra_{model_id}.csv": [("k",), (1,)]}

    monkeypatch.setattr(CbrPredictor, "output_files", extra)
    out = tmp_path / "out"
    wrote = _wrote_lines(
        capsys,
        ["bench", "--config", _bench_config(tmp_path), "--seed", "42", "--format", "csv",
         "--out", str(out)],
    )
    names = [
        "leaderboard.csv",
        "predictions_cbr.csv",
        "predictions_genetic_fuzzy.csv",
        "predictions_sqrt_regression.csv",
        "extra_cbr.csv",
        "ga_fitness_genetic_fuzzy.csv",
    ]
    assert wrote == [str(out / name) for name in names]
    assert sorted(os.listdir(out)) == sorted(names)
    with open(out / "ga_fitness_genetic_fuzzy.csv", newline="") as fh:
        lines = fh.read().split("\r\n")
    assert lines[0] == "generation,best_mape" and len(lines) == 1 + 3 + 1  # initial + 2, then ""


# Each model's full trace at seed 42, as `costlab predict` prints it: the default
# config, or the named case's model and [model.*] sections.
YEAR_2090 = FeatureVector(100.0, 1000.0, 10.0, 2090.0)
DEGRADED = "DEGRADED: no rule fired; training-mean fallback used"
CONFIGS = {"cbr-weighted": ("cbr", {"cbr": {"k": "3", "weights": "2,1,0.5,1"}})}


@pytest.mark.parametrize(
    "model_id, query, cost, trace",
    [
        (
            "cbr",
            ("test", 0),
            394621.0590601443,
            [
                "retrieved case synth-063 (cost 394621.0590601443) with similarity 0.8454",
                "per-attribute similarity: 0.7734, 0.7083, 0.9005, 0.9994",
            ],
        ),
        (
            "cbr",
            YEAR_2090,
            767661.0618876852,
            [
                "retrieved case synth-123 (cost 767661.0618876852) with similarity 0.8509",
                "per-attribute similarity: 0.6424, 0.9925, 0.8070, 0.9619",
            ],
        ),
        (
            # k > 1: the predicted cost is not the best case's cost
            "cbr-weighted",
            FeatureVector(100.0, 1000.0, 10.0, 2013.0),
            919512.6912295411,
            [
                "retrieved case synth-058 (cost 881047.6604272466) with similarity 0.8946",
                "per-attribute similarity: 0.9966, 0.9255, 0.2157, 0.9992",
            ],
        ),
        (
            "fuzzy",
            ("train", 2),
            797263.8911880341,
            [
                "rule 3 2 7 6 -> 2 fired at 0.6503",
                "rule 3 2 6 6 -> 2 fired at 0.2198",
                "rule 4 2 7 6 -> 3 fired at 0.1719",
                "rule 4 1 6 7 -> 2 fired at 0.0224",
            ],
        ),
        ("fuzzy", YEAR_2090, 1214124.869146717, [DEGRADED]),
        (
            "genetic_fuzzy",
            ("train", 0),
            1702320.8273027386,
            ["rule 4 7 5 6 -> 5 fired at 0.7613", "rule 5 7 5 6 -> 5 fired at 0.1125"],
        ),
        ("genetic_fuzzy", ("train", 1), 1214124.869146717, [DEGRADED]),
        ("sgb", YEAR_2090, None, []),
    ],
)
def test_predict_trace_is_pinned(model_id, query, cost, trace):
    model_id, params = CONFIGS.get(model_id, (model_id, {}))
    cfg = BenchConfig(model_params=params)
    if isinstance(query, tuple):
        train, test = _train_test(cfg, 42)
        query = {"train": train, "test": test}[query[0]][query[1]].features
    result = predict_one(cfg, 42, model_id, query)
    assert result.trace == trace
    if cost is not None:
        assert result.cost == cost
