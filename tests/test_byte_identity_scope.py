"""The scope of the byte-identity guarantee: one machine, one BLAS thread count.

A reduced-iteration ``costlab bench`` run in two fresh processes, one with one
BLAS thread and one with two, may differ only in ``predictions_dnn.csv``: the
DNN's matrix products are large enough for the BLAS to split their sums by
thread, which changes their rounding. Every other output file is the same.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"

# a tenth of the default iterations of every iterative model
REDUCED = "\n".join(
    [f"[model.{m}]\nn_members = 10" for m in ("bagging", "random_forest", "extra_trees",
                                               "adaboost_r2")]
    + [f"[model.{m}]\nn_rounds = 10" for m in ("sgb", "regularized_boosting")]
    + [f"[model.{m}]\nepochs = 300" for m in ("plain_mlp", "sqrt_mlp", "log_mlp")]
    + ["[model.dnn]\nepochs = 100", "[model.genetic_fuzzy]\ngenerations = 20"]
) + "\n"

THREAD_DEPENDENT = {"predictions_dnn.csv"}


def _bench(config: Path, out: Path, threads: int) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                             str(threads)))
    subprocess.run(
        [sys.executable, "-m", "costlab.cli", "bench", "--config", str(config), "--seed", "42",
         "--out", str(out)],
        env=env, check=True, capture_output=True,
    )


def test_only_the_dnn_predictions_depend_on_the_blas_thread_count(tmp_path):
    config = tmp_path / "reduced.ini"
    config.write_text(REDUCED)
    one, two = tmp_path / "one", tmp_path / "two"
    _bench(config, one, 1)
    _bench(config, two, 2)
    names = sorted(path.name for path in one.iterdir())
    assert names == sorted(path.name for path in two.iterdir())
    assert {"leaderboard.md", *THREAD_DEPENDENT} <= set(names)
    _, differ, errors = filecmp.cmpfiles(one, two, names, shallow=False)
    assert errors == []
    assert set(differ) <= THREAD_DEPENDENT, differ
