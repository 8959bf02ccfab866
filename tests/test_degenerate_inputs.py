"""Every model on degenerate training sets fails with a CostLabError or predicts finite values.

The sets are one row, two rows, five rows, constant features and a constant
target. Iteration counts are cut so the sweep stays fast; the degenerate
shapes, not the iteration counts, are what is under test.
"""

import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from costlab.errors import CostLabError, RankDeficientError
from costlab.zoo import DEFAULT_MODEL_IDS, MODEL_REGISTRY, build_model

SHORT_RUNS = {
    "epochs": "5",
    "n_members": "3",
    "n_rounds": "3",
    "generations": "3",
    "population_size": "8",
    "max_passes": "5",
}

TRAINING_SETS = {
    "one_row": random_dataset(1, seed=1),
    "two_rows": random_dataset(2, seed=2),
    "five_rows": random_dataset(5, seed=5),
    "constant_features": make_dataset(
        np.tile([120.0, 1500.0, 30.0, 2012.0], (8, 1)), np.linspace(2000.0, 3000.0, 8)
    ),
    "constant_target": random_dataset(8, seed=8, target_fn=lambda X: np.full(len(X), 2500.0)),
}

QUERIES = random_dataset(6, seed=99)


def _short_run_params(model_id):
    keys = MODEL_REGISTRY[model_id].param_keys
    return {key: value for key, value in SHORT_RUNS.items() if key in keys}


@pytest.mark.parametrize("set_name", TRAINING_SETS)
@pytest.mark.parametrize("model_id", DEFAULT_MODEL_IDS)
def test_fit_fails_cleanly_or_predicts_finite_values(model_id, set_name):
    train = TRAINING_SETS[set_name]
    # an affine fit has five parameters
    underdetermined = MODEL_REGISTRY[model_id].family == "transformed regression" and len(train) < 5
    model = build_model(model_id, _short_run_params(model_id), seed=0)
    try:
        predictions = model.fit(train).predict_many(QUERIES)
    except CostLabError as exc:
        assert not underdetermined or exc.code == RankDeficientError.code
        return
    assert not underdetermined, "a regression on fewer rows than parameters must be rejected"
    assert predictions.shape == (len(QUERIES),)
    assert np.isfinite(predictions).all()
