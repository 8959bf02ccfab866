"""The one predict hook: ``predict_many`` is ``predict`` applied row by row.

Every registry model is fitted once on the first 100 rows of the 144-row
synthetic set, with shortened iteration counts, and queried with the other
44. Batch and scalar predictions are compared as raw float64 bits, and a
failing batch must raise what the first failing row raises on its own.
"""

import numpy as np
import pytest

from conftest import make_dataset
from costlab.data import Dataset, synthesize
from costlab.errors import CostLabError, NegativeSqrtDomainError, UnsupportedMissingError
from costlab.zoo import MODEL_REGISTRY, build_model

SHORT = {
    "plain_mlp": {"epochs": "100"},
    "sqrt_mlp": {"epochs": "100"},
    "log_mlp": {"epochs": "100"},
    "dnn": {"epochs": "20"},
    "bagging": {"n_members": "5"},
    "random_forest": {"n_members": "5"},
    "extra_trees": {"n_members": "5"},
    "adaboost_r2": {"n_members": "5"},
    "sgb": {"n_rounds": "5"},
    "regularized_boosting": {"n_rounds": "5"},
    "genetic_fuzzy": {"population_size": "11", "generations": "3"},
}

_DATA = synthesize(144, seed=42, noise_pct=5.0)
TRAIN, QUERIES = _DATA[:100], _DATA[100:]
_FITTED = {}


def _fitted(model_id):
    if model_id not in _FITTED:
        _FITTED[model_id] = build_model(model_id, SHORT.get(model_id, {}), 3).fit(TRAIN)
    return _FITTED[model_id]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _first_failure(model, dataset):
    """(row index, error) of the first row whose scalar predict raises."""
    for i, rec in enumerate(dataset):
        try:
            model.predict(rec.features)
        except CostLabError as exc:
            return i, exc
    return None, None


@pytest.mark.parametrize(
    "model_id", [m for m in MODEL_REGISTRY if m != "square_regression"]
)
def test_predict_many_is_bitwise_predict_per_row(model_id):
    model = _fitted(model_id)
    scalar = [model.predict(rec.features) for rec in QUERIES]
    assert _bits(model.predict_many(QUERIES)) == _bits(scalar)


def test_square_regression_bitwise_on_the_rows_it_prices():
    model = _fitted("square_regression")
    priced = []
    for rec in QUERIES:
        try:
            priced.append((rec, model.predict(rec.features)))
        except NegativeSqrtDomainError:
            pass
    assert 0 < len(priced) < len(QUERIES)
    batch = model.predict_many(Dataset([rec for rec, _ in priced]))
    assert _bits(batch) == _bits([value for _, value in priced])


def test_square_regression_batch_raises_the_first_failing_rows_error():
    model = _fitted("square_regression")
    index, expected = _first_failure(model, QUERIES)
    assert index is not None and index > 0
    with pytest.raises(type(expected)) as batch:
        model.predict_many(QUERIES)
    assert str(batch.value) == str(expected)


def test_missing_row_error_only_when_no_earlier_row_fails():
    model = _fitted("square_regression")
    index, expected = _first_failure(model, QUERIES)
    assert index is not None and index > 0
    X, y = QUERIES.features_matrix.copy(), QUERIES.targets
    X[index + 1, 1] = np.nan  # after the failing row: the failing row's error wins
    with pytest.raises(type(expected), match="is negative"):
        model.predict_many(make_dataset(X, y))
    X[index - 1, 1] = np.nan  # before it: the missing value is reported
    with pytest.raises(UnsupportedMissingError):
        model.predict_many(make_dataset(X, y))


def test_regularized_boosting_bitwise_with_missing_values():
    model = _fitted("regularized_boosting")
    X, y = QUERIES.features_matrix.copy(), QUERIES.targets
    rng = np.random.default_rng(0)
    for col in range(X.shape[1]):
        X[rng.random(len(y)) < 0.3, col] = np.nan
    queries = make_dataset(X, y)
    assert any(rec.features.has_missing for rec in queries)
    scalar = [model.predict(rec.features) for rec in queries]
    assert _bits(model.predict_many(queries)) == _bits(scalar)
