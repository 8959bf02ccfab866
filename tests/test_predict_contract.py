"""The one predict hook: ``predict_many`` is ``predict`` applied row by row.

Every registry model is fitted once on the first 100 rows of the 144-row
synthetic set, with shortened iteration counts, and queried with the other
44. Batch and scalar predictions are compared as raw float64 bits, and a
failing batch must raise what the first failing row raises on its own.
A row's prediction must also not depend on the other rows of its batch: a
shuffled 400-row portfolio prices each row as the unshuffled one does.
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
    assert queries.has_missing_features
    scalar = [model.predict(rec.features) for rec in queries]
    assert _bits(model.predict_many(queries)) == _bits(scalar)


_PORTFOLIO = synthesize(400, seed=7, noise_pct=5.0)
_SHUFFLE = np.random.default_rng(11).permutation(len(_PORTFOLIO))
BATCH_SIZES = (1, 2, 3, 7, 8, 9, 33, 128, 400)


def _priced_rows(model):
    """The portfolio rows the model prices one at a time, and their predictions."""
    rows, values = [], []
    for rec in _PORTFOLIO:
        try:
            values.append(model.predict(rec.features))
        except NegativeSqrtDomainError:
            continue
        rows.append(rec)
    return rows, values


@pytest.mark.parametrize("model_id", list(MODEL_REGISTRY))
def test_predict_many_is_row_invariant_on_a_shuffled_portfolio(model_id):
    model = _fitted(model_id)
    rows, scalar = _priced_rows(model)
    assert len(rows) > 100
    perm = [i for i in _SHUFFLE if i < len(rows)]
    batch = model.predict_many(Dataset(rows))
    shuffled = model.predict_many(Dataset([rows[i] for i in perm]))
    assert _bits(shuffled) == _bits(batch[perm])
    assert _bits(batch) == _bits(scalar)


@pytest.mark.parametrize("model_id", ["plain_mlp", "sqrt_mlp", "log_mlp", "dnn", "svr"])
def test_batch_size_does_not_move_a_row(model_id):
    model = _fitted(model_id)
    rows = [_PORTFOLIO[i] for i in _SHUFFLE]
    scalar = [model.predict(rec.features) for rec in rows]
    for n in BATCH_SIZES:
        assert _bits(model.predict_many(Dataset(rows[:n]))) == _bits(scalar[:n]), n
