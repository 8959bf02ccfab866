"""``core.Predictor`` is the one gate on data.

The families below it assume a nonempty training set and finite query rows,
unless they route missing values, and check neither. Every registry model,
built through ``zoo.build_model``, must reject an empty training set as
EMPTY_TRAIN and a training NaN as UNSUPPORTED_MISSING (the booster trains on
it), and must reject an infinite or NaN query value anywhere in a 400-row
batch as UNSUPPORTED_MISSING, after the rows before it were priced (the
booster routes it instead). ``costlab predict`` prices a vector before its
``explain`` hook reads it.
"""

import re
import types

import numpy as np
import pytest

from conftest import make_dataset
from test_predict_contract import SHORT, TRAIN, _fitted
from costlab.bench import BenchConfig, predict_one
from costlab.cbr import CbrPredictor
from costlab.core import Predictor
from costlab.data import Dataset, FeatureVector, synthesize
from costlab.errors import CostLabError, EmptyTrainError, UnsupportedMissingError
from costlab.fuzzy import FuzzyPredictor
from costlab.zoo import MODEL_REGISTRY, build_model

ROUTES_MISSING = "regularized_boosting"
PORTFOLIO = synthesize(400, seed=7, noise_pct=5.0).features_matrix


@pytest.mark.parametrize("model_id", MODEL_REGISTRY)
def test_an_empty_training_set_is_rejected(model_id):
    with pytest.raises(EmptyTrainError) as caught:
        build_model(model_id, {}, 0).fit(Dataset([]))
    assert caught.value.code == "EMPTY_TRAIN"


@pytest.mark.parametrize("model_id", MODEL_REGISTRY)
def test_a_missing_training_value_is_rejected_unless_the_family_routes_it(model_id):
    X = TRAIN.features_matrix.copy()
    X[7, 2] = np.nan
    train = make_dataset(X, TRAIN.targets)
    model = build_model(model_id, SHORT.get(model_id, {}), 0)
    if model_id == ROUTES_MISSING:
        assert np.isfinite(model.fit(train).predict_many(TRAIN)).all()
        return
    with pytest.raises(UnsupportedMissingError) as caught:
        model.fit(train)
    assert caught.value.code == "UNSUPPORTED_MISSING"


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("row", [0, 63, 64, 399])
@pytest.mark.parametrize("model_id", MODEL_REGISTRY)
def test_a_non_finite_query_value_is_missing(monkeypatch, model_id, row, value):
    model = _fitted(model_id)
    try:  # an earlier row's own error wins (square_regression's negative roots)
        model.predict_many(types.SimpleNamespace(features_matrix=PORTFOLIO[:row]))
        expected = UnsupportedMissingError(
            f"{model.model_kind} cannot predict with missing feature values"
        )
    except CostLabError as exc:
        expected = exc
    X = PORTFOLIO.copy()
    X[row, row % 4] = value
    priced = []
    family_batch = type(model)._predict_batch

    def counted(self, rows):
        priced.append(len(rows))
        return family_batch(self, rows)

    monkeypatch.setattr(type(model), "_predict_batch", counted)
    batch = types.SimpleNamespace(features_matrix=X)  # a Dataset holds no infinite value
    if model_id == ROUTES_MISSING:
        assert np.isfinite(model.predict_many(batch)).all()
        assert priced == [len(X)]
        return
    with pytest.raises(type(expected), match=f"^{re.escape(str(expected))}$"):
        model.predict_many(batch)
    assert priced == [row]  # the rows before it, in one call


@pytest.mark.parametrize("model_id", ["cbr", "fuzzy", "genetic_fuzzy"])
def test_predict_one_rejects_a_missing_slot_before_explain(monkeypatch, model_id):
    """The families with an ``explain`` hook: it reads only a vector ``predict`` priced."""

    def explain(self, x):
        raise AssertionError("explain ran on an unpriced vector")

    for cls in (Predictor, CbrPredictor, FuzzyPredictor):
        monkeypatch.setattr(cls, "explain", explain)
    with pytest.raises(UnsupportedMissingError):
        predict_one(
            BenchConfig(enabled=(model_id,)), 42, model_id, FeatureVector(100.0, None, 10.0, 2013.0)
        )
