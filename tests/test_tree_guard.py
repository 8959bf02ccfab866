"""Bit-for-bit guard on every tree learner's predictions.

Each case fits one zoo model on a small fixed dataset and compares its
predictions, as ``float.hex`` strings, with pinned values. A change to split
search, tie-breaking, leaf values or the order of RNG draws changes at least
one bit here, so refactors of the tree layer must leave this file passing.
The training set repeats some rows, so nodes that are pure or have constant
features are grown too; the missing-value case trains the regularized booster
on rows with NaN features and routes NaN queries.
"""

import numpy as np
import pytest

from conftest import make_dataset
from costlab.zoo import build_model

SEED = 20240607


def _training_arrays(n=36, seed=11, missing=False):
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.uniform(20, 300, n),
            rng.uniform(200, 3000, n),
            rng.integers(5, 12, n).astype(float),
            rng.integers(2010, 2016, n).astype(float),
        ]
    )
    y = 1000.0 + 3.0 * X[:, 0] + 0.5 * X[:, 1] + 10.0 * X[:, 2]
    y = y * (1.0 + rng.uniform(-0.05, 0.05, n))
    # repeated rows give pure nodes and nodes with constant features
    X = np.vstack([X, X[:6]])
    y = np.concatenate([y, y[:6]])
    if missing:
        X[rng.random(X.shape[0]) < 0.2, 0] = np.nan
        X[rng.random(X.shape[0]) < 0.2, 2] = np.nan
    return X, y


def _queries(missing=False):
    rng = np.random.default_rng(5)
    Q = np.column_stack(
        [
            rng.uniform(20, 300, 6),
            rng.uniform(200, 3000, 6),
            rng.integers(5, 12, 6).astype(float),
            rng.integers(2010, 2016, 6).astype(float),
        ]
    )
    if missing:
        Q[1, 0] = np.nan
        Q[3, 2] = np.nan
        Q[4, 0] = Q[4, 2] = np.nan
    return Q


def predictions_hex(model_id, params, missing=False):
    X, y = _training_arrays(missing=missing)
    model = build_model(model_id, params, SEED).fit(make_dataset(X, y))
    queries = make_dataset(_queries(missing), np.ones(6), prefix="q")
    return [float(v).hex() for v in model.predict_many(queries)]


SHALLOW = {"max_depth": "4"}
DEEP = {"max_depth": "12", "min_samples_leaf": "1", "min_samples_split": "2"}

CASES = {
    "cart": ("cart", {}, False),
    "cart_deep": ("cart", DEEP, False),
    "bagging": ("bagging", {"n_members": "4", **SHALLOW}, False),
    "random_forest": ("random_forest", {"n_members": "4"}, False),
    "random_forest_deep": ("random_forest", {"n_members": "3", **DEEP}, False),
    "extra_trees": ("extra_trees", {"n_members": "4"}, False),
    "extra_trees_deep": ("extra_trees", {"n_members": "3", **DEEP}, False),
    "adaboost_r2": ("adaboost_r2", {"n_members": "5", **SHALLOW}, False),
    "sgb": ("sgb", {"n_rounds": "5", **SHALLOW}, False),
    "gradient_boosting": ("sgb", {"n_rounds": "4", "subsample": "1.0", **SHALLOW}, False),
    "regularized_boosting": ("regularized_boosting", {"n_rounds": "4", **SHALLOW}, False),
    "regularized_boosting_missing": (
        "regularized_boosting",
        {"n_rounds": "4", "lam": "0.5", "gamma": "1.0", **SHALLOW},
        True,
    ),
}

EXPECTED = {
    "adaboost_r2": [
        "0x1.0ed71c192f0e5p+11",
        "0x1.02b87e6aabcd6p+11",
        "0x1.cd5107245c6e0p+10",
        "0x1.4b25a60eeec5cp+11",
        "0x1.2deeea0f05eb5p+11",
        "0x1.cd5107245c6e0p+10",
    ],
    "bagging": [
        "0x1.06dc0e3c9dd23p+11",
        "0x1.0daf61a235a2fp+11",
        "0x1.b7322e09043ccp+10",
        "0x1.493c91f02db24p+11",
        "0x1.2f5007b1488c0p+11",
        "0x1.c2febd0e66b92p+10",
    ],
    "cart": [
        "0x1.0400619059606p+11",
        "0x1.0400619059606p+11",
        "0x1.c066e9ca48800p+10",
        "0x1.4468833ea1128p+11",
        "0x1.2deeea0f05eb5p+11",
        "0x1.c066e9ca48800p+10",
    ],
    "cart_deep": [
        "0x1.0ed71c192f0e5p+11",
        "0x1.0ed71c192f0e5p+11",
        "0x1.c37372ee1c23ap+10",
        "0x1.56182fecaaf71p+11",
        "0x1.3174f8af27935p+11",
        "0x1.cd1a7dcdd6533p+10",
    ],
    "extra_trees": [
        "0x1.1321ebe4eb632p+11",
        "0x1.d36a3760a8d5ap+10",
        "0x1.c06c6fdcb8418p+10",
        "0x1.5bc1f9506e96ep+11",
        "0x1.308ffa2f85c48p+11",
        "0x1.caa0e183452cfp+10",
    ],
    "extra_trees_deep": [
        "0x1.f7d524a459568p+10",
        "0x1.e8583d774c318p+10",
        "0x1.ae9b91f10581bp+10",
        "0x1.56182fecaaf71p+11",
        "0x1.2a0de44261589p+11",
        "0x1.d63799e31b44cp+10",
    ],
    "gradient_boosting": [
        "0x1.0bbd34f055700p+11",
        "0x1.0bbd34f055700p+11",
        "0x1.00d15d174d788p+11",
        "0x1.21e379a92bca3p+11",
        "0x1.1a28d010a2079p+11",
        "0x1.f39dea6ce3d73p+10",
    ],
    "random_forest": [
        "0x1.0c619a3f3b9eep+11",
        "0x1.0c3e16e756914p+11",
        "0x1.bcd3eb64cbddcp+10",
        "0x1.5c422c49a7320p+11",
        "0x1.2e17f941024c0p+11",
        "0x1.cc75a67f6700ap+10",
    ],
    "random_forest_deep": [
        "0x1.178b5c0de371fp+11",
        "0x1.2f10a25a7f2a4p+11",
        "0x1.ae9b91f10581bp+10",
        "0x1.4515fd15c3a17p+11",
        "0x1.0acf879e5c571p+11",
        "0x1.ac9c72309524fp+10",
    ],
    "regularized_boosting": [
        "0x1.0cf35f2f305bap+11",
        "0x1.0cf35f2f305bap+11",
        "0x1.01f0f274c7500p+11",
        "0x1.1f4360d1323acp+11",
        "0x1.1aae582ce778cp+11",
        "0x1.ec536e57271e1p+10",
    ],
    "regularized_boosting_missing": [
        "0x1.0c6a8f38bb4e8p+11",
        "0x1.0228baba457abp+11",
        "0x1.0228baba457abp+11",
        "0x1.1dbbc915c428ep+11",
        "0x1.2d30c530b53c2p+11",
        "0x1.0228baba457abp+11",
    ],
    "sgb": [
        "0x1.106ed3c7fabc9p+11",
        "0x1.076f1e0ddff97p+11",
        "0x1.fe076c04ef5f0p+10",
        "0x1.22be21195ee2ep+11",
        "0x1.1bcf81c8f6f41p+11",
        "0x1.f09cc480bdf79p+10",
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_predictions_unchanged(case):
    model_id, params, missing = CASES[case]
    assert predictions_hex(model_id, params, missing) == EXPECTED[case]


@pytest.mark.parametrize(
    "model_id, params, kind, supports_missing",
    [
        ("cart", {}, "cart", False),
        ("bagging", {}, "bagging", False),
        ("random_forest", {}, "random_forest", False),
        ("extra_trees", {}, "extra_trees", False),
        ("adaboost_r2", {}, "adaboost_r2", False),
        ("sgb", {}, "stochastic_gradient_boosting", False),
        ("sgb", {"subsample": "1.0"}, "gradient_boosting", False),
        ("regularized_boosting", {}, "regularized_boosting", True),
    ],
)
def test_model_kind_and_missing_support(model_id, params, kind, supports_missing):
    model = build_model(model_id, params, SEED)
    assert model.model_kind == kind
    assert model.supports_missing is supports_missing
