"""Bit-for-bit checks of the tree learners' batch pricing against its reference forms.

``cart.walk_trees`` walks every (row, root) pair as one flat index vector,
``EnsembleModel.predict`` combines the additive boosters with ``np.vecdot``,
and ``ensemble.weighted_median`` picks its value by direct indexing. The
oracles keep the (n, roots) walk with ``np.where``, the per-row ``np.dot``
and the ``np.take_along_axis`` median that they replaced. Every comparison
is of float64 bit patterns.
"""

import numpy as np
import pytest

from costlab.bench import derive_seed
from costlab.cart import TreeParams, grow, walk_trees
from costlab.data import SplitSpec, split, synthesize
from costlab.ensemble import (
    BoostConfig,
    CombineRule,
    EnsembleModel,
    fit_gradient_boosting,
    fit_regularized_booster,
    weighted_median,
)
from costlab.errors import UnsupportedMissingError
from costlab.zoo import build_model
from oracles import ensemble_predict_per_row, walk_trees_2d, weighted_median_take_along_axis

SEED = 42
# each tree learner and the parameter that sets its member count
MEMBERS_KEY = {
    "cart": None,
    "bagging": "n_members",
    "random_forest": "n_members",
    "extra_trees": "n_members",
    "adaboost_r2": "n_members",
    "sgb": "n_rounds",
    "regularized_boosting": "n_rounds",
}
ROW_COUNTS = (0, 1, 33, 400)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.fixture(scope="module")
def portfolio():
    """The 400 rows that the scoring benchmark prices at seed 42."""
    return synthesize(400, seed=derive_seed(SEED, "portfolio"), noise_pct=5.0).features_matrix


@pytest.fixture(scope="module", params=[10, 100], ids=["benchmark_scale", "default_members"])
def models(request):
    """Every tree learner fitted on the default benchmark's 111 training rows,
    with the benchmark's 10 members or rounds, or the default 100."""
    dataset = synthesize(144, seed=derive_seed(SEED, "data"), noise_pct=5.0)
    train, _ = split(dataset, SplitSpec(seed=derive_seed(SEED, "split")))
    fitted = {}
    for model_id, key in MEMBERS_KEY.items():
        params = {} if key is None or request.param == 100 else {key: str(request.param)}
        predictor = build_model(model_id, params, derive_seed(SEED, model_id)).fit(train)
        fitted[model_id] = predictor.model
    return fitted


def test_default_members_are_one_hundred(models):
    members = {len(model.members) for model_id, model in models.items()
               if model_id not in ("cart", "adaboost_r2")}  # AdaBoost.R2 may stop early
    assert members in ({10}, {100})


@pytest.mark.parametrize("n_rows", ROW_COUNTS)
@pytest.mark.parametrize("model_id", list(MEMBERS_KEY))
def test_batch_matches_reference(models, portfolio, model_id, n_rows):
    model = models[model_id]
    X = portfolio[:n_rows]
    walked = walk_trees(model._nodes, X)
    assert walked.shape == (n_rows, len(model.members))
    assert np.array_equal(bits(walked), bits(walk_trees_2d(model._nodes, X)))
    got = model.predict(X)
    assert got.shape == (n_rows,)
    assert np.array_equal(bits(got), bits(ensemble_predict_per_row(model, X)))


@pytest.mark.parametrize("model_id", list(MEMBERS_KEY))
def test_each_row_is_its_one_row_call(models, portfolio, model_id):
    model = models[model_id]
    X = portfolio[:33]
    one_row = [model.predict(X[i:i + 1])[0] for i in range(X.shape[0])]
    assert np.array_equal(bits(model.predict(X)), bits(one_row))


def test_walk_reads_any_memory_layout(models, portfolio):
    model = models["bagging"]
    X = portfolio[:33]
    expected = bits(model.predict(X))
    assert np.array_equal(bits(model.predict(np.asfortranarray(X))), expected)
    wide = np.repeat(X, 2, axis=1)[:, ::2]  # a strided view of the same values
    assert np.array_equal(bits(model.predict(wide)), expected)


def _with_missing(n, seed):
    rng = np.random.default_rng(seed)
    data = synthesize(n, seed=seed, noise_pct=5.0)
    X = data.features_matrix.copy()
    X[rng.random(n) < 0.25, 0] = np.nan
    X[rng.random(n) < 0.25, 2] = np.nan
    return X, data.targets


def test_regularized_booster_routes_missing_values_by_default_direction():
    X, y = _with_missing(111, 3)
    model = fit_regularized_booster(X, y, BoostConfig(n_rounds=10, tree=TreeParams(max_depth=4)))
    assert (model._nodes.default_left >= 0).any()
    Q, _ = _with_missing(400, 4)
    assert np.isnan(Q).any()
    assert np.array_equal(bits(walk_trees(model._nodes, Q)), bits(walk_trees_2d(model._nodes, Q)))
    assert np.array_equal(bits(model.predict(Q)), bits(ensemble_predict_per_row(model, Q)))


def test_tree_without_default_directions_rejects_missing_value():
    data = synthesize(60, seed=5, noise_pct=5.0)
    tree = grow(data.features_matrix, data.targets, TreeParams(max_depth=3))
    X = data.features_matrix[:5].copy()
    X[2, tree.feature[0]] = np.nan  # the root's feature: every walk reads it
    for walk in (walk_trees, walk_trees_2d):
        with pytest.raises(UnsupportedMissingError, match="without missing-value default"):
            walk(tree, X)
    X[2] = data.features_matrix[2]
    X[3, [f for f in range(4) if f not in tree.feature]] = np.nan  # a feature no split reads
    assert np.array_equal(bits(walk_trees(tree, X)), bits(walk_trees_2d(tree, X)))


@pytest.mark.parametrize("shape", [(1,), (7,), (10,), (0, 10), (1, 10), (400, 10), (33, 7)])
def test_weighted_median_matches_reference(shape):
    rng = np.random.default_rng(sum(shape))
    values = rng.integers(0, 5, shape).astype(float)  # ties: the stable order decides
    values[values == 3.0] = rng.normal(size=int((values == 3.0).sum()))
    weights = rng.uniform(0.1, 2.0, shape[-1])
    got = weighted_median(values, weights)
    expected = weighted_median_take_along_axis(values, weights)
    assert np.shape(got) == np.shape(expected) == shape[:-1]
    assert np.array_equal(bits(got), bits(expected))


def test_additive_model_with_zero_base_score(portfolio):
    data = synthesize(111, seed=8, noise_pct=5.0)
    boosted = fit_gradient_boosting(data.features_matrix, data.targets,
                                    BoostConfig(n_rounds=10, subsample=0.8))
    model = EnsembleModel(boosted.members, CombineRule.ADDITIVE)
    assert model.base_score == 0.0
    for n_rows in ROW_COUNTS:
        X = portfolio[:n_rows]
        assert np.array_equal(bits(model.predict(X)), bits(ensemble_predict_per_row(model, X)))
    outputs = walk_trees_2d(model._nodes, portfolio)
    expected = np.array([np.dot(model._weights, row) for row in outputs])
    assert np.array_equal(bits(model.predict(portfolio)), bits(0.0 + expected))

