import dataclasses
import math

import numpy as np
import pytest

from costlab.cart import LEAF, TreeParams, grow, predict_tree
from costlab.ensemble import (
    BoostConfig,
    CombineRule,
    ForestConfig,
    bootstrap_indices,
    fit_adaboost_r2,
    fit_bagging,
    fit_extra_trees,
    fit_gradient_boosting,
    fit_random_forest,
    fit_regularized_booster,
    split_gain,
    weighted_median,
)

DEEP = TreeParams(max_depth=12, min_samples_leaf=1, min_samples_split=2)


def toy(n=30, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 10, (n, 4))
    y = 100.0 + 5.0 * X[:, 0] + 2.0 * X[:, 1] - 3.0 * X[:, 2] + X[:, 3]
    if noise:
        y = y + rng.normal(0, noise, n)
    return X, y


class TestBootstrap:
    def test_single_row_always_itself(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert bootstrap_indices(1, rng).tolist() == [0]

    def test_seed_determinism(self):
        a = bootstrap_indices(50, np.random.default_rng(3)).tolist()
        b = bootstrap_indices(50, np.random.default_rng(3)).tolist()
        assert a == b

    def test_unique_fraction_law(self):
        rng = np.random.default_rng(1)
        fractions = [
            len(np.unique(bootstrap_indices(1000, rng))) / 1000.0 for _ in range(200)
        ]
        assert float(np.mean(fractions)) == pytest.approx(0.632, abs=0.03)


class TestWeightedMedian:
    def test_documented_case(self):
        assert weighted_median([10.0, 20.0], [1.0, 3.0]) == 20.0

    def test_equal_weights_is_median(self):
        assert weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0

    def test_dominant_weight_wins(self):
        assert weighted_median([5.0, 50.0, 500.0], [10.0, 0.1, 0.1]) == 5.0


class TestMeanFamilies:
    def test_single_member_equals_its_tree(self):
        X, y = toy(20, seed=5)
        model = fit_extra_trees(X, y, ForestConfig(n_members=1, seed=9))
        tree = model.members[0][0]
        for row in X[:5]:
            assert model.predict(row[None, :])[0] == predict_tree(tree, row[None, :])[0]

    def test_constant_target_everywhere(self):
        X, _ = toy(15, seed=6)
        y = np.full(15, 88.0)
        for fit in (fit_bagging, fit_random_forest, fit_extra_trees):
            model = fit(X, y, ForestConfig(n_members=5, seed=1))
            assert model.predict(X[:1])[0] == 88.0
            assert model.predict(np.array([[99.0, 99.0, 99.0, 99.0]]))[0] == 88.0

    def test_prediction_within_member_range(self):
        X, y = toy(40, seed=7, noise=10.0)
        rng = np.random.default_rng(8)
        for fit in (fit_bagging, fit_random_forest, fit_extra_trees):
            model = fit(X, y, ForestConfig(n_members=15, seed=2))
            for _ in range(10):
                q = rng.uniform(0, 10, 4)
                outputs = [predict_tree(t, q[None, :])[0] for t, _ in model.members]
                assert min(outputs) - 1e-9 <= model.predict(q[None, :])[0] <= max(outputs) + 1e-9

    def test_determinism_per_seed(self):
        X, y = toy(30, seed=9, noise=5.0)
        q = np.array([3.0, 4.0, 5.0, 6.0])
        for fit in (fit_bagging, fit_random_forest, fit_extra_trees):
            a = fit(X, y, ForestConfig(n_members=10, seed=4)).predict(q[None, :])[0]
            b = fit(X, y, ForestConfig(n_members=10, seed=4)).predict(q[None, :])[0]
            assert a == b


class TestAdaBoostR2:
    def test_perfect_round_stops_with_single_member(self):
        X, _ = toy(12, seed=10)
        y = np.full(12, 42.0)  # constant target: first tree is exact
        model = fit_adaboost_r2(X, y, ForestConfig(n_members=25, seed=0))
        assert len(model.members) == 1
        assert model.predict(X[:1])[0] == 42.0

    def test_initial_weights_uniform(self):
        # reproduce round one externally with explicit 1/n weights
        X, y = toy(25, seed=11, noise=8.0)
        seed = 13
        model = fit_adaboost_r2(
            X, y, ForestConfig(n_members=1, tree=TreeParams(), seed=seed)
        )
        rng = np.random.default_rng(seed)
        idx = rng.choice(25, size=25, replace=True, p=np.full(25, 1.0 / 25.0))
        tree = grow(X[idx], y[idx], TreeParams())
        assert np.array_equal(
            predict_tree(model.members[0][0], X), predict_tree(tree, X)
        )

    def test_weighted_median_combination(self):
        X, y = toy(30, seed=12, noise=10.0)
        model = fit_adaboost_r2(X, y, ForestConfig(n_members=8, seed=3))
        assert model.combine is CombineRule.WEIGHTED_MEDIAN
        q = X[0]
        outputs = [predict_tree(t, q[None, :])[0] for t, _ in model.members]
        weights = [w for _, w in model.members]
        assert model.predict(q[None, :])[0] == weighted_median(outputs, weights)

    def test_member_weights_positive(self):
        X, y = toy(30, seed=13, noise=10.0)
        model = fit_adaboost_r2(X, y, ForestConfig(n_members=10, seed=5))
        assert all(w > 0 for _, w in model.members)


class TestGradientBoosting:
    def test_learning_rate_zero_predicts_mean(self):
        X, y = toy(20, seed=14, noise=5.0)
        cfg = BoostConfig(n_rounds=5, learning_rate=0.0, subsample=1.0, seed=0)
        model = fit_gradient_boosting(X, y, cfg)
        assert model.predict(X[3:4])[0] == pytest.approx(float(np.mean(y)), rel=1e-12)

    def test_single_deep_round_fits_residuals(self):
        X, y = toy(12, seed=15, noise=3.0)
        cfg = BoostConfig(n_rounds=1, learning_rate=1.0, subsample=1.0, tree=DEEP, seed=0)
        model = fit_gradient_boosting(X, y, cfg)
        preds = model.predict(X)
        assert np.allclose(preds, y, rtol=1e-9)

    def test_training_sse_non_increasing_recorded_seed(self):
        X, y = toy(60, seed=16, noise=15.0)
        cfg = BoostConfig(n_rounds=40, learning_rate=0.1, subsample=1.0, seed=0)
        model = fit_gradient_boosting(X, y, cfg)
        pred = np.full(len(y), model.base_score)
        previous = float(np.sum((y - pred) ** 2))
        for tree, weight in model.members:
            pred = pred + weight * predict_tree(tree, X)
            sse = float(np.sum((y - pred) ** 2))
            assert sse <= previous + 1e-9
            previous = sse

    def test_subsampled_variant_deterministic(self):
        X, y = toy(40, seed=17, noise=10.0)
        cfg = BoostConfig(n_rounds=10, learning_rate=0.1, subsample=0.8, seed=6)
        a = fit_gradient_boosting(X, y, cfg).predict(X[1:2])[0]
        b = fit_gradient_boosting(X, y, cfg).predict(X[1:2])[0]
        assert a == b

    def test_shrinkage_convergence_to_base(self):
        X, y = toy(25, seed=18, noise=5.0)
        base = float(np.mean(y))
        for eta in (0.01, 0.001):
            cfg = BoostConfig(n_rounds=3, learning_rate=eta, subsample=1.0, seed=0)
            model = fit_gradient_boosting(X, y, cfg)
            max_leaf = max(
                float(np.max(np.abs(tree.value[tree.feature == LEAF])))
                for tree, _ in model.members
            )
            assert abs(model.predict(X[:1])[0] - base) <= eta * 3 * max_leaf + 1e-12


class TestRegularizedBooster:
    @pytest.mark.parametrize("lam", [2.0, 0.0])
    def test_leaf_weight_of_a_root_only_booster(self, lam):
        # max_depth 0: the root is the one leaf, over the first round's g = mean(y) - y
        X, y = toy(25, seed=18, noise=3.0)
        cfg = BoostConfig(n_rounds=1, learning_rate=1.0, lam=lam, tree=TreeParams(max_depth=0))
        tree = fit_regularized_booster(X, y, cfg).members[0][0]
        g = np.full(y.size, float(np.mean(y))) - y
        assert tree.feature.tolist() == [LEAF]
        assert tree.value[0].hex() == (-float(g.sum()) / (g.size + lam)).hex()
        if lam == 0.0:
            assert tree.value[0] == pytest.approx(-g.mean(), abs=1e-12)

    @pytest.mark.parametrize("lam", [2.0, 0.0])
    def test_leaf_weight_of_each_stump_leaf(self, lam):
        # max_depth 1: each leaf's weight is -G/(n + lam) over its own rows, the
        # mean residual when lam is 0
        X, y = toy(25, seed=18, noise=3.0)
        cfg = BoostConfig(n_rounds=1, learning_rate=1.0, lam=lam, tree=TreeParams(max_depth=1))
        tree = fit_regularized_booster(X, y, cfg).members[0][0]
        g = np.full(y.size, float(np.mean(y))) - y
        go_left = X[:, tree.feature[0]] <= tree.threshold[0]
        for leaf, rows in ((tree.right[0] - 1, go_left), (tree.right[0], ~go_left)):
            expected = -float(g[rows].sum()) / (rows.sum() + lam)
            assert tree.value[leaf] == expected and abs(expected) > 1.0
            if lam == 0.0:
                assert tree.value[leaf] == pytest.approx(-g[rows].mean())

    def test_round_one_equals_plain_gradient_boosting_tree(self):
        X, y = toy(30, seed=19, noise=8.0)
        tree_params = TreeParams(max_depth=4, min_samples_leaf=2, min_samples_split=4)
        boost = fit_regularized_booster(
            X, y,
            BoostConfig(n_rounds=1, learning_rate=1.0, lam=0.0, gamma=0.0,
                        tree=tree_params, seed=0),
        )
        plain = fit_gradient_boosting(
            X, y,
            BoostConfig(n_rounds=1, learning_rate=1.0, subsample=1.0,
                        tree=tree_params, seed=0),
        )
        assert np.allclose(boost.predict(X), plain.predict(X), rtol=1e-10)

    def test_gain_non_increasing_in_gamma(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            gl, gr = rng.normal(0, 5, 2)
            hl, hr = rng.uniform(1, 10, 2)
            lam = float(rng.uniform(0, 5))
            gammas = np.linspace(0, 5, 6)
            gains = [split_gain(gl, hl, gr, hr, lam, g) for g in gammas]
            assert all(b <= a for a, b in zip(gains, gains[1:]))

    def test_gain_non_increasing_in_lambda_while_positive(self):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(200):
            gl, gr = rng.normal(0, 5, 2)
            hl, hr = rng.uniform(1, 10, 2)
            lams = np.linspace(0.0, 10.0, 21)
            gains = [split_gain(gl, hl, gr, hr, lam, 0.0) for lam in lams]
            for a, b in zip(gains, gains[1:]):
                if a >= 0:
                    assert b <= a + 1e-12
                    checked += 1
        assert checked > 100

    def test_missing_values_train_and_predict(self):
        rng = np.random.default_rng(22)
        X, y = toy(50, seed=22, noise=5.0)
        X = X.copy()
        missing_rows = rng.random(50) < 0.3
        X[missing_rows, 1] = np.nan
        cfg = BoostConfig(n_rounds=20, learning_rate=0.1, seed=0)
        model = fit_regularized_booster(X, y, cfg)
        q = np.array([5.0, np.nan, 5.0, 5.0])
        assert math.isfinite(model.predict(q[None, :])[0])
        assert math.isfinite(model.predict(X[:1])[0])

    def test_default_direction_learned_from_data(self):
        # step in P1; missing P1 values occur only on the high side
        rng = np.random.default_rng(23)
        n = 40
        X = np.column_stack([
            np.concatenate([rng.uniform(0, 4, 20), rng.uniform(6, 10, 20)]),
            rng.uniform(0, 1, n),
            rng.uniform(0, 1, n),
            rng.uniform(0, 1, n),
        ])
        y = np.where(X[:, 0] <= 5.0, 0.0, 100.0)
        X[25:32, 0] = np.nan  # high-side rows lose their P1
        cfg = BoostConfig(
            n_rounds=1, learning_rate=1.0, lam=0.0, gamma=0.0,
            tree=TreeParams(max_depth=1, min_samples_leaf=1, min_samples_split=2), seed=0,
        )
        model = fit_regularized_booster(X, y, cfg)
        tree, weight = model.members[0]
        assert tree.feature[0] == 0
        assert tree.default_left[0] == 0  # missing rows belong with the high step
        learned_sse = float(np.sum((model.predict(X) - y) ** 2))
        forced_default = tree.default_left.copy()
        forced_default[0] = 1  # force the opposite routing
        forced_tree = dataclasses.replace(tree, default_left=forced_default)
        forced = dataclasses.replace(model, members=[(forced_tree, weight)])
        forced_sse = float(np.sum((forced.predict(X) - y) ** 2))
        assert learned_sse < forced_sse

    def test_a_zero_gradient_sum_stores_negative_zero(self):
        # rounded, tie-heavy targets whose mean is exact: the first root's
        # gradients g = pred - y sum to exactly +0.0, so its weight -G/(n + lam)
        # is -0.0; a booster grown on residuals y - pred would store +0.0
        X = np.column_stack([
            [3, 2, 2, 1, 1, 0, 0, 0, 0, 3, 2, 3, 2, 2, 3, 2, 2, 2, 2, 3, 1, 3, 2, 0],
            [1, 2, 1, 0, 2, 2, 2, 0, 0, 2, 0, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 2, 1, 1],
        ]).astype(float)
        y = np.array([0, 1, 2, 1, 1, 2, 2, 2, 1, 2, 2, 1, 2, 2, 2, 1, 2, 0, 1, 2, 2, 1, 1, 0.0])
        cfg = BoostConfig(n_rounds=2, learning_rate=0.5, lam=1.0,
                          tree=TreeParams(max_depth=2, min_samples_leaf=1, min_samples_split=2))
        model = fit_regularized_booster(X, y, cfg)
        shape = dict(feature=[1, 0, 1, -1, -1, -1, -1], right=[2, 4, 6, 3, 4, 5, 6],
                     default_left=[1, 1, 1, -1, -1, -1, -1], depth=[0, 1, 1, 2, 2, 2, 2],
                     threshold=["0x1.0000000000000p-1", "0x1.4000000000000p+1",
                                "0x1.8000000000000p+0"] + ["nan"] * 4)
        values = [
            ["-0x0.0p+0", "0x1.d1745d1745d17p-4", "-0x1.5555555555555p-4",
             "0x1.0000000000000p-4", "0x1.4000000000000p-2", "-0x1.c71c71c71c71cp-3",
             "0x1.b6db6db6db6dbp-4"],
            ["0x1.54aee487e2185p-8", "0x1.2e8ba2e8ba2e9p-4", "-0x1.74c1f6ca174c0p-5",
             "0x1.199999999999ap-5", "0x1.e000000000000p-3", "-0x1.f9add3c0ca455p-4",
             "0x1.f58d0fac687d2p-5"],
        ]
        assert model.base_score.hex() == "0x1.6000000000000p+0"
        assert [w for _, w in model.members] == [0.5, 0.5]
        for (tree, _), value in zip(model.members, values, strict=True):
            assert [v.hex() for v in tree.value.tolist()] == value
            assert [v.hex() for v in tree.threshold.tolist()] == shape["threshold"]
            for name in ("feature", "right", "default_left", "depth"):
                assert getattr(tree, name).tolist() == shape[name], name

    def test_additive_combination_and_determinism(self):
        X, y = toy(35, seed=24, noise=8.0)
        cfg = BoostConfig(n_rounds=15, learning_rate=0.1, seed=7)
        a = fit_regularized_booster(X, y, cfg)
        b = fit_regularized_booster(X, y, cfg)
        assert a.combine is CombineRule.ADDITIVE
        assert a.base_score == pytest.approx(float(np.mean(y)), rel=1e-12)
        q = np.array([2.0, 3.0, 4.0, 5.0])
        assert a.predict(q[None, :])[0] == b.predict(q[None, :])[0]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=1.5)
        with pytest.raises(ValueError):
            BoostConfig(lam=-1.0)
        with pytest.raises(ValueError):
            BoostConfig(subsample=0.0)
