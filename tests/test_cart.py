import numpy as np
import pytest

from conftest import node_sizes, random_dataset
from costlab.cart import (
    LEAF,
    TreeParams,
    best_split,
    grow,
    predict_tree,
    split_shortlist,
)
from costlab.ensemble import BoostConfig, fit_regularized_booster
from costlab.metrics import mape
from costlab.zoo import build_model
from oracles import cart_key, check_tie_rule, exact_gain, left_mask


def brute_force_split(X, y, min_leaf=1):
    """Independent exhaustive enumeration in pure Python."""
    n = len(y)
    best = None

    def sse(values):
        if not values:
            return 0.0
        mean = sum(values) / len(values)
        return sum((v - mean) ** 2 for v in values)

    parent = sse(list(y))
    for f in range(X.shape[1]):
        distinct = sorted(set(X[:, f]))
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2
            left = [y[i] for i in range(n) if X[i, f] <= threshold]
            right = [y[i] for i in range(n) if X[i, f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - sse(left) - sse(right)
            if gain > 0 and (best is None or gain > best[2]):
                best = (f, threshold, gain)
    return best


class TestBestSplit:
    def test_hand_example(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, gain = best_split(X, y)
        assert (feature, threshold) == (0, 2.5)
        assert gain == pytest.approx(100.0, rel=1e-12)

    def test_constant_target_gives_none(self):
        X = np.array([[1.0], [2.0], [3.0]])
        assert best_split(X, np.array([7.0, 7.0, 7.0])) is None

    def test_constant_feature_gives_none(self):
        X = np.ones((5, 2))
        assert best_split(X, np.arange(5.0)) is None

    def test_min_samples_leaf_respected(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 10.0, 10.0, 10.0])
        result = best_split(X, y, min_samples_leaf=2)
        assert result is not None
        assert result[1] == 2.5  # the 1-vs-3 split at 1.5 is forbidden

    def test_matches_brute_force_on_random_data(self):
        # the same split, or an exact tie with ours first in (feature, threshold) order
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            X = rng.uniform(0, 10, (n, 2))
            y = rng.uniform(0, 100, n)
            mine = best_split(X, y)
            oracle = brute_force_split(X, y)
            tol = split_shortlist([(X, y)], 1)[0].tol
            check_tie_rule(cart_key(mine), cart_key(oracle),
                           lambda k: exact_gain(y, left_mask(X, *k)), tol)
            if mine is not None and oracle is not None:
                assert mine[2] == pytest.approx(oracle[2], rel=1e-9)

    def test_tie_breaks_to_lowest_feature(self):
        # identical columns induce identical partitions and exactly equal gains
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        feature, threshold, _ = best_split(X, y)
        assert (feature, threshold) == (0, 2.5)


class TestGrow:
    def test_depth_zero_is_single_leaf(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([1.0, 2.0, 3.0, 6.0])
        tree = grow(X, y, TreeParams(max_depth=0, min_samples_leaf=1, min_samples_split=2))
        assert tree.feature.tolist() == [LEAF]
        assert tree.value[0] == pytest.approx(3.0)

    def test_recovers_two_leaf_step_function(self):
        X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([5.0, 5.0, 5.0, 9.0, 9.0, 9.0])
        tree = grow(X, y)
        assert tree.feature[0] == 0 and tree.threshold[0] == 6.5
        left, right = tree.right[0] - 1, tree.right[0]
        assert tree.feature[left] == LEAF and tree.value[left] == 5.0
        assert tree.feature[right] == LEAF and tree.value[right] == 9.0

    def test_every_training_row_predicts_its_leaf_mean(self):
        """Bit for bit: the pairwise sum of the leaf's rows in row order, over their count."""
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 10, (40, 4))
        y = rng.uniform(0, 100, 40)
        tree = grow(X, y)
        for leaf, rows in _leaf_rows(tree, X).items():
            assert tree.value[leaf] == float(np.sum(y[rows])) / len(rows)
            assert len(rows) >= TreeParams().min_samples_leaf

    def test_every_booster_leaf_is_its_rows_weight_bit_for_bit(self):
        """A one-round booster leaf is -G/(n + lam) over the gradients of the rows
        routed to it in row order, a missing value taking each split's default."""
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, (60, 4))
        X[rng.random(X.shape) < 0.2] = np.nan
        y = rng.uniform(0, 100, 60)
        cfg = BoostConfig(n_rounds=1, lam=1.5)
        model = fit_regularized_booster(X, y, cfg)
        (tree, _), = model.members
        g = model.base_score - y  # the first round's gradients, pred - y
        directions = {int(tree.default_left[node]) for x in X for node in _path(tree, x)
                      if tree.feature[node] != LEAF and np.isnan(x[tree.feature[node]])}
        assert directions == {0, 1}  # missing rows went both ways
        for leaf, rows in _leaf_rows(tree, X).items():
            assert tree.value[leaf] == -float(np.sum(g[rows])) / (len(rows) + cfg.lam)

    def test_mass_conservation(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            X = rng.uniform(0, 10, (50, 3))
            y = rng.uniform(0, 100, 50)
            tree = grow(X, y)
            leaves = tree.feature == LEAF
            total = sum(n * v for n, v in zip(node_sizes(tree, X)[leaves], tree.value[leaves]))
            assert total == pytest.approx(float(np.sum(y)), rel=1e-9)

    def test_deeper_trees_never_increase_training_sse(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 10, (60, 4))
        y = rng.uniform(0, 100, 60)
        previous = None
        for depth in range(7):
            tree = grow(X, y, TreeParams(max_depth=depth, min_samples_leaf=2, min_samples_split=4))
            sse = float(np.sum((predict_tree(tree, X) - y) ** 2))
            if previous is not None:
                assert sse <= previous + 1e-9
            previous = sse

    def test_training_mape_non_increasing_in_depth_recorded_seed(self):
        train = random_dataset(80, seed=17, noise=0.1)
        X, y = train.features_matrix, train.targets
        previous = None
        for depth in range(7):
            tree = grow(X, y, TreeParams(max_depth=depth, min_samples_leaf=2, min_samples_split=4))
            err = mape(y, predict_tree(tree, X))
            if previous is not None:
                assert err <= previous + 1e-9
            previous = err


def _path(tree, x):
    """Every node x passes through to its leaf, by an independent scalar walk;
    a missing value takes the split's default direction."""
    node = 0
    yield node
    while tree.feature[node] != LEAF:
        value = x[tree.feature[node]]
        go_left = tree.default_left[node] == 1 if np.isnan(value) else value <= tree.threshold[node]
        node = tree.right[node] - 1 if go_left else tree.right[node]
        yield node


def _route(tree, x):
    """Index of the leaf that x reaches."""
    *_, leaf = _path(tree, x)
    return int(leaf)


def _leaf_rows(tree, X):
    """Each reached leaf's training rows, in row order."""
    rows: dict[int, list[int]] = {}
    for i, x in enumerate(X):
        rows.setdefault(_route(tree, x), []).append(i)
    return rows


class TestPredictTree:
    def test_single_leaf_constant(self):
        tree = grow(np.array([[1.0], [2.0]]), np.array([4.0, 6.0]), TreeParams(max_depth=0))
        for v in (-100.0, 0.0, 55.0):
            assert predict_tree(tree, np.array([[v]])).tolist() == [5.0]

    def test_threshold_boundary_goes_left(self):
        X = np.array([[1.0], [2.0], [3.0], [10.0], [11.0], [12.0]])
        y = np.array([5.0, 5.0, 5.0, 9.0, 9.0, 9.0])
        tree = grow(X, y)
        at_cut = np.array([[tree.threshold[0]]])
        assert predict_tree(tree, at_cut).tolist() == [tree.value[tree.right[0] - 1]]


class TestCartPredictor:
    def test_fit_predict_round_trip(self):
        train = random_dataset(30, seed=4, noise=0.05)
        p = build_model("cart", {}, 0).fit(train)
        preds = [p.predict(rec.features) for rec in train]
        assert all(np.isfinite(v) for v in preds)
