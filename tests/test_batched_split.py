"""The batched split kernel and the batching tree grower against their references.

``cart.split_shortlist`` scores and decides a whole batch of nodes in one
call, each node's rows padded to the batch's largest node. On ragged batches
of random nodes (1-32 per batch, 1-111 rows each, with ties, duplicate
partitions, midpoints that round up, missing values, tiny spreads and pure
nodes), each node's batched decision must agree with the full exact search of
``test_split_shortlist`` under the tie rule checked there, also over random
forest's feature subsets drawn after the batch. ``cart.grow_trees`` grows
all the trees of a fit together a depth level at a time, scores each level in
chunks and keeps each tree's nodes in growth order; every tree learner must
grow the same eight node arrays as a plain level-order grower that scores one
node at a time, and a chunk of one node must change nothing.
"""

from dataclasses import fields

import numpy as np
import pytest

from costlab import cart, ensemble
from costlab.bench import BenchConfig, _train_test, derive_seed
from costlab.cart import RegressionTree, TreeParams, best_split, split_shortlist
from costlab.ensemble import BoostConfig, _best_regularized_split
from costlab.zoo import build_model
from conftest import make_dataset
from oracles import grow_trees_one_node_at_a_time
from test_split_shortlist import (
    check_cart,
    check_regularized,
    full_cart_search,
    full_regularized_search,
    random_column,
    random_targets,
)


def random_batch(rng, missing=False):
    """1-32 nodes sharing a feature count, 1-111 rows each."""
    k = int(rng.integers(1, 5))
    nodes = []
    for _ in range(int(rng.integers(1, 33))):
        n = int(rng.integers(1, 112))
        cols = []
        for _ in range(k):
            cols.append(random_column(rng, n, cols))
        X = np.column_stack(cols)
        kind = rng.integers(6)
        if kind == 0:  # pure
            t = np.full(n, float(rng.choice([0.0, 3.5, 1e6])))
        elif kind == 1:  # a spread of about 1e-9 over a large offset
            t = 1e6 + rng.uniform(-1e-9, 1e-9, n)
        else:
            t = random_targets(rng, n)
        if missing:
            X[rng.random(X.shape) < rng.uniform(0, 0.3)] = np.nan
        nodes.append((X, t))
    return nodes


def test_batched_cart_choice_equals_full_search():
    rng = np.random.default_rng(1010)
    seen = dict(batches=0, split=0, none=0, subset=0, padded=0, single=0, near_pure=0)
    while seen["batches"] < 60:
        nodes = random_batch(rng)
        min_leaf = int(rng.integers(1, 4))
        k = nodes[0][0].shape[1]
        gains = split_shortlist(nodes, range(k), min_leaf)
        sizes = {t.size for _, t in nodes}
        seen["batches"] += 1
        seen["single"] += len(nodes) == 1
        for (X, y), node_gains in zip(nodes, gains):
            seen["padded"] += y.size < max(sizes)
            subsets = [np.arange(k)]
            if k > 1:  # as random forest draws them, after the batch is scored
                size = int(rng.integers(1, k))
                subsets.append(np.sort(rng.choice(k, size=size, replace=False)))
            for features in subsets:
                expected = full_cart_search(X, y, features, min_leaf)
                got = best_split(X, y, features, min_leaf, node_gains)
                seen["subset"] += features.size < k
                check_cart(X, y, got, expected, node_gains.tol)
                if got is None:
                    seen["none"] += 1
                    seen["near_pure"] += 0 < np.ptp(y) < 1e-8
                else:
                    seen["split"] += 1
    assert min(seen.values()) >= 3 and seen["split"] >= 500, seen


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_batched_regularized_choice_equals_full_search(lam):
    rng = np.random.default_rng(int(lam) + 2020)
    seen = dict(split=0, none=0, default_left=0, padded=0)
    for _ in range(15):
        nodes = random_batch(rng, missing=True)
        gamma = float(rng.choice([0.0, 0.5]))
        min_leaf = int(rng.integers(1, 4))
        cfg = BoostConfig(lam=lam, gamma=gamma, tree=TreeParams(min_samples_leaf=min_leaf))
        k = nodes[0][0].shape[1]
        gains = split_shortlist(nodes, range(k), min_leaf, lam)
        largest = max(g.size for _, g in nodes)
        for (X, g), node_gains in zip(nodes, gains):
            seen["padded"] += g.size < largest
            expected = full_regularized_search(X, g, cfg)
            got = _best_regularized_split(X, g, cfg, node_gains)
            check_regularized(X, g, cfg, got, expected, node_gains.tol)
            if got is None:
                seen["none"] += 1
                continue
            seen["split"] += 1
            seen["default_left"] += got[2]
    assert min(seen.values()) >= 20, seen


def test_padding_is_invisible_to_a_node():
    # a node scored alone and next to a much larger node gets the same gains and split
    rng = np.random.default_rng(5)
    small = (rng.uniform(0, 10, (6, 3)), rng.normal(0, 1, 6))
    large = (rng.uniform(0, 10, (90, 3)), rng.normal(0, 1, 90))
    alone = split_shortlist([small], range(3), 1)[0]
    batched = split_shortlist([large, small], range(3), 1)[1]
    width = alone.gain.shape[1]
    assert alone.gain.tobytes() == batched.gain[:, :width].tobytes()
    assert alone.thresholds.tobytes() == batched.thresholds[:, :width].tobytes()
    assert (batched.gain[:, width:] == -np.inf).all()
    assert (alone.choice, alone.tol, alone.default_left) == (
        batched.choice, batched.tol, batched.default_left
    )


# -- whole trees ----------------------------------------------------------------------------


TREE_LEARNERS = (
    "cart", "bagging", "random_forest", "extra_trees", "adaboost_r2", "sgb", "regularized_boosting",
)


def _arrays(n, seed, missing=False):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.uniform(20, 300, n),
        rng.uniform(200, 3000, n),
        rng.integers(5, 12, n).astype(float),
        rng.integers(2010, 2016, n).astype(float),
    ])
    y = (1000.0 + 3.0 * X[:, 0] + 0.5 * X[:, 1] + 10.0 * X[:, 2]) * rng.uniform(0.9, 1.1, n)
    X, y = np.vstack([X, X[: n // 6]]), np.concatenate([y, y[: n // 6]])  # pure nodes
    if missing:
        X[rng.random(X.shape[0]) < 0.2, 0] = np.nan
    return X, y


def _trees(model) -> list[RegressionTree]:
    return [tree for tree, _ in model.model.members]


def _fit_trees(model_id, params, X, y, monkeypatch=None):
    if monkeypatch is not None:
        for module in (cart, ensemble):
            monkeypatch.setattr(module, "grow_trees", grow_trees_one_node_at_a_time)
    model = build_model(model_id, params, 17).fit(make_dataset(X, y))
    if monkeypatch is not None:
        monkeypatch.undo()
    return _trees(model)


def _params(model_id, depth):
    size = {} if model_id == "cart" else (
        {"n_rounds": "4"} if model_id in ("sgb", "regularized_boosting") else {"n_members": "4"}
    )
    tree = {"max_depth": str(depth)}
    if depth > 6:
        tree.update(min_samples_leaf="1", min_samples_split="2")
    return {**size, **tree}


@pytest.mark.parametrize("model_id", TREE_LEARNERS)
@pytest.mark.parametrize("n, seed, depth", [(30, 0, 6), (111, 1, 6), (60, 2, 10)])
def test_every_tree_equals_the_one_node_at_a_time_recursion(model_id, n, seed, depth, monkeypatch):
    X, y = _arrays(n, seed)
    params = _params(model_id, depth)
    batched = _fit_trees(model_id, params, X, y)
    reference = _fit_trees(model_id, params, X, y, monkeypatch)
    assert len(batched) == len(reference)
    for got, expected in zip(batched, reference):
        for field in fields(RegressionTree):
            a, b = getattr(got, field.name), getattr(expected, field.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


@pytest.mark.parametrize("model_id", TREE_LEARNERS)
def test_a_chunk_of_one_node_grows_the_same_trees(model_id, monkeypatch):
    X, y = _arrays(111, 9)
    params = _params(model_id, 6)
    chunked = _fit_trees(model_id, params, X, y)
    monkeypatch.setattr(cart, "SCORE_CHUNK", 1)
    one_by_one = _fit_trees(model_id, params, X, y)
    assert len(chunked) == len(one_by_one)
    for got, expected in zip(chunked, one_by_one):
        for field in fields(RegressionTree):
            assert getattr(got, field.name).tobytes() == getattr(expected, field.name).tobytes()


def test_regularized_tree_with_missing_values_equals_the_recursion(monkeypatch):
    X, y = _arrays(80, 3, missing=True)
    params = {"n_rounds": "4", "lam": "0.5", "gamma": "1.0", "max_depth": "5"}
    batched = _fit_trees("regularized_boosting", params, X, y)
    reference = _fit_trees("regularized_boosting", params, X, y, monkeypatch)
    assert any((tree.default_left == 1).any() for tree in batched)
    for got, expected in zip(batched, reference):
        for field in fields(RegressionTree):
            assert getattr(got, field.name).tobytes() == getattr(expected, field.name).tobytes()


@pytest.mark.parametrize("model_id", TREE_LEARNERS)
def test_every_tree_keeps_its_nodes_in_growth_order(model_id):
    # each learner's default fit on the seed-42 bench's training side
    train, _ = _train_test(BenchConfig(), 42)
    model = build_model(model_id, {}, derive_seed(42, model_id)).fit(train)
    for tree in _trees(model):
        split = np.flatnonzero(tree.feature != cart.LEAF)
        assert tree.roots.tolist() == [0]
        assert (tree.right[split] == tree.left[split] + 1).all()
        assert (tree.left[split] > split).all()
        assert (np.diff(tree.depth) >= 0).all()


# -- how the grower batches --------------------------------------------------------------------


def _searched_depths(tree, params):
    """Depth of every node that passed the depth and size checks."""
    searched = (tree.depth < params.max_depth) & (tree.n >= params.min_samples_split)
    return tree.depth[searched]


def _record_batches(monkeypatch):
    sizes = []
    kernel = cart.split_shortlist

    def recording(nodes, *args, **kwargs):
        sizes.append(len(nodes))
        return kernel(nodes, *args, **kwargs)

    monkeypatch.setattr(cart, "split_shortlist", recording)
    monkeypatch.setattr(ensemble, "split_shortlist", recording)
    return sizes


def test_draw_free_learners_score_one_batch_per_depth_level(monkeypatch):
    X, y = _arrays(111, 4)
    params = TreeParams()
    sizes = _record_batches(monkeypatch)
    tree = cart.grow(X, y, params)
    depths = _searched_depths(tree, params)
    assert sizes == np.bincount(depths).tolist()
    sizes.clear()
    booster = ensemble.fit_regularized_booster(X, y, BoostConfig(n_rounds=1))
    assert sizes == np.bincount(_searched_depths(booster.members[0][0], params)).tolist()


@pytest.mark.parametrize("model_id", ["bagging", "random_forest"])
def test_a_forest_scores_each_depth_level_of_all_its_members_together(model_id, monkeypatch):
    # the default 100-member fit of the seed-42 bench; a level takes up to nine chunks
    train, _ = _train_test(BenchConfig(), 42)
    sizes = _record_batches(monkeypatch)
    model = build_model(model_id, {}, derive_seed(42, model_id)).fit(train)
    params = TreeParams()
    searched = sum(_searched_depths(tree, params).size for tree in _trees(model))
    assert len(sizes) <= 35 and max(sizes) <= cart.SCORE_CHUNK
    assert sum(sizes) == searched


def test_extra_trees_score_nothing(monkeypatch):
    X, y = _arrays(60, 6)
    sizes = _record_batches(monkeypatch)
    rng = np.random.default_rng(0)
    cart.grow_forest([(X, y), (X[::2], y[::2])], TreeParams(), rng, n_feature_subset=2,
                     random_thresholds=True)
    assert sizes == []


def test_leaf_value_is_the_mean_bit_for_bit():
    rng = np.random.default_rng(8)
    for n in range(1, 300):
        t = rng.normal(0, 10.0 ** rng.integers(-3, 7), n) + rng.choice([0.0, 1e6])
        assert float(t.sum()) / t.size == float(np.mean(t))


def test_the_split_decision_runs_once_per_searched_node(monkeypatch):
    X, y = _arrays(111, 7)
    params = TreeParams()
    calls = []
    decide = cart.best_split
    monkeypatch.setattr(cart, "best_split", lambda *args: calls.append(args) or decide(*args))
    for n_feature_subset in (None, 2):
        calls.clear()
        tree, = cart.grow_forest([(X, y)], params, np.random.default_rng(1), n_feature_subset)
        assert len(calls) == _searched_depths(tree, params).size
        assert all(args[4] is not None for args in calls)  # each with its precomputed gains
