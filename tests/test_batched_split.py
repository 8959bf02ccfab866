"""The batched split kernel and the batching tree grower against their references.

``cart.split_shortlist`` scores and decides a whole batch of nodes in one
call, each node's rows padded to the batch's largest node. On ragged batches
of random nodes (1-32 per batch, 1-111 rows each, with ties, duplicate
partitions, midpoints that round up, missing values, tiny spreads and pure
nodes), each node's batched decision must agree with the full exact search of
``test_split_shortlist`` under the tie rule checked there, also over random
forest's feature subsets passed as the kernel's ``drawn`` mask.
``cart.grow_trees`` grows all the trees of a fit together a depth level at a
time, scores each level in chunks and keeps each tree's nodes in growth
order; every tree learner must grow the same six node arrays as a plain
level-order grower that scores one node at a time, and a chunk of one node
must change nothing. Extra trees must also grow the same arrays as that
grower deciding each node with the scalar cut scorer, which draws the node's
features and cuts as it decides it, and random forest the same arrays as that
grower drawing each node's features as it decides it and applying the split
rule to their rows of the node's full gain grid.
"""

from dataclasses import fields

import numpy as np
import pytest

from costlab import cart, ensemble
from costlab.bench import BenchConfig, _train_test, derive_seed
from costlab.cart import RegressionTree, TreeParams, best_split, split_shortlist
from costlab.ensemble import RF_FEATURE_SUBSET, BoostConfig, _best_regularized_split
from costlab.zoo import build_model
from conftest import make_dataset, node_sizes
from oracles import (
    grow_extra_trees_one_node_at_a_time,
    grow_random_forest_one_node_at_a_time,
    grow_trees_one_node_at_a_time,
)
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
        gains = split_shortlist(nodes, min_leaf)
        drawn = np.ones((len(nodes), k), dtype=bool)
        if k > 1:  # as random forest draws them, node by node
            for row in drawn:
                size = int(rng.integers(1, k))
                row[:] = np.isin(np.arange(k), rng.choice(k, size=size, replace=False))
        masked = split_shortlist(nodes, min_leaf, drawn=drawn)
        sizes = {t.size for _, t in nodes}
        seen["batches"] += 1
        seen["single"] += len(nodes) == 1
        for (X, y), node_gains, drawn_gains, row in zip(nodes, gains, masked, drawn):
            seen["padded"] += y.size < max(sizes)
            decisions = [(np.arange(k), best_split(X, y, min_leaf, node_gains), node_gains.tol)]
            if k > 1:
                decisions.append((np.flatnonzero(row), drawn_gains.choice, drawn_gains.tol))
            for features, got, tol in decisions:
                expected = full_cart_search(X, y, features, min_leaf)
                seen["subset"] += features.size < k
                check_cart(X, y, got, expected, tol)
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
        gains = split_shortlist(nodes, min_leaf, lam)
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
    alone = split_shortlist([small], 1)[0]
    batched = split_shortlist([large, small], 1)[1]
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


@pytest.mark.parametrize("chunk", [1, 128])
@pytest.mark.parametrize("flat", [False, True])
@pytest.mark.parametrize("n, seed, depth", [(30, 0, 6), (111, 1, 6), (60, 2, 10)])
def test_extra_trees_equal_the_scalar_cut_scorer(n, seed, depth, flat, chunk, monkeypatch):
    # the same draws in the same order, and the same decisions, as deciding
    # each node alone with the cuts drawn there
    X, y = _arrays(n, seed)
    if flat:  # pure nodes over distinct rows, and targets that differ by rounding only
        y[X[:, 2] < 8] = 1e6
        near = X[:, 2] >= 10
        y[near] = 1e6 + np.random.default_rng(seed).uniform(-1e-9, 1e-9, near.sum())
    params = TreeParams(depth, 1, 2) if depth > 6 else TreeParams(max_depth=depth)
    samples = [(X, y), (X[::2], y[::2]), (X, y)]
    monkeypatch.setattr(cart, "SCORE_CHUNK", chunk)
    batched = cart.grow_forest(samples, params, np.random.default_rng(seed), RF_FEATURE_SUBSET,
                               random_thresholds=True)
    reference = grow_extra_trees_one_node_at_a_time(samples, params, np.random.default_rng(seed),
                                                    RF_FEATURE_SUBSET)
    assert len(batched) == len(reference) == len(samples)
    assert sum((tree.feature != cart.LEAF).sum() for tree in batched) > 10
    for got, expected in zip(batched, reference):
        for field in fields(RegressionTree):
            a, b = getattr(got, field.name), getattr(expected, field.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


@pytest.mark.parametrize("chunk", [1, 128])
@pytest.mark.parametrize("n_feature_subset", [1, 2, 3, 4])
@pytest.mark.parametrize("n, seed, depth", [(30, 0, 6), (111, 1, 6), (60, 2, 10)])
def test_random_forest_equals_the_decide_time_subset_rule(n, seed, depth, n_feature_subset, chunk,
                                                          monkeypatch):
    # the same draws in the same order, and the same decisions, as drawing each
    # node's features as it is decided and deciding over their rows of its gains
    X, y = _arrays(n, seed)
    params = TreeParams(depth, 1, 2) if depth > 6 else TreeParams(max_depth=depth)
    samples = [(X, y), (X[::2], y[::2]), (X[1::3], y[1::3]), (X, y)]
    monkeypatch.setattr(cart, "SCORE_CHUNK", chunk)
    batched = cart.grow_forest(samples, params, np.random.default_rng(seed), n_feature_subset)
    reference = grow_random_forest_one_node_at_a_time(samples, params,
                                                      np.random.default_rng(seed), n_feature_subset)
    assert len(batched) == len(reference) == len(samples)
    assert sum((tree.feature != cart.LEAF).sum() for tree in batched) > 10
    for got, expected in zip(batched, reference):
        for field in fields(RegressionTree):
            a, b = getattr(got, field.name), getattr(expected, field.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


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
        leaf = np.flatnonzero(tree.feature == cart.LEAF)
        assert tree.roots.tolist() == [0]
        assert (tree.right[split] - 1 > split).all()
        assert (tree.right[leaf] == leaf).all()
        assert (np.diff(tree.depth) >= 0).all()


# -- how the grower batches --------------------------------------------------------------------


def _searched_depths(tree, params, X):
    """Depth of every node of a tree grown on rows X that passed the depth and size checks."""
    searched = (tree.depth < params.max_depth) & (node_sizes(tree, X) >= params.min_samples_split)
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
    depths = _searched_depths(tree, params, X)
    assert sizes == np.bincount(depths).tolist()
    sizes.clear()
    booster = ensemble.fit_regularized_booster(X, y, BoostConfig(n_rounds=1))
    assert sizes == np.bincount(_searched_depths(booster.members[0][0], params, X)).tolist()


@pytest.mark.parametrize("model_id", ["bagging", "random_forest", "extra_trees"])
def test_a_forest_scores_each_depth_level_of_all_its_members_together(model_id, monkeypatch):
    # the default 100-member fit of the seed-42 bench; a level takes up to nine chunks
    train, _ = _train_test(BenchConfig(), 42)
    sizes = _record_batches(monkeypatch)
    samples = []  # each member's training rows
    grow_forest = ensemble.grow_forest

    def recording(members, *args):
        samples.extend(members)
        return grow_forest(members, *args)

    monkeypatch.setattr(ensemble, "grow_forest", recording)
    model = build_model(model_id, {}, derive_seed(42, model_id)).fit(train)
    params = TreeParams()
    searched = sum(_searched_depths(tree, params, X).size
                   for tree, (X, _) in zip(_trees(model), samples, strict=True))
    assert len(sizes) <= 35 and max(sizes) <= cart.SCORE_CHUNK
    assert sum(sizes) == searched


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
        assert len(calls) == _searched_depths(tree, params, X).size
        assert all(args[3] is not None for args in calls)  # each with its precomputed gains
