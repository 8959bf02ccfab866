"""The prefix-sum split kernel's decisions against the exact searches it replaced.

``best_split`` and ``ensemble._best_regularized_split`` take the split that
``cart.split_shortlist`` decides from its approximate gains, over random
forest's drawn features when a ``drawn`` mask is given. The full exact
searches, over every midpoint of every feature, are the oracles
(``tests/oracles.py``). On random nodes built to produce exact ties,
duplicate partitions, midpoints that round up onto the next value and missing
values, each decision must be the oracle's, or tie it with the kernel's pick first
in candidate order (exactly for CART; within the rounding bound for the
booster, whose gain is not shift-invariant), or, at a node whose best exact
gain is within the rounding bound of 0, be a leaf.
"""

from fractions import Fraction

import numpy as np
import pytest

from costlab import ensemble
from costlab.cart import TreeParams, best_split, split_shortlist
from costlab.ensemble import BoostConfig, _best_regularized_split, split_gain
from oracles import (
    _best_candidate,
    cart_key,
    check_tie_rule,
    exact_gain,
    left_mask,
    midpoints,
    regularized_key,
    regularized_mask_search,
)


# -- the full exact searches ------------------------------------------------------


def full_cart_search(X, y, features, min_samples_leaf):
    return _best_candidate(X, y, ((f, midpoints(X[:, f])) for f in features), min_samples_leaf)


def full_regularized_search(X, g, cfg):
    return regularized_mask_search(X, g, cfg, ((f, midpoints(X[:, f])) for f in range(X.shape[1])))


def regularized_split(X, g, cfg):
    """``_best_regularized_split`` of the node scored as a batch of one."""
    gains = split_shortlist([(X, g)], cfg.tree.min_samples_leaf, cfg.lam)[0]
    return _best_regularized_split(X, g, cfg, gains)


def check_cart(X, y, got, expected, tol):
    """``got`` follows the tie rule against ``expected``; its gain is within ``tol`` of exact."""
    check_tie_rule(cart_key(got), cart_key(expected),
                   lambda k: exact_gain(y, left_mask(X, *k)), tol)
    if got is not None:
        assert abs(Fraction(got[2]) - exact_gain(y, left_mask(X, *got[:2]))) <= Fraction(tol)


def check_regularized(X, g, cfg, got, expected, tol):
    """As ``check_cart``, with the missing-value direction after the threshold."""

    def gain_of(key):
        return exact_gain(g, left_mask(X, key[0], key[1], not key[2]), cfg.lam, cfg.gamma)

    # the booster's gain is not shift-invariant: near-ties within rounding are real
    check_tie_rule(regularized_key(got), regularized_key(expected), gain_of, tol, exact=False)
    if got is not None:
        f, threshold, default_left, mask, gain = got
        assert np.array_equal(mask, left_mask(X, f, threshold, default_left))
        assert abs(Fraction(gain) - gain_of(regularized_key(got))) <= Fraction(tol)
        assert bool(np.isnan(X[:, f]).any()) or default_left  # nothing missing: default left


# -- random nodes ---------------------------------------------------------------


def random_column(rng, n, X):
    """One feature column of a kind chosen at random."""
    kind = rng.integers(5)
    if kind == 0:
        return rng.uniform(-50, 50, n)
    if kind == 1:  # integer-valued, many duplicates
        return rng.integers(0, rng.integers(2, 6), n).astype(float)
    if kind == 2 and X:  # identical to an earlier column: exact ties
        return X[rng.integers(len(X))].copy()
    if kind == 3:  # three adjacent floats, repeated: some midpoints round up onto b
        base = rng.choice([1.0, 3.0, 1000.0, -7.5, 0.1])
        steps = [base, np.nextafter(base, np.inf), np.nextafter(np.nextafter(base, np.inf), np.inf)]
        return np.array(steps)[rng.integers(0, 3, n)]
    return np.round(rng.normal(0, 3, n), 1)


def random_targets(rng, n):
    kind = rng.integers(4)
    if kind == 0:
        return rng.uniform(0, 100, n)
    if kind == 1:  # few distinct values: equal gains for different partitions
        return rng.integers(0, 3, n).astype(float)
    if kind == 2:  # a large offset over a small spread
        return 1e6 + rng.normal(0, 1, n)
    return rng.normal(0, 1, n) * 10.0 ** rng.integers(-3, 4)


def random_node(rng, max_features=4):
    n = int(rng.integers(2, 41))
    X = []
    for _ in range(int(rng.integers(1, max_features + 1))):
        X.append(random_column(rng, n, X))
    return np.column_stack(X), random_targets(rng, n)


def rounds_up(X):
    """Some midpoint of some column equals the upper of its two values."""
    for col in X.T:
        distinct = np.unique(col[~np.isnan(col)])
        if ((distinct[:-1] + distinct[1:]) / 2.0 == distinct[1:]).any():
            return True
    return False


N_NODES = 6000  # per search; 12,000 nodes in all


def test_cart_shortlist_choice_equals_full_search():
    rng = np.random.default_rng(20240607)
    seen = dict(split=0, none=0, subset=0, rounded=0, tie=0)
    for _ in range(N_NODES):
        X, y = random_node(rng)
        min_leaf = int(rng.integers(1, 4))
        features = np.arange(X.shape[1])
        subset = X.shape[1] > 1 and rng.random() < 0.5
        if subset:  # as random forest draws them, passed as the kernel's drawn mask
            size = int(rng.integers(1, X.shape[1] + 1))
            features = np.sort(rng.choice(X.shape[1], size=size, replace=False))
            seen["subset"] += 1
        drawn = np.isin(np.arange(X.shape[1]), features)[None, :]
        node = split_shortlist([(X, y)], min_leaf, drawn=drawn)[0]
        expected = full_cart_search(X, y, features, min_leaf)
        got = node.choice if subset else best_split(X, y, min_leaf)
        check_cart(X, y, got, expected, node.tol)
        if got is None:
            seen["none"] += 1
            continue
        f = got[0]
        seen["split"] += 1
        seen["rounded"] += rounds_up(X[:, features])
        seen["tie"] += any(np.array_equal(X[:, later], X[:, f]) for later in features if later > f)
    assert min(seen.values()) >= 100, seen


@pytest.mark.parametrize("lam", [0.0, 1.0, 5.0])
def test_regularized_shortlist_choice_equals_full_search(lam):
    rng = np.random.default_rng(int(lam) + 7)
    seen = dict(split=0, none=0, missing=0, default_left=0, gamma=0, rounded=0)
    for _ in range(N_NODES // 3):
        X, g = random_node(rng)
        X[rng.random(X.shape) < rng.uniform(0, 0.3)] = np.nan
        gamma = float(rng.choice([0.0, 0.0, 0.5, rng.uniform(0, 50)]))
        min_leaf = int(rng.integers(1, 4))
        cfg = BoostConfig(lam=lam, gamma=gamma, tree=TreeParams(min_samples_leaf=min_leaf))
        expected = full_regularized_search(X, g, cfg)
        got = regularized_split(X, g, cfg)
        tol = split_shortlist([(X, g)], min_leaf, lam)[0].tol
        check_regularized(X, g, cfg, got, expected, tol)
        if got is None:
            seen["none"] += 1
            continue
        f, threshold, default_left, mask, gain = got
        seen["split"] += 1
        seen["missing"] += bool(np.isnan(X[:, f]).any())
        seen["default_left"] += default_left
        seen["gamma"] += gamma > 0
        seen["rounded"] += rounds_up(X)
    assert min(seen.values()) >= 50, seen


def test_regularized_search_scores_fewer_candidates(monkeypatch):
    calls = []
    monkeypatch.setattr(ensemble, "split_gain", lambda *a: calls.append(a) or split_gain(*a))
    rng = np.random.default_rng(3)
    X = rng.uniform(0, 10, (100, 4))
    g = rng.normal(0, 1, 100)
    cfg = BoostConfig(tree=TreeParams(min_samples_leaf=1))
    got = regularized_split(X, g, cfg)
    expected = full_regularized_search(X, g, cfg)
    assert (got[0], got[1], got[2], got[4]) == (expected[0], expected[1], expected[2], expected[4])
    assert len(calls) == 1  # the full search scores 4 * 99 * 2 candidates


def test_lam_zero_midpoint_onto_the_largest_value():
    # the midpoint of two adjacent floats rounds onto the larger one, so that
    # candidate leaves the present right side empty
    low = np.nextafter(1.0, 2.0)
    top = np.nextafter(low, 2.0)
    assert (low + top) / 2.0 == top
    X = np.array([[low], [top], [np.nan], [low], [top], [np.nan]])
    g = np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])
    cfg = BoostConfig(lam=0.0, tree=TreeParams(min_samples_leaf=1))
    assert regularized_split(X, g, cfg) is not None


def test_shortlist_candidate_order_and_partition():
    low = np.nextafter(1.0, 2.0)
    top = np.nextafter(low, 2.0)
    X = np.column_stack([[3.0, 1.0, 2.0, 2.0], [low, top, top, 0.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    # every candidate has the same gain, feature-major and ascending, except
    # (low + top) / 2 == top, which leaves the right side empty; the first wins
    node = split_shortlist([(X, y)], 1)[0]
    scored = [
        (f, t[g > -np.inf].tolist()) for f, (t, g) in enumerate(zip(node.thresholds, node.gain))
    ]
    assert scored == [(0, [1.5, 2.5]), (1, [low / 2.0])]
    assert np.ptp(node.gain[node.gain > -np.inf]) <= node.tol
    assert node.choice[:2] == (0, 1.5)
