"""The prefix-sum split shortlist against the full split searches it replaces.

``best_split`` and ``ensemble._best_regularized_split`` score exactly only the
candidates that ``cart.split_shortlist`` keeps. The full loops they ran
before, over every midpoint of every feature, are kept here as oracles; on
random nodes built to produce exact ties, duplicate partitions, midpoints that
round up onto the next value and missing values, both searches must choose
the same feature, threshold, default direction and row mask, with the same
gain bits.
"""

import numpy as np
import pytest

from costlab import ensemble
from costlab.cart import TreeParams, best_split, split_shortlist
from costlab.ensemble import BoostConfig, _best_regularized_split, split_gain


def bits(x) -> int:
    return int(np.float64(x).view(np.uint64))


# -- the full searches, as they were before the shortlist ---------------------


def _subset_sse(mask, y, count):
    total = float(mask @ y)
    mean = total / count
    return float(mask @ ((y - mean) ** 2))


def full_cart_search(X, y, features, min_samples_leaf):
    n = y.size
    if n < 2 or np.all(y == y[0]):
        return None
    sse_parent = _subset_sse(np.ones(n), y, n)
    best = None
    for f in features:
        distinct = np.unique(X[:, f])
        col = X[:, f]
        for threshold in (distinct[:-1] + distinct[1:]) / 2.0:
            left = (col <= threshold).astype(float)
            n_left = int(left.sum())
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            gain = sse_parent - _subset_sse(left, y, n_left) - _subset_sse(1.0 - left, y, n_right)
            if gain > 0 and (best is None or gain > best[2]):
                best = (int(f), float(threshold), float(gain))
    return best


def full_regularized_search(X, g, cfg):
    # Verbatim but for one move: the old loop called split_gain before the
    # min-leaf check, which with lam 0 divides by an empty side's zero count.
    n = g.size
    min_leaf = cfg.tree.min_samples_leaf
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        present = ~np.isnan(col)
        if present.sum() < 2:
            continue
        g_miss = float(g[~present].sum())
        n_miss = int(n - present.sum())
        distinct = np.unique(col[present])
        if distinct.size < 2:
            continue
        for threshold in (distinct[:-1] + distinct[1:]) / 2.0:
            left_present = present & (col <= threshold)
            right_present = present & (col > threshold)
            gl = float(g[left_present].sum())
            gr = float(g[right_present].sum())
            nl, nr = int(left_present.sum()), int(right_present.sum())
            for default_left, g_left, g_right, n_left, n_right in (
                (True, gl + g_miss, gr, nl + n_miss, nr),
                (False, gl, gr + g_miss, nl, nr + n_miss),
            ):
                if n_left < min_leaf or n_right < min_leaf:
                    continue
                gain = split_gain(g_left, n_left, g_right, n_right, cfg.lam, cfg.gamma)
                if gain > 0 and (best is None or gain > best[4]):
                    mask = left_present | (~present if default_left else np.zeros(n, bool))
                    best = (f, float(threshold), default_left, mask, float(gain))
    return best


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


def cart_bits(feature, threshold, gain):
    return feature, bits(threshold), bits(gain)


def test_cart_shortlist_choice_equals_full_search():
    rng = np.random.default_rng(20240607)
    seen = dict(split=0, none=0, subset=0, rounded=0, tie=0)
    for _ in range(N_NODES):
        X, y = random_node(rng)
        min_leaf = int(rng.integers(1, 4))
        features = np.arange(X.shape[1])
        if X.shape[1] > 1 and rng.random() < 0.5:  # as random forest passes them
            size = int(rng.integers(1, X.shape[1] + 1))
            features = np.sort(rng.choice(X.shape[1], size=size, replace=False))
            seen["subset"] += 1
        expected = full_cart_search(X, y, features, min_leaf)
        got = best_split(X, y, features, min_leaf)
        if expected is None:
            assert got is None
            seen["none"] += 1
            continue
        assert got is not None
        f = got[0]
        assert cart_bits(*got) == cart_bits(*expected)
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
        got = _best_regularized_split(X, g, cfg)
        if expected is None:
            assert got is None
            seen["none"] += 1
            continue
        assert got is not None
        f, threshold, default_left, mask, gain = got
        assert (f, bits(threshold), default_left, bits(gain)) == (
            expected[0], bits(expected[1]), expected[2], bits(expected[4])
        )
        assert np.array_equal(mask, expected[3])
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
    got = _best_regularized_split(X, g, cfg)
    expected = full_regularized_search(X, g, cfg)
    assert (got[0], got[1], got[2], got[4]) == (expected[0], expected[1], expected[2], expected[4])
    assert 0 < len(calls) < 20  # the full search scores 4 * 99 * 2 candidates


def test_lam_zero_midpoint_onto_the_largest_value():
    # the midpoint of two adjacent floats rounds onto the larger one, so that
    # candidate leaves the present right side empty
    low = np.nextafter(1.0, 2.0)
    top = np.nextafter(low, 2.0)
    assert (low + top) / 2.0 == top
    X = np.array([[low], [top], [np.nan], [low], [top], [np.nan]])
    g = np.array([1.0, -2.0, 3.0, 0.5, -1.0, 2.0])
    cfg = BoostConfig(lam=0.0, tree=TreeParams(min_samples_leaf=1))
    assert _best_regularized_split(X, g, cfg) is not None


def test_shortlist_candidate_order_and_partition():
    low = np.nextafter(1.0, 2.0)
    top = np.nextafter(low, 2.0)
    X = np.column_stack([[3.0, 1.0, 2.0, 2.0], [low, top, top, 0.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    # every candidate has the same gain, so all are kept, feature-major and
    # ascending, except (low + top) / 2 == top, which leaves the right side empty
    kept = [(f, t.tolist()) for f, t in split_shortlist([(X, y)], [0, 1], 1)[0].shortlist()]
    assert kept == [(0, [1.5, 2.5]), (1, [low / 2.0])]
