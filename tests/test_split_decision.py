"""The kernel's split decisions against the exact scorers they replaced.

Each tree learner of the default ``costlab bench`` run (seed 42) is fit with
its split decision wrapped (``cart.best_split``, which reads every tree
learner's decisions, and for the regularized booster ``ensemble.split_gain``,
its acceptance test), and at every searched node the exact scorer of
``tests/oracles.py`` decides too: the row-mask SSE loop for CART, bagging,
random forest (over the features it drew, the only ones with gains),
AdaBoost.R2 and gradient boosting, the mask loop over both
missing-value directions for the regularized booster, and the SSE loop over
the drawn uniform cuts, which the kernel scored, for extra trees. The exact
scorers run over the candidates within 1e-7 of the node's spread of the best
approximate gain, plus CART's centring term, the shortlist they were given
before, which holds every candidate they could pick. Where the two decisions differ, their
partitions must tie in exact arithmetic with the kernel's pick first in
(feature, threshold) order; the test prints how many nodes differ.
The near-pure tests check that nodes whose targets differ by rounding only
are leaves, and that a split near them has a true gain above 0 and within the
bound of the true best.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from costlab import cart, ensemble
from costlab.bench import BenchConfig, _train_test, derive_seed
from costlab.cart import EPS, TreeParams, best_split, grow, split_shortlist
from costlab.zoo import build_model
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

SEED = 42
TREE_LEARNERS = (
    "cart", "bagging", "random_forest", "extra_trees", "adaboost_r2", "sgb", "regularized_boosting",
)


def shortlist(gains, tol):
    """(feature, thresholds) of the candidates within ``tol`` of the node's best gain;
    a feature random forest did not draw has none."""
    floor = gains.gain.max() - tol
    kept = (gains.gain >= floor) & (gains.gain > -np.inf)
    return list(enumerate(thresholds[keep] for thresholds, keep in zip(gains.thresholds, kept)))


class Recorder:
    """Wraps the split decision and the booster's acceptance test, and checks
    every decision against its exact scorer."""

    def __init__(self, monkeypatch):
        self.model = self.cfg = None
        self.pending = None  # a booster node whose split waits for its acceptance test
        self.searched, self.differ, self.ties = Counter(), Counter(), Counter()
        decide, penalized = cart.best_split, ensemble.split_gain

        def best_split_checked(X, y, min_samples_leaf, gains):
            assert self.pending is None  # the booster tested the previous node's split
            got = decide(X, y, min_samples_leaf, gains)
            if gains.default_left is not None:  # a booster node: y is its gradients
                self.pending = (X, y, gains, got)
                if got is None:
                    self.check_regularized(None)
                return got
            n, scale, peak = y.size, float(((y - y.mean()) ** 2).sum()), float(np.abs(y).max())
            old_tol = 1e-7 * scale + 6 * n * (n + 1) ** 2 * (EPS * peak) ** 2
            expected = _best_candidate(X, y, shortlist(gains, old_tol), min_samples_leaf)
            self.check(cart_key(got), cart_key(expected),
                       lambda k: exact_gain(y, left_mask(X, *k)), gains.tol)
            return got

        def split_gain_checked(*args):
            gain = penalized(*args)
            self.check_regularized(gain)
            return gain

        monkeypatch.setattr(cart, "best_split", best_split_checked)
        monkeypatch.setattr(ensemble, "split_gain", split_gain_checked)

    def check_regularized(self, gain):
        """The pending booster node's split, kept when ``gain`` is positive."""
        (X, g, gains, got), self.pending, cfg = self.pending, None, self.cfg
        got = None if got is None or not gain > 0 else (*got[:2], gains.default_left)
        old_tol = 1e-7 * float(np.abs(g).sum()) ** 2
        expected = regularized_mask_search(X, g, cfg, shortlist(gains, old_tol))
        self.check(regularized_key(got), regularized_key(expected), lambda k: exact_gain(
            g, left_mask(X, k[0], k[1], not k[2]), cfg.lam, cfg.gamma), gains.tol)

    def check(self, got, expected, gain_of, tol):
        self.searched[self.model] += 1
        if check_tie_rule(got, expected, gain_of, tol):
            self.differ[self.model] += 1
            self.ties[self.model] += got is not None and expected is not None


def test_default_fits_decide_as_the_exact_scorers_up_to_exact_ties(monkeypatch, capsys):
    train, _ = _train_test(BenchConfig(), SEED)
    recorder = Recorder(monkeypatch)
    for model_id in TREE_LEARNERS:
        model = build_model(model_id, {}, derive_seed(SEED, model_id))
        recorder.model, recorder.cfg = model_id, model.config
        model.fit(train)
    assert set(recorder.searched) == set(TREE_LEARNERS) and recorder.pending is None
    assert recorder.ties == recorder.differ  # every difference is a tie of two splits
    with capsys.disabled():
        counts = ", ".join(f"{m} {recorder.differ[m]} of {recorder.searched[m]}"
                           for m in TREE_LEARNERS)
        print(f"\nsplit decisions differing from the exact scorers, seed {SEED}: {counts}")


# -- near-pure nodes ---------------------------------------------------------------------


def near_pure_node(rng, spread, n=None):
    n = int(rng.integers(2, 21)) if n is None else n
    X = np.column_stack([rng.integers(0, 4, n).astype(float), rng.uniform(0, 10, n),
                         rng.integers(0, 2, n).astype(float)])
    base = float(rng.choice([1e6, 0.1, -3.7]))
    y = np.full(n, base) if spread == 0 else base + rng.uniform(-spread, spread, n)
    return X, y


def check_node(X, y, split, min_samples_leaf=1):
    """A split has a true gain above 0 and within the bound of the true best;
    a node is a leaf when every true gain is 0, or the best is within the bound."""
    n = y.size
    gains = {
        (f, float(threshold)): exact_gain(y, left_mask(X, f, threshold))
        for f in range(X.shape[1]) for threshold in midpoints(X[:, f])
        if min_samples_leaf <= np.count_nonzero(X[:, f] <= threshold) <= n - min_samples_leaf
    }
    best = max(gains.values(), default=0)
    bound = 2 * Fraction(split_shortlist([(X, y)], min_samples_leaf)[0].tol)
    if split is None:
        assert best <= bound
    else:
        gain = gains[tuple(split[:2])]
        assert gain > 0 and gain >= best - bound
    return split is not None


@pytest.mark.parametrize("spread", [0.0, 1e-9, 1e-7, 1e-5])
def test_near_pure_nodes_split_on_true_gain_only(spread):
    rng = np.random.default_rng(int(spread * 1e9) + 31)
    splits = 0
    for _ in range(60):
        X, y = near_pure_node(rng, spread)
        split = best_split(X, y)
        splits += check_node(X, y, split)
        if spread == 0:
            assert split is None
    if spread >= 1e-7:  # spreads far above the targets' rounding do split
        assert splits > 0


@pytest.mark.parametrize("spread", [0.0, 1e-9, 1e-7, 1e-5])
def test_near_pure_trees_split_on_true_gain_only(spread):
    rng = np.random.default_rng(int(spread * 1e9) + 47)
    params = TreeParams(max_depth=8, min_samples_leaf=1, min_samples_split=2)
    for _ in range(6):
        X, y = near_pure_node(rng, spread, n=24)
        tree = grow(X, y, params)
        if spread == 0:
            assert tree.feature.tolist() == [cart.LEAF]
        rows = {0: np.ones(y.size, bool)}
        for i in range(tree.feature.size):  # depth first: a parent comes before its children
            if tree.feature[i] == cart.LEAF:
                if tree.depth[i] < params.max_depth and rows[i].sum() >= params.min_samples_split:
                    check_node(X[rows[i]], y[rows[i]], None)
                continue
            f, threshold = int(tree.feature[i]), float(tree.threshold[i])
            check_node(X[rows[i]], y[rows[i]], (f, threshold))
            go_left = X[:, f] <= threshold
            rows[tree.right[i] - 1], rows[tree.right[i]] = rows[i] & go_left, rows[i] & ~go_left
