"""Ensembles over CART base learners, CART itself among them.

Seven families: CART as a one-member ensemble, bagging, random forest, extra
trees, AdaBoost.R2, gradient boosting (stochastic when subsampled), and a
regularized second-order booster whose split gain and leaf weights follow
the penalized objective
gain = 0.5 * [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)] - gamma,
w* = -G/(H+lambda), with per-split default directions learned for missing
feature values. The loss is squared, so h = 1 per row and every hessian sum H
is a row count; no hessian array is kept. All seven grow their trees with the
shared grower in ``cart``, and one ``EnsemblePredictor`` wraps any of the
``fit_*`` functions for the zoo.

The regularized split search is ``cart.split_shortlist``'s one decision
stage: it scores every (feature, threshold) midpoint from sorted prefix sums
of the gradients, for both missing-value directions, a depth level of the
tree per batched call, and picks the first candidate in (feature, threshold)
order within the node's rounding bound, 4 * n * eps * (sum|g|)^2 for a node
of n rows, of the best approximate gain, sending missing values left on a
tie of the two directions (and always when nothing is missing). The grower
keeps the pick when its penalized gain, one ``split_gain`` over its two
sides' (sum, count), is positive: the booster's one acceptance test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .cart import (
    NodeGains,
    RegressionTree,
    TreeParams,
    grow,
    grow_forest,
    grow_trees,
    predict_tree,
    split_shortlist,
    stack_trees,
    walk_trees,
)
from .core import Predictor
from .data import Dataset

RF_FEATURE_SUBSET = 2  # ceil(sqrt(4)) of the four drivers


class CombineRule(Enum):
    MEAN = "mean"
    WEIGHTED_MEDIAN = "weighted_median"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class ForestConfig:
    n_members: int = 100
    tree: TreeParams = TreeParams()
    seed: int = 0

    def __post_init__(self):
        if self.n_members < 1:
            raise ValueError("n_members must be >= 1")


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 100
    learning_rate: float = 0.1
    lam: float = 1.0
    gamma: float = 0.0
    subsample: float = 0.8
    tree: TreeParams = TreeParams()
    seed: int = 0

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        # learning_rate 0 is allowed as the degenerate base-score model
        if not (0.0 <= self.learning_rate <= 1.0):
            raise ValueError("learning_rate must be in [0, 1]")
        if not (0 <= self.lam < math.inf and 0 <= self.gamma < math.inf):
            raise ValueError("lam and gamma must be finite and >= 0")
        if not (0.0 < self.subsample <= 1.0):
            raise ValueError("subsample must be in (0, 1]")


@dataclass
class EnsembleModel:
    members: list[tuple[RegressionTree, float]]
    combine: CombineRule
    base_score: float = 0.0

    def __post_init__(self):
        self._nodes = stack_trees([tree for tree, _ in self.members])
        self._weights = np.array([w for _, w in self.members])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Combined prediction for every row of X; one walk covers all members."""
        outputs = walk_trees(self._nodes, X)
        if self.combine is CombineRule.MEAN:
            return outputs.mean(axis=1)
        if self.combine is CombineRule.WEIGHTED_MEDIAN:
            return weighted_median(outputs, self._weights)
        # np.vecdot makes one cblas_ddot per row, as a per-row np.dot does;
        # ``outputs @ weights`` can sum in another order
        return self.base_score + np.vecdot(outputs, self._weights)


def weighted_median(values: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """Smallest value whose cumulative weight reaches half the total, along the last axis."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, axis=-1, kind="stable")
    cum = np.cumsum(weights[order], axis=-1)
    # the count of sums below half is where searchsorted would insert half
    idx = np.minimum((cum < 0.5 * cum[..., -1:]).sum(axis=-1), values.shape[-1] - 1)
    lead = np.indices(idx.shape, sparse=True)  # () for 1-D input
    return values[(*lead, order[(*lead, idx)])]


def bootstrap_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Size-n draw with replacement."""
    return rng.integers(0, n, size=n)


def fit_cart(X: np.ndarray, y: np.ndarray, params: TreeParams) -> EnsembleModel:
    """One CART tree; the mean over one member is its leaf value exactly."""
    return EnsembleModel([(grow(X, y, params), 1.0)], CombineRule.MEAN)


def _fit_forest(
    X: np.ndarray,
    y: np.ndarray,
    cfg: ForestConfig,
    bootstrap: bool,
    n_feature_subset: int | None = None,
    random_thresholds: bool = False,
) -> EnsembleModel:
    """Members grown together, every bootstrap drawn first, combined by mean: the three forests."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    n = y.size
    rows = [bootstrap_indices(n, rng) if bootstrap else slice(None) for _ in range(cfg.n_members)]
    trees = grow_forest([(X[r], y[r]) for r in rows], cfg.tree, rng, n_feature_subset,
                        random_thresholds)
    return EnsembleModel([(tree, 1.0) for tree in trees], CombineRule.MEAN)


def fit_bagging(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> EnsembleModel:
    """CART members on bootstrap replicas, combined by mean."""
    return _fit_forest(X, y, cfg, bootstrap=True)


def fit_random_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> EnsembleModel:
    """Bagging plus a random feature subset of size 2 at every split."""
    return _fit_forest(X, y, cfg, bootstrap=True, n_feature_subset=RF_FEATURE_SUBSET)


def fit_extra_trees(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> EnsembleModel:
    """Full-sample members with random feature subsets and random cut points."""
    return _fit_forest(
        X, y, cfg, bootstrap=False, n_feature_subset=RF_FEATURE_SUBSET, random_thresholds=True
    )


def fit_adaboost_r2(X: np.ndarray, y: np.ndarray, cfg: ForestConfig) -> EnsembleModel:
    """Sequential reweighting with linear loss; weighted-median combination.

    Each round trains on a weight-resampled replica, stops when the weighted
    average loss reaches 0.5, and stops immediately after a perfect round.
    """
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    rng = np.random.default_rng(cfg.seed)
    n = y.size
    w = np.full(n, 1.0 / n)
    members: list[tuple[RegressionTree, float]] = []
    for _ in range(cfg.n_members):
        idx = rng.choice(n, size=n, replace=True, p=w)
        tree = grow(X[idx], y[idx], cfg.tree)
        err = np.abs(predict_tree(tree, X) - y)
        max_err = float(err.max())
        if max_err == 0.0:
            members.append((tree, 1.0))
            break
        loss = err / max_err
        avg_loss = float(np.dot(w, loss))
        if avg_loss >= 0.5:
            if not members:
                members.append((tree, 1.0))
            break
        beta = avg_loss / (1.0 - avg_loss)
        members.append((tree, math.log(1.0 / beta)))
        w = w * beta ** (1.0 - loss)
        w = w / w.sum()
    return EnsembleModel(members, CombineRule.WEIGHTED_MEDIAN)


def _boost(
    X: np.ndarray,
    y: np.ndarray,
    cfg: BoostConfig,
    grow_round: Callable[[np.ndarray, np.ndarray, np.ndarray], RegressionTree],
) -> EnsembleModel:
    """Both boosters' additive rounds from the mean of y: ``grow_round(X, y,
    pred)`` grows each round's tree from the predictions so far."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    base = float(np.mean(y))
    pred = np.full(y.size, base)
    members: list[tuple[RegressionTree, float]] = []
    for _ in range(cfg.n_rounds):
        tree = grow_round(X, y, pred)
        pred = pred + cfg.learning_rate * predict_tree(tree, X)
        members.append((tree, cfg.learning_rate))
    return EnsembleModel(members, CombineRule.ADDITIVE, base_score=base)


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, cfg: BoostConfig) -> EnsembleModel:
    """Squared-loss boosting: each round fits CART to current residuals.

    ``subsample`` < 1 draws a without-replacement row fraction per round
    (the stochastic variant); 1.0 is plain gradient boosting.
    """
    rng = np.random.default_rng(cfg.seed)

    def grow_round(X: np.ndarray, y: np.ndarray, pred: np.ndarray) -> RegressionTree:
        n, idx = y.size, slice(None)
        if cfg.subsample < 1.0:
            idx = rng.choice(n, size=max(1, int(round(cfg.subsample * n))), replace=False)
        return grow(X[idx], (y - pred)[idx], cfg.tree)

    return _boost(X, y, cfg, grow_round)


# -- regularized second-order booster -----------------------------------------


def split_gain(
    g_left: float,
    h_left: float,
    g_right: float,
    h_right: float,
    lam: float,
    gamma: float,
) -> float:
    """Penalized gain of one candidate split."""
    g_total = g_left + g_right
    h_total = h_left + h_right
    return 0.5 * (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - g_total * g_total / (h_total + lam)
    ) - gamma


def fit_regularized_booster(X: np.ndarray, y: np.ndarray, cfg: BoostConfig) -> EnsembleModel:
    """Second-order boosting with leaf-weight shrinkage and missing support.

    Each round grows a tree on the gradients g = pred - y with
    ``cart.grow_trees``, a forest of one, scoring each depth level's
    approximate gains in batched ``split_shortlist`` calls; leaves hold
    w* = -G/(n + lambda), G the leaf's gradient sum and n (every hessian
    being 1) its row count.
    """

    def leaf(g_total: float, n: int) -> float:
        # on g = pred - y, not on residuals: sum(y - pred) keeps +0.0 where this is -0.0
        return -g_total / (n + cfg.lam)

    def accept(g_left: float, n_left: int, g_right: float, n_right: int) -> bool:
        return split_gain(g_left, n_left, g_right, n_right, cfg.lam, cfg.gamma) > 0

    def score(nodes: list[tuple[np.ndarray, np.ndarray]]) -> list[NodeGains]:
        return split_shortlist(nodes, cfg.tree.min_samples_leaf, cfg.lam)

    def grow_round(X: np.ndarray, y: np.ndarray, pred: np.ndarray) -> RegressionTree:
        return grow_trees([(X, pred - y)], cfg.tree, leaf, score, accept)[0]

    return _boost(X, y, cfg, grow_round)


# -- zoo wrapper ---------------------------------------------------------------


class EnsemblePredictor(Predictor):
    """Zoo wrapper for every tree learner, CART included: a ``fit_*`` function and its config."""

    def __init__(
        self,
        model_kind: str,
        fit: Callable[[np.ndarray, np.ndarray, TreeParams | ForestConfig | BoostConfig],
                      EnsembleModel],
        config: TreeParams | ForestConfig | BoostConfig,
        supports_missing: bool = False,
    ):
        super().__init__()
        self.model_kind = model_kind
        self.fit_ensemble = fit
        self.config = config
        self.supports_missing = supports_missing
        self.model: EnsembleModel | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.model = self.fit_ensemble(train.features_matrix, y, self.config)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(X)
