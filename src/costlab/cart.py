"""CART regression tree: variance-reduction splits, mean-valued leaves.

The standalone tree model and the base learner for every ensemble family.
``grow_tree`` is the one greedy recursion behind every tree in the package:
CART, bagging, random forest, extra trees, AdaBoost.R2 and gradient boosting
grow through ``grow``, and the regularized booster calls it with its own leaf
weight and split search. A tree is stored as flat node arrays, and one
traversal kernel, ``walk_trees``, predicts for one tree or a whole ensemble.

Split gain is SSE(parent) - SSE(left) - SSE(right), scored by one loop over
(feature, threshold) candidates: ``best_split`` feeds it the midpoints between
consecutive distinct feature values, extra trees one uniform cut per
non-constant feature. Ties break toward the first candidate, that is the
lowest feature index, then the lowest threshold. SSE terms are computed from
row masks in fixed row order, so candidates inducing the same partition
produce bit-identical gains.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FEATURE_NAMES
from .errors import EmptyTrainError, UnsupportedMissingError


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6
    min_samples_leaf: int = 2
    min_samples_split: int = 4

    def __post_init__(self):
        if self.max_depth < 0 or self.min_samples_leaf < 1 or self.min_samples_split < 2:
            raise ValueError(f"invalid tree parameters: {self}")


LEAF = -1  # ``feature`` of a leaf


@dataclass(frozen=True, eq=False)
class RegressionTree:
    """Flat node arrays in depth-first order from root 0 (or several stacked trees).

    A leaf has ``feature`` LEAF, ``threshold`` NaN and ``left`` = ``right`` =
    itself. ``default_left`` routes a missing value: 1 left, 0 right, -1 none.
    ``depth`` is the node's distance from its root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    default_left: np.ndarray
    depth: np.ndarray


def _subset_sse(mask: np.ndarray, y: np.ndarray, count: int) -> float:
    total = float(mask @ y)
    mean = total / count
    return float(mask @ ((y - mean) ** 2))


def _best_candidate(
    X: np.ndarray,
    y: np.ndarray,
    candidates: Iterable[tuple[int, Iterable[float]]],
    min_samples_leaf: int,
) -> tuple[int, float, float] | None:
    """Highest-gain (feature, threshold, gain) over lazily drawn (feature, thresholds)."""
    n = y.size
    if n < 2 or np.all(y == y[0]):
        return None  # before the first candidate, so random cuts draw nothing here
    sse_parent = _subset_sse(np.ones(n), y, n)
    best: tuple[int, float, float] | None = None
    for f, thresholds in candidates:
        col = X[:, f]
        for threshold in thresholds:
            left = (col <= threshold).astype(float)
            n_left = int(left.sum())
            n_right = n - n_left
            if n_left < min_samples_leaf or n_right < min_samples_leaf:
                continue
            gain = sse_parent - _subset_sse(left, y, n_left) - _subset_sse(1.0 - left, y, n_right)
            if gain > 0 and (best is None or gain > best[2]):
                best = (int(f), float(threshold), float(gain))
    return best


def _midpoints(X: np.ndarray, features: Iterable[int]) -> Iterator[tuple[int, np.ndarray]]:
    """CART candidates: midpoints between consecutive distinct values of each feature."""
    for f in features:
        distinct = np.unique(X[:, f])
        yield f, (distinct[:-1] + distinct[1:]) / 2.0


def _uniform_cuts(
    X: np.ndarray, features: Iterable[int], rng: np.random.Generator
) -> Iterator[tuple[int, tuple[float]]]:
    """Extra-trees candidates: one uniform cut per non-constant feature."""
    for f in features:
        lo, hi = float(X[:, f].min()), float(X[:, f].max())
        if lo != hi:
            yield f, (float(rng.uniform(lo, hi)),)


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    features: Sequence[int] | None = None,
    min_samples_leaf: int = 1,
) -> tuple[int, float, float] | None:
    """Highest-gain (feature, threshold, gain), or None when nothing helps."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if features is None:
        features = range(X.shape[1])
    return _best_candidate(X, y, _midpoints(X, features), min_samples_leaf)


# (feature, threshold, default_left or None, left row mask)
Split = tuple[int, float, bool | None, np.ndarray]


def grow_tree(
    X: np.ndarray,
    t: np.ndarray,
    params: TreeParams,
    leaf_value: Callable[[np.ndarray], float],
    find_split: Callable[[np.ndarray, np.ndarray], Split | None],
) -> RegressionTree:
    """The greedy recursion of every tree learner; ``t`` is targets or gradients.

    ``find_split`` runs only at nodes that pass the depth and size checks, so
    its random draws follow the order in which the recursion visits nodes.
    """
    nodes: list[dict] = []  # the RegressionTree fields of each node, in depth-first order

    def grow_node(X: np.ndarray, t: np.ndarray, depth: int) -> int:
        i = len(nodes)
        nodes.append(dict(feature=LEAF, threshold=np.nan, left=i, right=i, value=leaf_value(t),
                          n=t.size, default_left=-1, depth=depth))
        if depth >= params.max_depth or t.size < params.min_samples_split:
            return i
        split = find_split(X, t)
        if split is None:
            return i
        feature, threshold, default_left, mask = split
        left = grow_node(X[mask], t[mask], depth + 1)
        right = grow_node(X[~mask], t[~mask], depth + 1)
        nodes[i].update(feature=feature, threshold=threshold, left=left, right=right,
                        default_left=-1 if default_left is None else int(default_left))
        return i

    grow_node(X, t, 0)
    return RegressionTree(**{f.name: np.array([node[f.name] for node in nodes])
                             for f in fields(RegressionTree)})


def grow(
    X: np.ndarray,
    y: np.ndarray,
    params: TreeParams = TreeParams(),
    rng: np.random.Generator | None = None,
    n_feature_subset: int | None = None,
    random_thresholds: bool = False,
) -> RegressionTree:
    """Recursive greedy growth until depth, size, or gain stops it."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise EmptyTrainError("cannot grow a tree on an empty training set")

    def find_split(X: np.ndarray, y: np.ndarray) -> Split | None:
        if n_feature_subset is not None:
            features = np.sort(rng.choice(X.shape[1], size=n_feature_subset, replace=False))
        else:
            features = np.arange(X.shape[1])
        if random_thresholds:
            split = _best_candidate(X, y, _uniform_cuts(X, features, rng), params.min_samples_leaf)
        else:
            split = best_split(X, y, features, params.min_samples_leaf)
        if split is None:
            return None
        feature, threshold, _ = split
        return feature, threshold, None, X[:, feature] <= threshold

    return grow_tree(X, y, params, lambda t: float(np.mean(t)), find_split)


def stack_trees(trees: Sequence[RegressionTree]) -> RegressionTree:
    """The node arrays of several trees, concatenated; each keeps its own root."""
    sizes = [tree.feature.size for tree in trees]
    names = [f.name for f in fields(RegressionTree)]
    arrays = {name: np.concatenate([getattr(tree, name) for tree in trees]) for name in names}
    for child in ("left", "right"):
        arrays[child] += np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    return RegressionTree(**arrays)


def walk_trees(nodes: RegressionTree, X: np.ndarray) -> np.ndarray:
    """(n, number of roots) leaf values reached by every row of X from every root.

    All walks step down one level together, as many times as the deepest
    node is deep; a leaf steps to itself. x <= threshold goes left, a missing
    value takes the default direction.
    """
    rows = np.arange(X.shape[0])[:, None]
    at = np.repeat(np.flatnonzero(nodes.depth == 0)[None, :], X.shape[0], axis=0)
    has_missing = bool(np.isnan(X).any())
    for _ in range(int(nodes.depth.max())):
        feature = nodes.feature[at]
        x = X[rows, feature]
        go_left = x <= nodes.threshold[at]
        if has_missing:
            default = nodes.default_left[at]
            missing = np.isnan(x) & (feature != LEAF)
            if (missing & (default < 0)).any():
                raise UnsupportedMissingError(
                    "tree was grown without missing-value default directions"
                )
            go_left = np.where(missing, default == 1, go_left)
        at = np.where(go_left, nodes.left[at], nodes.right[at])
    return nodes.value[at]


def predict_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of X (one row per query)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return walk_trees(tree, X)[:, 0]


def format_tree(tree: RegressionTree, feature_names: Sequence[str] = FEATURE_NAMES) -> str:
    """Indented if/else rule dump of the fitted tree."""
    lines: list[str] = []

    def walk(i: int, indent: int):
        pad = "  " * indent
        if tree.feature[i] == LEAF:
            lines.append(f"{pad}predict {float(tree.value[i])!r} (n={int(tree.n[i])})")
            return
        name = feature_names[tree.feature[i]]
        lines.append(f"{pad}if {name} <= {float(tree.threshold[i])!r}:")
        walk(tree.left[i], indent + 1)
        lines.append(f"{pad}else:")
        walk(tree.right[i], indent + 1)

    walk(0, 0)
    return "\n".join(lines) + "\n"


class CartPredictor(Predictor):
    """Zoo wrapper for a single regression tree."""

    model_kind = "cart"

    def __init__(self, params: TreeParams = TreeParams()):
        super().__init__()
        self.params = params
        self.tree: RegressionTree | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.tree = grow(train.features_matrix, y, self.params)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return predict_tree(self.tree, X)

    def dump(self) -> str:
        return format_tree(self.tree)
