"""CART regression tree: variance-reduction splits, mean-valued leaves.

The standalone tree model and the base learner for every ensemble family.
``grow_node`` is the one greedy recursion behind every tree in the package:
CART, bagging, random forest, extra trees, AdaBoost.R2 and gradient boosting
grow through ``grow``, and the regularized booster calls it with its own leaf
weight and split search.

Split gain is SSE(parent) - SSE(left) - SSE(right), scored by one loop over
(feature, threshold) candidates: ``best_split`` feeds it the midpoints between
consecutive distinct feature values, extra trees one uniform cut per
non-constant feature. Ties break toward the first candidate, that is the
lowest feature index, then the lowest threshold. SSE terms are computed from
row masks in fixed row order, so candidates inducing the same partition
produce bit-identical gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FEATURE_NAMES, FeatureVector
from .errors import EmptyTrainError, UnsupportedMissingError


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 6
    min_samples_leaf: int = 2
    min_samples_split: int = 4

    def __post_init__(self):
        if self.max_depth < 0 or self.min_samples_leaf < 1 or self.min_samples_split < 2:
            raise ValueError(f"invalid tree parameters: {self}")


@dataclass
class Node:
    value: float
    n: int
    feature: int | None = None
    threshold: float | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    default_left: bool | None = None  # route for missing values; None = unsupported

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class RegressionTree:
    root: Node
    params: TreeParams
    n_train: int

    def leaves(self) -> list[Node]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.append(node)
            else:
                stack.extend((node.right, node.left))
        return out


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


def grow_node(
    X: np.ndarray,
    t: np.ndarray,
    depth: int,
    params: TreeParams,
    leaf_value: Callable[[np.ndarray], float],
    find_split: Callable[[np.ndarray, np.ndarray], Split | None],
) -> Node:
    """The greedy recursion of every tree learner; ``t`` is targets or gradients.

    ``find_split`` runs only at nodes that pass the depth and size checks, so
    its random draws follow the order in which the recursion visits nodes.
    """
    node = Node(value=leaf_value(t), n=int(t.size))
    if depth >= params.max_depth or t.size < params.min_samples_split:
        return node
    split = find_split(X, t)
    if split is None:
        return node
    node.feature, node.threshold, node.default_left, mask = split
    node.left = grow_node(X[mask], t[mask], depth + 1, params, leaf_value, find_split)
    node.right = grow_node(X[~mask], t[~mask], depth + 1, params, leaf_value, find_split)
    return node


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

    root = grow_node(X, y, 0, params, lambda t: float(np.mean(t)), find_split)
    return RegressionTree(root=root, params=params, n_train=int(y.size))


def predict_tree(tree: RegressionTree, x: Sequence[float]) -> float:
    """Route one row to its leaf; x <= threshold goes left."""
    x = np.asarray(x, dtype=float)
    node = tree.root
    while not node.is_leaf:
        value = x[node.feature]
        if np.isnan(value):
            if node.default_left is None:
                raise UnsupportedMissingError(
                    "tree was grown without missing-value default directions"
                )
            node = node.left if node.default_left else node.right
        else:
            node = node.left if value <= node.threshold else node.right
    return node.value


def predict_tree_batch(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    return np.array([predict_tree(tree, row) for row in np.asarray(X, dtype=float)])


def format_tree(tree: RegressionTree, feature_names: Sequence[str] = FEATURE_NAMES) -> str:
    """Indented if/else rule dump of the fitted tree."""
    lines: list[str] = []

    def walk(node: Node, indent: int):
        pad = "  " * indent
        if node.is_leaf:
            lines.append(f"{pad}predict {node.value!r} (n={node.n})")
            return
        name = feature_names[node.feature]
        lines.append(f"{pad}if {name} <= {node.threshold!r}:")
        walk(node.left, indent + 1)
        lines.append(f"{pad}else:")
        walk(node.right, indent + 1)

    walk(tree.root, 0)
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

    def _predict(self, x: FeatureVector) -> float:
        return predict_tree(self.tree, x.to_array())

    def dump(self) -> str:
        return format_tree(self.tree)
