"""CART regression tree: variance-reduction splits, mean-valued leaves.

The tree kernel behind every tree learner; the zoo's CART is a one-member
ensemble (``ensemble.fit_cart``). ``grow_trees`` is the one greedy grower
behind every tree in the package. CART, AdaBoost.R2 and gradient boosting
grow each tree through ``grow``, the three forests all their members in one
``grow_forest`` call, and the regularized booster calls it with its own leaf
weight and gain test, formulas over a node's (target sum, row count): only
the grower partitions rows and sums targets. A tree is stored as six flat
node arrays in the order its nodes were grown, and one traversal kernel,
``walk_trees``, predicts for one tree or a whole ensemble. It steps to
``right - (x <= threshold)``, which growth order makes exact: a split's left
child is ``right - 1``.

Split gain is SSE(parent) - SSE(left) - SSE(right). One decision stage,
``split_shortlist``, scores every midpoint between consecutive distinct
feature values at once from sorted prefix sums, or extra trees' drawn cuts
from row masks, and decides: a node splits at the first candidate, in
(feature, threshold) order, whose approximate gain is within the node's
rounding bound of its best, and only when that best is above the bound, so
ties break toward the lowest feature index, then the lowest threshold, and
a node whose targets differ by rounding only is a leaf. Random forest's
undrawn features are masked out before that rule, so the kernel decides every
tree split, and the grower turns each decision, read through ``best_split``,
into children. Only the booster learns a missing-value direction; CART sends
missing values right.

``split_shortlist`` scores a batch of nodes in one call, along a leading node
axis with each node's rows padded to the largest node's, so numpy's per-call
overhead is paid per batch. ``grow_trees`` grows all the trees of a fit
together a depth level at a time, scoring each level in chunks of
``SCORE_CHUNK`` nodes; both random forests draw each node's features, and
extra trees its cuts, as its chunk is scored.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    """Flat node arrays in growth order from root 0 (or several stacked trees).

    Growth order is level by level, a split's left child before its right, so
    a split's children are ``right - 1`` and ``right``, and every child comes
    after its parent. A leaf has ``feature`` LEAF, ``threshold`` NaN and
    ``right`` = itself. ``value`` is the node's leaf value, ``default_left``
    routes a missing value: 1 left, 0 right, -1 none, and ``depth`` is the
    node's distance from its root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    default_left: np.ndarray
    depth: np.ndarray

    @cached_property
    def roots(self) -> np.ndarray:
        """Index of every root node, one per stacked tree."""
        return np.flatnonzero(self.depth == 0)

    @cached_property
    def max_depth(self) -> int:
        return int(self.depth.max())


EPS = float(np.finfo(float).eps)


class NodeGains(NamedTuple):
    """One node's approximate split gains and its split, as ``split_shortlist`` scored them.

    Row j of ``thresholds`` and ``gain`` holds the candidates of feature j in
    ascending order, one per boundary between sorted positions, or its one
    cut; ``gain`` is -inf where a slot is no candidate, as in every row of a
    feature that was not drawn. ``tol`` is the node's rounding bound.
    ``choice`` is the node's split, (feature, threshold, approximate gain), or
    None; ``default_left`` tells whether its missing values go left, and is
    None for CART (``lam`` None), which learns no direction.
    """

    thresholds: np.ndarray
    gain: np.ndarray
    tol: float
    choice: tuple[int, float, float] | None
    default_left: bool | None


def _cart_bound(n: int, scale: float, peak: float) -> float:
    """CART's rounding bound for a node of n rows (see ``split_shortlist``)."""
    return 8 * n**1.5 * EPS * scale + 6 * n * (n + 1) ** 2 * (EPS * peak) ** 2


def split_shortlist(
    nodes: Sequence[tuple[np.ndarray, np.ndarray]],
    min_samples_leaf: int,
    lam: float | None = None,
    cuts: np.ndarray | None = None,
    drawn: np.ndarray | None = None,
) -> list[NodeGains]:
    """Approximate gains of every candidate split of a batch of (X, t) nodes, and their splits.

    The candidates of a node are the midpoints (a + b) / 2 between consecutive
    distinct non-missing values of each feature, in feature order, then
    ascending. One call covers the whole batch, so numpy's per-call overhead
    is paid once per batch instead of once per node: the nodes form a leading
    axis, and each node's rows (at least one) are padded to the batch's
    largest node (at least two rows) with a missing feature value and a zero
    ``t``. A single node is a batch of one.

    All columns are sorted in one pass (missing values and padding last) and
    ``t`` is prefix-summed along each sorted column, within its own node and
    feature. A midpoint's partition of ``col <= threshold`` is found by
    ``searchsorted(side="right")``, since a midpoint can round up onto b.
    ``cuts``, a (nodes, features) array of extra trees' drawn cuts, NaN for
    none, makes each cut instead the one candidate of its node and feature,
    with nothing sorted: its left side, ``col <= cut`` with missing values
    and padding right, is counted and summed from a row mask. ``drawn``, a
    (nodes, features) bool array of random forest's drawn features, makes
    every candidate of a feature that was not drawn no candidate.
    Candidates leaving fewer than ``min_samples_leaf`` of the node's rows on
    a side are dropped. Each remaining one gets an approximate gain, up to a
    constant of the node:

    - ``lam`` None (CART, ``t`` the targets, a missing value goes right as
      ``col <= threshold`` sends it): G_L^2/n_L + G_R^2/n_R over the node's
      centred targets t - mean(t); scale = sum((t - mean(t))^2).
    - ``lam`` a float (the regularized booster, ``t`` the gradients): the
      better of 0.5 * [G_L^2/(n_L+lam) + G_R^2/(n_R+lam)] over both
      missing-value directions, missing values going left on a tie;
      scale = sum(|t|)^2.

    A node splits at the first candidate whose approximate gain is within
    ``tol`` of the node's best, when that best is above ``tol``:
    8 * n^1.5 * eps * scale (CART) or 4 * n * eps * scale (booster), plus for
    CART 6 * n * (n + 1)^2 * (eps * max|t|)^2. It bounds the rounding. For a
    node of n rows in a batch padded to m >= n rows, the centring, the scale
    and max|t| are computed over the node's own rows before padding, each
    node's prefix sums stay in its own row, and a padded row adds an exact
    zero, which rounds nothing; so every sum is off by at most n*eps*sum|t|
    in any order, as if unpadded. With sum|t - mean(t)| <= sqrt(n * scale),
    an approximate gain is off its true value, up to the node's constant, by
    at most about 4 * n^1.5 * eps * scale (CART) or 2 * n * eps * scale
    (booster), so the candidate with the highest true gain trails the best
    approximate gain by at most twice that. CART's constant comes from the
    rounded mean: off by up to (n + 1) * eps * max|t|, it leaves the centred
    targets a sum G, and every candidate's approximate gain then exceeds its
    true gain by G^2 / n, which the last term bounds six times over. So a
    node whose targets differ by rounding only is a leaf. The booster's
    constant, its parent term and gamma, is left to its caller.
    """
    sizes = [t.size for _, t in nodes]
    b, m = len(nodes), max(sizes + [2])
    starts = list(accumulate(sizes[:-1], initial=0))
    n = np.array(sizes)[:, None]
    X = np.concatenate([X for X, _ in nodes] + [np.full((1, nodes[0][0].shape[1]), np.nan)])
    t = np.concatenate([t for _, t in nodes] + [np.zeros(1)])  # the padding's missing row and zero
    if lam is None:  # the CART gain is shift-invariant; centring keeps the sums small
        peak = np.maximum.reduceat(np.abs(t), starts).tolist()
        t[:-1] -= np.repeat(np.add.reduceat(t, starts) / n[:, 0], sizes)
        scale = np.add.reduceat(t * t, starts).tolist()
        tol = [_cart_bound(k, s, p) for k, s, p in zip(sizes, scale, peak)]
    else:
        total = np.add.reduceat(np.abs(t), starts).tolist()
        tol = [4 * k * EPS * s * s for k, s in zip(sizes, total)]
    # the row of every padded position, (b, m), and the nodes' columns
    # (k, b, m): axes feature, node, position (in sorted order, NaN last, for
    # midpoints); a node's candidates are the last axis of the (k, b, c) grids
    pos = np.arange(m)
    rows = np.where(pos < n, pos + np.array(starts)[:, None], t.size - 1)
    cols = X.T[:, rows]
    if cuts is None:  # the boundary after sorted position i is candidate i
        order = cols.argsort(axis=2)
        sorted_cols = np.sort(cols, axis=2)
        cum = t[rows[np.arange(b)[:, None], order]].cumsum(axis=2)
        g_all = cum[..., -1:]
        lo, hi = sorted_cols[..., :-1], sorted_cols[..., 1:]
        thresholds = (lo + hi) / 2.0
        n_left = np.arange(1, m)
        g_left = cum[..., :-1]
        candidate = lo < hi  # distinct, and hi (so lo) present: NaN sorts last
        rounded_up = candidate > (thresholds < hi)
        if rounded_up.any():  # rounded onto b, overflowed, or nan (-inf + inf): count the rows
            n_left, g_left = np.tile(n_left, (X.shape[1], b, 1)), g_left.copy()
            for j, i, p in zip(*np.nonzero(rounded_up)):
                n_left[j, i, p] = sorted_cols[j, i].searchsorted(thresholds[j, i, p], side="right")
                g_left[j, i, p] = cum[j, i, n_left[j, i, p] - 1]
    else:  # one candidate per node and feature; a missing or padded value goes right
        thresholds = np.asarray(cuts, dtype=float).T[..., None]
        left = cols <= thresholds
        n_left = left.sum(axis=2, keepdims=True)
        g_left = (left * t[rows]).sum(axis=2, keepdims=True)
        g_all = t[rows].sum(axis=1, keepdims=True)
        candidate = ~np.isnan(thresholds)
    sides = [(g_left, n_left, g_all - g_left, n - n_left)]  # missing goes right
    if lam is not None:
        missing = np.isnan(X[:-1].T)
        if missing.any():  # with nothing missing both directions score alike
            n_miss = np.add.reduceat(missing, starts, axis=1)[..., None]
            g_miss = np.add.reduceat(missing * t[:-1], starts, axis=1)[..., None]
            g_right = g_all - g_left - g_miss
            sides.append((g_left + g_miss, n_left + n_miss, g_right, n - n_left - n_miss))
    gain = None
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty side is masked out below
        for gl, nl, gr, nr in sides:
            if lam is None:
                side_gain = gl * gl / nl + gr * gr / nr
            else:
                side_gain = 0.5 * (gl * gl / (nl + lam) + gr * gr / (nr + lam))
            ok = candidate & ((nl >= min_samples_leaf) & (nr >= min_samples_leaf))
            side_gain = np.where(ok, side_gain, -np.inf)
            gain = side_gain if gain is None else np.maximum(gain, side_gain)
    if drawn is not None:
        gain[~drawn.T] = -np.inf
    # every node's split: the first candidate of its (k, c) grid, in candidate
    # order, within tol of its best, when that best is above tol
    grid, tol_all = gain.transpose(1, 0, 2).reshape(b, -1), np.array(tol)
    best = grid.max(axis=1)
    split, first = best > tol_all, (grid >= (best - tol_all)[:, None]).argmax(axis=1)
    result = []
    for i, (at, s, top) in enumerate(zip(first.tolist(), split.tolist(), best.tolist())):
        j, p = divmod(at, gain.shape[2])
        choice = (j, float(thresholds[j, i, p]), float(gain[j, i, p])) if s else None
        # the last side sends missing values left; with one side it is ``gain``
        default_left = None if lam is None else (
            len(sides) == 1 or bool(side_gain[j, i, p] >= top - tol[i]))
        result.append(NodeGains(thresholds[:, i], gain[:, i], tol[i], choice, default_left))
    return result


def best_split(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int = 1,
    gains: NodeGains | None = None,
) -> tuple[int, float, float] | None:
    """The node's split (feature, threshold, approximate gain), or None, as the
    kernel decided it: ``gains`` is the node's precomputed ``split_shortlist``
    result; without it the node is scored as a batch of one."""
    if gains is None:
        node = (np.asarray(X, dtype=float), np.asarray(y, dtype=float))
        gains = split_shortlist([node], min_samples_leaf)[0]
    return gains.choice


SCORE_CHUNK = 128  # nodes per ``score`` call; it bounds the padded grids of one call


def grow_trees(
    samples: Sequence[tuple[np.ndarray, np.ndarray]],
    params: TreeParams,
    leaf_value: Callable[[float, int], float],
    score: Callable[[list[tuple[np.ndarray, np.ndarray]]], list[NodeGains]],
    accept: Callable[[float, int, float, int], bool] | None = None,
) -> list[RegressionTree]:
    """One tree per (X, t) sample, all grown together a depth level at a time;
    ``t`` is targets or gradients.

    ``score`` (a batched ``split_shortlist``) runs once per level, over chunks
    of ``SCORE_CHUNK`` of the nodes that pass the depth and size checks,
    before any of them is decided. A level's nodes are then decided tree by
    tree, and within a tree in creation order (left child before right), so
    random draws in ``score`` follow that order. Each kernel decision becomes
    children here: the left rows, ``col <= threshold`` plus the missing ones
    when ``default_left`` is true (stored -1 when it is None), go before the
    right rows in one stable partition, and each node's targets are summed
    once, in row order. A node's value is ``leaf_value(sum, count)``, and
    ``accept(left sum, left count, right sum, right count)`` may refuse a
    split. Each tree keeps its nodes in the order they were created.
    """
    trees: list[list[list]] = [[] for _ in samples]  # each tree's node fields, in creation order
    level: list[tuple[int, int, np.ndarray, np.ndarray]] = []  # (tree, node, X, t) to decide next

    def add(tree: int, X: np.ndarray, t: np.ndarray, total: float, depth: int) -> int:
        nodes = trees[tree]
        i = len(nodes)
        nodes.append([LEAF, np.nan, i, leaf_value(total, t.size), -1, depth])
        if depth < params.max_depth and t.size >= params.min_samples_split:
            level.append((tree, i, X, t))
        return i

    for tree, (X, t) in enumerate(samples):
        add(tree, X, t, float(t.sum()), 0)
    while level:
        decide, level = level, []
        gains = []
        for c in range(0, len(decide), SCORE_CHUNK):
            gains += score([(X, t) for *_, X, t in decide[c:c + SCORE_CHUNK]])
        for (tree, i, X, t), node_gains in zip(decide, gains):
            # perfbench traces ``cart.best_split`` as the split search: keep
            # reading every decision through it until the kernel is traced
            split = best_split(X, t, params.min_samples_leaf, node_gains)
            if split is None:
                continue
            feature, threshold, _ = split
            mask, default_left = X[:, feature] <= threshold, node_gains.default_left
            if default_left:
                mask |= np.isnan(X[:, feature])
            order, n_left = np.argsort(~mask, kind="stable"), int(np.count_nonzero(mask))
            t, sides = t[order], (slice(n_left), slice(n_left, None))
            sums = [float(t[side].sum()) for side in sides]
            if accept is not None and not accept(sums[0], n_left, sums[1], t.size - n_left):
                continue
            X, node = X[order], trees[tree][i]
            _, right = (add(tree, X[s], t[s], total, node[5] + 1) for s, total in zip(sides, sums))
            node[:3] = feature, threshold, right
            node[4] = -1 if default_left is None else int(default_left)

    return [RegressionTree(*map(np.array, zip(*nodes))) for nodes in trees]


def grow_forest(
    samples: Sequence[tuple[np.ndarray, np.ndarray]],
    params: TreeParams = TreeParams(),
    rng: np.random.Generator | None = None,
    n_feature_subset: int | None = None,
    random_thresholds: bool = False,
) -> list[RegressionTree]:
    """One CART tree per (X, y) sample, grown together until depth, size, or gain
    stops them. At each searched node ``n_feature_subset`` features and, with
    ``random_thresholds``, extra trees' cuts are drawn from ``rng`` as the
    node is scored."""
    samples = [(np.asarray(X, dtype=float), np.asarray(y, dtype=float)) for X, y in samples]
    if any(y.size == 0 for _, y in samples):
        raise EmptyTrainError("cannot grow a tree on an empty training set")
    k = samples[0][0].shape[1]

    def draw_features() -> Sequence[int]:
        if n_feature_subset is None:
            return range(k)
        return np.sort(rng.choice(k, size=n_feature_subset, replace=False))

    def score(nodes: list[tuple[np.ndarray, np.ndarray]]) -> list[NodeGains]:
        cuts = drawn = None
        if random_thresholds:  # per node: its features, then one cut per non-constant one
            starts = list(accumulate([y.size for _, y in nodes[:-1]], initial=0))
            Xy = np.column_stack([np.concatenate(arrays) for arrays in zip(*nodes)])
            lows, highs = (f.reduceat(Xy, starts).tolist() for f in (np.minimum, np.maximum))
            cuts = np.full((len(nodes), k), np.nan)
            for cut, lo, hi in zip(cuts, lows, highs):
                live = [f for f in draw_features() if lo[f] != hi[f]]
                if live and lo[-1] != hi[-1]:  # a pure node (last column y) draws no cut
                    cut[live] = rng.uniform([lo[f] for f in live], [hi[f] for f in live])
        elif n_feature_subset is not None:  # random forest: per node, its features
            drawn = np.zeros((len(nodes), k), dtype=bool)
            for row in drawn:
                row[draw_features()] = True
        return split_shortlist(nodes, params.min_samples_leaf, cuts=cuts, drawn=drawn)

    def leaf_value(total: float, n: int) -> float:
        # np.mean of float64 is this same pairwise sum divided by the count
        return total / n

    return grow_trees(samples, params, leaf_value, score)


def grow(X: np.ndarray, y: np.ndarray, params: TreeParams = TreeParams()) -> RegressionTree:
    """One CART tree: a forest of one."""
    return grow_forest([(X, y)], params)[0]


def stack_trees(trees: Sequence[RegressionTree]) -> RegressionTree:
    """The node arrays of several trees, concatenated; each keeps its own root."""
    sizes = [tree.feature.size for tree in trees]
    names = [f.name for f in fields(RegressionTree)]
    arrays = {name: np.concatenate([getattr(tree, name) for tree in trees]) for name in names}
    arrays["right"] += np.repeat(np.cumsum([0] + sizes[:-1]), sizes)
    return RegressionTree(**arrays)


def walk_trees(nodes: RegressionTree, X: np.ndarray) -> np.ndarray:
    """(n, number of roots) leaf values reached by every row of X from every root.

    The (row, root) pairs form one flat index vector, and all walks step down
    one level together, as many times as the deepest node is deep: x, read
    from ``X.ravel()`` at row * k + feature, steps to ``right - (x <=
    threshold)``, since a split's left child is ``right - 1``; a leaf is its
    own child with a NaN threshold, so it stays put. A missing value takes the
    default direction.
    """
    n, k = X.shape
    at = np.tile(nodes.roots, n)
    offset = np.repeat(np.arange(0, n * k, k), nodes.roots.size)
    values = X.ravel()
    has_missing = bool(np.isnan(values).any())
    for _ in range(nodes.max_depth):
        feature = nodes.feature[at]
        x = values[offset + feature]
        go_left = x <= nodes.threshold[at]
        if has_missing:
            default = nodes.default_left[at]
            missing = np.isnan(x) & (feature != LEAF)
            if (missing & (default < 0)).any():
                raise UnsupportedMissingError(
                    "tree was grown without missing-value default directions"
                )
            go_left = np.where(missing, default == 1, go_left)
        at = nodes.right[at] - go_left
    return nodes.value[at].reshape(n, nodes.roots.size)


def predict_tree(tree: RegressionTree, X: np.ndarray) -> np.ndarray:
    """(n,) leaf value of every (n, 4) row of X."""
    return walk_trees(tree, X)[:, 0]
