"""Scalar reference forms that the tests compare the package's batch paths against.

Each is the straightforward one-value computation that the package replaced
with an array form; the package itself never calls them. The fuzzy section
also holds an inference that defuzzifies every row, fired or not, for the
package's shortcut on rows that fire no rule, and the strengths as one
(rows, rules, 4) gather and its ``min`` for the package's running minimum of
per-feature gathers. The GA loop that draws each parent's tournament in its
own calls is the reference for the package's one draw per breeding step. The
split-search section also holds the exact scorers that the kernel's decision
replaced, the booster's split with its own left mask and acceptance test,
which the grower's partition and its (sum, count) ``accept`` replaced, the
scalar extra-trees cut scorer that its cut candidates replaced, random
forest's decide-time feature draw and subset rule that its ``drawn`` mask
replaced, and the exact-arithmetic checks of its tie rule. The network
trainer with a velocity and a momentum step per layer array is the reference
for the package's one step over a flat parameter vector, and backpropagation
with new arrays for every activation, derivative and gradient is the
reference for the package's pass that writes them in place. The SVR pair loop that
rescans every coefficient's bounds before each selection is the reference for
the package's loop that keeps each coefficient's step offsets. The tree walk
that gathers ``X[rows, feature]`` and steps with ``np.where``, the weighted
median read through ``np.take_along_axis`` and the boosters' per-row
``np.dot`` are the references for the package's flat walk, direct-index
median and ``np.vecdot`` combine. The quote path's per-call forms are the
references for its constants built once: the regression's ``+=`` loop over
the coefficients for its one running sum, case similarity over a strided
view of the cases for the contiguous case columns, and the memberships and
centroids that take the triangle widths and the consequent grouping afresh
on every call for the engine's kept widths and a rule base's kept grouping.
The synthetic generator that draws one record's drivers and noise at a time,
with its sqrt-domain value summed over Python floats, is the reference for
the generator's block draws.
"""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np

from costlab.cart import LEAF, NodeGains, RegressionTree, _cart_bound, split_shortlist
from costlab.cbr import DEFAULT_WEIGHTS, SIMILARITY_CHUNK, _attribute_similarities
from costlab.data import (
    _REJECTION_LIMIT,
    GENERATOR_COEFFS,
    GENERATOR_INTERCEPT,
    N_FEATURES,
    SYNTH_RANGES,
    Dataset,
    FeatureVector,
    ProjectRecord,
)
from costlab.ensemble import BoostConfig, CombineRule, split_gain
from costlab.errors import (
    NegativeAttributeError,
    NoRuleFiresError,
    RangeExhaustedError,
    UnsupportedMissingError,
)
from costlab.fuzzy import (
    MF_COUNT,
    FuzzyRule,
    InferenceResult,
    RuleBase,
    group_consequents,
    triangular_memberships,
)
from costlab.genetic_fuzzy import (
    _TOURNAMENT_SIZE as TOURNAMENT_SIZE,
    GENE_MAX,
    _PopulationEvaluator,
    crossover,
    mutate,
    random_chromosome,
)
from costlab.metrics import mape
from costlab.neural import MOMENTUM, gradients, init_weights
from costlab.svr import _FREE_TOL, SvrParams, _dual_objective, _solve_pair, kernel_matrix


def feature_vector(row):
    """The ``FeatureVector`` of four numbers, a non-finite value read as missing."""
    return FeatureVector(*(float(v) if math.isfinite(v) else None for v in row))


# -- synthetic data -------------------------------------------------------------


def generator_sqrt_value_scalar(features):
    """The generator's sqrt-domain value summed over Python floats, left to right."""
    total = GENERATOR_INTERCEPT
    for coef, value in zip(GENERATOR_COEFFS, features):
        total += coef * float(value)
    return total


def synthesize_one_draw_at_a_time(n, seed, noise_pct, ranges=SYNTH_RANGES):
    """``synthesize`` drawing each record's drivers, then its noise, until one is
    accepted, and counting each record's rejections afresh (arguments unchecked)."""
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in ranges], dtype=float)
    highs = np.array([hi for _, hi in ranges], dtype=float)
    width = len(str(n))
    records = []
    for i in range(n):
        failures = 0
        while True:
            draw = rng.uniform(lows, highs)
            base = generator_sqrt_value_scalar(draw)
            factor = 1.0 + rng.uniform(-noise_pct, noise_pct) / 100.0
            if base > 0 and factor > 0:
                break
            failures += 1
            if failures >= _REJECTION_LIMIT:
                raise RangeExhaustedError(
                    f"rejected {failures} consecutive draws; ranges produce no "
                    "positive sqrt-domain value"
                )
        cost = (base * base) * factor
        records.append(
            ProjectRecord(f"synth-{i:0{width}d}", FeatureVector(*draw.tolist()), cost)
        )
    return Dataset(records)


# -- fuzzy ----------------------------------------------------------------------


def membership(mf, x):
    """Piecewise-linear membership degree in [0, 1]."""
    if x < mf.left or x > mf.right:
        return 0.0
    if x == mf.peak:
        return 1.0
    if x < mf.peak:
        return (x - mf.left) / (mf.peak - mf.left)
    return (mf.right - x) / (mf.right - mf.peak)


def fire_rule(rule_base, rule, x):
    """min-AND firing strength of one rule at a crisp input."""
    if None in x.as_tuple():
        raise UnsupportedMissingError("fuzzy inference requires complete feature vectors")
    strength = 1.0
    for var, mf_index, value in zip(rule_base.input_vars, rule.antecedent, x.as_tuple()):
        strength = min(strength, membership(var.mfs[mf_index - 1], value))
    return strength


def infer_detail_always_defuzzified(rule_base, x, fallback=None):
    """``fuzzy.infer_detail`` that sends every (4,) row through ``centroids``, the
    rows that fire no rule included, and reads the outcome from its mask."""
    if not np.isfinite(x).all():
        raise UnsupportedMissingError("fuzzy inference requires complete feature vectors")
    engine = rule_base.engine
    memberships = engine.input_memberships(x[None, :])
    strengths = engine.strengths(memberships, rule_base.antecedents)
    values, ok = engine.centroids(strengths, rule_base.groups)
    if ok[0]:
        return InferenceResult(float(values[0]), False, strengths[0], rule_base.rules)
    if fallback is None:
        raise NoRuleFiresError("no rule fires for this input")
    return InferenceResult(float(fallback), True, strengths[0], rule_base.rules)


def strengths_gather_min(memberships, antecedents):
    """``FuzzyEngine.strengths`` as one (n, R, 4) gather and a ``min`` over its last axis."""
    return memberships[:, np.arange(N_FEATURES), antecedents - 1].min(axis=2)


def centroids_full_grid(engine, strengths, consequents):
    """``FuzzyEngine.centroids`` that clips all seven output sets over the whole
    grid, the (f, 7, G) form, before the max."""
    fired = strengths.max(axis=1) > 0.0
    members = consequents[:, None] == np.arange(1, MF_COUNT + 1)  # (R, 7)
    grouped = np.where(members, strengths[fired][:, :, None], -np.inf).max(axis=1)  # (f, 7)
    aggregated = np.minimum(grouped[:, :, None], engine.consequent_grid).max(axis=1)
    area, moment = engine._trapezoid(np.stack((aggregated, aggregated * engine.grid)))
    has_area = area > 0.0
    ok = fired.copy()
    ok[fired] = has_area
    values = np.full(strengths.shape[0], np.nan)
    values[ok] = moment[has_area] / area[has_area]
    return values, ok


def input_memberships_per_call_widths(engine, X):
    """``FuzzyEngine.input_memberships`` taking the triangles' side widths on every call."""
    x = np.asarray(X, dtype=float)[:, :, None]
    return triangular_memberships(x, engine.left, engine.peak, engine.right)


def centroids_per_call_grouping(engine, strengths, consequents):
    """``FuzzyEngine.centroids`` grouping the (R,) consequents on every call."""
    fired = strengths.max(axis=1) > 0.0
    order = consequents.argsort()
    named, starts = np.unique(consequents[order], return_index=True)
    grouped = np.full((int(fired.sum()), MF_COUNT), -np.inf)  # (f, 7)
    grouped[:, named - 1] = np.maximum.reduceat(strengths[fired][:, order], starts, axis=1)
    aggregated = np.zeros((grouped.shape[0], engine.grid.size))
    for c in np.flatnonzero((grouped > 0.0).any(axis=0)):
        a, b = engine.supports[c]
        part = aggregated[:, a:b]
        np.maximum(part, np.minimum(grouped[:, c, None], engine.consequent_grid[c, a:b]), out=part)
    area = engine._trapezoid(aggregated)
    moment = engine._trapezoid(np.multiply(aggregated, engine.grid, out=aggregated))
    has_area = area > 0.0
    ok = fired.copy()
    ok[fired] = has_area
    values = np.full(strengths.shape[0], np.nan)
    values[ok] = moment[has_area] / area[has_area]
    return values, ok


def decode_and_fitness(population, train):
    """The decoded rule base of a population and its training MAPE."""
    evaluator = _PopulationEvaluator(train)
    pairs, fitness = evaluator.decode_and_fitness(population)
    rules = tuple(FuzzyRule(ant, cons) for ant, cons in pairs)
    return RuleBase(rules, evaluator.engine.input_vars, evaluator.engine.output_var), fitness


class PerGenerationEvaluator(_PopulationEvaluator):
    """``_PopulationEvaluator`` that re-scores every conflicting pair of every
    population, with no memory of the pairs it scored before."""

    def _solo_mapes(self, pairs, strengths, groups):
        rows = {
            idx: np.flatnonzero(strengths[:, idx] > 0.0)
            for group in groups if len(group) > 1 for idx in group
        }
        scored = [idx for idx in rows if rows[idx].size]
        if not scored:
            return {}
        sizes = [rows[idx].size for idx in scored]
        fired = np.concatenate([rows[idx] for idx in scored])
        column = np.repeat(np.arange(len(scored)), sizes)
        block = np.zeros((fired.size, len(scored)))
        block[np.arange(fired.size), column] = strengths[fired, np.array(scored)[column]]
        groups = group_consequents(np.array([pairs[i][1] for i in scored]))
        values, _ = self.engine.centroids(block, groups)
        return {
            idx: mape(self.targets[rows[idx]], chunk)
            for idx, chunk in zip(scored, np.split(values, np.cumsum(sizes)[:-1]))
        }


def decode_and_fitness_per_candidate(evaluator, population):
    """``_PopulationEvaluator.decode_and_fitness`` with one ``centroids`` call per
    conflicting candidate: each consequent is scored alone on the rows its
    antecedent fires, and the lowest solo MAPE wins, ties to the lower consequent."""
    engine, targets = evaluator.engine, evaluator.targets
    pairs = list(dict.fromkeys((genes[:4], genes[4]) for genes in population))
    strengths = engine.strengths(evaluator.memberships, np.array([p[0] for p in pairs], dtype=int))
    groups = {}
    for idx, (ant, _) in enumerate(pairs):
        groups.setdefault(ant, []).append(idx)

    winners = []
    for candidates in groups.values():
        if len(candidates) == 1:
            winners.append(candidates[0])
            continue
        col = strengths[:, candidates[0]]
        fired = col > 0.0
        best_idx, best_score = None, (math.inf, GENE_MAX + 1)
        for idx in candidates:
            cons = pairs[idx][1]
            if fired.any():
                groups = group_consequents(np.array([cons]))
                values, _ = engine.centroids(col[fired][:, None], groups)
                solo = mape(targets[fired], values)
            else:
                solo = math.inf
            if (solo, cons) < best_score:
                best_idx, best_score = idx, (solo, cons)
        winners.append(best_idx)

    values, ok = engine.centroids(
        strengths[:, winners], group_consequents(np.array([pairs[i][1] for i in winners]))
    )
    values = np.where(ok, values, evaluator.fallback)
    return [pairs[i] for i in winners], mape(targets, values)


def tournament(population, rng):
    """A tournament of three uniform entrants, won by a uniform pick among them."""
    entrants = rng.integers(0, len(population), TOURNAMENT_SIZE)
    return population[int(entrants[int(rng.integers(0, TOURNAMENT_SIZE))])]


def evolve_separate_tournaments(cfg, train):
    """``genetic_fuzzy.evolve`` drawing each parent with its own ``tournament``
    calls: the entrants, then the winner's place, for parent a and then b."""
    rng = np.random.default_rng(cfg.seed)
    evaluator = _PopulationEvaluator(train)
    population = [random_chromosome(rng) for _ in range(cfg.population_size)]
    best_pairs, best_fit = evaluator.decode_and_fitness(population)
    best_population = list(population)
    history = [best_fit]
    for _ in range(cfg.generations):
        next_population = list(best_population[: cfg.elitism_count])
        while len(next_population) < cfg.population_size:
            parent_a = tournament(population, rng)
            parent_b = tournament(population, rng)
            child_a, child_b = crossover(parent_a, parent_b, rng, cfg.crossover_prob)
            next_population.append(mutate(child_a, rng, cfg.mutation_prob))
            if len(next_population) < cfg.population_size:
                next_population.append(mutate(child_b, rng, cfg.mutation_prob))
        population = next_population
        pairs, fit = evaluator.decode_and_fitness(population)
        if fit < best_fit:
            best_pairs, best_fit = pairs, fit
            best_population = list(population)
        history.append(best_fit)
    return best_pairs, history


# -- networks -------------------------------------------------------------------


def gradients_out_of_place(w, X, targets, activation):
    """``neural.gradients`` with a new array for every pre-activation, activation,
    derivative and gradient, the gradients listed output layer first and reversed."""
    nonlinear = {"tanh": np.tanh, "relu": lambda z: np.maximum(0.0, z)}
    derivative = {"tanh": lambda a: 1.0 - a * a, "relu": lambda a: (a > 0).astype(float)}
    activations = [np.atleast_2d(np.asarray(X, dtype=float))]
    for i, (W, b) in enumerate(zip(w.weights, w.biases)):
        z = activations[-1] @ W + b
        activations.append(z if i == len(w.weights) - 1 else nonlinear[activation](z))
    err = activations[-1][:, 0] - np.asarray(targets, dtype=float)
    loss = 0.5 * float((err * err).sum() / len(err))

    grads_w, grads_b = [], []
    delta = (err / len(err))[:, None]
    for i in reversed(range(len(w.weights))):
        grads_w.append(activations[i].T @ delta)
        grads_b.append(delta.sum(axis=0))
        if i > 0:
            delta = (delta @ w.weights[i].T) * derivative[activation](activations[i])
    return grads_w[::-1], grads_b[::-1], loss


def train_network_per_array(spec, X, targets):
    """Full-batch momentum descent with a velocity and a step for each layer array."""
    w = init_weights(spec.layer_sizes, np.random.default_rng(spec.seed))
    vel_w = [np.zeros_like(m) for m in w.weights]
    vel_b = [np.zeros_like(b) for b in w.biases]
    losses = []
    for _ in range(spec.epochs):
        grads_w, grads_b, loss = gradients(w, X, targets, spec.activation)
        losses.append(loss)
        for i in range(len(w.weights)):
            vel_w[i] = MOMENTUM * vel_w[i] - spec.learning_rate * grads_w[i]
            vel_b[i] = MOMENTUM * vel_b[i] - spec.learning_rate * grads_b[i]
            w.weights[i] = w.weights[i] + vel_w[i]
            w.biases[i] = w.biases[i] + vel_b[i]
    return w, losses


# -- kernel regression ------------------------------------------------------------


def rbf_kernel(a, b, gamma_rbf):
    """exp(-gamma * squared distance); 1 at zero distance."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-gamma_rbf * float(diff @ diff))


def _svr_steps(beta, resid, C, epsilon):
    """Each coefficient's gradient for a step up and for a step down, and whether
    the box bound [-C, C] leaves it room to step up and to step down."""
    minus, plus = resid - epsilon, resid + epsilon
    g_up = np.where(beta >= 0, minus, plus)
    g_dn = np.where(beta <= 0, plus, minus)
    return g_up, g_dn, beta < C - _FREE_TOL, beta > -C + _FREE_TOL


def _svr_bias(beta, F, y, C, epsilon):
    free = (np.abs(beta) > _FREE_TOL) & (np.abs(beta) < C - _FREE_TOL)
    if free.any():
        return float(np.mean(y[free] - F[free] - epsilon * np.sign(beta[free])))
    g_up, g_dn, can_up, can_dn = _svr_steps(beta, y - F, C, epsilon)
    low = float(g_up[can_up].max()) if can_up.any() else None
    high = float(g_dn[can_dn].min()) if can_dn.any() else None
    if low is None:
        return high
    if high is None:
        return low
    return 0.5 * (low + high)


def fit_svr_full_scan(X, y, **params):
    """``svr.fit_svr``'s pair loop recomputing every coefficient's step gradients
    and room masks from beta before each selection; returns beta, the decision
    values F, the bias, the update count, the converged flag and the objective
    history, in the standardized space."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    p = SvrParams(**params)
    C, epsilon = p.C, p.epsilon
    n = y.size
    x_scale = X.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    Xs = (X - X.mean(axis=0)) / x_scale
    ys = (y - float(y.mean())) / (float(y.std()) or 1.0)
    K = kernel_matrix(Xs, Xs, p.gamma_rbf)
    beta, F = np.zeros(n), np.zeros(n)
    converged, n_updates = False, 0
    history = [_dual_objective(beta, F, ys, epsilon)]
    for _ in range(p.max_passes):
        stalled = False
        for _ in range(n):
            resid = ys - F
            g_up, g_dn, can_up, can_dn = _svr_steps(beta, resid, C, epsilon)
            if not can_up.any() or not can_dn.any():
                converged = True
                break
            i = int(np.where(can_up, g_up, -np.inf).argmax())
            j = int(np.where(can_dn, g_dn, np.inf).argmin())
            if g_up[i] - g_dn[j] <= p.tol:
                converged = True
                break
            delta = _solve_pair(
                float(beta[i]), float(beta[j]), float(resid[i] - resid[j]),
                float(K[i, i] + K[j, j] - 2.0 * K[i, j]), C, epsilon,
            )
            if delta == 0.0:
                stalled = True
                break
            beta[i] = min(max(beta[i] + delta, -C), C)
            beta[j] = min(max(beta[j] - delta, -C), C)
            F += delta * (K[i] - K[j])
            n_updates += 1
        history.append(_dual_objective(beta, F, ys, epsilon))
        if converged or stalled:
            break
    bias = _svr_bias(beta, F, ys, C, epsilon)
    return beta, F, bias, n_updates, converged, history


# -- case-based reasoning -------------------------------------------------------


def attribute_similarity(av_new, av_retrieved):
    """min/max similarity of two nonnegative attribute values."""
    if av_new < 0 or av_retrieved < 0:
        raise NegativeAttributeError(
            f"attribute values must be nonnegative, got ({av_new}, {av_retrieved})"
        )
    if av_new == 0.0 and av_retrieved == 0.0:
        return 1.0
    lo, hi = min(av_new, av_retrieved), max(av_new, av_retrieved)
    return lo / hi


def scalar_case_similarity(new, stored, weights=DEFAULT_WEIGHTS):
    """Weighted average of the four attribute similarities of two feature vectors."""
    score = 0.0
    for w, a, b in zip(weights, new.as_tuple(), stored.as_tuple()):
        score += w * attribute_similarity(a, b)
    return score / float(sum(weights))


def case_similarity_strided(X, stored, weights=DEFAULT_WEIGHTS):
    """The scoring of ``cbr.case_similarity`` over a strided feature-major view
    of the (m, 4) cases, for complete, nonnegative inputs and valid weights."""
    cases = stored.T[:, None, :]
    score = np.empty((len(X), len(stored)))
    for start in range(0, len(X), SIMILARITY_CHUNK):
        rows = slice(start, start + SIMILARITY_CHUNK)
        sims = _attribute_similarities(X[rows].T[:, :, None], cases)
        total = 0.0
        for w, sim in zip(weights, sims):
            total = total + w * sim
        score[rows] = total / sum(weights)
    return score


# -- regression -------------------------------------------------------------------


def linear_predict_loop(model, X):
    """``LinearModel.predict`` as the intercept plus each coefficient's column,
    added in place in coefficient order."""
    total = np.full(X.shape[0], model.intercept)
    for j, coef in enumerate(model.coefficients):
        total += coef * X[:, j]
    return total


# -- trees ------------------------------------------------------------------------


def walk_trees_2d(nodes, X):
    """``cart.walk_trees`` as an (n, roots) walk: each level gathers
    ``X[rows, feature]`` and picks each entry's child with ``np.where``."""
    rows = np.arange(X.shape[0])[:, None]
    at = np.repeat(nodes.roots[None, :], X.shape[0], axis=0)
    has_missing = bool(np.isnan(X).any())
    for _ in range(nodes.max_depth):
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
        at = np.where(go_left, nodes.right[at] - 1, nodes.right[at])
    return nodes.value[at]


def weighted_median_take_along_axis(values, weights):
    """``ensemble.weighted_median`` that reads its pick through two ``np.take_along_axis``."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, axis=-1, kind="stable")
    cum = np.cumsum(weights[order], axis=-1)
    idx = np.minimum((cum < 0.5 * cum[..., -1:]).sum(axis=-1), values.shape[-1] - 1)
    pick = np.take_along_axis(order, idx[..., None], axis=-1)
    return np.take_along_axis(values, pick, axis=-1)[..., 0]


def ensemble_predict_per_row(model, X):
    """``EnsembleModel.predict`` over ``walk_trees_2d``, with the weighted median
    above and the additive boosters combined by one ``np.dot`` per row."""
    outputs = walk_trees_2d(model._nodes, X)
    if model.combine is CombineRule.MEAN:
        return outputs.mean(axis=1)
    if model.combine is CombineRule.WEIGHTED_MEDIAN:
        return weighted_median_take_along_axis(outputs, model._weights)
    return model.base_score + np.array([np.dot(model._weights, row) for row in outputs])


def grow_trees_one_node_at_a_time(samples, params, leaf_value, score, accept=None):
    """``cart.grow_trees`` as a plain level-order loop over nested nodes.

    A depth level is decided tree by tree, left child before right, and each
    searched node is scored by ``score`` as a batch of one right before its
    kernel decision becomes its left mask, missing values left when its
    ``default_left`` is true, and ``accept``, when given, may refuse it from
    the sums and counts of the two sides; so nothing is batched. Children
    are built by mask, and every node's value is ``leaf_value`` of its own
    sum and count. Each tree is then laid out breadth first from a
    queue, a split's children numbered together.
    """
    def find_split(X, t, gains):
        if gains.choice is None:
            return None
        feature, threshold, _ = gains.choice
        mask = left_mask(X, feature, threshold, bool(gains.default_left))
        if accept is not None and not accept(float(t[mask].sum()), int(mask.sum()),
                                             float(t[~mask].sum()), int((~mask).sum())):
            return None
        return feature, threshold, gains.default_left, mask

    return _grow_one_node_at_a_time(samples, params, leaf_value, find_split, score)


def _grow_one_node_at_a_time(samples, params, leaf_value, find_split, score=None):
    """The plain level-order grower, each searched node decided by
    ``find_split(X, t, gains)`` with its gains from ``score`` as a batch of
    one (None without ``score``), which returns (feature, threshold,
    default_left or None, left row mask) or None."""
    def node(X, t, depth):
        value = leaf_value(float(t.sum()), t.size)
        return dict(X=X, t=t, depth=depth, value=value, split=None, children=())

    roots = [node(X, t, 0) for X, t in samples]
    level = roots
    while level:
        next_level = []
        for parent in level:
            X, t, depth = parent["X"], parent["t"], parent["depth"]
            if depth >= params.max_depth or t.size < params.min_samples_split:
                continue
            split = find_split(X, t, None if score is None else score([(X, t)])[0])
            if split is None:
                continue
            feature, threshold, default_left, mask = split
            default_left = -1 if default_left is None else int(default_left)
            parent["split"] = (feature, threshold, default_left)
            parent["children"] = (node(X[mask], t[mask], depth + 1),
                                  node(X[~mask], t[~mask], depth + 1))
            next_level += parent["children"]
        level = next_level

    def lay_out(root):
        queue = [root]  # a node's row is its place in the queue
        for i, tree_node in enumerate(queue):
            row = dict(feature=LEAF, threshold=np.nan, right=i, value=tree_node["value"],
                       default_left=-1, depth=tree_node["depth"])
            if tree_node["split"] is not None:
                feature, threshold, default_left = tree_node["split"]
                row.update(feature=feature, threshold=threshold, right=len(queue) + 1,
                           default_left=default_left)
                queue += tree_node["children"]
            yield row

    trees = []
    for root in roots:
        rows = list(lay_out(root))
        trees.append(RegressionTree(**{f.name: np.array([row[f.name] for row in rows])
                                       for f in fields(RegressionTree)}))
    return trees


# -- split search ------------------------------------------------------------------


def _subset_sse(mask, y, count):
    total = float(mask @ y)
    mean = total / count
    return float(mask @ ((y - mean) ** 2))


def _best_candidate(X, y, candidates, min_samples_leaf):
    """The exact CART scorer that the kernel's decision replaced.

    Highest-gain (feature, threshold, gain) over lazily drawn (feature,
    thresholds) candidates, each scored from row masks in fixed row order;
    strict ``>`` keeps the first of bit-equal gains.
    """
    n = y.size
    if n < 2 or np.all(y == y[0]):
        return None  # before the first candidate, so random cuts draw nothing here
    sse_parent = _subset_sse(np.ones(n), y, n)
    best = None
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


def _best_regularized_split(
    X: np.ndarray, g: np.ndarray, cfg: BoostConfig, gains: NodeGains
) -> tuple[int, float, bool, np.ndarray, float] | None:
    """(feature, threshold, default_left, left row mask, gain) of the node's split, or None.

    The node's ``cart.split_shortlist`` gains choose the candidate and its
    missing-value direction. It is taken when its penalized gain, over the
    sums of its two sides, is positive. Under squared loss every hessian is
    1, so each hessian sum is the side's row count.
    """
    if gains.choice is None:
        return None
    feature, threshold, _ = gains.choice
    col = X[:, feature]
    mask = col <= threshold
    if gains.default_left:
        mask |= np.isnan(col)
    n_left = int(mask.sum())
    gain = split_gain(float(g[mask].sum()), n_left, float(g[~mask].sum()), g.size - n_left,
                      cfg.lam, cfg.gamma)
    if not gain > 0:
        return None
    return feature, threshold, gains.default_left, mask, gain


def regularized_mask_search(X, g, cfg, candidates):
    """The regularized booster's exact mask loop that the kernel's decision replaced.

    (feature, threshold, default_left, left row mask, gain) of the highest
    penalized gain over (feature, thresholds) candidates and both
    missing-value directions, missing-left first; strict ``>`` keeps the
    first of bit-equal gains.
    """
    n = g.size
    min_leaf = cfg.tree.min_samples_leaf
    best = None
    for f, thresholds in candidates:
        col = X[:, f]
        present = ~np.isnan(col)
        g_miss = float(g[~present].sum())
        n_miss = int(n - present.sum())
        for threshold in thresholds:
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
                    continue  # before scoring: with lam 0 an empty side would divide by zero
                gain = split_gain(g_left, n_left, g_right, n_right, cfg.lam, cfg.gamma)
                if gain > 0 and (best is None or gain > best[4]):
                    mask = left_present | (~present if default_left else np.zeros(n, bool))
                    best = (f, float(threshold), default_left, mask, float(gain))
    return best


def best_uniform_cut(X, y, features, rng, min_samples_leaf):
    """Extra trees' scalar cut scorer that the kernel's cut candidates replaced.

    One uniform cut per non-constant feature, drawn in feature order, each
    scored from its row mask with CART's approximate gain, bound and rule. A
    pure node returns before anything is drawn.
    """
    n = y.size
    if n < 2 or np.all(y == y[0]):
        return None
    t = y - y.sum() / n
    total = float(t.sum())
    lo, hi = X.min(axis=0).tolist(), X.max(axis=0).tolist()
    cuts = []
    for f in features:
        if lo[f] != hi[f]:
            threshold = float(rng.uniform(lo[f], hi[f]))
            left = X[:, f] <= threshold
            n_left = int(np.count_nonzero(left))
            if min(n_left, n - n_left) >= min_samples_leaf:
                g_left = float(t @ left)
                gain = g_left * g_left / n_left + (total - g_left) ** 2 / (n - n_left)
                cuts.append((int(f), threshold, gain))
    best = max((gain for _, _, gain in cuts), default=-np.inf)
    tol = _cart_bound(n, float(t @ t), float(np.abs(y).max()))
    return next(cut for cut in cuts if cut[2] >= best - tol) if best > tol else None


def grow_extra_trees_one_node_at_a_time(samples, params, rng, n_feature_subset):
    """``cart.grow_forest`` with ``random_thresholds`` through the plain grower,
    with no ``score``: each searched node draws its sorted feature subset and
    then its cuts as ``find_split`` decides it with ``best_uniform_cut``."""
    def find_split(X, y, gains):
        features = np.sort(rng.choice(X.shape[1], size=n_feature_subset, replace=False))
        split = best_uniform_cut(X, y, features, rng, params.min_samples_leaf)
        if split is None:
            return None
        feature, threshold, _ = split
        return feature, threshold, None, X[:, feature] <= threshold

    return _grow_one_node_at_a_time(samples, params, lambda total, n: total / n, find_split)


def subset_choice(gains, features):
    """Random forest's decide-time rule: the kernel's split rule applied to the
    rows of the sorted drawn ``features`` in a node's full ``NodeGains`` grid."""
    gain = gains.gain[features]
    best = gain.max()
    if not best > gains.tol:
        return None
    j, p = divmod(int((gain.ravel() >= best - gains.tol).argmax()), gain.shape[1])
    return int(features[j]), float(gains.thresholds[features[j], p]), float(gain[j, p])


def grow_random_forest_one_node_at_a_time(samples, params, rng, n_feature_subset):
    """``cart.grow_forest`` with a feature subset through the plain grower: each
    searched node is scored over every feature, then draws its sorted subset as
    ``find_split`` decides it with ``subset_choice``."""
    def find_split(X, y, gains):
        features = np.sort(rng.choice(X.shape[1], size=n_feature_subset, replace=False))
        split = subset_choice(gains, features)
        if split is None:
            return None
        feature, threshold, _ = split
        return feature, threshold, None, X[:, feature] <= threshold

    return _grow_one_node_at_a_time(
        samples, params, lambda total, n: total / n, find_split,
        lambda nodes: split_shortlist(nodes, params.min_samples_leaf),
    )


def midpoints(col):
    """Every candidate threshold of a column: midpoints of its consecutive distinct values."""
    distinct = np.unique(col[~np.isnan(col)])
    return (distinct[:-1] + distinct[1:]) / 2.0


def left_mask(X, feature, threshold, default_left=False):
    col = X[:, feature]
    return (col <= threshold) | (default_left & np.isnan(col))


def exact_gain(t, mask, lam=None, gamma=0.0):
    """The true gain of sending the ``mask`` rows left, in ``Fraction`` arithmetic.

    CART's SSE(parent) - SSE(left) - SSE(right) when ``lam`` is None, else the
    regularized booster's penalized gain with every hessian 1.
    """
    values = [Fraction(v) for v in np.asarray(t, dtype=float).tolist()]
    left = [v for v, m in zip(values, np.asarray(mask).tolist()) if m]
    right = [v for v, m in zip(values, np.asarray(mask).tolist()) if not m]
    if lam is None:
        def term(side):
            return sum(side) ** 2 / len(side) if side else Fraction(0)
        # SSE = sum(v^2) - (sum v)^2 / n, and the squares cancel between parent and sides
        return term(left) + term(right) - term(values)
    def term(side):
        return sum(side, Fraction(0)) ** 2 / (len(side) + Fraction(lam))
    return (term(left) + term(right) - term(values)) / 2 - Fraction(gamma)


def cart_key(split):
    """A CART split's candidate key, (feature, threshold), or None."""
    return None if split is None else split[:2]


def regularized_key(split):
    """A booster split's candidate key, missing values left before right, or None."""
    return None if split is None else (split[0], split[1], not split[2])


def check_tie_rule(got, expected, gain_of, tol, exact=True):
    """Check the kernel's split against the exact scorer's under the documented rule.

    ``got`` and ``expected`` are candidate keys in candidate order, such as
    (feature, threshold), or None for no split, and ``gain_of`` gives a key's
    exact gain. Equal keys pass. Otherwise their exact gains must be within
    2 * ``tol`` of each other, None (a leaf) having gain 0: the kernel picks
    within ``tol`` of its best approximate gain, and each approximate gain is
    off by at most half of ``tol``. Two splits must tie exactly (with
    ``exact``), and ``got`` must come first in candidate order unless its
    gain is the higher. Returns whether the two differ.
    """
    if got == expected:
        return False
    gain_got = Fraction(0) if got is None else gain_of(got)
    gain_expected = Fraction(0) if expected is None else gain_of(expected)
    assert abs(gain_got - gain_expected) <= 2 * Fraction(tol), (got, expected, tol)
    if got is not None and expected is not None:
        assert gain_got == gain_expected or not exact, (got, expected)
        assert got < expected or gain_got > gain_expected, (got, expected)
    return True
