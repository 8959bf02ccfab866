"""Scalar reference forms that the tests compare the package's batch paths against.

Each is the straightforward one-value computation that the package replaced
with an array form; the package itself never calls them.
"""

import math
from dataclasses import fields

import numpy as np

from costlab.cart import LEAF, RegressionTree
from costlab.cbr import DEFAULT_WEIGHTS
from costlab.errors import NegativeAttributeError, UnsupportedMissingError
from costlab.fuzzy import DEFAULT_SAMPLES, FuzzyRule, RuleBase
from costlab.genetic_fuzzy import GENE_MAX, _PopulationEvaluator
from costlab.metrics import mape


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
    if x.has_missing:
        raise UnsupportedMissingError("fuzzy inference requires complete feature vectors")
    strength = 1.0
    for var, mf_index, value in zip(rule_base.input_vars, rule.antecedent, x.as_tuple()):
        strength = min(strength, membership(var.mfs[mf_index - 1], value))
    return strength


def decode_and_fitness(population, train, variables=None, samples=DEFAULT_SAMPLES):
    """The decoded rule base of a population and its training MAPE."""
    return _PopulationEvaluator(train, variables, samples).decode_and_fitness(population)


def decode_and_fitness_per_candidate(evaluator, population):
    """``_PopulationEvaluator.decode_and_fitness`` with one ``centroids`` call per
    conflicting candidate: each consequent is scored alone on the rows its
    antecedent fires, and the lowest solo MAPE wins, ties to the lower consequent."""
    engine, targets = evaluator.engine, evaluator.targets
    pairs = list(dict.fromkeys((ch.genes[:4], ch.genes[4]) for ch in population))
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
                values, _ = engine.centroids(col[fired][:, None], np.array([cons], dtype=int))
                solo = mape(targets[fired], values)
            else:
                solo = math.inf
            if (solo, cons) < best_score:
                best_idx, best_score = idx, (solo, cons)
        winners.append(best_idx)

    rules = tuple(FuzzyRule(*pairs[i]) for i in winners)
    values, ok = engine.centroids(strengths[:, winners], np.array([r.consequent for r in rules]))
    values = np.where(ok, values, evaluator.fallback)
    rule_base = RuleBase(rules, evaluator.input_vars, evaluator.output_var)
    return rule_base, mape(targets, values)


# -- kernel regression ------------------------------------------------------------


def rbf_kernel(a, b, gamma_rbf):
    """exp(-gamma * squared distance); 1 at zero distance."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-gamma_rbf * float(diff @ diff))


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


# -- trees ------------------------------------------------------------------------


def grow_tree_one_node_at_a_time(
    X, t, params, leaf_value, find_split, score=None, breadth_first=False
):
    """``cart.grow_tree`` as the plain depth-first recursion.

    Each searched node is scored by ``score`` as a batch of one right before
    ``find_split`` decides it, so nothing is batched or reordered;
    ``breadth_first`` is accepted and ignored.
    """
    nodes = []

    def grow_node(X, t, depth):
        i = len(nodes)
        nodes.append(dict(feature=LEAF, threshold=np.nan, left=i, right=i, value=leaf_value(t),
                          n=t.size, default_left=-1, depth=depth))
        if depth >= params.max_depth or t.size < params.min_samples_split:
            return i
        split = find_split(X, t, None if score is None else score([(X, t)])[0])
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
