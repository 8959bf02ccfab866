"""Scalar reference forms that the tests compare the package's batch paths against.

Each is the straightforward one-value computation that the package replaced
with an array form; the package itself never calls them.
"""

import math

import numpy as np

from costlab.cbr import DEFAULT_WEIGHTS
from costlab.errors import NegativeAttributeError, UnsupportedMissingError
from costlab.fuzzy import DEFAULT_SAMPLES
from costlab.genetic_fuzzy import _PopulationEvaluator


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
