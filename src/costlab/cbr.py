"""Case-based reasoning: retrieve the most similar stored project, reuse its cost.

Attribute similarity is min/max of the two nonnegative values (1 when both
are zero, 0 when exactly one is). Case similarity is the attribute-weight
average. Prediction reuses the similarity-weighted mean cost of the top-k
cases; the default k=1 is pure reuse of the best case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FeatureVector, N_FEATURES, ProjectRecord
from .errors import (
    KTooLargeError,
    NegativeAttributeError,
    UnsupportedMissingError,
    ZeroWeightSumError,
)

DEFAULT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)


def _attribute_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise min/max of nonnegative values; 1 where both are zero."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    with np.errstate(invalid="ignore"):  # 0/0 where both are zero
        return np.where(hi == 0.0, 1.0, lo / hi)


def check_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """The attribute weights as floats: four, each finite and >= 0, with a positive
    sum. An all-zero set is ZERO_WEIGHT_SUM, any other breach a ValueError."""
    checked = tuple(float(w) for w in weights)
    valid = len(checked) == N_FEATURES and all(0.0 <= w < math.inf for w in checked)
    if valid and sum(checked) > 0:  # the comparisons also reject a nan
        return checked
    error = ZeroWeightSumError if valid else ValueError
    raise error(
        f"need {N_FEATURES} finite, nonnegative attribute weights with a positive sum, "
        f"got {checked}"
    )


def case_similarity(
    new: FeatureVector, stored: np.ndarray, weights: Sequence[float] = DEFAULT_WEIGHTS
) -> np.ndarray:
    """Weighted average of the four attribute similarities to each of the (m, 4)
    stored cases; bit-identical to the scalar oracle in ``tests/oracles.py``."""
    b = np.asarray(stored, dtype=float)
    if new.has_missing or np.isnan(b).any():
        raise UnsupportedMissingError("case similarity requires complete feature vectors")
    weights = check_weights(weights)
    a = new.to_array()
    if (a < 0).any() or (b < 0).any():
        raise NegativeAttributeError("attribute values must be nonnegative")
    sims = _attribute_similarities(a, b)
    score = 0.0
    for j, w in enumerate(weights):
        score = score + w * sims[:, j]
    return score / sum(weights)


@dataclass(frozen=True)
class CaseBase:
    """Stored cases plus the attribute weights used for retrieval."""

    cases: tuple[ProjectRecord, ...]
    attribute_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if not self.cases:
            raise ValueError("case base must be nonempty")
        check_weights(self.attribute_weights)

    @cached_property
    def features(self) -> np.ndarray:
        """(m, 4) feature matrix of the stored cases, in case order."""
        return np.array([case.features.to_array() for case in self.cases])

    @cached_property
    def id_rank(self) -> np.ndarray:
        """Rank of each case's id in lexical order; equal ids share a rank."""
        ranks = {case_id: r for r, case_id in enumerate(sorted({c.id for c in self.cases}))}
        return np.array([ranks[case.id] for case in self.cases])


@dataclass(frozen=True)
class RetrievalResult:
    best_case: ProjectRecord
    case_similarity: float
    query: FeatureVector

    @cached_property
    def per_attribute(self) -> tuple[float, float, float, float]:
        """Attribute similarities of the query to the best case, computed when read."""
        sims = _attribute_similarities(self.query.to_array(), self.best_case.features.to_array())
        return tuple(float(s) for s in sims)


def retrieve_and_predict(
    case_base: CaseBase, x: FeatureVector, k: int = 1
) -> tuple[float, RetrievalResult]:
    """Rank cases by similarity, reuse the weighted mean of the top-k costs.

    Ties in similarity break toward the lexically smaller case id. If every
    retained similarity is zero the top-k costs are averaged unweighted.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > len(case_base.cases):
        raise KTooLargeError(f"k={k} exceeds case base size {len(case_base.cases)}")
    sims = case_similarity(x, case_base.features, case_base.attribute_weights)
    order = np.lexsort((case_base.id_rank, -sims))[:k]
    top = [(float(sims[i]), case_base.cases[i]) for i in order]
    sim_sum = sum(sim for sim, _ in top)
    if sim_sum > 0:
        cost = sum(sim * case.cost_le for sim, case in top) / sim_sum
    else:
        cost = sum(case.cost_le for _, case in top) / len(top)
    best_sim, best_case = top[0]
    return cost, RetrievalResult(best_case, best_sim, x)


class CbrPredictor(Predictor):
    """Zoo wrapper: the training set becomes the case base."""

    model_kind = "cbr"

    def __init__(self, k: int = 1, attribute_weights: Sequence[float] = DEFAULT_WEIGHTS):
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.attribute_weights = check_weights(attribute_weights)
        self.case_base: CaseBase | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.case_base = CaseBase(train.records, self.attribute_weights)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.retrieve(FeatureVector.from_array(x))[0] for x in X])

    def retrieve(self, x: FeatureVector) -> tuple[float, RetrievalResult]:
        """Prediction plus the retrieval trace for reporting."""
        return retrieve_and_predict(self.case_base, x, self.k)
