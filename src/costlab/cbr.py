"""Case-based reasoning: retrieve the most similar stored project, reuse its cost.

Attribute similarity is min/max of the two nonnegative values (1 when both
are zero, 0 when exactly one is). Case similarity is the attribute-weight
average. Prediction reuses the similarity-weighted mean cost of the top-k
cases; the default k=1 is pure reuse of the best case.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def attribute_similarity(av_new: float, av_retrieved: float) -> float:
    """min/max similarity of two nonnegative attribute values."""
    if av_new < 0 or av_retrieved < 0:
        raise NegativeAttributeError(
            f"attribute values must be nonnegative, got ({av_new}, {av_retrieved})"
        )
    if av_new == 0.0 and av_retrieved == 0.0:
        return 1.0
    lo, hi = min(av_new, av_retrieved), max(av_new, av_retrieved)
    return lo / hi


def case_similarity(
    new: FeatureVector, stored: FeatureVector, weights: Sequence[float] = DEFAULT_WEIGHTS
) -> float:
    """Weighted average of the four attribute similarities."""
    if new.has_missing or stored.has_missing:
        raise UnsupportedMissingError("case similarity requires complete feature vectors")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ZeroWeightSumError("attribute weights must not sum to zero")
    score = 0.0
    for w, a, b in zip(weights, new.as_tuple(), stored.as_tuple()):
        score += w * attribute_similarity(a, b)
    return score / total_weight


@dataclass(frozen=True)
class CaseBase:
    """Stored cases plus the attribute weights used for retrieval."""

    cases: tuple[ProjectRecord, ...]
    attribute_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS

    def __post_init__(self):
        if not self.cases:
            raise ValueError("case base must be nonempty")
        if len(self.attribute_weights) != N_FEATURES:
            raise ValueError("expected one weight per attribute")
        if sum(self.attribute_weights) <= 0:
            raise ZeroWeightSumError("attribute weights must not sum to zero")

    def retain(self, record: ProjectRecord) -> "CaseBase":
        """New case base with one solved case appended."""
        return CaseBase(self.cases + (record,), self.attribute_weights)


@dataclass(frozen=True)
class RetrievalResult:
    best_case: ProjectRecord
    case_similarity: float
    per_attribute: tuple[float, float, float, float]


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
    weights = case_base.attribute_weights
    scored = sorted(
        ((case_similarity(x, case.features, weights), case) for case in case_base.cases),
        key=lambda pair: (-pair[0], pair[1].id),
    )
    top = scored[:k]
    sim_sum = sum(sim for sim, _ in top)
    if sim_sum > 0:
        cost = sum(sim * case.cost_le for sim, case in top) / sim_sum
    else:
        cost = sum(case.cost_le for _, case in top) / len(top)
    best_sim, best_case = top[0]
    per_attr = tuple(
        attribute_similarity(a, b)
        for a, b in zip(x.as_tuple(), best_case.features.as_tuple())
    )
    return cost, RetrievalResult(best_case, best_sim, per_attr)


class CbrPredictor(Predictor):
    """Zoo wrapper: the training set becomes the case base."""

    model_kind = "cbr"

    def __init__(self, k: int = 1, attribute_weights: Sequence[float] = DEFAULT_WEIGHTS):
        super().__init__()
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.attribute_weights = tuple(float(w) for w in attribute_weights)
        if len(self.attribute_weights) != N_FEATURES or sum(self.attribute_weights) <= 0:
            raise ValueError(
                f"need {N_FEATURES} attribute weights with a positive sum, "
                f"got {self.attribute_weights}"
            )
        self.case_base: CaseBase | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.case_base = CaseBase(train.records, self.attribute_weights)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.retrieve(FeatureVector.from_array(x))[0] for x in X])

    def retrieve(self, x: FeatureVector) -> tuple[float, RetrievalResult]:
        """Prediction plus the retrieval trace for reporting."""
        return retrieve_and_predict(self.case_base, x, self.k)
