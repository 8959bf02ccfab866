"""Case-based reasoning: retrieve the most similar stored project, reuse its cost.

Attribute similarity is min/max of the two nonnegative values (1 when both
are zero, 0 when exactly one is). Case similarity is the attribute-weight
average. Prediction reuses the similarity-weighted mean cost of the top-k
cases; the default k=1 is pure reuse of the best case. A batch of queries is
scored as one similarity matrix, and each row's top k are selected from it
without sorting the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FeatureVector, N_FEATURES
from .errors import KTooLargeError, NegativeAttributeError, ZeroWeightSumError

DEFAULT_WEIGHTS = (1.0, 1.0, 1.0, 1.0)
SIMILARITY_CHUNK = 64  # query rows scored together: bounds a batch's (4, rows, m) temporaries


def _attribute_similarities(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise min/max of nonnegative values; 1 where both are zero."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return np.divide(lo, hi, out=np.ones(lo.shape), where=hi != 0.0)


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
    X: np.ndarray, stored: np.ndarray, weights: Sequence[float] = DEFAULT_WEIGHTS
) -> np.ndarray:
    """(n, m) weighted average of the four attribute similarities of each (n, 4)
    query row to each (m, 4) stored case, under weights ``check_weights`` passed.
    Both sides are finite: ``Predictor`` rejects a missing value first. Each value
    is bit-identical to the scalar oracle in ``tests/oracles.py``."""
    if X.min(initial=0.0) < 0 or stored.min(initial=0.0) < 0:
        raise NegativeAttributeError("attribute values must be nonnegative")
    # feature-major (4, rows, m), each feature's cases contiguous, so each
    # feature's pass runs along them
    cases = np.ascontiguousarray(stored.T)[:, None, :]
    score = np.empty((len(X), len(stored)))
    for start in range(0, len(X), SIMILARITY_CHUNK):
        rows = slice(start, start + SIMILARITY_CHUNK)
        sims = _attribute_similarities(X[rows].T[:, :, None], cases)
        total = 0.0
        for w, sim in zip(weights, sims):
            total = total + w * sim
        score[rows] = total / sum(weights)
    return score


@dataclass(frozen=True)
class CaseBase:
    """The training set as the stored cases, plus the attribute weights used for retrieval."""

    cases: Dataset
    attribute_weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS

    @cached_property
    def id_order(self) -> np.ndarray:
        """Case indices sorted by id in lexical order; equal ids keep case order."""
        return np.array(sorted(range(len(self.cases)), key=lambda i: self.cases[i].id))


def retrieve_and_predict(
    case_base: CaseBase, X: np.ndarray, k: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Rank cases by similarity, reuse the weighted mean of the top-k costs.

    Ties in similarity break toward the lexically smaller case id. If every
    retained similarity is zero the top-k costs are averaged unweighted. An
    (n, 4) query matrix gives each row's cost and best case index, the same
    bits as one row alone.
    """
    cases = case_base.cases
    if k > len(cases):
        raise KTooLargeError(f"k={k} exceeds case base size {len(cases)}")
    sims = case_similarity(X, cases.features_matrix, case_base.attribute_weights)
    # the first maximum over columns in id order breaks ties toward the smaller id,
    # then the earlier case; each pick is masked out before the next
    rows = np.arange(len(sims))
    by_id = sims[:, case_base.id_order]
    order = np.empty((len(sims), k), dtype=int)
    for j in range(k):
        picked = by_id.argmax(axis=1)
        order[:, j] = case_base.id_order[picked]
        by_id[rows, picked] = -np.inf
    top_sims = sims[rows[:, None], order]
    top_costs = cases.targets[order]
    # the left-to-right sums of the scalar scan, a column at a time (0 + s is s)
    sim_sum, weighted, plain = top_sims[:, 0], top_sims[:, 0] * top_costs[:, 0], top_costs[:, 0]
    for j in range(1, k):
        sim_sum = sim_sum + top_sims[:, j]
        weighted = weighted + top_sims[:, j] * top_costs[:, j]
        plain = plain + top_costs[:, j]
    costs = np.divide(weighted, sim_sum, out=plain / k, where=sim_sum > 0)
    return costs, order[:, 0]


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
        self.case_base = CaseBase(train, self.attribute_weights)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return retrieve_and_predict(self.case_base, X, self.k)[0]

    def explain(self, x: FeatureVector) -> list[str]:
        """The best case, its similarity and its per-attribute similarities, scored
        again alone: an entry depends only on its (query, case) pair, so these are
        the bits of the retrieval's matrix."""
        row, cases = x.row, self.case_base.cases
        best = int(retrieve_and_predict(self.case_base, row, self.k)[1][0])
        case, stored = cases[best], cases.features_matrix[best]
        sim = case_similarity(row, stored[None, :], self.case_base.attribute_weights)[0, 0]
        per_attribute = _attribute_similarities(row[0], stored)
        return [
            f"retrieved case {case.id} (cost {case.cost_le!r}) with similarity {sim:.4f}",
            "per-attribute similarity: " + ", ".join(f"{s:.4f}" for s in per_attribute),
        ]
