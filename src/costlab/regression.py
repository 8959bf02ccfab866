"""Ordinary least squares on the four drivers, fit in any target space.

``RegressionPredictor`` fits the targets that ``Predictor.fit`` has passed
through its ``TargetTransform`` (the five spaces are tabled there), and the
base class inverts every prediction. The module also exposes a frozen
sqrt-space model whose constants double as the synthetic generator's ground
truth, used as a regression-test anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Predictor, TargetTransform
from .data import Dataset, GENERATOR_COEFFS, GENERATOR_INTERCEPT
from .errors import RankDeficientError

_CONDITION_LIMIT = 1e10


@dataclass(frozen=True)
class LinearModel:
    """Affine model in transformed target space."""

    intercept: float
    coefficients: tuple[float, float, float, float]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """intercept + sum of c_j * X[:, j], added left to right in coefficient order:
        the running sum of the rows of [intercept | X * coefficients]."""
        terms = np.empty((X.shape[0], 1 + len(self.coefficients)))
        terms[:, 0] = self.intercept
        np.multiply(X, self.coefficients, out=terms[:, 1:])
        return np.cumsum(terms, axis=1)[:, -1]


def fit_ols(train: Dataset, z: np.ndarray) -> LinearModel:
    """Least-squares fit of the (transformed) targets ``z`` of ``train``.

    Solved via SVD (rank-revealing); fewer rows than the design's columns, or
    a condition number above 1e10, is rejected as rank deficient.
    """
    X = train.features_matrix
    design = np.hstack([np.ones((len(train), 1)), X])
    if design.shape[0] < design.shape[1]:
        # the SVD then returns only n singular values, hiding the zero ones
        raise RankDeficientError(
            f"{design.shape[0]} training rows cannot fit {design.shape[1]} parameters"
        )
    singular = np.linalg.svd(design, compute_uv=False)
    smallest = singular[-1]
    cond = math.inf if smallest == 0 else float(singular[0] / smallest)
    if cond > _CONDITION_LIMIT:
        raise RankDeficientError(
            f"design matrix condition number {cond:.3e} exceeds {_CONDITION_LIMIT:.0e}"
        )
    beta, *_ = np.linalg.lstsq(design, z, rcond=None)
    return LinearModel(
        intercept=float(beta[0]),
        coefficients=tuple(float(b) for b in beta[1:]),
    )


def reference_model() -> LinearModel:
    """Frozen sqrt-space quadratic model (the synthetic generator's truth)."""
    return LinearModel(
        intercept=GENERATOR_INTERCEPT,
        coefficients=GENERATOR_COEFFS,
    )


class RegressionPredictor(Predictor):
    """Zoo wrapper for one OLS fit in the given target space."""

    def __init__(self, transform: TargetTransform, model_kind: str):
        super().__init__(transform)
        self.model_kind = model_kind
        self.model: LinearModel | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.model = fit_ols(train, y)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(X)


class FrozenQuadraticPredictor(RegressionPredictor):
    """Pinned sqrt-space model; fit only checks preconditions."""

    def __init__(self):
        super().__init__(TargetTransform.SQRT, "frozen_quadratic")
        self.model = reference_model()

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        pass
