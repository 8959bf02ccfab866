"""Ordinary least squares on the four drivers with five target transforms.

Each transform changes the space the linear model is fit in and the inverse
applied at prediction time:

    plain       z = y          predict y = z
    sqrt        z = sqrt(y)    predict y = z^2        (the "quadratic" model)
    log         z = ln(y)      predict y = exp(z)     (semilog)
    reciprocal  z = 1/y        predict y = 1/z
    square      z = y^2        predict y = sqrt(z)    (power-2)

The module also exposes a frozen sqrt-space model whose constants double as
the synthetic generator's ground truth, used as a regression-test anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Predictor, TargetTransform
from .data import Dataset, GENERATOR_COEFFS, GENERATOR_INTERCEPT
from .errors import (
    NegativeSqrtDomainError,
    NonconvergenceError,
    RankDeficientError,
    TransformDomainError,
    UnsupportedMissingError,
)

_CONDITION_LIMIT = 1e10


class LinearTransform(Enum):
    PLAIN = "plain"
    SQRT = "sqrt"
    LOG = "log"
    RECIPROCAL = "reciprocal"
    SQUARE = "square"

    @property
    def needs_positive_targets(self) -> bool:
        return self in (LinearTransform.SQRT, LinearTransform.LOG, LinearTransform.RECIPROCAL)

    def forward(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.needs_positive_targets and np.any(y <= 0):
            raise TransformDomainError(
                f"{self.value} regression requires strictly positive targets"
            )
        if self is LinearTransform.PLAIN:
            return y.copy()
        if self is LinearTransform.SQRT:
            return np.sqrt(y)
        if self is LinearTransform.LOG:
            return np.log(y)
        if self is LinearTransform.RECIPROCAL:
            return 1.0 / y
        return y * y

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Cost of every output; a negative root is reported only when every
        earlier row is finite, as the caller reports the first non-finite row."""
        z = np.asarray(z, dtype=float)
        if self is LinearTransform.PLAIN:
            return z
        if self is LinearTransform.LOG:
            return TargetTransform.NATURAL_LOG.inverse(z)
        if self is LinearTransform.RECIPROCAL:
            with np.errstate(divide="ignore"):
                out = 1.0 / z
            if not np.isfinite(out).all():
                raise NonconvergenceError("reciprocal-space output of 0 has no inverse")
            return out
        with np.errstate(invalid="ignore"):
            out = z * z if self is LinearTransform.SQRT else np.sqrt(z)
        negative = z < 0
        if negative.any():
            r = int(negative.argmax())
            if np.isfinite(out[:r]).all():
                space = "sqrt-space" if self is LinearTransform.SQRT else "squared-space"
                raise NegativeSqrtDomainError(
                    f"{space} output {float(z[r])!r} is negative; cost undefined"
                )
        return out


@dataclass(frozen=True)
class LinearModel:
    """Affine model in transformed target space."""

    intercept: float
    coefficients: tuple[float, float, float, float]
    transform: LinearTransform
    condition_number: float = float("nan")

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Inverse of intercept + sum of c_j * X[:, j], added in coefficient order."""
        total = np.full(X.shape[0], self.intercept)
        for j, coef in enumerate(self.coefficients):
            total += coef * X[:, j]
        return self.transform.inverse(total)


def fit_ols(train: Dataset, transform: LinearTransform) -> LinearModel:
    """Least-squares fit in the transformed target space.

    Solved via SVD (rank-revealing); fewer rows than the design's columns, or
    a condition number above 1e10, is rejected as rank deficient.
    """
    if train.has_missing_features:
        raise UnsupportedMissingError("OLS cannot train on missing feature values")
    z = transform.forward(train.targets)
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
        transform=transform,
        condition_number=cond,
    )


def reference_model() -> LinearModel:
    """Frozen sqrt-space quadratic model (the synthetic generator's truth)."""
    return LinearModel(
        intercept=GENERATOR_INTERCEPT,
        coefficients=GENERATOR_COEFFS,
        transform=LinearTransform.SQRT,
        condition_number=1.0,
    )


class RegressionPredictor(Predictor):
    """Zoo wrapper for one transformed OLS fit."""

    def __init__(self, transform: LinearTransform = LinearTransform.PLAIN):
        super().__init__()
        self.transform = transform
        self.model_kind = f"{transform.value}_regression"
        self.model: LinearModel | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.model = fit_ols(train, self.transform)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict(X)


class FrozenQuadraticPredictor(RegressionPredictor):
    """Pinned sqrt-space model; fit only checks preconditions."""

    def __init__(self):
        super().__init__(LinearTransform.SQRT)
        self.model_kind = "frozen_quadratic"
        self.model = reference_model()

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        pass
