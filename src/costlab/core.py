"""Uniform model contract shared by every family in the zoo.

A Predictor is fit once on a dataset and then predicts a cost for a feature
vector. An optional target transform wraps any family: targets are
transformed before the family-specific fit and the inverse is applied to
every prediction. Fitted predictors are treated as immutable.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import Dataset, FeatureVector
from .errors import (
    AlreadyFittedError,
    EmptyTestError,
    EmptyTrainError,
    NegativeSqrtDomainError,
    NonconvergenceError,
    TransformDomainError,
    UnfittedError,
    UnsupportedMissingError,
)
from .metrics import MapeCategory, adjusted_r_squared, categorize, mape, r_squared

DEFAULT_K_PREDICTORS = 4


class TargetTransform(Enum):
    """Invertible target-space change applied around a family's own fit.

    Each member changes the space a family is fit in and the inverse applied
    to every prediction:

        NONE         z = y          predict y = z
        SQRT         z = sqrt(y)    predict y = z^2        (the "quadratic" model)
        NATURAL_LOG  z = ln(y)      predict y = exp(z)     (semilog)
        RECIPROCAL   z = 1/y        predict y = 1/z
        SQUARE       z = y^2        predict y = sqrt(z)    (power-2)
    """

    NONE = "none"
    SQRT = "sqrt"
    NATURAL_LOG = "natural_log"
    RECIPROCAL = "reciprocal"
    SQUARE = "square"

    def forward(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self is TargetTransform.NONE:
            return y
        if self is TargetTransform.SQUARE:
            return y * y
        if np.any(y <= 0):
            raise TransformDomainError(
                f"{self.value} transform requires strictly positive targets"
            )
        if self is TargetTransform.SQRT:
            return np.sqrt(y)
        return np.log(y) if self is TargetTransform.NATURAL_LOG else 1.0 / y

    def inverse(self, z: np.ndarray) -> np.ndarray:
        """Cost of every output; a negative root is reported only when every
        earlier row is finite, as the caller reports the first non-finite row."""
        z = np.asarray(z, dtype=float)
        if self is TargetTransform.NONE:
            return z
        if self is TargetTransform.NATURAL_LOG:
            # math.exp per element: np.exp can differ from it in the last bit
            return np.fromiter(map(_exp, z.ravel().tolist()), float, z.size).reshape(z.shape)
        if self is TargetTransform.RECIPROCAL:
            with np.errstate(divide="ignore", over="ignore"):  # inf is left to the finite check
                return 1.0 / z
        if self is TargetTransform.SQRT:
            with np.errstate(over="ignore"):  # inf is left to the finite check
                out = z * z
        else:
            with np.errstate(invalid="ignore"):
                out = np.sqrt(z)
        negative = z < 0
        if negative.any():
            r = int(negative.argmax())
            if np.isfinite(out[:r]).all():
                space = "sqrt-space" if self is TargetTransform.SQRT else "squared-space"
                raise NegativeSqrtDomainError(
                    f"{space} output {float(z[r])!r} is negative; cost undefined"
                )
        return out


def _exp(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


class Predictor(ABC):
    """Base fit/predict contract, and the one gate on data.

    ``fit`` rejects an empty training set, and one with a missing feature value
    unless the family sets ``supports_missing``; a query row with a non-finite
    value counts as missing and is rejected the same way, after the rows before
    it are priced. Below the gate a family assumes what it checked: ``_fit``
    receives the nonempty training set plus the transformed target vector, and
    ``_predict_batch`` receives (n, 4) rows, finite unless the family routes
    missing values, and returns one value per row in the transformed space;
    ``predict`` is a batch of one.
    """

    model_kind: str = "predictor"
    supports_missing: bool = False

    def __init__(self, target_transform: TargetTransform = TargetTransform.NONE):
        self.target_transform = target_transform
        self._fitted = False

    def fit(self, train: Dataset) -> "Predictor":
        if self._fitted:
            raise AlreadyFittedError(f"{self.model_kind} is already fitted")
        if len(train) == 0:
            raise EmptyTrainError(f"{self.model_kind}: empty training set")
        if train.has_missing_features and not self.supports_missing:
            raise UnsupportedMissingError(
                f"{self.model_kind} cannot train on missing feature values"
            )
        y = self.target_transform.forward(train.targets)
        self._fit(train, y)
        self._fitted = True
        return self

    def predict(self, x: FeatureVector) -> float:
        """A batch of one."""
        return float(self._predict_checked(x.row)[0])

    def predict_many(self, dataset: Dataset) -> np.ndarray:
        return self._predict_checked(dataset.features_matrix)

    def _predict_checked(self, X: np.ndarray) -> np.ndarray:
        """Inverse-transformed predictions; an error is the first failing row's,
        so rows before the first unsupported missing (non-finite) value are
        predicted first."""
        if not self._fitted:
            raise UnfittedError(f"{self.model_kind}: predict before fit")
        n_ok = len(X)
        if not self.supports_missing and not np.isfinite(X).all():
            n_ok = int(np.isfinite(X).all(axis=1).argmin())
        out = self.target_transform.inverse(self._predict_batch(X[:n_ok]))
        if not np.isfinite(out).all():
            bad = float(out[~np.isfinite(out)][0])
            raise NonconvergenceError(f"{self.model_kind}: non-finite prediction {bad!r}")
        if n_ok < len(X):
            raise UnsupportedMissingError(
                f"{self.model_kind} cannot predict with missing feature values"
            )
        return out

    def output_files(self, model_id: str) -> dict[str, list[tuple]]:
        """Extra csv files of a fitted model for ``bench --out``: name -> rows, header first."""
        return {}

    def explain(self, x: FeatureVector) -> list[str]:
        """The trace lines ``costlab predict`` prints for one query."""
        return []

    @abstractmethod
    def _fit(self, train: Dataset, y: np.ndarray) -> None: ...

    @abstractmethod
    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        """(n, 4) features, NaN where missing -> (n,) transformed-space values."""


@dataclass(frozen=True)
class EvalReport:
    """One leaderboard row: accuracy of a single fitted model."""

    model_id: str
    mape_pct: float
    mape_category: MapeCategory
    r2: float
    adj_r2: float


def evaluate(
    predictor: Predictor,
    test: Dataset,
    model_id: str | None = None,
    k_predictors: int = DEFAULT_K_PREDICTORS,
    n_override: int | None = None,
) -> EvalReport:
    """Score a fitted predictor on a held-out set.

    ``n_override`` substitutes the sample count used by the adjusted-R2
    denominator (e.g. full-sample instead of test-sample accounting).
    """
    predicted = predictor.predict_many(test)
    model_id = model_id or predictor.model_kind
    return score_predictions(test, predicted, model_id, k_predictors, n_override)


def score_predictions(
    test: Dataset,
    predicted: np.ndarray,
    model_id: str,
    k_predictors: int = DEFAULT_K_PREDICTORS,
    n_override: int | None = None,
) -> EvalReport:
    """The scoring half of ``evaluate``, for predictions already made on ``test``."""
    if len(test) == 0:
        raise EmptyTestError("empty test set")
    actual = test.targets
    mape_pct = mape(actual, predicted)
    r2 = r_squared(actual, predicted)
    n = len(test) if n_override is None else int(n_override)
    adj = adjusted_r_squared(r2, k_predictors, n)
    return EvalReport(
        model_id=model_id,
        mape_pct=mape_pct,
        mape_category=categorize(mape_pct),
        r2=r2,
        adj_r2=adj,
    )
