"""Uniform model contract shared by every family in the zoo.

A Predictor is fit once on a dataset and then predicts a cost for a feature
vector. An optional target transform (sqrt or natural log) wraps any family:
targets are transformed before the family-specific fit and the inverse is
applied to every prediction. Fitted predictors are treated as immutable.
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
    NonconvergenceError,
    NonpositiveTargetError,
    TransformDomainError,
    UnfittedError,
    UnsupportedMissingError,
)
from .metrics import MapeCategory, adjusted_r_squared, categorize, mape, r_squared

DEFAULT_K_PREDICTORS = 4


class TargetTransform(Enum):
    """Invertible target-space change applied around a family's own fit."""

    NONE = "none"
    SQRT = "sqrt"
    NATURAL_LOG = "natural_log"

    def forward(self, y: np.ndarray) -> np.ndarray:
        if self is TargetTransform.NONE:
            return np.asarray(y, dtype=float)
        y = np.asarray(y, dtype=float)
        if np.any(y <= 0):
            raise TransformDomainError(
                f"{self.value} transform requires strictly positive targets"
            )
        return np.sqrt(y) if self is TargetTransform.SQRT else np.log(y)

    def inverse(self, z: float) -> float:
        if self is TargetTransform.NONE:
            return float(z)
        if self is TargetTransform.SQRT:
            return float(z) * float(z)
        try:
            return math.exp(z)
        except OverflowError:
            return math.inf


class Predictor(ABC):
    """Base fit/predict contract.

    Subclasses implement ``_fit`` (receiving the training set plus the
    transformed target vector) and ``_predict`` (returning a value in the
    transformed space). Families that can route missing feature values set
    ``supports_missing``.
    """

    model_kind: str = "predictor"
    supports_missing: bool = False

    def __init__(self, target_transform: TargetTransform = TargetTransform.NONE):
        self.target_transform = target_transform
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

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
        if not self._fitted:
            raise UnfittedError(f"{self.model_kind}: predict before fit")
        if x.has_missing and not self.supports_missing:
            raise UnsupportedMissingError(
                f"{self.model_kind} cannot predict with missing feature values"
            )
        out = self.target_transform.inverse(self._predict(x))
        if not math.isfinite(out):
            raise NonconvergenceError(
                f"{self.model_kind}: non-finite prediction {out!r}"
            )
        return float(out)

    def predict_many(self, dataset: Dataset) -> np.ndarray:
        return np.array([self.predict(rec.features) for rec in dataset], dtype=float)

    @abstractmethod
    def _fit(self, train: Dataset, y: np.ndarray) -> None: ...

    @abstractmethod
    def _predict(self, x: FeatureVector) -> float: ...


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
    if np.any(actual <= 0):
        raise NonpositiveTargetError("evaluation requires strictly positive targets")
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
