"""Project records: CSV ingestion, train/test splitting, and synthetic data.

A record is one field-canal improvement project: four cost drivers plus the
observed cost. Feature slots may individually be missing (``None``); the cost
never is. Datasets are immutable once built and expose cached numpy views
(missing features appear as NaN in the matrix form).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    InvalidSplitError,
    ParseError,
    RangeExhaustedError,
    SchemaMismatchError,
)

FEATURE_NAMES = (
    "p1_area_served",
    "p2_pipeline_length",
    "p3_irrigation_valves",
    "p4_construction_year",
)
N_FEATURES = 4

CSV_COLUMNS = (
    "id",
    "area_served",
    "pipeline_length_m",
    "irrigation_valves",
    "construction_year",
    "cost_le",
)

# Ground truth of the synthetic generator: cost = (sqrt-domain value)^2 where
# the sqrt-domain value is affine in the four drivers. The frozen quadratic
# baseline in the regression module is built from the same constants.
GENERATOR_INTERCEPT = -37032.81
GENERATOR_COEFFS = (2.21, 0.1691, 2.265, 18.594)

# Driver ranges used by synthesize(); chosen so the sqrt-domain value stays
# comfortably positive across the whole box (construction years 2010-2015).
SYNTH_RANGES = (
    (20.0, 300.0),
    (200.0, 3000.0),
    (5.0, 60.0),
    (2010.0, 2015.0),
)

_REJECTION_LIMIT = 1000
_MAX_NOISE_PCT = float(np.finfo(float).max / 2)  # the largest whose double is finite


@dataclass(frozen=True)
class FeatureVector:
    """Four cost drivers in fixed order; ``None`` marks a missing slot."""

    p1_area_served: float | None
    p2_pipeline_length: float | None
    p3_irrigation_valves: float | None
    p4_construction_year: float | None

    def __post_init__(self):
        for name, value in zip(FEATURE_NAMES, self.as_tuple()):
            if value is None:
                continue
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name == "p4_construction_year":
                if value <= 0:
                    raise ValueError(f"{name} must be positive, got {value!r}")
            elif value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")

    def as_tuple(self) -> tuple[float | None, float | None, float | None, float | None]:
        return (
            self.p1_area_served,
            self.p2_pipeline_length,
            self.p3_irrigation_valves,
            self.p4_construction_year,
        )

    def to_array(self) -> np.ndarray:
        """Dense float view with NaN standing in for missing slots."""
        return np.array(self.as_tuple(), dtype=float)

    @cached_property
    def row(self) -> np.ndarray:
        """The vector as one read-only (1, 4) query row, built on first read; it is
        not a field, so equality, hashing and the repr ignore it."""
        row = self.to_array()[None, :]
        row.setflags(write=False)
        return row


@dataclass(frozen=True)
class ProjectRecord:
    """One project: identifier, cost drivers, and observed cost (LE/canal)."""

    id: str
    features: FeatureVector
    cost_le: float

    def __post_init__(self):
        if not (math.isfinite(self.cost_le) and self.cost_le > 0):
            raise ValueError(f"cost_le must be a positive real, got {self.cost_le!r}")
        year = self.features.p4_construction_year
        if year is not None and not (1900.0 <= year <= 2100.0):
            raise ValueError(f"construction_year out of range [1900, 2100]: {year!r}")


class Dataset(Sequence[ProjectRecord]):
    """Immutable collection of project records with cached array views."""

    def __init__(self, records: Iterable[ProjectRecord]):
        self._records = tuple(records)
        # numpy reads a missing slot's None as NaN
        self._X = np.array(
            [rec.features.as_tuple() for rec in self._records], dtype=float
        ).reshape(-1, N_FEATURES)
        self._y = np.array([rec.cost_le for rec in self._records], dtype=float)
        self._X.setflags(write=False)
        self._y.setflags(write=False)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ProjectRecord]:
        return iter(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Dataset(self._records[index])
        return self._records[index]

    @property
    def features_matrix(self) -> np.ndarray:
        """(n, 4) float matrix; missing slots are NaN."""
        return self._X

    @property
    def targets(self) -> np.ndarray:
        return self._y

    @cached_property
    def has_missing_features(self) -> bool:
        return bool(np.isnan(self._X).any())  # _X is read-only, so one look serves

    def subset(self, indices: Sequence[int]) -> "Dataset":
        return Dataset(self._records[int(i)] for i in indices)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition request: a fraction or an explicit train count."""

    train_fraction: float | None = None
    train_count: int | None = None
    seed: int = 0

    def resolve_train_count(self, total: int) -> int:
        if self.train_count is not None:
            return int(self.train_count)
        if self.train_fraction is not None:
            return int(round(self.train_fraction * total))
        # Default mirrors the 144 -> 111/33 protocol for any dataset size.
        return int(round(total * 111.0 / 144.0))


def load_csv(path: str) -> Dataset:
    """Parse a project CSV into a Dataset.

    Header must match the declared schema exactly. Empty feature cells become
    missing slots; an empty or nonpositive cost cell is a parse error.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatchError(f"{path}: empty file, expected header row")
        if tuple(h.strip() for h in header) != CSV_COLUMNS:
            raise SchemaMismatchError(
                f"{path}: header {header!r} does not match schema {list(CSV_COLUMNS)}"
            )
        records = []
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(CSV_COLUMNS):
                raise ParseError(
                    f"expected {len(CSV_COLUMNS)} cells, got {len(row)}", row=row_no
                )
            rec_id = row[0].strip()
            if not rec_id:
                raise ParseError("empty id", row=row_no, column="id")
            feats = []
            for col_idx in range(1, 5):
                cell = row[col_idx].strip()
                if not cell:
                    feats.append(None)
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"not a number: {cell!r}", row=row_no, column=CSV_COLUMNS[col_idx]
                    )
            cost_cell = row[5].strip()
            if not cost_cell:
                raise ParseError("missing cost", row=row_no, column="cost_le")
            try:
                cost = float(cost_cell)
            except ValueError:
                raise ParseError(
                    f"not a number: {cost_cell!r}", row=row_no, column="cost_le"
                )
            if not (math.isfinite(cost) and cost > 0):
                raise ParseError(
                    f"nonpositive target: {cost_cell!r}", row=row_no, column="cost_le"
                )
            try:
                records.append(ProjectRecord(rec_id, FeatureVector(*feats), cost))
            except ValueError as exc:
                raise ParseError(str(exc), row=row_no)
    return Dataset(records)


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the ingestion schema (empty cells for missing)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec in dataset:
            cells = [rec.id]
            for value in rec.features.as_tuple():
                cells.append("" if value is None else repr(value))
            cells.append(repr(rec.cost_le))
            writer.writerow(cells)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seed-deterministic train/test partition."""
    n = len(dataset)
    if n < 2:
        raise InvalidSplitError(f"need at least 2 records to split, got {n}")
    train_count = spec.resolve_train_count(n)
    if not (1 <= train_count <= n - 1):
        raise InvalidSplitError(
            f"train count {train_count} leaves an empty side for {n} records"
        )
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    train_idx = np.sort(order[:train_count])
    test_idx = np.sort(order[train_count:])
    return dataset.subset(train_idx), dataset.subset(test_idx)


@dataclass(frozen=True)
class GreenRuleCheck:
    adequate: bool
    minimum: int


def check_green_rule(train_size: int, n_features: int) -> GreenRuleCheck:
    """Minimum-sample-size rule for regression: 50 + 8 per predictor."""
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    minimum = 50 + 8 * n_features
    return GreenRuleCheck(adequate=train_size >= minimum, minimum=minimum)


def generator_sqrt_value(features: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Affine sqrt-domain value of the synthetic cost generator, of one (4,)
    row or of each row of an (n, 4) array: the intercept, then each
    coefficient term added left to right."""
    values = np.asarray(features, dtype=float)
    total = GENERATOR_INTERCEPT
    for j, coef in enumerate(GENERATOR_COEFFS):
        total = total + coef * values[..., j]
    return total


def check_noise_pct(noise_pct: float) -> None:
    """Raise a ValueError unless ``noise_pct`` is >= 0 and the noise's doubled
    width, ``2 * noise_pct``, is finite, as a uniform draw over it needs."""
    if not 0 <= noise_pct < np.inf:  # the negated form also rejects a nan
        raise ValueError(f"noise_pct must be finite and >= 0, got {noise_pct}")
    if noise_pct > _MAX_NOISE_PCT:
        raise ValueError(
            f"noise_pct must be at most {_MAX_NOISE_PCT} so the noise's doubled "
            f"width is finite, got {noise_pct}"
        )


def synthesize(
    n: int,
    seed: int,
    noise_pct: float,
    ranges: Sequence[tuple[float, float]] = SYNTH_RANGES,
) -> Dataset:
    """Generate ``n`` records with uniform drivers and quadratic ground truth.

    Cost is the squared sqrt-domain value perturbed multiplicatively by a
    uniform factor in [1 - noise_pct/100, 1 + noise_pct/100]. Draws whose
    sqrt-domain value is nonpositive (or whose noise factor would flip the
    cost sign) are rejected and redrawn.

    Each draw is five uniforms of the seed's stream, the four drivers then the
    noise, each computed from its double as ``Generator.uniform`` computes it.
    Draws come in blocks of one per record still needed; the records are the
    first ``n`` accepted draws in stream order, and a run of rejections counts
    toward ``_REJECTION_LIMIT`` across blocks.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_noise_pct(noise_pct)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    lows = np.array([*(lo for lo, _ in ranges), -noise_pct], dtype=float)
    widths = np.array([*(hi for _, hi in ranges), noise_pct], dtype=float) - lows
    if not np.isfinite(widths).all():
        raise OverflowError("Range exceeds valid bounds")  # as Generator.uniform does
    drivers, costs = [], []
    accepted = rejected_run = 0
    while accepted < n:
        draws = lows + widths * rng.random((n - accepted, 5))
        base = generator_sqrt_value(draws[:, :4])
        factor = 1.0 + draws[:, 4] / 100.0
        keep = np.flatnonzero((base > 0) & (factor > 0))
        # rejection runs: before the first kept draw (with the carried run),
        # between kept draws, and after the last, which carries on
        runs = np.diff(np.concatenate(([-1 - rejected_run], keep, [len(draws)]))) - 1
        if runs.max() >= _REJECTION_LIMIT:
            raise RangeExhaustedError(
                f"rejected {_REJECTION_LIMIT} consecutive draws; ranges produce no "
                "positive sqrt-domain value"
            )
        rejected_run = int(runs[-1])
        drivers += draws[keep, :4].tolist()
        costs += ((base[keep] * base[keep]) * factor[keep]).tolist()
        accepted += len(keep)
    width = len(str(n))
    return Dataset(
        ProjectRecord(f"synth-{i:0{width}d}", FeatureVector(*row), cost)
        for i, (row, cost) in enumerate(zip(drivers, costs))
    )
