"""Mamdani fuzzy inference over seven triangular membership functions per variable.

Rules are IF-THEN statements whose antecedent names one membership function
per driver and whose consequent names one on the cost variable. Inference is
min-AND firing, min implication (clip), max aggregation, and centroid
defuzzification by trapezoidal quadrature on a uniform grid of the output
universe.

Rule bases are file-loadable; when no expert file is supplied a rule base is
derived from training data (each case votes for the rule formed by its
maximal-membership functions, conflicts resolved by cumulative firing
strength).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FEATURE_NAMES, FeatureVector, N_FEATURES
from .errors import (
    NoRuleFiresError,
    ParseError,
    RuleConflictError,
    UnsupportedMissingError,
)

MF_COUNT = 7
DEFAULT_SAMPLES = 1001
OUTPUT_NAME = "cost"


@dataclass(frozen=True)
class TriangularMF:
    """Triangle with membership 1 at the peak, 0 outside [left, right]."""

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.peak <= self.right):
            raise ValueError(
                f"triangle breakpoints must be ordered, got {(self.left, self.peak, self.right)}"
            )


def membership(mf: TriangularMF, x: float) -> float:
    """Piecewise-linear membership degree in [0, 1]."""
    if x < mf.left or x > mf.right:
        return 0.0
    if x == mf.peak:
        return 1.0
    if x < mf.peak:
        return (x - mf.left) / (mf.peak - mf.left)
    return (mf.right - x) / (mf.right - mf.peak)


def membership_grid(mf: TriangularMF, xs: np.ndarray) -> np.ndarray:
    """Vectorized membership; bit-identical to the scalar form per point."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=float)
    if mf.peak > mf.left:
        mask = (xs >= mf.left) & (xs < mf.peak)
        out[mask] = (xs[mask] - mf.left) / (mf.peak - mf.left)
    if mf.right > mf.peak:
        mask = (xs > mf.peak) & (xs <= mf.right)
        out[mask] = (mf.right - xs[mask]) / (mf.right - mf.peak)
    out[xs == mf.peak] = 1.0
    return out


@dataclass(frozen=True)
class FuzzyVariable:
    """Named universe partitioned by exactly seven ordered triangles."""

    name: str
    lo: float
    hi: float
    mfs: tuple[TriangularMF, ...]

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"{self.name}: universe must have lo < hi")
        if len(self.mfs) != MF_COUNT:
            raise ValueError(f"{self.name}: expected {MF_COUNT} membership functions")
        peaks = [mf.peak for mf in self.mfs]
        if peaks != sorted(peaks):
            raise ValueError(f"{self.name}: membership functions must be ordered by peak")
        if self.mfs[0].left > self.lo or self.mfs[-1].right < self.hi:
            raise ValueError(f"{self.name}: membership functions do not span the universe")
        for prev, nxt in zip(self.mfs, self.mfs[1:]):
            covered = nxt.left < prev.right or (
                nxt.left == prev.right and (prev.peak == prev.right or nxt.peak == nxt.left)
            )
            if not covered:
                raise ValueError(
                    f"{self.name}: coverage gap between supports ending {prev.right} "
                    f"and starting {nxt.left}"
                )


def default_variable(name: str, lo: float, hi: float) -> FuzzyVariable:
    """Seven evenly spaced triangles with 50 percent overlap.

    Peaks sit at lo + j*(hi-lo)/6; each interior triangle spans its two
    neighboring peaks and the endpoint triangles are half-triangles
    (shoulders) so the whole universe is covered.
    """
    peaks = [lo + j * (hi - lo) / 6.0 for j in range(MF_COUNT)]
    peaks[-1] = hi
    mfs = []
    for j, peak in enumerate(peaks):
        left = peaks[j - 1] if j > 0 else lo
        right = peaks[j + 1] if j < MF_COUNT - 1 else hi
        mfs.append(TriangularMF(left, peak, right))
    return FuzzyVariable(name, lo, hi, tuple(mfs))


@dataclass(frozen=True)
class FuzzyRule:
    """Antecedent MF index per driver (1..7) and a consequent MF index."""

    antecedent: tuple[int, int, int, int]
    consequent: int

    def __post_init__(self):
        indices = (*self.antecedent, self.consequent)
        if len(self.antecedent) != N_FEATURES or any(
            not (1 <= int(i) <= MF_COUNT) for i in indices
        ):
            raise ValueError(f"rule indices must be in 1..{MF_COUNT}: {self}")


@dataclass(frozen=True)
class RuleBase:
    """Conflict-free, duplicate-free rule set over five fuzzy variables."""

    rules: tuple[FuzzyRule, ...]
    input_vars: tuple[FuzzyVariable, FuzzyVariable, FuzzyVariable, FuzzyVariable]
    output_var: FuzzyVariable

    def __post_init__(self):
        if not self.rules:
            raise ValueError("rule base must be nonempty")
        seen: dict[tuple[int, ...], int] = {}
        for rule in self.rules:
            prior = seen.get(rule.antecedent)
            if prior is None:
                seen[rule.antecedent] = rule.consequent
            elif prior == rule.consequent:
                raise RuleConflictError(f"duplicate rule {rule.antecedent} -> {rule.consequent}")
            else:
                raise RuleConflictError(
                    f"conflicting consequents {prior} and {rule.consequent} "
                    f"for antecedent {rule.antecedent}"
                )


def fire_rule(rule_base: RuleBase, rule: FuzzyRule, x: FeatureVector) -> float:
    """min-AND firing strength of one rule at a crisp input."""
    if x.has_missing:
        raise UnsupportedMissingError("fuzzy inference requires complete feature vectors")
    strength = 1.0
    for var, mf_index, value in zip(rule_base.input_vars, rule.antecedent, x.as_tuple()):
        strength = min(strength, membership(var.mfs[mf_index - 1], value))
    return strength


@dataclass(frozen=True)
class InferenceResult:
    value: float
    fired: tuple[tuple[FuzzyRule, float], ...]
    degraded: bool


def _check_samples(samples: int) -> None:
    if samples < 1000:
        raise ValueError(f"need at least 1000 quadrature samples, got {samples}")


class FuzzyEngine:
    """Vectorized inference for a fixed variable set and output grid.

    All inference in the package routes through this class so that scalar
    calls and batched calls produce identical floating-point results.
    """

    def __init__(
        self,
        input_vars: Sequence[FuzzyVariable],
        output_var: FuzzyVariable,
        samples: int = DEFAULT_SAMPLES,
    ):
        _check_samples(samples)
        self.input_vars = tuple(input_vars)
        self.output_var = output_var
        self.samples = samples
        self.grid = np.linspace(output_var.lo, output_var.hi, samples)
        self.step = (output_var.hi - output_var.lo) / (samples - 1)
        # (7, G) membership of each output MF on the grid
        self.consequent_grid = np.stack(
            [membership_grid(mf, self.grid) for mf in output_var.mfs]
        )

    def input_memberships(self, X: np.ndarray) -> np.ndarray:
        """(n, 4) inputs -> (n, 4, 7) membership degrees."""
        X = np.asarray(X, dtype=float)
        out = np.empty((X.shape[0], N_FEATURES, MF_COUNT), dtype=float)
        for d, var in enumerate(self.input_vars):
            for m, mf in enumerate(var.mfs):
                out[:, d, m] = membership_grid(mf, X[:, d])
        return out

    def strengths(self, memberships: np.ndarray, antecedents: np.ndarray) -> np.ndarray:
        """(n, 4, 7) memberships and (R, 4) antecedents -> (n, R) firing strengths."""
        n = memberships.shape[0]
        r = antecedents.shape[0]
        gathered = np.empty((n, r, N_FEATURES), dtype=float)
        for d in range(N_FEATURES):
            gathered[:, :, d] = memberships[:, d, antecedents[:, d] - 1]
        return gathered.min(axis=2)

    def _trapezoid(self, values: np.ndarray) -> np.ndarray:
        # uniform-grid trapezoid rule along the last axis
        return self.step * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))

    def centroids(
        self, strengths: np.ndarray, consequents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clip, aggregate, and defuzzify; returns (values, fired mask).

        Rows where no rule fires get NaN and a False mask entry.
        """
        clipped = np.minimum(
            strengths[:, :, None], self.consequent_grid[consequents - 1][None, :, :]
        )
        aggregated = clipped.max(axis=1)
        area = self._trapezoid(aggregated)
        moment = self._trapezoid(aggregated * self.grid)
        fired = strengths.max(axis=1) > 0.0
        values = np.full(strengths.shape[0], np.nan)
        ok = fired & (area > 0.0)
        values[ok] = moment[ok] / area[ok]
        return values, ok


@lru_cache(maxsize=32)
def _engine_for(
    input_vars: tuple[FuzzyVariable, ...], output_var: FuzzyVariable, samples: int
) -> FuzzyEngine:
    return FuzzyEngine(input_vars, output_var, samples)


def engine_for(rule_base: RuleBase, samples: int = DEFAULT_SAMPLES) -> FuzzyEngine:
    return _engine_for(rule_base.input_vars, rule_base.output_var, samples)


def infer(rule_base: RuleBase, x: FeatureVector, samples: int = DEFAULT_SAMPLES) -> float:
    """Crisp cost for one input; raises NO_RULE_FIRES when nothing fires."""
    return infer_detail(rule_base, x, samples=samples).value


def infer_detail(
    rule_base: RuleBase,
    x: FeatureVector,
    samples: int = DEFAULT_SAMPLES,
    fallback: float | None = None,
) -> InferenceResult:
    """Inference with the fired-rule trace and the degraded-fallback flag."""
    if x.has_missing:
        raise UnsupportedMissingError("fuzzy inference requires complete feature vectors")
    engine = engine_for(rule_base, samples)
    antecedents = np.array([r.antecedent for r in rule_base.rules], dtype=int)
    consequents = np.array([r.consequent for r in rule_base.rules], dtype=int)
    memberships = engine.input_memberships(x.to_array()[None, :])
    strengths = engine.strengths(memberships, antecedents)
    values, ok = engine.centroids(strengths, consequents)
    fired = tuple(
        (rule, float(s))
        for rule, s in sorted(
            zip(rule_base.rules, strengths[0]), key=lambda pair: -pair[1]
        )
        if s > 0.0
    )
    if ok[0]:
        return InferenceResult(float(values[0]), fired, degraded=False)
    if fallback is None:
        raise NoRuleFiresError("no rule fires for this input")
    return InferenceResult(float(fallback), fired, degraded=True)


# -- rule-base construction ----------------------------------------------------


def variables_from_dataset(train: Dataset) -> tuple[tuple[FuzzyVariable, ...], FuzzyVariable]:
    """Default variables spanning the observed data ranges."""
    X = train.features_matrix
    if np.isnan(X).any():
        raise UnsupportedMissingError("fuzzy variables need complete feature values")
    inputs = []
    for d, name in enumerate(FEATURE_NAMES):
        lo, hi = float(X[:, d].min()), float(X[:, d].max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        inputs.append(default_variable(name, lo, hi))
    y = train.targets
    lo, hi = float(y.min()), float(y.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    return tuple(inputs), default_variable(OUTPUT_NAME, lo, hi)


def derive_rule_base(
    train: Dataset,
    variables: tuple[tuple[FuzzyVariable, ...], FuzzyVariable] | None = None,
    samples: int = DEFAULT_SAMPLES,
) -> RuleBase:
    """Vote one rule per training case from its maximal-membership functions.

    Identical antecedents with different consequents keep the consequent with
    the highest cumulative firing strength (ties to the lower MF index).
    """
    if len(train) == 0:
        raise ValueError("cannot derive rules from an empty dataset")
    input_vars, output_var = variables or variables_from_dataset(train)
    engine = _engine_for(tuple(input_vars), output_var, samples)
    memberships = engine.input_memberships(train.features_matrix)
    ant_indices = memberships.argmax(axis=2) + 1
    out_memberships = np.stack(
        [membership_grid(mf, train.targets) for mf in output_var.mfs], axis=1
    )
    cons_indices = out_memberships.argmax(axis=1) + 1
    strengths = np.min(
        np.take_along_axis(memberships, (ant_indices - 1)[:, :, None], axis=2)[:, :, 0],
        axis=1,
    )
    votes: dict[tuple[int, ...], dict[int, float]] = {}
    for i in range(len(train)):
        ant = tuple(int(a) for a in ant_indices[i])
        votes.setdefault(ant, {})
        votes[ant][int(cons_indices[i])] = votes[ant].get(int(cons_indices[i]), 0.0) + float(
            strengths[i]
        )
    rules = []
    for ant in sorted(votes):
        tallies = votes[ant]
        best = min(tallies, key=lambda c: (-tallies[c], c))
        rules.append(FuzzyRule(ant, best))
    return RuleBase(tuple(rules), tuple(input_vars), output_var)


# -- rule file format ----------------------------------------------------------

_VARIABLE_ORDER = (*FEATURE_NAMES, OUTPUT_NAME)


def rules_to_text(rule_base: RuleBase) -> str:
    """Canonical text form: universe header block then one rule per line."""
    lines = []
    for var in (*rule_base.input_vars, rule_base.output_var):
        lines.append(f"universe {var.name} {var.lo!r} {var.hi!r}")
    for rule in rule_base.rules:
        ants = " ".join(str(a) for a in rule.antecedent)
        lines.append(f"{ants} -> {rule.consequent}")
    return "\n".join(lines) + "\n"


def rules_from_text(text: str) -> RuleBase:
    """Parse the rule file format; `#` starts a comment."""
    universes: dict[str, tuple[float, float]] = {}
    rules: list[FuzzyRule] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "universe":
            if len(parts) != 4:
                raise ParseError("universe line needs: universe <name> <lo> <hi>", row=line_no)
            name = parts[1]
            if name not in _VARIABLE_ORDER:
                raise ParseError(f"unknown variable {name!r}", row=line_no)
            if name in universes:
                raise ParseError(f"duplicate universe for {name!r}", row=line_no)
            try:
                universes[name] = (float(parts[2]), float(parts[3]))
            except ValueError:
                raise ParseError(f"bad universe bounds {parts[2:]!r}", row=line_no)
            continue
        if len(parts) != 6 or parts[4] != "->":
            raise ParseError(f"expected 'a1 a2 a3 a4 -> c', got {line!r}", row=line_no)
        try:
            indices = [int(p) for p in (*parts[:4], parts[5])]
        except ValueError:
            raise ParseError(f"rule indices must be integers: {line!r}", row=line_no)
        try:
            rules.append(FuzzyRule(tuple(indices[:4]), indices[4]))
        except ValueError as exc:
            raise ParseError(str(exc), row=line_no)
    missing = [name for name in _VARIABLE_ORDER if name not in universes]
    if missing:
        raise ParseError(f"missing universe declarations for {missing}")
    if not rules:
        raise ParseError("rule file contains no rules")
    variables = [default_variable(name, *universes[name]) for name in _VARIABLE_ORDER]
    return RuleBase(tuple(rules), tuple(variables[:N_FEATURES]), variables[N_FEATURES])


def save_rules(rule_base: RuleBase, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(rules_to_text(rule_base))


def load_rules(path: str) -> RuleBase:
    with open(path, "r", encoding="utf-8") as fh:
        return rules_from_text(fh.read())


class FuzzyPredictor(Predictor):
    """Zoo wrapper: expert rule file when supplied, data-derived rules otherwise.

    Inputs that fire no rule fall back to the training-mean cost and are
    flagged as degraded in the inference trace.
    """

    model_kind = "fuzzy"

    def __init__(self, rule_file: str | None = None, samples: int = DEFAULT_SAMPLES):
        super().__init__()
        _check_samples(samples)
        self.rule_file = rule_file
        self.samples = samples
        self.rule_base: RuleBase | None = None
        self.fallback: float | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        if self.rule_file is not None:
            self.rule_base = load_rules(self.rule_file)
        else:
            self.rule_base = derive_rule_base(train, samples=self.samples)
        self.fallback = float(np.mean(train.targets))

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.infer_trace(FeatureVector.from_array(x)).value for x in X])

    def infer_trace(self, x: FeatureVector) -> InferenceResult:
        """Inference with fired rules and the degraded flag, for reporting."""
        return infer_detail(self.rule_base, x, samples=self.samples, fallback=self.fallback)
