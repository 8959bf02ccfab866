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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Predictor
from .data import Dataset, FEATURE_NAMES, FeatureVector, N_FEATURES
from .errors import NoRuleFiresError, ParseError, RuleConflictError

MF_COUNT = 7
SAMPLES = 1001  # points of the uniform output grid that centroids integrate over
# rows per strengths and centroids pass in a batch, to bound its (rows, R) strengths
# and (rows, SAMPLES) grid; the batch's (n, 4, 7) memberships are taken in one pass
STRENGTH_CHUNK = 64
OUTPUT_NAME = "cost"
_VARIABLE_ORDER = (*FEATURE_NAMES, OUTPUT_NAME)


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


def triangular_memberships(
    x: np.ndarray, left: np.ndarray, peak: np.ndarray, right: np.ndarray, sides: tuple | None = None
) -> np.ndarray:
    """Membership degree in [0, 1] of the points ``x`` in the triangles with these
    breakpoints, all four broadcast together; bit-identical to the scalar oracle
    ``membership`` in ``tests/oracles.py`` for non-NaN ``x``. A NaN ``x`` gives
    0.0 where the oracle gives NaN; ``Predictor`` rejects missing values first.
    ``sides`` are the side widths ``(peak - left, right - peak)`` when the caller
    keeps them."""
    rise, fall = (peak - left, right - peak) if sides is None else sides
    with np.errstate(divide="ignore", invalid="ignore"):  # flat sides: +-inf, NaN at the peak
        rising = (x - left) / rise
        falling = (right - x) / fall
    # On [left, right] the smaller side is the membership: left of the peak
    # rising <= 1 <= falling, right of it falling <= 1 <= rising.
    inside = (x >= left) & (x <= right)
    return np.where(x == peak, 1.0, np.where(inside, np.minimum(rising, falling), 0.0))


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

    @cached_property
    def breakpoints(self) -> np.ndarray:
        """(3, 7) left, peak and right breakpoints of the membership functions."""
        return np.array([[mf.left, mf.peak, mf.right] for mf in self.mfs]).T


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


Groups = tuple[np.ndarray, np.ndarray, np.ndarray]


def group_consequents(consequents: np.ndarray) -> Groups:
    """The rules grouped by consequent, for ``FuzzyEngine.centroids``: the order that
    sorts them by consequent, each group's start in that order, and each group's
    0-based output set."""
    order = consequents.argsort()
    named, starts = np.unique(consequents[order], return_index=True)
    return order, starts, named - 1


@dataclass(frozen=True)
class RuleBase:
    """Conflict-free, duplicate-free rule set over five fuzzy variables, and the
    inference engine over them: its builder's, when handed one, or a new one."""

    rules: tuple[FuzzyRule, ...]
    input_vars: tuple[FuzzyVariable, FuzzyVariable, FuzzyVariable, FuzzyVariable]
    output_var: FuzzyVariable
    engine: FuzzyEngine | None = field(default=None, compare=False, repr=False)

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
        if self.engine is None:
            object.__setattr__(self, "engine", FuzzyEngine(self.input_vars, self.output_var))

    @cached_property
    def antecedents(self) -> np.ndarray:
        """(R, 4) antecedent MF indices, one row per rule."""
        return np.array([r.antecedent for r in self.rules], dtype=int)

    @cached_property
    def groups(self) -> Groups:
        """The rules grouped by consequent, for ``FuzzyEngine.centroids``."""
        return group_consequents(np.array([r.consequent for r in self.rules], dtype=int))


@dataclass(frozen=True, eq=False)
class InferenceResult:
    """One row's crisp cost, whether it is the fallback, and what its fired-rule
    trace is built from when ``fired`` is first read."""

    value: float
    degraded: bool
    strengths: np.ndarray = field(repr=False)  # (R,) firing strength of each rule
    rules: tuple[FuzzyRule, ...] = field(repr=False)

    @cached_property
    def fired(self) -> tuple[tuple[FuzzyRule, float], ...]:
        """The rules with a positive strength and their strengths, strongest
        first, ties in rule order."""
        row = self.strengths
        return tuple(
            (self.rules[r], float(row[r]))
            # strengths are >= 0, so the fired lead
            for r in np.argsort(-row, kind="stable")[: np.count_nonzero(row > 0.0)]
        )


class FuzzyEngine:
    """Vectorized inference for a fixed variable set and output grid.

    All inference in the package routes through this class so that scalar
    calls and batched calls produce identical floating-point results; the
    scalar ``membership`` and ``fire_rule`` are oracles in ``tests/oracles.py``.
    """

    def __init__(self, input_vars: Sequence[FuzzyVariable], output_var: FuzzyVariable):
        self.input_vars = tuple(input_vars)
        self.output_var = output_var
        self.grid = np.linspace(output_var.lo, output_var.hi, SAMPLES)
        self.step = (output_var.hi - output_var.lo) / (SAMPLES - 1)
        # (7, G) membership of each output MF on the grid
        self.consequent_grid = triangular_memberships(
            self.grid, *output_var.breakpoints[:, :, None]
        )
        # grid index range [a, b) where each output MF is nonzero (a triangle's
        # nonzero points are contiguous); (0, 0) for one that misses every point
        self.supports = [
            (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)
            for idx in map(np.flatnonzero, self.consequent_grid > 0.0)
        ]
        # (4, 7) left, peak and right breakpoints of every input MF, and its side widths
        self.left, self.peak, self.right = np.stack(
            [var.breakpoints for var in self.input_vars], axis=1
        )
        self.sides = (self.peak - self.left, self.right - self.peak)

    def input_memberships(self, X: np.ndarray) -> np.ndarray:
        """(n, 4) inputs -> (n, 4, 7) membership degrees."""
        x = np.asarray(X, dtype=float)[:, :, None]
        return triangular_memberships(x, self.left, self.peak, self.right, self.sides)

    def strengths(self, memberships: np.ndarray, antecedents: np.ndarray) -> np.ndarray:
        """(n, 4, 7) memberships and (R, 4) antecedents -> (n, R) firing strengths:
        the running minimum of each feature's (n, R) gather, which ``min`` does
        not round, so it equals the minimum over one (n, R, 4) gather."""
        columns = antecedents.T - 1
        out = memberships[:, 0][:, columns[0]]
        for d in range(1, N_FEATURES):
            np.minimum(out, memberships[:, d][:, columns[d]], out=out)
        return out

    def _trapezoid(self, values: np.ndarray) -> np.ndarray:
        # uniform-grid trapezoid rule along the last axis
        return self.step * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1]))

    def centroids(self, strengths: np.ndarray, groups: Groups) -> tuple[np.ndarray, np.ndarray]:
        """Clip, aggregate, and defuzzify the (n, R) strengths of rules grouped by
        ``group_consequents``; returns (values, fired mask).

        Rules sharing a consequent are merged before clipping, which is exact:
        max_r min(s_r, mu_c(r)) = max_c min(max_{r: c(r) = c} s_r, mu_c), a max
        over each run of the rules sorted by consequent; an output set that no
        rule names is grouped at -inf and never wins the max.
        Rows where no rule fires get NaN and a False mask entry and skip the
        quadrature: only the fired rows are clipped and summed, which is exact
        because each row's area and moment reduce along its own grid axis.

        Only the sets with a positive grouped strength in some fired row are
        aggregated, each over its support, into zeros. That is exact too: a
        fired row has a set above 0, so its max over all sets is >= 0 at every
        point, and each set's clip is 0 or -inf off its support and when its
        strength is not above 0; max and min do not round. So a batch call, as
        a predict chunk or a GA population makes, gives each row the value a
        one-row call gives it.
        """
        fired = strengths.max(axis=1) > 0.0
        order, starts, sets = groups
        grouped = np.full((int(fired.sum()), MF_COUNT), -np.inf)  # (f, 7)
        grouped[:, sets] = np.maximum.reduceat(strengths[fired][:, order], starts, axis=1)
        aggregated = np.zeros((grouped.shape[0], self.grid.size))
        for c in np.flatnonzero((grouped > 0.0).any(axis=0)):
            a, b = self.supports[c]
            part = aggregated[:, a:b]
            np.maximum(part, np.minimum(grouped[:, c, None], self.consequent_grid[c, a:b]), out=part)
        area = self._trapezoid(aggregated)  # then the moment's products overwrite it
        moment = self._trapezoid(np.multiply(aggregated, self.grid, out=aggregated))
        has_area = area > 0.0
        ok = fired.copy()
        ok[fired] = has_area
        values = np.full(strengths.shape[0], np.nan)
        values[ok] = moment[has_area] / area[has_area]
        return values, ok


def fire(rule_base: RuleBase, memberships: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 4, 7) memberships -> the rows' (n, R) firing strengths and their (n,)
    centroids, NaN where no rule fires or ``centroids`` finds no area; the rows are
    defuzzified in one ``centroids`` call, made only when some rule fires."""
    engine = rule_base.engine
    strengths = engine.strengths(memberships, rule_base.antecedents)
    centroids = np.full(len(strengths), np.nan)
    if strengths.max() > 0.0:
        centroids = engine.centroids(strengths, rule_base.groups)[0]
    return strengths, centroids


def infer_detail(
    rule_base: RuleBase,
    x: np.ndarray,
    fallback: float | None = None,
    strengths: np.ndarray | None = None,
    centroid: float | None = None,
) -> InferenceResult:
    """Crisp cost of one (4,) row, with the fired-rule trace and the
    degraded-fallback flag; without a fallback, raises NO_RULE_FIRES when
    nothing fires. The row is finite: ``Predictor`` rejects a missing value first.

    ``strengths`` are the row's (R,) firing strengths and ``centroid`` its
    centroid, both from ``fire`` when the caller has them from a batch pass;
    without them, ``fire`` runs here on the one row."""
    if strengths is None:
        (strengths,), (centroid,) = fire(rule_base, rule_base.engine.input_memberships(x[None, :]))
    if centroid == centroid:  # not NaN
        return InferenceResult(float(centroid), False, strengths, rule_base.rules)
    if fallback is None:
        raise NoRuleFiresError("no rule fires for this input")
    return InferenceResult(float(fallback), True, strengths, rule_base.rules)


# -- rule-base construction ----------------------------------------------------


def variables_from_dataset(train: Dataset) -> tuple[tuple[FuzzyVariable, ...], FuzzyVariable]:
    """Default variables spanning the observed data ranges; a constant one spans
    a unit universe centred on its value."""
    variables = []
    for name, values in zip(_VARIABLE_ORDER, (*train.features_matrix.T, train.targets)):
        lo, hi = float(values.min()), float(values.max())
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        variables.append(default_variable(name, lo, hi))
    return tuple(variables[:N_FEATURES]), variables[N_FEATURES]


def derive_rule_base(train: Dataset) -> RuleBase:
    """Vote one rule per training case from its maximal-membership functions.

    Identical antecedents with different consequents keep the consequent with
    the highest cumulative firing strength (ties to the lower MF index).
    """
    input_vars, output_var = variables_from_dataset(train)
    engine = FuzzyEngine(input_vars, output_var)
    memberships = engine.input_memberships(train.features_matrix)
    ant_indices = memberships.argmax(axis=2) + 1
    out_memberships = triangular_memberships(train.targets[:, None], *output_var.breakpoints)
    cons_indices = out_memberships.argmax(axis=1) + 1
    # each case's own rule: the membership at the argmax is the maximum
    strengths = memberships.max(axis=2).min(axis=1)
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
    return RuleBase(tuple(rules), tuple(input_vars), output_var, engine)


# -- rule file format ----------------------------------------------------------


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
                lo, hi = float(parts[2]), float(parts[3])
            except ValueError:
                raise ParseError(f"bad universe bounds {parts[2:]!r}", row=line_no)
            if not (lo < hi and np.isfinite(hi - lo)):  # also rejects nan and inf bounds
                raise ParseError(
                    f"universe bounds must be finite with lo < hi, got {parts[2:]!r}", row=line_no
                )
            universes[name] = (lo, hi)
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
    """Zoo wrapper: an expert rule file, read and checked when the model is built,
    or rules derived from the training data at fit.

    Inputs that fire no rule fall back to the training-mean cost and are
    flagged as degraded in the inference trace.
    """

    model_kind = "fuzzy"

    def __init__(self, rule_file: str | None = None):
        super().__init__()
        self.fallback: float | None = None
        try:
            self.rule_base: RuleBase | None = None if rule_file is None else load_rules(rule_file)
        except FileNotFoundError:
            raise ValueError(f"rule_file does not exist: {rule_file}") from None
        except (ParseError, RuleConflictError, OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"rule_file {rule_file}: {exc}") from exc

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        if self.rule_base is None:  # no rule file was read
            self.rule_base = derive_rule_base(train)
        self.fallback = float(np.mean(train.targets))

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        """The memberships of the whole batch in one pass; then ``fire`` on
        ``STRENGTH_CHUNK`` rows at a time, and one ``infer_detail`` call per row
        with its strengths and centroid, which decides the row."""
        rule_base = self.rule_base
        memberships = rule_base.engine.input_memberships(X)
        values = np.empty(len(X))
        for start in range(0, len(X), STRENGTH_CHUNK):
            chunk = slice(start, start + STRENGTH_CHUNK)
            strengths, centroids = fire(rule_base, memberships[chunk])
            for i, (x, row, centroid) in enumerate(zip(X[chunk], strengths, centroids), start):
                result = infer_detail(rule_base, x, self.fallback, strengths=row, centroid=centroid)
                values[i] = result.value
        return values

    def explain(self, x: FeatureVector) -> list[str]:
        """The degraded flag, then up to ten fired rules."""
        detail = infer_detail(self.rule_base, x.row[0], self.fallback)
        lines = ["DEGRADED: no rule fired; training-mean fallback used"] if detail.degraded else []
        for rule, strength in detail.fired[:10]:
            ants = " ".join(str(a) for a in rule.antecedent)
            lines.append(f"rule {ants} -> {rule.consequent} fired at {strength:.4f}")
        return lines
