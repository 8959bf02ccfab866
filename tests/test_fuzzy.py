import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from oracles import fire_rule, membership
from costlab.data import FeatureVector
from costlab.errors import NoRuleFiresError, ParseError, RuleConflictError, UnsupportedMissingError
from costlab.fuzzy import (
    FuzzyPredictor,
    FuzzyRule,
    FuzzyVariable,
    RuleBase,
    TriangularMF,
    default_variable,
    derive_rule_base,
    infer_detail,
    rules_from_text,
    rules_to_text,
    triangular_memberships,
    variables_from_dataset,
)

IN_NAMES = ("p1_area_served", "p2_pipeline_length", "p3_irrigation_valves", "p4_construction_year")


def simple_rule_base(rules, out_lo=0.0, out_hi=600.0):
    in_vars = tuple(default_variable(n, 0.0, 10.0) for n in IN_NAMES)
    out_var = default_variable("cost", out_lo, out_hi)
    return RuleBase(tuple(rules), in_vars, out_var)


class TestMembership:
    def test_peak(self):
        assert membership(TriangularMF(0, 5, 10), 5.0) == 1.0

    def test_rising_edge_midpoint(self):
        assert membership(TriangularMF(0, 5, 10), 2.5) == 0.5

    def test_outside_support(self):
        mf = TriangularMF(0, 5, 10)
        assert membership(mf, 12.0) == 0.0
        assert membership(mf, -1.0) == 0.0

    def test_shoulders(self):
        left_shoulder = TriangularMF(0, 0, 10)
        assert membership(left_shoulder, 0.0) == 1.0
        assert membership(left_shoulder, 5.0) == 0.5
        right_shoulder = TriangularMF(0, 10, 10)
        assert membership(right_shoulder, 10.0) == 1.0

    def test_grid_matches_scalar_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = float(rng.uniform(0, 5))
            b = a + float(rng.uniform(0, 5))
            c = b + float(rng.uniform(0, 5))
            mf = TriangularMF(a, b, c)
            xs = rng.uniform(a - 1, c + 1, 50)
            grid_vals = triangular_memberships(xs, mf.left, mf.peak, mf.right)
            for x, v in zip(xs, grid_vals):
                assert membership(mf, float(x)) == v

    def test_in_unit_interval_and_continuous(self):
        mf = TriangularMF(1.0, 4.0, 9.0)
        xs = np.linspace(0, 10, 5001)
        vals = triangular_memberships(xs, mf.left, mf.peak, mf.right)
        assert np.all((vals >= 0) & (vals <= 1))
        assert np.max(np.abs(np.diff(vals))) < 1e-2  # no jumps on a dense grid

    def test_ordering_validated(self):
        with pytest.raises(ValueError):
            TriangularMF(5, 4, 10)


class TestDefaultVariable:
    def test_seven_ordered_triangles_cover_universe(self):
        var = default_variable("v", 10.0, 70.0)
        assert len(var.mfs) == 7
        peaks = [mf.peak for mf in var.mfs]
        assert peaks == [10.0 + 10.0 * j for j in range(7)]
        assert var.mfs[0].left == var.mfs[0].peak == 10.0  # left shoulder
        assert var.mfs[-1].peak == var.mfs[-1].right == 70.0  # right shoulder
        # 50% overlap: each interior triangle spans neighbor peaks
        assert var.mfs[3].left == peaks[2] and var.mfs[3].right == peaks[4]
        xs = np.linspace(10, 70, 2001)
        total = np.zeros_like(xs)
        for mf in var.mfs:
            total = np.maximum(total, triangular_memberships(xs, mf.left, mf.peak, mf.right))
        assert np.all(total > 0)

    def test_gap_detected(self):
        mfs = tuple(
            TriangularMF(float(a), float(a) + 0.4, float(a) + 0.8) for a in range(7)
        )
        with pytest.raises(ValueError):
            FuzzyVariable("broken", 0.0, 6.8, mfs)


class TestRuleBase:
    def test_conflicting_consequents_rejected(self):
        with pytest.raises(RuleConflictError):
            simple_rule_base([FuzzyRule((1, 2, 3, 4), 5), FuzzyRule((1, 2, 3, 4), 6)])

    def test_exact_duplicates_rejected(self):
        with pytest.raises(RuleConflictError):
            simple_rule_base([FuzzyRule((1, 2, 3, 4), 5), FuzzyRule((1, 2, 3, 4), 5)])

    def test_index_range_validated(self):
        with pytest.raises(ValueError):
            FuzzyRule((0, 2, 3, 4), 5)
        with pytest.raises(ValueError):
            FuzzyRule((1, 2, 3, 4), 8)


class TestFireRule:
    def test_all_memberships_one(self):
        rb = simple_rule_base([FuzzyRule((2, 2, 2, 2), 4)])
        x = FeatureVector(*[10.0 / 6.0] * 4)  # at the second peak of every input
        assert fire_rule(rb, rb.rules[0], x) == 1.0

    def test_min_of_memberships(self):
        rb = simple_rule_base([FuzzyRule((1, 1, 1, 1), 4)])
        # MF1 is the left shoulder (0, 0, 10/6): membership = 1 - 0.6x
        x = FeatureVector(0.0, 10.0 / 12.0, 0.0, 0.0001)
        strength = fire_rule(rb, rb.rules[0], x)
        assert strength == pytest.approx(0.5, abs=1e-3)

    def test_zero_membership_kills_rule(self):
        rb = simple_rule_base([FuzzyRule((7, 1, 1, 1), 4)])
        x = FeatureVector(0.0, 0.0, 0.0, 0.0001)
        assert fire_rule(rb, rb.rules[0], x) == 0.0

    def test_missing_rejected(self):
        rb = simple_rule_base([FuzzyRule((1, 1, 1, 1), 4)])
        with pytest.raises(UnsupportedMissingError):
            fire_rule(rb, rb.rules[0], FeatureVector(1.0, None, 1.0, 1.0))


class TestInfer:
    def test_symmetric_full_strength_returns_peak(self):
        rb = simple_rule_base([FuzzyRule((2, 2, 2, 2), 4)])
        x = FeatureVector(*[10.0 / 6.0] * 4)
        peak = rb.output_var.mfs[3].peak
        step = (rb.output_var.hi - rb.output_var.lo) / 1000
        assert infer_detail(rb, x.to_array()).value == pytest.approx(peak, abs=step)

    def test_symmetric_half_strength_returns_peak(self):
        # fire the rule at 0.5: clipped symmetric trapezoid keeps its center
        rb = simple_rule_base([FuzzyRule((1, 2, 2, 2), 4)])
        x = FeatureVector(10.0 / 12.0, 10.0 / 6.0, 10.0 / 6.0, 10.0 / 6.0)
        strength = fire_rule(rb, rb.rules[0], x)
        assert strength == pytest.approx(0.5, abs=1e-9)
        peak = rb.output_var.mfs[3].peak
        step = (rb.output_var.hi - rb.output_var.lo) / 1000
        assert infer_detail(rb, x.to_array()).value == pytest.approx(peak, abs=2 * step)

    def test_two_rule_case_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            lo = float(rng.uniform(50, 200))
            hi = lo + float(rng.uniform(300, 2000))
            x = FeatureVector(*rng.uniform(0, 10, 4).tolist())
            xa = x.to_array()
            in_vars = tuple(default_variable(n, 0.0, 10.0) for n in IN_NAMES)
            out_var = default_variable("cost", lo, hi)
            candidates = [
                [m + 1 for m in range(7) if membership(in_vars[d].mfs[m], xa[d]) > 0]
                for d in range(4)
            ]
            rules, seen = [], set()
            while len(rules) < 2:
                ant = tuple(int(rng.choice(candidates[d])) for d in range(4))
                if ant in seen:
                    continue
                seen.add(ant)
                rules.append(FuzzyRule(ant, int(rng.integers(1, 8))))
            rb = RuleBase(tuple(rules), in_vars, out_var)
            got = infer_detail(rb, x.to_array()).value
            grid = np.linspace(lo, hi, 100001)
            agg = np.zeros_like(grid)
            for r in rules:
                s = fire_rule(rb, r, x)
                mu = triangular_memberships(grid, *out_var.breakpoints[:, r.consequent - 1])
                agg = np.maximum(agg, np.minimum(s, mu))
            oracle = float(np.trapezoid(agg * grid, grid) / np.trapezoid(agg, grid))
            assert got == pytest.approx(oracle, rel=1e-3)

    def test_output_within_universe(self):
        rng = np.random.default_rng(2)
        in_vars = tuple(default_variable(n, 0.0, 10.0) for n in IN_NAMES)
        out_var = default_variable("cost", 100.0, 900.0)
        rules = [FuzzyRule((i, i, i, i), 8 - i) for i in range(1, 8)]
        rb = RuleBase(tuple(rules), in_vars, out_var)
        for _ in range(50):
            x = FeatureVector(*rng.uniform(0, 10, 4).tolist())
            try:
                value = infer_detail(rb, x.to_array()).value
            except NoRuleFiresError:
                continue
            assert 100.0 <= value <= 900.0

    def test_monotone_pull_toward_stronger_rule(self):
        # raising one rule's strength moves the centroid toward its peak
        in_vars = tuple(default_variable(n, 0.0, 10.0) for n in IN_NAMES)
        out_var = default_variable("cost", 0.0, 600.0)
        rules = (FuzzyRule((1, 1, 1, 1), 2), FuzzyRule((2, 1, 1, 1), 6))
        rb = RuleBase(rules, in_vars, out_var)
        peak_high = out_var.mfs[5].peak
        previous = None
        x2 = 10.0 / 6.0
        for p1 in np.linspace(0.3, x2, 8):
            # moving p1 toward MF2's peak strengthens the second rule
            value = infer_detail(rb, np.array([p1, 0.0, 0.0, 0.0001])).value
            if previous is not None:
                assert value >= previous - 1e-9
            previous = value
        start = infer_detail(rb, np.array([0.3, 0.0, 0.0, 0.0001])).value
        assert abs(previous - peak_high) < abs(start - peak_high)

    def test_no_rule_fires_raises_without_fallback(self):
        rb = simple_rule_base([FuzzyRule((7, 7, 7, 7), 4)])
        x = FeatureVector(0.0, 0.0, 0.0, 0.0001)
        with pytest.raises(NoRuleFiresError):
            infer_detail(rb, x.to_array()).value

    def test_fallback_flags_degraded(self):
        rb = simple_rule_base([FuzzyRule((7, 7, 7, 7), 4)])
        x = FeatureVector(0.0, 0.0, 0.0, 0.0001)
        result = infer_detail(rb, x.to_array(), fallback=123.0)
        assert result.degraded and result.value == 123.0 and result.fired == ()

    def test_complete_rule_base_is_total(self):
        import itertools

        in_vars = tuple(default_variable(n, 0.0, 10.0) for n in IN_NAMES)
        out_var = default_variable("cost", 100.0, 900.0)
        rules = tuple(
            FuzzyRule(ant, (sum(ant) % 7) + 1)
            for ant in itertools.product(range(1, 8), repeat=4)
        )
        assert len(rules) == 2401
        rb = RuleBase(rules, in_vars, out_var)
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = FeatureVector(*rng.uniform(0, 10, 4).tolist())
            result = infer_detail(rb, x.to_array())  # must not raise
            assert not result.degraded
            assert 100.0 <= result.value <= 900.0


class TestRuleFiles:
    def test_round_trip_is_bit_exact(self):
        rb = simple_rule_base(
            [FuzzyRule((1, 2, 3, 4), 5), FuzzyRule((7, 6, 5, 4), 3)],
            out_lo=123.456789,
            out_hi=9876.54321,
        )
        text = rules_to_text(rb)
        loaded = rules_from_text(text)
        assert loaded == rb
        assert rules_to_text(loaded) == text

    def test_comments_and_blank_lines_ignored(self):
        rb = simple_rule_base([FuzzyRule((1, 2, 3, 4), 5)])
        text = rules_to_text(rb)
        noisy = "# a comment\n\n" + text.replace("\n1 2", "\n# inline\n1 2", 1)
        assert rules_from_text(noisy) == rb

    def test_conflicting_file_rejected(self):
        rb = simple_rule_base([FuzzyRule((1, 2, 3, 4), 5)])
        text = rules_to_text(rb) + "1 2 3 4 -> 6\n"
        with pytest.raises(RuleConflictError):
            rules_from_text(text)

    def test_missing_universe_rejected(self):
        with pytest.raises(ParseError):
            rules_from_text("1 2 3 4 -> 5\n")

    @pytest.mark.parametrize("bounds", ["5 1", "5 5", "nan 1", "0 nan", "0 inf", "-inf 0"])
    @pytest.mark.parametrize("name", [IN_NAMES[2], "cost"])
    def test_bad_universe_bounds_are_a_parse_error_on_their_row(self, name, bounds):
        text = rules_to_text(simple_rule_base([FuzzyRule((1, 2, 3, 4), 5)]))
        lines = text.splitlines()
        row = next(i for i, line in enumerate(lines, start=1) if line.split()[1] == name)
        lines[row - 1] = f"universe {name} {bounds}"
        with pytest.raises(ParseError) as err:
            rules_from_text("\n".join(lines) + "\n")
        assert err.value.code == "PARSE_ERROR"
        assert err.value.row == row
        assert f"(row {row})" in str(err.value)

    def test_bad_rule_line_rejected(self):
        rb = simple_rule_base([FuzzyRule((1, 2, 3, 4), 5)])
        text = rules_to_text(rb) + "1 2 3 -> 5\n"
        with pytest.raises(ParseError):
            rules_from_text(text)

    def test_save_load_file(self, tmp_path):
        from costlab.fuzzy import load_rules, save_rules

        rb = simple_rule_base([FuzzyRule((2, 3, 4, 5), 6)])
        path = str(tmp_path / "rules.txt")
        save_rules(rb, path)
        assert load_rules(path) == rb


class TestDerivedRules:
    def test_votes_cover_training_antecedents(self):
        train = random_dataset(40, seed=4, noise=0.2)
        rb = derive_rule_base(train)
        assert 1 <= len(rb.rules) <= 40
        # every training case fires at least one rule (its own vote)
        fallback_needed = 0
        for x in train.features_matrix:
            result = infer_detail(rb, x, fallback=0.0)
            if result.degraded:
                fallback_needed += 1
        assert fallback_needed == 0

    def test_conflict_resolution_cumulative_strength(self):
        # two clusters sharing an antecedent cell vote different consequents;
        # the heavier cumulative strength must win
        X = np.array(
            [
                [1.0, 1.0, 1.0, 2010.2],
                [1.05, 1.0, 1.0, 2010.2],
                [1.1, 1.0, 1.0, 2010.21],
            ]
        )
        y = np.array([100.0, 100.0, 900.0])
        train = make_dataset(X, y)
        rb = derive_rule_base(train)
        antecedents = {r.antecedent for r in rb.rules}
        assert len(antecedents) == len(rb.rules)  # conflict-free by construction

    def test_predictor_integration(self):
        train = random_dataset(60, seed=6, noise=0.1)
        p = FuzzyPredictor().fit(train)
        value = p.predict(train[0].features)
        assert np.isfinite(value)
        trace = infer_detail(p.rule_base, train.features_matrix[0], p.fallback)
        assert not trace.degraded
        assert trace.fired


class TestVariablesFromDataset:
    def test_spans_observed_ranges(self):
        train = random_dataset(30, seed=7)
        inputs, output = variables_from_dataset(train)
        X = train.features_matrix
        for d, var in enumerate(inputs):
            assert var.lo == X[:, d].min() and var.hi == X[:, d].max()
        assert output.lo == train.targets.min()
        assert output.hi == train.targets.max()

    def test_constant_universes_span_one_unit_around_the_value(self):
        X = np.array([[5.0, 2.0, 3.0, 2013.0], [5.0, 4.0, 9.0, 2014.0]])
        inputs, output = variables_from_dataset(make_dataset(X, [250.0, 250.0]))
        assert (inputs[0].lo, inputs[0].hi) == (4.5, 5.5)
        assert (output.lo, output.hi) == (249.5, 250.5)
        assert (inputs[1].lo, inputs[1].hi) == (2.0, 4.0)  # a varying driver is not widened

    def test_degenerate_range_padded(self):
        X = np.array([[5.0, 2.0, 3.0, 2013.0], [5.0, 4.0, 9.0, 2014.0]])
        train = make_dataset(X, [100.0, 200.0])
        inputs, _ = variables_from_dataset(train)
        assert inputs[0].lo < 5.0 < inputs[0].hi
