"""The array forms of fuzzy inference and CBR retrieval against their scalar oracles.

``FuzzyEngine.centroids`` merges the rules that share a consequent before
clipping and aggregates only the firing output sets over their supports,
``FuzzyEngine.input_memberships`` evaluates every membership
function in one broadcast, ``case_similarity`` scores a whole case matrix
and ``retrieve_and_predict`` selects each row's top k from it. Each must agree with
the straightforward form, kept here or in ``oracles.py`` as the oracle, bit
for bit. ``infer_detail`` returns the fallback for a row that fires no rule
without defuzzifying it, and must agree with the form that defuzzifies every
row.
"""

import numpy as np
import pytest

from conftest import retrieve_one
from oracles import (
    attribute_similarity,
    centroids_full_grid,
    feature_vector,
    infer_detail_always_defuzzified,
    membership,
    scalar_case_similarity,
)
from costlab.cbr import (
    CaseBase,
    case_similarity,
    retrieve_and_predict,
)
from costlab.data import N_FEATURES, Dataset, FeatureVector, ProjectRecord
from costlab.errors import NoRuleFiresError
from costlab.fuzzy import (
    MF_COUNT,
    FuzzyEngine,
    FuzzyRule,
    FuzzyVariable,
    RuleBase,
    TriangularMF,
    default_variable,
    group_consequents,
    infer_detail,
    triangular_memberships,
)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# -- fuzzy ----------------------------------------------------------------------


def _engine():
    inputs = tuple(default_variable(f"x{d}", 0.0, 10.0 * (d + 1)) for d in range(4))
    return FuzzyEngine(inputs, default_variable("cost", 100.0, 900.0))


def ungrouped_centroids(engine, strengths, consequents):
    """One clipped output set per rule: the (n, R, G) form."""
    clipped = np.minimum(
        strengths[:, :, None], engine.consequent_grid[consequents - 1][None, :, :]
    )
    aggregated = clipped.max(axis=1)
    area = engine._trapezoid(aggregated)
    moment = engine._trapezoid(aggregated * engine.grid)
    ok = (strengths.max(axis=1) > 0.0) & (area > 0.0)
    values = np.full(strengths.shape[0], np.nan)
    values[ok] = moment[ok] / area[ok]
    return values, ok


def _random_case(rng):
    n = int(rng.integers(1, 7))
    r = 1 if rng.random() < 0.15 else int(rng.integers(2, 16))
    strengths = rng.random((n, r))
    if rng.random() < 0.5:  # a coarse grid of levels gives exact ties
        strengths = np.floor(strengths * 4.0) / 4.0
    strengths[rng.random(n) < 0.2] = 0.0  # rows where nothing fires
    # draw consequents from a subset, so some output sets have no rule
    pool = rng.choice(np.arange(1, MF_COUNT + 1), size=int(rng.integers(1, MF_COUNT + 1)),
                      replace=False)
    consequents = rng.choice(pool, size=r)
    return strengths, consequents


def test_grouped_centroids_match_the_per_rule_form_bit_for_bit():
    engine = _engine()
    rng = np.random.default_rng(2024)
    seen = {"tie": 0, "zero_row": 0, "single_rule": 0, "unused_consequent": 0}
    for _ in range(1500):
        strengths, consequents = _random_case(rng)
        values, ok = engine.centroids(strengths, group_consequents(consequents))
        want_values, want_ok = ungrouped_centroids(engine, strengths, consequents)
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(bits(values), bits(want_values))
        seen["tie"] += any(len(set(row[row > 0])) < np.count_nonzero(row) for row in strengths)
        seen["zero_row"] += bool((strengths.max(axis=1) == 0.0).any())
        seen["single_rule"] += strengths.shape[1] == 1
        seen["unused_consequent"] += len(set(consequents)) < MF_COUNT
    assert all(count > 50 for count in seen.values()), seen


def test_grouped_centroids_of_tied_rules_on_one_consequent():
    engine = _engine()
    strengths = np.array([[0.5, 0.5, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.5, 1.0, 0.5]])
    consequents = np.array([3, 3, 5, 3])
    values, ok = engine.centroids(strengths, group_consequents(consequents))
    want_values, want_ok = ungrouped_centroids(engine, strengths, consequents)
    assert ok.tolist() == want_ok.tolist() == [True, False, True]
    assert np.array_equal(bits(values), bits(want_values))


@pytest.mark.parametrize("n", [0, 1, 40])
def test_centroids_of_a_batch_where_no_rule_fires(n):
    engine = _engine()
    strengths = np.zeros((n, 3))
    consequents = np.array([2, 4, 4])
    values, ok = engine.centroids(strengths, group_consequents(consequents))
    want_values, want_ok = ungrouped_centroids(engine, strengths, consequents)
    assert values.shape == ok.shape == (n,)
    assert values.dtype == float and ok.dtype == bool
    assert np.isnan(values).all() and not ok.any()
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(bits(values), bits(want_values))


def test_centroids_of_one_fired_row_among_many_unfired():
    engine = _engine()
    rng = np.random.default_rng(11)
    consequents = np.array([1, 3, 3, 6, 7, 2])
    for row in (0, 57, 199):
        strengths = np.zeros((200, consequents.size))
        strengths[row] = rng.random(consequents.size)
        values, ok = engine.centroids(strengths, group_consequents(consequents))
        want_values, want_ok = ungrouped_centroids(engine, strengths, consequents)
        assert np.flatnonzero(ok).tolist() == [row]
        assert np.array_equal(ok, want_ok)
        assert np.array_equal(bits(values), bits(want_values))
        # the fired row's value does not depend on the unfired rows around it
        alone, _ = engine.centroids(strengths[row : row + 1], group_consequents(consequents))
        assert bits(values[row]) == bits(alone[0])


@pytest.mark.parametrize("consequent", range(1, MF_COUNT + 1))
def test_centroids_of_a_single_rule_batch(consequent):
    engine = _engine()
    rng = np.random.default_rng(consequent)
    strengths = rng.random((30, 1))
    strengths[rng.random(30) < 0.4] = 0.0
    consequents = np.array([consequent])
    values, ok = engine.centroids(strengths, group_consequents(consequents))
    want_values, want_ok = ungrouped_centroids(engine, strengths, consequents)
    assert 0 < np.count_nonzero(ok) < 30
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(bits(values), bits(want_values))


def _skewed_output(rng):
    """Seven triangles between neighbouring peaks drawn at random: some narrow
    enough to hold one grid point or none, some with equal peaks (flat sides,
    or zero width), over a universe that may straddle 0."""
    lo = float(rng.choice([0.0, -500.0, 100.0]))
    hi = lo + float(10.0 ** rng.uniform(-1, 4))
    cuts = rng.random(5) ** 3 if rng.random() < 0.5 else rng.random(5)
    if rng.random() < 0.5:
        cuts[1:3] = cuts[0] + rng.choice([0.0, 1e-4, 4e-4], size=2)  # clustered peaks
    peaks = [lo, *np.sort(lo + (hi - lo) * np.clip(cuts, 0.0, 1.0)), hi]
    mfs = tuple(
        TriangularMF(peaks[max(j - 1, 0)], peaks[j], peaks[min(j + 1, MF_COUNT - 1)])
        for j in range(MF_COUNT)
    )
    return FuzzyVariable("cost", lo, hi, mfs)


def test_support_aggregation_matches_the_full_grid_form():
    """``centroids`` aggregates only the sets that fire in some row, each over
    the grid points where it is nonzero; the oracle clips all seven sets over
    the whole grid."""
    rng = np.random.default_rng(77)
    inputs = _engine().input_vars
    seen = {"empty_support": 0, "zero_group": 0, "rows_fire_other_sets": 0, "unfired_row": 0}
    for _ in range(300):
        engine = FuzzyEngine(inputs, _skewed_output(rng))
        for _ in range(5):
            strengths, consequents = _random_case(rng)
            if rng.random() < 0.5:  # one output set's rules never fire
                strengths[:, consequents == rng.choice(consequents)] = 0.0
            values, ok = engine.centroids(strengths, group_consequents(consequents))
            want_values, want_ok = centroids_full_grid(engine, strengths, consequents)
            assert np.array_equal(ok, want_ok)
            assert np.array_equal(bits(values), bits(want_values))

            members = consequents[:, None] == np.arange(1, MF_COUNT + 1)
            grouped = np.where(members, strengths[:, :, None], -np.inf).max(axis=1)
            firing = grouped > 0.0
            named = members.any(axis=0)
            seen["empty_support"] += any(a == b for a, b in engine.supports)
            seen["zero_group"] += bool((named & ~firing.any(axis=0)).any())
            seen["rows_fire_other_sets"] += len({tuple(row) for row in firing if row.any()}) > 1
            seen["unfired_row"] += bool((~firing.any(axis=1)).any())
    assert all(count >= 50 for count in seen.values()), seen


def test_supports_hold_every_nonzero_grid_point():
    rng = np.random.default_rng(78)
    for _ in range(200):
        engine = FuzzyEngine(_engine().input_vars, _skewed_output(rng))
        for mu, (a, b) in zip(engine.consequent_grid, engine.supports):
            assert (mu[a:b] > 0.0).all()
            assert (mu[:a] == 0.0).all() and (mu[b:] == 0.0).all()


def _variables():
    skewed = FuzzyVariable(
        "skewed",
        0.0,
        12.0,
        (
            TriangularMF(0.0, 0.0, 1.0),
            TriangularMF(0.5, 1.0, 3.0),
            TriangularMF(1.0, 3.0, 3.0),
            TriangularMF(3.0, 3.0, 7.0),
            TriangularMF(4.0, 7.0, 7.5),
            TriangularMF(7.0, 7.5, 12.0),
            TriangularMF(7.5, 12.0, 12.0),
        ),
    )
    return (
        default_variable("area", 20.0, 300.0),
        default_variable("pipe", 213.7, 2987.3),
        skewed,
        default_variable("year", 2010.0, 2015.0),
    )


def _probe_points(var, rng):
    breakpoints = [v for mf in var.mfs for v in (mf.left, mf.peak, mf.right)]
    span = var.hi - var.lo
    nearby = [np.nextafter(v, v + 1.0) for v in breakpoints] + [
        np.nextafter(v, v - 1.0) for v in breakpoints
    ]
    outside = [var.lo - 0.1 * span, var.hi + 0.1 * span]
    inside = list(rng.uniform(var.lo, var.hi, 200))
    return np.array(breakpoints + nearby + outside + inside)


def test_broadcast_memberships_match_scalar_membership_per_mf():
    rng = np.random.default_rng(7)
    inputs = _variables()
    engine = FuzzyEngine(inputs, default_variable("cost", 0.0, 1.0))
    columns = [_probe_points(var, rng) for var in inputs]
    n = max(len(c) for c in columns)
    X = np.column_stack([np.resize(c, n) for c in columns])
    memberships = engine.input_memberships(X)
    assert memberships.shape == (n, 4, MF_COUNT)
    for d, var in enumerate(inputs):
        for m, mf in enumerate(var.mfs):
            scalar = [membership(mf, float(x)) for x in X[:, d]]
            assert np.array_equal(bits(memberships[:, d, m]), bits(scalar))
    # the shoulders and the skewed variable's flat sides peak at 1
    assert memberships[:, 2, :].max() == 1.0
    assert (memberships >= 0.0).all() and (memberships <= 1.0).all()


def test_memberships_of_flat_sided_and_zero_width_triangles_match_the_scalar_oracle():
    rng = np.random.default_rng(19)
    shapes = {"shoulder": 0, "zero_width": 0, "zero_breakpoint": 0}
    for _ in range(400):
        left, peak, right = np.sort(rng.normal(0.0, 10.0 ** rng.integers(-2, 4), 3))
        kind = rng.integers(0, 5)
        if kind == 1:
            peak = left
        elif kind == 2:
            peak = right
        elif kind == 3:
            left = peak = right
        elif kind == 4:
            left, peak, right = np.sort([0.0, peak, right])
        mf = TriangularMF(float(left), float(peak), float(right))
        shapes["shoulder"] += kind in (1, 2)
        shapes["zero_width"] += kind == 3
        shapes["zero_breakpoint"] += kind == 4
        points = [np.nextafter(b, to) for b in (left, peak, right) for to in (b, -np.inf, np.inf)]
        x = np.array(points + [0.0, -0.0, *rng.uniform(left - 1.0, right + 1.0, 10)])
        got = triangular_memberships(x, mf.left, mf.peak, mf.right)
        want = [membership(mf, float(v)) for v in x]
        assert np.array_equal(bits(got), bits(want))
    assert all(count > 50 for count in shapes.values()), shapes


def test_fired_rules_are_sorted_strongest_first_with_ties_in_rule_order():
    inputs = tuple(default_variable(f"x{d}", 0.0, 6.0) for d in range(4))
    rules = tuple(
        FuzzyRule((a1, a2, a3, a4), 1 + (a1 + a2 + a3) % MF_COUNT)
        for a1 in range(1, 8) for a2 in range(1, 8) for a3 in (3, 4) for a4 in (2, 3)
    )
    rule_base = RuleBase(rules, inputs, default_variable("cost", 0.0, 100.0))
    engine = rule_base.engine
    rng = np.random.default_rng(5)
    queries = np.column_stack(
        [rng.uniform(0, 6, 50), rng.uniform(0, 6, 50), rng.uniform(2, 3, 50), rng.uniform(1, 2, 50)]
    )
    ties = 0
    for query in queries:
        strengths = engine.strengths(engine.input_memberships(query[None, :]), rule_base.antecedents)
        want = [
            (rule, float(s))
            for rule, s in sorted(zip(rules, strengths[0]), key=lambda pair: -pair[1])
            if s > 0.0
        ]
        fired = infer_detail(rule_base, query).fired
        assert list(fired) == want
        ties += len({s for _, s in fired}) < len(fired)
    assert ties > 10


def _random_rule_base(rng):
    """1-50 distinct rules over random universes: the first three drivers start
    at 0 half the time, and output universes run from 0.1 to 10,000 wide."""
    inputs = []
    for d in range(N_FEATURES):
        lo = 0.0 if d < 3 and rng.random() < 0.5 else float(rng.uniform(1.0, 100.0))
        inputs.append(default_variable(f"x{d}", lo, lo + 10.0 ** rng.uniform(-1, 3)))
    out_lo = float(rng.uniform(0.0, 1000.0))
    output = default_variable("cost", out_lo, out_lo + 10.0 ** rng.uniform(-1, 4))
    n_rules = int(rng.integers(1, 51))
    codes = rng.choice(MF_COUNT**N_FEATURES, size=n_rules, replace=False)
    rules = tuple(
        FuzzyRule(
            tuple(int(a) + 1 for a in np.unravel_index(code, (MF_COUNT,) * N_FEATURES)),
            int(rng.integers(1, MF_COUNT + 1)),
        )
        for code in codes
    )
    return RuleBase(rules, tuple(inputs), output)


def _random_row(rng, rule_base, kind):
    """A uniform point, a point inside one rule's supports, the same with some
    drivers exactly on a foot of that rule's triangle (its strength is then
    exactly 0.0), or a rule's peaks with one driver a subnormal step past a
    foot at 0 (a strength too small for the quadrature to see)."""
    variables = rule_base.input_vars
    if kind == "uniform":
        return [float(rng.uniform(v.lo, v.hi)) for v in variables]
    rule = rule_base.rules[int(rng.integers(len(rule_base.rules)))]
    mfs = [v.mfs[a - 1] for v, a in zip(variables, rule.antecedent)]
    if kind == "tiny":
        row = [mf.peak for mf in mfs]
        for d in rng.permutation(3):
            if mfs[d].left == 0.0 < mfs[d].peak:
                row[d] = 5e-324
                break
        return row
    row = [float(rng.uniform(mf.left, mf.right)) for mf in mfs]
    if kind == "foot":
        for d in rng.choice(N_FEATURES, size=int(rng.integers(1, N_FEATURES + 1)), replace=False):
            mf = mfs[d]
            feet = [f for f in (mf.left, mf.right) if f != mf.peak]
            row[d] = feet[int(rng.integers(len(feet)))]
    return row


def _outcome(infer, rule_base, x, fallback):
    try:
        result = infer(rule_base, x, fallback=fallback)
    except NoRuleFiresError as exc:
        return ("raises", str(exc))
    fired = tuple((rule, int(bits(s))) for rule, s in result.fired)
    return (int(bits(result.value)), fired, result.degraded)


def test_infer_detail_matches_the_form_that_defuzzifies_every_row():
    rng = np.random.default_rng(2024)
    kinds = ["uniform", "near", "foot", "foot", "tiny", "near"]
    seen = {"defuzzified": 0, "zero_area": 0, "unfired": 0, "unfired_on_a_foot": 0}
    for _ in range(200):  # 6,000 rows
        rule_base = _random_rule_base(rng)
        for i in range(30):
            kind = kinds[i % len(kinds)]
            x = np.array(_random_row(rng, rule_base, kind))
            for fallback in (None, float(rng.uniform(0.0, 1000.0))):
                want = _outcome(infer_detail_always_defuzzified, rule_base, x, fallback)
                assert _outcome(infer_detail, rule_base, x, fallback) == want, (kind, x, fallback)
            _, fired, degraded = want  # with a fallback nothing raises
            if not fired:
                seen["unfired"] += 1
                seen["unfired_on_a_foot"] += kind == "foot"
            else:
                seen["zero_area" if degraded else "defuzzified"] += 1
    assert all(count >= 10 for count in seen.values()), seen


# -- case-based reasoning -------------------------------------------------------


def _feature_rows(rng, n):
    rows = np.column_stack(
        [
            rng.uniform(0, 300, n),
            rng.uniform(0, 3000, n),
            rng.integers(0, 4, n).astype(float),  # small counts: many exact zeros
            rng.integers(2010, 2016, n).astype(float),
        ]
    )
    rows[rng.random(n) < 0.2, 0] = 0.0
    return rows


WEIGHTS = [(1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 0.5, 1.0), (1, 0, 1, 0), (0.1, 0.2, 0.3, 0.4)]


@pytest.mark.parametrize("weights", WEIGHTS)
def test_case_similarity_matrix_matches_the_scalar_loop(weights):
    rng = np.random.default_rng(3)
    stored = _feature_rows(rng, 300)
    for query in _feature_rows(rng, 20):
        x = feature_vector(query)
        sims = case_similarity(query[None, :], stored, weights)[0]
        want = [scalar_case_similarity(x, feature_vector(s), weights) for s in stored]
        assert np.array_equal(bits(sims), bits(want))


def test_case_similarity_of_two_vectors_is_a_float():
    a = FeatureVector(0.0, 10.0, 0.0, 2012.0)
    b = FeatureVector(0.0, 20.0, 3.0, 2012.0)
    row_a, row_b = a.to_array()[None, :], b.to_array()[None, :]
    sim = float(case_similarity(row_a, row_b, (2.0, 1.0, 0.5, 1.0))[0, 0])
    assert type(sim) is float
    assert sim == scalar_case_similarity(a, b, (2.0, 1.0, 0.5, 1.0))
    assert case_similarity(row_a, row_a)[0, 0] == 1.0  # zero-zero attributes are identical


def brute_force_retrieval(case_base, x, k):
    """The sorted scan: every case scored alone, ties broken by id."""
    weights = case_base.attribute_weights
    scored = sorted(
        ((scalar_case_similarity(x, case.features, weights), case) for case in case_base.cases),
        key=lambda pair: (-pair[0], pair[1].id),
    )
    top = scored[:k]
    sim_sum = sum(sim for sim, _ in top)
    if sim_sum > 0:
        cost = sum(sim * case.cost_le for sim, case in top) / sim_sum
    else:
        cost = sum(case.cost_le for _, case in top) / len(top)
    return cost, top


def _tied_case_base(rng, weights):
    """Cases whose similarities tie exactly: duplicates, and x*2 against x/2."""
    base = np.array([[64.0, 1024.0, 4.0, 2012.0], [0.0, 512.0, 0.0, 2014.0]])
    rows = []
    for b in base:
        for scale in (1.0, 2.0, 0.5):
            scaled = b * scale
            scaled[3] = b[3]
            rows += [scaled, scaled]
    rows = np.vstack([np.array(rows), _feature_rows(rng, 10)])
    # ids out of lexical order, so "c10" sorts before "c2"
    ids = [f"c{i}" for i in rng.permutation(len(rows))]
    cases = tuple(
        ProjectRecord(case_id, feature_vector(row), float(rng.uniform(1e5, 1e6)))
        for case_id, row in zip(ids, rows)
    )
    return CaseBase(Dataset(cases), weights), base


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("weights", WEIGHTS)
def test_retrieval_matches_the_sorted_scan(k, weights):
    rng = np.random.default_rng(k)
    case_base, base = _tied_case_base(rng, weights)
    queries = [*base, *_feature_rows(rng, 10)]
    for query in queries:
        x = feature_vector(query)
        cost, best, similarity, per_attribute = retrieve_one(case_base, x, k)
        want_cost, top = brute_force_retrieval(case_base, x, k)
        assert bits(cost) == bits(want_cost)
        assert best is top[0][1]
        assert bits(similarity) == bits(top[0][0])
        assert per_attribute == tuple(
            attribute_similarity(a, b) for a, b in zip(x.as_tuple(), best.features.as_tuple())
        )


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_retrieval_with_repeated_ids_matches_the_sorted_scan(k):
    """Cases sharing an id tie on it too; the sorted scan is stable, so the
    earlier case leads, and a batch agrees with it row by row."""
    rng = np.random.default_rng(20 + k)
    tied, base = _tied_case_base(rng, WEIGHTS[0])
    # each duplicated row's two copies share an id, and the cases are shuffled
    records = [
        ProjectRecord(f"c{i // 2}", case.features, case.cost_le)
        for i, case in enumerate(tied.cases)
    ]
    case_base = CaseBase(Dataset(records[int(i)] for i in rng.permutation(len(records))))
    queries = np.vstack([base, _feature_rows(rng, 10)])
    costs, best = retrieve_and_predict(case_base, queries, k)
    full_ties = 0
    for query, cost, index in zip(queries, costs, best):
        want_cost, top = brute_force_retrieval(case_base, feature_vector(query), k)
        assert bits(cost) == bits(want_cost)
        assert case_base.cases[index] is top[0][1]
        sims = case_similarity(query[None, :], case_base.cases.features_matrix)[0]
        best_id = top[0][1].id
        full_ties += sum(
            sim == sims[index] and case.id == best_id for sim, case in zip(sims, case_base.cases)
        ) > 1
    assert full_ties >= 2


def test_tied_retrieval_breaks_by_id():
    rng = np.random.default_rng(0)
    case_base, base = _tied_case_base(rng, (1.0, 1.0, 1.0, 1.0))
    x = feature_vector(base[0])
    exact = sorted(c.id for c in case_base.cases if c.features == x)
    assert len(exact) == 2
    _, best = retrieve_and_predict(case_base, base[:1], 1)
    assert case_base.cases[best[0]].id == exact[0]
    # the two x*2 and the two x/2 copies all score (0.5 + 0.5 + 0.5 + 1) / 4
    sims = case_similarity(base[:1], case_base.cases.features_matrix)
    assert np.count_nonzero(sims == 0.625) == 4
