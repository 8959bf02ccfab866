"""The quote path builds each constant once and keeps every output bit.

A quote prices one project with every model through ``Predictor.predict``.
The project's ``FeatureVector`` becomes one cached read-only row that every
model reads; the regressions sum with one running sum; CBR scores contiguous
case columns; the fuzzy engine keeps its triangles' side widths and a rule
base its consequent grouping. Each is compared, as raw float64 bits, with the
per-call form it replaced in ``tests/oracles.py``, and the fitted zoo's
quotes with its batch.
"""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from oracles import (
    case_similarity_strided,
    centroids_per_call_grouping,
    input_memberships_per_call_widths,
    linear_predict_loop,
)
from costlab.bench import BenchConfig, derive_seed
from costlab.cbr import case_similarity
from costlab.core import TargetTransform
from costlab.data import Dataset, FeatureVector, SplitSpec, split, synthesize
from costlab.errors import CostLabError, NegativeSqrtDomainError
from costlab.fuzzy import (
    MF_COUNT,
    FuzzyEngine,
    FuzzyRule,
    RuleBase,
    default_variable,
    group_consequents,
)
from costlab.regression import LinearModel
from costlab.zoo import MODEL_REGISTRY, build_model

SEED = 42
SIZES = (0, 1, 64, 400)


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# -- the zoo's quotes ------------------------------------------------------------------


@pytest.fixture(scope="module")
def zoo():
    """Every registry model fitted as ``costlab bench`` fits it at seed 42, and 60
    projects of the portfolio perfbench quotes."""
    cfg = BenchConfig()
    data = synthesize(cfg.n, seed=derive_seed(SEED, "data"), noise_pct=cfg.noise_pct)
    spec = SplitSpec(cfg.train_fraction, cfg.train_count, derive_seed(SEED, "split"))
    train, _ = split(data, spec)
    models = {}
    for model_id in MODEL_REGISTRY:
        params = cfg.model_params.get(model_id, {})
        models[model_id] = build_model(model_id, params, derive_seed(SEED, model_id)).fit(train)
    portfolio = synthesize(60, seed=derive_seed(SEED, "portfolio"), noise_pct=5.0)
    return models, portfolio


def _quote(model, x):
    """The price of ``x``, or the class and message of its error."""
    try:
        return bits([model.predict(x)])[0]
    except CostLabError as exc:
        return type(exc), str(exc)


def fresh(x):
    """An equal vector whose row has not been built."""
    return dataclasses.replace(x)


@pytest.mark.parametrize("model_id", list(MODEL_REGISTRY))
def test_a_quote_has_the_same_bits_with_a_cold_and_a_warm_row_and_in_a_batch(zoo, model_id):
    models, portfolio = zoo
    model = models[model_id]
    vectors = [fresh(rec.features) for rec in portfolio]
    assert not any("row" in vars(x) for x in vectors)
    cold = [_quote(model, x) for x in vectors]
    assert all("row" in vars(x) for x in vectors)
    warm = [_quote(model, x) for x in vectors]
    assert cold == warm
    priced = [i for i, quote in enumerate(cold) if isinstance(quote, int)]
    first_error = next((i for i, quote in enumerate(cold) if not isinstance(quote, int)), None)
    if first_error is None:
        assert bits(model.predict_many(portfolio)) == cold
    else:
        # a batch raises its first failing row's error, and prices the rows before it
        error, message = cold[first_error]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            model.predict_many(portfolio)
        before = Dataset(list(portfolio)[:first_error])
        assert bits(model.predict_many(before)) == cold[:first_error]
    assert priced or model_id == "square_regression"


def test_the_zoo_quotes_some_project_with_an_error(zoo):
    """The error branch above is exercised: square regression's negative roots."""
    models, portfolio = zoo
    quotes = [_quote(models["square_regression"], rec.features) for rec in portfolio]
    assert any(not isinstance(q, int) and q[0] is NegativeSqrtDomainError for q in quotes)


# -- the cached row --------------------------------------------------------------------


VECTORS = [
    FeatureVector(100.0, 1000.0, 10.0, 2013.0),
    FeatureVector(0.0, 0.0, 0.0, 1.0),
    FeatureVector(1e-300, 5e-324, 1.7976931348623157e308, 2100.0),
    FeatureVector(None, 12.5, None, 2015.0),
    FeatureVector(3, 7, 11, 2012),
]


@pytest.mark.parametrize("x", VECTORS, ids=repr)
def test_the_row_is_a_read_only_one_by_four_row_with_to_arrays_bits(x):
    row = x.row
    assert row.shape == (1, 4) and row.dtype == np.float64
    assert not row.flags.writeable
    assert bits(row[0]) == bits(x.to_array())
    with pytest.raises(ValueError):
        row[0, 0] = 1.0


@pytest.mark.parametrize("x", VECTORS, ids=repr)
def test_a_second_read_returns_the_same_row(x):
    assert x.row is x.row


@pytest.mark.parametrize("x", VECTORS, ids=repr)
def test_the_cached_row_leaves_equality_hash_repr_and_astuple_unchanged(x):
    cold = fresh(x)
    before = (hash(cold), repr(cold), dataclasses.astuple(cold))
    cold.row
    assert "row" in vars(cold)
    assert (hash(cold), repr(cold), dataclasses.astuple(cold)) == before
    assert cold == fresh(x) and fresh(x) == cold
    assert len({cold, fresh(x)}) == 1
    assert [f.name for f in dataclasses.fields(cold)] == [
        "p1_area_served",
        "p2_pipeline_length",
        "p3_irrigation_valves",
        "p4_construction_year",
    ]


# -- regression: one running sum -------------------------------------------------------


def _magnitudes(rng, shape):
    """Values from 1e-3 to 1e8, log-uniform."""
    return 10.0 ** rng.uniform(-3.0, 8.0, shape)


@pytest.mark.parametrize("n", SIZES)
def test_linear_predict_matches_the_in_place_loop(n):
    rng = np.random.default_rng(n + 1)
    for _ in range(50):
        signs = rng.choice([-1.0, 1.0], 5)
        weights = signs * _magnitudes(rng, 5)
        model = LinearModel(float(weights[0]), tuple(float(w) for w in weights[1:]))
        X = _magnitudes(rng, (n, 4)) * rng.choice([-1.0, 1.0], (n, 4))
        got = model.predict(X)
        assert got.shape == (n,)
        assert bits(got) == bits(linear_predict_loop(model, X))


def test_linear_predict_keeps_signed_zeros_and_non_finite_sums():
    X = np.array([[0.0, 0.0, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0], [np.inf, -np.inf, 0.0, 1.0]])
    for model in (
        LinearModel(-0.0, (-0.0, 0.0, -0.0, 0.0)),
        LinearModel(0.0, (1.0, 1.0, -2.0, 3.0)),
        LinearModel(-1e8, (-1e-3, 2.5, 1e8, -7.0)),
    ):
        with np.errstate(all="ignore"):
            assert bits(model.predict(X)) == bits(linear_predict_loop(model, X))


def test_linear_predict_reads_a_read_only_row():
    row = FeatureVector(100.0, 1000.0, 10.0, 2013.0).row
    model = LinearModel(-3.0, (2.21, -0.1691, 2.265, 18.594))
    assert bits(model.predict(row)) == bits(linear_predict_loop(model, row))


# -- the SQRT inverse: a product raises no invalid flag --------------------------------


def test_the_sqrt_inverse_raises_no_floating_point_flag_but_overflow():
    z = np.array([0.0, -0.0, 1.5, 1e200, np.inf, np.nan, 3.0])
    with np.errstate(all="raise", over="ignore"):
        out = TargetTransform.SQRT.inverse(z)
    with np.errstate(over="ignore"):
        assert bits(out) == bits(z * z)
    with np.errstate(invalid="raise", over="ignore"), pytest.raises(NegativeSqrtDomainError):
        TargetTransform.SQRT.inverse(np.array([2.0, -1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TargetTransform.SQUARE.inverse(np.array([4.0, np.nan]))
        with pytest.raises(NegativeSqrtDomainError):
            TargetTransform.SQUARE.inverse(np.array([4.0, -1.0]))


# -- CBR: contiguous case columns ------------------------------------------------------


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "weights", [(1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 0.5, 1.0), (0.0, 3.0, 0.0, 1e-3)]
)
def test_case_similarity_matches_the_strided_form(n, weights):
    rng = np.random.default_rng(n + 7)
    for m in (1, 5, 111):
        stored = _magnitudes(rng, (m, 4))
        stored[rng.random((m, 4)) < 0.1] = 0.0  # zero-zero and zero-positive attributes
        X = _magnitudes(rng, (n, 4))
        X[rng.random((n, 4)) < 0.1] = 0.0
        if n and m:
            X[0] = stored[0]  # an exact match
        got = case_similarity(X, stored, weights)
        assert got.shape == (n, m)
        assert bits(got) == bits(case_similarity_strided(X, stored, weights))


def test_case_similarity_reads_any_layout_of_the_cases():
    rng = np.random.default_rng(3)
    stored = _magnitudes(rng, (40, 4))
    X = _magnitudes(rng, (70, 4))
    want = bits(case_similarity_strided(X, stored))
    doubled = np.repeat(stored, 2, axis=0)[::2]  # a row stride of 64 bytes
    for layout in (stored, np.asfortranarray(stored), doubled):
        assert bits(case_similarity(X, layout)) == want


# -- fuzzy: kept widths and grouping ---------------------------------------------------


def _variables(rng):
    inputs = [default_variable(f"v{d}", 0.0, float(10.0 ** rng.uniform(-3, 8))) for d in range(4)]
    return inputs, default_variable("cost", 1e-3, float(10.0 ** rng.uniform(0, 8)))


@pytest.mark.parametrize("n", SIZES)
def test_input_memberships_match_the_per_call_widths(n):
    rng = np.random.default_rng(n + 11)
    for _ in range(10):
        inputs, output = _variables(rng)
        engine = FuzzyEngine(inputs, output)
        X = rng.uniform(-0.1, 1.1, (n, 4)) * np.array([v.hi for v in inputs])
        if n:
            X[0] = engine.peak[:, 3]  # at the peaks
            X[-1] = engine.left[:, 0]  # at the left shoulders, a flat side
        got = engine.input_memberships(X)
        assert got.shape == (n, 4, MF_COUNT)
        assert bits(got) == bits(input_memberships_per_call_widths(engine, X))


def _rule_base(rng, inputs, output, n_rules, consequents):
    antecedents = set()
    while len(antecedents) < n_rules:
        antecedents.add(tuple(int(a) for a in rng.integers(1, MF_COUNT + 1, 4)))
    rules = tuple(FuzzyRule(a, int(c)) for a, c in zip(sorted(antecedents), consequents))
    return RuleBase(rules, tuple(inputs), output)


def rule_base_consequents(rule_base):
    return np.array([r.consequent for r in rule_base.rules], dtype=int)


@pytest.mark.parametrize("n", SIZES)
def test_centroids_with_a_kept_grouping_match_the_per_call_grouping(n):
    rng = np.random.default_rng(n + 13)
    for _ in range(20):
        inputs, output = _variables(rng)
        n_rules = int(rng.integers(1, 40))
        # ties: few distinct consequents; an unused set: drawn from a subset of 1..7
        pool = rng.choice(np.arange(1, MF_COUNT + 1), int(rng.integers(1, MF_COUNT)), replace=False)
        consequents = rng.choice(pool, n_rules)
        rule_base = _rule_base(rng, inputs, output, n_rules, consequents)
        assert len(set(consequents.tolist())) < MF_COUNT
        strengths = rng.random((n, n_rules)) * (rng.random((n, n_rules)) < 0.4)
        if n > 1:
            strengths[1] = 0.0  # a row that fires nothing
        if n and n_rules > 1:
            strengths[0, :2] = 0.5  # tied strengths
        engine, consequents = rule_base.engine, rule_base_consequents(rule_base)
        want = centroids_per_call_grouping(engine, strengths, consequents)
        got = engine.centroids(strengths, rule_base.groups)
        assert bits(got[0]) == bits(want[0]) and got[1].tolist() == want[1].tolist()


def test_a_rule_base_builds_its_grouping_once():
    rng = np.random.default_rng(5)
    inputs, output = _variables(rng)
    rule_base = _rule_base(rng, inputs, output, 12, rng.integers(1, 4, 12))
    assert rule_base.groups is rule_base.groups
    order, starts, sets = rule_base.groups
    want_order, want_starts, want_sets = group_consequents(rule_base_consequents(rule_base))
    assert order.tolist() == want_order.tolist()
    assert starts.tolist() == want_starts.tolist()
    assert sets.tolist() == want_sets.tolist()
    assert set(sets.tolist()) <= set(range(3))
