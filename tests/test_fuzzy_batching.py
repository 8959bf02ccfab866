"""Batched conflict scoring in the GA, and the call counts of fuzzy inference.

``_PopulationEvaluator.decode_and_fitness`` scores every conflicting
candidate of a population in one ``FuzzyEngine.centroids`` call. It must
decode the same winning rules and the same fitness bits as the per-candidate
loop kept in ``oracles.py``, and a GA fit that keeps each pair's solo score
must evolve the same rules and history as one that re-scores every
generation's conflicting pairs. The call-count guards pin the number of ``centroids``
calls a GA fit makes, the one ``infer_detail`` call per priced row that
the benchmark's tracer observes, one ``centroids`` call per
``fuzzy.STRENGTH_CHUNK`` rows of which one fires and none for a chunk or a
one-row quote where nothing fires. ``predict_many`` computes the strengths of
a chunk in one pass and defuzzifies it in one ``centroids`` call, and hands
each row's strengths and centroid to ``infer_detail``, which decides the row:
every row must get what ``infer_detail`` computing both itself gives.
``FuzzyEngine.strengths`` must give the bits of one (rows, R, 4) gather and
its ``min``, and a non-finite feature anywhere in a batch must raise as
a missing one does.
"""

import numpy as np
import pytest

from conftest import random_dataset
from oracles import (
    PerGenerationEvaluator,
    decode_and_fitness_per_candidate,
    strengths_gather_min,
)
from costlab import fuzzy, genetic_fuzzy
from costlab.data import SplitSpec, split, synthesize
from costlab.errors import NoRuleFiresError, UnsupportedMissingError
from costlab.fuzzy import (
    FuzzyEngine,
    FuzzyPredictor,
    FuzzyRule,
    FuzzyVariable,
    RuleBase,
    TriangularMF,
    default_variable,
)
from costlab.genetic_fuzzy import (
    GENE_MAX,
    GAConfig,
    GeneticFuzzyPredictor,
    _PopulationEvaluator,
)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def _fired_antecedents(evaluator):
    """Each training row's maximal-membership antecedent: it fires that row at least."""
    return [tuple(int(a) for a in row) for row in evaluator.memberships.argmax(axis=2) + 1]


def _random_population(rng, fired_pool):
    """Antecedents from the training rows or drawn at random (most of which fire
    nothing), each with one to five distinct consequents, some chromosomes repeated."""
    no_conflict = rng.random() < 0.2
    genes = []
    for _ in range(int(rng.integers(1, 12))):
        if rng.random() < 0.5:
            ant = fired_pool[int(rng.integers(len(fired_pool)))]
        else:
            ant = tuple(int(a) for a in rng.integers(1, GENE_MAX + 1, 4))
        size = 1 if no_conflict or rng.random() < 0.3 else int(rng.integers(2, 6))
        for cons in rng.choice(np.arange(1, GENE_MAX + 1), size=size, replace=False):
            genes.append((*ant, int(cons)))
    if rng.random() < 0.5:
        genes += [genes[int(i)] for i in rng.integers(0, len(genes), int(rng.integers(1, 6)))]
    order = rng.permutation(len(genes))
    return [genes[int(i)] for i in order]


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_conflict_scoring_matches_the_per_candidate_loop(seed):
    train = random_dataset(111, seed=seed, noise=0.2)
    evaluator = _PopulationEvaluator(train)
    fired_pool = _fired_antecedents(evaluator)
    rng = np.random.default_rng(100 + seed)
    seen = {"fired_group_of_3+": 0, "unfired_conflict": 0, "duplicate": 0, "no_conflict": 0}
    for _ in range(120):
        population = _random_population(rng, fired_pool)
        pairs, fitness = evaluator.decode_and_fitness(population)
        want_pairs, want_fitness = decode_and_fitness_per_candidate(evaluator, population)
        assert pairs == want_pairs
        assert bits(fitness) == bits(want_fitness)

        groups = {}
        for genes in set(population):
            groups.setdefault(genes[:4], []).append(genes[4])
        conflicts = [ant for ant, cons in groups.items() if len(cons) > 1]
        strengths = evaluator.engine.strengths(
            evaluator.memberships, np.array(conflicts, dtype=int).reshape(-1, 4)
        )
        fires = dict(zip(conflicts, strengths.max(axis=0) > 0.0))
        seen["fired_group_of_3+"] += any(len(groups[ant]) >= 3 and fires[ant] for ant in conflicts)
        seen["unfired_conflict"] += not all(fires.values())
        seen["duplicate"] += len(set(population)) < len(population)
        seen["no_conflict"] += not conflicts
    assert all(count >= 15 for count in seen.values()), seen


@pytest.mark.parametrize("seed", [3, 7, 42])
def test_a_fit_scoring_each_pair_once_evolves_as_one_rescoring_every_generation(
    monkeypatch, synthetic_144, seed
):
    train, _ = _train_test(synthetic_144)
    cfg = GAConfig(generations=60, seed=seed)
    rules, history = genetic_fuzzy.evolve(cfg, train)
    monkeypatch.setattr(genetic_fuzzy, "_PopulationEvaluator", PerGenerationEvaluator)
    want_rules, want_history = genetic_fuzzy.evolve(cfg, train)
    assert rules.rules == want_rules.rules
    assert [h.hex() for h in history] == [h.hex() for h in want_history]


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(owner, name, counted)
    return calls


def _train_test(synthetic_144):
    return split(synthetic_144, SplitSpec(train_count=111, seed=42))


@pytest.mark.parametrize("generations", [0, 1, 20])
def test_a_ga_fit_makes_at_most_two_centroids_calls_per_generation(
    monkeypatch, synthetic_144, generations
):
    train, _ = _train_test(synthetic_144)
    calls = _counting(monkeypatch, FuzzyEngine, "centroids")
    GeneticFuzzyPredictor(GAConfig(generations=generations, seed=7)).fit(train)
    assert generations + 1 <= len(calls) <= 2 * (generations + 1)


@pytest.mark.parametrize(
    "model", [FuzzyPredictor(), GeneticFuzzyPredictor(GAConfig(generations=5, seed=7))]
)
def test_predict_many_makes_one_infer_detail_call_per_row(monkeypatch, synthetic_144, model):
    """``perfbench/tracing.py`` counts fuzzy fallbacks by observing
    ``fuzzy.infer_detail`` and reading the scalar ``degraded`` of each result,
    one call per priced row. A batch path that bypasses it leaves that traced
    boundary cold and its fallback fractions empty, so this pins the contract."""
    train, test = _train_test(synthetic_144)
    model.fit(train)
    calls = _counting(monkeypatch, fuzzy, "infer_detail")
    values = model.predict_many(test)
    assert len(calls) == len(test) == values.size
    assert all(type(result.degraded) is bool for result in calls)
    degraded = np.array([result.degraded for result in calls])
    assert degraded.any() and not degraded.all()  # both outcomes are observed
    assert np.array_equal(values[degraded], np.full(degraded.sum(), model.fallback))


@pytest.mark.parametrize(
    "model", [FuzzyPredictor(), GeneticFuzzyPredictor(GAConfig(generations=5, seed=7))]
)
def test_a_fitted_model_builds_one_engine_for_all_its_predictions(
    monkeypatch, synthetic_144, model
):
    """The fit builds one engine to score the training rows and hands it to the
    fitted rule base, and every prediction reuses it."""
    train, test = _train_test(synthetic_144)
    built = _counting(monkeypatch, FuzzyEngine, "__init__")
    model.fit(train)
    assert len(built) == 1
    first = model.predict_many(test)
    assert np.array_equal(model.predict_many(test), first)
    for i, record in enumerate(test):
        assert model.predict(record.features) == first[i]
    assert len(built) == 1


@pytest.mark.parametrize(
    "model", [FuzzyPredictor(), GeneticFuzzyPredictor(GAConfig(generations=5, seed=7))]
)
def test_infer_detail_reads_a_non_finite_value_as_missing(synthetic_144, model):
    """``predict_many`` hands each ndarray row straight to ``infer_detail``, where
    a non-finite value is missing, as a ``None`` slot of a ``FeatureVector`` is."""
    train, test = _train_test(synthetic_144)
    model.fit(train)
    engine = model.rule_base.engine
    x = test.features_matrix[:1]
    batch = {
        "strengths": engine.strengths(engine.input_memberships(x), model.rule_base.antecedents)[0],
        "centroid": 1.0,
    }
    for value in (np.nan, np.inf, -np.inf):
        for column in range(4):
            row = x[0].copy()
            row[column] = value
            for kwargs in ({}, batch):  # computing the row's strengths, or handed them
                with pytest.raises(UnsupportedMissingError, match="requires complete feature"):
                    fuzzy.infer_detail(model.rule_base, row, model.fallback, **kwargs)


@pytest.fixture(scope="module")
def portfolio():
    return synthesize(400, seed=7, noise_pct=5.0)


@pytest.fixture(scope="module", params=["fuzzy", "genetic_fuzzy"])
def fitted(request, synthetic_144):
    train, _ = _train_test(synthetic_144)
    if request.param == "fuzzy":
        return FuzzyPredictor().fit(train)
    return GeneticFuzzyPredictor(GAConfig(generations=20, seed=7)).fit(train)


def _fired_chunks(results, chunk):
    """Whether any row of each run of ``chunk`` priced rows fired a rule."""
    fired = [bool(result.fired) for result in results]
    return [any(fired[i : i + chunk]) for i in range(0, len(fired), chunk)]


@pytest.mark.parametrize("chunk", [fuzzy.STRENGTH_CHUNK, 7, 1])
def test_predict_many_matches_infer_detail_on_each_row(monkeypatch, fitted, portfolio, chunk):
    monkeypatch.setattr(fuzzy, "STRENGTH_CHUNK", chunk)
    results = _counting(monkeypatch, fuzzy, "infer_detail")
    values = fitted.predict_many(portfolio)
    monkeypatch.undo()
    want = [
        fuzzy.infer_detail(fitted.rule_base, x, fitted.fallback) for x in portfolio.features_matrix
    ]
    assert np.array_equal(bits(values), bits([w.value for w in want]))
    assert [r.degraded for r in results] == [w.degraded for w in want]
    assert [r.fired for r in results] == [w.fired for w in want]
    kinds = {(bool(w.fired), w.degraded) for w in want}
    assert {(True, False), (False, True)} <= kinds, kinds  # defuzzified and unfired rows
    if chunk < fuzzy.STRENGTH_CHUNK:  # every 64-row chunk of the portfolio fires
        assert not all(_fired_chunks(results, chunk))  # a chunk priced without centroids


@pytest.mark.parametrize("chunk", [fuzzy.STRENGTH_CHUNK, 7, 1])
def test_a_chunk_is_defuzzified_in_one_call_when_one_of_its_rows_fires(
    monkeypatch, fitted, portfolio, chunk
):
    """One ``centroids`` call prices every row of a chunk that has a fired row,
    and a chunk without one makes none: at a chunk of 1, one per fired row."""
    monkeypatch.setattr(fuzzy, "STRENGTH_CHUNK", chunk)
    results = _counting(monkeypatch, fuzzy, "infer_detail")
    centroids = _counting(monkeypatch, FuzzyEngine, "centroids")
    fitted.predict_many(portfolio)
    fired_chunks = _fired_chunks(results, chunk)
    sizes = [len(results[i : i + chunk]) for i in range(0, len(results), chunk)]
    assert [values.size for values, _ in centroids] == [
        size for size, fired in zip(sizes, fired_chunks) if fired
    ]
    assert any(fired_chunks)


def test_a_one_row_quote_that_fires_nothing_is_not_defuzzified(monkeypatch, fitted, portfolio):
    results = _counting(monkeypatch, fuzzy, "infer_detail")
    fitted.predict_many(portfolio)
    unfired = next(rec.features for rec, result in zip(portfolio, results) if not result.fired)
    centroids = _counting(monkeypatch, FuzzyEngine, "centroids")
    assert fitted.predict(unfired) == fitted.fallback
    with pytest.raises(NoRuleFiresError, match="no rule fires for this input"):
        fuzzy.infer_detail(fitted.rule_base, unfired.to_array())
    assert centroids == []


def _outcome(result):
    return int(bits(result.value)), result.degraded, result.fired


def test_infer_detail_of_a_batch_centroid_matches_its_own(monkeypatch, fitted, portfolio):
    """A row's strengths and its centroid from one call over the whole
    portfolio decide it as ``infer_detail`` computing both itself does, with
    no ``centroids`` call of its own."""
    rule_base, fallback = fitted.rule_base, fitted.fallback
    engine = rule_base.engine
    X = portfolio.features_matrix
    strengths = engine.strengths(engine.input_memberships(X), rule_base.antecedents)
    values, ok = engine.centroids(strengths, rule_base.consequents)
    assert 0 < ok.sum() < len(X)
    want = [_outcome(fuzzy.infer_detail(rule_base, x, fallback)) for x in X]
    centroids = _counting(monkeypatch, FuzzyEngine, "centroids")
    got = [
        _outcome(fuzzy.infer_detail(rule_base, x, fallback, strengths=row, centroid=value))
        for x, row, value in zip(X, strengths, values)
    ]
    assert got == want
    assert centroids == []


def test_a_nan_centroid_gives_the_fallback_or_raises(monkeypatch, fitted, portfolio):
    rule_base, fallback = fitted.rule_base, fitted.fallback
    engine = rule_base.engine
    X = portfolio.features_matrix
    strengths = engine.strengths(engine.input_memberships(X), rule_base.antecedents)
    want_fired = [fuzzy.infer_detail(rule_base, x, fallback).fired for x in X]
    assert any(want_fired) and not all(want_fired)
    centroids = _counting(monkeypatch, FuzzyEngine, "centroids")
    for x, row, fired in zip(X, strengths, want_fired):
        result = fuzzy.infer_detail(rule_base, x, fallback, strengths=row, centroid=np.nan)
        assert (result.value, result.degraded, result.fired) == (fallback, True, fired)
        with pytest.raises(NoRuleFiresError, match="no rule fires for this input"):
            fuzzy.infer_detail(rule_base, x, strengths=row, centroid=np.nan)
    assert centroids == []


def test_a_fired_row_with_zero_area_gives_the_fallback_by_both_paths():
    """Output set 4 lies between two points of the integer output grid, so a row
    that fires only its rule has a fired rule and no area."""
    peaks = [0.0, 100.0, 300.2, 300.4, 300.6, 500.0, 1000.0]
    mfs = tuple(
        TriangularMF(peaks[max(j - 1, 0)], peaks[j], peaks[min(j + 1, 6)]) for j in range(7)
    )
    inputs = tuple(default_variable(f"x{d}", 0.0, 6.0) for d in range(4))
    rules = (FuzzyRule((4, 4, 4, 4), 4), FuzzyRule((2, 2, 2, 2), 6))
    rule_base = RuleBase(rules, inputs, FuzzyVariable("cost", 0.0, 1000.0, mfs))
    engine = rule_base.engine
    assert engine.supports[3] == (0, 0)
    X = np.array([[3.0, 3.0, 3.0, 3.0], [1.0, 1.0, 1.0, 1.0], [6.0, 6.0, 6.0, 6.0]])
    strengths = engine.strengths(engine.input_memberships(X), rule_base.antecedents)
    values, ok = engine.centroids(strengths, rule_base.consequents)
    assert ok.tolist() == [False, True, False]
    results = []
    for x, row, value in zip(X, strengths, values):
        want = fuzzy.infer_detail(rule_base, x, 123.0)
        results.append(fuzzy.infer_detail(rule_base, x, 123.0, strengths=row, centroid=value))
        assert _outcome(results[-1]) == _outcome(want)
    assert results[0].degraded and results[0].fired  # a rule fired, and no area
    for kwargs in ({}, {"strengths": strengths[0], "centroid": values[0]}):
        with pytest.raises(NoRuleFiresError):
            fuzzy.infer_detail(rule_base, X[0], **kwargs)


class _Rows:
    """A batch of feature rows; ``FeatureVector`` rejects a non-finite value, so
    such a row reaches ``predict_many`` only from an array."""

    def __init__(self, X):
        self.features_matrix = X


@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 63, 64, 70, 399])
def test_an_infinite_feature_mid_batch_raises_at_its_row(
    monkeypatch, fitted, portfolio, row, value
):
    X = portfolio.features_matrix.copy()
    X[row, row % 4] = value
    results = _counting(monkeypatch, fuzzy, "infer_detail")
    with pytest.raises(UnsupportedMissingError) as caught:
        fitted.predict_many(_Rows(X))
    assert caught.value.code == "UNSUPPORTED_MISSING"
    assert str(caught.value) == "fuzzy inference requires complete feature vectors"
    assert len(results) == row  # the rows before it were priced, one call each


def _assert_strengths_match_the_oracle(engine, memberships, antecedents):
    got = engine.strengths(memberships, antecedents)
    want = strengths_gather_min(memberships, antecedents)
    assert got.shape == want.shape == (len(memberships), len(antecedents))
    assert np.array_equal(bits(got), bits(want))
    return got


def test_strengths_match_the_gather_min_on_both_models_memberships(
    fitted, portfolio, synthetic_144
):
    rule_base = fitted.rule_base
    engine = rule_base.engine
    train, _ = _train_test(synthetic_144)
    for X in (portfolio.features_matrix, train.features_matrix):
        got = _assert_strengths_match_the_oracle(
            engine, engine.input_memberships(X), rule_base.antecedents
        )
        assert 0.0 < (got > 0.0).mean() < 1.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("rows, rules", [(64, 108), (1, 108), (64, 1), (1, 1), (400, 30)])
def test_strengths_match_the_gather_min_with_exact_ties(seed, rows, rules):
    """Memberships of exactly 0.0 and 1.0, and repeated values, tie across
    features; the minimum picks one of equal bits either way."""
    rng = np.random.default_rng(seed)
    engine = FuzzyEngine(
        [default_variable(f"x{d}", 0.0, 6.0) for d in range(4)], default_variable("cost", 0.0, 1.0)
    )
    memberships = rng.choice([0.0, 0.5, 1.0], size=(rows, 4, 7), p=[0.3, 0.2, 0.5])
    blend = rng.random((rows, 4, 7)) < 0.3
    memberships[blend] = rng.random(int(blend.sum()))
    antecedents = rng.integers(1, GENE_MAX + 1, (rules, 4))
    got = _assert_strengths_match_the_oracle(engine, memberships, antecedents)
    if rows * rules >= 1000:  # both exact ends win some row's minimum
        assert (got == 0.0).any() and (got == 1.0).any()


def test_strengths_match_the_gather_min_on_the_ga_training_memberships(synthetic_144):
    train, _ = _train_test(synthetic_144)
    evaluator = _PopulationEvaluator(train)
    assert evaluator.memberships.shape == (111, 4, 7)
    rng = np.random.default_rng(5)
    fired_pool = _fired_antecedents(evaluator)
    for _ in range(20):
        population = _random_population(rng, fired_pool)
        antecedents = np.array([genes[:4] for genes in population], dtype=int)
        _assert_strengths_match_the_oracle(evaluator.engine, evaluator.memberships, antecedents)
