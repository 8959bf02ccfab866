import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from oracles import decode_and_fitness, evolve_separate_tournaments, tournament
from costlab.data import SplitSpec, split, synthesize
from costlab.errors import EmptyTrainError
from costlab.fuzzy import FuzzyRule, RuleBase, infer_detail
from costlab.genetic_fuzzy import (
    _TOURNAMENT_SIZE,
    GAConfig,
    crossover,
    evolve,
    mutate,
    random_chromosome,
)
from costlab.metrics import mape


class _ScriptedRng:
    """Deterministic stand-in driving crossover/mutate decision points."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = iter(randoms)
        self._integers = iter(integers)

    def random(self):
        return next(self._randoms)

    def integers(self, lo, hi, size=None):
        value = next(self._integers)
        return np.full(size, value) if size is not None else value


class TestCrossover:
    def test_mechanical_splice_after_gene_two(self):
        a = (1, 2, 3, 4, 5)
        b = (7, 6, 5, 4, 3)
        rng = _ScriptedRng(randoms=(0.0,), integers=(2,))
        c1, c2 = crossover(a, b, rng, prob=0.7)
        assert c1 == (1, 2, 5, 4, 3)
        assert c2 == (7, 6, 3, 4, 5)

    def test_probability_zero_returns_parents(self):
        a = (1, 2, 3, 4, 5)
        b = (7, 6, 5, 4, 3)
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert crossover(a, b, rng, prob=0.0) == (a, b)

    def test_monte_carlo_rate(self):
        # parents differing in every gene: any cut visibly changes both children
        a = (1, 2, 3, 4, 5)
        b = (2, 3, 4, 5, 6)
        rng = np.random.default_rng(123)
        applied = sum(
            crossover(a, b, rng, prob=0.7)[0] != a for _ in range(10000)
        )
        assert applied / 10000 == pytest.approx(0.70, abs=0.02)


class TestMutate:
    def test_probability_zero_is_identity(self):
        rng = np.random.default_rng(1)
        c = (3, 1, 4, 1, 5)
        for _ in range(50):
            assert mutate(c, rng, prob=0.0) == c

    def test_probability_one_redraws_every_gene(self):
        c = (3, 1, 4, 1, 5)
        rng = _ScriptedRng(randoms=(0.0,) * 5, integers=(7, 7, 7, 7, 7))
        assert mutate(c, rng, prob=1.0) == (7, 7, 7, 7, 7)

    def test_monte_carlo_rate(self):
        # a redraw coincides with the old value 1/7 of the time, so the
        # observed change rate estimates 6/7 of the redraw probability
        rng = np.random.default_rng(77)
        c = (3, 1, 4, 1, 5)
        changed = 0
        trials = 2000
        for _ in range(trials):
            m = mutate(c, rng, prob=0.01)
            changed += sum(g != h for g, h in zip(m, c))
        rate = changed / (trials * 5)
        assert 0.007 <= rate <= 0.013


class TestFitness:
    def test_zero_for_exact_rule_base(self):
        # single case at the variable peaks whose cost sits exactly at an
        # output peak: the matching rule reproduces it, so MAPE is 0 only if
        # the clipped centroid lands on the target; verify consistency instead
        train = random_dataset(5, seed=0, noise=0.3)
        population = [(1, 1, 1, 1, 1), (4, 4, 4, 4, 4)]
        _, value = decode_and_fitness(population, train)
        assert value >= 0.0

    def test_matches_independent_reimplementation(self):
        train = random_dataset(5, seed=2, noise=0.4)
        population = [
            (1, 2, 1, 2, 3),
            (4, 4, 4, 4, 5),
            (7, 6, 7, 6, 1),
        ]
        rule_base, got = decode_and_fitness(population, train)
        fallback = float(np.mean(train.targets))
        predictions = [
            infer_detail(rule_base, x, fallback=fallback).value for x in train.features_matrix
        ]
        expected = mape(train.targets, predictions)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_identical_for_equal_decoded_sets(self):
        train = random_dataset(6, seed=3, noise=0.2)
        pop_a = [(1, 2, 3, 4, 5), (1, 2, 3, 4, 5)]
        pop_b = [(1, 2, 3, 4, 5)]
        assert decode_and_fitness(pop_a, train)[1] == decode_and_fitness(pop_b, train)[1]

    def test_empty_train_rejected(self):
        from costlab.data import Dataset

        with pytest.raises(EmptyTrainError):
            decode_and_fitness([(1, 2, 3, 4, 5)], Dataset([]))


class TestDecode:
    def test_no_duplicate_pairs(self):
        train = random_dataset(8, seed=4, noise=0.2)
        rng = np.random.default_rng(5)
        population = [random_chromosome(rng) for _ in range(63)]
        rule_base, _ = decode_and_fitness(population, train)
        pairs = [(r.antecedent, r.consequent) for r in rule_base.rules]
        assert len(pairs) == len(set(pairs))
        antecedents = [r.antecedent for r in rule_base.rules]
        assert len(antecedents) == len(set(antecedents))  # conflict-free

    def test_distinct_antecedents_bounded_by_search_space(self):
        train = random_dataset(8, seed=6, noise=0.2)
        rng = np.random.default_rng(7)
        population = [random_chromosome(rng) for _ in range(200)]
        rule_base, _ = decode_and_fitness(population, train)
        assert len({r.antecedent for r in rule_base.rules}) <= min(200, 7**4)

    def test_conflict_resolved_by_solo_error(self):
        # five cases in the low corner with low costs and one stretch case:
        # for antecedent (1,1,1,1) the low consequent must beat the high one
        X = np.array(
            [
                [20.0, 200.0, 5.0, 2010.0],
                [21.0, 210.0, 5.5, 2010.1],
                [22.0, 205.0, 5.2, 2010.05],
                [23.0, 220.0, 5.1, 2010.02],
                [24.0, 215.0, 5.3, 2010.08],
                [300.0, 3000.0, 60.0, 2015.0],
            ]
        )
        y = np.array([1000.0, 1010.0, 1005.0, 1002.0, 1008.0, 9000.0])
        train = make_dataset(X, y)
        population = [(1, 1, 1, 1, 7), (1, 1, 1, 1, 1)]
        rule_base, _ = decode_and_fitness(population, train)
        winners = {r.antecedent: r.consequent for r in rule_base.rules}
        assert winners[(1, 1, 1, 1)] == 1


class TestEvolve:
    def test_best_so_far_monotone_and_deterministic(self):
        train = random_dataset(12, seed=8, noise=0.3)
        cfg = GAConfig(population_size=16, generations=25, seed=11)
        rb_a, hist_a = evolve(cfg, train)
        rb_b, hist_b = evolve(cfg, train)
        assert hist_a == hist_b
        assert rb_a == rb_b
        assert len(hist_a) == 26
        assert all(b <= a for a, b in zip(hist_a, hist_a[1:]))

    def test_final_no_worse_than_initial(self):
        train = random_dataset(15, seed=9, noise=0.3)
        for seed in range(3):
            _, hist = evolve(GAConfig(population_size=16, generations=30, seed=seed), train)
            assert hist[-1] <= hist[0]

    def test_regression_threshold_noise_free_20_cases(self):
        # reference run recorded: data seed 6, GA seed 3 reaches 19.23% final
        # training MAPE with the default 63-chromosome, 200-generation setup
        train = synthesize(20, seed=6, noise_pct=0.0)
        _, hist = evolve(GAConfig(seed=3), train)
        assert hist[-1] <= 25.0
        assert hist[-1] == pytest.approx(19.23, abs=0.5)

    def test_empty_train_rejected(self):
        from costlab.data import Dataset

        with pytest.raises(EmptyTrainError):
            evolve(GAConfig(), Dataset([]))

    def test_a_fit_validates_only_the_returned_rules(self, monkeypatch):
        # the GA breeds and scores plain gene tuples; the one rule base it
        # returns is the only one built, so each returned rule is checked once
        built = {RuleBase: 0, FuzzyRule: 0}
        for cls in built:
            check = cls.__post_init__

            def counted(self, _cls=cls, _check=check):
                built[_cls] += 1
                _check(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        train = random_dataset(30, seed=2, noise=0.3)
        rule_base, _ = evolve(GAConfig(population_size=16, generations=5, seed=2), train)
        assert built == {RuleBase: 1, FuzzyRule: len(rule_base.rules)}

    def test_small_run_is_pinned(self):
        # reference run: the best-so-far improves in generations 1, 3 and 5,
        # so the rules returned are the last generation's
        train = random_dataset(30, seed=2, noise=0.3)
        rule_base, history = evolve(GAConfig(population_size=16, generations=5, seed=2), train)
        assert [h.hex() for h in history] == [
            "0x1.154ae9c535129p+5",
            "0x1.026cf64bdad75p+5",
            "0x1.026cf64bdad75p+5",
            "0x1.fc2cef43b47a3p+4",
            "0x1.fc2cef43b47a3p+4",
            "0x1.f6489d5ee1afdp+4",
        ]
        assert [(r.antecedent, r.consequent) for r in rule_base.rules] == [
            ((6, 2, 1, 3), 3),
            ((6, 4, 1, 3), 5),
            ((7, 5, 6, 7), 2),
            ((5, 3, 1, 3), 3),
            ((6, 2, 5, 7), 5),
            ((4, 3, 1, 3), 3),
            ((4, 3, 5, 4), 3),
            ((7, 5, 5, 7), 3),
        ]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GAConfig(population_size=1)
        with pytest.raises(ValueError):
            GAConfig(crossover_prob=1.5)
        with pytest.raises(ValueError):
            GAConfig(elitism_count=63, population_size=63)


class TestBreedingDraws:
    """A breeding step draws both tournaments in one ``integers`` call over an
    array of bounds; the GA must evolve what drawing each tournament's entrants
    and winner in separate calls evolves."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [2, 63, 64])
    def test_one_draw_is_the_stream_of_two_tournaments(self, seed, n):
        k = _TOURNAMENT_SIZE
        highs = np.tile([n] * k + [k], 2)
        population = list(range(n))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for step in range(300):
            draw = ours.integers(0, highs).tolist()
            assert population[draw[draw[k]]] == tournament(population, theirs)
            assert population[draw[k + 1 + draw[2 * k + 1]]] == tournament(population, theirs)
            # the draws crossover and mutation interleave
            for rng in (ours, theirs):
                rng.random()
                if step % 3 == 0:
                    rng.integers(1, 8)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "population_size, elitism_count, crossover_prob, mutation_prob",
        [
            (2, 1, 0.7, 0.01),
            (2, 1, 1.0, 1.0),
            (63, 1, 0.7, 0.01),
            (63, 62, 0.7, 0.01),
            (63, 2, 0.0, 0.0),
            (63, 2, 1.0, 1.0),
            (64, 1, 0.7, 0.01),
            (64, 63, 0.7, 0.01),
            (64, 2, 0.0, 1.0),
            (64, 2, 1.0, 0.0),
        ],
    )
    def test_evolve_matches_separate_tournaments(
        self, synthetic_144, population_size, elitism_count, crossover_prob, mutation_prob
    ):
        train, _ = split(synthetic_144, SplitSpec(train_count=111, seed=42))
        cfg = GAConfig(
            population_size=population_size,
            generations=12,
            crossover_prob=crossover_prob,
            mutation_prob=mutation_prob,
            elitism_count=elitism_count,
            seed=population_size + elitism_count,
        )
        rule_base, history = evolve(cfg, train)
        want_pairs, want_history = evolve_separate_tournaments(cfg, train)
        assert [h.hex() for h in history] == [h.hex() for h in want_history]
        assert [(r.antecedent, r.consequent) for r in rule_base.rules] == want_pairs
