"""Genetic search over fuzzy rules: one chromosome encodes one rule.

A chromosome is a plain 5-tuple of ints in 1..7 (four antecedent MF indices
plus the consequent); the operators keep genes in range by construction. The
population as a whole decodes to (antecedent, consequent) pairs and is scored
collectively by training MAPE, so selection has no per-chromosome credit:
tournament entrants win uniformly at random, and elitism re-injects
chromosomes from the best population seen so far. The rules are validated
once, when ``evolve`` builds the returned rule base from the best pairs.

Decoding prunes exact duplicates and resolves antecedent conflicts by keeping
the consequent whose single-rule inference scores the lowest MAPE on the
cases it fires on. That score depends only on the pair, so each pair is
scored once a fit: a population's conflicting rules not yet scored are all
scored in one ``FuzzyEngine.centroids`` call, so decoding makes at most two
calls per generation: that one and the population's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import Dataset
from .errors import EmptyTrainError
from .fuzzy import FuzzyEngine, FuzzyPredictor, FuzzyRule, RuleBase, group_consequents
from .fuzzy import variables_from_dataset
from .metrics import mape

GENE_COUNT = 5
GENE_MAX = 7
_TOURNAMENT_SIZE = 3


@dataclass(frozen=True)
class GAConfig:
    population_size: int = 63
    generations: int = 200
    crossover_prob: float = 0.7
    mutation_prob: float = 0.01
    elitism_count: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not (1 <= self.elitism_count < self.population_size):
            raise ValueError("elitism_count must be in [1, population_size)")


Genes = tuple[int, ...]
Pair = tuple[Genes, int]


def random_chromosome(rng: np.random.Generator) -> Genes:
    return tuple(int(g) for g in rng.integers(1, GENE_MAX + 1, GENE_COUNT))


def crossover(
    a: Genes, b: Genes, rng: np.random.Generator, prob: float
) -> tuple[Genes, Genes]:
    """Single-point crossover at a uniform cut in 1..4, applied with ``prob``."""
    if rng.random() >= prob:
        return a, b
    cut = int(rng.integers(1, GENE_COUNT))
    return a[:cut] + b[cut:], b[:cut] + a[cut:]


def mutate(c: Genes, rng: np.random.Generator, prob: float) -> Genes:
    """Each gene independently redrawn uniformly from 1..7 with ``prob``."""
    genes = list(c)
    for i in range(GENE_COUNT):
        if rng.random() < prob:
            genes[i] = int(rng.integers(1, GENE_MAX + 1))
    return tuple(genes)


class _PopulationEvaluator:
    """Precomputed training-side state for scoring whole populations."""

    def __init__(self, train: Dataset):
        if len(train) == 0:
            raise EmptyTrainError("genetic-fuzzy evaluation needs a nonempty training set")
        self.engine = FuzzyEngine(*variables_from_dataset(train))
        self.memberships = self.engine.input_memberships(train.features_matrix)
        self.targets = train.targets
        self.fallback = float(np.mean(train.targets))
        self._solo: dict[Pair, float] = {}  # solo MAPE by pair, kept for the fit

    def _solo_mapes(
        self,
        pairs: list[Pair],
        strengths: np.ndarray,
        groups: Iterable[list[int]],
    ) -> dict[int, float]:
        """Training MAPE of each conflicting rule alone, on the rows its antecedent
        fires (inf when it fires none), by pair index.

        A pair's score depends only on the pair and the training side, so each is
        scored once a fit and kept by pair. One ``centroids`` call scores a
        population's new pairs: row block k holds candidate k's strengths in
        column k and zeros elsewhere. A zero strength clips to 0 and output
        memberships are >= 0, so each row aggregates its own candidate's set.
        """
        conflicting = [idx for group in groups if len(group) > 1 for idx in group]
        rows = {
            idx: np.flatnonzero(strengths[:, idx] > 0.0)
            for idx in conflicting if pairs[idx] not in self._solo
        }
        self._solo.update((pairs[idx], math.inf) for idx in rows)
        scored = [idx for idx in rows if rows[idx].size]
        if scored:
            sizes = [rows[idx].size for idx in scored]
            fired = np.concatenate([rows[idx] for idx in scored])
            column = np.repeat(np.arange(len(scored)), sizes)
            block = np.zeros((fired.size, len(scored)))
            block[np.arange(fired.size), column] = strengths[fired, np.array(scored)[column]]
            consequents = np.array([pairs[i][1] for i in scored])
            values, _ = self.engine.centroids(block, group_consequents(consequents))
            for idx, chunk in zip(scored, np.split(values, np.cumsum(sizes)[:-1])):
                self._solo[pairs[idx]] = mape(self.targets[rows[idx]], chunk)
        return {idx: self._solo[pairs[idx]] for idx in conflicting}

    def decode_and_fitness(self, population: Sequence[Genes]) -> tuple[list[Pair], float]:
        """The population's winning (antecedent, consequent) pairs and their training MAPE."""
        # unique antecedent/consequent pairs in first-occurrence order
        pairs = list(dict.fromkeys((genes[:4], genes[4]) for genes in population))
        antecedents = np.array([p[0] for p in pairs], dtype=int)
        strengths = self.engine.strengths(self.memberships, antecedents)

        # pair indices per antecedent, antecedents in first-occurrence order
        groups: dict[tuple[int, ...], list[int]] = {}
        for idx, (ant, _) in enumerate(pairs):
            groups.setdefault(ant, []).append(idx)

        solo = self._solo_mapes(pairs, strengths, groups.values())
        winners: list[int] = []
        for group in groups.values():
            best_idx, best_score = None, (math.inf, GENE_MAX + 1)
            for idx in group:
                score = (solo.get(idx, math.inf), pairs[idx][1])
                if score < best_score:
                    best_idx, best_score = idx, score
            winners.append(best_idx)

        consequents = np.array([pairs[i][1] for i in winners], dtype=int)
        values, ok = self.engine.centroids(strengths[:, winners], group_consequents(consequents))
        values[~ok] = self.fallback
        return [pairs[i] for i in winners], mape(self.targets, values)


def evolve(cfg: GAConfig, train: Dataset) -> tuple[RuleBase, list[float]]:
    """Evolve a rule base minimizing training MAPE.

    Returns the best decoded rule base seen across all generations and the
    best-so-far fitness history (index 0 is the initial random population).
    """
    rng = np.random.default_rng(cfg.seed)
    evaluator = _PopulationEvaluator(train)

    population = [random_chromosome(rng) for _ in range(cfg.population_size)]
    best_pairs, best_fit = evaluator.decode_and_fitness(population)
    best_population = list(population)
    history = [best_fit]
    # One call draws both tournaments of a breeding step: each its k entrants'
    # indices, then the uniform winner's place among them. An array of bounds
    # draws element by element, so the stream is that of separate draws.
    k = _TOURNAMENT_SIZE
    highs = np.tile([cfg.population_size] * k + [k], 2)

    for _ in range(cfg.generations):
        next_population = list(best_population[: cfg.elitism_count])
        while len(next_population) < cfg.population_size:
            draw = rng.integers(0, highs).tolist()
            parent_a = population[draw[draw[k]]]
            parent_b = population[draw[k + 1 + draw[2 * k + 1]]]
            child_a, child_b = crossover(parent_a, parent_b, rng, cfg.crossover_prob)
            next_population.append(mutate(child_a, rng, cfg.mutation_prob))
            if len(next_population) < cfg.population_size:
                next_population.append(mutate(child_b, rng, cfg.mutation_prob))
        population = next_population
        pairs, fit = evaluator.decode_and_fitness(population)
        if fit < best_fit:
            best_pairs, best_fit = pairs, fit
            best_population = list(population)
        history.append(best_fit)

    rules = tuple(FuzzyRule(ant, cons) for ant, cons in best_pairs)
    engine = evaluator.engine
    return RuleBase(rules, engine.input_vars, engine.output_var, engine), history


class GeneticFuzzyPredictor(FuzzyPredictor):
    """Zoo wrapper around the evolutionary rule search; inference as in ``fuzzy``."""

    model_kind = "genetic_fuzzy"

    def __init__(self, config: GAConfig | None = None):
        super().__init__()
        self.config = config or GAConfig()
        self.history: list[float] = []

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.rule_base, self.history = evolve(self.config, train)
        super()._fit(train, y)  # the rules are set, so this sets only the fallback

    def output_files(self, model_id: str) -> dict[str, list[tuple]]:
        rows = [(gen, repr(best)) for gen, best in enumerate(self.history)]
        return {f"ga_fitness_{model_id}.csv": [("generation", "best_mape"), *rows]}
