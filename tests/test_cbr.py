import numpy as np
import pytest

from conftest import random_dataset, retrieve_one
from oracles import attribute_similarity, scalar_case_similarity
from costlab.cbr import (
    CaseBase,
    CbrPredictor,
    case_similarity,
    retrieve_and_predict,
)
from costlab.data import Dataset, FeatureVector, ProjectRecord
from costlab.errors import KTooLargeError, NegativeAttributeError, ZeroWeightSumError


def record(rid, features, cost):
    return ProjectRecord(rid, FeatureVector(*features), cost)


def case_base(*records, attribute_weights=(1.0, 1.0, 1.0, 1.0)):
    return CaseBase(Dataset(records), attribute_weights)


def row(x):
    """The (1, 4) query matrix of one ``FeatureVector``."""
    return x.to_array()[None, :]


class TestAttributeSimilarity:
    def test_hand_arithmetic(self):
        assert attribute_similarity(4.0, 6.0) == pytest.approx(0.6667, abs=1e-4)

    def test_identity(self):
        for x in (0.5, 3.0, 1e6):
            assert attribute_similarity(x, x) == 1.0

    def test_one_zero(self):
        assert attribute_similarity(0.0, 5.0) == 0.0
        assert attribute_similarity(5.0, 0.0) == 0.0

    def test_both_zero(self):
        assert attribute_similarity(0.0, 0.0) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(NegativeAttributeError):
            attribute_similarity(-1.0, 2.0)

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.01, 100, 2)
            c = float(rng.uniform(0.01, 50))
            assert attribute_similarity(a, b) == attribute_similarity(b, a)
            assert attribute_similarity(c * a, c * b) == pytest.approx(
                attribute_similarity(a, b), rel=1e-12
            )


class TestCaseSimilarity:
    def test_identical_vectors(self):
        x = FeatureVector(3.0, 4.0, 5.0, 2013.0)
        assert case_similarity(row(x), row(x), (1.0, 2.0, 3.0, 4.0))[0, 0] == 1.0

    def test_weighted_average_hand_case(self):
        # similarities (1, 0, 1, 0) with equal weights
        a = FeatureVector(2.0, 0.0, 3.0, 2000.0)
        b = FeatureVector(2.0, 5.0, 3.0, 0.0001)
        sim = case_similarity(row(a), row(b), (1.0, 1.0, 1.0, 1.0))[0, 0]
        assert sim == pytest.approx(0.5, abs=1e-6)

    def test_zero_weights_ignore_attributes(self):
        a = FeatureVector(2.0, 0.0, 3.0, 2000.0)
        b = FeatureVector(2.0, 5.0, 3.0, 0.0001)
        sim = case_similarity(row(a), row(b), (1.0, 0.0, 1.0, 0.0))[0, 0]
        assert sim == pytest.approx(1.0, abs=1e-6)


class TestRetrieveAndPredict:
    def test_exact_match_returns_stored_cost(self):
        base = case_base(
            record("a", (1, 2, 3, 2013), 100.0),
            record("b", (4, 5, 6, 2014), 200.0),
        )
        cost, best, similarity, per_attribute = retrieve_one(
            base, FeatureVector(4.0, 5.0, 6.0, 2014.0), k=1
        )
        assert cost == 200.0
        assert best.id == "b"
        assert similarity == 1.0
        assert per_attribute == (1.0, 1.0, 1.0, 1.0)

    def test_weighted_mean_of_top_two(self):
        # engineered similarities 0.8 and 0.4 with weights all on P1
        base = case_base(
            record("a", (8.0, 1.0, 1.0, 2013.0), 100.0),
            record("b", (25.0, 1.0, 1.0, 2013.0), 200.0),
            attribute_weights=(1.0, 0.0, 0.0, 0.0),
        )
        query = FeatureVector(10.0, 1.0, 1.0, 2013.0)
        # CS(a) = 8/10 = 0.8, CS(b) = 10/25 = 0.4
        (cost,), _ = retrieve_and_predict(base, row(query), k=2)
        assert cost == pytest.approx((0.8 * 100 + 0.4 * 200) / 1.2, rel=1e-9)
        assert cost == pytest.approx(133.33, abs=0.01)

    def test_k_too_large(self):
        base = case_base(record("a", (1, 2, 3, 2013), 100.0))
        with pytest.raises(KTooLargeError):
            retrieve_and_predict(base, row(FeatureVector(1.0, 2.0, 3.0, 2013.0)), k=2)

    def test_k1_cost_exists_in_base(self):
        train = random_dataset(30, seed=1, noise=0.3)
        base = CaseBase(train)
        stored_costs = {rec.cost_le for rec in train}
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = FeatureVector(
                float(rng.uniform(20, 300)),
                float(rng.uniform(200, 3000)),
                float(rng.uniform(5, 60)),
                float(rng.uniform(2010, 2015)),
            )
            (cost,), _ = retrieve_and_predict(base, row(q), k=1)
            assert cost in stored_costs

    def test_ranking_agrees_with_exhaustive_scan(self):
        train = random_dataset(100, seed=3, noise=0.5)
        base = CaseBase(train)
        rng = np.random.default_rng(4)
        for _ in range(25):
            q = FeatureVector(
                float(rng.uniform(20, 300)),
                float(rng.uniform(200, 3000)),
                float(rng.uniform(5, 60)),
                float(rng.uniform(2010, 2015)),
            )
            _, _, similarity, _ = retrieve_one(base, q, k=1)
            best_by_scan = max(
                base.cases,
                key=lambda c: (scalar_case_similarity(q, c.features), c.id),
            )
            scan_sim = scalar_case_similarity(q, best_by_scan.features)
            assert similarity == pytest.approx(scan_sim, rel=1e-12)
            # every other case scores no higher than the returned best
            for c in base.cases:
                assert scalar_case_similarity(q, c.features) <= similarity + 1e-12

    def test_similarity_consistent_with_per_attribute_breakdown(self):
        train = random_dataset(40, seed=8, noise=0.3)
        weights = (2.0, 1.0, 0.5, 3.0)
        base = CaseBase(train, attribute_weights=weights)
        rng = np.random.default_rng(9)
        for _ in range(15):
            q = FeatureVector(
                float(rng.uniform(20, 300)),
                float(rng.uniform(200, 3000)),
                float(rng.uniform(5, 60)),
                float(rng.uniform(2010, 2015)),
            )
            _, _, similarity, per_attribute = retrieve_one(base, q, k=1)
            recombined = sum(w * s for w, s in zip(weights, per_attribute)) / sum(weights)
            assert similarity == pytest.approx(recombined, rel=1e-12)

    def test_tie_breaks_toward_smaller_id(self):
        base = case_base(
            record("z", (5, 5, 5, 2013), 1.0),
            record("a", (5, 5, 5, 2013), 2.0),
        )
        _, best = retrieve_and_predict(base, row(FeatureVector(5.0, 5.0, 5.0, 2013.0)), k=1)
        assert base.cases[best[0]].id == "a"


class TestCbrPredictor:
    def test_predictor_round_trip(self):
        train = random_dataset(20, seed=5, noise=0.2)
        p = CbrPredictor().fit(train)
        for rec in train[:5]:
            assert p.predict(rec.features) == rec.cost_le

    @pytest.mark.parametrize(
        "weights, error",
        [
            ((np.inf, 1.0, 1.0, 1.0), ValueError),
            ((-1.0, 1.0, 1.0, 1.0), ValueError),
            ((0.0, 0.0, 0.0, 0.0), ZeroWeightSumError),
        ],
        ids=["infinite", "negative", "zero_sum"],
    )
    def test_bad_weights_rejected_by_the_constructor(self, weights, error):
        # such weights once scored a nan similarity, one above 1, or a zero division;
        # the constructor is the one check, so case_similarity trusts its weights
        with pytest.raises(error, match="finite, nonnegative attribute weights"):
            CbrPredictor(attribute_weights=weights)
