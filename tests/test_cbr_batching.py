"""One similarity matrix and one retrieval call price a whole CBR batch.

``case_similarity`` and ``retrieve_and_predict`` take an (n, 4) matrix of
queries. Every row of a matrix call must carry the same float64 bits as that
row's batch of one and as the sorted scan ``brute_force_retrieval``, on case
bases with exact ties and ids out of lexical order. ``CbrPredictor.predict_many`` prices a batch with one call to
each, and the benchmark's tracer counts both.
"""

import numpy as np
import pytest

from oracles import feature_vector
from test_fuzzy_cbr_equivalence import (
    WEIGHTS,
    _feature_rows,
    _tied_case_base,
    bits,
    brute_force_retrieval,
)
from costlab import cbr
from costlab.cbr import CaseBase, CbrPredictor, case_similarity, retrieve_and_predict
from costlab.data import Dataset, ProjectRecord, SplitSpec, split
from costlab.errors import NegativeAttributeError, UnsupportedMissingError


def _check_rows_against_one_row_calls(case_base, X, k):
    weights, stored = case_base.attribute_weights, case_base.cases.features_matrix
    sims = case_similarity(X, stored, weights)
    costs, best = retrieve_and_predict(case_base, X, k)
    assert sims.shape == (len(X), len(case_base.cases))
    assert costs.shape == best.shape == (len(X),)
    for i in range(len(X)):
        one = X[i : i + 1]
        assert np.array_equal(bits(sims[i]), bits(case_similarity(one, stored, weights)[0]))
        (cost,), (one_best,) = retrieve_and_predict(case_base, one, k)
        want_cost, top = brute_force_retrieval(case_base, feature_vector(X[i]), k)
        assert bits(costs[i]) == bits(cost) == bits(want_cost)
        assert case_base.cases[best[i]] is case_base.cases[one_best] is top[0][1]
    return sims


@pytest.mark.parametrize("n", [1, 7, 400])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("weights", WEIGHTS)
def test_matrix_calls_match_one_row_calls_and_the_sorted_scan(weights, k, n):
    rng = np.random.default_rng(10 * k + n)
    case_base, base = _tied_case_base(rng, weights)
    # the tied rows first, so even a batch of one ranks exact ties
    X = np.vstack([base, _feature_rows(rng, n)])[:n]
    _check_rows_against_one_row_calls(case_base, X, k)


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_rows_with_zero_similarity_average_their_top_costs(k):
    """Under weights (1, 0, 1, 0) a query with p1 = p3 = 0 scores 0 against every
    case whose p1 and p3 are positive, so its top-k costs are averaged plainly."""
    rng = np.random.default_rng(k)
    rows = _feature_rows(rng, 12)
    rows[:, [0, 2]] += 1.0
    ids = [f"c{i}" for i in rng.permutation(len(rows))]
    cases = tuple(
        ProjectRecord(case_id, feature_vector(row), float(rng.uniform(1e5, 1e6)))
        for case_id, row in zip(ids, rows)
    )
    case_base = CaseBase(Dataset(cases), (1.0, 0.0, 1.0, 0.0))
    X = _feature_rows(rng, 7)
    X[::2, [0, 2]] = 0.0
    X[1::2, [0, 2]] += 1.0
    sims = _check_rows_against_one_row_calls(case_base, X, k)
    assert not sims[::2].any() and sims[1::2].all()


@pytest.mark.parametrize(
    "value, error",
    [(np.nan, UnsupportedMissingError), (np.inf, UnsupportedMissingError),
     (-1.0, NegativeAttributeError)],
)
def test_a_bad_value_raises_as_it_does_for_one_row(value, error):
    rng = np.random.default_rng(0)
    case_base, _ = _tied_case_base(rng, WEIGHTS[0])
    X = _feature_rows(rng, 7)
    X[3, 1] = value
    with pytest.raises(error):
        case_similarity(X, case_base.cases.features_matrix)
    with pytest.raises(error):
        retrieve_and_predict(case_base, X, 2)
    if value != np.inf:  # a stored value is checked for NaN and sign, as before
        stored = case_base.cases.features_matrix.copy()
        stored[5, 2] = value
        for query in (X[:1], X[:3]):
            with pytest.raises(error):
                case_similarity(query, stored)


def test_predict_many_makes_one_retrieval_and_one_similarity_call(monkeypatch, synthetic_144):
    train, test = split(synthetic_144, SplitSpec(train_count=111, seed=42))
    model = CbrPredictor(k=3).fit(train)
    calls = {name: 0 for name in ("retrieve_and_predict", "case_similarity")}
    for name in calls:
        original = getattr(cbr, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cbr, name, counted)
    values = model.predict_many(test)
    assert calls == {"retrieve_and_predict": 1, "case_similarity": 1}
    for i, record in enumerate(test):
        assert bits(model.predict(record.features)) == bits(values[i])
    assert calls == {"retrieve_and_predict": 1 + len(test), "case_similarity": 1 + len(test)}
