"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_dataset
from oracles import fire_rule, membership, scalar_case_similarity
from costlab.bench import BenchConfig, run_bench, write_outputs
from costlab.cart import best_split
from costlab.cbr import CaseBase, case_similarity, retrieve_and_predict
from costlab.core import TargetTransform, evaluate
from costlab.data import (
    Dataset,
    FeatureVector,
    ProjectRecord,
    SplitSpec,
    split,
    synthesize,
)
from costlab.ensemble import bootstrap_indices
from costlab.errors import UnsupportedMissingError
from costlab.fuzzy import (
    FuzzyRule,
    RuleBase,
    default_variable,
    infer_detail,
    triangular_memberships,
)
from costlab.genetic_fuzzy import GAConfig, crossover, evolve, mutate
from costlab.metrics import MapeCategory, adjusted_r_squared, mape, r_squared
from costlab.neural import forward, gradients, init_weights
from costlab.regression import fit_ols
from costlab.svr import SvrParams, fit_svr, kernel_matrix, predict_svr
from costlab.zoo import DEFAULT_MODEL_IDS, build_model

GLOBAL_SEED = 42  # recorded seed for the benchmark-level criteria


def _report(number, description):
    print(f"ACCEPTANCE {number:>2} PASS - {description}")


@pytest.fixture(scope="module")
def bench_144():
    """Criterion 3 fixture: the full 20-model benchmark, timed."""
    cfg = BenchConfig(n=144, noise_pct=5.0, enabled=DEFAULT_MODEL_IDS)
    started = time.time()
    result = run_bench(cfg, seed=GLOBAL_SEED)
    return result, time.time() - started


def test_criterion_01_metric_exactness():
    assert mape([100.0], [100.0]) == 0.0
    assert mape([100.0], [110.0]) == 10.0
    assert mape([100.0, 200.0], [90.0, 240.0]) == 15.0
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == 0.5
    assert adjusted_r_squared(1.0, 4, 33) == 1.0
    assert adjusted_r_squared(0.5, 4, 6) == pytest.approx(-1.5, rel=1e-12)
    assert adjusted_r_squared(0.931, 4, 144) == pytest.approx(0.929, abs=0.0005)
    _report(1, "metric unit fixtures exact; adjusted R2 reconciles 0.931 -> 0.929")


def test_criterion_02_generator_recovery_loop():
    started = time.time()
    dataset = synthesize(144, seed=GLOBAL_SEED, noise_pct=0.0)
    train, test = split(dataset, SplitSpec(seed=GLOBAL_SEED))
    assert (len(train), len(test)) == (111, 33)
    model = fit_ols(train, TargetTransform.SQRT.forward(train.targets))
    expected = (-37032.81, 2.21, 0.1691, 2.265, 18.594)
    got = (model.intercept, *model.coefficients)
    for g, e in zip(got, expected):
        assert abs(g - e) / abs(e) <= 0.01
    predictor = build_model("sqrt_regression", {}, 0).fit(train)
    report = evaluate(predictor, test)
    assert report.mape_pct <= 0.5
    assert report.mape_category is MapeCategory.BELOW_10
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(2, f"noise-free recovery loop: coefficients within 1%, test MAPE "
               f"{report.mape_pct:.2e}% ({elapsed:.2f}s)")


def test_criterion_03_synthetic_benchmark_sanity(bench_144):
    result, elapsed = bench_144
    assert elapsed < 120.0
    assert len(result.rows) == 20
    by_id = {row.model_id: row for row in result.rows}
    quad = by_id["sqrt_regression"].report
    boost = by_id["regularized_boosting"].report
    assert quad.mape_pct <= 20.0
    assert boost.mape_pct <= 20.0
    cart = by_id["cart"].report.mape_pct
    rf = by_id["random_forest"].report.mape_pct
    assert cart >= rf
    _report(3, f"20-model bench in {elapsed:.1f}s: quadratic {quad.mape_pct:.2f}%, "
               f"booster {boost.mape_pct:.2f}%, CART {cart:.2f}% >= RF {rf:.2f}%")


def test_criterion_04_bootstrap_law():
    started = time.time()
    rng = np.random.default_rng(GLOBAL_SEED)
    fractions = [
        np.unique(bootstrap_indices(1000, rng)).size / 1000.0 for _ in range(200)
    ]
    mean_fraction = float(np.mean(fractions))
    assert mean_fraction == pytest.approx(0.632, abs=0.03)
    elapsed = time.time() - started
    assert elapsed < 5.0
    _report(4, f"bootstrap unique fraction {mean_fraction:.4f} within 0.632 +- 0.03")


def test_criterion_05_cart_brute_force_equivalence():
    started = time.time()

    def oracle(X, y):
        best = None

        def sse(vals):
            if not vals:
                return 0.0
            m = sum(vals) / len(vals)
            return sum((v - m) ** 2 for v in vals)

        parent = sse(list(y))
        for f in range(X.shape[1]):
            distinct = sorted(set(X[:, f]))
            for a, b in zip(distinct, distinct[1:]):
                thr = (a + b) / 2
                left = [y[i] for i in range(len(y)) if X[i, f] <= thr]
                right = [y[i] for i in range(len(y)) if X[i, f] > thr]
                gain = parent - sse(left) - sse(right)
                if gain > 0 and (best is None or gain > best[2]):
                    best = (f, thr, gain)
        return best

    rng = np.random.default_rng(GLOBAL_SEED)
    for _ in range(500):
        n = int(rng.integers(2, 13))
        X = rng.uniform(0, 10, (n, 2))
        y = rng.uniform(0, 100, n)
        mine = best_split(X, y)
        expected = oracle(X, y)
        if expected is None:
            assert mine is None
        else:
            assert mine is not None
            assert (mine[0], mine[1]) == (expected[0], expected[1])
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(5, f"best_split equals exhaustive enumeration on 500 datasets ({elapsed:.1f}s)")


def test_criterion_06_neural_gradient_check():
    started = time.time()
    rng = np.random.default_rng(GLOBAL_SEED)
    checked = 0
    while checked < 20:
        depth = int(rng.integers(1, 3))
        hidden = tuple(int(h) for h in rng.integers(1, 9, size=depth))
        activation = ("tanh", "relu")[checked % 2]
        w = init_weights((4, *hidden, 1), rng)
        for b in w.biases:
            b += rng.normal(0, 0.3, b.shape)
        X = rng.normal(0, 1, (6, 4))
        t = rng.normal(0, 1, 6)
        if activation == "relu":
            a = X
            near_kink = False
            for W, b in zip(w.weights[:-1], w.biases[:-1]):
                z = a @ W + b
                near_kink = near_kink or bool(np.min(np.abs(z)) < 1e-3)
                a = np.maximum(0.0, z)
            if near_kink:
                continue
        gw, gb, _ = gradients(w, X, t, activation)

        def loss():
            out = forward(w, X, activation)
            return 0.5 * float(np.mean((out - t) ** 2))

        step = 1e-5
        for grads, params in ((gw, w.weights), (gb, w.biases)):
            for layer, matrix in enumerate(params):
                it = np.nditer(matrix, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = matrix[idx]
                    matrix[idx] = original + step
                    up = loss()
                    matrix[idx] = original - step
                    down = loss()
                    matrix[idx] = original
                    fd = (up - down) / (2 * step)
                    g = grads[layer][idx]
                    assert abs(g - fd) / max(abs(g), abs(fd), 1e-6) <= 1e-4
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(6, f"analytic gradients match central differences on 20 networks ({elapsed:.1f}s)")


def test_criterion_07_fuzzy_centroid_oracle():
    started = time.time()
    names = ("p1_area_served", "p2_pipeline_length", "p3_irrigation_valves", "p4_construction_year")
    rng = np.random.default_rng(GLOBAL_SEED)
    for _ in range(50):
        lo = float(rng.uniform(50, 200))
        hi = lo + float(rng.uniform(300, 2000))
        in_vars = tuple(default_variable(n, 0.0, 10.0) for n in names)
        out_var = default_variable("cost", lo, hi)
        x = FeatureVector(*rng.uniform(0, 10, 4).tolist())
        xa = x.to_array()
        candidates = [
            [m + 1 for m in range(7) if membership(in_vars[d].mfs[m], xa[d]) > 0]
            for d in range(4)
        ]
        rules, seen = [], set()
        target = int(rng.integers(1, 6))
        while len(rules) < target:
            ant = tuple(int(rng.choice(candidates[d])) for d in range(4))
            if ant in seen:
                continue
            seen.add(ant)
            rules.append(FuzzyRule(ant, int(rng.integers(1, 8))))
        rb = RuleBase(tuple(rules), in_vars, out_var)
        got = infer_detail(rb, xa).value
        grid = np.linspace(lo, hi, 100001)
        agg = np.zeros_like(grid)
        for rule in rules:
            s = fire_rule(rb, rule, x)
            mu = triangular_memberships(grid, *out_var.breakpoints[:, rule.consequent - 1])
            agg = np.maximum(agg, np.minimum(s, mu))
        oracle = float(np.trapezoid(agg * grid, grid) / np.trapezoid(agg, grid))
        assert abs(got - oracle) / abs(oracle) <= 1e-3

    # symmetric single-rule cases return the consequent peak within grid tolerance
    in_vars = tuple(default_variable(n, 0.0, 10.0) for n in names)
    out_var = default_variable("cost", 100.0, 700.0)
    step = (out_var.hi - out_var.lo) / 1000
    for consequent in (2, 3, 4, 5, 6):  # interior, symmetric MFs
        rb = RuleBase((FuzzyRule((2, 2, 2, 2), consequent),), in_vars, out_var)
        x = FeatureVector(*[10.0 / 6.0] * 4)
        assert infer_detail(rb, x.to_array()).value == pytest.approx(
            out_var.mfs[consequent - 1].peak, abs=step
        )
    elapsed = time.time() - started
    assert elapsed < 10.0
    _report(7, f"centroids within 0.1% of the 100k-sample oracle ({elapsed:.1f}s)")


def test_criterion_08_ga_contract():
    started = time.time()
    # best-so-far monotone over 200 generations for 10 seeds
    train_small = synthesize(20, seed=6, noise_pct=0.0)
    for seed in range(10):
        _, history = evolve(
            GAConfig(population_size=24, generations=200, seed=seed), train_small
        )
        assert len(history) == 201
        assert all(b <= a for a, b in zip(history, history[1:]))

    # final strictly better than the initial population on noisy data
    train_noisy = synthesize(25, seed=8, noise_pct=10.0)
    _, history = evolve(GAConfig(population_size=24, generations=200, seed=1), train_noisy)
    assert history[-1] < history[0]

    # Monte Carlo operator rates
    rng = np.random.default_rng(123)
    a = (1, 2, 3, 4, 5)
    b = (2, 3, 4, 5, 6)
    applied = sum(crossover(a, b, rng, prob=0.7)[0] != a for _ in range(10000))
    assert applied / 10000 == pytest.approx(0.70, abs=0.02)
    rng = np.random.default_rng(77)
    c = (3, 1, 4, 1, 5)
    changed = sum(
        g != h
        for _ in range(2000)
        for g, h in zip(mutate(c, rng, prob=0.01), c)
    )
    rate = changed / 10000
    assert 0.007 <= rate <= 0.013
    elapsed = time.time() - started
    assert elapsed < 120.0
    _report(8, f"GA monotone over 10 seeds, strict improvement, operator rates ({elapsed:.1f}s)")


def test_criterion_09_cbr_exactness():
    started = time.time()
    train = random_dataset(100, seed=GLOBAL_SEED, noise=0.4)
    base = CaseBase(train)
    stored = train[17]
    row = stored.features.to_array()[None, :]
    costs, best = retrieve_and_predict(base, row, k=1)
    assert costs[0] == stored.cost_le
    assert case_similarity(row, train.features_matrix)[0, best[0]] == 1.0

    rng = np.random.default_rng(GLOBAL_SEED + 1)
    for _ in range(30):
        query = FeatureVector(
            float(rng.uniform(20, 300)),
            float(rng.uniform(200, 3000)),
            float(rng.uniform(5, 60)),
            float(rng.uniform(2010, 2015)),
        )
        row = query.to_array()[None, :]
        _, best = retrieve_and_predict(base, row, k=1)
        scan_best = max(scalar_case_similarity(query, c.features) for c in base.cases)
        similarity = case_similarity(row, train.features_matrix)[0, best[0]]
        assert similarity == pytest.approx(scan_best, rel=1e-12)
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(9, f"CBR exact reuse and exhaustive-scan agreement ({elapsed:.2f}s)")


def test_criterion_10_missing_value_contracts():
    dataset = synthesize(60, seed=4, noise_pct=5.0)
    rng = np.random.default_rng(0)
    records = []
    for rec in dataset:
        if rng.random() < 0.3:
            features = FeatureVector(
                rec.features.p1_area_served,
                None,
                rec.features.p3_irrigation_valves,
                rec.features.p4_construction_year,
            )
        else:
            features = rec.features
        records.append(ProjectRecord(rec.id, features, rec.cost_le))
    fixture = Dataset(records)
    assert fixture.has_missing_features

    booster = build_model("regularized_boosting", {"n_rounds": "20"}, 9).fit(fixture)
    query = FeatureVector(100.0, None, 10.0, 2013.0)
    assert math.isfinite(booster.predict(query))
    for rec in fixture:
        assert math.isfinite(booster.predict(rec.features))

    rejected = []
    for model_id in DEFAULT_MODEL_IDS:
        if model_id == "regularized_boosting":
            continue
        with pytest.raises(UnsupportedMissingError):
            build_model(model_id, {}, 9).fit(fixture)
        rejected.append(model_id)
    assert len(rejected) == 19
    _report(10, "booster trains/predicts with 30% missing P2; all 19 others refuse")


def test_criterion_11_svr_small_instance_oracle():
    cvxopt = pytest.importorskip("cvxopt")
    cvxopt.solvers.options["show_progress"] = False
    started = time.time()

    rng = np.random.default_rng(GLOBAL_SEED)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        X = rng.uniform(0, 10, (n, 4))
        y = 1000 + 100 * X[:, 0] + 30 * np.sin(X[:, 1]) + rng.normal(0, 20, n)
        C, epsilon, gamma = 1.0, 0.1, 0.25
        params = SvrParams(C=C, epsilon=epsilon, gamma_rbf=gamma, max_passes=2000, tol=1e-6)
        model = fit_svr(X, y, params)

        x_mean, x_scale = X.mean(0), X.std(0)
        x_scale[x_scale == 0] = 1.0
        Xs = (X - x_mean) / x_scale
        y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
        ys = (y - y_mean) / y_scale
        K = kernel_matrix(Xs, Xs, gamma)
        P = np.block([[K, -K], [-K, K]]) + 1e-10 * np.eye(2 * n)
        q = np.concatenate([epsilon - ys, epsilon + ys])
        G = np.vstack([-np.eye(2 * n), np.eye(2 * n)])
        h = np.concatenate([np.zeros(2 * n), C * np.ones(2 * n)])
        A = np.concatenate([np.ones(n), -np.ones(n)])[None, :]
        sol = cvxopt.solvers.qp(
            cvxopt.matrix(P), cvxopt.matrix(q), cvxopt.matrix(G), cvxopt.matrix(h),
            cvxopt.matrix(A), cvxopt.matrix(np.zeros(1)),
        )
        z = np.array(sol["x"]).ravel()
        beta = z[:n] - z[n:]
        F = K @ beta
        free = (np.abs(beta) > 1e-6) & (np.abs(beta) < C - 1e-6)
        if free.any():
            bias = float(np.mean(ys[free] - F[free] - epsilon * np.sign(beta[free])))
        else:
            resid = ys - F
            g_up = np.where(beta >= 0, resid - epsilon, resid + epsilon)
            g_dn = np.where(beta <= 0, resid + epsilon, resid - epsilon)
            bias = 0.5 * (g_up[beta < C - 1e-6].max() + g_dn[beta > -C + 1e-6].min())

        for _ in range(4):
            probe = rng.uniform(0, 10, 4)
            ps = (probe - x_mean) / x_scale
            k = kernel_matrix(Xs, ps[None, :], gamma)[:, 0]
            oracle_pred = (float(beta @ k) + bias) * y_scale + y_mean
            assert predict_svr(model, probe[None, :])[0] == pytest.approx(oracle_pred, rel=1e-2)

    # kernel PSD check
    for _ in range(10):
        A = rng.normal(0, 1, (int(rng.integers(2, 12)), 4))
        K = kernel_matrix(A, A, 0.25)
        assert np.linalg.eigvalsh(K).min() >= -1e-8
    elapsed = time.time() - started
    _report(11, f"SVR matches the QP oracle within 1e-2; kernel PSD ({elapsed:.1f}s)")


def test_criterion_12_benchmark_determinism(tmp_path):
    cfg = BenchConfig(
        enabled=(
            "sqrt_regression", "cart", "random_forest", "extra_trees",
            "adaboost_r2", "sgb", "regularized_boosting", "cbr", "svr",
            "fuzzy", "genetic_fuzzy",
        ),
        model_params={"genetic_fuzzy": {"generations": "10"}},
    )
    import os

    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    write_outputs(run_bench(cfg, seed=GLOBAL_SEED), dir_a, "csv")
    write_outputs(run_bench(cfg, seed=GLOBAL_SEED), dir_b, "csv")
    names = sorted(os.listdir(dir_a))
    assert "leaderboard.csv" in names
    assert sum(1 for n in names if n.startswith("predictions_")) == 11
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(
            os.path.join(dir_b, name), "rb"
        ) as fb:
            assert fa.read() == fb.read(), f"{name} differs between identical runs"
    _report(12, "two identical bench runs produce byte-identical output files")
