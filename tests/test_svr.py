import math

import numpy as np
import pytest

from conftest import random_dataset
from oracles import fit_svr_full_scan, rbf_kernel
from costlab import svr
from costlab.svr import (
    SvrParams,
    SvrPredictor,
    fit_svr,
    kernel_matrix,
    predict_svr,
)


def qp_oracle(X, y, C, epsilon, gamma):
    """Brute-force dual solve in the 2n-variable (alpha, alpha*) form."""
    cvxopt = pytest.importorskip("cvxopt")
    cvxopt.solvers.options["show_progress"] = False
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
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
        bias = 0.5 * (
            g_up[beta < C - 1e-6].max() + g_dn[beta > -C + 1e-6].min()
        )

    def predict(query):
        qs = (np.asarray(query, dtype=float) - x_mean) / x_scale
        k = kernel_matrix(Xs, qs[None, :], gamma)[:, 0]
        return (float(beta @ k) + bias) * y_scale + y_mean

    return predict


class TestKernel:
    def test_self_similarity_one(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(0, 1, 4)
            assert rbf_kernel(x, x, 0.25) == 1.0

    def test_gamma_zero_collapses_to_one(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(0, 1, 4), rng.normal(0, 1, 4)
        assert rbf_kernel(a, b, 0.0) == 1.0

    def test_unit_distance_hand_value(self):
        a = np.array([0.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, 0.0, 0.0, 0.0])
        assert rbf_kernel(a, b, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(2)
        A = rng.normal(0, 1, (6, 4))
        K = kernel_matrix(A, A, 0.5)
        for i in range(6):
            for j in range(6):
                assert K[i, j] == pytest.approx(rbf_kernel(A[i], A[j], 0.5), rel=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1e3, 1e4])
    def test_exact_unit_diagonal_and_symmetry(self, scale):
        A = np.random.default_rng(4).normal(0, scale, (50, 4))
        K = kernel_matrix(A, A, 0.25 / scale**2)
        assert np.all(np.diag(K) == 1.0)
        assert np.array_equal(K, K.T)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(0, 1, (int(rng.integers(2, 12)), 4))
            K = kernel_matrix(A, A, 0.25)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


class TestFitSvr:
    def test_single_row_predicts_its_target(self):
        X = np.array([[1.0, 2.0, 3.0, 4.0]])
        y = np.array([500.0])
        model = fit_svr(X, y)
        assert predict_svr(model, X)[0] == pytest.approx(500.0, abs=1e-6)

    def test_box_constraints_after_every_pass(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 10, (20, 4))
        y = 100 + 10 * X[:, 0] + rng.normal(0, 5, 20)
        for passes in (1, 2, 5, 50):
            model = fit_svr(X, y, SvrParams(C=1.0, max_passes=passes))
            assert np.all(np.abs(model.beta) <= 1.0 + 1e-12)

    def test_dual_objective_non_decreasing(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 10, (30, 4))
        y = 100 + 10 * X[:, 0] + 5 * np.sin(X[:, 1]) + rng.normal(0, 3, 30)
        model = fit_svr(X, y, SvrParams(max_passes=100))
        history = model.objective_history
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_rows_inside_tube_have_zero_coefficients(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 10, (25, 4))
        y = 100 + 10 * X[:, 0] + rng.normal(0, 2, 25)
        model = fit_svr(X, y, SvrParams(C=10.0, epsilon=0.2, max_passes=2000, tol=1e-5))
        assert model.converged
        # rows strictly inside the tube (by a margin beyond the KKT
        # tolerance) must carry zero coefficients
        K = kernel_matrix(model.X_std, model.X_std, model.params.gamma_rbf)
        f = K @ model.beta + model.bias
        ys = (y - model.y_mean) / model.y_scale
        inside = np.abs(f - ys) < model.params.epsilon - 1e-3
        assert inside.any()
        assert np.all(np.abs(model.beta[inside]) <= 1e-6)

    def test_training_rows_within_tube_plus_slack(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 10, (15, 4))
        y = 100 + 10 * X[:, 0]
        model = fit_svr(X, y, SvrParams(C=100.0, epsilon=0.05, max_passes=3000, tol=1e-5))
        ys = (y - model.y_mean) / model.y_scale
        K = kernel_matrix(model.X_std, model.X_std, model.params.gamma_rbf)
        f = K @ model.beta + model.bias
        at_bound = np.abs(model.beta) >= model.params.C - 1e-8
        assert np.all(np.abs(f - ys)[~at_bound] <= model.params.epsilon + 1e-3)

    def test_unconverged_run_is_flagged(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 10, (40, 4))
        y = rng.uniform(100, 1000, 40)
        model = fit_svr(X, y, SvrParams(max_passes=1, tol=1e-12))
        assert not model.converged
        assert math.isfinite(predict_svr(model, X[:1])[0])

    @pytest.mark.parametrize("C", [1e-9, 1e-8, 0.0, -1.0])
    def test_a_c_within_the_free_tolerance_of_zero_is_rejected(self, C):
        # no coefficient could move, and no bias could be recovered to predict with
        with pytest.raises(ValueError, match="need C > 1e-08"):
            SvrParams(C=C)
        with pytest.raises(ValueError, match="need C > 1e-08"):
            SvrPredictor(C=C)

    def test_the_smallest_c_above_the_free_tolerance_predicts(self):
        X = np.random.default_rng(9).uniform(0, 10, (12, 4))
        model = fit_svr(X, 100 + 10 * X[:, 0], SvrParams(C=math.nextafter(1e-8, 1.0)))
        assert np.isfinite(predict_svr(model, X)).all()

    def test_matches_qp_oracle_on_small_instances(self):
        rng = np.random.default_rng(9)
        for trial in range(8):
            n = int(rng.integers(3, 9))
            X = rng.uniform(0, 10, (n, 4))
            y = 1000 + 100 * X[:, 0] + 30 * np.sin(X[:, 1]) + rng.normal(0, 20, n)
            model = fit_svr(X, y, SvrParams(C=1.0, epsilon=0.1, gamma_rbf=0.25,
                                          max_passes=2000, tol=1e-6))
            oracle = qp_oracle(X, y, 1.0, 0.1, 0.25)
            for _ in range(4):
                q = rng.uniform(0, 10, 4)
                mine, theirs = predict_svr(model, q[None, :])[0], oracle(q)
                assert mine == pytest.approx(theirs, rel=1e-2)

    def test_duality_gap_vanishes_on_small_instances(self):
        # a certificate of optimality that needs no QP solver. In the fit's
        # standardized units the primal 0.5 b'Kb + C * sum(max(0, |y - Kb - bias| - eps))
        # is never below the dual -0.5 b'Kb + y'b - eps * sum|b| when sum(b) = 0 and
        # |b| <= C, and meets it only at the optimum. Each row adds
        # eps|b_i| - b_i r_i + C max(0, |r_i| - eps) >= 0 to the gap, r = y - Kb - bias,
        # which is at most (|b_i| + C) * tol when the KKT violations are within tol
        rng = np.random.default_rng(12)
        tol = 1e-8
        seen = dict(at_bound=0, free=0, zero=0)
        for trial in range(24):
            n = int(rng.integers(2, 13))
            C = float(rng.choice([0.3, 1.0, 10.0]))
            epsilon = float(rng.choice([0.0, 0.05, 0.3, 0.8]))
            X = rng.uniform(0, 10, (n, 4))
            y = 1000 + 100 * X[:, 0] + 30 * np.sin(X[:, 1]) + rng.normal(0, 50, n)
            model = fit_svr(X, y, SvrParams(C=C, epsilon=epsilon, gamma_rbf=0.25,
                                          max_passes=5000, tol=tol))
            assert model.converged
            beta = model.beta
            K = kernel_matrix(model.X_std, model.X_std, model.params.gamma_rbf)
            ys = (y - model.y_mean) / model.y_scale
            Kb = K @ beta
            resid = ys - Kb - model.bias
            primal = 0.5 * beta @ Kb + C * np.maximum(0.0, np.abs(resid) - epsilon).sum()
            dual = -0.5 * beta @ Kb + ys @ beta - epsilon * np.abs(beta).sum()
            assert abs(beta.sum()) <= 1e-12 * n and np.all(np.abs(beta) <= C)
            assert -1e-12 <= primal - dual <= 2 * n * C * tol
            seen["at_bound"] += int(np.sum(np.abs(beta) == C))
            seen["free"] += int(np.sum((0 < np.abs(beta)) & (np.abs(beta) < C)))
            seen["zero"] += int(np.sum(beta == 0))
        assert min(seen.values()) >= 10, seen

    def test_zero_coefficients_predict_constant_bias(self):
        X = np.array([[1.0, 2.0, 3.0, 4.0]])
        y = np.array([500.0])
        model = fit_svr(X, y)
        assert np.all(model.beta == 0.0)
        queries = np.random.default_rng(10).uniform(0, 9, (5, 4))
        values = {predict_svr(model, q[None, :])[0] for q in queries}
        assert len(values) == 1  # constant everywhere

    def test_isolated_support_vector_pulls_prediction(self):
        # one far-away point: prediction there is pulled toward its target
        X = np.vstack([np.random.default_rng(11).uniform(0, 1, (10, 4)),
                       np.full((1, 4), 50.0)])
        y = np.concatenate([np.full(10, 100.0), [900.0]])
        model = fit_svr(X, y, SvrParams(C=10.0, epsilon=0.01, max_passes=2000, tol=1e-5))
        far_pred = predict_svr(model, X[-1:])[0]
        baseline = model.bias * model.y_scale + model.y_mean
        assert abs(far_pred - 900.0) < abs(baseline - 900.0)


class TestSvrPredictor:
    def test_zoo_wrapper_round_trip(self):
        train = random_dataset(30, seed=30, noise=0.05)
        p = SvrPredictor(max_passes=500).fit(train)
        assert math.isfinite(p.predict(train[0].features))

    def test_fits_with_its_own_checked_record(self):
        p = SvrPredictor(C=2.0, max_passes=50).fit(random_dataset(20, seed=33))
        assert p.model.params is p.params

    def test_unbounded_c_is_allowed(self):
        # C = inf is the hard-margin bound; epsilon and gamma_rbf must be finite
        train = random_dataset(30, seed=32, noise=0.05)
        p = SvrPredictor(C=math.inf).fit(train)
        assert np.isfinite(p.predict_many(train)).all()

    def test_smooth_single_feature_fit(self):
        # smooth function of one active driver: training MAPE within 10%
        rng = np.random.default_rng(31)
        n = 40
        X = np.column_stack([
            rng.uniform(20, 300, n),
            np.full(n, 1000.0),
            np.full(n, 30.0),
            np.full(n, 2012.0),
        ])
        y = 1000.0 + 300.0 * np.sin(X[:, 0] / 50.0) + 2.0 * X[:, 0]
        from conftest import make_dataset
        from costlab.metrics import mape

        train = make_dataset(X, y)
        p = SvrPredictor(C=10.0, epsilon=0.01, max_passes=3000, tol=1e-5).fit(train)
        preds = [p.predict(rec.features) for rec in train]
        assert mape(y, preds) <= 10.0


def _random_svr_problem(rng):
    n = int(rng.integers(1, 41))
    X = rng.uniform(0, 10, (n, 4))
    if rng.random() < 0.3:
        X[:, int(rng.integers(4))] = 5.0  # a constant driver
    y = 100 + 10 * X[:, 0] + rng.normal(0, 1 + 30 * rng.random(), n)
    if rng.random() < 0.2:
        y = np.round(y, -2)  # tied targets
    params = dict(
        C=float(rng.choice([2e-8, 0.05, 1.0, 10.0, math.inf])),
        epsilon=float(rng.choice([0.0, 0.01, 0.1, 0.5, 3.0])),
        gamma_rbf=float(rng.choice([0.05, 0.25, 2.0])),
        max_passes=int(rng.choice([0, 1, 2, 5, 200])),
        tol=float(rng.choice([1e-12, 1e-5, 1e-3, 0.5])),
    )
    return X, y, params


def test_the_pair_loop_matches_the_one_that_rescans_every_coefficient(monkeypatch):
    """``fit_svr`` keeps each coefficient's step offsets and updates the two it
    moves; it must select, step and stop as the loop that rebuilds them from beta
    before every selection, bit for bit."""
    spied = []
    recover = svr._recover_bias

    def spy(beta, F, *args):
        spied.append(F.copy())
        return recover(beta, F, *args)

    monkeypatch.setattr(svr, "_recover_bias", spy)
    rng = np.random.default_rng(2026)
    seen = {"C=inf": 0, "epsilon=0": 0, "one_pass": 0, "converged": 0, "unconverged": 0}
    for _ in range(150):
        X, y, params = _random_svr_problem(rng)
        model = fit_svr(X, y, SvrParams(**params))
        beta, F, bias, n_updates, converged, history = fit_svr_full_scan(X, y, **params)
        assert np.array_equal(model.beta.view(np.uint64), beta.view(np.uint64))
        assert np.array_equal(spied.pop().view(np.uint64), F.view(np.uint64))
        assert model.bias.hex() == bias.hex()
        assert (model.n_updates, model.converged) == (n_updates, converged)
        assert [h.hex() for h in model.objective_history] == [h.hex() for h in history]
        seen["C=inf"] += params["C"] == math.inf
        seen["epsilon=0"] += params["epsilon"] == 0.0
        seen["one_pass"] += params["max_passes"] == 1
        seen["converged" if converged else "unconverged"] += 1
    assert all(count >= 10 for count in seen.values()), seen
