import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from costlab.core import TargetTransform
from costlab.data import FeatureVector
from costlab.errors import (
    NegativeSqrtDomainError,
    NonconvergenceError,
    RankDeficientError,
    TransformDomainError,
)
from costlab.regression import (
    FrozenQuadraticPredictor,
    LinearModel,
    RegressionPredictor,
    fit_ols,
    reference_model,
)

X_PROBE = np.array([[100.0, 1000.0, 10.0, 2013.0]])


class TestReferenceModel:
    def test_frozen_constants(self):
        m = reference_model()
        assert m.intercept == -37032.81
        assert m.coefficients == (2.21, 0.1691, 2.265, 18.594)
        assert FrozenQuadraticPredictor().target_transform is TargetTransform.SQRT

    def test_documented_prediction(self):
        cost = TargetTransform.SQRT.inverse(reference_model().predict(X_PROBE))[0]
        assert cost == pytest.approx(655552.554, abs=0.5)

    def test_all_zero_input_hits_negative_sqrt_domain(self):
        z = reference_model().predict(np.array([[0.0, 0.0, 0.0, 0.001]]))
        with pytest.raises(NegativeSqrtDomainError):
            TargetTransform.SQRT.inverse(z)


def _generated(transform, coeffs, intercept, n=80, seed=0):
    """Noise-free data whose transformed target is exactly affine."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.uniform(1, 10, n),
            rng.uniform(1, 10, n),
            rng.uniform(1, 10, n),
            rng.uniform(2000, 2020, n),
        ]
    )
    z = intercept + X @ np.asarray(coeffs)
    assert np.all(z > 0)
    y = np.array([transform.inverse(v) for v in z])
    return make_dataset(X, y)


COEFFS = {
    TargetTransform.NONE: ((2.0, -0.5, 1.5, 0.3), 100.0),
    TargetTransform.SQRT: ((0.8, 0.2, 0.5, 0.1), 30.0),
    TargetTransform.NATURAL_LOG: ((0.05, 0.01, 0.02, 0.001), 3.0),
    TargetTransform.RECIPROCAL: ((0.001, 0.0005, 0.002, 0.00001), 0.05),
    TargetTransform.SQUARE: ((5.0, 2.0, 3.0, 0.5), 500.0),
}


class TestFitOls:
    @pytest.mark.parametrize("transform", list(TargetTransform))
    def test_recovers_generator_coefficients(self, transform):
        coeffs, intercept = COEFFS[transform]
        train = _generated(transform, coeffs, intercept)
        m = fit_ols(train, transform.forward(train.targets))
        assert m.intercept == pytest.approx(intercept, rel=1e-6)
        for got, want in zip(m.coefficients, coeffs):
            assert got == pytest.approx(want, rel=1e-6)

    def test_constant_target_plain(self):
        train = random_dataset(20, seed=1, target_fn=lambda X: np.full(len(X), 42.0))
        m = fit_ols(train, train.targets)
        assert m.intercept == pytest.approx(42.0, abs=1e-8)
        for c in m.coefficients:
            assert c == pytest.approx(0.0, abs=1e-10)

    def test_duplicated_column_is_rank_deficient(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(1, 10, (30, 4))
        X[:, 3] = rng.uniform(2000, 2020, 30)
        X[:, 1] = X[:, 0]  # exact duplicate
        train = make_dataset(X, 1000 + X[:, 0])
        with pytest.raises(RankDeficientError):
            fit_ols(train, train.targets)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_fewer_rows_than_parameters_is_rank_deficient(self, n):
        # the SVD of an (n, 5) design has only n singular values, all nonzero here
        train = random_dataset(n, seed=n)
        with pytest.raises(RankDeficientError):
            fit_ols(train, train.targets)

    def test_positivity_transforms_reject_nonpositive_targets(self):
        # bypass record validation by checking the transform directly
        for t in (TargetTransform.SQRT, TargetTransform.NATURAL_LOG, TargetTransform.RECIPROCAL):
            with pytest.raises(TransformDomainError):
                t.forward(np.array([5.0, -1.0]))

    def test_residuals_orthogonal_to_columns(self):
        train = random_dataset(60, seed=4, noise=0.2)
        m = fit_ols(train, train.targets)
        X = train.features_matrix
        design = np.hstack([np.ones((len(train), 1)), X])
        beta = np.array([m.intercept, *m.coefficients])
        resid = train.targets - design @ beta
        for col in design.T:
            bound = 1e-8 * np.linalg.norm(col) * max(np.linalg.norm(resid), 1.0)
            assert abs(float(col @ resid)) <= bound

    def test_prediction_invariant_to_column_reordering(self):
        # all features drawn in year-safe ranges so any permutation is valid
        rng = np.random.default_rng(5)
        X = rng.uniform(1950, 2050, (50, 4))
        y = 500.0 + X @ np.array([1.2, -0.4, 0.9, 0.3]) + rng.normal(0, 5, 50)
        perm = [2, 0, 3, 1]
        m = fit_ols(make_dataset(X, y), y)
        mp = fit_ols(make_dataset(X[:, perm], y), y)
        for k, orig_idx in enumerate(perm):
            assert mp.coefficients[k] == pytest.approx(m.coefficients[orig_idx], rel=1e-9)
        probe = np.array([2000.0, 1990.0, 2010.0, 2020.0])
        direct = m.predict(probe[None, :])[0]
        permuted = mp.predict(probe[None, perm])[0]
        assert permuted == pytest.approx(direct, rel=1e-9)


def _cost_at_probe(transform, affine_output):
    """The cost a regression in ``transform``'s space prices X_PROBE at when its
    affine model outputs ``affine_output`` there."""
    predictor = RegressionPredictor(transform, "probe").fit(random_dataset(20, seed=0))
    predictor.model = LinearModel(affine_output, (0.0, 0.0, 0.0, 0.0))
    return predictor.predict(FeatureVector(*X_PROBE[0]))


class TestPredictLinear:
    def test_semilog_zero_model_predicts_one(self):
        assert _cost_at_probe(TargetTransform.NATURAL_LOG, 0.0) == 1.0

    def test_square_transform_negative_output_rejected(self):
        with pytest.raises(NegativeSqrtDomainError):
            _cost_at_probe(TargetTransform.SQUARE, -10.0)

    def test_square_transform_inverts_by_root(self):
        assert _cost_at_probe(TargetTransform.SQUARE, 655552.554244) == pytest.approx(
            809.662, abs=1e-6
        )

    def test_reciprocal_zero_output_rejected(self):
        with pytest.raises(NonconvergenceError):
            _cost_at_probe(TargetTransform.RECIPROCAL, 0.0)

    def test_missing_slot_rejected(self):
        from costlab.errors import UnsupportedMissingError

        with pytest.raises(UnsupportedMissingError):
            FrozenQuadraticPredictor().fit(random_dataset(4, seed=0)).predict(
                FeatureVector(1.0, None, 3.0, 2013.0)
            )
