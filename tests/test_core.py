import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from costlab.core import Predictor, TargetTransform, evaluate
from costlab.data import Dataset, FeatureVector
from costlab.errors import (
    EmptyTestError,
    EmptyTrainError,
    NonconvergenceError,
    TransformDomainError,
    UnfittedError,
    UnsupportedMissingError,
)
from costlab.metrics import MapeCategory
from costlab.zoo import build_model


class _Stub(Predictor):
    """Predictor returning a fixed value in transformed space."""

    model_kind = "stub"

    def __init__(self, internal_output, transform=TargetTransform.NONE):
        super().__init__(target_transform=transform)
        self.internal_output = internal_output

    def _fit(self, train, y):
        pass

    def _predict_batch(self, X):
        return np.full(len(X), self.internal_output)


X_PROBE = FeatureVector(100.0, 1000.0, 10.0, 2013.0)


class TestTransforms:
    def test_sqrt_round_trip_documented_value(self):
        train = random_dataset(5, seed=0)
        p = _Stub(809.662, TargetTransform.SQRT).fit(train)
        assert p.predict(X_PROBE) == pytest.approx(655552.6, abs=0.5)

    def test_log_of_zero_gives_one(self):
        train = random_dataset(5, seed=0)
        p = _Stub(0.0, TargetTransform.NATURAL_LOG).fit(train)
        assert p.predict(X_PROBE) == 1.0

    def test_forward_inverse_round_trip(self):
        y = np.array([10.0, 404.7, 655552.0])
        for t in TargetTransform:
            z = t.forward(y)
            back = np.array([t.inverse(v) for v in z])
            assert np.allclose(back, y, rtol=1e-12)

    def test_forward_rejects_nonpositive(self):
        for t in (TargetTransform.SQRT, TargetTransform.NATURAL_LOG):
            with pytest.raises(TransformDomainError):
                t.forward(np.array([1.0, 0.0]))

    def test_nonfinite_prediction_is_an_error(self):
        train = random_dataset(5, seed=0)
        p = _Stub(1e10, TargetTransform.NATURAL_LOG).fit(train)  # exp overflows
        with pytest.raises(NonconvergenceError):
            p.predict(X_PROBE)


class TestContract:
    def test_predict_before_fit_rejected(self):
        p = _Stub(1.0)
        with pytest.raises(UnfittedError):
            p.predict(X_PROBE)
        assert not p.is_fitted

    def test_empty_train_rejected(self):
        with pytest.raises(EmptyTrainError):
            _Stub(1.0).fit(Dataset([]))

    def test_refit_rejected(self):
        from costlab.errors import AlreadyFittedError

        train = random_dataset(4, seed=11)
        p = _Stub(1.0).fit(train)
        with pytest.raises(AlreadyFittedError):
            p.fit(train)

    def test_missing_features_rejected_at_fit_and_predict(self):
        train = make_dataset([[1, np.nan, 3, 2013]], [10.0])
        with pytest.raises(UnsupportedMissingError):
            _Stub(1.0).fit(train)
        fitted = _Stub(1.0).fit(random_dataset(4, seed=1))
        with pytest.raises(UnsupportedMissingError):
            fitted.predict(FeatureVector(1.0, None, 3.0, 2013.0))

    def test_constant_target_cart_predicts_constant(self):
        train = random_dataset(8, seed=2, target_fn=lambda X: np.full(len(X), 77.0))
        p = build_model("cart", {}, 0).fit(train)
        for rec in train:
            assert p.predict(rec.features) == 77.0

    def test_fit_determinism_bit_identical(self):
        train = random_dataset(40, seed=3, noise=0.05)
        probe = random_dataset(10, seed=4)
        per_model = {
            "random_forest": {"n_members": "10"},
            "sgb": {"n_rounds": "10"},
            "extra_trees": {"n_members": "10"},
            "plain_mlp": {"epochs": "50"},
        }
        for model_id, params in per_model.items():
            a = build_model(model_id, params, 7).fit(train)
            b = build_model(model_id, params, 7).fit(train)
            pa = [a.predict(rec.features) for rec in probe]
            pb = [b.predict(rec.features) for rec in probe]
            assert pa == pb  # exact float equality


class TestEvaluate:
    def test_perfect_predictor(self):
        test = random_dataset(12, seed=5)

        class Echo(Predictor):
            model_kind = "echo"

            def __init__(self, mapping):
                super().__init__()
                self.mapping = mapping

            def _fit(self, train, y):
                pass

            def _predict_batch(self, X):
                return np.array([self.mapping[FeatureVector.from_array(x)] for x in X])

        mapping = {rec.features: rec.cost_le for rec in test}
        p = Echo(mapping).fit(test)
        report = evaluate(p, test)
        assert report.mape_pct == 0.0
        assert report.mape_category is MapeCategory.BELOW_10
        assert report.r2 == 1.0
        assert report.adj_r2 == 1.0

    def test_mean_predictor_r2_zero(self):
        test = random_dataset(20, seed=6, noise=0.2)
        mean = float(np.mean(test.targets))
        p = _Stub(mean).fit(test)
        report = evaluate(p, test)
        assert report.r2 == pytest.approx(0.0, abs=1e-12)

    def test_empty_test_rejected(self):
        p = _Stub(1.0).fit(random_dataset(4, seed=7))
        with pytest.raises(EmptyTestError):
            evaluate(p, Dataset([]))

    def test_adjusted_never_exceeds_r2(self):
        rng = np.random.default_rng(8)
        test = random_dataset(30, seed=9, noise=0.3)
        for _ in range(20):
            p = _Stub(float(rng.uniform(1e5, 1e6))).fit(test)
            report = evaluate(p, test)
            assert report.adj_r2 <= report.r2

    def test_n_override_changes_adjustment_only(self):
        test = random_dataset(30, seed=10, noise=0.3)
        p = _Stub(float(np.mean(test.targets)) * 1.05).fit(test)
        base = evaluate(p, test)
        overridden = evaluate(p, test, n_override=144)
        assert overridden.mape_pct == base.mape_pct
        assert overridden.r2 == base.r2
        assert overridden.adj_r2 > base.adj_r2  # milder penalty at larger n
