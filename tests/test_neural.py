import numpy as np
import pytest

from conftest import make_dataset, random_dataset
from oracles import gradients_out_of_place, train_network_per_array
from costlab.core import TargetTransform
from costlab.errors import NonconvergenceError
from costlab import neural
from costlab.metrics import mape
from costlab.neural import (
    NetworkSpec,
    NetworkWeights,
    NeuralPredictor,
    _activation,
    _layers,
    dnn_spec,
    forward,
    gradients,
    init_weights,
    mlp_spec,
    train_network,
)


def finite_difference(w, X, t, activation, step=1e-5):
    """Central-difference gradients of the same loss, parameter by parameter."""
    def loss():
        out = forward(w, X, activation)
        return 0.5 * float(np.mean((out - t) ** 2))

    fd_w = [np.zeros_like(m) for m in w.weights]
    fd_b = [np.zeros_like(b) for b in w.biases]
    for store, params in ((fd_w, w.weights), (fd_b, w.biases)):
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
                store[layer][idx] = (up - down) / (2 * step)
    return fd_w, fd_b


def assert_close(analytic, numeric, tol=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        assert np.max(np.abs(a - n) / denom) <= tol


def _near_kink(w, X, margin=1e-3):
    """True when any hidden pre-activation sits within ``margin`` of zero."""
    a = X
    for W, b in zip(w.weights[:-1], w.biases[:-1]):
        z = a @ W + b
        if np.min(np.abs(z)) < margin:
            return True
        a = np.maximum(0.0, z)
    return False


class TestForward:
    def test_zero_weights_zero_output(self):
        w = NetworkWeights(
            [np.zeros((4, 5)), np.zeros((5, 1))], [np.zeros(5), np.zeros(1)]
        )
        X = np.random.default_rng(0).normal(0, 1, (6, 4))
        assert np.all(forward(w, X, "tanh") == 0.0)

    def test_relu_piecewise(self):
        # single hidden unit passes its pre-activation through max(0, .)
        w = NetworkWeights(
            [np.array([[1.0], [0.0], [0.0], [0.0]]), np.array([[1.0]])],
            [np.zeros(1), np.zeros(1)],
        )
        assert forward(w, np.array([[-3.0, 0, 0, 0]]), "relu")[0] == 0.0
        assert forward(w, np.array([[3.0, 0, 0, 0]]), "relu")[0] == 3.0

    def test_tanh_small_weights_nearly_linear(self):
        rng = np.random.default_rng(1)
        w = init_weights((4, 5, 1), rng)
        scale = 1e-3
        w.weights = [m * scale for m in w.weights]
        X = rng.normal(0, 1, (10, 4))
        nonlinear = forward(w, X, "tanh")
        linear = ((X @ w.weights[0] + w.biases[0]) @ w.weights[1] + w.biases[1])[:, 0]
        assert np.max(np.abs(nonlinear - linear)) <= 1e-4

    @pytest.mark.parametrize("name", ["ReLU", "sigmoid", "", "identity"])
    def test_an_unknown_activation_raises(self, name):
        # a misspelt name must not silently give a linear network
        rng = np.random.default_rng(2)
        w = init_weights((4, 5, 1), rng)
        X, t = rng.normal(0, 1, (6, 4)), rng.normal(0, 1, 6)
        match = rf"unknown activation '{name}'; expected one of \('tanh', 'relu'\)"
        with pytest.raises(ValueError, match=match):
            forward(w, X, name)
        with pytest.raises(ValueError, match=match):
            gradients(w, X, t, name)
        with pytest.raises(ValueError, match=match):
            _activation(name)
        with pytest.raises(ValueError, match=match):
            NetworkSpec(hidden=(5,), activation=name)

    @pytest.mark.parametrize(
        "layer_sizes, activation",
        [((4, 3, 1), "tanh"), ((4, 5, 1), "tanh"), ((4, 100, 100, 100, 1), "relu")],
    )
    def test_agrees_with_the_training_pass(self, layer_sizes, activation):
        rng = np.random.default_rng(4)
        w = init_weights(layer_sizes, rng)
        w.biases[-1] += 1.0  # keep the outputs away from zero for a relative bound
        X = rng.normal(0, 1, (64, 4))
        training = _layers(w, X, activation, np.matmul)[-1][:, 0]
        np.testing.assert_allclose(forward(w, X, activation), training, rtol=1e-12, atol=0)


class TestGradients:
    def test_zero_error_batch_zero_gradients(self):
        rng = np.random.default_rng(2)
        w = init_weights((4, 3, 1), rng)
        X = rng.normal(0, 1, (5, 4))
        t = _layers(w, X, "tanh", np.matmul)[-1][:, 0]  # the training pass's outputs
        gw, gb, loss = gradients(w, X, t, "tanh")
        assert loss == 0.0
        for g in gw + gb:
            assert np.all(g == 0.0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 5:
            hidden = tuple(int(h) for h in rng.integers(1, 9, size=int(rng.integers(1, 3))))
            w = init_weights((4, *hidden, 1), rng)
            for b in w.biases:
                b += rng.normal(0, 0.3, b.shape)
            X = rng.normal(0, 1, (7, 4))
            t = rng.normal(0, 1, 7)
            if activation == "relu" and _near_kink(w, X):
                continue  # finite differences are invalid at a ReLU kink
            gw, gb, _ = gradients(w, X, t, activation)
            fd_w, fd_b = finite_difference(w, X, t, activation)
            assert_close(gw, fd_w)
            assert_close(gb, fd_b)
            checked += 1

    @staticmethod
    def _assert_bits_equal(got, want):
        gw, gb, loss = got
        ow, ob, oracle_loss = want
        assert loss.hex() == oracle_loss.hex()
        assert len(gw) == len(ow) and len(gb) == len(ob)
        for g, o in zip(gw + gb, ow + ob):
            assert g.shape == o.shape and g.tobytes() == o.tobytes()

    @pytest.mark.parametrize(
        "layer_sizes, activation",
        [((4, 5, 1), "tanh"), ((4, 100, 100, 100, 1), "relu")],
    )
    def test_the_presets_match_the_out_of_place_pass_bit_for_bit(self, layer_sizes, activation):
        rng = np.random.default_rng(8)
        w = init_weights(layer_sizes, rng)
        X, t = rng.normal(0, 1, (111, 4)), rng.uniform(-1, 1, 111)
        want = gradients_out_of_place(w, X, t, activation)
        self._assert_bits_equal(gradients(w, X, t, activation), want)
        # into caller-given arrays, which hold garbage beforehand
        out = NetworkWeights([np.full_like(W, np.nan) for W in w.weights],
                             [np.full_like(b, 7.0) for b in w.biases])
        got = gradients(w, X, t, activation, out)
        assert got[0] is out.weights and got[1] is out.biases
        self._assert_bits_equal(got, want)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_random_nets_match_the_out_of_place_pass_bit_for_bit(self, activation):
        rng = np.random.default_rng(9)
        for _ in range(10):
            hidden = tuple(int(h) for h in rng.integers(1, 40, size=int(rng.integers(0, 4))))
            w = init_weights((4, *hidden, 1), rng)
            for b in w.biases:
                b += rng.normal(0, 0.5, b.shape)
            n = int(rng.integers(1, 60))
            X, t = rng.normal(0, 2, (n, 4)), rng.normal(0, 1, n)
            want = gradients_out_of_place(w, X, t, activation)
            self._assert_bits_equal(gradients(w, X, t, activation), want)
            out = NetworkWeights([np.empty_like(W) for W in w.weights],
                                 [np.empty_like(b) for b in w.biases])
            self._assert_bits_equal(gradients(w, X, t, activation, out), want)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_forward_and_gradients_leave_their_inputs_unmodified(self, activation):
        rng = np.random.default_rng(10)
        w = init_weights((4, 6, 5, 1), rng)
        X, t = rng.normal(0, 1, (12, 4)), rng.normal(0, 1, 12)
        before = [a.copy() for a in (X, t, *w.weights, *w.biases)]
        forward(w, X, activation)
        gradients(w, X, t, activation)
        gradients(w, X, t, activation, NetworkWeights([np.empty_like(W) for W in w.weights],
                                                      [np.empty_like(b) for b in w.biases]))
        for a, b in zip((X, t, *w.weights, *w.biases), before):
            assert a.tobytes() == b.tobytes()

    def test_linear_network_matches_closed_form(self):
        rng = np.random.default_rng(4)
        w = init_weights((4, 1), rng)  # single affine layer
        X = rng.normal(0, 1, (20, 4))
        t = rng.normal(0, 1, 20)
        gw, gb, _ = gradients(w, X, t, "tanh")  # no hidden layer: the activation is unused
        err = X @ w.weights[0][:, 0] + w.biases[0][0] - t
        assert np.allclose(gw[0][:, 0], X.T @ err / 20, rtol=1e-12)
        assert gb[0][0] == pytest.approx(float(np.mean(err)), rel=1e-12)


class TestTrainNetwork:
    def test_zero_epochs_keeps_init(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 1, (10, 4))
        t = rng.normal(0, 1, 10)
        spec = NetworkSpec(hidden=(5,), epochs=0, seed=9)
        w, losses = train_network(spec, X, t)
        expected = init_weights((4, 5, 1), np.random.default_rng(9))
        for a, b in zip(w.weights, expected.weights):
            assert np.array_equal(a, b)
        assert losses == []

    @pytest.mark.parametrize(
        "spec",
        [
            NetworkSpec(hidden=(5,), epochs=60, seed=1),
            NetworkSpec(hidden=(8, 6), activation="relu", epochs=40, learning_rate=0.01, seed=3),
            NetworkSpec(hidden=(20,) * 3, activation="relu", epochs=15, learning_rate=0.01, seed=4),
        ],
    )
    def test_the_flat_step_equals_a_step_per_array(self, spec):
        rng = np.random.default_rng(11)
        X, t = rng.normal(0, 1, (30, 4)), rng.normal(0, 1, 30)
        w, losses = train_network(spec, X, t)
        expected_w, expected_losses = train_network_per_array(spec, X, t)
        assert losses == expected_losses
        for got, want in zip(w.weights + w.biases, expected_w.weights + expected_w.biases):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("epochs", [0, 1, 7])
    def test_one_gradients_call_per_epoch(self, monkeypatch, epochs):
        # the benchmark's tracer counts epochs through the ``gradients`` boundary
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return gradients(*args, **kwargs)

        monkeypatch.setattr(neural, "gradients", counted)
        rng = np.random.default_rng(7)
        spec = NetworkSpec(hidden=(5,), epochs=epochs, seed=3)
        _, losses = train_network(spec, rng.normal(0, 1, (10, 4)), rng.normal(0, 1, 10))
        assert len(calls) == len(losses) == epochs

    def test_divergence_raises(self):
        rng = np.random.default_rng(6)
        X = rng.normal(0, 1, (10, 4)) * 100
        t = rng.normal(0, 1, 10) * 100
        spec = NetworkSpec(hidden=(8,), activation="relu", epochs=500, learning_rate=50.0)
        with pytest.raises(NonconvergenceError):
            train_network(spec, X, t)


class TestNeuralPredictor:
    def test_linear_data_training_mape_recorded_run(self):
        # reference run: seed 0, lr 0.05, 5000 epochs reaches ~0.4% on
        # noise-free linear data; threshold pinned at 5%
        train = random_dataset(60, seed=20)
        p = NeuralPredictor(mlp_spec(epochs=5000, learning_rate=0.05, seed=0), "mlp")
        p.fit(train)
        preds = [p.predict(rec.features) for rec in train]
        assert mape(train.targets, preds) <= 5.0

    def test_loss_trend_downward(self):
        train = random_dataset(60, seed=21, noise=0.05)
        p = NeuralPredictor(mlp_spec(epochs=1200, learning_rate=0.05, seed=1), "mlp")
        p.fit(train)
        losses = p.losses
        for k in range(0, len(losses) - 200, 200):
            assert losses[k + 200] <= losses[k] + 1e-12

    def test_epoch_zero_predictions_finite_and_deterministic(self):
        train = random_dataset(20, seed=22)
        a = NeuralPredictor(mlp_spec(epochs=0, seed=3), "mlp").fit(train)
        b = NeuralPredictor(mlp_spec(epochs=0, seed=3), "mlp").fit(train)
        for rec in train[:5]:
            va, vb = a.predict(rec.features), b.predict(rec.features)
            assert np.isfinite(va) and va == vb

    def test_standardization_invariant_to_affine_input_rescaling(self):
        # scaling a raw feature consistently at train and predict time must
        # not change predictions (z-scores are unchanged)
        rng = np.random.default_rng(23)
        X = np.column_stack([
            rng.uniform(20, 300, 30),
            rng.uniform(200, 3000, 30),
            rng.uniform(5, 60, 30),
            rng.uniform(2010, 2015, 30),
        ])
        y = 1000.0 + 2.0 * X[:, 0] + 0.3 * X[:, 1]
        scaled = X.copy()
        scaled[:, 0] = X[:, 0] * 10.0
        spec = mlp_spec(epochs=300, learning_rate=0.05, seed=4)
        a = NeuralPredictor(spec, "mlp").fit(make_dataset(X, y))
        b = NeuralPredictor(spec, "mlp").fit(make_dataset(scaled, y))
        from costlab.data import FeatureVector

        for i in range(5):
            qa = FeatureVector(*X[i])
            qb = FeatureVector(X[i, 0] * 10.0, X[i, 1], X[i, 2], X[i, 3])
            assert a.predict(qa) == pytest.approx(b.predict(qb), rel=1e-9)

    def test_target_transforms_accepted(self):
        train = random_dataset(25, seed=24, noise=0.05)
        for transform in (TargetTransform.SQRT, TargetTransform.NATURAL_LOG):
            p = NeuralPredictor(mlp_spec(epochs=300, seed=5), "mlp", transform).fit(train)
            assert np.isfinite(p.predict(train[0].features))

    def test_dnn_preset_shape(self):
        spec = dnn_spec(epochs=10, seed=6)
        assert spec.layer_sizes == (4, 100, 100, 100, 1)
        assert spec.activation == "relu"
        train = random_dataset(15, seed=25, noise=0.05)
        p = NeuralPredictor(spec, "dnn").fit(train)
        assert np.isfinite(p.predict(train[0].features))

    def test_mlp_preset_shape(self):
        spec = mlp_spec()
        assert spec.layer_sizes == (4, 5, 1)
        assert spec.activation == "tanh"
