"""Feed-forward networks trained by full-batch gradient descent with momentum.

Two presets: a 4-5-1 tanh perceptron (optionally fit on sqrt- or
log-transformed cost) and a 4-100-100-100-1 ReLU network. Inputs are z-scored
with training statistics; the (possibly transformed) target is min-max scaled
to [-1, 1] for output stability and both scalings are inverted at prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Predictor, TargetTransform
from .data import Dataset, N_FEATURES
from .errors import NonconvergenceError

_ACTIVATIONS = ("tanh", "relu", "identity")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizes and training schedule; input width 4, output width 1."""

    hidden: tuple[int, ...]
    activation: str = "tanh"
    target_transform: TargetTransform = TargetTransform.NONE
    epochs: int = 3000
    learning_rate: float = 0.05
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")
        if self.epochs < 0 or self.learning_rate < 0:
            raise ValueError("epochs and learning_rate must be >= 0")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (N_FEATURES, *self.hidden, 1)


def mlp_spec(
    target_transform: TargetTransform = TargetTransform.NONE,
    epochs: int = 3000,
    learning_rate: float = 0.05,
    seed: int = 0,
) -> NetworkSpec:
    """The 4-5-1 tanh perceptron preset."""
    return NetworkSpec(
        hidden=(5,),
        activation="tanh",
        target_transform=target_transform,
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
    )


def dnn_spec(epochs: int = 1000, learning_rate: float = 0.01, seed: int = 0) -> NetworkSpec:
    """The 4-100-100-100-1 ReLU preset."""
    return NetworkSpec(
        hidden=(100, 100, 100),
        activation="relu",
        epochs=epochs,
        learning_rate=learning_rate,
        seed=seed,
    )


@dataclass
class NetworkWeights:
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "NetworkWeights":
        return NetworkWeights([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_weights(layer_sizes: tuple[int, ...], rng: np.random.Generator) -> NetworkWeights:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkWeights(weights, biases)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(z)
    if activation == "relu":
        return np.maximum(0.0, z)
    return z


def _activate_deriv(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        t = np.tanh(z)
        return 1.0 - t * t
    if activation == "relu":
        return (z > 0).astype(float)
    return np.ones_like(z)


def forward(w: NetworkWeights, X: np.ndarray, activation: str = "tanh") -> np.ndarray:
    """Batch forward pass; returns the identity-output column as a vector."""
    a = np.atleast_2d(np.asarray(X, dtype=float))
    last = len(w.weights) - 1
    for i, (W, b) in enumerate(zip(w.weights, w.biases)):
        z = a @ W + b
        a = z if i == last else _activate(z, activation)
    return a[:, 0]


def gradients(
    w: NetworkWeights, X: np.ndarray, targets: np.ndarray, activation: str = "tanh"
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Exact gradients of 0.5 * mean((output - target)^2) by backpropagation."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    targets = np.asarray(targets, dtype=float)
    n = X.shape[0]
    last = len(w.weights) - 1

    pre: list[np.ndarray] = []
    activations = [X]
    a = X
    for i, (W, b) in enumerate(zip(w.weights, w.biases)):
        z = a @ W + b
        pre.append(z)
        a = z if i == last else _activate(z, activation)
        activations.append(a)

    err = activations[-1][:, 0] - targets
    loss = 0.5 * float(np.mean(err * err))

    grads_w = [np.zeros_like(W) for W in w.weights]
    grads_b = [np.zeros_like(b) for b in w.biases]
    delta = (err / n)[:, None]
    for i in range(last, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ w.weights[i].T) * _activate_deriv(pre[i - 1], activation)
    return grads_w, grads_b, loss


def train_network(
    spec: NetworkSpec, X: np.ndarray, targets: np.ndarray
) -> tuple[NetworkWeights, list[float]]:
    """Full-batch momentum descent; raises on a non-finite loss."""
    rng = np.random.default_rng(spec.seed)
    w = init_weights(spec.layer_sizes, rng)
    vel_w = [np.zeros_like(m) for m in w.weights]
    vel_b = [np.zeros_like(b) for b in w.biases]
    losses: list[float] = []
    for _ in range(spec.epochs):
        # divergence shows up as inf/nan in the loss; the finite check below
        # owns that case, so the interim overflow warnings are noise
        with np.errstate(over="ignore", invalid="ignore"):
            grads_w, grads_b, loss = gradients(w, X, targets, spec.activation)
        if not math.isfinite(loss):
            raise NonconvergenceError(f"training loss diverged to {loss!r}")
        losses.append(loss)
        for i in range(len(w.weights)):
            vel_w[i] = spec.momentum * vel_w[i] - spec.learning_rate * grads_w[i]
            vel_b[i] = spec.momentum * vel_b[i] - spec.learning_rate * grads_b[i]
            w.weights[i] = w.weights[i] + vel_w[i]
            w.biases[i] = w.biases[i] + vel_b[i]
    return w, losses


class NeuralPredictor(Predictor):
    """Zoo wrapper handling input and target scaling around the raw network."""

    def __init__(self, spec: NetworkSpec, model_kind: str = "mlp"):
        super().__init__(target_transform=spec.target_transform)
        self.spec = spec
        self.model_kind = model_kind
        self.net: NetworkWeights | None = None
        self.losses: list[float] = []
        self._x_mean: np.ndarray | None = None
        self._x_scale: np.ndarray | None = None
        self._t_mid = 0.0
        self._t_half = 1.0

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        X = train.features_matrix
        self._x_mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self._x_scale = scale
        lo, hi = float(y.min()), float(y.max())
        self._t_mid = 0.5 * (lo + hi)
        self._t_half = 0.5 * (hi - lo) if hi > lo else 1.0
        Xs = (X - self._x_mean) / self._x_scale
        t = (y - self._t_mid) / self._t_half
        self.net, self.losses = train_network(self.spec, Xs, t)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        # one forward pass per row: a batched pass differs in the last bits
        Xs = (X - self._x_mean) / self._x_scale
        out = np.array([forward(self.net, xs[None, :], self.spec.activation)[0] for xs in Xs])
        return out * self._t_half + self._t_mid
