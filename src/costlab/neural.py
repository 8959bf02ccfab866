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

_ACTIVATIONS = ("tanh", "relu")
MOMENTUM = 0.9


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizes and training schedule; input width 4, output width 1."""

    hidden: tuple[int, ...]
    activation: str = "tanh"
    epochs: int = 3000
    learning_rate: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if any(h < 1 for h in self.hidden):
            raise ValueError("hidden layer sizes must be >= 1")
        if self.epochs < 0 or not self.learning_rate >= 0:
            raise ValueError("epochs and learning_rate must be >= 0")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (N_FEATURES, *self.hidden, 1)


def mlp_spec(**fields) -> NetworkSpec:
    """The 4-5-1 tanh perceptron preset: NetworkSpec's defaults, one hidden layer of 5."""
    return NetworkSpec(hidden=(5,), **fields)


def dnn_spec(**fields) -> NetworkSpec:
    """The 4-100-100-100-1 ReLU preset, trained 1000 epochs at learning rate 0.01."""
    preset = {"activation": "relu", "epochs": 1000, "learning_rate": 0.01}
    return NetworkSpec(hidden=(100, 100, 100), **{**preset, **fields})


@dataclass
class NetworkWeights:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_weights(layer_sizes: tuple[int, ...], rng: np.random.Generator) -> NetworkWeights:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkWeights(weights, biases)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    """The activation of the fresh pre-activation ``z``, written over it."""
    if activation == "tanh":
        return np.tanh(z, out=z)
    if activation == "relu":
        return np.maximum(0.0, z, out=z)
    raise ValueError(f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}")


def _activate_deriv(a: np.ndarray, activation: str) -> np.ndarray | float:
    """The activation's derivative, from its output ``a``, as a factor of the
    backpropagated delta: ReLU's is the ``a > 0`` mask, which multiplies a float
    to the same bits as the mask cast to 0.0 and 1.0."""
    if activation == "tanh":
        return 1.0 - a * a
    if activation == "relu":
        return a > 0
    raise ValueError(f"unknown activation {activation!r}; expected one of {_ACTIVATIONS}")


def _rowwise_matmul(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``a @ W`` by numpy's own einsum loop, whose bits for each row of ``a`` do
    not depend on the other rows; BLAS (also reached by ``optimize=True``)
    promises no such thing."""
    return np.einsum("ij,jk->ik", a, W)


def _layers(w: NetworkWeights, X: np.ndarray, activation: str, matmul) -> list[np.ndarray]:
    """The activations of every layer, the (n, 4) float input first; the output
    layer is the identity. ``matmul`` contracts one layer."""
    activations = [X]
    last = len(w.weights) - 1
    for i, (W, b) in enumerate(zip(w.weights, w.biases)):
        z = matmul(activations[-1], W)
        z += b
        activations.append(z if i == last else _activate(z, activation))
    return activations


def forward(w: NetworkWeights, X: np.ndarray, activation: str = "tanh") -> np.ndarray:
    """Batch forward pass over an (n, 4) float array; returns the identity-output
    column as a vector.

    Each row's output is the same bits in a batch of any size; it agrees with
    the BLAS training pass of ``gradients`` to rounding."""
    return _layers(w, X, activation, _rowwise_matmul)[-1][:, 0]


def gradients(
    w: NetworkWeights, X: np.ndarray, targets: np.ndarray, activation: str = "tanh",
    out: NetworkWeights | None = None,
) -> tuple[list[np.ndarray], list[np.ndarray], float]:
    """Exact gradients of 0.5 * mean((output - target)^2) over an (n, 4) float
    array and its (n,) targets by backpropagation, written into the arrays of
    ``out`` (shaped as ``w``'s) or into new ones."""
    activations = _layers(w, X, activation, np.matmul)
    err = activations[-1][:, 0] - targets
    loss = 0.5 * float((err * err).sum() / len(err))

    if out is None:
        out = NetworkWeights([np.empty_like(a) for a in w.weights],
                             [np.empty_like(a) for a in w.biases])
    delta = (err / len(err))[:, None]
    for i in reversed(range(len(w.weights))):
        np.matmul(activations[i].T, delta, out=out.weights[i])
        delta.sum(axis=0, out=out.biases[i])
        if i > 0:
            delta = delta @ w.weights[i].T
            delta *= _activate_deriv(activations[i], activation)
    return out.weights, out.biases, loss


def train_network(
    spec: NetworkSpec, X: np.ndarray, targets: np.ndarray
) -> tuple[NetworkWeights, list[float]]:
    """Full-batch momentum descent, one step an epoch over a flat vector (weights
    then biases) that every layer array views; ``gradients`` writes each epoch's
    gradient into views of a vector laid out the same way. Raises on a
    non-finite loss."""
    drawn = init_weights(spec.layer_sizes, np.random.default_rng(spec.seed))
    arrays = [*drawn.weights, *drawn.biases]
    ends = np.cumsum([a.size for a in arrays])

    def views(flat: np.ndarray) -> NetworkWeights:
        layers = [flat[e - a.size : e].reshape(a.shape) for a, e in zip(arrays, ends)]
        return NetworkWeights(layers[: len(drawn.weights)], layers[len(drawn.weights) :])

    theta = np.concatenate(arrays, axis=None)
    grad = np.empty_like(theta)
    w, grads = views(theta), views(grad)
    vel = np.zeros_like(theta)
    losses: list[float] = []
    # divergence shows up as inf/nan in the loss; the finite check below
    # owns that case, so the interim overflow warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.epochs):
            loss = gradients(w, X, targets, spec.activation, grads)[2]
            if not math.isfinite(loss):
                raise NonconvergenceError(f"training loss diverged to {loss!r}")
            losses.append(loss)
            vel *= MOMENTUM
            grad *= spec.learning_rate
            vel -= grad
            theta += vel
    return w, losses


class NeuralPredictor(Predictor):
    """Zoo wrapper handling input and target scaling around the raw network."""

    def __init__(
        self, spec: NetworkSpec, model_kind: str, transform: TargetTransform = TargetTransform.NONE
    ):
        super().__init__(transform)
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
        Xs = (X - self._x_mean) / self._x_scale
        return forward(self.net, Xs, self.spec.activation) * self._t_half + self._t_mid
