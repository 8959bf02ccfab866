"""Epsilon-insensitive support vector regression with an RBF kernel.

The dual is solved in the combined-coefficient form beta_i in [-C, C] with
sum(beta) = 0, maximizing

    W(beta) = -0.5 beta' K beta + y' beta - epsilon * sum|beta|

by repeated exact optimization of maximal-violating pairs (moving beta_i up
and beta_j down by the same amount keeps the sum constraint). Inputs and
targets are standardized internally; epsilon and C are in standardized target
units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Predictor
from .data import Dataset, N_FEATURES

DEFAULT_GAMMA = 1.0 / N_FEATURES
_FREE_TOL = 1e-8


def kernel_matrix(A: np.ndarray, B: np.ndarray, gamma_rbf: float) -> np.ndarray:
    """(n, m) RBF kernel of the rows of A against the rows of B.

    The squared distances are summed feature by feature, elementwise, so each
    entry's bits depend only on its two rows, K(a, a) is exactly 1 and
    K(A, A) is exactly symmetric."""
    sq = np.zeros((len(A), len(B)))
    with np.errstate(over="ignore"):  # an infinite distance gives the kernel's limit, 0
        for f in range(A.shape[1]):
            d = A[:, f, None] - B[None, :, f]
            sq += d * d
    return np.exp(-gamma_rbf * sq)


@dataclass
class SvrModel:
    beta: np.ndarray
    bias: float
    params: SvrParams
    X_std: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    converged: bool
    n_updates: int
    objective_history: list[float]


def _pair_objective_delta(
    delta: float, dF: float, eta: float, beta_i: float, beta_j: float, epsilon: float
) -> float:
    return (
        delta * dF
        - 0.5 * eta * delta * delta
        - epsilon * (abs(beta_i + delta) - abs(beta_i))
        - epsilon * (abs(beta_j - delta) - abs(beta_j))
    )


def _solve_pair(
    beta_i: float,
    beta_j: float,
    dF: float,
    eta: float,
    C: float,
    epsilon: float,
) -> float:
    """Exact maximizer of the pair objective over the feasible delta interval.

    The objective is piecewise concave-quadratic with kinks where either
    coefficient crosses zero, so the maximum is at a segment stationary point,
    a kink, or an interval end; all candidates are evaluated directly.
    """
    lo = max(-C - beta_i, beta_j - C)
    hi = min(C - beta_i, beta_j + C)
    if not lo < hi:
        return 0.0
    kinks = [b for b in (-beta_i, beta_j) if lo < b < hi]
    candidates = [lo, hi, *kinks]
    if eta > 0:
        edges = sorted([lo, *kinks, hi])
        for a, b in zip(edges, edges[1:]):
            mid = 0.5 * (a + b)
            s_i = 1.0 if beta_i + mid >= 0 else -1.0
            s_j = 1.0 if beta_j - mid >= 0 else -1.0
            stationary = (dF - epsilon * (s_i - s_j)) / eta
            if a <= stationary <= b:
                candidates.append(stationary)
    best_delta, best_gain = 0.0, 0.0
    for delta in candidates:
        gain = _pair_objective_delta(delta, dF, eta, beta_i, beta_j, epsilon)
        if gain > best_gain:
            best_delta, best_gain = delta, gain
    return best_delta


@dataclass(frozen=True)
class SvrParams:
    """The trainer's hyperparameters, checked when built.

    ``max_passes`` 0 is allowed, as the degenerate zero-coefficient model (like
    0 epochs for the networks), and so is ``C = inf``, the hard-margin bound.
    """

    C: float = 1.0
    epsilon: float = 0.1
    gamma_rbf: float = DEFAULT_GAMMA
    max_passes: int = 200
    tol: float = 1e-3

    def __post_init__(self):
        C, epsilon, gamma_rbf = self.C, self.epsilon, self.gamma_rbf
        # the negated form also rejects a nan; a C within _FREE_TOL of 0 leaves
        # no coefficient room to move, and so no bias to recover
        if not (C > _FREE_TOL and 0 <= epsilon < math.inf and 0 < gamma_rbf < math.inf):
            raise ValueError(
                f"need C > {_FREE_TOL}, finite epsilon >= 0 and finite gamma_rbf > 0, "
                f"got C={C!r}, epsilon={epsilon!r}, gamma_rbf={gamma_rbf!r}"
            )
        if self.max_passes < 0:
            raise ValueError(f"need max_passes >= 0, got {self.max_passes!r}")


def _dual_objective(beta: np.ndarray, F: np.ndarray, y: np.ndarray, epsilon: float) -> float:
    return float(-0.5 * beta @ F + y @ beta - epsilon * np.sum(np.abs(beta)))


def _offsets(b: float, C: float, epsilon: float) -> tuple[float, float]:
    """What a coefficient at ``b`` adds to its residual for its gradient of a step
    up and of a step down: -inf and +inf where the box bound [-C, C] leaves no
    room to step that way, so the pair selection never picks it."""
    up = -math.inf if b >= C - _FREE_TOL else (-epsilon if b >= 0 else epsilon)
    dn = math.inf if b <= -C + _FREE_TOL else (epsilon if b <= 0 else -epsilon)
    return up, dn


def _recover_bias(
    beta: np.ndarray, F: np.ndarray, y: np.ndarray, C: float, epsilon: float,
    up: np.ndarray, dn: np.ndarray,
) -> float:
    free = (np.abs(beta) > _FREE_TOL) & (np.abs(beta) < C - _FREE_TOL)
    if free.any():
        return float(np.mean(y[free] - F[free] - epsilon * np.sign(beta[free])))
    resid = y - F
    low, high = float((resid + up).max()), float((resid + dn).min())
    if low == -math.inf:  # not both infinite, as C > _FREE_TOL
        return high
    if high == math.inf:
        return low
    return 0.5 * (low + high)


def fit_svr(X: np.ndarray, y: np.ndarray, params: SvrParams = SvrParams()) -> SvrModel:
    """Train by maximal-violating-pair updates.

    A pass is n pair updates; the model is returned flagged unconverged when
    KKT violations still exceed ``tol`` after ``max_passes`` passes.
    """
    C, epsilon = params.C, params.epsilon
    n = y.size
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    Xs = (X - x_mean) / x_scale
    y_mean = float(y.mean())
    y_scale = float(y.std()) or 1.0
    ys = (y - y_mean) / y_scale

    K = kernel_matrix(Xs, Xs, params.gamma_rbf)
    beta = np.zeros(n)
    F = np.zeros(n)
    # each coefficient's gradient for a step up is resid + up, for one down resid + dn
    up, dn = (np.full(n, offset) for offset in _offsets(0.0, C, epsilon))
    converged = False
    n_updates = 0
    history = [_dual_objective(beta, F, ys, epsilon)]
    for _ in range(params.max_passes):
        stalled = False
        for _ in range(n):
            resid = ys - F
            g_up, g_dn = resid + up, resid + dn
            i, j = int(g_up.argmax()), int(g_dn.argmin())
            if g_up[i] == -math.inf or g_dn[j] == math.inf or g_up[i] - g_dn[j] <= params.tol:
                converged = True
                break
            delta = _solve_pair(
                float(beta[i]), float(beta[j]), float(resid[i] - resid[j]),
                float(K[i, i] + K[j, j] - 2.0 * K[i, j]), C, epsilon,
            )
            if delta == 0.0:
                stalled = True
                break
            beta[i] = min(max(beta[i] + delta, -C), C)
            beta[j] = min(max(beta[j] - delta, -C), C)
            up[i], dn[i] = _offsets(beta[i], C, epsilon)
            up[j], dn[j] = _offsets(beta[j], C, epsilon)
            F += delta * (K[i] - K[j])  # rows: K is exactly symmetric
            n_updates += 1
        history.append(_dual_objective(beta, F, ys, epsilon))
        if converged or stalled:
            break

    bias = _recover_bias(beta, F, ys, C, epsilon, up, dn)
    return SvrModel(
        beta=beta,
        bias=bias,
        params=params,
        X_std=Xs,
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
        y_scale=y_scale,
        converged=converged,
        n_updates=n_updates,
        objective_history=history,
    )


def predict_svr(model: SvrModel, X: np.ndarray) -> np.ndarray:
    """(n,) de-standardized kernel expansion at each (n, 4) query row, each
    row's value the same bits in a batch of any size."""
    xs = (X - model.x_mean) / model.x_scale
    K = kernel_matrix(xs, model.X_std, model.params.gamma_rbf)
    # a per-row sum along the contiguous last axis, unlike a BLAS K @ beta
    f = (K * model.beta).sum(axis=1) + model.bias
    return f * model.y_scale + model.y_mean


class SvrPredictor(Predictor):
    """Zoo wrapper for the RBF support vector regressor."""

    model_kind = "svr"

    def __init__(self, **params: float):
        super().__init__()
        self.params = SvrParams(**params)
        self.model: SvrModel | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.model = fit_svr(train.features_matrix, y, self.params)

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        return predict_svr(self.model, X)
