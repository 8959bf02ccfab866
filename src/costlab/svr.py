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
from .errors import EmptyTrainError

DEFAULT_GAMMA = 1.0 / N_FEATURES
_FREE_TOL = 1e-8


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma_rbf: float) -> float:
    """exp(-gamma * squared distance); 1 at zero distance."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return math.exp(-gamma_rbf * float(diff @ diff))


def kernel_matrix(A: np.ndarray, B: np.ndarray, gamma_rbf: float) -> np.ndarray:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.exp(-gamma_rbf * np.maximum(sq, 0.0))


@dataclass
class SvrModel:
    beta: np.ndarray
    bias: float
    gamma_rbf: float
    C: float
    epsilon: float
    X_std: np.ndarray
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    converged: bool
    n_updates: int
    objective_history: list[float]

    @property
    def support_mask(self) -> np.ndarray:
        return np.abs(self.beta) > _FREE_TOL


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


def _check_hyperparameters(C: float, epsilon: float, gamma_rbf: float) -> None:
    if C <= 0 or epsilon < 0 or gamma_rbf <= 0:
        raise ValueError(
            f"need C > 0, epsilon >= 0 and gamma_rbf > 0, "
            f"got C={C!r}, epsilon={epsilon!r}, gamma_rbf={gamma_rbf!r}"
        )


def _dual_objective(beta: np.ndarray, F: np.ndarray, y: np.ndarray, epsilon: float) -> float:
    return float(-0.5 * beta @ F + y @ beta - epsilon * np.sum(np.abs(beta)))


def _recover_bias(
    beta: np.ndarray, F: np.ndarray, y: np.ndarray, C: float, epsilon: float
) -> float:
    free = (np.abs(beta) > _FREE_TOL) & (np.abs(beta) < C - _FREE_TOL)
    if free.any():
        return float(np.mean(y[free] - F[free] - epsilon * np.sign(beta[free])))
    resid = y - F
    g_up = np.where(beta >= 0, resid - epsilon, resid + epsilon)
    g_dn = np.where(beta <= 0, resid + epsilon, resid - epsilon)
    can_up = beta < C - _FREE_TOL
    can_dn = beta > -C + _FREE_TOL
    low = float(g_up[can_up].max()) if can_up.any() else None
    high = float(g_dn[can_dn].min()) if can_dn.any() else None
    if low is None:
        return high
    if high is None:
        return low
    return 0.5 * (low + high)


def fit_svr(
    X: np.ndarray,
    y: np.ndarray,
    C: float = 1.0,
    epsilon: float = 0.1,
    gamma_rbf: float = DEFAULT_GAMMA,
    max_passes: int = 200,
    tol: float = 1e-3,
) -> SvrModel:
    """Train by maximal-violating-pair updates.

    A pass is n pair updates; the model is returned flagged unconverged when
    KKT violations still exceed ``tol`` after ``max_passes`` passes.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise EmptyTrainError("SVR needs a nonempty training set")
    _check_hyperparameters(C, epsilon, gamma_rbf)
    n = y.size
    x_mean = X.mean(axis=0)
    x_scale = X.std(axis=0)
    x_scale[x_scale == 0.0] = 1.0
    Xs = (X - x_mean) / x_scale
    y_mean = float(y.mean())
    y_scale = float(y.std()) or 1.0
    ys = (y - y_mean) / y_scale

    K = kernel_matrix(Xs, Xs, gamma_rbf)
    beta = np.zeros(n)
    F = np.zeros(n)
    converged = False
    n_updates = 0
    history = [_dual_objective(beta, F, ys, epsilon)]
    for _ in range(max_passes):
        stalled = False
        for _ in range(n):
            resid = ys - F
            g_up = np.where(beta >= 0, resid - epsilon, resid + epsilon)
            g_dn = np.where(beta <= 0, resid + epsilon, resid - epsilon)
            can_up = beta < C - _FREE_TOL
            can_dn = beta > -C + _FREE_TOL
            if not can_up.any() or not can_dn.any():
                converged = True
                break
            i = int(np.where(can_up, g_up, -np.inf).argmax())
            j = int(np.where(can_dn, g_dn, np.inf).argmin())
            if g_up[i] - g_dn[j] <= tol:
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
            F = F + delta * (K[:, i] - K[:, j])
            n_updates += 1
        history.append(_dual_objective(beta, F, ys, epsilon))
        if converged or stalled:
            break

    bias = _recover_bias(beta, F, ys, C, epsilon)
    return SvrModel(
        beta=beta,
        bias=bias,
        gamma_rbf=gamma_rbf,
        C=C,
        epsilon=epsilon,
        X_std=Xs,
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
        y_scale=y_scale,
        converged=converged,
        n_updates=n_updates,
        objective_history=history,
    )


def predict_svr(model: SvrModel, x: np.ndarray) -> float:
    """De-standardized kernel expansion at one query point."""
    xs = (np.asarray(x, dtype=float) - model.x_mean) / model.x_scale
    k = kernel_matrix(model.X_std, xs[None, :], model.gamma_rbf)[:, 0]
    f = float(model.beta @ k) + model.bias
    return f * model.y_scale + model.y_mean


class SvrPredictor(Predictor):
    """Zoo wrapper for the RBF support vector regressor."""

    model_kind = "svr"

    def __init__(
        self,
        C: float = 1.0,
        epsilon: float = 0.1,
        gamma_rbf: float = DEFAULT_GAMMA,
        max_passes: int = 200,
        tol: float = 1e-3,
    ):
        super().__init__()
        _check_hyperparameters(C, epsilon, gamma_rbf)
        self.C = C
        self.epsilon = epsilon
        self.gamma_rbf = gamma_rbf
        self.max_passes = max_passes
        self.tol = tol
        self.model: SvrModel | None = None

    def _fit(self, train: Dataset, y: np.ndarray) -> None:
        self.model = fit_svr(
            train.features_matrix,
            y,
            C=self.C,
            epsilon=self.epsilon,
            gamma_rbf=self.gamma_rbf,
            max_passes=self.max_passes,
            tol=self.tol,
        )

    def _predict_batch(self, X: np.ndarray) -> np.ndarray:
        # one kernel row per query: a batched kernel matrix differs in the last bits
        return np.array([predict_svr(self.model, x) for x in X])
