"""Classical optimizers and losses for training circuit parameters.

``Sgd`` and ``Adam`` share one interface over plain numpy vectors:
``step(params, grads)`` returns the new parameters, and ``Adam`` carries
its moment estimates from one step to the next.  Losses are pure
functions of a batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class Loss:
    """MSE, MAE, or Huber with quadratic/linear crossover at ``delta``."""

    kind: str  # "mse" | "mae" | "huber"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("mse", "mae", "huber"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.kind == "huber" and self.delta <= 0:
            raise ValueError("huber_delta must be > 0")


MSE = Loss("mse")
MAE = Loss("mae")


def loss_and_grad(loss: Loss, pred: np.ndarray,
                  target: np.ndarray) -> Tuple[float, np.ndarray]:
    """Mean loss over the batch and its gradient w.r.t. ``pred``.

    MAE subgradient at a tie is 0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(
            f"pred shape {pred.shape} != target shape {target.shape}")
    if pred.size == 0:
        raise ValueError("loss over an empty batch is undefined")
    r = pred - target
    n = r.size
    if loss.kind == "mse":
        return float(np.mean(r ** 2)), 2.0 * r / n
    if loss.kind == "mae":
        return float(np.mean(np.abs(r))), np.sign(r) / n
    d = loss.delta
    quad = np.abs(r) <= d
    values = np.where(quad, 0.5 * r ** 2, d * (np.abs(r) - 0.5 * d))
    grad = np.where(quad, r, d * np.sign(r)) / n
    return float(np.mean(values)), grad


def _check_pair(params, grads) -> Tuple[np.ndarray, np.ndarray]:
    """Both as float64 vectors, which must share one shape."""
    params = np.asarray(params, dtype=np.float64)
    grads = np.asarray(grads, dtype=np.float64)
    if params.shape != grads.shape:
        raise ValueError(
            f"params shape {params.shape} != grads shape {grads.shape}")
    return params, grads


class Sgd:
    """Plain gradient descent: params - lr * grads."""

    def __init__(self, lr: float):
        if not lr > 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.lr = lr

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params, grads = _check_pair(params, grads)
        return params - self.lr * grads


class Adam:
    """Bias-corrected Adam carrying its moment estimates ``m`` and ``v``
    (zeros at the first step) and its step count ``t``."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, lr: float = 0.01):
        if not lr > 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.lr = lr
        self.m = self.v = None
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        params, grads = _check_pair(params, grads)
        if self.m is None:
            self.m, self.v = np.zeros(params.size), np.zeros(params.size)
        if self.m.shape != params.shape:
            raise ValueError("optimizer state does not match parameter length")
        self.t += 1
        self.m = self.BETA1 * self.m + (1 - self.BETA1) * grads
        self.v = self.BETA2 * self.v + (1 - self.BETA2) * grads ** 2
        m_hat = self.m / (1 - self.BETA1 ** self.t)
        v_hat = self.v / (1 - self.BETA2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.EPS)


def make_optimizer(kind: str, lr: float):
    if kind == "adam":
        return Adam(lr)
    if kind == "sgd":
        return Sgd(lr)
    raise ValueError(f"unknown optimizer {kind!r}")
