"""Self-contained FrozenLake and CartPole environments.

FrozenLake is the deterministic (non-slippery) 4x4 layout::

    S F F F
    F H F H
    F F F H
    H F F G

with actions 0=Left, 1=Down, 2=Right, 3=Up; moves into walls clamp in
place; holes and the goal terminate the episode, only the goal pays
reward 1.

CartPole uses the community-standard constants (gravity 9.8, cart mass
1.0, pole mass 0.1, pole half-length 0.5, force 10.0, Euler dt 0.02) and
terminates when |angle| > 12 degrees, |position| > 2.4, or at 500 steps;
every step pays reward 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

Observation = Union[int, np.ndarray]

FROZEN_LAKE_MAP = ("SFFF", "FHFH", "FFFH", "HFFG")


@dataclass(frozen=True)
class EnvSpec:
    discrete: bool
    observation_size: int  # state count if discrete, vector length otherwise
    action_count: int
    step_cap: int


class FrozenLake:
    """Deterministic 4x4 grid; observation is the flat cell index."""

    spec = EnvSpec(True, 16, 4, 100)
    LEFT, DOWN, RIGHT, UP = 0, 1, 2, 3

    def __init__(self):
        self._cells = "".join(FROZEN_LAKE_MAP)
        self._state = 0
        self._steps = 0
        self._done = True

    def reset(self, rng: np.random.Generator) -> int:
        self._state = 0
        self._steps = 0
        self._done = False
        return self._state

    def step(self, action: int) -> Tuple[int, float, bool]:
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        if not 0 <= action < self.spec.action_count:
            raise ValueError(f"action {action} out of range")
        row, col = divmod(self._state, 4)
        if action == self.LEFT:
            col = max(col - 1, 0)
        elif action == self.DOWN:
            row = min(row + 1, 3)
        elif action == self.RIGHT:
            col = min(col + 1, 3)
        else:
            row = max(row - 1, 0)
        self._state = 4 * row + col
        self._steps += 1
        cell = self._cells[self._state]
        reward = 1.0 if cell == "G" else 0.0
        self._done = cell in "HG" or self._steps >= self.spec.step_cap
        return self._state, reward, self._done


class CartPole:
    """Euler-integrated cart-pole; observation is (x, x_dot, theta, theta_dot)."""

    spec = EnvSpec(False, 4, 2, 500)

    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    HALF_LENGTH = 0.5
    FORCE = 10.0
    DT = 0.02
    ANGLE_LIMIT = 12 * math.pi / 180
    POSITION_LIMIT = 2.4

    def __init__(self):
        self._state = np.zeros(4)
        self._steps = 0
        self._done = True

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        self._state = rng.uniform(-0.05, 0.05, size=4)
        self._steps = 0
        self._done = False
        return self._state.copy()

    def step(self, action: int) -> Tuple[np.ndarray, float, bool]:
        if self._done:
            raise RuntimeError("step() called on a finished episode")
        if action not in (0, 1):
            raise ValueError(f"action {action} out of range")
        x, x_dot, theta, theta_dot = self._state
        force = self.FORCE if action == 1 else -self.FORCE
        total_mass = self.CART_MASS + self.POLE_MASS
        pole_ml = self.POLE_MASS * self.HALF_LENGTH
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        temp = (force + pole_ml * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.POLE_MASS * cos_t ** 2 / total_mass))
        x_acc = temp - pole_ml * theta_acc * cos_t / total_mass
        x += self.DT * x_dot
        x_dot += self.DT * x_acc
        theta += self.DT * theta_dot
        theta_dot += self.DT * theta_acc
        self._state = np.array([x, x_dot, theta, theta_dot])
        self._steps += 1
        fell = abs(theta) > self.ANGLE_LIMIT or abs(x) > self.POSITION_LIMIT
        self._done = fell or self._steps >= self.spec.step_cap
        return self._state.copy(), 1.0, self._done


ENV_KINDS = {"frozenlake": FrozenLake, "cartpole": CartPole}


def make_env(kind: str):
    if kind not in ENV_KINDS:
        raise ValueError(
            f"unknown env kind {kind!r} (choose from {sorted(ENV_KINDS)})")
    return ENV_KINDS[kind]()
