"""Reference policies: myopic cost-greedy and theta-randomized variants."""
from __future__ import annotations

from typing import Protocol

import numpy as np

from .env import EnvParams, mdp


class Policy(Protocol):
    """The episode runner's policy interface: state id in, action id out."""

    def reset(self, rng: np.random.Generator) -> None: ...

    def act(self, s: int) -> int: ...


class ThetaPrivatePolicy:
    """Cost-greedy policy randomized uniformly with probability theta; at
    theta 0 it draws no random number."""

    def __init__(self, env: EnvParams, theta: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.env = env
        self.theta = theta
        m = mdp(env)
        self._greedy = m.greedy
        self._valid_ids = m.valid_ids
        self._rng: np.random.Generator | None = None

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, s: int) -> int:
        if self.theta > 0.0 and self._rng.random() < self.theta:
            options = self._valid_ids[s]
            return int(options[self._rng.integers(0, len(options))])
        return int(self._greedy[s])


class GreedyPolicy(ThetaPrivatePolicy):
    """Deterministic cost-greedy policy."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=0.0)


class UniformPolicy(ThetaPrivatePolicy):
    """Uniform over valid actions every slot."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=1.0)
