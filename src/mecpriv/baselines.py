"""Reference policies: myopic cost-greedy and theta-randomized variants."""
from __future__ import annotations

from typing import Protocol

import numpy as np

from .env import Action, EnvParams, State, cost, valid_actions


class Policy(Protocol):
    """Minimal policy interface used by the episode runner."""

    def reset(self, rng: np.random.Generator) -> None: ...

    def act(self, s: State) -> Action: ...


def greedy_cost_action(s: State, p: EnvParams) -> Action:
    """Action minimizing the one-slot cost; ties go to the first in (q, t) order."""
    best = None
    best_cost = np.inf
    for a in valid_actions(s, p):
        c = cost(s, a, p)
        if c < best_cost:
            best, best_cost = a, c
    return best


class GreedyPolicy:
    """Deterministic cost-greedy policy with a precomputed state table."""

    def __init__(self, env: EnvParams):
        self.env = env
        self._table = {s: greedy_cost_action(s, env) for s in env.all_states()}

    def reset(self, rng: np.random.Generator) -> None:
        pass

    def act(self, s: State) -> Action:
        return self._table[s]


class ThetaPrivatePolicy:
    """Cost-greedy policy randomized uniformly with probability theta."""

    def __init__(self, env: EnvParams, theta: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.env = env
        self.theta = theta
        self._greedy = {s: greedy_cost_action(s, env) for s in env.all_states()}
        self._valid = {s: valid_actions(s, env) for s in env.all_states()}
        self._rng: np.random.Generator | None = None

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, s: State) -> Action:
        if self._rng.random() < self.theta:
            options = self._valid[s]
            return options[self._rng.integers(0, len(options))]
        return self._greedy[s]


class UniformPolicy(ThetaPrivatePolicy):
    """Uniform over valid actions every slot."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=1.0)
