"""Reference policies: myopic cost-greedy and theta-randomized variants."""
from __future__ import annotations

from typing import Protocol

import numpy as np

from .env import EnvParams, mdp


class Policy(Protocol):
    """The episode engine's policy, acting on lanes: state ids and each
    slot's two uniforms in, action ids of their shape out. A tabular
    policy's action depends on those alone, so the engine asks it for all
    slots at once; any other also has reset(lanes), which the engine calls
    before asking it once per slot."""

    tabular: bool

    def act(self, s, coin, pick) -> np.ndarray: ...


class ThetaPrivatePolicy:
    """Cost-greedy policy randomized uniformly with probability theta: where
    the slot's coin falls below theta it plays the valid action that the
    pick selects, the floor(pick * n)-th of the state's n valid ids."""

    tabular = True

    def __init__(self, env: EnvParams, theta: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.theta = theta
        m = mdp(env)
        self._greedy = m.greedy
        # Row s starts with the valid ids of s, ascending.
        self._ranked = np.argsort(~m.valid, axis=1, kind="stable")
        self._n_valid = m.valid.sum(axis=1)

    def act(self, s, coin, pick) -> np.ndarray:
        if self.theta == 0.0:
            return self._greedy[s]
        choice = self._ranked[s, (pick * self._n_valid[s]).astype(np.intp)]
        return np.where(coin < self.theta, choice, self._greedy[s])


class GreedyPolicy(ThetaPrivatePolicy):
    """Deterministic cost-greedy policy."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=0.0)


class UniformPolicy(ThetaPrivatePolicy):
    """Uniform over valid actions every slot."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=1.0)
