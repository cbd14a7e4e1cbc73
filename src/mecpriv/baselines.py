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
    pick selects, ranked[s, floor(pick * n_valid[s])] of the MDP."""

    tabular = True

    def __init__(self, env: EnvParams, theta: float):
        if not 0.0 <= theta <= 1.0:
            raise ValueError("theta must be in [0, 1]")
        self.theta = theta
        m = mdp(env)
        self._greedy = m.greedy
        # Entry j * n_states + s is ranked[s, j] for j below n_actions; the
        # greedy id of s for j = n_actions.
        self._table = np.vstack((m.ranked.T, m.greedy)).ravel()
        self._n_valid = m.n_valid

    def act(self, s, coin, pick) -> np.ndarray:
        if self.theta == 0.0:
            return self._greedy[s]
        # One table index per slot, built in place: s may be the engine's
        # whole grid of levels, lanes and slots, the uniforms one per slot.
        n = len(self._greedy)
        rand = coin < self.theta
        j = self._n_valid[s]
        np.multiply(pick, j, out=j, casting="unsafe")  # floor(pick * n_valid)
        j *= rand * n
        j += ~rand * (self._table.size - n)
        j += s
        return self._table[j]


class GreedyPolicy(ThetaPrivatePolicy):
    """Deterministic cost-greedy policy."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=0.0)


class UniformPolicy(ThetaPrivatePolicy):
    """Uniform over valid actions every slot."""

    def __init__(self, env: EnvParams):
        super().__init__(env, theta=1.0)
