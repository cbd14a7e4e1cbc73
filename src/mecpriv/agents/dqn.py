"""Feed-forward Q-learning on the current state with replay and soft targets."""
from __future__ import annotations

import numpy as np

from ..env import Action, EnvParams, State, action_mask, state_id
from ..nn import backward, forward
from .common import (AgentConfig, Learner, dqn_network_spec, encode,
                     epsilon_greedy, loss_gradient, masked_max)
from .replay import TransitionBuffer


def _columns(states) -> np.ndarray:
    """(3, B) array of the d, b and g of a list of states."""
    return np.array([(s.d, s.b, s.g) for s in states], dtype=np.int64).T


class DQNPolicy:
    """Epsilon-greedy policy of a feed-forward net; greedy at eps 0, the
    default, which is how trained nets are evaluated."""

    def __init__(self, spec, params, env: EnvParams):
        self.spec = spec
        self.params = params
        self.env = env
        self.eps = 0.0
        self._rng: np.random.Generator | None = None

    def q_batch(self, states) -> np.ndarray:
        xs = encode(*_columns(states), self.env)[None, :, :]
        out, _, _ = forward(self.spec, self.params, xs, collect_cache=False)
        return out[0]

    def reset(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def act(self, s: State) -> Action:
        a_idx = epsilon_greedy(self.q_batch([s])[0], action_mask(s, self.env),
                               self.eps, self._rng)
        return self.env.action_from_index(a_idx)


def td_targets(batch, q_target: DQNPolicy, gamma: float,
               baseline: float = 0.0, scale: float = 1.0) -> np.ndarray:
    """Bootstrap targets (r - baseline) / scale + gamma * max over valid
    next actions."""
    if not batch:
        raise ValueError("empty batch")
    next_states = [tr.s_next for tr in batch]
    q_next = q_target.q_batch(next_states)
    env = q_target.env
    best = masked_max(q_next, state_id(*_columns(next_states), env), env)
    rewards = np.array([tr.r for tr in batch])
    return (rewards - baseline) / scale + gamma * best


def dqn_update(spec, params, target_params, opt, batch, env: EnvParams,
               cfg: AgentConfig, baseline: float = 0.0, scale: float = 1.0):
    """One gradient step on the mean TD loss; returns (params, loss)."""
    y = td_targets(batch, DQNPolicy(spec, target_params, env), cfg.gamma,
                   baseline, scale)
    actions = np.array([tr.a for tr in batch])
    xs = encode(*_columns([tr.s for tr in batch]), env)[None, :, :]
    out, _, cache = forward(spec, params, xs)
    taken = out[0][np.arange(len(batch)), actions]
    err = taken - y
    dout = np.zeros_like(out)
    dout[0][np.arange(len(batch)), actions] = loss_gradient(err, cfg.loss)
    grads = backward(cache, dout)
    new_params = opt.step(params, grads)
    return new_params, float(np.mean(err * err))


DQN = Learner(network_spec=dqn_network_spec, policy=DQNPolicy,
              replay=lambda env, cfg: TransitionBuffer(cfg.buffer_capacity),
              update=dqn_update)
