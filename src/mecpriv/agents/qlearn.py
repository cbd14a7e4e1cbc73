"""Q-learning with replay and soft targets, feed-forward or recurrent.

A batch is B sequences of T slots. The update zeroes the hidden state at
each sequence start, burns it in with forward passes and puts the TD loss
only on the final truncation bundle of L = min(tbptt_len, T) slots. Hidden
values cross the bundle boundary, gradients do not. The bootstrap side
threads the target net's own hidden state over the next-state sequence.
A DQN is the case T = 1 on a net with no GRU layer: no burn-in, and the
loss on every sampled slot.
"""
from __future__ import annotations

import numpy as np

from ..env import EnvParams, mdp
from ..nn import backward, forward, forward_step, gru_kernels, init_hidden
from .common import (AgentConfig, encode, loss_gradient, masked_max,
                     obs_dim)


class QPolicy:
    """Greedy policy of a Q-net, acting on lanes; ties go to the lowest
    action id. A net on the observation encoding also reads each lane's
    previous action, and its hidden state threads across an episode."""

    tabular = False

    def __init__(self, spec, params, env: EnvParams):
        self.spec = spec
        self.params = params
        self._reads_prev = spec.input_dim == obs_dim(env)
        self._valid = mdp(env).valid
        # Every input the net can see, encoded once: by state id, and by
        # the previous action's id + 1 (0 for none) if the net reads it.
        s = np.arange(env.n_states)
        if self._reads_prev:
            s, prev = np.meshgrid(s, np.arange(-1, env.n_actions),
                                  indexing="ij")
            self._x = encode(s, env, prev)
        else:
            self._x = encode(s, env)
        self.reset(1)

    @property
    def params(self):
        """The net's parameters; assigning new ones rebuilds the GRU
        kernels that acting steps with."""
        return self._params

    @params.setter
    def params(self, params) -> None:
        self._params = params
        self._kernels = gru_kernels(self.spec, params)

    def reset(self, lanes: int) -> None:
        self._h = init_hidden(self.spec, lanes)
        self.prev = np.full(lanes, -1)

    def values(self, s: np.ndarray) -> np.ndarray:
        """Step the net on each lane's state id; (lanes, n_actions) Q
        values. prev, each lane's previous action id (-1 at an episode
        start), is set by act, or by a trainer that explores."""
        x = self._x[s, self.prev + 1] if self._reads_prev else self._x[s]
        q, self._h = forward_step(self.spec, self._params, x, self._h,
                                  self._kernels)
        return q

    def act(self, s, coin=None, pick=None) -> np.ndarray:
        """Each lane's best valid action; the uniforms go unused."""
        self.prev = np.where(self._valid[s], self.values(s),
                             -np.inf).argmax(axis=1)
        return self.prev


def q_update(spec, params, target_params, opt, batch, env: EnvParams,
             cfg: AgentConfig, baseline: float = 0.0, scale: float = 1.0):
    """One gradient step on the mean TD loss; returns (params, loss).

    batch is a replay store's (x_on, x_tg, acts, rews, next_ids), with
    (T, B) actions. Rewards enter the TD targets as (r - baseline) / scale.
    """
    x_on, x_tg, acts, rews, next_ids = batch
    T, B = acts.shape
    L = min(cfg.tbptt_len, T)
    burn = T - L
    h_on = h_tg = None
    if burn > 0:
        _, h_on, _ = forward(spec, params, x_on[:burn], collect_cache=False,
                             outputs=False)
        _, h_tg, _ = forward(spec, target_params, x_tg[:burn],
                             collect_cache=False, outputs=False)
    q_on, _, cache = forward(spec, params, x_on[burn:], h_on)
    q_tg, _, _ = forward(spec, target_params, x_tg[burn:], h_tg,
                         collect_cache=False)
    best = masked_max(q_tg, next_ids[burn:], env)
    y = (rews[burn:] - baseline) / scale + cfg.gamma * best
    rows = np.arange(B)
    cols = acts[burn:]
    kk = np.arange(L)[:, None]
    taken = q_on[kk, rows, cols]
    err = taken - y
    dout = np.zeros_like(q_on)
    dout[kk, rows, cols] = loss_gradient(err, cfg.loss)
    grads = backward(cache, dout)
    return opt.step(params, grads), float(np.mean(err * err))
