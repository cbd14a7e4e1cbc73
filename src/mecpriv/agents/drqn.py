"""Recurrent Q-learning on observation sequences with truncated backprop.

Episodes are stored whole; training samples contiguous windows, zeroes the
hidden state at the window start, burns it in with forward passes and puts
the TD loss only on the final truncation bundle. Hidden values cross the
bundle boundary, gradients do not. The bootstrap side threads the target
network's own hidden state over the next-observation sequence.
"""
from __future__ import annotations

import numpy as np

from ..env import Action, EnvParams, State, action_mask, state_id
from ..nn import backward, forward, forward_step, init_hidden
from .common import (AgentConfig, Learner, drqn_network_spec, encode,
                     epsilon_greedy, loss_gradient, masked_max)
from .replay import EpisodeBuffer


def _window_batch(windows, T: int, env: EnvParams):
    """Encode sampled windows into online/target input sequences.

    The target net reads the next observation, which is the online net's
    input one step later, so both are views of one (T + 1)-step encoding.
    """
    sl = lambda arr, w, n: arr[w:w + n]
    d = np.stack([sl(ep.d, w, T + 1) for ep, w in windows], axis=1)
    b = np.stack([sl(ep.b, w, T + 1) for ep, w in windows], axis=1)
    g = np.stack([sl(ep.g, w, T + 1) for ep, w in windows], axis=1)
    acts = np.stack([sl(ep.actions, w, T) for ep, w in windows], axis=1)
    rews = np.stack([sl(ep.rewards, w, T) for ep, w in windows], axis=1)
    prev = np.vstack([
        [(ep.actions[w - 1] if w > 0 else -1) for ep, w in windows],
        acts])
    x = encode(d, b, g, env, prev)
    next_ids = state_id(d[1:], b[1:], g[1:], env)
    return x[:-1], x[1:], acts, rews, next_ids


def drqn_update(spec, params, target_params, opt, windows, env: EnvParams,
                cfg: AgentConfig, baseline: float = 0.0, scale: float = 1.0):
    """One truncated-BPTT gradient step; returns (params, loss).

    Rewards enter the TD targets as (r - baseline) / scale.
    """
    T, L = cfg.seq_len, cfg.tbptt_len
    burn = T - L
    x_on, x_tg, acts, rews, next_ids = _window_batch(windows, T, env)
    B = len(windows)
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


def _episode_replay(env: EnvParams, cfg: AgentConfig) -> EpisodeBuffer:
    if cfg.seq_len > env.episode_len:
        raise ValueError("seq_len cannot exceed episode_len")
    return EpisodeBuffer(cfg.buffer_capacity)


class DRQNPolicy:
    """Epsilon-greedy recurrent policy; greedy at eps 0, the default. The
    hidden state and the previous action thread across an episode."""

    def __init__(self, spec, params, env: EnvParams):
        self.spec = spec
        self.params = params
        self.env = env
        self.eps = 0.0
        self.reset(None)

    def reset(self, rng: np.random.Generator | None) -> None:
        self._rng = rng
        self._h = init_hidden(self.spec, 1)
        self._prev = -1

    def act(self, s: State) -> Action:
        x = encode(s.d, s.b, s.g, self.env, self._prev)[None, :]
        q, self._h = forward_step(self.spec, self.params, x, self._h)
        self._prev = epsilon_greedy(q[0], action_mask(s, self.env), self.eps,
                                    self._rng)
        return self.env.action_from_index(self._prev)


DRQN = Learner(network_spec=drqn_network_spec, policy=DRQNPolicy,
               replay=_episode_replay,
               # Looked up at each call, so that a rebinding of drqn_update
               # (bench/probes.py wraps it) reaches the trainer too.
               update=lambda *args: drqn_update(*args))
