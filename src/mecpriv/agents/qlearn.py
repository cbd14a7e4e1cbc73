"""Q-learning with replay and soft targets, feed-forward or recurrent.

A batch is B sequences of T slots, as the replay store's state and action
ids. The update zeroes the hidden state at each sequence start, burns it
in with hidden-only forward passes and puts the TD loss only on the final
truncation bundle of L = min(tbptt_len, T) slots. Hidden values cross the
bundle boundary, gradients do not. The bootstrap side threads the target
net's own hidden state over the next-state sequence. The target net reads
the online net's input one slot later, so the burn-in encodes burn + 1
slots and the loss bundle L + 1, each only while its passes run.
A DQN is the case T = 1 on a net with no GRU layer: no burn-in, and the
loss on every sampled slot.
"""
from __future__ import annotations

import os

import numpy as np

from ..env import EnvParams, mdp
from ..nn import backward, forward, forward_step, init_hidden, network
from .common import AgentConfig, encode, loss_gradient, obs_dim


class QPolicy:
    """The masked epsilon-greedy policy of a Q-net; greedy ties go to the
    lowest action id. act is the greedy pick on lanes; explore, the
    trainer's act, is act on one lane whose pick, with probability eps, is
    overridden by a uniform valid action. A net on the observation
    encoding also reads each lane's previous action, the played one, and
    its hidden state threads across an episode."""

    tabular = False

    def __init__(self, spec, params, env: EnvParams):
        self.spec = spec
        self.params = params
        self._env = env
        self._mdp = mdp(env)
        self._reads_prev = spec.input_dim == obs_dim(env)
        self.reset(1)

    def reset(self, lanes: int) -> None:
        self._h = init_hidden(self.spec, lanes)
        self._prev = np.full(lanes, -1)  # each lane's last action, -1: none

    def _q(self, s: np.ndarray) -> np.ndarray:
        """Step the net on each lane's state id; (lanes, n_actions)."""
        x = encode(s, self._env, self._prev if self._reads_prev else None)
        q, self._h = forward_step(self.spec, self.params, x, self._h)
        return q

    def act(self, s, coin=None, pick=None) -> np.ndarray:
        """Each lane's best valid action; the uniforms go unused."""
        self._prev = self._mdp.masked(self._q(s), s).argmax(axis=1)
        return self._prev

    def explore(self, s: int, eps: float, rng: np.random.Generator) -> int:
        """act on the one lane's state id s, then with probability eps a
        uniform valid action instead, drawn from rng: a uniform, then an
        index into ranked[s]'s valid ids. rng is not touched at eps 0."""
        a = self.act(np.array([s]))[0]  # one row, no twin lane
        if eps > 0.0 and rng.random() < eps:
            m = self._mdp
            a = self._prev[0] = m.ranked[s, rng.integers(0, m.n_valid[s])]
        return int(a)


def _burn_in(spec, params, xs):
    """The net's hidden state after a hidden-only pass over xs."""
    return forward(spec, params, xs, collect_cache=False, outputs=False)[1]


def q_update(spec, params, target_params, opt, batch, env: EnvParams,
             cfg: AgentConfig, baseline: float = 0.0, scale: float = 1.0):
    """One gradient step on the mean TD loss, in place; returns the loss.

    batch is a replay store's (s, prev, acts, rews): (T + 1, B) state ids,
    previous actions of the same shape or None, and (T, B) actions and
    rewards. Rewards enter the TD targets as (r - baseline) / scale.
    A large batch runs the target net's burn-in on a second thread (see
    the module docstring); that thread ends before this returns, and an
    exception it raised is raised here.
    """
    s, prev, acts, rews = batch
    T, B = acts.shape
    L = min(cfg.tbptt_len, T)
    burn = T - L

    def slots(lo, hi):
        return encode(s[lo:hi], env, None if prev is None else prev[lo:hi])

    h_on = h_tg = None
    if burn > 0:
        x = slots(0, burn + 1)
        if (B * 3 * max(spec.gru, default=0) * 8 >= network.PAIR_BYTES
                and len(os.sched_getaffinity(0)) > 1):
            from concurrent.futures import ThreadPoolExecutor  # not at startup
            with ThreadPoolExecutor(1) as pool:  # joined when the block ends
                tg = pool.submit(_burn_in, spec, target_params, x[1:])
                h_on = _burn_in(spec, params, x[:-1])
            h_tg = tg.result()
        else:
            h_on = _burn_in(spec, params, x[:-1])
            h_tg = _burn_in(spec, target_params, x[1:])
        del x  # dropped before the loss bundle's slots are encoded
    x = slots(burn, T + 1)
    # the target's pass first, so that only its maxima outlive it
    best = mdp(env).masked(forward(spec, target_params, x[1:], h_tg,
                                   collect_cache=False)[0],
                           s[burn + 1:]).max(axis=-1)
    q_on, _, cache = forward(spec, params, x[:-1], h_on)
    y = (rews[burn:] - baseline) / scale + cfg.gamma * best
    rows = np.arange(B)
    cols = acts[burn:]
    kk = np.arange(L)[:, None]
    taken = q_on[kk, rows, cols]
    err = taken - y
    dout = np.zeros_like(q_on)
    dout[kk, rows, cols] = loss_gradient(err, cfg.loss)
    opt.step(params, backward(cache, dout))
    return float(np.mean(err * err))
