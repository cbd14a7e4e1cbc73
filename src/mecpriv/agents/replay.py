"""Replay storage: single slots for the DQN, whole episodes for the DRQN.

Both stores take the trainer's scored chunks through extend(states,
actions, rewards), where states has one more entry than actions: the
state after the chunk's last action. end_episode() closes an episode.
The DQN's store is a ring of slots. The DRQN's is a ring of fixed-length
episode rows, one of them open for the episode being played.
sample_batch hands out B sequences of T slots, encoded as (x_on, x_tg,
acts, rews, next_ids): the online and target nets' inputs, (T, B) actions
and rewards, and the state ids of the next states. A single-slot store
samples sequences of T = 1.
"""
from __future__ import annotations

import numpy as np

from ..env import EnvParams
from .common import encode


def _batch(s, acts, rews, env: EnvParams, prev=None):
    """Encode (T + 1, B) state ids, and prev actions if given.

    The target net reads the next state, which is the online net's input
    one slot later, so both are views of one (T + 1)-slot encoding.
    """
    x = encode(s, env, prev)
    return x[:-1], x[1:], acts, rews, s[1:]


class TransitionBuffer:
    """Ring buffer of slots with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # the state id, then the next state's, per ring position
        self._states = np.empty((2, capacity), dtype=np.int64)
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def extend(self, states, actions, rewards) -> None:
        """Store a chunk of slots, overwriting the oldest once full."""
        n = len(actions)
        # slots that a later slot of this chunk would overwrite are skipped
        skip = max(0, n - self.capacity)
        i = (self._count + np.arange(skip, n)) % self.capacity
        self._states[0, i] = states[skip:-1]
        self._states[1, i] = states[skip + 1:]
        self._actions[i] = actions[skip:]
        self._rewards[i] = rewards[skip:]
        self._count += n

    def end_episode(self) -> None:
        pass

    def sample_batch(self, cfg, env: EnvParams, rng: np.random.Generator):
        """batch_size one-slot sequences drawn uniformly with replacement,
        or None while fewer slots are stored."""
        n = len(self)
        if n < cfg.batch_size:
            return None
        idx = rng.integers(0, n, size=cfg.batch_size)
        return _batch(self._states[:, idx], self._actions[idx][None],
                      self._rewards[idx][None], env)


class EpisodeBuffer:
    """The last max(1, capacity_steps // episode_len) whole episodes.

    Each episode is one row of preallocated arrays; the rows form a ring
    with one extra row for the open episode, so the oldest kept episode
    stays sampleable until end_episode evicts it.
    """

    def __init__(self, capacity_steps: int, episode_len: int):
        if capacity_steps < 1:
            raise ValueError("capacity must be >= 1")
        rows = max(1, capacity_steps // episode_len) + 1
        self._states = np.empty((rows, episode_len + 1), dtype=np.int64)
        self._actions = np.empty((rows, episode_len), dtype=np.int64)
        self._rewards = np.empty((rows, episode_len))
        self._closed = 0  # episodes ended so far
        self._filled = 0  # slots in the open row

    def extend(self, states, actions, rewards) -> None:
        """Append a chunk of slots to the open episode."""
        row, lo = self._closed % len(self._actions), self._filled
        self._filled += len(actions)
        self._states[row, lo:self._filled + 1] = states
        self._actions[row, lo:self._filled] = actions
        self._rewards[row, lo:self._filled] = rewards

    def end_episode(self) -> None:
        self._closed += 1
        self._filled = 0

    def sample_batch(self, cfg, env: EnvParams, rng: np.random.Generator):
        """batch_size windows of seq_len slots, or None until an episode is
        stored. The observations carry the previous action, none (-1) at
        an episode start."""
        rows, L = self._actions.shape
        kept = min(self._closed, rows - 1)
        if not kept:
            return None
        T = cfg.seq_len
        # scalar draws, the episode and then the start of each window; one
        # size=B draw per array would give other numbers from the stream
        ep, start = np.array([(rng.integers(0, kept),
                               rng.integers(0, L - T + 1))
                              for _ in range(cfg.batch_size)]).T
        row = (self._closed - kept + ep) % rows  # kept episodes oldest first
        cut = lambda a, n: a[row, start + np.arange(n)[:, None]]
        acts = cut(self._actions, T)
        prev = np.vstack([np.where(start > 0,
                                   self._actions[row, start - 1], -1), acts])
        return _batch(cut(self._states, T + 1), acts, cut(self._rewards, T),
                      env, prev)
