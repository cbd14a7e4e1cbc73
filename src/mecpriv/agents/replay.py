"""Replay storage: single slots for the DQN, whole episodes for the DRQN.

Both stores take the trainer's scored chunks through extend(states,
actions, rewards), where states has one more entry than actions: the
state after the chunk's last action. end_episode() closes an episode.
Both keep one ring of slots, each slot's state, next state, action and
reward at one ring position. The DRQN's ring holds whole episodes, each
at a fixed run of positions, with room for one more: the episode being
played. sample_batch hands out B sequences of T slots as ids, (s, prev,
acts, rews): the (T + 1, B) state ids, each sequence's T states and then
the state after its last action; the (T + 1, B) previous actions that a
recurrent net's observation reads, or None; and the (T, B) actions and
rewards. The learner encodes them. The DQN's store samples sequences of
T = 1 with no previous actions.
"""
from __future__ import annotations

import numpy as np


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

    def _batch(self, idx, prev=None):
        """The batch of the (T, B) ring positions idx, each column a run
        of consecutive slots; each next state is the state one slot later,
        so the states take T + 1 rows."""
        s = np.vstack((self._states[0, idx], self._states[1, idx[-1:]]))
        return s, prev, self._actions[idx], self._rewards[idx]

    def sample_batch(self, cfg, rng: np.random.Generator):
        """batch_size one-slot sequences drawn uniformly with replacement,
        or None while fewer slots are stored."""
        n = len(self)
        if n < cfg.batch_size:
            return None
        return self._batch(rng.integers(0, n, size=(1, cfg.batch_size)))


class EpisodeBuffer(TransitionBuffer):
    """The last E = max(1, capacity_steps // episode_len) whole episodes.

    The ring has E + 1 runs of episode_len slots, one per episode, so the
    oldest kept episode stays sampleable while the next one is played,
    until end_episode evicts it. Every episode fills its run.
    """

    def __init__(self, capacity_steps: int, episode_len: int):
        if capacity_steps < 1:
            raise ValueError("capacity must be >= 1")
        super().__init__((max(1, capacity_steps // episode_len) + 1)
                         * episode_len)
        self._episode_len = episode_len
        self._closed = 0  # episodes ended so far

    def end_episode(self) -> None:
        self._closed += 1

    def sample_batch(self, cfg, rng: np.random.Generator):
        """batch_size windows of seq_len slots, or None until an episode is
        stored. The previous actions are none (-1) at an episode start."""
        L = self._episode_len
        runs = self.capacity // L
        kept = min(self._closed, runs - 1)
        if not kept:
            return None
        T = cfg.seq_len
        # per window, the episode and then its start: one draw over the
        # interleaved bounds takes the stream's numbers in the order of a
        # scalar draw per bound, and a bound of 1 takes none in both
        ep, start = rng.integers(0, np.tile([kept, L - T + 1],
                                            cfg.batch_size)
                                 ).reshape(cfg.batch_size, 2).T
        # kept episodes oldest first
        first = (self._closed - kept + ep) % runs * L + start
        idx = first + np.arange(T)[:, None]
        prev = np.vstack((np.where(start > 0, self._actions[first - 1], -1),
                          self._actions[idx]))
        return self._batch(idx, prev)
