"""Replay storage: single slots for the DQN, whole episodes for the DRQN.

Both stores take the trainer's slots through record(s, a, r, s_next) and
end_episode(). sample_batch hands out B sequences of T slots, encoded as
(x_on, x_tg, acts, rews, next_ids): the online and target nets' inputs,
(T, B) actions and rewards, and the state ids of the next states. A
single-slot store samples sequences of T = 1.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

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

    def record(self, s: int, a: int, r: float, s_next: int) -> None:
        """Store one slot, overwriting the oldest once full."""
        i = self._count % self.capacity
        self._states[:, i] = (s, s_next)
        self._actions[i] = a
        self._rewards[i] = r
        self._count += 1

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


@dataclass
class EpisodeTrace:
    """One episode as parallel arrays of ids and rewards; states has one
    trailing entry (the state after the final action)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        n = len(self.actions)
        if not (len(self.states) == n + 1 and len(self.rewards) == n):
            raise ValueError("trace arrays are inconsistent")

    def __len__(self) -> int:
        return len(self.actions)


class EpisodeBuffer:
    """Episode store bounded by total step count; oldest episodes evicted."""

    def __init__(self, capacity_steps: int):
        if capacity_steps < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity_steps = capacity_steps
        self._episodes: deque[EpisodeTrace] = deque()
        self._steps = 0
        self._open: list[tuple] = []
        self._last: int | None = None

    def __len__(self) -> int:
        return len(self._episodes)

    @property
    def steps(self) -> int:
        return self._steps

    def push(self, trace: EpisodeTrace) -> None:
        self._episodes.append(trace)
        self._steps += len(trace)
        while self._steps > self.capacity_steps and len(self._episodes) > 1:
            old = self._episodes.popleft()
            self._steps -= len(old)

    def sample_windows(self, k: int, seq_len: int,
                       rng: np.random.Generator) -> list[tuple[EpisodeTrace, int]]:
        eligible = [ep for ep in self._episodes if len(ep) >= seq_len]
        if not eligible:
            raise ValueError(f"no stored episode of length >= {seq_len}")
        out = []
        for _ in range(k):
            ep = eligible[rng.integers(0, len(eligible))]
            start = int(rng.integers(0, len(ep) - seq_len + 1))
            out.append((ep, start))
        return out

    def record(self, s: int, a: int, r: float, s_next: int) -> None:
        """Add one slot to the open episode, stored whole at end_episode."""
        self._open.append((s, a, r))
        self._last = s_next

    def end_episode(self) -> None:
        states, actions, rewards = zip(*self._open)
        self.push(EpisodeTrace(np.array(states + (self._last,),
                                        dtype=np.int64),
                               np.array(actions, dtype=np.int64),
                               np.array(rewards, dtype=np.float64)))
        self._open = []

    def sample_batch(self, cfg, env: EnvParams, rng: np.random.Generator):
        """batch_size windows of seq_len slots, or None until an episode is
        stored. The observations carry the previous action, none (-1) at
        an episode start."""
        if not self._episodes:
            return None
        windows = self.sample_windows(cfg.batch_size, cfg.seq_len, rng)
        T = cfg.seq_len
        cut = lambda name, n: np.stack(
            [getattr(ep, name)[w:w + n] for ep, w in windows], axis=1)
        acts = cut("actions", T)
        prev = np.vstack([
            [(ep.actions[w - 1] if w > 0 else -1) for ep, w in windows],
            acts])
        return _batch(cut("states", T + 1), acts, cut("rewards", T), env,
                      prev)
