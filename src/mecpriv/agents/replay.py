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

from ..env import EnvParams, State, state_id
from .common import encode


def _batch(d, b, g, acts, rews, env: EnvParams, prev=None):
    """Encode (T + 1, B) state columns, and prev actions if given.

    The target net reads the next state, which is the online net's input
    one slot later, so both are views of one (T + 1)-slot encoding.
    """
    x = encode(d, b, g, env, prev)
    return x[:-1], x[1:], acts, rews, state_id(d[1:], b[1:], g[1:], env)


class TransitionBuffer:
    """Ring buffer of slots with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # (d, b, g) of the state, then of the next state, per ring position
        self._states = np.empty((2, 3, capacity), dtype=np.int64)
        self._actions = np.empty(capacity, dtype=np.int64)
        self._rewards = np.empty(capacity)
        self._count = 0

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    def record(self, s: State, a: int, r: float, s_next: State) -> None:
        """Store one slot, overwriting the oldest once full."""
        i = self._count % self.capacity
        self._states[:, :, i] = ((s.d, s.b, s.g), (s_next.d, s_next.b,
                                                   s_next.g))
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
        d, b, g = self._states[:, :, idx].transpose(1, 0, 2)
        return _batch(d, b, g, self._actions[idx][None],
                      self._rewards[idx][None], env)


@dataclass
class EpisodeTrace:
    """One episode as parallel arrays; state arrays have one trailing entry
    (the state after the final action)."""

    d: np.ndarray
    b: np.ndarray
    g: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray

    def __post_init__(self):
        n = len(self.actions)
        if not (len(self.d) == len(self.b) == len(self.g) == n + 1
                and len(self.rewards) == n):
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
        self._last: State | None = None

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

    def record(self, s: State, a: int, r: float, s_next: State) -> None:
        """Add one slot to the open episode, stored whole at end_episode."""
        self._open.append((s.d, s.b, s.g, a, r))
        self._last = s_next

    def end_episode(self) -> None:
        d, b, g, actions, rewards = zip(*self._open)
        s = self._last
        self.push(EpisodeTrace(np.array(d + (s.d,), dtype=np.int64),
                               np.array(b + (s.b,), dtype=np.int64),
                               np.array(g + (s.g,), dtype=np.int64),
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
        return _batch(cut("d", T + 1), cut("b", T + 1), cut("g", T + 1),
                      acts, cut("rewards", T), env, prev)
