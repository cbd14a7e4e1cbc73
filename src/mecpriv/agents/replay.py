"""Replay storage: flat transitions for DQN, whole episodes for DRQN.

Both stores take the trainer's slots through record(s, a, r, s_next) and
end_episode(), and hand out training batches through sample_batch.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..env import State


@dataclass(frozen=True)
class Transition:
    s: State
    a: int
    r: float
    s_next: State


class TransitionBuffer:
    """Ring buffer with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: list[Transition] = []
        self._pos = 0

    def __len__(self) -> int:
        return len(self._data)

    def push(self, tr: Transition) -> None:
        if len(self._data) < self.capacity:
            self._data.append(tr)
        else:
            self._data[self._pos] = tr
            self._pos = (self._pos + 1) % self.capacity

    def sample(self, k: int, rng: np.random.Generator) -> list[Transition]:
        if not self._data:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, len(self._data), size=k)
        return [self._data[i] for i in idx]

    def record(self, s: State, a: int, r: float, s_next: State) -> None:
        self.push(Transition(s, a, r, s_next))

    def end_episode(self) -> None:
        pass

    def sample_batch(self, cfg, rng: np.random.Generator):
        """A batch of transitions, or None while fewer than one are stored."""
        if len(self._data) < cfg.batch_size:
            return None
        return self.sample(cfg.batch_size, rng)


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

    def sample_batch(self, cfg, rng: np.random.Generator):
        """Windows of seq_len slots, or None until an episode is stored."""
        if not self._episodes:
            return None
        return self.sample_windows(cfg.batch_size, cfg.seq_len, rng)
