"""Sliding-window entropy estimation over (d, g, t) tuples.

The privacy signal is estimated from the empirical joint distribution of
the last W (new-tasks, channel, offloaded) tuples. The per-step privacy
value is H(D|T) + H(G|T) + H(T): high offloading-volume entropy combined
with low predictability of demand and channel given the observed volume.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable

from .env import Action, State

Entry = tuple[int, int, int]  # (d, g, t)


class EmptyWindowError(ValueError):
    """Raised when an estimate is requested from an empty window."""


class WindowHistory:
    """FIFO window of (d, g, t) tuples with incremental marginal counts.

    Counts for the (d,t), (g,t) and (t) marginals are maintained on
    push/evict so entropy queries cost O(distinct atoms), not O(window).
    """

    def __init__(self, capacity: int, d_max: int | None = None,
                 t_max: int | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.d_max = d_max
        self.t_max = t_max
        self._entries: deque[Entry] = deque()
        self._dt: Counter = Counter()
        self._gt: Counter = Counter()
        self._t: Counter = Counter()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[Entry, ...]:
        return tuple(self._entries)

    def _validate(self, entry: Entry) -> Entry:
        d, g, t = (int(entry[0]), int(entry[1]), int(entry[2]))
        if d < 0 or t < 0 or g not in (0, 1):
            raise ValueError(f"entry {entry} out of range")
        if self.d_max is not None and d > self.d_max:
            raise ValueError(f"d={d} exceeds d_max={self.d_max}")
        if self.t_max is not None and t > self.t_max:
            raise ValueError(f"t={t} exceeds t_max={self.t_max}")
        return (d, g, t)

    def push(self, entry: Entry) -> None:
        """Append one tuple, evicting the oldest when at capacity."""
        d, g, t = self._validate(entry)
        if len(self._entries) == self.capacity:
            od, og, ot = self._entries.popleft()
            self._decrement((od, og, ot))
        self._entries.append((d, g, t))
        self._dt[(d, t)] += 1
        self._gt[(g, t)] += 1
        self._t[t] += 1

    def _decrement(self, entry: Entry) -> None:
        d, g, t = entry
        for counter, key in ((self._dt, (d, t)), (self._gt, (g, t)),
                             (self._t, t)):
            counter[key] -= 1
            if counter[key] == 0:
                del counter[key]


@dataclass(frozen=True)
class PrivacyBreakdown:
    """Entropy terms of the privacy value, all in bits."""

    h_d_given_t: float
    h_g_given_t: float
    h_t: float
    p_total: float
    h_dt: float
    h_gt: float


def _entropy_from_counts(counts: Iterable[int], n: int) -> float:
    # Sorted summation keeps equal count-multisets bit-identical across
    # marginals, so conditional entropies never go negative by rounding.
    acc = 0.0
    for m in sorted(counts):
        acc += m * math.log2(m)
    return math.log2(n) - acc / n


def privacy_breakdown(w: WindowHistory) -> PrivacyBreakdown:
    """All entropy terms of the current window estimate.

    H(D|T) and H(G|T) are obtained by the chain rule from the joint
    entropies H(D,T), H(G,T) and the volume entropy H(T).
    """
    n = len(w)
    if n == 0:
        raise EmptyWindowError("privacy breakdown of an empty window")
    h_t = _entropy_from_counts(w._t.values(), n)
    h_dt = _entropy_from_counts(w._dt.values(), n)
    h_gt = _entropy_from_counts(w._gt.values(), n)
    h_d_given_t = h_dt - h_t
    h_g_given_t = h_gt - h_t
    return PrivacyBreakdown(
        h_d_given_t=h_d_given_t,
        h_g_given_t=h_g_given_t,
        h_t=h_t,
        p_total=h_d_given_t + h_g_given_t + h_t,
        h_dt=h_dt,
        h_gt=h_gt,
    )


class GreedyDeviationHeuristic:
    """Stand-in for the external heuristic privacy metric.

    Scores deviation from the one-step cost-greedy pattern: +1 per task
    offloaded in bad channel, +1 per task processed locally in good
    channel. Shipped as a clearly labeled placeholder; the original
    metric's formula is not part of this package.
    """

    name = "greedy_deviation_standin"

    def score(self, s: State, a: Action) -> float:
        l = s.d + s.b - a.q - a.t
        if s.g == 0:
            return float(a.t)
        return float(l)


DEFAULT_HEURISTIC = GreedyDeviationHeuristic()
