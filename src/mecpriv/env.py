"""Slotted task-offloading environment for one device and one edge server.

Each slot the device holds ``d`` newly generated tasks, ``b`` buffered tasks
and sees a two-state wireless channel ``g`` (1 good, 0 bad). It splits the
pending work into ``q`` tasks re-buffered for later, ``t`` tasks offloaded
over the radio and ``l = d + b - q - t`` tasks processed on the local CPU.
The per-slot cost weighs the slot latency (transmission vs. CPU time in
parallel, plus a queuing penalty per buffered task) against energy spent.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class EnvParams:
    """Physical and stochastic constants of the offloading model.

    Defaults reproduce the reference setup: a 500 kb task costs 0.1 s and
    0.5 J (good channel) or 2 J (bad channel) to transmit, 0.125 s and 1 J
    to process locally at 2 GHz with 500 cycles/bit workload density.
    """

    d_max: int = 3
    b_max: int = 5
    task_size_kb: float = 500.0
    tx_rate_kbps: float = 5000.0
    cpu_freq_hz: float = 2.0e9
    workload_density: float = 500.0
    e_local: float = 1.0
    e_tx_good: float = 0.5
    e_tx_bad: float = 2.0
    slot_duration: float = 2.0
    delay_weight: float = 0.8
    privacy_weight: float = 10.0
    p_channel_stay: float = 0.95
    window: int = 128
    episode_len: int = 1200

    def __post_init__(self):
        if self.d_max < 0 or self.b_max < 0:
            raise ValueError("d_max and b_max must be >= 0")
        for name in ("task_size_kb", "tx_rate_kbps", "cpu_freq_hz",
                     "workload_density", "e_local", "e_tx_good", "e_tx_bad",
                     "slot_duration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        if not 0.0 <= self.p_channel_stay <= 1.0:
            raise ValueError("p_channel_stay must be in [0, 1]")
        if self.delay_weight < 0 or self.privacy_weight < 0:
            raise ValueError("delay_weight and privacy_weight must be >= 0")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.episode_len < 1:
            raise ValueError("episode_len must be >= 1")

    @property
    def t_max(self) -> int:
        return self.d_max + self.b_max

    @property
    def n_actions(self) -> int:
        return (self.b_max + 1) * (self.t_max + 1)

    @property
    def n_states(self) -> int:
        return (self.d_max + 1) * (self.b_max + 1) * 2

    def local_time_per_task(self) -> float:
        bits = self.task_size_kb * 1000.0
        return bits * self.workload_density / self.cpu_freq_hz

    def tx_time_per_task(self) -> float:
        return self.task_size_kb / self.tx_rate_kbps

    def tx_energy_per_task(self, g: int) -> float:
        return self.e_tx_good if g == 1 else self.e_tx_bad

    def action_index(self, a: "Action") -> int:
        return a.q * (self.t_max + 1) + a.t

    def action_from_index(self, idx: int) -> "Action":
        span = self.t_max + 1
        return Action(q=idx // span, t=idx % span)

    def all_states(self) -> list["State"]:
        return [State(d, b, g)
                for d in range(self.d_max + 1)
                for b in range(self.b_max + 1)
                for g in (0, 1)]


@dataclass(frozen=True)
class State:
    """Per-slot observation: new tasks d, buffered tasks b, channel g."""

    d: int
    b: int
    g: int


@dataclass(frozen=True)
class Action:
    """Per-slot decision: q tasks buffered, t tasks offloaded."""

    q: int
    t: int


@dataclass(frozen=True)
class StepOutcome:
    next_state: State
    latency: float
    energy: float
    cost: float


class InvalidActionError(ValueError):
    pass


def is_valid(s: State, a: Action, p: EnvParams) -> bool:
    return (0 <= a.q <= p.b_max and a.t >= 0
            and a.q + a.t <= s.d + s.b)


def require_valid(s: State, a: Action, p: EnvParams) -> None:
    if not is_valid(s, a, p):
        raise InvalidActionError(f"action {a} invalid in state {s}")


def local_count(s: State, a: Action) -> int:
    return s.d + s.b - a.q - a.t


def valid_actions(s: State, p: EnvParams) -> list[Action]:
    """All feasible (q, t) pairs in lexicographic order; never empty."""
    pending = s.d + s.b
    return [Action(q, t)
            for q in range(min(p.b_max, pending) + 1)
            for t in range(pending - q + 1)]


@lru_cache(maxsize=None)
def action_mask(s: State, p: EnvParams) -> np.ndarray:
    """Boolean validity mask over the flat (q, t) action grid."""
    mask = np.zeros(p.n_actions, dtype=bool)
    for a in valid_actions(s, p):
        mask[p.action_index(a)] = True
    mask.setflags(write=False)
    return mask


def state_id(d, b, g, p: EnvParams):
    """Flat index of a state; accepts scalars or arrays."""
    return (d * (p.b_max + 1) + b) * 2 + g


@lru_cache(maxsize=None)
def valid_mask_matrix(p: EnvParams) -> np.ndarray:
    """(n_states, n_actions) validity table indexed by state_id."""
    mat = np.zeros((p.n_states, p.n_actions), dtype=bool)
    for s in p.all_states():
        mat[state_id(s.d, s.b, s.g, p)] = action_mask(s, p)
    mat.setflags(write=False)
    return mat


def latency(s: State, a: Action, p: EnvParams) -> float:
    """Slot latency: queuing penalty plus max of radio and CPU time."""
    require_valid(s, a, p)
    l = local_count(s, a)
    return (a.q * p.slot_duration
            + max(a.t * p.tx_time_per_task(), l * p.local_time_per_task()))


def energy(s: State, a: Action, p: EnvParams) -> float:
    require_valid(s, a, p)
    return p.tx_energy_per_task(s.g) * a.t + p.e_local * local_count(s, a)


def cost(s: State, a: Action, p: EnvParams) -> float:
    return p.delay_weight * latency(s, a, p) + energy(s, a, p)


def reward(cost_value: float, privacy_bits: float, privacy_weight: float) -> float:
    """Immediate reward: weighted privacy minus the slot cost."""
    return privacy_weight * privacy_bits - cost_value


def step(s: State, a: Action, rng: np.random.Generator, p: EnvParams) -> StepOutcome:
    """Advance one slot: b' = q, d' uniform, g' sticky two-state chain."""
    require_valid(s, a, p)
    lat = latency(s, a, p)
    en = energy(s, a, p)
    d_next = int(rng.integers(0, p.d_max + 1))
    g_next = s.g if rng.random() < p.p_channel_stay else 1 - s.g
    nxt = State(d=d_next, b=a.q, g=g_next)
    return StepOutcome(next_state=nxt, latency=lat, energy=en,
                       cost=p.delay_weight * lat + en)


def sample_initial_state(rng: np.random.Generator, p: EnvParams) -> State:
    """Episode start: empty buffer, uniform d and channel."""
    return State(d=int(rng.integers(0, p.d_max + 1)), b=0,
                 g=int(rng.integers(0, 2)))
