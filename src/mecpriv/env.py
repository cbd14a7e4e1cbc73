"""Slotted task-offloading environment for one device and one edge server.

Each slot the device holds ``d`` newly generated tasks, ``b`` buffered tasks
and sees a two-state wireless channel ``g`` (1 good, 0 bad). It splits the
pending work into ``q`` tasks re-buffered for later, ``t`` tasks offloaded
over the radio and ``l = d + b - q - t`` tasks processed on the local CPU.
The per-slot cost weighs the slot latency (transmission vs. CPU time in
parallel, plus a queuing penalty per buffered task) against energy spent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


def check_finite(config) -> None:
    """Reject nan and inf in config's float fields; nan passes x < 0."""
    for name, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


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
        check_finite(self)
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


@dataclass(frozen=True, eq=False)
class MDP:
    """The MDP of one EnvParams as tables over state and action ids.

    The state (d, b, g) has id state_id(d, b, g), action (q, t) has id
    q * (t_max + 1) + t, so action ids run in (q, t) order. The (n_states,
    n_actions) tables are nan where valid is False. greedy is each state's
    first cost-minimising action. heuristic is a stand-in for an external
    privacy metric: one per task offloaded in a bad channel or processed
    locally in a good one. Every rule on valid actions reads from here:
    row s of ranked holds the n_valid[s] valid ids of s ascending, then
    its invalid ones, and masked puts the invalid actions at -inf.
    """

    d: np.ndarray
    b: np.ndarray
    g: np.ndarray
    q: np.ndarray
    t: np.ndarray
    valid: np.ndarray
    l: np.ndarray
    latency: np.ndarray
    energy: np.ndarray
    cost: np.ndarray
    heuristic: np.ndarray
    greedy: np.ndarray
    ranked: np.ndarray
    n_valid: np.ndarray

    def masked(self, values: np.ndarray, s) -> np.ndarray:
        """values, (..., n_actions) over the state ids s of its leading
        axes, with each state's invalid actions at -inf."""
        return np.where(self.valid[s], values, -np.inf)


class InvalidActionError(ValueError):
    pass


def state_id(d, b, g, p: EnvParams):
    """Flat index of a state; accepts scalars or arrays. b comes last, so
    a grid of buffer levels over arrays of d and g makes one big array."""
    return d * (2 * (p.b_max + 1)) + g + 2 * b


@lru_cache(maxsize=None)
def mdp(p: EnvParams) -> MDP:
    """The tables of p, built once per EnvParams."""
    db, g = np.divmod(np.arange(p.n_states), 2)
    d, b = np.divmod(db, p.b_max + 1)
    q, t = np.divmod(np.arange(p.n_actions), p.t_max + 1)
    l = d[:, None] + b[:, None] - q - t
    valid = l >= 0
    # Slot latency: queuing penalty plus max of radio and CPU time.
    latency = q * p.slot_duration + np.maximum(t * p.tx_time_per_task(),
                                               l * p.local_time_per_task())
    e_tx = np.where(g == 1, p.e_tx_good, p.e_tx_bad)[:, None]
    energy = e_tx * t + p.e_local * l
    cost = p.delay_weight * latency + energy
    heuristic = np.where(g[:, None] == 0, t, l)
    tables = {name: np.where(valid, table, np.nan) for name, table in
              (("l", l), ("latency", latency), ("energy", energy),
               ("cost", cost), ("heuristic", heuristic))}
    out = MDP(d=d, b=b, g=g, q=q, t=t, valid=valid, **tables,
              greedy=np.argmin(np.where(valid, cost, np.inf), axis=1),
              ranked=np.argsort(~valid, axis=1, kind="stable"),
              n_valid=valid.sum(axis=1))
    for arr in (d, b, g, q, t, valid, out.greedy, out.ranked, out.n_valid,
                *tables.values()):
        arr.setflags(write=False)
    return out


def reward(cost_value: float, privacy_bits: float, privacy_weight: float) -> float:
    """Immediate reward: weighted privacy minus the slot cost."""
    return privacy_weight * privacy_bits - cost_value


def step(s: int, a: int, rng: np.random.Generator, p: EnvParams) -> int:
    """Advance one slot from state id s by action id a; returns the next
    state id. b' = q, d' uniform, g' sticky two-state chain."""
    m = mdp(p)
    if not (0 <= a < len(m.q) and m.valid[s, a]):
        raise InvalidActionError(f"action {a} invalid in state {s}")
    d_next = int(rng.integers(0, p.d_max + 1))
    g = int(m.g[s])
    g_next = g if rng.random() < p.p_channel_stay else 1 - g
    return state_id(d_next, int(m.q[a]), g_next, p)


def sample_initial_state(rng: np.random.Generator, p: EnvParams) -> int:
    """Episode start: empty buffer, uniform d and channel; a state id."""
    d = int(rng.integers(0, p.d_max + 1))
    return state_id(d, 0, int(rng.integers(0, 2)), p)
