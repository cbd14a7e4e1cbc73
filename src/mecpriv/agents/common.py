"""Shared agent machinery: configuration, schedules, encodings."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..env import EnvParams, check_finite, mdp
from ..nn import NetworkSpec, Params

LOSSES = ("mse", "huber")


@dataclass(frozen=True)
class AgentConfig:
    """Training hyperparameters; defaults are the full-scale settings."""

    episodes: int = 1000
    gamma: float = 0.9
    alpha: float = 1e-4
    alpha_decay: float = 1.0
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.01
    buffer_capacity: int = 100_000
    batch_size: int = 128
    tau: float = 1e-4
    target_update_period: int = 2
    seq_len: int = 128
    tbptt_len: int = 16
    gru_layers: int = 3
    gru_units: int = 128
    dense_layers: int = 2
    dense_units: int = 128
    loss: str = "mse"
    update_every: int = 1
    center_rewards: bool = False
    scale_rewards: bool = False

    def __post_init__(self):
        check_finite(self)
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        for name in ("epsilon_start", "epsilon_min"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("epsilon_decay", "alpha_decay"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        for name in ("episodes", "buffer_capacity", "batch_size",
                     "target_update_period", "seq_len", "tbptt_len",
                     "gru_units", "dense_units", "update_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.gru_layers < 0 or self.dense_layers < 0:
            raise ValueError("layer counts must be >= 0")
        if self.tbptt_len > self.seq_len:
            raise ValueError("tbptt_len cannot exceed seq_len")
        if self.loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}")


def epsilon_at(cfg: AgentConfig, episode: int) -> float:
    return max(cfg.epsilon_min, cfg.epsilon_start * cfg.epsilon_decay ** episode)


def alpha_at(cfg: AgentConfig, episode: int) -> float:
    return cfg.alpha * cfg.alpha_decay ** episode


def state_dim(p: EnvParams) -> int:
    return (p.d_max + 1) + (p.b_max + 1) + 2


def obs_dim(p: EnvParams) -> int:
    return state_dim(p) + p.n_actions


@lru_cache(maxsize=None)
def input_table(p: EnvParams) -> np.ndarray:
    """Every observation of p, read-only: entry [s, prev + 1] is state s
    one-hot in d, b and g, then the previous action prev one-hot (none
    for prev = -1)."""
    m = mdp(p)
    x = np.zeros((p.n_states, p.n_actions + 1, obs_dim(p)))
    s = np.arange(p.n_states)
    for col in (m.d, p.d_max + 1 + m.b, p.d_max + p.b_max + 2 + m.g):
        x[s, :, col] = 1.0
    x[:, 1:, state_dim(p):] = np.eye(p.n_actions)
    x.flags.writeable = False
    return x


def encode(s, p: EnvParams, prev=None) -> np.ndarray:
    """One-hot encoding of state ids, and of previous actions if prev is
    given.

    s is a state id or an array of them; the result has its shape plus an
    axis of width state_dim (or obs_dim with prev). An entry of -1 in prev
    means no previous action: its one-hot is all zeros. The rows are
    gathered from one cached table per EnvParams; scalar ids get a
    read-only view of it.
    """
    x = input_table(p)
    if prev is None:
        return x[s, 0, :state_dim(p)]
    return x[s, np.add(prev, 1)]


def network_spec(p: EnvParams, cfg: AgentConfig,
                 recurrent: bool) -> NetworkSpec:
    """Value net: dense layers on the state encoding, or, if recurrent,
    GRU layers then dense layers on the state-plus-previous-action one."""
    return NetworkSpec(
        input_dim=obs_dim(p) if recurrent else state_dim(p),
        gru=(cfg.gru_units,) * cfg.gru_layers if recurrent else (),
        dense=(cfg.dense_units,) * cfg.dense_layers, output_dim=p.n_actions)


def loss_gradient(td_error: np.ndarray, kind: str) -> np.ndarray:
    """Gradient of the mean TD loss w.r.t. the taken-action Q values."""
    n = td_error.size
    if kind == "mse":
        return 2.0 * td_error / n
    return np.clip(td_error, -1.0, 1.0) / n  # huber, delta=1


@dataclass
class TrainResult:
    """Trained parameters plus the per-episode learning curve."""

    label: str
    spec: NetworkSpec
    params: Params
    curve: list[tuple[int, float, float]] = field(default_factory=list)

    def curve_rewards(self) -> np.ndarray:
        return np.array([row[1] for row in self.curve])


class RewardBaseline:
    """Running mean and spread of collected rewards, a training-only transform.

    Subtracting a constant from every reward shifts all Q values uniformly
    and leaves the greedy policy unchanged; tracking the mean keeps value
    magnitudes near the action differentials, which conditions the
    regression far better than absolute returns. Dividing by a positive
    constant also leaves the greedy policy unchanged; dividing by the
    running standard deviation puts TD errors on a unit scale, where the
    Huber loss's fixed threshold of 1 sits whatever the privacy weight.
    The offset needs center_rewards and the divisor scale_rewards; logged
    curves always carry true rewards.
    """

    def __init__(self, center: bool, scale: bool):
        self.center = center
        self.scale_enabled = scale
        self._sum = 0.0
        self._sq = 0.0
        self._n = 0

    def add(self, r: float) -> None:
        self._sum += r
        self._sq += r * r
        self._n += 1

    @property
    def value(self) -> float:
        if not self.center or self._n == 0:
            return 0.0
        return self._sum / self._n

    @property
    def scale(self) -> float:
        if not self.scale_enabled or self._n < 2:
            return 1.0
        mean = self._sum / self._n
        var = self._sq / self._n - mean * mean
        return var ** 0.5 if var > 1e-12 else 1.0

