"""Shared agent machinery: configuration, encodings, exploration."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..env import EnvParams, valid_mask_matrix
from ..nn import Dense, GRU, NetworkSpec, Params

OPTIMIZERS = ("adam", "sgd")
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
    optimizer: str = "adam"
    loss: str = "mse"
    polyak_conventional: bool = False
    update_every: int = 1
    center_rewards: bool = False
    scale_rewards: bool = False

    def __post_init__(self):
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}")
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


def encode(d, b, g, p: EnvParams, prev=None) -> np.ndarray:
    """One-hot encoding of states, and of previous actions if prev is given.

    d, b and g are scalars or index arrays of one shape; the result has
    that shape plus an axis of width state_dim (or obs_dim with prev). An
    entry of -1 in prev means no previous action: its one-hot is all zeros.
    """
    d = np.asarray(d)
    width = state_dim(p) if prev is None else obs_dim(p)
    x = np.zeros(d.shape + (width,))
    flat = x.reshape(-1, width)
    rows = np.arange(len(flat))
    flat[rows, d.ravel()] = 1.0
    flat[rows, p.d_max + 1 + np.ravel(b)] = 1.0
    flat[rows, p.d_max + p.b_max + 2 + np.ravel(g)] = 1.0
    if prev is not None:
        prev = np.ravel(prev)
        on = prev >= 0
        flat[rows[on], state_dim(p) + prev[on]] = 1.0
    return x


def epsilon_greedy(q_values: np.ndarray, valid_mask: np.ndarray, eps: float,
                   rng: np.random.Generator) -> int:
    """Masked epsilon-greedy pick; greedy ties go to the lowest index."""
    valid_idx = np.flatnonzero(valid_mask)
    if valid_idx.size == 0:
        raise ValueError("no valid action available")
    if eps > 0.0 and rng.random() < eps:
        return int(valid_idx[rng.integers(0, valid_idx.size)])
    masked = np.where(valid_mask, q_values, -np.inf)
    return int(np.argmax(masked))


def dqn_network_spec(p: EnvParams, cfg: AgentConfig) -> NetworkSpec:
    """Feed-forward value net on the state encoding."""
    layers = [Dense(cfg.dense_units, "relu") for _ in range(cfg.dense_layers)]
    layers.append(Dense(p.n_actions, "identity"))
    return NetworkSpec(input_dim=state_dim(p), layers=tuple(layers))


def drqn_network_spec(p: EnvParams, cfg: AgentConfig) -> NetworkSpec:
    """Recurrent value net on the state-plus-previous-action encoding."""
    layers: list = [GRU(cfg.gru_units) for _ in range(cfg.gru_layers)]
    layers += [Dense(cfg.dense_units, "relu") for _ in range(cfg.dense_layers)]
    layers.append(Dense(p.n_actions, "identity"))
    return NetworkSpec(input_dim=obs_dim(p), layers=tuple(layers))


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


@dataclass(frozen=True)
class Learner:
    """What sets one Q-learner apart from the other; the shared trainer
    runs the rest.

    network_spec(env, cfg) builds the net, policy(spec, params, env) is its
    epsilon-greedy actor (greedy at eps 0), replay(env, cfg) makes the store
    the trainer feeds each slot through record(s, a, r, s_next), closes with
    end_episode() and draws from with sample_batch(cfg, rng) (None until it
    can fill a batch), and update(spec, params, target, opt, batch, env,
    cfg, baseline, scale) takes one gradient step, returning (params, loss).
    """

    network_spec: Callable
    policy: type
    replay: Callable
    update: Callable


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


def masked_max(q: np.ndarray, ids, p: EnvParams) -> np.ndarray:
    """Max of q over the valid actions of each state; ids are state_ids
    of q's leading axes."""
    return np.where(valid_mask_matrix(p)[ids], q, -np.inf).max(axis=-1)
