"""The slot loop, and the episode runs, metrics and training built on it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agents import (AgentConfig, EpisodeBuffer, QPolicy, TrainResult,
                      TransitionBuffer, epsilon_at, network_spec, q_update)
from ..agents.common import RewardBaseline, alpha_at
from ..baselines import Policy
from ..env import EnvParams, mdp, reward, sample_initial_state, step
from ..nn import Adam, clone_params, init_params, polyak_update
from ..privacy import privacy_breakdown


@dataclass
class EpisodeLog:
    """Per-step arrays for one episode, plus task accounting totals."""

    d: np.ndarray
    b: np.ndarray
    g: np.ndarray
    q: np.ndarray
    t: np.ndarray
    l: np.ndarray
    latency: np.ndarray
    energy: np.ndarray
    cost: np.ndarray
    h_dt: np.ndarray
    h_gt: np.ndarray
    p_total: np.ndarray
    heuristic: np.ndarray
    reward: np.ndarray
    buffer_final: int


@dataclass(frozen=True)
class EpisodeMetrics:
    avg_cost_per_task: float
    avg_delay_per_task: float
    avg_energy_per_task: float
    h_dt: float
    h_gt: float
    heuristic: float
    avg_reward_per_step: float
    tasks_handled: int
    tasks_generated: int
    buffer_final: int


METRIC_FIELDS = ("avg_cost_per_task", "avg_delay_per_task",
                 "avg_energy_per_task", "h_dt", "h_gt", "heuristic",
                 "avg_reward_per_step")


@dataclass(frozen=True)
class RunRecord:
    """Aggregated evaluation row: means and stds across episodes."""

    label: str
    avg_cost_per_task: float
    avg_delay_per_task: float
    avg_energy_per_task: float
    h_dt: float
    h_gt: float
    heuristic: float
    avg_reward_per_step: float
    avg_cost_per_task_std: float
    avg_delay_per_task_std: float
    avg_energy_per_task_std: float
    h_dt_std: float
    h_gt_std: float
    heuristic_std: float
    avg_reward_per_step_std: float
    episodes: int


def slots(policy: Policy, env: EnvParams, rng: np.random.Generator):
    """Play one episode; yields (state, action, next state) ids slot by
    slot.

    Every rollout, evaluation and training episode runs through here, so
    all of them draw from rng in one order: the policy's reset, the
    initial state, then per slot the policy's act and the step.
    """
    policy.reset(rng)
    s = sample_initial_state(rng, env)
    for _ in range(env.episode_len):
        a = policy.act(s)
        s_next = step(s, a, rng, env)
        yield s, a, s_next
        s = s_next


def scored(s: np.ndarray, a: np.ndarray, env: EnvParams, start: int = 0):
    """Privacy breakdown and rewards of slots start.. of a run of state and
    action ids; the slots before start only fill their windows."""
    m = mdp(env)
    br = privacy_breakdown(m.d[s], m.g[s], m.t[a], env.window, env.d_max,
                           env.t_max, start)
    return br, reward(m.cost[s[start:], a[start:]], br.p_total,
                      env.privacy_weight)


def run_episode(policy: Policy, env: EnvParams,
                rng: np.random.Generator) -> EpisodeLog:
    """Roll one episode, then score and log every slot."""
    m = mdp(env)
    s, a, s_next = np.array(list(slots(policy, env, rng))).T
    br, r = scored(s, a, env)
    return EpisodeLog(d=m.d[s], b=m.b[s], g=m.g[s], q=m.q[a], t=m.t[a],
                      l=m.l[s, a].astype(np.int64), latency=m.latency[s, a],
                      energy=m.energy[s, a], cost=m.cost[s, a],
                      heuristic=m.heuristic[s, a], h_dt=br.h_dt, h_gt=br.h_gt,
                      p_total=br.p_total, reward=r,
                      buffer_final=int(m.b[s_next[-1]]))


def episode_metrics(log: EpisodeLog) -> EpisodeMetrics:
    """Per-task averages divide by tasks completed (local + offloaded)."""
    tasks = int(log.l.sum() + log.t.sum())
    denom = float(tasks) if tasks > 0 else float("nan")
    return EpisodeMetrics(
        avg_cost_per_task=float(log.cost.sum() / denom),
        avg_delay_per_task=float(log.latency.sum() / denom),
        avg_energy_per_task=float(log.energy.sum() / denom),
        h_dt=float(log.h_dt.mean()),
        h_gt=float(log.h_gt.mean()),
        heuristic=float(log.heuristic.mean()),
        avg_reward_per_step=float(log.reward.mean()),
        tasks_handled=tasks,
        tasks_generated=int(log.d.sum()),
        buffer_final=log.buffer_final,
    )


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Deterministic per-episode stream, independent of execution order."""
    return np.random.default_rng([seed, episode])


def evaluate(policy: Policy, env: EnvParams, episodes: int,
             seeds: tuple[int, ...], label: str) -> RunRecord:
    """Average episode metrics over fresh episodes for every seed."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rows = [episode_metrics(run_episode(policy, env, episode_rng(seed, ep)))
            for seed in seeds for ep in range(episodes)]
    values = {name: np.array([getattr(r, name) for r in rows])
              for name in METRIC_FIELDS}
    kwargs = {name: float(arr.mean()) for name, arr in values.items()}
    kwargs.update({f"{name}_std": float(arr.std()) for name, arr in values.items()})
    return RunRecord(label=label, episodes=len(rows), **kwargs)


def rollout_trace(policy: Policy, env: EnvParams, rng: np.random.Generator,
                  n_steps: int) -> np.ndarray:
    """Collect (d, g, t) rows over as many fresh episodes as needed."""
    s, a = (np.empty(n_steps, dtype=np.int64) for _ in range(2))
    i = 0
    while i < n_steps:
        for s[i], a[i], _ in slots(policy, env, rng):
            i += 1
            if i == n_steps:
                break
    m = mdp(env)
    return np.stack([m.d[s], m.g[s], m.t[a]], axis=1)


def train(kind: str, env: EnvParams, cfg: AgentConfig,
          rng: np.random.Generator, label: str | None = None) -> TrainResult:
    """Replay-based Q-learning over full episodes, kind "dqn" or "drqn".

    The two kinds differ only in their net's input and replay store: the
    DQN samples single slots, the DRQN windows of seq_len slots whose
    observations carry the previous action. The learner's own policy acts
    epsilon-greedily in rewarded episodes. Each slot goes to the store;
    every update_every slots, once the store can fill a batch, one
    gradient step follows, with a soft target update every
    target_update_period gradient steps.
    """
    if kind not in ("dqn", "drqn"):
        raise ValueError(f"unknown learner {kind!r}")
    recurrent = kind == "drqn"
    if recurrent and cfg.seq_len > env.episode_len:
        raise ValueError("seq_len cannot exceed episode_len")
    spec = network_spec(env, cfg, recurrent)
    actor = QPolicy(spec, init_params(spec, rng), env)
    target = clone_params(actor.params)
    opt = Adam(cfg.alpha)
    replay = (EpisodeBuffer if recurrent else TransitionBuffer)(
        cfg.buffer_capacity)
    baseline = RewardBaseline(cfg.center_rewards, cfg.scale_rewards)
    curve: list[tuple[int, float, float]] = []
    grad_steps = 0
    states = np.empty(env.episode_len + 1, dtype=np.int64)
    actions = np.empty(env.episode_len, dtype=np.int64)
    for ep in range(cfg.episodes):
        actor.eps = epsilon_at(cfg, ep)
        opt.lr = alpha_at(cfg, ep)
        total = 0.0
        scored_to = 0
        for n, (states[n], actions[n], states[n + 1]) in enumerate(
                slots(actor, env, rng)):
            update = n % cfg.update_every == 0
            if not update and n + 1 < env.episode_len:
                continue
            # Score the slots acted since the last update, reading the
            # window's W - 1 slots before them; store them in slot order,
            # then update, as a slot-by-slot loop would.
            lo = max(0, scored_to - env.window + 1)
            _, r = scored(states[lo:n + 1], actions[lo:n + 1], env,
                          scored_to - lo)
            for i, r_i in enumerate(r.tolist(), scored_to):
                replay.record(states[i], actions[i], r_i, states[i + 1])
                baseline.add(r_i)
                total += r_i
            scored_to = n + 1
            if update and \
                    (batch := replay.sample_batch(cfg, env, rng)) is not None:
                actor.params, _ = q_update(
                    spec, actor.params, target, opt, batch, env, cfg,
                    baseline.value, baseline.scale)
                grad_steps += 1
                if grad_steps % cfg.target_update_period == 0:
                    target = polyak_update(target, actor.params, cfg.tau)
        replay.end_episode()
        curve.append((ep, total, actor.eps))
    return TrainResult(label=label or kind, spec=spec, params=actor.params,
                       curve=curve)
