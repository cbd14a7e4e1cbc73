"""The slot loop, and the episode runs, metrics and training built on it."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..agents import LEARNERS, AgentConfig, TrainResult, epsilon_at
from ..agents.common import RewardBaseline, alpha_at
from ..baselines import Policy
from ..env import EnvParams, reward, sample_initial_state, step
from ..nn import clone_params, init_params, make_optimizer, polyak_update
from ..privacy import DEFAULT_HEURISTIC, WindowHistory, privacy_breakdown


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
    """Play one episode; yields (state, action, outcome) slot by slot.

    Every rollout, evaluation and training episode runs through here, so
    all of them draw from rng in one order: the policy's reset, the
    initial state, then per slot the policy's act and the step.
    """
    policy.reset(rng)
    s = sample_initial_state(rng, env)
    for _ in range(env.episode_len):
        a = policy.act(s)
        out = step(s, a, rng, env)
        yield s, a, out
        s = out.next_state


def rewarded_slots(policy: Policy, env: EnvParams, rng: np.random.Generator):
    """slots plus the privacy window; yields (state, action, outcome,
    privacy breakdown, reward)."""
    window = WindowHistory(env.window, d_max=env.d_max, t_max=env.t_max)
    for s, a, out in slots(policy, env, rng):
        window.push((s.d, s.g, a.t))
        br = privacy_breakdown(window)
        yield s, a, out, br, reward(out.cost, br.p_total, env.privacy_weight)


def run_episode(policy: Policy, env: EnvParams, rng: np.random.Generator,
                heuristic=None) -> EpisodeLog:
    """Roll one rewarded episode and log every slot."""
    heuristic = heuristic or DEFAULT_HEURISTIC
    n = env.episode_len
    cols = {name: np.empty(n) for name in
            ("latency", "energy", "cost", "h_dt", "h_gt", "p_total",
             "heuristic", "reward")}
    ints = {name: np.empty(n, dtype=np.int64) for name in
            ("d", "b", "g", "q", "t", "l")}
    for i, (s, a, out, br, r) in enumerate(rewarded_slots(policy, env, rng)):
        ints["d"][i], ints["b"][i], ints["g"][i] = s.d, s.b, s.g
        ints["q"][i], ints["t"][i] = a.q, a.t
        ints["l"][i] = s.d + s.b - a.q - a.t
        cols["latency"][i] = out.latency
        cols["energy"][i] = out.energy
        cols["cost"][i] = out.cost
        cols["h_dt"][i] = br.h_dt
        cols["h_gt"][i] = br.h_gt
        cols["p_total"][i] = br.p_total
        cols["heuristic"][i] = heuristic.score(s, a)
        cols["reward"][i] = r
    return EpisodeLog(**ints, **cols, buffer_final=out.next_state.b)


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
             seeds: tuple[int, ...], label: str, heuristic=None) -> RunRecord:
    """Average episode metrics over fresh episodes for every seed."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rows = [episode_metrics(run_episode(policy, env, episode_rng(seed, ep),
                                        heuristic))
            for seed in seeds for ep in range(episodes)]
    values = {name: np.array([getattr(r, name) for r in rows])
              for name in METRIC_FIELDS}
    kwargs = {name: float(arr.mean()) for name, arr in values.items()}
    kwargs.update({f"{name}_std": float(arr.std()) for name, arr in values.items()})
    return RunRecord(label=label, episodes=len(rows), **kwargs)


def rollout_trace(policy: Policy, env: EnvParams, rng: np.random.Generator,
                  n_steps: int) -> np.ndarray:
    """Collect (d, g, t) rows over as many fresh episodes as needed."""
    out = np.empty((n_steps, 3), dtype=np.int64)
    i = 0
    while i < n_steps:
        for s, a, _ in slots(policy, env, rng):
            out[i] = (s.d, s.g, a.t)
            i += 1
            if i == n_steps:
                break
    return out


def train(kind: str, env: EnvParams, cfg: AgentConfig,
          rng: np.random.Generator, label: str | None = None) -> TrainResult:
    """Replay-based Q-learning over full episodes for a kind in LEARNERS.

    The learner's own policy acts epsilon-greedily in rewarded episodes.
    Each slot goes to its replay store; every update_every slots, once the
    store can fill a batch, one gradient step follows, with a soft target
    update every target_update_period gradient steps.
    """
    learner = LEARNERS[kind]
    spec = learner.network_spec(env, cfg)
    actor = learner.policy(spec, init_params(spec, rng), env)
    target = clone_params(actor.params)
    opt = make_optimizer(cfg.optimizer, cfg.alpha)
    replay = learner.replay(env, cfg)
    baseline = RewardBaseline(cfg.center_rewards, cfg.scale_rewards)
    # The conventional direction keeps 1 - tau of the old target.
    keep = 1.0 - cfg.tau if cfg.polyak_conventional else cfg.tau
    curve: list[tuple[int, float, float]] = []
    grad_steps = 0
    for ep in range(cfg.episodes):
        actor.eps = epsilon_at(cfg, ep)
        opt.lr = alpha_at(cfg, ep)
        total = 0.0
        for n, (s, a, out, _, r) in enumerate(
                rewarded_slots(actor, env, rng)):
            replay.record(s, env.action_index(a), r, out.next_state)
            baseline.add(r)
            total += r
            if n % cfg.update_every == 0 and \
                    (batch := replay.sample_batch(cfg, rng)) is not None:
                actor.params, _ = learner.update(
                    spec, actor.params, target, opt, batch, env, cfg,
                    baseline.value, baseline.scale)
                grad_steps += 1
                if grad_steps % cfg.target_update_period == 0:
                    target = polyak_update(target, actor.params, keep)
        replay.end_episode()
        curve.append((ep, total, actor.eps))
    return TrainResult(label=label or kind, spec=spec, params=actor.params,
                       curve=curve)
