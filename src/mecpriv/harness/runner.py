"""The episode engine, the runs and metrics built on it, and training."""
from __future__ import annotations

from dataclasses import make_dataclass

import numpy as np

from ..agents import (AgentConfig, EpisodeBuffer, QPolicy, TrainResult,
                      TransitionBuffer, epsilon_at, network_spec, q_update)
from ..agents.common import RewardBaseline, alpha_at, epsilon_greedy
from ..baselines import Policy
from ..env import (EnvParams, mdp, reward, sample_initial_state, state_id,
                   step)
from ..nn import Adam, clone_params, init_params, polyak_update
from ..privacy import privacy_breakdown


METRIC_FIELDS = ("avg_cost_per_task", "avg_delay_per_task",
                 "avg_energy_per_task", "h_dt", "h_gt", "heuristic",
                 "avg_reward_per_step")


def _record(name: str, fields, doc: str):
    """A frozen dataclass of the named fields, picklable from here."""
    return make_dataclass(name, fields, frozen=True,
                          namespace={"__module__": __name__, "__doc__": doc})


EpisodeMetrics = _record(
    "EpisodeMetrics",
    [*METRIC_FIELDS, "tasks_handled", "tasks_generated", "buffer_final"],
    "One episode's metrics and task accounting.")
EpisodeLog = _record(
    "EpisodeLog",
    ["d", "b", "g", "q", "t", "l", "latency", "energy", "cost", "h_dt",
     "h_gt", "p_total", "heuristic", "reward", "buffer_final"],
    "Per-slot arrays of one episode, and its final buffer.")
RunRecord = _record(
    "RunRecord",
    ["label", *METRIC_FIELDS, *(f"{f}_std" for f in METRIC_FIELDS),
     "episodes"],
    "Aggregated evaluation row: means and stds across episodes.")


# Most episodes in one block of lanes; bounds the memory a block takes.
LANES = 32


def draw(rng: np.random.Generator, episodes: int, env: EnvParams):
    """The randomness of episodes played from one stream, as (episodes, L)
    arrays d, g, coin, pick. The exogenous draws come first: each
    episode's initial demand and channel, every later slot's demand, a
    channel-stay uniform per slot. Then the policy's: a coin per slot, a
    pick per slot. So every policy meets the same demand and channel."""
    n, L = episodes, env.episode_len
    first = rng.integers(0, (env.d_max + 1, 2), size=(n, 2))
    d = rng.integers(0, env.d_max + 1, size=(n, L - 1))
    flips = np.cumsum(rng.random((n, L - 1)) >= env.p_channel_stay, axis=1)
    coin, pick = rng.random((2, n, L))
    d = np.concatenate((first[:, :1], d), axis=1)
    g = np.concatenate((first[:, 1:], (first[:, 1:] + flips) % 2), axis=1)
    return d, g, coin, pick


def play(policy: Policy, env: EnvParams, d, g, coin, pick):
    """Play one block of pre-drawn episodes in lockstep as lanes, on draw's
    arrays; returns the (episodes, L) state and action ids.

    Only the buffer depends on the actions: b[0] = 0, b[t + 1] = q[a[t]].
    """
    n, L = d.shape
    if n == 1 and not policy.tabular:
        # A one-row matmul takes BLAS's matrix-vector path, whose last
        # bits differ from those of the same row in a batch; a twin lane
        # keeps a lane's Q values independent of the lanes beside it.
        s, a = play(policy, env, *(np.repeat(x, 2, axis=0)
                                   for x in (d, g, coin, pick)))
        return s[:1], a[:1]
    q = mdp(env).q
    b = np.zeros((n, L + 1), dtype=np.intp)
    lanes = np.arange(n)
    if policy.tabular:
        # Each slot's action at every buffer level; the chain then follows
        # the level the lane holds.
        every = policy.act(state_id(d[..., None], np.arange(env.b_max + 1),
                                    g[..., None], env),
                           coin[..., None], pick[..., None])
        b_next = q[every]
        for t in range(L):
            b[:, t + 1] = b_next[lanes, t, b[:, t]]
        a = every[lanes[:, None], np.arange(L), b[:, :L]]
    else:
        a = np.empty((n, L), dtype=np.intp)
        policy.reset(n)
        for t in range(L):
            a[:, t] = policy.act(state_id(d[:, t], b[:, t], g[:, t], env),
                                 coin[:, t], pick[:, t])
            b[:, t + 1] = q[a[:, t]]
    return state_id(d, b[:, :L], g, env), a


def scored(s: np.ndarray, a: np.ndarray, env: EnvParams, start: int = 0):
    """Privacy breakdown and rewards of slots start.. of a run of state and
    action ids; the slots before start only fill their windows."""
    m = mdp(env)
    br = privacy_breakdown(m.d[s], m.g[s], m.t[a], env.window, env.d_max,
                           env.t_max, start)
    return br, reward(m.cost[s[start:], a[start:]], br.p_total,
                      env.privacy_weight)


def episode_log(s: np.ndarray, a: np.ndarray, env: EnvParams) -> EpisodeLog:
    """Score and log every slot of one played episode."""
    m = mdp(env)
    br, r = scored(s, a, env)
    return EpisodeLog(d=m.d[s], b=m.b[s], g=m.g[s], q=m.q[a], t=m.t[a],
                      l=m.l[s, a].astype(np.int64), latency=m.latency[s, a],
                      energy=m.energy[s, a], cost=m.cost[s, a],
                      heuristic=m.heuristic[s, a], h_dt=br.h_dt, h_gt=br.h_gt,
                      p_total=br.p_total, reward=r,
                      buffer_final=int(m.q[a[-1]]))


def run_episodes(policy: Policy, env: EnvParams, streams) -> list[EpisodeLog]:
    """The logs of one episode from each stream, LANES played at a time."""
    logs = []
    for lo in range(0, len(streams), LANES):
        drawn = [draw(rng, 1, env) for rng in streams[lo:lo + LANES]]
        s, a = play(policy, env, *map(np.concatenate, zip(*drawn)))
        logs += [episode_log(s_k, a_k, env) for s_k, a_k in zip(s, a)]
    return logs


def run_episode(policy: Policy, env: EnvParams,
                rng: np.random.Generator) -> EpisodeLog:
    """The one episode of rng's stream."""
    return run_episodes(policy, env, [rng])[0]


def episode_metrics(log: EpisodeLog) -> EpisodeMetrics:
    """Per-task averages divide by tasks completed (local + offloaded)."""
    tasks = int(log.l.sum() + log.t.sum())
    denom = float(tasks) if tasks > 0 else float("nan")
    return EpisodeMetrics(
        *(float(x.sum() / denom) for x in (log.cost, log.latency, log.energy)),
        *(float(x.mean()) for x in (log.h_dt, log.h_gt, log.heuristic,
                                    log.reward)),
        tasks, int(log.d.sum()), log.buffer_final)


def episode_rng(seed: int, episode: int) -> np.random.Generator:
    """Deterministic per-episode stream, independent of execution order."""
    return np.random.default_rng([seed, episode])


def evaluate(policy: Policy, env: EnvParams, episodes: int,
             seeds: tuple[int, ...], label: str) -> RunRecord:
    """Average episode metrics over fresh episodes for every seed."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    rows = [episode_metrics(log) for log in run_episodes(policy, env, [
        episode_rng(seed, ep) for seed in seeds for ep in range(episodes)])]
    values = [np.array([getattr(r, name) for r in rows])
              for name in METRIC_FIELDS]
    return RunRecord(label, *(float(v.mean()) for v in values),
                     *(float(v.std()) for v in values), len(rows))


def rollout_trace(policy: Policy, env: EnvParams, rng: np.random.Generator,
                  n_steps: int) -> np.ndarray:
    """Collect (d, g, t) rows over as many fresh episodes as needed, drawn
    from rng's one stream LANES episodes at a time."""
    trace = np.empty((-(-n_steps // env.episode_len), env.episode_len, 3),
                     dtype=np.int64)
    for lo in range(0, len(trace), LANES):
        d, g, coin, pick = draw(rng, min(LANES, len(trace) - lo), env)
        _, a = play(policy, env, d, g, coin, pick)
        trace[lo:lo + LANES] = np.stack([d, g, mdp(env).t[a]], axis=-1)
    return trace.reshape(-1, 3)[:n_steps]


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
    valid = mdp(env).valid
    for ep in range(cfg.episodes):
        eps = epsilon_at(cfg, ep)
        opt.lr = alpha_at(cfg, ep)
        total = 0.0
        scored_to = 0
        actor.reset(1)
        states[0] = sample_initial_state(rng, env)
        for n in range(env.episode_len):
            # Per slot, the act's draws and then the step's.
            q = actor.values(states[n:n + 1])[0]
            actor.prev[0] = actions[n] = epsilon_greedy(
                q, valid[states[n]], eps, rng)
            states[n + 1] = step(states[n], actions[n], rng, env)
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
        curve.append((ep, total, eps))
    return TrainResult(label=label or kind, spec=spec, params=actor.params,
                       curve=curve)
