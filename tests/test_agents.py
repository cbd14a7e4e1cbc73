import dataclasses

import numpy as np
import pytest

from mecpriv.agents import (AgentConfig, EpisodeBuffer, EpisodeTrace, QPolicy,
                            TransitionBuffer, encode, epsilon_at,
                            epsilon_greedy, network_spec, obs_dim, q_update,
                            state_dim)
from mecpriv.agents.common import RewardBaseline, alpha_at, loss_gradient
from mecpriv.baselines import GreedyPolicy
from mecpriv.env import (EnvParams, mdp, reward, sample_initial_state,
                         state_id, step)
from mecpriv.harness import desk_agent, desk_env, evaluate, train
from mecpriv.nn import (Adam, backward, clone_params, forward, forward_step,
                        init_params, polyak_update)
from mecpriv.nn.network import zeros_like_params

from conftest import action_id
from test_privacy import ReferenceWindow, reference_breakdown

P = EnvParams()
TINY_ENV = EnvParams(episode_len=40, window=8, privacy_weight=1.0)
TINY_DQN = AgentConfig(episodes=3, batch_size=8, buffer_capacity=200,
                       dense_layers=1, dense_units=8, update_every=2)
TINY_DRQN = AgentConfig(episodes=3, batch_size=4, buffer_capacity=400,
                        seq_len=8, tbptt_len=4, gru_layers=1, gru_units=8,
                        dense_layers=1, dense_units=8, update_every=4)


class TestEncoding:
    def test_state_encoding_three_ones(self):
        x = encode(state_id(0, 0, 0, P), P)
        assert x.shape == (12,) and x.sum() == 3.0
        assert list(np.flatnonzero(x)) == [0, 4, 10]

    def test_observation_dimension(self):
        assert state_dim(P) == 12
        assert obs_dim(P) == 66
        x = encode(state_id(0, 0, 0, P), P, prev=-1)
        assert x.shape == (66,) and x.sum() == 3.0
        x = encode(state_id(1, 2, 1, P), P, prev=7)
        assert x.sum() == 4.0 and x[12 + 7] == 1.0

    def test_injective_over_states(self):
        seen = {tuple(encode(s, P)) for s in range(P.n_states)}
        assert len(seen) == P.n_states
        for d in range(P.d_max + 1):
            for b in range(P.b_max + 1):
                for g in (0, 1):
                    x = encode(state_id(d, b, g, P), P)
                    assert list(np.flatnonzero(x)) == [d, 4 + b, 10 + g]

    def test_injective_with_prev_actions(self):
        seen = {tuple(encode(state_id(1, 1, 1, P), P, prev=a))
                for a in [-1, *range(P.n_actions)]}
        assert len(seen) == P.n_actions + 1

    def test_arrays_encode_like_scalars(self):
        rng = np.random.default_rng(8)
        d, b, g = (rng.integers(0, n, size=(5, 3)) for n in (4, 6, 2))
        prev = rng.integers(-1, P.n_actions, size=(5, 3))
        s = state_id(d, b, g, P)
        x = encode(s, P, prev)
        assert x.shape == (5, 3, 66)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(x[i, j], encode(s[i, j], P, prev[i, j]))


class TestEpsilonGreedy:
    def test_greedy_picks_argmax(self):
        rng = np.random.default_rng(0)
        q = np.array([1.0, 3.0, 2.0])
        mask = np.array([True, True, True])
        assert epsilon_greedy(q, mask, 0.0, rng) == 1

    def test_greedy_respects_mask(self):
        rng = np.random.default_rng(0)
        q = np.array([1.0, 3.0, 2.0])
        mask = np.array([True, False, True])
        assert epsilon_greedy(q, mask, 0.0, rng) == 2

    def test_ties_break_low(self):
        rng = np.random.default_rng(0)
        q = np.zeros(4)
        mask = np.array([False, True, True, True])
        assert epsilon_greedy(q, mask, 0.0, rng) == 1

    def test_full_exploration_uniform(self):
        rng = np.random.default_rng(1)
        mask = np.array([True, False, True, True, False])
        counts = np.zeros(5)
        n = 100_000
        for _ in range(n):
            counts[epsilon_greedy(np.zeros(5), mask, 1.0, rng)] += 1
        assert counts[1] == counts[4] == 0
        assert np.all(np.abs(counts[[0, 2, 3]] / n - 1 / 3) < 0.01)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            epsilon_greedy(np.zeros(3), np.zeros(3, dtype=bool), 0.5,
                           np.random.default_rng(0))

    def test_epsilon_schedule_formula(self):
        cfg = AgentConfig(epsilon_start=1.0, epsilon_decay=0.995,
                          epsilon_min=0.01)
        for n in (0, 1, 10, 500, 2000):
            assert epsilon_at(cfg, n) == max(0.01, 0.995 ** n)

    def test_alpha_schedule_formula(self):
        cfg = AgentConfig(alpha=2e-3, alpha_decay=0.99)
        for n in (0, 1, 10, 299):
            assert alpha_at(cfg, n) == 2e-3 * 0.99 ** n
        assert alpha_at(AgentConfig(alpha=1e-4), 500) == 1e-4

    @pytest.mark.parametrize("decay", [0.0, -0.5, 1.5])
    def test_alpha_decay_validated(self, decay):
        with pytest.raises(ValueError):
            AgentConfig(alpha_decay=decay)


def one_slot_batch(s, a, r, s_next):
    """A batch (x_on, x_tg, acts, rews, next_ids) of one one-slot sequence."""
    x = encode([s, s_next], P)
    return (x[:1, None], x[1:, None], np.array([[a]]), np.array([[r]]),
            np.array([[s_next]]))


def constant_q(spec, value):
    """Params whose net outputs value for every action and input."""
    params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
    params[-1]["b"][:] = value
    return params


def reference_dqn_update(spec, params, target_params, opt, transitions, env,
                         cfg, baseline, scale):
    """The feed-forward update as it was written before the learners were
    merged: per-transition states, targets from a separate encoding of the
    next states."""
    next_states = np.array([tr[3] for tr in transitions])
    q_next = forward(spec, target_params,
                     encode(next_states, env)[None, :, :],
                     collect_cache=False)[0][0]
    best = np.where(mdp(env).valid[next_states], q_next,
                    -np.inf).max(axis=-1)
    y = (np.array([tr[2] for tr in transitions]) - baseline) / scale \
        + cfg.gamma * best
    actions = np.array([tr[1] for tr in transitions])
    xs = encode(np.array([tr[0] for tr in transitions]), env)[None, :, :]
    out, _, cache = forward(spec, params, xs)
    rows = np.arange(len(transitions))
    err = out[0][rows, actions] - y
    dout = np.zeros_like(out)
    dout[0][rows, actions] = loss_gradient(err, cfg.loss)
    return opt.step(params, backward(cache, dout)), float(np.mean(err * err))


class TestTdTargets:
    # A net with zero weights outputs its last bias for every action, so
    # the online value q and the target's best next value are constants,
    # and the loss of one slot is (q - target)^2.
    SPEC = network_spec(P, AgentConfig(dense_layers=1, dense_units=8), False)

    def loss(self, r, gamma, q=1.0, best=2.0, baseline=0.0, scale=1.0):
        batch = one_slot_batch(state_id(1, 0, 1, P), 0, r,
                               state_id(2, 0, 1, P))
        cfg = AgentConfig(gamma=gamma)
        _, loss = q_update(self.SPEC, constant_q(self.SPEC, q),
                           constant_q(self.SPEC, best), Adam(0.1), batch, P,
                           cfg, baseline, scale)
        return loss

    def test_arithmetic(self):
        # target 1.0 + 0.5 * 2.0 = 2.0
        assert self.loss(1.0, 0.5) == (1.0 - 2.0) ** 2

    def test_baseline_and_scale_transform_reward(self):
        # target (7.0 - 3.0) / 2.0 + 0.5 * 2.0 = 3.0
        assert self.loss(7.0, 0.5, baseline=3.0, scale=2.0) == \
            (1.0 - 3.0) ** 2

    def test_reward_baseline_tracks_mean_and_std(self):
        rewards = [3.0, -1.0, 4.0, 10.0]
        off = RewardBaseline(False, False)
        center = RewardBaseline(True, False)
        scale = RewardBaseline(False, True)
        for rb in (off, center, scale):
            assert (rb.value, rb.scale) == (0.0, 1.0)
            for r in rewards:
                rb.add(r)
        assert (off.value, off.scale) == (0.0, 1.0)
        assert center.value == pytest.approx(np.mean(rewards))
        assert center.scale == 1.0
        assert scale.value == 0.0
        assert scale.scale == pytest.approx(np.std(rewards))

    def test_gamma_zero_returns_reward(self):
        # the target is the reward alone, whatever the next values
        assert self.loss(-3.5, 0.0, best=1e6) == (1.0 + 3.5) ** 2

    def test_matches_scalar_recompute(self):
        rng = np.random.default_rng(5)
        spec = network_spec(P, TINY_DQN, False)
        params, target = (init_params(spec, rng) for _ in range(2))
        buf = TransitionBuffer(64)
        for _ in range(64):
            buf.record(int(rng.integers(48)), int(rng.integers(54)),
                       float(rng.normal()), int(rng.integers(48)))
        cfg = dataclasses.replace(TINY_DQN, batch_size=64)
        batch = buf.sample_batch(cfg, P, np.random.default_rng(1))
        _, loss = q_update(spec, params, target, Adam(0.1), batch, P, cfg)
        x_on, x_tg, acts, rews, next_ids = batch
        errs = []
        for i in range(64):
            q = forward(spec, params, x_on[:, i:i + 1], collect_cache=False)
            q_next = forward(spec, target, x_tg[:, i:i + 1],
                             collect_cache=False)
            best = q_next[0][0, 0][mdp(P).valid[next_ids[0, i]]].max()
            errs.append(q[0][0, 0, acts[0, i]] - (rews[0, i] + 0.9 * best))
        # batched and single-row matmuls may differ in the last ulp
        assert loss == pytest.approx(np.mean(np.square(errs)), rel=1e-12)

    def test_zero_td_error_gives_zero_update(self):
        rng = np.random.default_rng(6)
        spec = network_spec(P, TINY_DQN, False)
        params = init_params(spec, rng)
        samples = [(int(rng.integers(48)), int(rng.integers(54)),
                    int(rng.integers(48))) for _ in range(16)]
        xs = encode(np.array([s for s, _, _ in samples]), P)
        q_now = forward(spec, params, xs[None], collect_cache=False)[0][0]
        # gamma = 0 makes the targets exactly the current taken-action
        # values; Adam moves no parameter on a zero gradient
        buf = TransitionBuffer(16)
        for i, (s, a, s2) in enumerate(samples):
            buf.record(s, a, float(q_now[i, a]), s2)
        cfg = dataclasses.replace(TINY_DQN, batch_size=16, gamma=0.0)
        batch = buf.sample_batch(cfg, P, np.random.default_rng(0))
        new_params, loss = q_update(spec, params, params, Adam(0.1), batch,
                                    P, cfg)
        assert loss == 0.0
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(params, new_params) for k in a)

    @pytest.mark.parametrize("loss", ["mse", "huber"])
    def test_one_slot_update_is_the_dqn_update_bitwise(self, loss):
        rng = np.random.default_rng(11)
        spec = network_spec(P, TINY_DQN, False)
        params, target = (init_params(spec, rng) for _ in range(2))
        transitions = [(int(rng.integers(48)), int(rng.integers(54)),
                        float(rng.normal(30.0, 20.0)),
                        int(rng.integers(48))) for _ in range(50)]
        buf = TransitionBuffer(32)  # wraps: holds the last 32
        for tr in transitions:
            buf.record(*tr)
        ring = transitions[-32:]
        ring = ring[-(50 % 32):] + ring[:-(50 % 32)]  # by ring position
        cfg = dataclasses.replace(TINY_DQN, batch_size=20, loss=loss)
        batch = buf.sample_batch(cfg, P, np.random.default_rng(3))
        drawn = np.random.default_rng(3).integers(0, 32, size=20)
        opts = (Adam(1e-2), Adam(1e-2))
        for _ in range(3):  # Adam's moments carry over between steps
            got, got_loss = q_update(spec, params, target, opts[0], batch, P,
                                     cfg, 31.5, 17.25)
            want, want_loss = reference_dqn_update(
                spec, params, target, opts[1], [ring[i] for i in drawn], P,
                cfg, 31.5, 17.25)
            assert got_loss == want_loss
            assert all(np.array_equal(a[k], b[k])
                       for a, b in zip(got, want) for k in a)
            params = got

    def test_loss_gradient_shapes(self):
        err = np.array([[1.0, -4.0]])
        assert np.allclose(loss_gradient(err, "mse"), err)
        assert np.allclose(loss_gradient(err, "huber"),
                           np.array([[0.5, -0.5]]))


class TestReplay:
    S0 = state_id(0, 0, 0, P)

    def test_ring_eviction_order(self):
        buf = TransitionBuffer(3)
        for a in range(5):
            buf.record(state_id(a % 4, 0, 0, P), a, float(a), self.S0)
        assert len(buf) == 3
        # records 3 and 4 overwrote ring positions 0 and 1
        cfg = AgentConfig(batch_size=3)
        _, _, acts, rews, _ = buf.sample_batch(cfg, P,
                                               np.random.default_rng(3))
        drawn = np.random.default_rng(3).integers(0, 3, size=3)
        assert len(set(drawn)) > 1
        assert np.array_equal(acts[0], np.array([3, 4, 2])[drawn])
        assert np.array_equal(rews[0], np.array([3.0, 4.0, 2.0])[drawn])

    def test_sampling_reproducible(self):
        buf = TransitionBuffer(10)
        for i in range(10):
            buf.record(state_id(i % 4, i % 6, i % 2, P), i, float(i),
                       state_id(0, i % 6, 0, P))
        cfg = AgentConfig(batch_size=6)
        a, b = (buf.sample_batch(cfg, P, np.random.default_rng(3))
                for _ in range(2))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_empty_sample_rejected(self):
        # neither store hands out a batch before it can fill one
        cfg = AgentConfig(batch_size=2, seq_len=8, tbptt_len=4)
        rng = np.random.default_rng(0)
        buf = TransitionBuffer(4)
        assert buf.sample_batch(cfg, P, rng) is None
        buf.record(self.S0, 0, 0.0, self.S0)
        assert buf.sample_batch(cfg, P, rng) is None
        assert EpisodeBuffer(100).sample_batch(cfg, P, rng) is None

    def test_batches_encode_the_stored_slots(self):
        buf = TransitionBuffer(2)
        buf.record(state_id(1, 2, 1, P), 7, 0.5, state_id(3, 4, 0, P))
        x_on, x_tg, acts, rews, next_ids = buf.sample_batch(
            AgentConfig(batch_size=1), P, np.random.default_rng(0))
        assert np.array_equal(x_on[0, 0], encode(state_id(1, 2, 1, P), P))
        assert np.array_equal(x_tg[0, 0], encode(state_id(3, 4, 0, P), P))
        assert (acts.shape, acts[0, 0], rews[0, 0]) == ((1, 1), 7, 0.5)
        assert next_ids[0, 0] == state_id(3, 4, 0, P)

    def _trace(self, n, tag=0):
        return EpisodeTrace(states=np.zeros(n + 1, dtype=np.int64),
                            actions=np.full(n, tag, dtype=np.int64),
                            rewards=np.zeros(n))

    def test_episode_buffer_step_cap(self):
        buf = EpisodeBuffer(100)
        for tag in range(5):
            buf.push(self._trace(40, tag))
        assert buf.steps <= 100
        assert [int(ep.actions[0]) for ep in buf._episodes] == [3, 4]

    def test_window_bounds(self):
        buf = EpisodeBuffer(1000)
        buf.push(self._trace(20))
        rng = np.random.default_rng(1)
        for ep, start in buf.sample_windows(50, 8, rng):
            assert 0 <= start <= len(ep) - 8

    def test_too_long_window_rejected(self):
        buf = EpisodeBuffer(1000)
        buf.push(self._trace(5))
        with pytest.raises(ValueError):
            buf.sample_windows(1, 8, np.random.default_rng(0))

    def test_inconsistent_trace_rejected(self):
        with pytest.raises(ValueError):
            EpisodeTrace(states=np.zeros(3, dtype=np.int64),
                         actions=np.zeros(3, dtype=np.int64),
                         rewards=np.zeros(3))


class TestTraining:
    def test_dqn_deterministic_curves(self):
        runs = [train("dqn", TINY_ENV, TINY_DQN, np.random.default_rng(9))
                for _ in range(2)]
        assert runs[0].curve == runs[1].curve

    def test_drqn_deterministic_curves(self):
        runs = [train("drqn", TINY_ENV, TINY_DRQN, np.random.default_rng(9))
                for _ in range(2)]
        assert runs[0].curve == runs[1].curve

    def test_drqn_degenerate_window_trains(self):
        cfg = dataclasses.replace(TINY_DRQN, seq_len=1, tbptt_len=1)
        result = train("drqn", TINY_ENV, cfg, np.random.default_rng(2))
        assert len(result.curve) == cfg.episodes
        assert all(np.isfinite(r) for _, r, _ in result.curve)

    def test_drqn_seq_len_validated(self):
        cfg = dataclasses.replace(TINY_DRQN, seq_len=100)
        with pytest.raises(ValueError):
            train("drqn", TINY_ENV, cfg, np.random.default_rng(0))

    def test_scaled_dqn_matches_greedy_cost(self):
        env = dataclasses.replace(desk_env(), episode_len=300,
                                  privacy_weight=0.0)
        cfg = desk_agent("dqn", episodes=200)
        result = train("dqn", env, cfg, np.random.default_rng(77))
        policy = QPolicy(result.spec, result.params, env)
        ours = evaluate(policy, env, 10, (5, 6), "dqn").avg_cost_per_task
        ref = evaluate(GreedyPolicy(env), env, 10, (5, 6),
                       "greedy").avg_cost_per_task
        assert ours <= 1.10 * ref

    def test_drqn_reward_trend(self, drqn_lambda10_run):
        env, cfg, result = drqn_lambda10_run
        rewards = result.curve_rewards()
        ma = np.convolve(rewards, np.ones(50) / 50, mode="valid")
        second_half = ma[len(ma) // 2:]
        # improving trend: no deep dips below the running best
        drops = np.maximum.accumulate(second_half) - second_half
        span = second_half.max() - rewards[:50].mean()
        assert second_half[-1] >= second_half[0]
        assert drops.max() <= 0.15 * abs(span) + 1e-9

    def test_drqn_beats_dqn_reward(self, drqn_lambda10_run, dqn_lambda10_run):
        _, _, drqn_result = drqn_lambda10_run
        _, _, dqn_result = dqn_lambda10_run
        assert drqn_result.curve_rewards()[-50:].mean() >= \
            dqn_result.curve_rewards()[-50:].mean()


def epsilon_greedy_slots(actor, eps, env, rng):
    """The trainer's slot order: the initial state, then per slot the
    act's draws and the step's; yields (state, action, next state)."""
    actor.reset(1)
    s = sample_initial_state(rng, env)
    for _ in range(env.episode_len):
        q = actor.values(np.array([s]))[0]
        a = actor.prev[0] = epsilon_greedy(q, mdp(env).valid[s], eps, rng)
        s_next = step(s, a, rng, env)
        yield s, a, s_next
        s = s_next


def reference_train(kind, env, cfg, rng):
    """The slot-by-slot trainer that chunked scoring replaced: each slot's
    reward from a ReferenceWindow, stored, then an update every
    update_every slots. Returns the curve and the final params."""
    recurrent = kind == "drqn"
    m = mdp(env)
    spec = network_spec(env, cfg, recurrent)
    actor = QPolicy(spec, init_params(spec, rng), env)
    target = clone_params(actor.params)
    opt = Adam(cfg.alpha)
    replay = (EpisodeBuffer if recurrent else TransitionBuffer)(
        cfg.buffer_capacity)
    baseline = RewardBaseline(cfg.center_rewards, cfg.scale_rewards)
    curve, grad_steps = [], 0
    for ep in range(cfg.episodes):
        eps = epsilon_at(cfg, ep)
        opt.lr = alpha_at(cfg, ep)
        window = ReferenceWindow(env.window, env.d_max, env.t_max)
        total = 0.0
        for n, (s, a, s_next) in enumerate(
                epsilon_greedy_slots(actor, eps, env, rng)):
            window.push((m.d[s], m.g[s], m.t[a]))
            r = reward(float(m.cost[s, a]),
                       reference_breakdown(window)["p_total"],
                       env.privacy_weight)
            replay.record(s, a, r, s_next)
            baseline.add(r)
            total += r
            if n % cfg.update_every == 0 and \
                    (batch := replay.sample_batch(cfg, env, rng)) is not None:
                actor.params, _ = q_update(
                    spec, actor.params, target, opt, batch, env, cfg,
                    baseline.value, baseline.scale)
                grad_steps += 1
                if grad_steps % cfg.target_update_period == 0:
                    target = polyak_update(target, actor.params, cfg.tau)
        replay.end_episode()
        curve.append((ep, total, eps))
    return curve, actor.params


class TestChunkedTraining:
    """train scores rewards a chunk of slots at a time; every float must be
    that of the slot-by-slot loop."""

    @pytest.mark.parametrize("update_every", [1, 3, 7])
    @pytest.mark.parametrize("kind", ["dqn", "drqn"])
    def test_bits_equal_slot_by_slot_reference(self, kind, update_every):
        # 50 slots are a multiple of neither period, so the last chunk
        # ends between updates at 3 and on an update at 7
        env = EnvParams(episode_len=50, window=8, privacy_weight=1.0)
        cfg = dataclasses.replace(TINY_DRQN if kind == "drqn" else TINY_DQN,
                                  update_every=update_every,
                                  center_rewards=True, scale_rewards=True)
        result = train(kind, env, cfg, np.random.default_rng(21))
        curve, params = reference_train(kind, env, cfg,
                                        np.random.default_rng(21))
        assert result.curve == curve
        for got, want in zip(result.params, params):
            assert {k: v.tobytes() for k, v in got.items()} == \
                {k: v.tobytes() for k, v in want.items()}


class TestGreedyActing:
    def test_policy_table_covers_state_space(self, dqn_lambda0_run):
        env, _, result = dqn_lambda0_run
        pol = QPolicy(result.spec, result.params, env)
        pol.reset(env.n_states)
        table = pol.act(np.arange(env.n_states))
        assert table.shape == (48,)
        for s, a in enumerate(table):
            assert mdp(env).valid[s, a]

    def test_equal_q_values_pick_lowest_valid(self):
        spec = network_spec(P, TINY_DRQN, True)
        params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
        pol = QPolicy(spec, params, P)
        pol.reset(3)
        s = state_id(np.array([3, 0, 1]), np.array([2, 0, 5]),
                     np.array([1, 0, 0]), P)
        assert list(pol.act(s)) == [action_id(0, 0, P)] * 3

    def test_recurrent_policy_deterministic_stream(self):
        rng = np.random.default_rng(4)
        spec = network_spec(P, TINY_DRQN, True)
        params = init_params(spec, rng)
        stream = [state_id(int(rng.integers(4)), int(rng.integers(6)),
                           int(rng.integers(2)), P) for _ in range(30)]
        pol = QPolicy(spec, params, P)
        seqs = []
        for _ in range(2):
            pol.reset(1)
            seqs.append([int(pol.act(np.array([s]))[0]) for s in stream])
        assert seqs[0] == seqs[1]

    @pytest.mark.parametrize("recurrent", [False, True])
    def test_acting_follows_assigned_params(self, recurrent):
        rng = np.random.default_rng(8)
        cfg = TINY_DRQN if recurrent else TINY_DQN
        spec = network_spec(P, cfg, recurrent)
        old, new = init_params(spec, rng), init_params(spec, rng)
        stream = [int(s) for s in rng.integers(0, P.n_states, size=20)]

        def episode(policy):
            policy.reset(1)
            return [int(policy.act(np.array([s]))[0]) for s in stream]

        pol = QPolicy(spec, old, P)
        before = episode(pol)
        pol.params = new  # as the trainer assigns after an update
        acts = episode(pol)
        # the same episode stepped through forward_step with the new params
        h, prev, want = None, -1, []
        for s in stream:
            x = encode(s, P, prev if recurrent else None)[None]
            q, h = forward_step(spec, new, x, h)
            prev = int(np.argmax(np.where(mdp(P).valid[s], q[0], -np.inf)))
            want.append(prev)
        assert acts == want != before
        assert [v.tobytes() for v in pol._h] == [v.tobytes() for v in h]

    def test_policies_emit_only_valid_actions(self, dqn_lambda0_run):
        env, _, result = dqn_lambda0_run
        pol = QPolicy(result.spec, result.params, env)
        pol.reset(env.n_states)
        acts = pol.act(np.arange(env.n_states))
        assert mdp(env).valid[np.arange(env.n_states), acts].all()
