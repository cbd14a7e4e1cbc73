import dataclasses

import numpy as np
import pytest

from mecpriv.agents import (AgentConfig, DQNPolicy, DRQNPolicy, EpisodeBuffer,
                            EpisodeTrace, Transition, TransitionBuffer,
                            dqn_network_spec, dqn_update, drqn_network_spec,
                            encode, epsilon_at, epsilon_greedy, obs_dim,
                            state_dim, td_targets)
from mecpriv.agents.common import RewardBaseline, alpha_at, loss_gradient
from mecpriv.baselines import GreedyPolicy
from mecpriv.env import Action, EnvParams, State, action_mask, valid_actions
from mecpriv.harness import desk_agent, desk_env, evaluate, train
from mecpriv.nn import SGD, init_params
from mecpriv.nn.network import zeros_like_params

P = EnvParams()
TINY_ENV = EnvParams(episode_len=40, window=8, privacy_weight=1.0)
TINY_DQN = AgentConfig(episodes=3, batch_size=8, buffer_capacity=200,
                       dense_layers=1, dense_units=8, update_every=2)
TINY_DRQN = AgentConfig(episodes=3, batch_size=4, buffer_capacity=400,
                        seq_len=8, tbptt_len=4, gru_layers=1, gru_units=8,
                        dense_layers=1, dense_units=8, update_every=4)


class TestEncoding:
    def test_state_encoding_three_ones(self):
        x = encode(0, 0, 0, P)
        assert x.shape == (12,) and x.sum() == 3.0
        assert list(np.flatnonzero(x)) == [0, 4, 10]

    def test_observation_dimension(self):
        assert state_dim(P) == 12
        assert obs_dim(P) == 66
        x = encode(0, 0, 0, P, prev=-1)
        assert x.shape == (66,) and x.sum() == 3.0
        x = encode(1, 2, 1, P, prev=7)
        assert x.sum() == 4.0 and x[12 + 7] == 1.0

    def test_injective_over_states(self):
        seen = {tuple(encode(s.d, s.b, s.g, P)) for s in P.all_states()}
        assert len(seen) == P.n_states

    def test_injective_with_prev_actions(self):
        seen = {tuple(encode(1, 1, 1, P, prev=a))
                for a in [-1, *range(P.n_actions)]}
        assert len(seen) == P.n_actions + 1

    def test_arrays_encode_like_scalars(self):
        rng = np.random.default_rng(8)
        d, b, g = (rng.integers(0, n, size=(5, 3)) for n in (4, 6, 2))
        prev = rng.integers(-1, P.n_actions, size=(5, 3))
        x = encode(d, b, g, P, prev)
        assert x.shape == (5, 3, 66)
        for i in range(5):
            for j in range(3):
                assert np.array_equal(
                    x[i, j], encode(d[i, j], b[i, j], g[i, j], P, prev[i, j]))


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


class TestTdTargets:
    class StubQ:
        """Fixed Q table over next states, valid everywhere."""

        def __init__(self, value, env):
            self.value = value
            self.env = env

        def q_batch(self, states):
            return np.full((len(states), self.env.n_actions), self.value)

    def test_arithmetic(self):
        batch = [Transition(State(1, 0, 1), 0, 1.0, State(2, 0, 1))]
        y = td_targets(batch, self.StubQ(2.0, P), gamma=0.9)
        assert y[0] == pytest.approx(2.8)

    def test_baseline_and_scale_transform_reward(self):
        batch = [Transition(State(1, 0, 1), 0, 7.0, State(2, 0, 1))]
        y = td_targets(batch, self.StubQ(2.0, P), 0.9, baseline=3.0,
                       scale=2.0)
        assert y[0] == pytest.approx((7.0 - 3.0) / 2.0 + 0.9 * 2.0)

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
        batch = [Transition(State(1, 0, 1), 0, -3.5, State(2, 0, 1))]
        assert td_targets(batch, self.StubQ(2.0, P), 0.0)[0] == -3.5

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            td_targets([], self.StubQ(0.0, P), 0.9)

    def test_matches_scalar_recompute(self):
        rng = np.random.default_rng(5)
        spec = dqn_network_spec(P, TINY_DQN)
        q = DQNPolicy(spec, init_params(spec, rng), P)
        states = P.all_states()
        batch = [Transition(states[rng.integers(48)], int(rng.integers(54)),
                            float(rng.normal()), states[rng.integers(48)])
                 for _ in range(64)]
        y = td_targets(batch, q, 0.9)
        for i, tr in enumerate(batch):
            qv = q.q_batch([tr.s_next])[0]
            best = qv[action_mask(tr.s_next, P)].max()
            # batched and single-row matmuls may differ in the last ulp
            assert y[i] == pytest.approx(tr.r + 0.9 * best, abs=1e-12)

    def test_zero_td_error_gives_zero_update(self):
        rng = np.random.default_rng(6)
        spec = dqn_network_spec(P, TINY_DQN)
        params = init_params(spec, rng)
        q = DQNPolicy(spec, params, P)
        states = P.all_states()
        samples = [(states[rng.integers(48)], int(rng.integers(54)),
                    states[rng.integers(48)]) for _ in range(16)]
        q_now = q.q_batch([s for s, _, _ in samples])
        # gamma = 0 makes the targets exactly the current taken-action values
        batch = [Transition(s, a, float(q_now[i, a]), s2)
                 for i, (s, a, s2) in enumerate(samples)]
        cfg = dataclasses.replace(TINY_DQN, optimizer="sgd", gamma=0.0)
        new_params, loss = dqn_update(spec, params, params, SGD(0.1), batch,
                                      P, cfg)
        assert loss == pytest.approx(0.0, abs=1e-20)
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(params, new_params) for k in a)

    def test_loss_gradient_shapes(self):
        err = np.array([[1.0, -4.0]])
        assert np.allclose(loss_gradient(err, "mse"), err)
        assert np.allclose(loss_gradient(err, "huber"),
                           np.array([[0.5, -0.5]]))


class TestReplay:
    def test_ring_eviction_order(self):
        buf = TransitionBuffer(3)
        trs = [Transition(State(0, 0, 0), i, 0.0, State(0, 0, 0))
               for i in range(5)]
        for tr in trs:
            buf.push(tr)
        assert len(buf) == 3
        stored = {tr.a for tr in buf._data}
        assert stored == {2, 3, 4}

    def test_sampling_reproducible(self):
        buf = TransitionBuffer(10)
        for i in range(10):
            buf.push(Transition(State(0, 0, 0), i, 0.0, State(0, 0, 0)))
        a = [t.a for t in buf.sample(6, np.random.default_rng(3))]
        b = [t.a for t in buf.sample(6, np.random.default_rng(3))]
        assert a == b

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            TransitionBuffer(4).sample(1, np.random.default_rng(0))

    def _trace(self, n, tag=0):
        return EpisodeTrace(d=np.zeros(n + 1, dtype=np.int64),
                            b=np.zeros(n + 1, dtype=np.int64),
                            g=np.zeros(n + 1, dtype=np.int64),
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
            EpisodeTrace(d=np.zeros(3, dtype=np.int64),
                         b=np.zeros(4, dtype=np.int64),
                         g=np.zeros(4, dtype=np.int64),
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
        policy = DQNPolicy(result.spec, result.params, env)
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


class TestGreedyActing:
    def test_policy_table_covers_state_space(self, dqn_lambda0_run):
        env, _, result = dqn_lambda0_run
        pol = DQNPolicy(result.spec, result.params, env)
        table = {s: pol.act(s) for s in env.all_states()}
        assert set(table) == set(env.all_states())
        for s, a in table.items():
            assert a in valid_actions(s, env)

    def test_equal_q_values_pick_lowest_valid(self):
        spec = drqn_network_spec(P, TINY_DRQN)
        params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
        pol = DRQNPolicy(spec, params, P)
        pol.reset(np.random.default_rng(0))
        for s in (State(3, 2, 1), State(0, 0, 0), State(1, 5, 0)):
            assert pol.act(s) == Action(0, 0)

    def test_recurrent_policy_deterministic_stream(self):
        rng = np.random.default_rng(4)
        spec = drqn_network_spec(P, TINY_DRQN)
        params = init_params(spec, rng)
        stream = [State(int(rng.integers(4)), int(rng.integers(6)),
                        int(rng.integers(2))) for _ in range(30)]
        pol = DRQNPolicy(spec, params, P)
        seqs = []
        for _ in range(2):
            pol.reset(rng)
            seqs.append([pol.act(s) for s in stream])
        assert seqs[0] == seqs[1]

    def test_policies_emit_only_valid_actions(self, dqn_lambda0_run):
        env, _, result = dqn_lambda0_run
        pol = DQNPolicy(result.spec, result.params, env)
        for s in env.all_states():
            assert pol.act(s) in valid_actions(s, env)
