import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest

from mecpriv.agents import (AgentConfig, EpisodeBuffer, QPolicy,
                            TransitionBuffer, encode, epsilon_at,
                            network_spec, obs_dim, q_update, state_dim)
from mecpriv.agents import qlearn
from mecpriv.agents.common import RewardBaseline, alpha_at, loss_gradient
from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy
from mecpriv.env import (EnvParams, mdp, reward, sample_initial_state,
                         state_id, step)
from mecpriv.harness import desk_agent, desk_env, evaluate, train
from mecpriv.nn import (Adam, NetworkSpec, backward, clone_params,
                        forward, forward_step, init_params, polyak_update)
from mecpriv.nn import network
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


def scatter_encode(s, p, prev=None):
    """The encoder as it was before the input table: one-hots scattered
    into zeros, row by row."""
    m = mdp(p)
    s = np.asarray(s)
    width = state_dim(p) if prev is None else obs_dim(p)
    x = np.zeros(s.shape + (width,))
    flat = x.reshape(-1, width)
    rows = np.arange(len(flat))
    s = s.ravel()
    flat[rows, m.d[s]] = 1.0
    flat[rows, p.d_max + 1 + m.b[s]] = 1.0
    flat[rows, p.d_max + p.b_max + 2 + m.g[s]] = 1.0
    if prev is not None:
        prev = np.ravel(prev)
        on = prev >= 0
        flat[rows[on], state_dim(p) + prev[on]] = 1.0
    return x


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

    @pytest.mark.parametrize("p", [P, EnvParams(d_max=1, b_max=0),
                                   EnvParams(d_max=0, b_max=2)],
                             ids=["default", "b_max-0", "d_max-0"])
    def test_equals_scatter_oracle_on_every_input(self, p):
        s, prev = np.meshgrid(np.arange(p.n_states),
                              np.arange(-1, p.n_actions), indexing="ij")
        for got, want in ((encode(s, p, prev), scatter_encode(s, p, prev)),
                          (encode(s[:, 0], p), scatter_encode(s[:, 0], p))):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        for si, pi in zip(s.ravel().tolist(), prev.ravel().tolist()):
            assert encode(si, p, pi).tobytes() == \
                scatter_encode(si, p, pi).tobytes()
            assert encode(si, p).tobytes() == scatter_encode(si, p).tobytes()

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


def bias_policy(q):
    """A QPolicy on the state encoding whose net is its linear output
    layer alone with zero weights, so its biases q are the Q values of
    every state."""
    spec = NetworkSpec(input_dim=state_dim(P), gru=(), dense=(),
                       output_dim=P.n_actions)
    params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
    params[0]["b"][:] = q
    return QPolicy(spec, params, P)


class TestEpsilonGreedy:
    S = state_id(1, 2, 0, P)  # valid: q + t <= 3
    VALID = np.flatnonzero(mdp(P).valid[S])

    def test_greedy_picks_argmax(self):
        q = np.zeros(P.n_actions)
        q[self.VALID[4]] = 3.0
        q[self.VALID[2]] = 2.0
        assert bias_policy(q).explore(self.S, 0.0, None) == self.VALID[4]

    def test_greedy_respects_mask(self):
        q = np.zeros(P.n_actions)
        q[~mdp(P).valid[self.S]] = 9.0
        q[self.VALID[3]] = 1.0
        assert bias_policy(q).explore(self.S, 0.0, None) == self.VALID[3]

    def test_ties_break_low(self):
        q = np.full(P.n_actions, 2.0)  # every invalid action beats them
        q[self.VALID] = 0.0
        q[self.VALID[3:]] = 1.0
        assert bias_policy(q).explore(self.S, 0.0, None) == self.VALID[3]

    def test_full_exploration_uniform(self):
        # the draws are a uniform and then an index into the ascending
        # valid ids, whatever the Q values
        rng, twin = np.random.default_rng(1), np.random.default_rng(1)
        q = np.zeros(P.n_actions)
        q[self.VALID[0]] = 1.0
        pol = bias_policy(q)
        n = 6000
        acts = [pol.explore(self.S, 1.0, rng) for _ in range(n)]
        for a in acts:
            twin.random()  # the explore coin, always below eps = 1
            assert a == self.VALID[twin.integers(0, len(self.VALID))]
        counts = np.bincount(acts, minlength=P.n_actions)
        assert np.flatnonzero(counts).tolist() == self.VALID.tolist()
        assert np.all(np.abs(counts[self.VALID] / n - 1 / len(self.VALID))
                      < 0.02)

    def test_no_draw_at_epsilon_zero(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        pol = bias_policy(np.arange(P.n_actions, dtype=float))
        for s in range(P.n_states):
            pol.explore(s, 0.0, rng)
        assert rng.bit_generator.state == before

    def test_next_input_carries_explored_action(self):
        spec = network_spec(P, TINY_DRQN, True)
        params = init_params(spec, np.random.default_rng(3))
        s0, s1 = state_id(3, 5, 1, P), state_id(2, 1, 0, P)
        pol = QPolicy(spec, params, P)
        pol.reset(1)
        greedy = pol.explore(s0, 0.0, None)
        pol.reset(1)
        a0 = pol.explore(s0, 1.0, np.random.default_rng(5))
        assert a0 != greedy
        a1 = pol.explore(s1, 0.0, None)
        # the same two slots stepped through forward_step by hand
        _, h = forward_step(spec, params, encode(s0, P, -1)[None], None)
        q, h = forward_step(spec, params, encode(s1, P, a0)[None], h)
        assert a1 == np.argmax(np.where(mdp(P).valid[s1], q[0], -np.inf))
        assert [v.tobytes() for v in pol._h] == [v.tobytes() for v in h]

    @pytest.mark.parametrize("p", [EnvParams(d_max=0), EnvParams(b_max=0)],
                             ids=["d_max-0", "b_max-0"])
    def test_every_state_has_a_valid_action(self, p):
        # action 0, nothing offloaded or queued, is valid in every state,
        # so explore always has a valid action to play
        assert mdp(p).valid[:, 0].all()

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


class PickRng:
    """An rng stub for QPolicy.explore: its coin always explores, and its
    index into a state's n valid ids is k."""

    def __init__(self, k, n):
        self.k, self.n = k, n

    def random(self):
        return 0.0

    def integers(self, low, high):
        assert (low, high) == (0, self.n)
        return self.k


class TestOneOrder:
    # Every random valid action is the k-th of MDP.ranked's valid ids:
    # the theta policy's pick and the trainer's explored action alike.
    ENV = desk_env()
    M = mdp(ENV)

    def test_ranked_lists_the_valid_ids_ascending(self):
        for s in range(self.ENV.n_states):
            assert np.array_equal(self.M.ranked[s, :self.M.n_valid[s]],
                                  np.flatnonzero(self.M.valid[s]))

    def test_theta_pick_plays_the_kth_valid_id(self):
        pol = ThetaPrivatePolicy(self.ENV, 1.0)
        for s in range(self.ENV.n_states):
            n = self.M.n_valid[s]
            pick = (np.arange(n) + 0.5) / n
            got = pol.act(np.full(n, s), np.zeros(n), pick)
            assert np.array_equal(got, self.M.ranked[s, :n])

    def test_explore_plays_and_feeds_back_the_kth_valid_id(self):
        env, m = self.ENV, self.M
        spec = network_spec(env, TINY_DRQN, True)
        params = init_params(spec, np.random.default_rng(4))
        pol = QPolicy(spec, params, env)
        for s in range(env.n_states):
            _, h0 = forward_step(spec, params, encode(s, env, -1)[None], None)
            for k in range(m.n_valid[s]):
                pol.reset(1)
                a = pol.explore(s, 1.0, PickRng(k, m.n_valid[s]))
                assert a == m.ranked[s, k]
                # the net's next input carries a as the previous action
                pol.explore(s, 0.0, None)
                _, h = forward_step(spec, params, encode(s, env, a)[None], h0)
                assert [v.tobytes() for v in pol._h] == \
                    [v.tobytes() for v in h]


def one_slot_batch(s, a, r, s_next):
    """A batch (s, prev, acts, rews) of one one-slot sequence."""
    return np.array([[s], [s_next]]), None, np.array([[a]]), np.array([[r]])


def constant_q(spec, value):
    """Params whose net outputs value for every action and input."""
    params = zeros_like_params(init_params(spec, np.random.default_rng(0)))
    params[-1]["b"][:] = value
    return params


def reference_dqn_update(spec, params, target_params, opt, transitions, env,
                         cfg, baseline, scale):
    """The feed-forward update as it was written before the learners were
    merged: per-transition states, targets from a separate encoding of the
    next states. Steps opt on params in place; returns the loss."""
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
    opt.step(params, backward(cache, dout))
    return float(np.mean(err * err))


def one_array_update(spec, params, target_params, opt, batch, env, cfg,
                     baseline, scale):
    """The update as it was when the replay store handed out one encoding
    of all T + 1 slots, which both nets' inputs viewed for the whole
    update: burn-ins, then the online cached pass, then the target's.
    Steps opt on params in place; returns the loss."""
    s, prev, acts, rews = batch
    x = encode(s, env, prev)
    x_on, x_tg = x[:-1], x[1:]
    T, B = acts.shape
    L = min(cfg.tbptt_len, T)
    burn = T - L
    h_on = h_tg = None
    if burn > 0:
        h_on = forward(spec, params, x_on[:burn], collect_cache=False)[1]
        h_tg = forward(spec, target_params, x_tg[:burn],
                       collect_cache=False)[1]
    q_on, _, cache = forward(spec, params, x_on[burn:], h_on)
    q_tg = forward(spec, target_params, x_tg[burn:], h_tg,
                   collect_cache=False)[0]
    best = np.where(mdp(env).valid[s[burn + 1:]], q_tg, -np.inf).max(axis=-1)
    y = (rews[burn:] - baseline) / scale + cfg.gamma * best
    kk, rows, cols = np.arange(L)[:, None], np.arange(B), acts[burn:]
    err = q_on[kk, rows, cols] - y
    dout = np.zeros_like(q_on)
    dout[kk, rows, cols] = loss_gradient(err, cfg.loss)
    opt.step(params, backward(cache, dout))
    return float(np.mean(err * err))


class TestTdTargets:
    # A net with zero weights outputs its last bias for every action, so
    # the online value q and the target's best next value are constants,
    # and the loss of one slot is (q - target)^2.
    SPEC = network_spec(P, AgentConfig(dense_layers=1, dense_units=8), False)

    def loss(self, r, gamma, q=1.0, best=2.0, baseline=0.0, scale=1.0):
        batch = one_slot_batch(state_id(1, 0, 1, P), 0, r,
                               state_id(2, 0, 1, P))
        cfg = AgentConfig(gamma=gamma)
        return q_update(self.SPEC, constant_q(self.SPEC, q),
                        constant_q(self.SPEC, best), Adam(0.1), batch, P,
                        cfg, baseline, scale)

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
            s, a, r, s2 = (int(rng.integers(48)), int(rng.integers(54)),
                           float(rng.normal()), int(rng.integers(48)))
            buf.extend([s, s2], [a], [r])
        cfg = dataclasses.replace(TINY_DQN, batch_size=64)
        batch = buf.sample_batch(cfg, np.random.default_rng(1))
        loss = q_update(spec, clone_params(params), target, Adam(0.1), batch,
                        P, cfg)
        s, _, acts, rews = batch
        x_on, x_tg, next_ids = encode(s[:-1], P), encode(s[1:], P), s[1:]
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
            buf.extend([s, s2], [a], [float(q_now[i, a])])
        cfg = dataclasses.replace(TINY_DQN, batch_size=16, gamma=0.0)
        batch = buf.sample_batch(cfg, np.random.default_rng(0))
        before = clone_params(params)
        loss = q_update(spec, params, params, Adam(0.1), batch, P, cfg)
        assert loss == 0.0
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(params, before) for k in a)

    @pytest.mark.parametrize("loss", ["mse", "huber"])
    def test_one_slot_update_is_the_dqn_update_bitwise(self, loss):
        rng = np.random.default_rng(11)
        spec = network_spec(P, TINY_DQN, False)
        params, target = (init_params(spec, rng) for _ in range(2))
        transitions = [(int(rng.integers(48)), int(rng.integers(54)),
                        float(rng.normal(30.0, 20.0)),
                        int(rng.integers(48))) for _ in range(50)]
        buf = TransitionBuffer(32)  # wraps: holds the last 32
        for s, a, r, s2 in transitions:
            buf.extend([s, s2], [a], [r])
        ring = transitions[-32:]
        ring = ring[-(50 % 32):] + ring[:-(50 % 32)]  # by ring position
        cfg = dataclasses.replace(TINY_DQN, batch_size=20, loss=loss)
        batch = buf.sample_batch(cfg, np.random.default_rng(3))
        drawn = np.random.default_rng(3).integers(0, 32, size=20)
        opts = (Adam(1e-2), Adam(1e-2))
        got, want = params, clone_params(params)  # each side updates its own
        for _ in range(3):  # Adam's moments carry over between steps
            got_loss = q_update(spec, got, target, opts[0], batch, P, cfg,
                                31.5, 17.25)
            want_loss = reference_dqn_update(
                spec, want, target, opts[1], [ring[i] for i in drawn], P,
                cfg, 31.5, 17.25)
            assert got_loss == want_loss
            assert all(np.array_equal(a[k], b[k])
                       for a, b in zip(got, want) for k in a)

    @pytest.mark.parametrize("loss", ["mse", "huber"])
    @pytest.mark.parametrize("seq_len, tbptt_len", [(8, 3), (8, 8)],
                             ids=["burn-in", "no-burn-in"])
    def test_slab_encoding_equals_one_array_update_bitwise(
            self, seq_len, tbptt_len, loss):
        # q_update encodes the burn-in's and the loss bundle's slots apart;
        # every float must be that of the one-array encoding
        env = EnvParams(episode_len=12)
        cfg = dataclasses.replace(TINY_DRQN, seq_len=seq_len,
                                  tbptt_len=tbptt_len, batch_size=16,
                                  loss=loss)
        rng = np.random.default_rng(13)
        spec = network_spec(env, cfg, True)
        params, target = (init_params(spec, rng) for _ in range(2))
        buf = EpisodeBuffer(24, 12)
        for _ in range(2):
            buf.extend(rng.integers(0, 48, 13), rng.integers(0, 54, 12),
                       rng.normal(size=12))
            buf.end_episode()
        opts = (Adam(1e-2), Adam(1e-2))
        got, want = params, clone_params(params)  # each side updates its own
        for _ in range(3):
            batch = buf.sample_batch(cfg, rng)
            assert (batch[1][0] == -1).any()  # some window starts an episode
            got_loss = q_update(spec, got, target, opts[0], batch, env, cfg,
                                0.5, 1.5)
            want_loss = one_array_update(spec, want, target, opts[1], batch,
                                         env, cfg, 0.5, 1.5)
            assert got_loss == want_loss
            assert all(np.array_equal(a[k], b[k])
                       for a, b in zip(got, want) for k in a)

    def test_update_writes_the_online_arrays_in_place(self):
        # the learner owns one set of arrays: the update writes each online
        # array in place, leaves the target's bits and returns the loss
        env = EnvParams(episode_len=12)
        cfg = dataclasses.replace(TINY_DRQN, seq_len=8, tbptt_len=3,
                                  batch_size=16)
        rng = np.random.default_rng(19)
        spec = network_spec(env, cfg, True)
        params, target = (init_params(spec, rng) for _ in range(2))
        buf = EpisodeBuffer(24, 12)
        for _ in range(2):
            buf.extend(rng.integers(0, 48, 13), rng.integers(0, 54, 12),
                       rng.normal(size=12))
            buf.end_episode()
        arrays = [layer[k] for layer in params for k in layer]
        start = [a.copy() for a in arrays]
        target_bytes = [layer[k].tobytes() for layer in target for k in layer]
        loss = q_update(spec, params, target, Adam(1e-2),
                        buf.sample_batch(cfg, rng), env, cfg)
        assert type(loss) is float and loss > 0.0
        assert all(a is b for a, b in zip(
            [layer[k] for layer in params for k in layer], arrays))
        assert all(not np.array_equal(a, b) for a, b in zip(arrays, start))
        assert [layer[k].tobytes() for layer in target for k in layer] == \
            target_bytes

    def test_loss_gradient_shapes(self):
        err = np.array([[1.0, -4.0]])
        assert np.allclose(loss_gradient(err, "mse"), err)
        assert np.allclose(loss_gradient(err, "huber"),
                           np.array([[0.5, -0.5]]))


def one_episode_buffer(env, rng) -> EpisodeBuffer:
    """An episode store holding one random episode of env's length."""
    L = env.episode_len
    buf = EpisodeBuffer(L, L)
    buf.extend(rng.integers(0, env.n_states, L + 1),
               rng.integers(0, env.n_actions, L), rng.normal(size=L))
    buf.end_episode()
    return buf


def traced_peak_mib(fn) -> float:
    """The most memory that fn's allocations held at once, by tracemalloc,
    above what was allocated when it was called."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


class TestUpdateMemory:
    """The paper-scale update (B 128, T 128, L 16, 3 x GRU(128) and
    2 x dense(128)) holds each activation once, and its GRU layers cache
    their states only: each layer's (T, B, 3n) gate block is 6 MiB, over
    GATE_BYTES, so backward rebuilds the gates step by step. Before, a
    burn-in kept every GRU layer's (T, B, n) outputs, three 14 MiB arrays
    (a 44.2 MiB peak), the update kept one encoding of all T + 1 slots and
    every hidden state twice (a peak of about 60 MiB), and then the loss
    bundle's gates and candidates (a peak of about 43 MiB), and Adam
    built a new set of parameters beside the old one."""

    ENV = EnvParams()
    CFG = AgentConfig()

    def net(self, rng):
        spec = network_spec(self.ENV, self.CFG, True)
        return spec, init_params(spec, rng), init_params(spec, rng)

    def update_peak(self, seed):
        """The traced peak of a fresh-Adam sample_batch and q_update, as in
        a training run's first update."""
        rng = np.random.default_rng(seed)
        spec, params, target = self.net(rng)
        buf = one_episode_buffer(self.ENV, rng)
        return traced_peak_mib(lambda: q_update(
            spec, params, target, Adam(1e-4),
            buf.sample_batch(self.CFG, rng), self.ENV, self.CFG))

    def test_burn_in_keeps_only_the_hidden_state(self):
        # about 1.8 MiB: each layer's (B, n) state and one step's temporaries
        rng = np.random.default_rng(0)
        spec, params, _ = self.net(rng)
        shape = (self.CFG.seq_len - self.CFG.tbptt_len, self.CFG.batch_size)
        xs = encode(rng.integers(0, self.ENV.n_states, shape), self.ENV,
                    rng.integers(-1, self.ENV.n_actions, shape))
        peak = traced_peak_mib(lambda: forward(
            spec, params, xs, collect_cache=False, outputs=False))
        assert peak < 4.0

    def test_update_holds_each_activation_once(self):
        assert self.update_peak(1) < 50.0

    def test_update_caches_no_paper_scale_gates(self):
        # about 22.8 MiB, in Adam's first step: the cached loss bundle's
        # states (3 x 2.1 MiB) and dense head's outputs, the gradients and
        # Adam's fresh moments (2 x 2.4 MiB), written in place; backward
        # peaks at 22.4. 24.5 MiB when Adam built new parameters, 42.5 MiB
        # with the gates cached. A seed of its own, so the two bounds see
        # two batches.
        assert self.update_peak(2) < 30.0


class TestPairedBurnIn:
    """A batch whose per-step gate block reaches PAIR_BYTES runs the target
    net's burn-in on one thread beside the online net's, on a machine with
    more than one CPU, with the floats of the sequential passes."""

    @staticmethod
    def cpus(monkeypatch, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    @staticmethod
    def count_starts(monkeypatch) -> list:
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        return started

    @staticmethod
    def setup(env, cfg, seed):
        rng = np.random.default_rng(seed)
        spec = network_spec(env, cfg, True)
        params, target = (init_params(spec, rng) for _ in range(2))
        return spec, params, target, one_episode_buffer(env, rng), rng

    def test_threads_give_the_sequential_bits(self, monkeypatch):
        # params and target differ, as do each window's slots t and t + 1,
        # so the worker running the online net or reading x[:-1] moves the
        # target's burned-in state and with it the loss and every step
        env = EnvParams(episode_len=12)
        cfg = dataclasses.replace(TINY_DRQN, seq_len=8, tbptt_len=3,
                                  batch_size=16)
        spec, params, target, buf, rng = self.setup(env, cfg, 23)
        self.cpus(monkeypatch, 2)
        started = self.count_starts(monkeypatch)
        runs = []
        for limit in (0, 2 ** 62):  # paired, then sequential
            monkeypatch.setattr(network, "PAIR_BYTES", limit)
            p, opt = clone_params(params), Adam(1e-2)
            losses = [q_update(spec, p, target, opt,
                               buf.sample_batch(cfg, np.random.default_rng(k)),
                               env, cfg, 0.5, 1.5) for k in range(3)]
            runs.append((losses, p, opt._m, opt._v))
        assert len(started) == 3  # one thread per paired update
        (loss_a, *arrays_a), (loss_b, *arrays_b) = runs
        assert loss_a == loss_b
        assert all(np.array_equal(a[k], b[k])
                   for x, y in zip(arrays_a, arrays_b)
                   for a, b in zip(x, y) for k in a)

    def test_worker_error_is_raised_after_the_join(self, monkeypatch):
        env = EnvParams(episode_len=12)
        cfg = dataclasses.replace(TINY_DRQN, seq_len=8, tbptt_len=3)
        spec, params, target, buf, rng = self.setup(env, cfg, 29)
        self.cpus(monkeypatch, 2)
        monkeypatch.setattr(network, "PAIR_BYTES", 0)
        err = RuntimeError("target pass failed")

        def forward_here_only(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise err
            return forward(*args, **kwargs)

        monkeypatch.setattr(qlearn, "forward", forward_here_only)
        before = threading.active_count()
        start = clone_params(params)
        with pytest.raises(RuntimeError) as info:
            q_update(spec, params, target, Adam(1e-2),
                     buf.sample_batch(cfg, rng), env, cfg)
        assert info.value is err
        assert threading.active_count() == before
        assert all(np.array_equal(a[k], b[k])
                   for a, b in zip(params, start) for k in a)

    @pytest.mark.parametrize("scale, cpus, threads", [
        ("desk", 2, 0), ("paper", 2, 1), ("paper", 1, 0)])
    def test_the_rule(self, scale, cpus, threads, monkeypatch):
        # desk: 32 x 3 x 32 x 8 = 24 KiB a step; paper: 128 x 3 x 128 x 8
        # = 384 KiB, over PAIR_BYTES, but not on a single CPU
        env, cfg = ((desk_env(), desk_agent()) if scale == "desk"
                    else (EnvParams(), AgentConfig()))
        assert cfg.seq_len > cfg.tbptt_len  # the update has a burn-in
        spec, params, target, buf, rng = self.setup(env, cfg, 31)
        self.cpus(monkeypatch, cpus)
        started = self.count_starts(monkeypatch)
        q_update(spec, params, target, Adam(1e-4),
                 buf.sample_batch(cfg, rng), env, cfg)
        assert len(started) == threads


class TestReplay:
    S0 = state_id(0, 0, 0, P)

    @staticmethod
    def _ring_batch(buf, size):
        """A batch from buf and the ring positions its draws name."""
        cfg = AgentConfig(batch_size=size)
        return (buf.sample_batch(cfg, np.random.default_rng(3)),
                np.random.default_rng(3).integers(0, len(buf), size=size))

    def _slots(self, n):
        """n chained slots: states, actions 0..n-1, rewards 0.0..n-1."""
        return (np.array([state_id(i % 4, i % 6, i % 2, P)
                          for i in range(n + 1)]),
                np.arange(n), np.arange(n, dtype=float))

    def test_ring_eviction_order(self):
        buf = TransitionBuffer(3)
        for a in range(5):
            buf.extend([state_id(a % 4, 0, 0, P), self.S0], [a], [float(a)])
        assert len(buf) == 3
        # slots 3 and 4 overwrote ring positions 0 and 1
        (_, _, acts, rews), drawn = self._ring_batch(buf, 3)
        assert len(set(drawn)) > 1
        assert np.array_equal(acts[0], np.array([3, 4, 2])[drawn])
        assert np.array_equal(rews[0], np.array([3.0, 4.0, 2.0])[drawn])

    @pytest.mark.parametrize("chunks, ring", [
        ([5], [3, 4, 2]),  # one chunk longer than the ring
        ([3, 3], [4, 5, 2, 3]),  # the second chunk straddles the wrap
    ], ids=["longer-than-capacity", "straddles-wrap"])
    def test_chunk_equals_slot_by_slot(self, chunks, ring):
        s, a, r = self._slots(sum(chunks))
        chunked, single = (TransitionBuffer(len(ring)) for _ in range(2))
        lo = 0
        for n in chunks:
            chunked.extend(s[lo:lo + n + 1], a[lo:lo + n], r[lo:lo + n])
            lo += n
        for i in range(len(a)):
            single.extend(s[i:i + 2], a[i:i + 1], r[i:i + 1])
        batch, drawn = self._ring_batch(chunked, len(ring))
        ids, prev, acts, rews = batch
        assert len(set(drawn)) > 1 and prev is None
        assert np.array_equal(acts[0], np.array(ring)[drawn])
        assert np.array_equal(rews[0], np.array(ring, dtype=float)[drawn])
        assert np.array_equal(ids, s[np.array(ring)[drawn] + [[0], [1]]])
        want = self._ring_batch(single, len(ring))[0]
        assert want[1] is None
        assert all(np.array_equal(batch[k], want[k]) for k in (0, 2, 3))

    def test_sampling_reproducible(self):
        buf = TransitionBuffer(10)
        buf.extend(*self._slots(10))
        cfg = AgentConfig(batch_size=6)
        a, b = (buf.sample_batch(cfg, np.random.default_rng(3))
                for _ in range(2))
        assert a[1] is None and b[1] is None
        assert all(np.array_equal(a[k], b[k]) for k in (0, 2, 3))

    def test_empty_sample_rejected(self):
        # neither store hands out a batch before it can fill one
        cfg = AgentConfig(batch_size=2, seq_len=8, tbptt_len=4)
        rng = np.random.default_rng(0)
        buf = TransitionBuffer(4)
        assert buf.sample_batch(cfg, rng) is None
        buf.extend([self.S0, self.S0], [0], [0.0])
        assert buf.sample_batch(cfg, rng) is None
        episodes = EpisodeBuffer(100, 10)
        assert episodes.sample_batch(cfg, rng) is None
        # an open episode is not sampled
        episodes.extend(*self._slots(10))
        assert episodes.sample_batch(cfg, rng) is None

    def test_batches_encode_the_stored_slots(self):
        buf = TransitionBuffer(2)
        buf.extend([state_id(1, 2, 1, P), state_id(3, 4, 0, P)], [7], [0.5])
        s, prev, acts, rews = buf.sample_batch(
            AgentConfig(batch_size=1), np.random.default_rng(0))
        x = encode(s, P)
        assert np.array_equal(x[0, 0], encode(state_id(1, 2, 1, P), P))
        assert np.array_equal(x[1, 0], encode(state_id(3, 4, 0, P), P))
        assert (acts.shape, acts[0, 0], rews[0, 0]) == ((1, 1), 7, 0.5)
        assert prev is None

    @staticmethod
    def _episode_batch(buf, kept, L, T, size=32, seed=1):
        """A window batch from buf, and the (episode, start) draws it made:
        the episode among the kept ones (oldest first), then the start."""
        cfg = AgentConfig(batch_size=size, seq_len=T, tbptt_len=T)
        rng = np.random.default_rng(seed)
        draws = [(int(rng.integers(0, kept)), int(rng.integers(0, L - T + 1)))
                 for _ in range(size)]
        return buf.sample_batch(cfg, np.random.default_rng(seed)), draws

    @pytest.mark.parametrize("kept", [1, 2, 3, 5])
    @pytest.mark.parametrize("L, T", [(20, 8), (20, 20), (7, 1)])
    def test_window_draws_are_the_scalar_draws(self, kept, L, T):
        # The reference draws an episode and then a start per window, one
        # scalar draw each. With kept = 1 or T = L a bound is 1 and takes
        # no number from the stream; the one draw over all bounds must
        # give the same windows and leave the generator in the same state.
        buf = EpisodeBuffer(kept * L, L)
        for k in range(kept + 2):  # the last kept episodes stay
            buf.extend(np.full(L + 1, self.S0), k * L + np.arange(L),
                       np.zeros(L))
            buf.end_episode()
        cfg = AgentConfig(batch_size=16, seq_len=T, tbptt_len=T)
        for seed in range(20):
            want = np.random.default_rng(seed)
            draws = [(want.integers(0, kept), want.integers(0, L - T + 1))
                     for _ in range(cfg.batch_size)]
            rng = np.random.default_rng(seed)
            _, _, acts, _ = buf.sample_batch(cfg, rng)
            # a window's first action is (2 + episode) * L + start
            assert np.array_equal(acts[0], [(2 + e) * L + w
                                            for e, w in draws])
            assert rng.bit_generator.state == want.bit_generator.state

    def _tagged(self, buf, L, tag):
        """One closed episode whose every action is tag."""
        buf.extend(np.full(L + 1, self.S0), np.full(L, tag), np.zeros(L))
        buf.end_episode()

    def test_episode_buffer_step_cap(self):
        # 100 steps hold two 40-slot episodes: the last two of five
        buf = EpisodeBuffer(100, 40)
        for tag in range(5):
            self._tagged(buf, 40, tag)
        (_, _, acts, _), draws = self._episode_batch(buf, 2, 40, 40)
        assert {e for e, _ in draws} == {0, 1}
        assert np.array_equal(acts[0], np.array([3, 4])[[e for e, _ in draws]])

    def test_keeps_one_episode_below_its_length(self):
        buf = EpisodeBuffer(10, 40)
        for tag in range(3):
            self._tagged(buf, 40, tag)
        (_, _, acts, _), _ = self._episode_batch(buf, 1, 40, 8)
        assert np.all(acts == 2)

    def test_window_bounds(self):
        buf = EpisodeBuffer(1000, 20)
        buf.extend(*self._slots(20))
        buf.end_episode()
        (_, _, acts, _), draws = self._episode_batch(buf, 1, 20, 8, 50)
        # actions are slot numbers, so a window's first action is its start
        starts = acts[0]
        assert np.array_equal(starts, [w for _, w in draws])
        assert starts.min() == 0 and starts.max() == 20 - 8
        assert np.array_equal(acts, starts + np.arange(8)[:, None])

    def test_window_batch_equals_episode_slices(self):
        # two episodes fit; five are stored in uneven chunks and a sixth
        # is left half played, so its row must not overwrite the oldest
        # kept episode
        L, T = 10, 4
        rng = np.random.default_rng(8)
        eps = [(rng.integers(0, 48, L + 1), rng.integers(0, 54, L),
                rng.normal(size=L)) for _ in range(6)]
        buf = EpisodeBuffer(2 * L + 5, L)
        for k, (s, a, r) in enumerate(eps):
            cuts = [0, 1, 8, L] if k < 5 else [0, 1, L // 2]
            for lo, hi in zip(cuts, cuts[1:]):
                buf.extend(s[lo:hi + 1], a[lo:hi], r[lo:hi])
            if k < 5:
                buf.end_episode()
        (ids, prev_ids, acts, rews), draws = self._episode_batch(buf, 2, L, T)
        assert {e for e, _ in draws} == {0, 1}
        assert {w == 0 for _, w in draws} == {True, False}
        kept = eps[3:5]
        s = np.stack([kept[e][0][w:w + T + 1] for e, w in draws], axis=1)
        prev = np.stack([np.r_[kept[e][1][w - 1] if w else -1,
                               kept[e][1][w:w + T]] for e, w in draws],
                        axis=1)
        assert np.array_equal(ids, s) and np.array_equal(prev_ids, prev)
        assert np.array_equal(acts, prev[1:])
        assert np.array_equal(rews, np.stack(
            [kept[e][2][w:w + T] for e, w in draws], axis=1))


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
    act's draws and the step's; yields (state, action, next state). Acts
    with its own forward steps on actor's current params: after the
    step, a uniform if eps > 0 and, if it falls below eps, an index into
    the ascending valid ids; else the best valid action, ties low."""
    m = mdp(env)
    recurrent = actor.spec.input_dim == obs_dim(env)
    h, a = None, -1
    s = sample_initial_state(rng, env)
    for _ in range(env.episode_len):
        x = encode(s, env, a if recurrent else None)[None]
        q, h = forward_step(actor.spec, actor.params, x, h)
        valid = np.flatnonzero(m.valid[s])
        if eps > 0.0 and rng.random() < eps:
            a = int(valid[rng.integers(0, valid.size)])
        else:
            a = int(valid[np.argmax(q[0, valid])])
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
    replay = (EpisodeBuffer(cfg.buffer_capacity, env.episode_len)
              if recurrent else TransitionBuffer(cfg.buffer_capacity))
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
            replay.extend([s, s_next], [a], [r])
            baseline.add(r)
            total += r
            if n % cfg.update_every == 0 and \
                    (batch := replay.sample_batch(cfg, rng)) is not None:
                q_update(spec, actor.params, target, opt, batch, env, cfg,
                         baseline.value, baseline.scale)
                grad_steps += 1
                if grad_steps % cfg.target_update_period == 0:
                    polyak_update(target, actor.params, cfg.tau)
        replay.end_episode()
        curve.append((ep, total, eps))
    return curve, actor.params


class TestChunkedTraining:
    """train scores rewards a chunk of slots at a time; every float must be
    that of the slot-by-slot loop."""

    @pytest.mark.parametrize("kind", ["dqn", "drqn"])
    def test_one_set_of_params_for_the_whole_run(self, kind, monkeypatch):
        # every update and soft target update writes into the arrays that
        # the acting policy and the result hold; none is rebound
        import mecpriv.harness.runner as runner
        seen = []

        def spy(spec, params, target, *rest):
            seen.append((params, target,
                         [a for layer in params for a in layer.values()],
                         [a for layer in target for a in layer.values()]))
            return q_update(spec, params, target, *rest)

        monkeypatch.setattr(runner, "q_update", spy)
        cfg = dataclasses.replace(TINY_DRQN if kind == "drqn" else TINY_DQN,
                                  target_update_period=1)
        result = train(kind, TINY_ENV, cfg, np.random.default_rng(2))
        assert len(seen) > 1
        online = [a for layer in result.params for a in layer.values()]
        for params, target, on_arrays, tg_arrays in seen:
            assert params is result.params and target is seen[0][1]
            assert all(a is b for a, b in zip(on_arrays, online))
            assert all(a is b for a, b in zip(tg_arrays, seen[0][3]))

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
        for a, b in zip(old, new):  # as an update writes them, in place
            for k in a:
                a[k][...] = b[k]
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
