import dataclasses

import numpy as np
import pytest

from mecpriv.env import (EnvParams, InvalidActionError, mdp, reward,
                         sample_initial_state, state_id, step)

from conftest import action_id

P = EnvParams()
P_DT1 = EnvParams(slot_duration=1.0)
M = mdp(P)
TABLES = ("l", "latency", "energy", "cost", "heuristic")


def all_states(p):
    """(d, b, g) of every state, in state id order."""
    return [(d, b, g) for d in range(p.d_max + 1)
            for b in range(p.b_max + 1) for g in (0, 1)]


def brute_force_actions(d, b, p):
    """Independent enumeration of feasible (q, t) pairs."""
    out = []
    for q in range(p.b_max + 1):
        for t in range(p.d_max + p.b_max + 1):
            if q + t <= d + b:
                out.append((q, t))
    return sorted(out)


def valid_pairs(d, b, g, p=P):
    """The (q, t) pairs of the MDP's valid action ids, in id order."""
    m = mdp(p)
    s = state_id(d, b, g, p)
    return [(int(m.q[a]), int(m.t[a])) for a in m.ranked[s, :m.n_valid[s]]]


def entry(name, d, b, g, q, t, p=P_DT1):
    """One (state, action) entry of the MDP table called name."""
    return getattr(mdp(p), name)[state_id(d, b, g, p), action_id(q, t, p)]


class TestValidActions:
    def test_empty_state_only_noop(self):
        assert valid_pairs(0, 0, 0) == [(0, 0)]

    def test_single_task(self):
        assert valid_pairs(1, 0, 1) == [(0, 0), (0, 1), (1, 0)]

    def test_full_state_count(self):
        oracle = brute_force_actions(3, 5, P)
        assert len(oracle) == 39
        assert valid_pairs(3, 5, 0) == oracle

    def test_never_empty_and_matches_oracle_everywhere(self):
        for d, b, g in all_states(P):
            acts = valid_pairs(d, b, g)
            assert acts[0] == (0, 0)
            assert acts == brute_force_actions(d, b, P)

    def test_mask_agrees_with_list(self):
        for d, b, g in all_states(P):
            s = state_id(d, b, g, P)
            listed = {action_id(q, t, P) for q, t in brute_force_actions(d, b, P)}
            assert set(np.flatnonzero(M.valid[s])) == listed
            assert list(M.ranked[s, :M.n_valid[s]]) == sorted(listed)
            # the invalid ids follow, ascending too
            assert list(M.ranked[s, M.n_valid[s]:]) == sorted(
                set(range(P.n_actions)) - listed)

    def test_masked_puts_invalid_actions_at_minus_inf(self):
        # over leading axes of state ids; valid entries keep their bits
        s = np.arange(P.n_states).reshape(6, 8)
        values = np.random.default_rng(0).normal(size=(6, 8, P.n_actions))
        got = M.masked(values, s)
        assert np.array_equal(got[M.valid[s]], values[M.valid[s]])
        assert (got[~M.valid[s]] == -np.inf).all()


class TestCostModel:
    def test_latency_offload_only(self):
        assert entry("latency", 3, 2, 1, 0, 5) == pytest.approx(0.5)

    def test_latency_pure_queuing(self):
        assert entry("latency", 0, 2, 0, 2, 0) == pytest.approx(2.0)

    def test_latency_noop(self):
        assert entry("latency", 0, 0, 1, 0, 0) == 0.0

    def test_energy_mixed(self):
        assert entry("energy", 3, 0, 1, 0, 2) == pytest.approx(2.0)

    def test_energy_bad_channel(self):
        assert entry("energy", 1, 0, 0, 0, 1) == pytest.approx(2.0)

    def test_energy_noop(self):
        assert entry("energy", 0, 0, 0, 0, 0) == 0.0

    def test_cost_good_channel_offload(self):
        assert entry("cost", 3, 0, 1, 0, 3) == pytest.approx(1.74)

    def test_cost_noop(self):
        assert entry("cost", 0, 0, 1, 0, 0) == 0.0

    def test_cost_single_local(self):
        assert entry("cost", 1, 0, 0, 0, 0) == pytest.approx(1.1)

    def test_reward_arithmetic(self):
        assert reward(1.74, 4.0, 10.0) == pytest.approx(38.26)

    def test_reward_zero_weight(self):
        assert reward(2.5, 4.0, 0.0) == -2.5

    def test_reward_zero(self):
        assert reward(0.0, 0.0, 7.0) == 0.0

    def test_invalid_action_rejected(self):
        rng = np.random.default_rng(0)
        for (d, b, g), (q, t) in (((1, 0, 0), (0, 2)), ((3, 5, 0), (6, 0)),
                                  ((0, 0, 0), (0, 1))):
            with pytest.raises(InvalidActionError):
                step(state_id(d, b, g, P), action_id(q, t, P), rng, P)
        for name in TABLES:
            table = getattr(M, name)
            assert np.isnan(table[~M.valid]).all()
            assert not np.isnan(table[M.valid]).any()

    def test_cost_nonnegative_grid(self):
        assert np.all(M.cost[M.valid] >= 0.0)

    def test_cost_monotone_in_t_bad_channel(self):
        # holds because e_tx_bad > w_q * (local time - tx time) per task
        gap = P.delay_weight * (P.local_time_per_task() - P.tx_time_per_task())
        assert P.e_tx_bad > gap
        for d, b, g in all_states(P):
            if g != 0:
                continue
            for q in range(min(P.b_max, d + b) + 1):
                costs = [entry("cost", d, b, g, q, t, P)
                         for t in range(d + b - q + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_latency_decomposition_exact(self):
        for d, b, g in all_states(P):
            for q, t in brute_force_actions(d, b, P):
                l = d + b - q - t
                pure = max(t * P.tx_time_per_task(),
                           l * P.local_time_per_task())
                lat = entry("latency", d, b, g, q, t, P)
                assert lat == q * P.slot_duration + pure
                assert lat - q * P.slot_duration == \
                    pytest.approx(pure, abs=1e-12)

    def test_tables_are_the_scalar_formulas(self):
        # every entry is the float the per-slot formula gives, bit for bit
        for d, b, g in all_states(P):
            for q, t in brute_force_actions(d, b, P):
                l = d + b - q - t
                lat = q * P.slot_duration + max(t * P.tx_time_per_task(),
                                                l * P.local_time_per_task())
                en = (P.e_tx_good if g == 1 else P.e_tx_bad) * t \
                    + P.e_local * l
                got = {name: entry(name, d, b, g, q, t, P) for name in TABLES}
                assert got == {"l": l, "latency": lat, "energy": en,
                               "cost": P.delay_weight * lat + en,
                               "heuristic": float(t if g == 0 else l)}


class TestTransitions:
    def test_buffer_becomes_q(self):
        rng = np.random.default_rng(3)
        for q in range(4):
            nxt = step(state_id(3, 2, 1, P), action_id(q, 1, P), rng, P)
            assert M.b[nxt] == q

    def test_degenerate_channel_chain(self):
        sticky = dataclasses.replace(P, p_channel_stay=1.0)
        flippy = dataclasses.replace(P, p_channel_stay=0.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert M.g[step(state_id(1, 0, 1, P), 0, rng, sticky)] == 1
            assert M.g[step(state_id(1, 0, 0, P), 0, rng, flippy)] == 1

    def test_new_task_distribution_uniform(self):
        rng = np.random.default_rng(11)
        counts = np.zeros(P.d_max + 1)
        n = 100_000
        for _ in range(n):
            counts[M.d[step(state_id(0, 0, 0, P), 0, rng, P)]] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.01)

    def test_step_deterministic_given_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            s = state_id(2, 1, 0, P)
            outs = []
            for _ in range(20):
                nxt = step(s, action_id(1, 1, P), rng, P)
                outs.append(nxt)
                s = state_id(M.d[nxt], 2, M.g[nxt], P)
            return outs

        assert run(42) == run(42)

    def test_state_invariants_exhaustive(self):
        rng = np.random.default_rng(0)
        for forced in (1.0, 0.0):
            env = dataclasses.replace(P, p_channel_stay=forced)
            m = mdp(env)
            for s in range(env.n_states):
                for a in m.ranked[s, :m.n_valid[s]]:
                    nxt = step(s, a, rng, env)
                    assert 0 <= nxt < env.n_states
                    assert 0 <= m.d[nxt] <= env.d_max
                    assert m.b[nxt] == m.q[a] <= env.b_max
                    assert m.g[nxt] in (0, 1)

    def test_d_next_independent_of_d(self):
        # chi-square over the (d, d') contingency table, df = 9
        rng = np.random.default_rng(17)
        table = np.zeros((P.d_max + 1, P.d_max + 1))
        d = 0
        for _ in range(100_000):
            nxt = step(state_id(d, 0, 0, P), 0, rng, P)
            table[d, M.d[nxt]] += 1
            d = M.d[nxt]
        expected = table.sum(1, keepdims=True) * table.sum(0) / table.sum()
        stat = ((table - expected) ** 2 / expected).sum()
        assert stat < 27.88  # 0.1% critical value

    def test_channel_depends_only_on_g(self):
        rng = np.random.default_rng(23)
        stays = {0: [0, 0], 3: [0, 0]}  # per-d stratum: [stay count, total]
        for d in (0, 3):
            for _ in range(20_000):
                nxt = step(state_id(d, 0, 1, P), 0, rng, P)
                stays[d][0] += M.g[nxt] == 1
                stays[d][1] += 1
        rates = [c / n for c, n in stays.values()]
        assert all(abs(r - 0.95) < 0.01 for r in rates)


class TestInitialState:
    def test_buffer_empty(self):
        rng = np.random.default_rng(1)
        assert all(M.b[sample_initial_state(rng, P)] == 0 for _ in range(200))

    def test_channel_uniform(self):
        rng = np.random.default_rng(2)
        n = 100_000
        goods = sum(M.g[sample_initial_state(rng, P)] for _ in range(n))
        assert abs(goods / n - 0.5) < 0.01

    def test_bounds_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            s = sample_initial_state(rng, P)
            assert 0 <= M.d[s] <= P.d_max and M.b[s] == 0 and M.g[s] in (0, 1)


class TestParams:
    def test_defaults(self):
        assert (P.d_max, P.b_max) == (3, 5)
        assert P.task_size_kb == 500 and P.tx_rate_kbps == 5000
        assert P.cpu_freq_hz == 2e9 and P.workload_density == 500
        assert (P.e_local, P.e_tx_good, P.e_tx_bad) == (1.0, 0.5, 2.0)
        assert P.delay_weight == 0.8 and P.p_channel_stay == 0.95

    def test_unit_decision(self):
        assert P.local_time_per_task() == pytest.approx(0.125)
        assert P.tx_time_per_task() == pytest.approx(0.1)

    def test_action_index_round_trip(self):
        assert P.n_actions == 54 and P.n_states == 48
        assert len(M.q) == len(M.t) == P.n_actions
        for q in range(P.b_max + 1):
            for t in range(P.t_max + 1):
                a = action_id(q, t, P)
                assert (M.q[a], M.t[a]) == (q, t)
        assert len(M.d) == len(M.b) == len(M.g) == P.n_states
        for s, dbg in enumerate(all_states(P)):
            assert state_id(*dbg, P) == s
            assert (M.d[s], M.b[s], M.g[s]) == dbg

    @pytest.mark.parametrize("kwargs", [
        dict(p_channel_stay=1.2),
        dict(tx_rate_kbps=0.0),
        dict(episode_len=0),
        dict(window=0),
        dict(workload_density=0.0),
        dict(d_max=-1),
        dict(privacy_weight=-1.0),
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EnvParams(**kwargs)
