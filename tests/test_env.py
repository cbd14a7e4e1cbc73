import dataclasses

import numpy as np
import pytest

from mecpriv.env import (Action, EnvParams, InvalidActionError, State,
                         action_mask, cost, energy, latency, reward,
                         sample_initial_state, step, valid_actions)

P = EnvParams()
P_DT1 = EnvParams(slot_duration=1.0)


def brute_force_actions(s, p):
    """Independent enumeration of feasible (q, t) pairs."""
    out = []
    for q in range(p.b_max + 1):
        for t in range(p.d_max + p.b_max + 1):
            if q + t <= s.d + s.b:
                out.append(Action(q, t))
    return sorted(out, key=lambda a: (a.q, a.t))


class TestValidActions:
    def test_empty_state_only_noop(self):
        assert valid_actions(State(0, 0, 0), P) == [Action(0, 0)]

    def test_single_task(self):
        assert valid_actions(State(1, 0, 1), P) == [
            Action(0, 0), Action(0, 1), Action(1, 0)]

    def test_full_state_count(self):
        s = State(3, 5, 0)
        oracle = brute_force_actions(s, P)
        assert len(oracle) == 39
        assert valid_actions(s, P) == oracle

    def test_never_empty_and_matches_oracle_everywhere(self):
        for s in P.all_states():
            acts = valid_actions(s, P)
            assert acts[0] == Action(0, 0)
            assert acts == brute_force_actions(s, P)

    def test_mask_agrees_with_list(self):
        for s in P.all_states():
            mask = action_mask(s, P)
            listed = {P.action_index(a) for a in valid_actions(s, P)}
            assert set(np.flatnonzero(mask)) == listed


class TestCostModel:
    def test_latency_offload_only(self):
        assert latency(State(3, 2, 1), Action(0, 5), P_DT1) == pytest.approx(0.5)

    def test_latency_pure_queuing(self):
        assert latency(State(0, 2, 0), Action(2, 0), P_DT1) == pytest.approx(2.0)

    def test_latency_noop(self):
        assert latency(State(0, 0, 1), Action(0, 0), P_DT1) == 0.0

    def test_energy_mixed(self):
        assert energy(State(3, 0, 1), Action(0, 2), P_DT1) == pytest.approx(2.0)

    def test_energy_bad_channel(self):
        assert energy(State(1, 0, 0), Action(0, 1), P_DT1) == pytest.approx(2.0)

    def test_energy_noop(self):
        assert energy(State(0, 0, 0), Action(0, 0), P_DT1) == 0.0

    def test_cost_good_channel_offload(self):
        assert cost(State(3, 0, 1), Action(0, 3), P_DT1) == pytest.approx(1.74)

    def test_cost_noop(self):
        assert cost(State(0, 0, 1), Action(0, 0), P_DT1) == 0.0

    def test_cost_single_local(self):
        assert cost(State(1, 0, 0), Action(0, 0), P_DT1) == pytest.approx(1.1)

    def test_reward_arithmetic(self):
        assert reward(1.74, 4.0, 10.0) == pytest.approx(38.26)

    def test_reward_zero_weight(self):
        assert reward(2.5, 4.0, 0.0) == -2.5

    def test_reward_zero(self):
        assert reward(0.0, 0.0, 7.0) == 0.0

    def test_invalid_action_rejected(self):
        with pytest.raises(InvalidActionError):
            latency(State(1, 0, 0), Action(0, 2), P)
        with pytest.raises(InvalidActionError):
            energy(State(3, 5, 0), Action(6, 0), P)
        with pytest.raises(InvalidActionError):
            step(State(0, 0, 0), Action(0, 1), np.random.default_rng(0), P)

    def test_cost_nonnegative_grid(self):
        for s in P.all_states():
            for a in valid_actions(s, P):
                assert cost(s, a, P) >= 0.0

    def test_cost_monotone_in_t_bad_channel(self):
        # holds because e_tx_bad > w_q * (local time - tx time) per task
        gap = P.delay_weight * (P.local_time_per_task() - P.tx_time_per_task())
        assert P.e_tx_bad > gap
        for s in P.all_states():
            if s.g != 0:
                continue
            for q in range(min(P.b_max, s.d + s.b) + 1):
                costs = [cost(s, Action(q, t), P)
                         for t in range(s.d + s.b - q + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_latency_decomposition_exact(self):
        for s in P.all_states():
            for a in valid_actions(s, P):
                l = s.d + s.b - a.q - a.t
                pure = max(a.t * P.tx_time_per_task(),
                           l * P.local_time_per_task())
                assert latency(s, a, P) == a.q * P.slot_duration + pure
                assert latency(s, a, P) - a.q * P.slot_duration == \
                    pytest.approx(pure, abs=1e-12)


class TestTransitions:
    def test_buffer_becomes_q(self):
        rng = np.random.default_rng(3)
        for q in range(4):
            out = step(State(3, 2, 1), Action(q, 1), rng, P)
            assert out.next_state.b == q

    def test_degenerate_channel_chain(self):
        sticky = dataclasses.replace(P, p_channel_stay=1.0)
        flippy = dataclasses.replace(P, p_channel_stay=0.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            assert step(State(1, 0, 1), Action(0, 0), rng, sticky).next_state.g == 1
            assert step(State(1, 0, 0), Action(0, 0), rng, flippy).next_state.g == 1

    def test_new_task_distribution_uniform(self):
        rng = np.random.default_rng(11)
        counts = np.zeros(P.d_max + 1)
        n = 100_000
        for _ in range(n):
            counts[step(State(0, 0, 0), Action(0, 0), rng, P).next_state.d] += 1
        assert np.all(np.abs(counts / n - 0.25) < 0.01)

    def test_step_deterministic_given_seed(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            s = State(2, 1, 0)
            outs = []
            for _ in range(20):
                o = step(s, Action(1, 1), rng, P)
                outs.append((o.next_state, o.latency, o.energy, o.cost))
                s = dataclasses.replace(o.next_state, b=2)
            return outs

        assert run(42) == run(42)

    def test_state_invariants_exhaustive(self):
        rng = np.random.default_rng(0)
        for forced in (1.0, 0.0):
            env = dataclasses.replace(P, p_channel_stay=forced)
            for s in env.all_states():
                for a in valid_actions(s, env):
                    nxt = step(s, a, rng, env).next_state
                    assert 0 <= nxt.d <= env.d_max
                    assert 0 <= nxt.b <= env.b_max
                    assert nxt.g in (0, 1)

    def test_d_next_independent_of_d(self):
        # chi-square over the (d, d') contingency table, df = 9
        rng = np.random.default_rng(17)
        table = np.zeros((P.d_max + 1, P.d_max + 1))
        d = 0
        for _ in range(100_000):
            nxt = step(State(d, 0, 0), Action(0, 0), rng, P).next_state
            table[d, nxt.d] += 1
            d = nxt.d
        expected = table.sum(1, keepdims=True) * table.sum(0) / table.sum()
        stat = ((table - expected) ** 2 / expected).sum()
        assert stat < 27.88  # 0.1% critical value

    def test_channel_depends_only_on_g(self):
        rng = np.random.default_rng(23)
        stays = {0: [0, 0], 3: [0, 0]}  # per-d stratum: [stay count, total]
        for d in (0, 3):
            for _ in range(20_000):
                nxt = step(State(d, 0, 1), Action(0, 0), rng, P).next_state
                stays[d][0] += nxt.g == 1
                stays[d][1] += 1
        rates = [c / n for c, n in stays.values()]
        assert all(abs(r - 0.95) < 0.01 for r in rates)


class TestInitialState:
    def test_buffer_empty(self):
        rng = np.random.default_rng(1)
        assert all(sample_initial_state(rng, P).b == 0 for _ in range(200))

    def test_channel_uniform(self):
        rng = np.random.default_rng(2)
        n = 100_000
        goods = sum(sample_initial_state(rng, P).g for _ in range(n))
        assert abs(goods / n - 0.5) < 0.01

    def test_bounds_hold(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            s = sample_initial_state(rng, P)
            assert 0 <= s.d <= P.d_max and s.b == 0 and s.g in (0, 1)


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
        for i in range(P.n_actions):
            assert P.action_index(P.action_from_index(i)) == i

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
