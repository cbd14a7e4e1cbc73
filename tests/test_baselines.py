import numpy as np
import pytest

from mecpriv.baselines import (GreedyPolicy, ThetaPrivatePolicy,
                               UniformPolicy, greedy_cost_action)
from mecpriv.env import Action, EnvParams, State, cost, valid_actions

P = EnvParams()


class TestGreedy:
    def test_good_channel_offloads_all(self):
        assert greedy_cost_action(State(2, 0, 1), P) == Action(0, 2)

    def test_bad_channel_processes_locally(self):
        assert greedy_cost_action(State(2, 0, 0), P) == Action(0, 0)

    def test_empty_state_noop(self):
        assert greedy_cost_action(State(0, 0, 0), P) == Action(0, 0)
        assert greedy_cost_action(State(0, 0, 1), P) == Action(0, 0)

    def test_characterization_all_states(self):
        # offload everything when the channel is good, all-local when bad
        for s in P.all_states():
            want = Action(0, s.d + s.b) if s.g == 1 else Action(0, 0)
            assert greedy_cost_action(s, P) == want

    def test_is_the_argmin_of_cost(self):
        for s in P.all_states():
            a = greedy_cost_action(s, P)
            best = min(cost(s, x, P) for x in valid_actions(s, P))
            assert cost(s, a, P) == best

    def test_policy_wrapper_matches_function(self):
        pol = GreedyPolicy(P)
        pol.reset(np.random.default_rng(0))
        for s in P.all_states():
            assert pol.act(s) == greedy_cost_action(s, P)


def theta_policy(theta, seed):
    pol = ThetaPrivatePolicy(P, theta)
    pol.reset(np.random.default_rng(seed))
    return pol


class TestThetaPrivate:
    def test_theta_validated(self):
        with pytest.raises(ValueError):
            ThetaPrivatePolicy(P, 1.2)
        with pytest.raises(ValueError):
            ThetaPrivatePolicy(P, -0.1)

    def test_theta_zero_is_greedy_everywhere(self):
        pol = theta_policy(0.0, 1)
        for s in P.all_states():
            for _ in range(5):
                assert pol.act(s) == greedy_cost_action(s, P)

    def test_theta_one_uniform_over_valid(self):
        pol = theta_policy(1.0, 2)
        s = State(2, 0, 1)
        options = valid_actions(s, P)
        counts = {a: 0 for a in options}
        n = 100_000
        for _ in range(n):
            counts[pol.act(s)] += 1
        for a in options:
            assert abs(counts[a] / n - 1 / len(options)) < 0.01

    def test_theta_half_mixture_frequency(self):
        pol = theta_policy(0.5, 3)
        s = State(2, 0, 1)
        greedy = greedy_cost_action(s, P)
        n_valid = len(valid_actions(s, P))
        assert n_valid == 6
        n = 100_000
        hits = sum(pol.act(s) == greedy for _ in range(n))
        expected = 0.5 + 0.5 / n_valid
        assert abs(hits / n - expected) < 0.01

    def test_wrapper_only_emits_valid_actions(self):
        pol = theta_policy(0.7, 4)
        for s in P.all_states():
            for _ in range(20):
                a = pol.act(s)
                assert a in valid_actions(s, P)

    def test_uniform_policy_is_theta_one(self):
        pol = UniformPolicy(P)
        assert pol.theta == 1.0
