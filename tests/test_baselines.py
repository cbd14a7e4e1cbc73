import numpy as np
import pytest

from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from mecpriv.env import EnvParams, mdp, state_id

from conftest import action_id

P = EnvParams()
M = mdp(P)


def greedy_pair(d, b, g):
    """The (q, t) of the greedy action of state (d, b, g)."""
    a = M.greedy[state_id(d, b, g, P)]
    return int(M.q[a]), int(M.t[a])


class TestGreedy:
    def test_good_channel_offloads_all(self):
        assert greedy_pair(2, 0, 1) == (0, 2)

    def test_bad_channel_processes_locally(self):
        assert greedy_pair(2, 0, 0) == (0, 0)

    def test_empty_state_noop(self):
        assert greedy_pair(0, 0, 0) == (0, 0)
        assert greedy_pair(0, 0, 1) == (0, 0)

    def test_characterization_all_states(self):
        # offload everything when the channel is good, all-local when bad
        for s in range(P.n_states):
            d, b, g = M.d[s], M.b[s], M.g[s]
            want = action_id(0, d + b, P) if g == 1 else action_id(0, 0, P)
            assert M.greedy[s] == want

    def test_is_the_argmin_of_cost(self):
        # the first minimum in (q, t) order, which is id order
        for s in range(P.n_states):
            costs = [M.cost[s, x] for x in M.valid_ids[s]]
            first_best = M.valid_ids[s][costs.index(min(costs))]
            assert M.greedy[s] == first_best

    def test_policy_wrapper_matches_function(self):
        pol = GreedyPolicy(P)
        pol.reset(np.random.default_rng(0))
        assert pol.theta == 0.0
        for s in range(P.n_states):
            assert pol.act(s) == M.greedy[s]


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
        for s in range(P.n_states):
            for _ in range(5):
                assert pol.act(s) == M.greedy[s]

    @pytest.mark.parametrize("policy", [GreedyPolicy(P),
                                        ThetaPrivatePolicy(P, 0.0)],
                             ids=["greedy", "theta0"])
    def test_theta_zero_draws_nothing(self, policy):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        policy.reset(rng)
        for s in range(P.n_states):
            policy.act(s)
        assert rng.bit_generator.state == before

    def test_theta_one_uniform_over_valid(self):
        pol = theta_policy(1.0, 2)
        s = state_id(2, 0, 1, P)
        options = M.valid_ids[s]
        counts = {int(a): 0 for a in options}
        n = 100_000
        for _ in range(n):
            counts[pol.act(s)] += 1
        for a in options:
            assert abs(counts[a] / n - 1 / len(options)) < 0.01

    def test_theta_half_mixture_frequency(self):
        pol = theta_policy(0.5, 3)
        s = state_id(2, 0, 1, P)
        greedy = M.greedy[s]
        n_valid = len(M.valid_ids[s])
        assert n_valid == 6
        n = 100_000
        hits = sum(pol.act(s) == greedy for _ in range(n))
        expected = 0.5 + 0.5 / n_valid
        assert abs(hits / n - expected) < 0.01

    def test_wrapper_only_emits_valid_actions(self):
        pol = theta_policy(0.7, 4)
        for s in range(P.n_states):
            for _ in range(20):
                assert M.valid[s, pol.act(s)]

    def test_uniform_policy_is_theta_one(self):
        pol = UniformPolicy(P)
        assert pol.theta == 1.0
