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
        assert pol.theta == 0.0
        coin, pick = np.random.default_rng(0).random((2, P.n_states))
        s = np.arange(P.n_states)
        assert np.array_equal(pol.act(s, coin, pick), M.greedy)


def theta_acts(theta, s, n, seed):
    """n actions of ThetaPrivatePolicy(P, theta) in state s, on n fresh
    pairs of uniforms."""
    coin, pick = np.random.default_rng(seed).random((2, n))
    return ThetaPrivatePolicy(P, theta).act(np.full(n, s), coin, pick)


class TestThetaPrivate:
    def test_theta_validated(self):
        with pytest.raises(ValueError):
            ThetaPrivatePolicy(P, 1.2)
        with pytest.raises(ValueError):
            ThetaPrivatePolicy(P, -0.1)

    def test_theta_zero_is_greedy_everywhere(self):
        for s in range(P.n_states):
            assert (theta_acts(0.0, s, 5, 1) == M.greedy[s]).all()

    @pytest.mark.parametrize("policy", [GreedyPolicy(P),
                                        ThetaPrivatePolicy(P, 0.0)],
                             ids=["greedy", "theta0"])
    def test_theta_zero_ignores_its_uniforms(self, policy):
        s = np.repeat(np.arange(P.n_states), 3)
        for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
            assert np.array_equal(policy.act(s, np.full(len(s), u),
                                             np.full(len(s), u)),
                                  M.greedy[s])

    def test_pick_selects_by_quantile(self):
        # a coin under theta plays the floor(pick * n)-th valid action
        pol = UniformPolicy(P)
        for s in range(P.n_states):
            options = M.valid_ids[s]
            n = len(options)
            pick = np.array([(k + 0.5) / n for k in range(n)] + [
                np.nextafter(1.0, 0.0)])
            got = pol.act(np.full(n + 1, s), np.zeros(n + 1), pick)
            assert list(got) == list(options) + [options[-1]]

    def test_coin_at_theta_plays_greedy(self):
        pol = ThetaPrivatePolicy(P, 0.5)
        s = state_id(2, 0, 1, P)
        assert pol.act(np.array([s]), np.array([0.5]),
                       np.array([0.0]))[0] == M.greedy[s]
        assert pol.act(np.array([s]), np.array([np.nextafter(0.5, 0.0)]),
                       np.array([0.0]))[0] == M.valid_ids[s][0]

    def test_theta_one_uniform_over_valid(self):
        s = state_id(2, 0, 1, P)
        options = M.valid_ids[s]
        n = 100_000
        acts = theta_acts(1.0, s, n, 2)
        for a in options:
            assert abs((acts == a).mean() - 1 / len(options)) < 0.01
        assert np.isin(acts, options).all()

    def test_theta_half_mixture_frequency(self):
        s = state_id(2, 0, 1, P)
        greedy = M.greedy[s]
        n_valid = len(M.valid_ids[s])
        assert n_valid == 6
        n = 100_000
        hits = (theta_acts(0.5, s, n, 3) == greedy).sum()
        expected = 0.5 + 0.5 / n_valid
        assert abs(hits / n - expected) < 0.01

    def test_wrapper_only_emits_valid_actions(self):
        for s in range(P.n_states):
            assert M.valid[s, theta_acts(0.7, s, 20, 4)].all()

    def test_uniform_policy_is_theta_one(self):
        pol = UniformPolicy(P)
        assert pol.theta == 1.0
