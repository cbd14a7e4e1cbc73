"""Exact stationary answers from the MDP tables, and the simulator against them.

The test builds the transition kernel P[s, a, s'] from the tables alone:
d' uniform, b' = q, g' keeps g with probability p_channel_stay. A
stationary policy pi(a|s) then gives a chain over states whose stationary
distribution mu makes mu(s) pi(a|s) the long-run law of one slot, and with
it the exact entropies and single-slot MAP bounds of (d, g, t).
"""
import math

import numpy as np
import pytest

from mecpriv.adversary import attack_evaluation, fit
from mecpriv.baselines import ThetaPrivatePolicy
from mecpriv.env import mdp, state_id
from mecpriv.harness import desk_env, rollout_trace

DESK = desk_env()
M = mdp(DESK)
STATS = ("h_dt", "h_gt", "bound_d", "bound_g")
# Exact values at desk constants, to the digits asserted.
EXACT = {0.0: (2.750, 2.000, 0.625, 0.875),
         0.5: (3.444, 2.549, 0.469, 0.700),
         1.0: (3.590, 2.712, 0.375, 0.500)}


def kernel(p):
    """P[s, a, s'] over state and action ids; zero for invalid actions."""
    m = mdp(p)
    out = np.zeros((p.n_states, p.n_actions, p.n_states))
    for s in range(p.n_states):
        for a in m.ranked[s, :m.n_valid[s]]:
            for d in range(p.d_max + 1):
                for g in (0, 1):
                    chan = (p.p_channel_stay if g == m.g[s]
                            else 1.0 - p.p_channel_stay)
                    out[s, a, state_id(d, m.q[a], g, p)] += \
                        chan / (p.d_max + 1)
    return out


def theta_table(theta):
    """pi(a|s) of ThetaPrivatePolicy(DESK, theta)."""
    uniform = M.valid / M.valid.sum(axis=1, keepdims=True)
    return (1.0 - theta) * np.eye(DESK.n_actions)[M.greedy] + theta * uniform


def stationary(chain):
    n = len(chain)
    lhs = np.vstack([chain.T - np.eye(n), np.ones(n)])
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    return np.linalg.lstsq(lhs, rhs, rcond=None)[0]


def entropy(p):
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def statistics(p_dt, p_gt):
    """H(D,T), H(G,T) and the MAP bounds sum_t max_x p(x, t)."""
    return np.array([entropy(p_dt), entropy(p_gt), p_dt.max(axis=0).sum(),
                     p_gt.max(axis=0).sum()])


def exact_statistics(theta, p=DESK):
    pi = theta_table(theta)
    mu = stationary(np.einsum("sa,sax->sx", pi, kernel(p)))
    law = mu[:, None] * pi
    p_dt = np.zeros((p.d_max + 1, p.t_max + 1))
    p_gt = np.zeros((2, p.t_max + 1))
    np.add.at(p_dt, (M.d[:, None], M.t), law)
    np.add.at(p_gt, (M.g[:, None], M.t), law)
    return statistics(p_dt, p_gt)


def trace_statistics(trace):
    """The plug-in statistics of (d, g, t) rows."""
    p_dt = np.zeros((DESK.d_max + 1, DESK.t_max + 1))
    p_gt = np.zeros((2, DESK.t_max + 1))
    np.add.at(p_dt, (trace[:, 0], trace[:, 2]), 1.0 / len(trace))
    np.add.at(p_gt, (trace[:, 1], trace[:, 2]), 1.0 / len(trace))
    return statistics(p_dt, p_gt)


@pytest.mark.parametrize("theta", sorted(EXACT), ids=["greedy", "theta0.5",
                                                      "uniform"])
def test_exact_stationary_values(theta):
    assert exact_statistics(theta) == pytest.approx(EXACT[theta], abs=5e-4)


# Batch means: the trace's episodes restart independently, so batches of
# whole episodes are independent, while slots within one are correlated
# through the sticky channel. The interval is Z standard errors of the
# full-trace statistic, estimated from the spread of BATCHES batch values.
EPISODES = 250
BATCHES = 50
Z = 4.0


@pytest.mark.parametrize("theta", sorted(EXACT), ids=["greedy", "theta0.5",
                                                      "uniform"])
def test_rollout_within_interval_of_exact(theta):
    trace = rollout_trace(ThetaPrivatePolicy(DESK, theta), DESK,
                          np.random.default_rng([91, 0]),
                          EPISODES * DESK.episode_len)
    full = trace_statistics(trace)
    report = attack_evaluation(trace, fit(trace, n_d=DESK.d_max + 1, n_g=2))
    assert (report.bound_d, report.bound_g) == pytest.approx(full[2:],
                                                             abs=1e-12)
    batches = np.array([trace_statistics(b)
                        for b in np.split(trace, BATCHES)])
    se = batches.std(axis=0, ddof=1) / math.sqrt(BATCHES)
    exact = exact_statistics(theta)
    checked = list(STATS)
    if theta == 1.0:
        # Uniform play makes g independent of t, so p(g|t) = 1/2 ties at
        # every t; the plug-in max over a tie is biased upward by about
        # its own spread, and no symmetric interval holds. The exact test
        # pins that bound.
        checked.remove("bound_g")
    for name in checked:
        i = STATS.index(name)
        assert abs(full[i] - exact[i]) <= Z * se[i], \
            f"{name}: {full[i]:.4f} vs exact {exact[i]:.4f} +- {Z * se[i]:.4f}"
