"""The lane engine against a slot-by-slot loop over the same pre-drawn
arrays, and the properties of the pre-drawn layout: common random numbers
across policies, episodes independent of the lanes beside them, and
byte-identical reruns."""
import dataclasses
import math

import numpy as np
import pytest

from mecpriv.agents import AgentConfig, QPolicy, network_spec
from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from mecpriv.env import mdp, state_id
from mecpriv.harness import (desk_env, episode_rng, evaluate, rollout_trace,
                             write_metrics_csv)
from mecpriv.harness.runner import (LANES, buffer_levels, draw, play,
                                    run_episodes)
from mecpriv.nn import init_params

DESK = desk_env()
SHORT = dataclasses.replace(DESK, episode_len=30)


def q_policy(env, recurrent):
    cfg = AgentConfig(gru_layers=1, gru_units=8, dense_layers=1,
                      dense_units=8)
    spec = network_spec(env, cfg, recurrent)
    return QPolicy(spec, init_params(spec, np.random.default_rng(5)), env)


POLICIES = {"greedy": GreedyPolicy,
            "theta0.3": lambda env: ThetaPrivatePolicy(env, 0.3),
            "theta0.5": lambda env: ThetaPrivatePolicy(env, 0.5),
            "uniform": UniformPolicy,
            "dqn": lambda env: q_policy(env, False),
            "drqn": lambda env: q_policy(env, True)}


def slot_by_slot(policy, env, d, g, coin, pick):
    """One episode and one slot at a time on the engine's arrays. A Q-net
    steps its lane beside a twin, as in any batch of two or more lanes."""
    q = mdp(env).q
    s, a = np.empty_like(d), np.empty_like(d)
    for k in range(len(d)):
        if not policy.tabular:
            policy.reset(2)
        b = 0
        for t in range(d.shape[1]):
            s[k, t] = state_id(d[k, t], b, g[k, t], env)
            a[k, t] = policy.act(np.full(2, s[k, t]), np.full(2, coin[k, t]),
                                 np.full(2, pick[k, t]))[0]
            b = q[a[k, t]]
    return s, a


# A tabular policy's buffer levels come from a scan over runs of
# ceil(sqrt(L)) slots, the first run led by identity maps where the runs
# overrun L. With C = 6 for L = 30 these lengths give one slot, one whole
# run (2), runs of 3 led by one identity map (5), by none (6) and by two
# (7), and five runs of 6 (30).
C = math.isqrt(SHORT.episode_len - 1) + 1
RUN_EDGES = [pytest.param(
    length, lanes,
    id=f"{lanes}" + ("" if length == SHORT.episode_len else f"-len{length}"))
    for length in (1, 2, C - 1, C, C + 1, SHORT.episode_len)
    for lanes in (1, 7, LANES)]


@pytest.mark.parametrize("length, lanes", RUN_EDGES)
@pytest.mark.parametrize("kind", POLICIES)
def test_lanes_match_slot_by_slot(kind, length, lanes):
    env = dataclasses.replace(SHORT, episode_len=length)
    drawn = draw(np.random.default_rng(11), lanes, env)
    s, a = play(POLICIES[kind](env), env, *drawn)
    want = slot_by_slot(POLICIES[kind](env), env, *drawn)
    assert np.array_equal(s, want[0]) and np.array_equal(a, want[1])
    m = mdp(env)
    assert m.valid[s, a].all()
    assert (m.b[s[:, 0]] == 0).all()
    assert np.array_equal(m.b[s[:, 1:]], m.q[a[:, :-1]])
    assert np.array_equal(m.d[s], drawn[0])
    assert np.array_equal(m.g[s], drawn[1])


@pytest.mark.parametrize("width, lanes, length", [
    (1, 3, 17), (2, 1, 100), (6, 13, 400), (6, LANES, 400), (300, 2, 500)],
    ids=["one-level", "uint8", "uint16", "uint32", "wide"])
def test_buffer_levels_follow_the_chain(width, lanes, length):
    # random slot maps, whose flat indices span each integer width
    b_next = np.random.default_rng(width).integers(
        0, width, size=(width, lanes, length))
    b = np.zeros((lanes, length + 1), dtype=np.intp)
    for t in range(length):
        b[:, t + 1] = b_next[b[:, t], np.arange(lanes), t]
    assert np.array_equal(buffer_levels(b_next), b[:, 1:])


def test_every_policy_meets_the_same_demand_and_channel():
    logs = [run_episodes(make(DESK), DESK, [episode_rng(3, 0)])[0]
            for make in POLICIES.values()]
    traces = [rollout_trace(make(DESK), DESK, np.random.default_rng([3, 1]),
                            1000) for make in POLICIES.values()]
    for log, trace in zip(logs, traces):
        assert np.array_equal(log.d, logs[0].d)
        assert np.array_equal(log.g, logs[0].g)
        assert np.array_equal(trace[:, :2], traces[0][:, :2])
    # the policies do differ, in what they offload
    assert len({log.t.tobytes() for log in logs}) == len(POLICIES)


@pytest.mark.parametrize("kind", POLICIES)
def test_episode_independent_of_lane_count(kind):
    # episode LANES + 3 of 60 runs in the second block of lanes
    policy = POLICIES[kind](DESK)
    for k in (0, 3, LANES + 3):
        alone = run_episodes(policy, DESK, [episode_rng(9, k)])[0]
        h_alone = [h[0].tobytes() for h in policy._h] if kind == "drqn" \
            else None
        for n in (4, 60)[k >= 4:]:
            log = run_episodes(policy, DESK, [episode_rng(9, ep)
                                              for ep in range(n)])[k]
            for field in ("d", "b", "g", "q", "t", "reward"):
                assert getattr(log, field).tobytes() == \
                    getattr(alone, field).tobytes()
            if h_alone is not None and k // LANES == (n - 1) // LANES:
                # the final hidden state of episode k's lane in the last
                # block, bit for bit
                assert [h[k % LANES].tobytes() for h in policy._h] == h_alone


@pytest.mark.parametrize("kind", POLICIES)
def test_reruns_are_byte_identical(tmp_path, kind):
    out = []
    for run in range(2):
        rec = evaluate(POLICIES[kind](DESK), DESK, 3, (1, 2), kind)
        path = write_metrics_csv(tmp_path / f"{run}.csv", [rec])
        trace = rollout_trace(POLICIES[kind](DESK), DESK,
                              np.random.default_rng([4, 0]), 2000)
        out.append(path.read_bytes() + trace.tobytes())
    assert out[0] == out[1]


def test_draw_layout():
    # initial (d, g) pairs, later demands, channel-stay uniforms, coins,
    # picks: in that order from the one stream
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    d, g, coin, pick = draw(rng, 3, SHORT)
    first = ref.integers(0, (SHORT.d_max + 1, 2), size=(3, 2))
    later = ref.integers(0, SHORT.d_max + 1, size=(3, SHORT.episode_len - 1))
    stay = ref.random((3, SHORT.episode_len - 1)) < SHORT.p_channel_stay
    assert np.array_equal(d, np.column_stack((first[:, 0], later)))
    assert np.array_equal(g[:, 0], first[:, 1])
    assert np.array_equal(g[:, 1:] == g[:, :-1], stay)
    assert np.array_equal(coin, ref.random((3, SHORT.episode_len)))
    assert np.array_equal(pick, ref.random((3, SHORT.episode_len)))
    assert rng.bit_generator.state == ref.bit_generator.state
