import math
from collections import Counter

import numpy as np
import pytest

from mecpriv.env import Action, State
from mecpriv.privacy import (DEFAULT_HEURISTIC, EmptyWindowError,
                             GreedyDeviationHeuristic, WindowHistory,
                             privacy_breakdown)


def random_window(rng, size, capacity=None):
    w = WindowHistory(capacity or size, d_max=3, t_max=8)
    for _ in range(size):
        w.push((int(rng.integers(0, 4)), int(rng.integers(0, 2)),
                int(rng.integers(0, 9))))
    return w


def fresh_window(w):
    """A window that never evicted, holding w's entries."""
    fresh = WindowHistory(w.capacity, d_max=w.d_max, t_max=w.t_max)
    for e in w.entries:
        fresh.push(e)
    return fresh


def window_of(entries):
    w = WindowHistory(len(entries))
    for e in entries:
        w.push(e)
    return w


def brute_force_breakdown(entries):
    """Entropies computed from the materialized probability tables."""
    n = len(entries)
    joint = Counter(entries)
    p_dt = Counter()
    p_gt = Counter()
    p_t = Counter()
    for (d, g, t), m in joint.items():
        p_dt[(d, t)] += m / n
        p_gt[(g, t)] += m / n
        p_t[t] += m / n
    h = lambda dist: -sum(p * math.log2(p) for p in dist.values())
    return h(p_dt), h(p_gt), h(p_t)


class TestWindow:
    def test_fifo_eviction(self):
        w = WindowHistory(2)
        for e in [(0, 0, 0), (1, 1, 1), (2, 0, 2)]:
            w.push(e)
        assert w.entries == ((1, 1, 1), (2, 0, 2))

    def test_length_capped(self):
        w = WindowHistory(5)
        for i in range(12):
            w.push((i % 4, i % 2, i % 9))
        assert len(w) == 5

    def test_identical_pushes_point_mass(self):
        w = WindowHistory(4)
        for _ in range(4):
            w.push((2, 1, 3))
        assert w.entries == ((2, 1, 3),) * 4
        assert privacy_breakdown(w).h_dt == 0.0

    def test_out_of_range_rejected(self):
        w = WindowHistory(4, d_max=3, t_max=8)
        for bad in [(4, 0, 0), (0, 2, 0), (0, 0, 9), (-1, 0, 0), (0, 0, -2)]:
            with pytest.raises(ValueError):
                w.push(bad)


class TestEmpiricalJoint:
    """The window's incremental counts against recounts of its entries."""

    def test_counting(self):
        w = window_of([(1, 1, 1), (1, 1, 1), (2, 0, 0), (3, 1, 2)])
        br = privacy_breakdown(w)
        # t and (d, t) both split 2:1:1; (g, t) too
        assert (br.h_t, br.h_dt, br.h_gt) == (1.5, 1.5, 1.5)
        assert br.h_d_given_t == br.h_g_given_t == 0.0

    def test_random_evicting_windows_match_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            w = random_window(rng, int(rng.integers(1, 80)), capacity=32)
            assert privacy_breakdown(w) == privacy_breakdown(fresh_window(w))


class TestEntropy:
    """Entropy in bits of the volume marginal, h_t."""

    def test_uniform_four(self):
        w = window_of([(0, 0, t) for t in range(4)])
        assert privacy_breakdown(w).h_t == 2.0

    def test_point_mass(self):
        w = window_of([(0, 0, 5)] * 3)
        assert privacy_breakdown(w).h_t == 0.0

    def test_hand_value(self):
        w = window_of([(0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 2)])
        assert privacy_breakdown(w).h_t == 1.5


class TestBreakdown:
    def test_constant_window_all_zero(self):
        w = WindowHistory(6)
        for _ in range(6):
            w.push((1, 0, 2))
        br = privacy_breakdown(w)
        assert (br.h_d_given_t, br.h_g_given_t, br.h_t, br.p_total) == (0, 0, 0, 0)

    def test_two_atom_window(self):
        w = WindowHistory(4)
        for e in [(0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)]:
            w.push(e)
        br = privacy_breakdown(w)
        assert br.h_t == pytest.approx(1.0)
        assert br.h_d_given_t == pytest.approx(0.0)
        assert br.h_g_given_t == pytest.approx(0.0)
        assert br.p_total == pytest.approx(1.0)

    def test_independent_binary_window(self):
        w = WindowHistory(8)
        for d in (0, 1):
            for g in (0, 1):
                for t in (0, 1):
                    w.push((d, g, t))
        br = privacy_breakdown(w)
        assert br.h_d_given_t == pytest.approx(1.0)
        assert br.h_g_given_t == pytest.approx(1.0)
        assert br.h_t == pytest.approx(1.0)
        assert br.p_total == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWindowError):
            privacy_breakdown(WindowHistory(3))

    def test_warmup_single_entry_zero(self):
        w = WindowHistory(100)
        w.push((2, 1, 4))
        assert privacy_breakdown(w).p_total == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            w = random_window(rng, int(rng.integers(1, 50)))
            br = privacy_breakdown(w)
            h_dt, h_gt, h_t = brute_force_breakdown(list(w.entries))
            assert abs(br.h_dt - h_dt) < 1e-9
            assert abs(br.h_gt - h_gt) < 1e-9
            assert abs(br.h_t - h_t) < 1e-9
            assert abs(br.p_total - (h_dt - h_t + h_gt - h_t + h_t)) < 1e-9

    def test_invariants_random_windows(self):
        rng = np.random.default_rng(2)
        cap = math.log2(4 * 9)
        for _ in range(500):
            w = random_window(rng, int(rng.integers(1, 64)))
            br = privacy_breakdown(w)
            assert br.h_dt >= br.h_t - 1e-15
            assert br.h_gt >= br.h_t - 1e-15
            assert min(br.h_d_given_t, br.h_g_given_t, br.h_t) >= 0.0
            assert br.h_dt <= cap + 1e-12

    def test_chain_rule_exact_as_computed(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            w = random_window(rng, int(rng.integers(1, 40)))
            br = privacy_breakdown(w)
            assert br.h_d_given_t == br.h_dt - br.h_t
            assert br.h_g_given_t == br.h_gt - br.h_t
            assert br.p_total == br.h_d_given_t + br.h_g_given_t + br.h_t

    def test_incremental_counts_match_recount_after_eviction(self):
        rng = np.random.default_rng(4)
        w = random_window(rng, 200, capacity=32)  # heavy eviction
        assert len(w) == 32
        assert privacy_breakdown(w) == privacy_breakdown(fresh_window(w))


class TestHeuristic:
    def test_no_deviation_scores_zero(self):
        assert DEFAULT_HEURISTIC.score(State(3, 0, 1), Action(0, 3)) == 0.0

    def test_offload_in_bad_channel(self):
        assert DEFAULT_HEURISTIC.score(State(3, 0, 0), Action(0, 2)) == 2.0

    def test_local_in_good_channel(self):
        assert DEFAULT_HEURISTIC.score(State(3, 0, 1), Action(0, 0)) == 3.0

    def test_labeled_as_standin(self):
        assert "standin" in GreedyDeviationHeuristic.name
