import json
import math
from collections import Counter, deque

import numpy as np
import pytest

from mecpriv.env import EnvParams, mdp, state_id
from mecpriv.harness import write_manifest
from mecpriv.privacy import EmptyWindowError, privacy_breakdown

from conftest import action_id

FIELDS = ("h_d_given_t", "h_g_given_t", "h_t", "p_total", "h_dt", "h_gt")


class ReferenceWindow:
    """The per-slot window the whole-trace breakdown replaced: a FIFO of
    (d, g, t) tuples with incrementally kept marginal counts."""

    def __init__(self, capacity, d_max, t_max):
        self.capacity, self.d_max, self.t_max = capacity, d_max, t_max
        self.entries = deque()
        self.dt, self.gt, self.t = Counter(), Counter(), Counter()

    def push(self, entry):
        d, g, t = (int(entry[0]), int(entry[1]), int(entry[2]))
        if d < 0 or t < 0 or g not in (0, 1):
            raise ValueError(f"entry {entry} out of range")
        if d > self.d_max or t > self.t_max:
            raise ValueError(f"entry {entry} out of range")
        if len(self.entries) == self.capacity:
            od, og, ot = self.entries.popleft()
            for counter, key in ((self.dt, (od, ot)), (self.gt, (og, ot)),
                                 (self.t, ot)):
                counter[key] -= 1
                if counter[key] == 0:
                    del counter[key]
        self.entries.append((d, g, t))
        self.dt[(d, t)] += 1
        self.gt[(g, t)] += 1
        self.t[t] += 1


def reference_entropy(counts, n):
    acc = 0.0
    for m in sorted(counts):
        acc += m * math.log2(m)
    return math.log2(n) - acc / n


def reference_breakdown(w):
    """The Counter path's terms of w's current window, as a dict."""
    n = len(w.entries)
    h_t = reference_entropy(w.t.values(), n)
    h_dt = reference_entropy(w.dt.values(), n)
    h_gt = reference_entropy(w.gt.values(), n)
    h_d_given_t, h_g_given_t = h_dt - h_t, h_gt - h_t
    return dict(h_d_given_t=h_d_given_t, h_g_given_t=h_g_given_t, h_t=h_t,
                p_total=h_d_given_t + h_g_given_t + h_t, h_dt=h_dt, h_gt=h_gt)


def reference_trace(entries, window, d_max=3, t_max=8, start=0):
    """Slot by slot through a ReferenceWindow: one dict per slot from
    start on."""
    w = ReferenceWindow(window, d_max, t_max)
    rows = []
    for i, e in enumerate(entries):
        w.push(e)
        if i >= start:
            rows.append(reference_breakdown(w))
    return rows


def breakdown(entries, window=None, d_max=3, t_max=8, start=0):
    """privacy_breakdown of a list of (d, g, t) tuples; the window defaults
    to the whole trace."""
    d, g, t = zip(*entries) if entries else ((), (), ())
    if window is None:
        window = max(len(entries), 1)
    return privacy_breakdown(d, g, t, window, d_max, t_max, start)


def last(entries, window=None):
    """The terms of the final slot's window, as a dict of floats."""
    br = breakdown(entries, window, start=len(entries) - 1)
    return {name: float(getattr(br, name)[0]) for name in FIELDS}


def random_entries(rng, size, d_max=3, t_max=8, t_lo=0, t_hi=None):
    t_hi = t_max if t_hi is None else t_hi
    return [(int(rng.integers(0, d_max + 1)), int(rng.integers(0, 2)),
             int(rng.integers(t_lo, t_hi + 1))) for _ in range(size)]


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


class TestReference:
    """Every float of the whole-trace breakdown against the Counter path."""

    def test_bits_equal_counter_reference(self):
        rng = np.random.default_rng(5)
        for case in range(320):
            d_max, t_max = ((3, 8), (6, 13))[case % 2]
            n = int(rng.integers(1, 300))
            window = int(rng.integers(1, n + 40))
            t_lo, t_hi = ((0, t_max), (2, 4), (t_max, t_max))[case % 3]
            entries = random_entries(rng, n, d_max, t_max, t_lo, t_hi)
            start = int(rng.integers(0, n))
            want = reference_trace(entries, window, d_max, t_max, start)
            got = breakdown(entries, window, d_max, t_max, start)
            for name in FIELDS:
                col = getattr(got, name)
                assert col.shape == (n - start,)
                # tolist() gives the floats themselves: == on them is bitwise
                # here, since no term is nan and the signs of zero agree
                assert col.tolist() == [row[name] for row in want], \
                    (case, name)
                assert np.signbit(col).tolist() == \
                    [math.copysign(1.0, row[name]) < 0 for row in want]

    def test_start_out_of_trace_rejected(self):
        entries = [(0, 0, 0), (1, 1, 1)]
        for start in (-1, 2):
            with pytest.raises(ValueError):
                breakdown(entries, 2, start=start)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            breakdown([(0, 0, 0)], window=0)


class TestWindow:
    def test_fifo_eviction(self):
        entries = [(0, 0, 0), (1, 1, 1), (2, 0, 2)]
        assert last(entries, window=2) == last(entries[1:])
        assert last(entries, window=2) != last(entries)

    def test_length_capped(self):
        # five consecutive volumes are distinct, so H(T) is log2 of the
        # window's length
        entries = [(i % 4, i % 2, i % 9) for i in range(12)]
        h_t = breakdown(entries, window=5).h_t
        assert h_t.tolist() == [math.log2(min(i + 1, 5)) for i in range(12)]

    def test_identical_pushes_point_mass(self):
        assert breakdown([(2, 1, 3)] * 4).h_dt.tolist() == [0.0] * 4

    def test_out_of_range_rejected(self):
        for bad in [(4, 0, 0), (0, 2, 0), (0, 0, 9), (-1, 0, 0), (0, 0, -2),
                    (0, -1, 0)]:
            with pytest.raises(ValueError):
                breakdown([(1, 1, 1), bad, (2, 0, 3)])


class TestEmpiricalJoint:
    """Window counts from prefix differences against recounts of the
    window's entries."""

    def test_counting(self):
        br = last([(1, 1, 1), (1, 1, 1), (2, 0, 0), (3, 1, 2)])
        # t and (d, t) both split 2:1:1; (g, t) too
        assert (br["h_t"], br["h_dt"], br["h_gt"]) == (1.5, 1.5, 1.5)
        assert br["h_d_given_t"] == br["h_g_given_t"] == 0.0

    def test_random_evicting_windows_match_recount(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            entries = random_entries(rng, int(rng.integers(1, 80)))
            br = breakdown(entries, window=32)
            for i in range(len(entries)):
                got = {name: float(getattr(br, name)[i]) for name in FIELDS}
                assert got == last(entries[max(0, i - 31):i + 1])


class TestEntropy:
    """Entropy in bits of the volume marginal, h_t."""

    def test_uniform_four(self):
        assert last([(0, 0, t) for t in range(4)])["h_t"] == 2.0

    def test_point_mass(self):
        assert last([(0, 0, 5)] * 3)["h_t"] == 0.0

    def test_hand_value(self):
        assert last([(0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0, 2)])["h_t"] == 1.5


class TestBreakdown:
    def test_constant_window_all_zero(self):
        br = last([(1, 0, 2)] * 6)
        assert (br["h_d_given_t"], br["h_g_given_t"], br["h_t"],
                br["p_total"]) == (0, 0, 0, 0)

    def test_two_atom_window(self):
        br = last([(0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1)])
        assert br["h_t"] == pytest.approx(1.0)
        assert br["h_d_given_t"] == pytest.approx(0.0)
        assert br["h_g_given_t"] == pytest.approx(0.0)
        assert br["p_total"] == pytest.approx(1.0)

    def test_independent_binary_window(self):
        br = last([(d, g, t) for d in (0, 1) for g in (0, 1) for t in (0, 1)])
        assert br["h_d_given_t"] == pytest.approx(1.0)
        assert br["h_g_given_t"] == pytest.approx(1.0)
        assert br["h_t"] == pytest.approx(1.0)
        assert br["p_total"] == pytest.approx(3.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyWindowError):
            privacy_breakdown([], [], [], 3, d_max=3, t_max=8)

    def test_warmup_single_entry_zero(self):
        entries = [(2, 1, 4)] + random_entries(np.random.default_rng(6), 20)
        assert breakdown(entries, window=100).p_total[0] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            entries = random_entries(rng, int(rng.integers(1, 50)))
            window = int(rng.integers(1, 60))
            br = breakdown(entries, window)
            for i in range(len(entries)):
                h_dt, h_gt, h_t = brute_force_breakdown(
                    entries[max(0, i - window + 1):i + 1])
                assert abs(br.h_dt[i] - h_dt) < 1e-9
                assert abs(br.h_gt[i] - h_gt) < 1e-9
                assert abs(br.h_t[i] - h_t) < 1e-9
                assert abs(br.p_total[i] - (h_dt - h_t + h_gt - h_t + h_t)) < 1e-9

    def test_invariants_random_windows(self):
        rng = np.random.default_rng(2)
        cap = math.log2(4 * 9)
        for _ in range(200):
            entries = random_entries(rng, int(rng.integers(1, 64)))
            br = breakdown(entries, window=int(rng.integers(1, 64)))
            assert (br.h_dt >= br.h_t - 1e-15).all()
            assert (br.h_gt >= br.h_t - 1e-15).all()
            assert min(br.h_d_given_t.min(), br.h_g_given_t.min(),
                       br.h_t.min()) >= 0.0
            assert (br.h_dt <= cap + 1e-12).all()

    def test_chain_rule_exact_as_computed(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            entries = random_entries(rng, int(rng.integers(1, 40)))
            br = breakdown(entries, window=int(rng.integers(1, 40)))
            for i in range(len(entries)):
                assert br.h_d_given_t[i] == br.h_dt[i] - br.h_t[i]
                assert br.h_g_given_t[i] == br.h_gt[i] - br.h_t[i]
                assert br.p_total[i] == (br.h_d_given_t[i] + br.h_g_given_t[i]
                                         + br.h_t[i])

    def test_incremental_counts_match_recount_after_eviction(self):
        entries = random_entries(np.random.default_rng(4), 200)
        assert last(entries, window=32) == last(entries[-32:])


def heuristic(d, b, g, q, t, p=EnvParams()):
    """The MDP's heuristic stand-in score of one (state, action)."""
    return mdp(p).heuristic[state_id(d, b, g, p), action_id(q, t, p)]


class TestHeuristic:
    def test_no_deviation_scores_zero(self):
        assert heuristic(3, 0, 1, 0, 3) == 0.0

    def test_offload_in_bad_channel(self):
        assert heuristic(3, 0, 0, 0, 2) == 2.0

    def test_local_in_good_channel(self):
        assert heuristic(3, 0, 1, 0, 0) == 3.0

    def test_labeled_as_standin(self, tmp_path):
        path = write_manifest(tmp_path / "manifest.json", {}, (1,))
        assert "standin" in json.loads(path.read_text())["heuristic_metric"]
