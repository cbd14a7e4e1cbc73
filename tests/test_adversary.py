import math
from collections import Counter

import numpy as np
import pytest

from mecpriv.adversary import AttackReport, attack_evaluation, fit, format_report
from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from mecpriv.harness import desk_env, rollout_trace


def synthetic_trace(rng, n, t_of=None):
    d = rng.integers(0, 4, size=n)
    g = rng.integers(0, 2, size=n)
    t = t_of(d, g) if t_of else rng.integers(0, 9, size=n)
    return np.stack([d, g, t], axis=1)


def reference_tables(arr, n_d, n_g):
    """Per-volume conditional tables kept in dicts: the reference attacker."""
    d, g, t = arr[:, 0], arr[:, 1], arr[:, 2]
    n_d = n_d or int(d.max()) + 1
    n_g = n_g or int(g.max()) + 1
    n = len(arr)
    p_t, p_d, p_g = {}, {}, {}
    for tv in np.unique(t):
        sel = t == tv
        m = int(sel.sum())
        p_t[int(tv)] = m / n
        p_d[int(tv)] = np.bincount(d[sel], minlength=n_d) / m
        p_g[int(tv)] = np.bincount(g[sel], minlength=n_g) / m
    return p_t, p_d, p_g, n_d, n_g


def reference_report(fit_trace, eval_trace, n_d=None, n_g=None):
    """The dict-based attacker: one MAP guess per row, uniform fallback."""
    fit_arr = np.asarray(fit_trace, dtype=np.int64)
    arr = np.asarray(eval_trace, dtype=np.int64)
    p_t, p_d, p_g, n_d, n_g = reference_tables(fit_arr, n_d, n_g)
    ev_t, ev_d, ev_g, _, _ = reference_tables(arr, n_d, n_g)
    hit_d = hit_g = 0
    unseen = set()
    for d, g, t in arr:
        t = int(t)
        d_hat = int(np.argmax(p_d.get(t, np.full(n_d, 1.0 / n_d))))
        g_hat = int(np.argmax(p_g.get(t, np.full(n_g, 1.0 / n_g))))
        hit_d += int(d_hat == d)
        hit_g += int(g_hat == g)
        if t not in p_t:
            unseen.add(t)
    n = len(arr)
    bound_d = sum(p * ev_d[t].max() for t, p in ev_t.items())
    bound_g = sum(p * ev_g[t].max() for t, p in ev_t.items())
    return AttackReport(success_d=hit_d / n, bound_d=float(bound_d),
                        success_g=hit_g / n, bound_g=float(bound_g),
                        n_eval=n, unseen_t=tuple(sorted(unseen)))


def random_case(rng, i):
    """Fit and eval traces over a gapped set of volumes, the fit on a subset
    of them; one case in three fits on a trace whose every row ties."""
    n_d, n_g = int(rng.integers(1, 6)), int(rng.integers(1, 3))
    volumes = np.sort(rng.choice(16, size=int(rng.integers(1, 13)),
                                 replace=False))
    fit_volumes = rng.choice(volumes, size=int(rng.integers(1, len(volumes) + 1)),
                             replace=False)

    def draw(n, vols):
        return np.stack([rng.integers(0, n_d, size=n), rng.integers(0, n_g, size=n),
                         rng.choice(vols, size=n)], axis=1)

    length = (lambda: 1) if i < 4 else (lambda: int(rng.integers(1, 501)))
    if i % 3 == 2:
        combos = [(d, g, t) for t in fit_volumes for d in range(n_d)
                  for g in range(n_g)]
        fit_trace = np.array(combos * int(rng.integers(1, 4)))
    else:
        fit_trace = draw(length(), fit_volumes)
    given = i % 2 == 0
    widths = (n_d + int(rng.integers(0, 2)), n_g) if given else (None, None)
    return fit_trace, draw(length(), volumes), widths


def has_tied_row(counts):
    seen = counts[counts.any(axis=1)]
    return bool(((seen == seen.max(axis=1, keepdims=True)).sum(axis=1) > 1).any())


class TestReference:
    def test_matches_dict_attacker_on_random_traces(self):
        rng = np.random.default_rng(10)
        covered = Counter()
        for i in range(300):
            fit_trace, eval_trace, (n_d, n_g) = random_case(rng, i)
            model = fit(fit_trace, n_d, n_g)
            report = attack_evaluation(eval_trace, model)
            expected = reference_report(fit_trace, eval_trace, n_d, n_g)
            assert report == expected, f"case {i}"
            assert repr(report) == repr(expected), f"case {i}"
            covered["unseen"] += bool(report.unseen_t)
            covered["tied"] += any(map(has_tied_row, model))
            covered["length 1"] += len(eval_trace) == 1
            covered["given" if n_d else "inferred"] += 1
        assert min(covered.values()) >= 4 and len(covered) == 5, covered


class TestFit:
    def test_identity_mapping_gives_point_masses(self):
        rng = np.random.default_rng(0)
        trace = synthetic_trace(rng, 5000, t_of=lambda d, g: d)
        counts_d, _ = fit(trace)
        assert counts_d.shape == (4, 4)
        for t in range(4):
            row = counts_d[t]
            assert row[t] == row.sum() > 0

    def test_constant_t_gives_marginal(self):
        rng = np.random.default_rng(1)
        trace = synthetic_trace(rng, 8000, t_of=lambda d, g: np.zeros_like(d))
        counts_d, counts_g = fit(trace)
        assert np.array_equal(counts_d, [np.bincount(trace[:, 0], minlength=4)])
        assert np.array_equal(counts_g, [np.bincount(trace[:, 1], minlength=2)])

    def test_tables_match_recount(self):
        rng = np.random.default_rng(2)
        trace = synthetic_trace(rng, 3000)
        trace = trace[trace[:, 2] != 4]  # a gap: volume 4 is never seen
        counts_d, counts_g = fit(trace, n_d=6, n_g=2)
        assert counts_d.shape == (9, 6) and counts_g.shape == (9, 2)
        by_d = Counter((int(t), int(d)) for d, _, t in trace)
        by_g = Counter((int(t), int(g)) for _, g, t in trace)
        for t in range(9):
            for d in range(6):
                assert counts_d[t, d] == by_d[(t, d)]
            for g in range(2):
                assert counts_g[t, g] == by_g[(t, g)]
        assert not counts_d[4].any() and not counts_g[4].any()

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            fit(np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            fit([(0, 1, 2), (-1, 0, 0)])


class TestMapEstimate:
    """The guess for a volume, read off as the hits of one-row eval traces."""

    @staticmethod
    def hits(model, d, g, t):
        report = attack_evaluation([(d, g, t)], model)
        return report.success_d == 1.0, report.success_g == 1.0

    def test_point_mass(self):
        model = fit([(2, 1, 5)] * 10)
        assert self.hits(model, 2, 1, 5) == (True, True)
        assert self.hits(model, 1, 0, 5) == (False, False)

    def test_uniform_tie_goes_to_smallest(self):
        model = fit([(d, g, 0) for d in range(4) for g in range(2)])
        assert self.hits(model, 0, 0, 0) == (True, True)
        for d in range(1, 4):
            assert self.hits(model, d, 1, 0) == (False, False)

    def test_unseen_t_uses_uniform_fallback(self):
        model = fit([(3, 1, 2)] * 5, n_d=4, n_g=2)
        assert self.hits(model, 0, 0, 7) == (True, True)
        assert self.hits(model, 3, 1, 7) == (False, False)
        assert attack_evaluation([(0, 0, 7), (3, 1, 2), (0, 0, 1)],
                                 model).unseen_t == (1, 7)

    def test_matches_brute_force_argmax(self):
        rng = np.random.default_rng(3)
        trace = synthetic_trace(rng, 2000)
        model = fit(trace)
        counts = Counter((int(t), int(d)) for d, _, t in trace)
        for t in np.unique(trace[:, 2]):
            col = [counts[(int(t), d)] for d in range(4)]
            d_hat = col.index(max(col))  # the smallest maximiser
            for d in range(4):
                assert self.hits(model, d, 0, t)[0] == (d == d_hat)


class TestAttackEvaluation:
    def test_injective_policy_fully_identified(self):
        rng = np.random.default_rng(4)
        fit_trace = synthetic_trace(rng, 4000, t_of=lambda d, g: d)
        eval_trace = synthetic_trace(rng, 4000, t_of=lambda d, g: d)
        report = attack_evaluation(eval_trace, fit(fit_trace))
        assert report.success_d == 1.0
        assert report.bound_d == pytest.approx(1.0)

    def test_independent_volume_gives_chance_level(self):
        rng = np.random.default_rng(5)
        model = fit(synthetic_trace(rng, 40_000))
        report = attack_evaluation(synthetic_trace(rng, 40_000), model)
        assert report.success_d == pytest.approx(0.25, abs=0.02)
        assert report.bound_d == pytest.approx(0.25, abs=0.02)
        assert report.success_g == pytest.approx(0.5, abs=0.02)

    def test_greedy_policy_leaks_more_than_uniform(self):
        env = desk_env()
        reports = {}
        for name, pol in [("greedy", GreedyPolicy(env)),
                          ("uniform", UniformPolicy(env))]:
            fit_tr = rollout_trace(pol, env, np.random.default_rng([6, 0]),
                                   20_000)
            ev_tr = rollout_trace(pol, env, np.random.default_rng([6, 1]),
                                  20_000)
            reports[name] = attack_evaluation(ev_tr, fit(fit_tr, n_d=4, n_g=2))
        assert reports["greedy"].success_d > reports["uniform"].success_d
        assert reports["greedy"].success_g > reports["uniform"].success_g

    def test_bound_holds_for_baselines(self):
        env = desk_env()
        for pol in (GreedyPolicy(env), ThetaPrivatePolicy(env, 0.5),
                    UniformPolicy(env)):
            fit_tr = rollout_trace(pol, env, np.random.default_rng([7, 0]),
                                   20_000)
            ev_tr = rollout_trace(pol, env, np.random.default_rng([7, 1]),
                                  20_000)
            report = attack_evaluation(ev_tr, fit(fit_tr, n_d=4, n_g=2))
            assert report.success_d <= report.bound_d + 0.02
            assert report.success_g <= report.bound_g + 0.02

    def test_bound_anti_monotone_with_conditional_entropy(self):
        # higher measured H(D|T) must not come with a higher guessing bound
        env = desk_env()
        bounds, entropies = [], []
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            pol = (GreedyPolicy(env) if theta == 0.0
                   else ThetaPrivatePolicy(env, theta))
            trace = rollout_trace(pol, env, np.random.default_rng([8, 0]),
                                  30_000)
            report = attack_evaluation(
                trace, fit(trace, n_d=4, n_g=2))
            bounds.append(report.bound_d)
            entropies.append(trace_h_d_given_t(trace))
        order = np.argsort(entropies)
        ranked = np.array(bounds)[order]
        assert all(b <= a + 1e-9 for a, b in zip(ranked, ranked[1:]))

    def test_report_formatting(self):
        model = fit([(1, 0, 0), (1, 0, 0), (2, 1, 1)], n_d=4, n_g=2)
        report = attack_evaluation([(1, 0, 0), (0, 1, 1), (3, 0, 5)], model)
        assert report == AttackReport(success_d=1 / 3, bound_d=1.0,
                                      success_g=1.0, bound_g=1.0, n_eval=3,
                                      unseen_t=(5,))
        assert format_report("test", report).splitlines() == [
            "attack report: test",
            "  eval steps          3",
            "  demand guess rate   0.3333 (bound 1.0000)",
            "  channel guess rate  1.0000 (bound 1.0000)",
            "  bound respected     True",
            "  unseen volumes      [5] (uniform fallback)",
        ]


def trace_h_d_given_t(trace) -> float:
    n = len(trace)
    joint = Counter((int(d), int(t)) for d, _, t in trace)
    marg = Counter(int(t) for _, _, t in trace)
    h = lambda c: -sum(m / n * math.log2(m / n) for m in c.values())
    return h(joint) - h(marg)
