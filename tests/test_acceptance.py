"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Training-backed criteria read the session fixtures from
conftest.py, so the expensive runs happen once for the whole suite.
"""
import math

import numpy as np

from mecpriv.adversary import attack_evaluation, fit
from mecpriv.agents import QPolicy
from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from mecpriv.env import EnvParams, mdp
from mecpriv.harness import (desk_env, episode_metrics, episode_rng, evaluate,
                             rollout_trace, sweep_theta, write_metrics_csv)
from mecpriv.harness.runner import run_episodes
from mecpriv.nn import NetworkSpec, gradient_check
from mecpriv.privacy import privacy_breakdown

from conftest import EVAL_EPISODES, EVAL_SEEDS


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_greedy_characterization():
    m = mdp(EnvParams())
    failures = []
    for s, a in enumerate(m.greedy):
        want = (0, m.d[s] + m.b[s] if m.g[s] == 1 else 0)
        if (m.q[a], m.t[a]) != want:
            failures.append((s, a))
    _report("criterion 1 (greedy characterization)", not failures,
            f"48 states checked, {len(failures)} exceptions")


def test_criterion_2_entropy_oracle_equivalence():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        entries = [(int(rng.integers(0, 4)), int(rng.integers(0, 2)),
                    int(rng.integers(0, 9))) for _ in range(n)]
        br = privacy_breakdown(*zip(*entries), window=64, d_max=3, t_max=8,
                               start=n - 1)
        from collections import Counter
        joint = Counter(entries)
        p_dt, p_gt, p_t = Counter(), Counter(), Counter()
        for (d, g, t), m in joint.items():
            p_dt[(d, t)] += m / n
            p_gt[(g, t)] += m / n
            p_t[t] += m / n
        h = lambda c: -sum(v * math.log2(v) for v in c.values())
        worst = max(worst, abs(br.h_dt[0] - h(p_dt)),
                    abs(br.h_gt[0] - h(p_gt)), abs(br.h_t[0] - h(p_t)))
    _report("criterion 2 (entropy oracle equivalence)", worst < 1e-9,
            f"max deviation {worst:.2e} over 1000 windows")


def test_criterion_3_gradient_fidelity():
    dense = NetworkSpec(input_dim=6, gru=(), dense=(8, 8), output_dim=4)
    gru_small = NetworkSpec(input_dim=5, gru=(16,), dense=(), output_dim=4)
    gru_stack = NetworkSpec(input_dim=5, gru=(8, 8), dense=(8,), output_dim=4)
    dense_err = gradient_check(dense, seed=7)
    gru_errs = [gradient_check(gru_small, seed=7, seq_len=6),
                gradient_check(gru_stack, seed=11, seq_len=5)]
    ok = dense_err <= 1e-6 and max(gru_errs) <= 1e-4
    _report("criterion 3 (gradient fidelity)", ok,
            f"dense {dense_err:.2e} (tol 1e-6), "
            f"gru {max(gru_errs):.2e} (tol 1e-4)")


def test_criterion_4_attack_bound(drqn_lambda10_run):
    env = desk_env()
    drqn_env, _, drqn_result = drqn_lambda10_run
    policies = [
        ("greedy", GreedyPolicy(env), env),
        ("theta=0.5", ThetaPrivatePolicy(env, 0.5), env),
        ("theta=1", UniformPolicy(env), env),
        ("drqn", QPolicy(drqn_result.spec, drqn_result.params, drqn_env),
         drqn_env),
    ]
    details = []
    ok = True
    for name, policy, penv in policies:
        fit_trace = rollout_trace(policy, penv,
                                  np.random.default_rng([71, 0]), 100_000)
        eval_trace = rollout_trace(policy, penv,
                                   np.random.default_rng([71, 1]), 100_000)
        report = attack_evaluation(eval_trace,
                                   fit(fit_trace, n_d=penv.d_max + 1, n_g=2))
        good = (report.success_d <= report.bound_d + 0.02
                and report.success_g <= report.bound_g + 0.02)
        ok = ok and good
        details.append(f"{name}: d {report.success_d:.3f}<={report.bound_d:.3f}+0.02,"
                       f" g {report.success_g:.3f}<={report.bound_g:.3f}+0.02")
    _report("criterion 4 (attack success bound)", ok, "; ".join(details))


def _at_most_one_small_inversion(values, tol):
    inversions = [(a - b) for a, b in zip(values, values[1:]) if b < a - 1e-12]
    return len(inversions) <= 1 and all(v <= tol for v in inversions)


def test_criterion_5_theta_sweep_monotone():
    env = desk_env()
    grid = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    rows = sweep_theta(grid, env, EVAL_EPISODES, EVAL_SEEDS)
    h = [r.h_dt for r in rows]
    c = [r.avg_cost_per_task for r in rows]
    ok = (_at_most_one_small_inversion(h, 0.05)
          and _at_most_one_small_inversion(c, 0.05))
    _report("criterion 5 (theta sweep monotone)", ok,
            f"H(D,T) {[round(v, 3) for v in h]}; "
            f"cost {[round(v, 3) for v in c]}")


def test_criterion_6_nonprivate_dqn_matches_greedy(dqn_lambda0_run):
    env, _, result = dqn_lambda0_run
    policy = QPolicy(result.spec, result.params, env)
    ours = evaluate(policy, env, EVAL_EPISODES, EVAL_SEEDS,
                    "dqn").avg_cost_per_task
    ref = evaluate(GreedyPolicy(env), env, EVAL_EPISODES, EVAL_SEEDS,
                   "greedy").avg_cost_per_task
    ok = ours <= 1.10 * ref
    _report("criterion 6 (non-private DQN cost)", ok,
            f"dqn {ours:.4f} vs greedy {ref:.4f} (ratio {ours / ref:.3f}, "
            f"tol 1.10)")


def test_criterion_7_privacy_learning_direction(drqn_lambda10_run,
                                                drqn_lambda2_run,
                                                drqn_lambda20_run):
    records = {}
    for lam, fixture in ((10, drqn_lambda10_run), (2, drqn_lambda2_run),
                         (20, drqn_lambda20_run)):
        env, _, result = fixture
        policy = QPolicy(result.spec, result.params, env)
        records[lam] = evaluate(policy, env, EVAL_EPISODES, EVAL_SEEDS,
                                f"drqn lambda={lam}")
    greedy = evaluate(GreedyPolicy(desk_env()), desk_env(), EVAL_EPISODES,
                      EVAL_SEEDS, "greedy")
    gain = records[10].h_dt - greedy.h_dt
    spread = records[20].h_dt - records[2].h_dt
    cost_ordered = records[20].avg_cost_per_task > records[2].avg_cost_per_task
    ok = gain >= 1.0 and spread >= 0.5 and cost_ordered
    _report("criterion 7 (privacy learning direction)", ok,
            f"H gain over greedy {gain:.3f} (need >=1.0); "
            f"H(20)-H(2) {spread:.3f} (need >=0.5); "
            f"cost {records[20].avg_cost_per_task:.3f}>"
            f"{records[2].avg_cost_per_task:.3f} {cost_ordered}")


def test_criterion_8_drqn_beats_dqn(drqn_lambda10_run, dqn_lambda10_run):
    _, _, drqn_result = drqn_lambda10_run
    _, _, dqn_result = dqn_lambda10_run
    drqn_final = np.array(drqn_result.curve)[-50:, 1].mean()
    dqn_final = np.array(dqn_result.curve)[-50:, 1].mean()
    ok = drqn_final >= dqn_final
    _report("criterion 8 (DRQN >= DQN reward)", ok,
            f"drqn {drqn_final:.0f} vs dqn {dqn_final:.0f}")


def test_criterion_9_determinism_and_conservation(tmp_path):
    env = desk_env()
    csvs = []
    for run in range(2):
        rows = sweep_theta((0.0, 0.5), env, 5, (3, 4))
        path = write_metrics_csv(tmp_path / f"run{run}.csv", rows,
                                 extra={"theta": [0.0, 0.5]})
        csvs.append(path.read_bytes())
    identical = csvs[0] == csvs[1]

    conserved = True
    for policy in (GreedyPolicy(env), ThetaPrivatePolicy(env, 0.5),
                   UniformPolicy(env)):
        for seed in (0, 1, 2, 3):
            log = run_episodes(policy, env, [episode_rng(seed, 0)])[0]
            m = episode_metrics(log)
            if m.tasks_handled + m.buffer_final != m.tasks_generated:
                conserved = False
    _report("criterion 9 (determinism and conservation)",
            identical and conserved,
            f"csv byte-identical {identical}, task conservation {conserved}")
