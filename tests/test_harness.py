import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mecpriv.agents import AgentConfig, DRQNPolicy, drqn_network_spec
from mecpriv.baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from mecpriv.env import EnvParams
from mecpriv.harness import (ConfigError, RunConfig, config_as_dict,
                             desk_agent, desk_env, episode_metrics,
                             episode_rng, evaluate, load_config, paper_env,
                             rollout_trace, run_episode, scaled_config,
                             sweep_lambda, sweep_theta, write_manifest,
                             write_metrics_csv)
from mecpriv.nn import init_params

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK = desk_env()


class TestRunEpisode:
    def test_greedy_energy_per_task_in_band(self):
        # good-channel offloads cost 0.5 J, bad-channel local work 1 J
        rec = evaluate(GreedyPolicy(DESK), DESK, 20, (1, 2), "greedy")
        assert 0.5 <= rec.avg_energy_per_task <= 1.0

    def test_uniform_more_entropic_than_greedy(self):
        logs = {}
        for name, pol in [("greedy", GreedyPolicy(DESK)),
                          ("uniform", UniformPolicy(DESK))]:
            logs[name] = episode_metrics(
                run_episode(pol, DESK, episode_rng(3, 0)))
        assert logs["uniform"].h_dt > logs["greedy"].h_dt

    def test_zero_length_episode_rejected(self):
        with pytest.raises(ValueError):
            EnvParams(episode_len=0)

    def test_task_conservation(self):
        for pol in (GreedyPolicy(DESK), UniformPolicy(DESK)):
            for seed in (0, 1, 2):
                log = run_episode(pol, DESK, episode_rng(seed, 0))
                handled = int(log.l.sum() + log.t.sum())
                assert handled + log.buffer_final == int(log.d.sum())

    def test_cost_identity_from_raw_logs(self):
        log = run_episode(UniformPolicy(DESK), DESK, episode_rng(4, 0))
        m = episode_metrics(log)
        assert m.avg_cost_per_task == pytest.approx(
            DESK.delay_weight * m.avg_delay_per_task + m.avg_energy_per_task,
            abs=1e-9)
        assert m.tasks_handled == int(log.l.sum() + log.t.sum())

    @pytest.mark.parametrize("kind", ["greedy", "theta", "uniform", "drqn"])
    def test_rollout_and_episode_share_rng_order(self, kind):
        # rollout_trace skips the privacy window; nothing else may differ
        if kind == "drqn":
            cfg = AgentConfig(gru_layers=1, gru_units=8, dense_layers=1,
                              dense_units=8)
            spec = drqn_network_spec(DESK, cfg)
            policy = DRQNPolicy(spec, init_params(spec,
                                                  np.random.default_rng(0)),
                                DESK)
        else:
            policy = {"greedy": GreedyPolicy(DESK),
                      "theta": ThetaPrivatePolicy(DESK, 0.5),
                      "uniform": UniformPolicy(DESK)}[kind]
        for seed in (0, 1):
            trace = rollout_trace(policy, DESK, episode_rng(seed, 0),
                                  DESK.episode_len)
            log = run_episode(policy, DESK, episode_rng(seed, 0))
            assert np.array_equal(trace, np.stack([log.d, log.g, log.t], 1))

    def test_per_step_log_consistency(self):
        log = run_episode(UniformPolicy(DESK), DESK, episode_rng(5, 0))
        assert np.all(log.l == log.d + log.b - log.q - log.t)
        assert np.all(log.l >= 0)
        assert np.all(log.cost == pytest.approx(
            DESK.delay_weight * log.latency + log.energy))
        assert np.all(log.reward == pytest.approx(
            DESK.privacy_weight * log.p_total - log.cost))


class TestEvaluate:
    def test_deterministic_records(self):
        a = evaluate(GreedyPolicy(DESK), DESK, 5, (7, 8), "greedy")
        b = evaluate(GreedyPolicy(DESK), DESK, 5, (7, 8), "greedy")
        assert a == b

    def test_episode_count(self):
        rec = evaluate(GreedyPolicy(DESK), DESK, 4, (1, 2, 3), "greedy")
        assert rec.episodes == 12

    def test_csv_byte_identical(self, tmp_path):
        rec = evaluate(GreedyPolicy(DESK), DESK, 3, (1,), "greedy")
        p1 = write_metrics_csv(tmp_path / "a.csv", [rec])
        p2 = write_metrics_csv(tmp_path / "b.csv", [rec])
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header.startswith("label,avg_cost_per_task,avg_delay_per_task")


class TestSweeps:
    def test_theta_zero_matches_greedy_record(self):
        greedy = evaluate(GreedyPolicy(DESK), DESK, 5, (1, 2), "x")
        row = sweep_theta([0.0], DESK, 5, (1, 2))[0]
        for name in ("avg_cost_per_task", "avg_delay_per_task",
                     "avg_energy_per_task", "h_dt", "h_gt", "heuristic",
                     "avg_reward_per_step"):
            assert getattr(row, name) == getattr(greedy, name)

    def test_full_randomization_adds_entropy(self):
        # measured gap is ~0.83 bits: uniform randomization spends much of
        # its entropy on the unobservable q split, capping the t spread
        rows = sweep_theta([0.0, 1.0], DESK, 10, (1, 2, 3))
        assert rows[1].h_dt - rows[0].h_dt >= 0.8

    def test_cost_rises_with_theta(self):
        rows = sweep_theta([0.0, 0.5, 1.0], DESK, 10, (1, 2, 3))
        costs = [r.avg_cost_per_task for r in rows]
        assert all(b >= a - 0.05 for a, b in zip(costs, costs[1:]))

    def test_parallel_cells_match_serial(self):
        serial = sweep_theta([0.0, 0.6], DESK, 3, (1, 2), jobs=1)
        parallel = sweep_theta([0.0, 0.6], DESK, 3, (1, 2), jobs=2)
        assert serial == parallel

    def test_lambda_sweep_smoke(self, tmp_path):
        env = dataclasses.replace(DESK, episode_len=60, window=8)
        cfg = desk_agent("drqn", episodes=2, batch_size=4, seq_len=8,
                         tbptt_len=4, gru_units=8, dense_units=8,
                         buffer_capacity=500)
        results = sweep_lambda([0.0, 5.0], env, cfg, train_seed=1,
                               episodes=2, seeds=(1,))
        assert len(results) == 2
        records = [rec for rec, _ in results]
        path = write_metrics_csv(tmp_path / "lam.csv", records,
                                 extra={"lambda": [0.0, 5.0]})
        lines = path.read_text().splitlines()
        assert lines[0].startswith("lambda,label,")
        assert len(lines) == 3


class TestConfig:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("""
[env]
episode_len = 50
window = 16
privacy_weight = 5.0

[agent]
episodes = 4
gru_layers = 1

[run]
policy = dqn
seeds = 3, 4
lambda_grid = 1, 2
theta_grid = 0, 1
eval_episodes = 2
out_dir = runs/test
""")
        cfg = load_config(path)
        assert cfg.env.episode_len == 50 and cfg.env.window == 16
        assert cfg.env.privacy_weight == 5.0
        assert cfg.agent.episodes == 4 and cfg.agent.gru_layers == 1
        assert cfg.policy == "dqn" and cfg.seeds == (3, 4)
        assert cfg.lambda_grid == (1.0, 2.0)

    def test_desk_scale_base(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[agent]\nepisodes = 7\n")
        cfg = load_config(path, scale="desk")
        assert cfg.agent.episodes == 7
        assert cfg.env.window == 32 and cfg.env.episode_len == 400

    @pytest.mark.parametrize("scale", ["desk", "paper"])
    @pytest.mark.parametrize("policy", [None, "dqn", "drqn"])
    def test_shipped_config_is_builtin_preset(self, scale, policy):
        shipped = load_config(CONFIGS / f"{scale}.ini", scale=scale,
                              policy=policy)
        builtin = scaled_config(scale, policy=policy or "drqn")
        assert shipped.policy == builtin.policy
        assert shipped.env == builtin.env
        assert shipped.agent == builtin.agent

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[env]\nbuffer_len = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nunits = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[env]\nepisode_len = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(env=paper_env(), agent=AgentConfig(), seeds=(1, 1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(env=paper_env(), agent=AgentConfig(), seeds=(1, -1))

    @pytest.mark.parametrize("grid", [(2.0, 2.0000001), (2.0, 2.0004),
                                      (2.0, 2.0000001, 2.0004)])
    def test_colliding_lambda_cells_rejected(self, grid):
        # equal int(lambda * 1000) shares a training seed, equal
        # f"{lambda:g}" an output file name
        with pytest.raises(ConfigError):
            RunConfig(env=paper_env(), agent=AgentConfig(), lambda_grid=grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(env=paper_env(), agent=AgentConfig(), lambda_grid=())

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(env=paper_env(), agent=AgentConfig(), policy="ppo")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")


class TestManifest:
    def test_manifest_contents_and_determinism(self, tmp_path):
        cfg = RunConfig(env=DESK, agent=desk_agent("drqn"))
        p1 = write_manifest(tmp_path / "m1.json", config_as_dict(cfg),
                            cfg.seeds)
        p2 = write_manifest(tmp_path / "m2.json", config_as_dict(cfg),
                            cfg.seeds)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "artifact_version" in text
        assert "stand-in" in text  # heuristic metric is a labeled placeholder
        assert '"privacy_weight": 10.0' in text
