import csv
from pathlib import Path

import numpy as np
import pytest

from mecpriv.cli import main
from mecpriv.nn import Dense, GRU, NetworkSpec, init_params, save_checkpoint

REPO = Path(__file__).resolve().parent.parent

TINY_TRAIN_INI = """
[env]
episode_len = 60
window = 8

[agent]
episodes = 2
batch_size = 4
seq_len = 8
tbptt_len = 4
gru_layers = 1
gru_units = 8
dense_layers = 1
dense_units = 8
update_every = 8
buffer_capacity = 500

[run]
policy = drqn
seeds = 5
eval_episodes = 2
"""


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_command_is_usage_error(self):
        assert main([]) == 2

    def test_bad_flag_value_is_usage_error(self):
        assert main(["evaluate", "--scale", "galactic"]) == 2

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert main(["validate-config", "--config",
                     str(tmp_path / "none.ini")]) == 3

    def test_checkpoint_required_for_trained_agents(self, tmp_path):
        assert main(["evaluate", "--agent", "dqn", "--scale", "desk",
                     "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--agent", "theta", "--theta", "1.5"],
        ["sweep-theta", "--theta", "1.5"],
        ["evaluate", "--agent", "greedy", "--lambda", "-1"],
        ["evaluate", "--agent", "greedy", "--seed", "-1"],
        ["attack", "--agent", "greedy", "--steps", "0"],
        ["attack", "--agent", "greedy", "--steps", "-3"],
        ["sweep-theta", "--theta", "0", "--jobs", "0"],
        ["sweep-theta", "--theta", "0", "--jobs", "-2"],
    ], ids=["theta-evaluate", "theta-sweep", "lambda", "seed", "steps-zero",
            "steps-negative", "jobs-zero", "jobs-negative"])
    def test_bad_override_is_config_error(self, argv, tmp_path):
        assert main(argv + ["--scale", "desk", "--out", str(tmp_path)]) == 3


def _net(input_dim, hidden, output_dim=54):
    return NetworkSpec(input_dim=input_dim,
                       layers=(hidden, Dense(output_dim, "identity")))


class TestCheckpointMismatch:
    # desk widths: state encoding 12, observation encoding 66, 54 actions
    @pytest.mark.parametrize("kind, spec", [
        ("drqn", _net(10, GRU(8))),
        ("dqn", _net(66, Dense(8, "relu"))),
        ("drqn", _net(66, GRU(8), output_dim=7)),
        ("dqn", _net(12, Dense(8, "relu"), output_dim=55)),
        ("dqn", _net(12, GRU(8))),
        ("drqn", _net(66, Dense(8, "relu"))),
    ], ids=["drqn-input", "dqn-input", "drqn-output", "dqn-output",
            "dqn-with-gru", "drqn-without-gru"])
    @pytest.mark.parametrize("command", ["evaluate", "attack"])
    def test_is_config_error(self, tmp_path, capsys, command, kind, spec):
        path = tmp_path / "net.qnet"
        save_checkpoint(path, spec, init_params(spec,
                                                np.random.default_rng(0)))
        assert main([command, "--agent", kind, "--scale", "desk",
                     "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"not a checkpoint"],
                             ids=["missing", "garbage"])
    def test_unreadable_is_config_error(self, tmp_path, content):
        path = tmp_path / "net.qnet"
        if content is not None:
            path.write_bytes(content)
        assert main(["evaluate", "--agent", "drqn", "--scale", "desk",
                     "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 3


class TestValidateConfig:
    def test_shipped_paper_config(self, capsys):
        assert main(["validate-config", "--config",
                     str(REPO / "configs" / "paper.ini")]) == 0
        assert "OK" in capsys.readouterr().out

    def test_shipped_desk_config(self):
        assert main(["validate-config", "--config",
                     str(REPO / "configs" / "desk.ini"),
                     "--scale", "desk"]) == 0

    def test_builtin_defaults(self):
        assert main(["validate-config"]) == 0

    def test_invalid_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[env]\nflux_capacitance = 9\n")
        assert main(["validate-config", "--config", str(bad)]) == 3


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "dense layers" in out and "gru layers" in out
        assert "passed" in out


class TestEvaluate:
    def test_greedy_writes_deterministic_metrics(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["evaluate", "--agent", "greedy", "--scale", "desk",
                         "--seed", "9", "--out", str(out)])
            assert code == 0
        assert (out1 / "metrics.csv").read_bytes() == \
            (out2 / "metrics.csv").read_bytes()
        assert (out1 / "manifest.json").exists()
        rows = read_csv(out1 / "metrics.csv")
        assert rows[0]["label"] == "greedy"

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MECPRIV_OUT", str(tmp_path / "envout"))
        assert main(["evaluate", "--agent", "greedy", "--scale", "desk",
                     "--seed", "1"]) == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()

    def test_theta_zero_sweep_matches_greedy_row(self, tmp_path):
        greedy_out = tmp_path / "greedy"
        sweep_out = tmp_path / "sweep"
        assert main(["evaluate", "--agent", "greedy", "--scale", "desk",
                     "--seed", "3", "--out", str(greedy_out)]) == 0
        assert main(["sweep-theta", "--theta", "0", "--scale", "desk",
                     "--seed", "3", "--out", str(sweep_out)]) == 0
        greedy_row = read_csv(greedy_out / "metrics.csv")[0]
        sweep_row = read_csv(sweep_out / "sweep_theta.csv")[0]
        for col in ("avg_cost_per_task", "h_dt", "h_gt",
                    "avg_reward_per_step"):
            assert sweep_row[col] == greedy_row[col]


class TestTrainAndAttack:
    def test_train_artifacts_and_reproducibility(self, tmp_path):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_TRAIN_INI)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = main(["train", "--config", str(ini), "--scale", "desk",
                         "--out", str(out)])
            assert code == 0
        for name in ("checkpoint.qnet", "learning_curve.csv", "metrics.csv",
                     "manifest.json"):
            assert (out1 / name).exists()
        assert (out1 / "learning_curve.csv").read_bytes() == \
            (out2 / "learning_curve.csv").read_bytes()
        curve = read_csv(out1 / "learning_curve.csv")
        assert len(curve) == 2
        assert set(curve[0]) == {"episode", "total_reward", "epsilon"}

        # the saved checkpoint drives a recurrent evaluation
        code = main(["evaluate", "--agent", "drqn", "--config", str(ini),
                     "--scale", "desk", "--out", str(tmp_path / "ev"),
                     "--checkpoint", str(out1 / "checkpoint.qnet")])
        assert code == 0

    def test_attack_on_greedy(self, tmp_path, capsys):
        code = main(["attack", "--agent", "greedy", "--scale", "desk",
                     "--seed", "4", "--steps", "4000",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bound respected     True" in out
        rows = read_csv(tmp_path / "attack.csv")
        assert rows[0]["label"] == "greedy"
        assert float(rows[0]["success_d"]) <= float(rows[0]["bound_d"]) + 0.02
