import csv
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mecpriv.cli import build_parser, main
from mecpriv.nn import (CheckpointError, NetworkSpec, init_params,
                        load_checkpoint, save_checkpoint)
from mecpriv.nn.checkpoint import MAGIC

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


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def blas_env_after_import(**preset):
    """The BLAS thread variables seen after `import mecpriv.cli` in a fresh
    interpreter whose environment has only the preset ones."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import json, os, mecpriv.cli; "
            f"print(json.dumps({{k: os.environ.get(k) for k in {BLAS_VARS!r}}}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


class TestBlasThreads:
    def test_unset_variables_pin_one_thread(self):
        assert blas_env_after_import() == dict.fromkeys(BLAS_VARS, "1")

    def test_user_setting_wins(self):
        got = blas_env_after_import(OPENBLAS_NUM_THREADS="2")
        assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}


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

    @pytest.mark.parametrize("command", ["evaluate", "attack"])
    @pytest.mark.parametrize("agent", ["greedy", "uniform", "drqn"])
    def test_theta_needs_theta_agent(self, tmp_path, capsys, command, agent):
        assert main([command, "--agent", agent, "--theta", "0.3",
                     "--scale", "desk", "--out", str(tmp_path)]) == 3
        assert "--theta" in capsys.readouterr().err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("command", ["evaluate", "attack"])
    @pytest.mark.parametrize("flags", [
        ["--agent", "drqn"],
        ["--agent", "drqn", "--checkpoint", "{tmp}/garbage.qnet"],
        ["--agent", "greedy", "--theta", "0.3"],
        ["--agent", "greedy", "--checkpoint", "{tmp}/missing.qnet"],
        ["--agent", "theta", "--checkpoint", "{tmp}/missing.qnet"],
        ["--agent", "uniform", "--checkpoint", "{tmp}/garbage.qnet"],
    ], ids=["no-checkpoint", "unreadable-checkpoint", "theta-on-greedy",
            "checkpoint-on-greedy", "checkpoint-on-theta",
            "checkpoint-on-uniform"])
    def test_policy_error_leaves_no_output_dir(self, tmp_path, command,
                                               flags):
        (tmp_path / "garbage.qnet").write_bytes(b"not a checkpoint")
        out = tmp_path / "out"
        flags = [f.format(tmp=tmp_path) for f in flags]
        assert main([command, *flags, "--scale", "desk",
                     "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--agent", "greedy", "--jobs", "3"],
        ["attack", "--agent", "greedy", "--jobs", "2"],
        ["train", "--agent", "dqn", "--jobs", "2"],
        ["train", "--agent", "dqn", "--theta", "0.3"],
        ["sweep-lambda", "--theta", "0.3"],
        ["validate-config", "--jobs", "2"],
    ], ids=["evaluate-jobs", "attack-jobs", "train-jobs", "train-theta",
            "sweep-lambda-theta", "validate-jobs"])
    def test_undeclared_flag_is_usage_error(self, argv, tmp_path):
        assert main(argv + ["--scale", "desk", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("command",
                             ["train", "sweep-lambda", "validate-config"])
    def test_drqn_without_gru_layer_is_config_error(self, tmp_path, capsys,
                                                    command):
        # such a net trains, but no drqn command could load its checkpoint
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_TRAIN_INI.replace("gru_layers = 1",
                                              "gru_layers = 0"))
        out = tmp_path / "out"
        assert main([command, "--config", str(ini), "--scale", "desk",
                     "--out", str(out)]) == 3
        assert "gru_layers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command",
                             ["train", "sweep-lambda", "validate-config"])
    @pytest.mark.parametrize("agent, ini, key", [
        ("dqn", "[agent]\nepisodes = 2\nbuffer_capacity = 8\n"
                "batch_size = 32\n", "buffer_capacity"),
        ("drqn", "[env]\nepisode_len = 20\n", "episode_len"),
    ], ids=["dqn-batch-beyond-buffer", "drqn-window-beyond-episode"])
    def test_learner_that_cannot_train_is_config_error(
            self, tmp_path, capsys, command, agent, ini, key):
        # a dqn whose ring never holds a batch trains nothing; a drqn
        # window longer than an episode cannot be sampled
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        out = tmp_path / "out"
        assert main([command, "--agent", agent, "--config", str(path),
                     "--scale", "desk", "--out", str(out)]) == 3
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestNonFinite:
    # A nan passes every `x < 0` check, and an inf every `x > 0` one.
    @pytest.mark.parametrize("command, ini, flags, named", [
        ("evaluate", None, ["--lambda", "nan"], "privacy_weight"),
        ("evaluate", "[env]\ne_local = nan\n", [], "e_local"),
        ("validate-config", "[agent]\nalpha = nan\n", [], "alpha"),
        ("validate-config", "[env]\ntask_size_kb = inf\n", [],
         "task_size_kb"),
        ("validate-config", "[run]\ntheta_grid = 0.5, nan\n", [], "theta"),
        ("validate-config", "[run]\nlambda_grid = 2, inf\n", [], "lambda"),
        ("validate-config", None, ["--lambda", "nan"], "privacy_weight"),
    ], ids=["evaluate-lambda", "evaluate-e_local", "alpha", "task_size_kb",
            "theta_grid", "lambda_grid", "validate-lambda"])
    def test_is_config_error(self, tmp_path, capsys, command, ini, flags,
                             named):
        if ini is not None:
            (tmp_path / "bad.ini").write_text(ini)
            flags = flags + ["--config", str(tmp_path / "bad.ini")]
        out = tmp_path / "out"
        argv = [command, "--scale", "desk", "--out", str(out), *flags]
        if command == "evaluate":
            argv += ["--agent", "greedy"]
        assert main(argv) == 3
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    def test_each_call_parses_afresh(self, tmp_path, capsys):
        # one parser serves every call of the process
        assert build_parser() is build_parser()

        def greedy(name):
            out = tmp_path / name
            assert main(["evaluate", "--agent", "greedy", "--scale", "desk",
                         "--seed", "7", "--out", str(out)]) == 0
            return (out / "metrics.csv").read_bytes()

        first = greedy("first")
        assert main(["evaluate", "--agent", "theta", "--theta", "0.3",
                     "--scale", "desk", "--seed", "7",
                     "--out", str(tmp_path / "theta")]) == 0
        # no --theta left over from the call before
        assert greedy("after-theta") == first
        assert main(["evaluate", "--scale", "galactic"]) == 2
        assert main(["evaluate", "--help"]) == 0
        assert "--checkpoint" in capsys.readouterr().out
        assert greedy("after-errors") == first


class TestCheckpointMismatch:
    # desk widths: state encoding 12, observation encoding 66, 54 actions
    @pytest.mark.parametrize("kind, spec", [
        ("drqn", NetworkSpec(10, (8,), (), 54)),
        ("dqn", NetworkSpec(66, (), (8,), 54)),
        ("drqn", NetworkSpec(66, (8,), (), 7)),
        ("dqn", NetworkSpec(12, (), (8,), 55)),
        ("dqn", NetworkSpec(12, (8,), (), 54)),
        ("drqn", NetworkSpec(66, (), (8,), 54)),
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

    @staticmethod
    def _file(desc):
        blob = desc if isinstance(desc, bytes) else json.dumps(desc).encode()
        return MAGIC + struct.pack("<II", 1, len(blob)) + blob

    @classmethod
    def _sized(cls, desc, spec):
        """A file whose parameter bytes fit spec, the net desc's widths
        give by position, so only its descriptor is at fault."""
        n = sum(a.size for layer in init_params(spec, np.random.default_rng(0))
                for a in layer.values())
        return cls._file(desc) + bytes(8 * n)

    @pytest.mark.parametrize("defect", [
        "short-header", "bad-json", "no-input-dim", "zero-units",
        "bad-activation", "huge-layer", "float-input-dim", "float-units",
        "bool-units", "dense-before-gru", "deep-nesting", "extra-key",
        "extra-field", "identity-hidden", "relu-output", "gru-output",
        "unknown-kind", "no-layers"])
    def test_malformed_is_config_error(self, tmp_path, capsys, defect):
        out = ["dense", 54, "identity"]
        gru8 = NetworkSpec(66, (8,), (), 54)
        content = {
            "short-header": MAGIC + b"\x01\x00",
            "bad-json": self._file(b"{input_dim: 66"),
            "no-input-dim": self._file({"layers": [["gru", 8], out]}),
            "zero-units": self._file({"input_dim": 66,
                                      "layers": [["gru", 0], out]}),
            "bad-activation": self._file({"input_dim": 66, "layers": [
                ["gru", 8], ["dense", 54, "softmax"]]}),
            # no array follows: the loader must not size one for it
            "huge-layer": self._file({"input_dim": 66,
                                      "layers": [["gru", 10 ** 12], out]}),
            # sizes must be integers, not numbers that int() truncates
            "float-input-dim": self._sized(
                {"input_dim": 66.5, "layers": [["gru", 8], out]}, gru8),
            "float-units": self._sized(
                {"input_dim": 66, "layers": [["gru", 8],
                                             ["dense", 1.5, "relu"], out]},
                NetworkSpec(66, (8,), (1,), 54)),
            "bool-units": self._sized(
                {"input_dim": 66, "layers": [["gru", True], out]},
                NetworkSpec(66, (1,), (), 54)),
            # sized for its layers: dense(66, 8), GRU(8, 8), dense(8, 54)
            "dense-before-gru": self._file(
                {"input_dim": 66, "layers": [["dense", 8, "relu"],
                                             ["gru", 8], out]})
            + bytes(8 * (66 * 8 + 8 + 2 * 8 * 24 + 24 + 8 * 54 + 54)),
            # deeper than the JSON decoder recurses
            "deep-nesting": self._file(b"[" * 100000 + b"]" * 100000),
            # descriptors save_checkpoint never writes, each sized for
            # the net its widths give by position
            "extra-key": self._sized({"input_dim": 66, "layers": [
                ["gru", 8], out], "note": 1}, gru8),
            "extra-field": self._sized({"input_dim": 66, "layers": [
                ["gru", 8, "tanh"], out]}, gru8),
            "identity-hidden": self._sized({"input_dim": 66, "layers": [
                ["gru", 8], ["dense", 8, "identity"], out]},
                NetworkSpec(66, (8,), (8,), 54)),
            "relu-output": self._sized({"input_dim": 66, "layers": [
                ["gru", 8], ["dense", 54, "relu"]]}, gru8),
            # sized for its layers: GRU(66, 8), GRU(8, 54)
            "gru-output": self._file({"input_dim": 66, "layers": [
                ["gru", 8], ["gru", 54]]})
            + bytes(8 * (66 * 24 + 8 * 24 + 24 + 8 * 162 + 54 * 162 + 162)),
            "unknown-kind": self._sized({"input_dim": 66, "layers": [
                ["lstm", 8], out]}, NetworkSpec(66, (), (8,), 54)),
            "no-layers": self._file({"input_dim": 66, "layers": []}),
        }[defect]
        path = tmp_path / "net.qnet"
        path.write_bytes(content)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        assert main(["evaluate", "--agent", "drqn", "--scale", "desk",
                     "--checkpoint", str(path),
                     "--out", str(tmp_path / "out")]) == 3
        assert "config error: cannot load checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestValidateConfig:
    def test_readme_config(self, capsys, readme_ini):
        assert main(["validate-config", "--config", str(readme_ini)]) == 0
        assert "OK (policy drqn, 1000 episodes x 1200 steps)" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("agent", ["dqn", "greedy"])
    def test_reports_the_resolved_policy(self, capsys, agent):
        assert main(["validate-config", "--scale", "desk",
                     "--agent", agent]) == 0
        assert f"(policy {agent}, 300 episodes" in capsys.readouterr().out

    def test_overrides_are_validated(self):
        assert main(["validate-config", "--scale", "desk",
                     "--lambda", "-1"]) == 3

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

    @pytest.mark.parametrize("argv, code", [
        (["--seed", "3"], 0),
        (["--seed", "-1"], 3),
        (["--config", "none.ini"], 2),
        (["--scale", "desk"], 2),
        (["--agent", "dqn"], 2),
        (["--lambda", "1"], 2),
        (["--out", "out"], 2),
    ], ids=["seed", "seed-negative", "config", "scale", "agent", "lambda",
            "out"])
    def test_takes_only_a_seed(self, tmp_path, monkeypatch, argv, code):
        monkeypatch.chdir(tmp_path)
        assert main(["gradcheck", *argv]) == code
        assert not any(tmp_path.iterdir())


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

    def test_theta_zero_matches_greedy(self, tmp_path):
        # theta 0 draws no random number, so it plays greedy's episodes
        rows = {}
        for agent in (["greedy"], ["theta", "--theta", "0"]):
            out = tmp_path / agent[0]
            assert main(["evaluate", "--agent", *agent, "--scale", "desk",
                         "--seed", "7", "--out", str(out)]) == 0
            rows[agent[0]] = read_csv(out / "metrics.csv")[0]
        assert rows["greedy"].pop("label") == "greedy"
        assert rows["theta"].pop("label") == "theta=0"
        assert rows["theta"] == rows["greedy"]

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


class TestSweepLambda:
    @pytest.mark.parametrize("agent", ["dqn", "drqn"])
    def test_trains_the_chosen_learner(self, tmp_path, agent):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_TRAIN_INI)
        out = tmp_path / "out"
        assert main(["sweep-lambda", "--agent", agent, "--config", str(ini),
                     "--scale", "desk", "--lambda", "10",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "sweep_lambda.csv")
        assert rows[0]["label"] == f"{agent} lambda=10"
        spec, _ = load_checkpoint(out / "checkpoint_lambda10.qnet")
        assert bool(spec.gru) == (agent == "drqn")

    @pytest.mark.parametrize("agent", ["greedy", "theta", "uniform"])
    def test_baseline_agent_is_config_error(self, tmp_path, capsys, agent):
        ini = tmp_path / "tiny.ini"
        ini.write_text(TINY_TRAIN_INI)
        out = tmp_path / "out"
        assert main(["sweep-lambda", "--agent", agent, "--config", str(ini),
                     "--scale", "desk", "--lambda", "10",
                     "--out", str(out)]) == 3
        assert "--agent dqn or drqn" in capsys.readouterr().err
        assert not out.exists()


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
