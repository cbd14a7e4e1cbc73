"""Workloads of the mecpriv benchmark: pinned inputs, op sequences, checks.

Each workload is a cycle of CLI commands run one after another. Every key
that sizes the work is written into a bench-owned INI, and each op's
manifest must echo those values back, so a change to the built-in presets
cannot silently resize a workload.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DESK_ENV = {"d_max": 3, "b_max": 5, "episode_len": 400, "window": 32}
SHORT_PAPER_ENV = {"d_max": 3, "b_max": 5, "episode_len": 160, "window": 128}

# The built-in desk preset's network and batch; three episodes, so two of
# them run updates (the buffer is empty during the first).
DESK_AGENT = {
    "episodes": 3, "batch_size": 32, "seq_len": 48, "tbptt_len": 16,
    "gru_layers": 1, "gru_units": 32, "dense_layers": 1, "dense_units": 32,
    "update_every": 8, "buffer_capacity": 20000,
}
# The paper net, batch and windows; the episode count, episode length and
# update cadence are cut to one drqn_update per op, and the target net
# follows after every update so that op also runs the Polyak step.
SHORT_PAPER_AGENT = {
    "episodes": 2, "batch_size": 128, "seq_len": 128, "tbptt_len": 16,
    "gru_layers": 3, "gru_units": 128, "dense_layers": 2, "dense_units": 128,
    "update_every": 160, "target_update_period": 1, "buffer_capacity": 100000,
}

# Slack the attacker may exceed its success bound by (the CLI's own).
ATTACK_SLACK = 0.02
# Float tolerance on the entropy range checks.
ENTROPY_TOL = 1e-9


class PinError(RuntimeError):
    """The program resolved a pinned key to another value."""


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scale: str
    variants: tuple[tuple[str, ...], ...]
    pins: dict
    seed_pool: int
    trace_ops: int
    steps: int = 0

    def ini_text(self) -> str:
        lines = []
        for section, values in self.pins.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value}" for key, value in values.items()]
        return "\n".join(lines) + "\n"

    def op_seeds(self, seed: int) -> list[int]:
        return random.Random(seed).sample(range(1, 1_000_000), self.seed_pool)

    def op_key(self, j: int, op_seeds: list[int]) -> tuple[int, int]:
        """(variant, seed) of op j; ops with equal keys have equal inputs."""
        v = len(self.variants)
        return j % v, op_seeds[(j // v) % len(op_seeds)]

    def argv(self, j: int, op_seeds: list[int], ini: Path, out: Path) -> list[str]:
        variant, seed = self.op_key(j, op_seeds)
        argv = [self.command, *self.variants[variant], "--scale", self.scale,
                "--config", str(ini), "--seed", str(seed), "--out", str(out)]
        if self.steps:
            argv += ["--steps", str(self.steps)]
        return argv

    def warmup_argv(self, op_seeds: list[int], ini: Path, out: Path) -> list[str]:
        return ["evaluate", "--agent", "greedy", "--scale", self.scale,
                "--config", str(ini), "--seed", str(op_seeds[0]), "--out", str(out)]

    def slots_per_op(self) -> int:
        """Environment slots one op simulates, every phase included."""
        if self.command == "attack":
            return 2 * self.steps
        slots = self.pins["run"]["eval_episodes"] * self.pins["env"]["episode_len"]
        if self.command == "train":
            slots += self.pins["agent"]["episodes"] * self.pins["env"]["episode_len"]
        return slots


WORKLOADS = {w.name: w for w in (
    Workload("policy_eval_desk", "evaluate", "desk",
             (("--agent", "greedy"), ("--agent", "theta", "--theta", "0.5"),
              ("--agent", "uniform")),
             pins={"env": DESK_ENV, "run": {"eval_episodes": 4}},
             seed_pool=32, trace_ops=24),
    Workload("attack_rollout", "attack", "desk",
             (("--agent", "greedy"), ("--agent", "uniform")),
             # eval_episodes sizes only the warm-up evaluate.
             pins={"env": DESK_ENV, "run": {"eval_episodes": 1}},
             seed_pool=16, trace_ops=16, steps=5000),
    Workload("drqn_train_desk", "train", "desk",
             (("--agent", "drqn", "--lambda", "10"),),
             pins={"env": DESK_ENV, "agent": DESK_AGENT,
                   "run": {"eval_episodes": 1}},
             seed_pool=4, trace_ops=4),
    Workload("drqn_train_paper", "train", "paper", (("--agent", "drqn"),),
             pins={"env": SHORT_PAPER_ENV, "agent": SHORT_PAPER_AGENT,
                   "run": {"eval_episodes": 1}},
             seed_pool=4, trace_ops=4),
)}


def check_pins(config: dict, pins: dict) -> None:
    """Raise PinError unless the resolved config holds every pinned value."""
    wrong = [f"[{section}] {key} = {config.get(section, {}).get(key)!r}, "
             f"pinned {value!r}"
             for section, values in pins.items()
             for key, value in values.items()
             if config.get(section, {}).get(key) != value]
    if wrong:
        raise PinError("resolved config differs from the pinned inputs: "
                       + "; ".join(wrong))


def csv_digest(out: Path) -> str:
    """One hash over every CSV an op wrote, names included."""
    h = hashlib.sha256()
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _nonfinite(row: dict, skip: tuple[str, ...]) -> list[str]:
    bad = []
    for key, raw in row.items():
        if key in skip:
            continue
        try:
            ok = math.isfinite(float(raw))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            bad.append(f"{key}={raw!r}")
    return bad


def _check_metrics(out: Path, env: dict) -> list[str]:
    rows = _read_rows(out / "metrics.csv")
    if len(rows) != 1:
        return [f"metrics.csv has {len(rows)} rows, expected 1"]
    row = rows[0]
    problems = [f"metrics.csv non-finite {item}"
                for item in _nonfinite(row, skip=("label",))]
    if problems:
        return problems
    n_d = env["d_max"] + 1
    n_t = env["d_max"] + env["b_max"] + 1
    for key, top in (("h_dt", math.log2(n_d * n_t)), ("h_gt", math.log2(2 * n_t))):
        value = float(row[key])
        if not -ENTROPY_TOL <= value <= top + ENTROPY_TOL:
            problems.append(f"metrics.csv {key}={value} outside [0, {top:.4f}]")
    return problems


def _check_attack(out: Path, steps: int) -> list[str]:
    rows = _read_rows(out / "attack.csv")
    if len(rows) != 1:
        return [f"attack.csv has {len(rows)} rows, expected 1"]
    row = rows[0]
    problems = [f"attack.csv non-finite {item}"
                for item in _nonfinite(row, skip=("label", "unseen_t"))]
    if problems:
        return problems
    for part in ("d", "g"):
        success, bound = float(row[f"success_{part}"]), float(row[f"bound_{part}"])
        if success > bound + ATTACK_SLACK:
            problems.append(f"attack success_{part}={success} exceeds "
                            f"bound_{part}={bound} + {ATTACK_SLACK}")
    if int(row["n_eval"]) != steps:
        problems.append(f"attack n_eval={row['n_eval']}, expected {steps}")
    return problems


def _obs_dim(env: dict) -> int:
    n_actions = (env["b_max"] + 1) * (env["d_max"] + env["b_max"] + 1)
    return (env["d_max"] + 1) + (env["b_max"] + 1) + 2 + n_actions


def _check_training(out: Path, env: dict, episodes: int) -> list[str]:
    # Importable only once run.load_cli() has put the checkout's src first.
    from mecpriv.nn import load_checkpoint

    problems = []
    try:
        spec, params = load_checkpoint(out / "checkpoint.qnet")
    except Exception as exc:  # noqa: BLE001 - any load failure fails the check
        problems.append(f"checkpoint does not load: {exc}")
    else:
        if spec.input_dim != _obs_dim(env):
            problems.append(f"checkpoint input_dim={spec.input_dim}, "
                            f"expected {_obs_dim(env)}")
        if not all(np.isfinite(arr).all()
                   for layer in params for arr in layer.values()):
            problems.append("checkpoint holds non-finite parameters")
    rows = _read_rows(out / "learning_curve.csv")
    if [row.get("episode") for row in rows] != [str(i) for i in range(episodes)]:
        problems.append(f"learning_curve.csv rows do not number episodes "
                        f"0..{episodes - 1}")
    problems += [f"learning_curve.csv non-finite {item}"
                 for row in rows for item in _nonfinite(row, skip=())]
    return problems


def check_outputs(w: Workload, out: Path, command: str) -> list[str]:
    """Checks of one `command` op that hold under any RNG layout; returns
    what failed. Raises PinError if the op resized the workload."""
    env = w.pins["env"]
    try:
        check_pins(json.loads((out / "manifest.json").read_text())["config"],
                   w.pins)
        if command == "attack":
            return _check_attack(out, w.steps)
        problems = _check_metrics(out, env)
        if command == "train":
            problems += _check_training(out, env, w.pins["agent"]["episodes"])
        return problems
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
