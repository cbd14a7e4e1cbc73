"""Command-line entry point.

Commands: train, evaluate, sweep-theta, sweep-lambda, attack, gradcheck,
validate-config. Exit codes: 0 success, 1 runtime failure, 2 usage error,
3 config validation error.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from pathlib import Path

import numpy as np

from .adversary import attack_evaluation, fit, format_report
from .agents import QPolicy, obs_dim, state_dim
from .baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from .harness import (ConfigError, RunConfig, config_as_dict, evaluate,
                      load_config, rollout_trace, scaled_config, sweep_lambda,
                      sweep_theta, train, write_attack_csv,
                      write_learning_curve_csv, write_manifest,
                      write_metrics_csv)
from .nn import (CheckpointError, NetworkSpec, gradient_check,
                 load_checkpoint, save_checkpoint)

DENSE_GRADCHECK_TOL = 1e-6
GRU_GRADCHECK_TOL = 1e-4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mecpriv",
        description="Privacy-aware task-offloading experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="config file (INI sections env/agent/run)")
    common.add_argument("--seed", type=int, help="override the seed list with one seed")
    common.add_argument("--out", type=Path, help="output directory (or $MECPRIV_OUT)")
    common.add_argument("--scale", choices=("paper", "desk"), default="paper",
                        help="preset: full-scale or minutes-scale runs")
    common.add_argument("--agent", choices=("dqn", "drqn", "greedy", "theta", "uniform"))
    common.add_argument("--lambda", dest="lam", type=float,
                        help="privacy reward weight override")
    theta = argparse.ArgumentParser(add_help=False)
    theta.add_argument("--theta", type=float,
                       help="randomization level for the theta agent")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1,
                      help="parallel workers across sweep cells")

    sub.add_parser("train", parents=[common], help="train a dqn or drqn agent")
    ev = sub.add_parser("evaluate", parents=[common, theta],
                        help="evaluate a policy")
    ev.add_argument("--checkpoint", type=Path, help="trained network for dqn/drqn")
    sub.add_parser("sweep-theta", parents=[common, theta, jobs],
                   help="evaluate the theta grid")
    sub.add_parser("sweep-lambda", parents=[common, jobs],
                   help="train and evaluate one agent per privacy weight")
    at = sub.add_parser("attack", parents=[common, theta],
                        help="fit the volume attacker against a policy")
    at.add_argument("--checkpoint", type=Path)
    at.add_argument("--steps", type=int, default=100_000,
                    help="rollout length for each of the fit and eval traces")
    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of the network gradients")
    gc.add_argument("--seed", type=int, default=7,
                    help="seed of the checked nets' parameters and data")
    sub.add_parser("validate-config", parents=[common],
                   help="parse and validate a config file")
    return parser


def _check_args(args) -> None:
    """Overrides that no config validation sees; each command declares
    only the flags it uses."""
    theta = getattr(args, "theta", None)
    if theta is not None and not 0.0 <= theta <= 1.0:
        raise ConfigError(f"--theta must be in [0, 1], got {theta:g}")
    if getattr(args, "jobs", 1) < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    if getattr(args, "steps", 1) < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")


def resolve_config(args) -> RunConfig:
    _check_args(args)
    if args.config is not None:
        cfg = load_config(args.config, scale=args.scale, policy=args.agent)
    else:
        cfg = scaled_config(args.scale, policy=args.agent or "drqn")
    updates = {}
    if args.seed is not None:
        updates["seeds"] = (args.seed,)
    out = args.out or os.environ.get("MECPRIV_OUT")
    if out:
        updates["out_dir"] = str(out)
    if updates:
        cfg = dataclasses.replace(cfg, **updates)
    if args.lam is not None:
        try:
            env = dataclasses.replace(cfg.env, privacy_weight=args.lam)
        except ValueError as exc:
            raise ConfigError(f"--lambda {args.lam:g}: {exc}") from exc
        cfg = dataclasses.replace(cfg, env=env)
    return cfg


def _out_dir(cfg: RunConfig, command: str) -> Path:
    """Make the output directory and write its manifest. Commands call it
    once their inputs have checked out, so a config error leaves none."""
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    write_manifest(path / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": command})
    return path


def _build_policy(kind: str, cfg: RunConfig, args):
    env = cfg.env
    if args.theta is not None and kind != "theta":
        raise ConfigError(f"--theta applies to the theta agent, not {kind!r}")
    if args.checkpoint is not None and kind not in ("dqn", "drqn"):
        raise ConfigError(f"--checkpoint applies to dqn and drqn, not {kind!r}")
    if kind == "greedy":
        return GreedyPolicy(env)
    if kind == "uniform":
        return UniformPolicy(env)
    if kind == "theta":
        return ThetaPrivatePolicy(env, 0.5 if args.theta is None else args.theta)
    if args.checkpoint is None:
        raise ConfigError(f"--checkpoint required for agent {kind!r}")
    try:
        spec, params = load_checkpoint(args.checkpoint)
    except (OSError, CheckpointError) as exc:
        raise ConfigError(f"cannot load checkpoint: {exc}") from exc
    width = obs_dim(env) if kind == "drqn" else state_dim(env)
    if spec.input_dim != width:
        raise ConfigError(f"checkpoint input_dim {spec.input_dim} does not "
                          f"match the {kind} encoder width {width}")
    if spec.output_dim != env.n_actions:
        raise ConfigError(f"checkpoint output_dim {spec.output_dim} does not "
                          f"match n_actions {env.n_actions}")
    if bool(spec.gru) != (kind == "drqn"):
        raise ConfigError(f"a {kind} checkpoint must "
                          f"{'have' if kind == 'drqn' else 'not have'} "
                          f"a GRU layer")
    return QPolicy(spec, params, env)


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if cfg.policy not in ("dqn", "drqn"):
        raise ConfigError("train requires --agent dqn or drqn")
    out = _out_dir(cfg, args.command)
    result = train(cfg.policy, cfg.env, cfg.agent,
                   np.random.default_rng(cfg.seeds[0]))
    save_checkpoint(out / "checkpoint.qnet", result.spec, result.params)
    write_learning_curve_csv(out / "learning_curve.csv", result.curve)
    policy = QPolicy(result.spec, result.params, cfg.env)
    record = evaluate(policy, cfg.env, cfg.eval_episodes, cfg.seeds,
                      label=cfg.policy)
    write_metrics_csv(out / "metrics.csv", [record])
    print(f"trained {cfg.policy} for {cfg.agent.episodes} episodes; "
          f"artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    policy = _build_policy(cfg.policy, cfg, args)
    out = _out_dir(cfg, args.command)
    label = cfg.policy if cfg.policy != "theta" else \
        f"theta={policy.theta:g}"
    record = evaluate(policy, cfg.env, cfg.eval_episodes, cfg.seeds, label=label)
    write_metrics_csv(out / "metrics.csv", [record])
    print(f"{label}: avg cost/task {record.avg_cost_per_task:.4f}, "
          f"H(D,T) {record.h_dt:.4f} bits; metrics in {out}")
    return 0


def cmd_sweep_theta(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg, args.command)
    grid = (args.theta,) if args.theta is not None else cfg.theta_grid
    records = sweep_theta(grid, cfg.env, cfg.eval_episodes, cfg.seeds,
                          jobs=args.jobs)
    write_metrics_csv(out / "sweep_theta.csv", records,
                      extra={"theta": [float(t) for t in grid]})
    for theta, rec in zip(grid, records):
        print(f"theta={theta:g}: cost/task {rec.avg_cost_per_task:.4f}, "
              f"H(D,T) {rec.h_dt:.4f}")
    return 0


def cmd_sweep_lambda(args) -> int:
    cfg = resolve_config(args)
    if cfg.policy not in ("dqn", "drqn"):
        raise ConfigError("sweep-lambda requires --agent dqn or drqn")
    out = _out_dir(cfg, args.command)
    grid = (args.lam,) if args.lam is not None else cfg.lambda_grid
    results = sweep_lambda(cfg.policy, grid, cfg.env, cfg.agent, cfg.seeds[0],
                           cfg.eval_episodes, cfg.seeds, jobs=args.jobs)
    records = [rec for rec, _ in results]
    write_metrics_csv(out / "sweep_lambda.csv", records,
                      extra={"lambda": [float(l) for l in grid]})
    for lam, (rec, trained) in zip(grid, results):
        write_learning_curve_csv(out / f"learning_curve_lambda{lam:g}.csv",
                                 trained.curve)
        save_checkpoint(out / f"checkpoint_lambda{lam:g}.qnet",
                        trained.spec, trained.params)
        print(f"lambda={lam:g}: cost/task {rec.avg_cost_per_task:.4f}, "
              f"H(D,T) {rec.h_dt:.4f}")
    return 0


def cmd_attack(args) -> int:
    cfg = resolve_config(args)
    policy = _build_policy(cfg.policy, cfg, args)
    out = _out_dir(cfg, args.command)
    seed = cfg.seeds[0]
    fit_trace = rollout_trace(policy, cfg.env,
                              np.random.default_rng([seed, 0]), args.steps)
    eval_trace = rollout_trace(policy, cfg.env,
                               np.random.default_rng([seed, 1]), args.steps)
    model = fit(fit_trace, n_d=cfg.env.d_max + 1, n_g=2)
    report = attack_evaluation(eval_trace, model)
    print(format_report(cfg.policy, report))
    write_attack_csv(out / "attack.csv", cfg.policy, report)
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    dense_spec = NetworkSpec(input_dim=6, gru=(), dense=(8, 8), output_dim=4)
    gru_spec = NetworkSpec(input_dim=5, gru=(4,), dense=(), output_dim=4)
    dense_err = gradient_check(dense_spec, seed)
    gru_err = gradient_check(gru_spec, seed, seq_len=6)
    ok = dense_err <= DENSE_GRADCHECK_TOL and gru_err <= GRU_GRADCHECK_TOL
    print(f"dense layers: max relative error {dense_err:.3e} "
          f"(tol {DENSE_GRADCHECK_TOL:.0e})")
    print(f"gru layers:   max relative error {gru_err:.3e} "
          f"(tol {GRU_GRADCHECK_TOL:.0e})")
    print("gradcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def cmd_validate_config(args) -> int:
    cfg = resolve_config(args)
    source = "built-in defaults" if args.config is None else args.config
    print(f"{source}: OK (policy {cfg.policy}, "
          f"{cfg.agent.episodes} episodes x {cfg.env.episode_len} steps)")
    return 0


COMMANDS = {
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "sweep-theta": cmd_sweep_theta,
    "sweep-lambda": cmd_sweep_lambda,
    "attack": cmd_attack,
    "gradcheck": cmd_gradcheck,
    "validate-config": cmd_validate_config,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
