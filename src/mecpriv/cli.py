"""Command-line entry point.

Commands: train, evaluate, sweep-theta, sweep-lambda, attack, gradcheck,
validate-config. Exit codes: 0 success, 1 runtime failure, 2 usage error,
3 config validation error.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .adversary import attack_evaluation, fit, format_report
from .agents import LEARNERS, obs_dim, state_dim
from .baselines import GreedyPolicy, ThetaPrivatePolicy, UniformPolicy
from .harness import (ConfigError, RunConfig, config_as_dict, evaluate,
                      load_config, rollout_trace, scaled_config, sweep_lambda,
                      sweep_theta, train, write_attack_csv,
                      write_learning_curve_csv, write_manifest,
                      write_metrics_csv)
from .nn import (CheckpointError, Dense, GRU, NetworkSpec, gradient_check,
                 load_checkpoint, save_checkpoint)

DENSE_GRADCHECK_TOL = 1e-6
GRU_GRADCHECK_TOL = 1e-4


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
    common.add_argument("--theta", type=float, help="randomization level for the theta agent")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel workers across sweep cells")

    sub.add_parser("train", parents=[common], help="train a dqn or drqn agent")
    ev = sub.add_parser("evaluate", parents=[common], help="evaluate a policy")
    ev.add_argument("--checkpoint", type=Path, help="trained network for dqn/drqn")
    sub.add_parser("sweep-theta", parents=[common], help="evaluate the theta grid")
    sub.add_parser("sweep-lambda", parents=[common],
                   help="train and evaluate one agent per privacy weight")
    at = sub.add_parser("attack", parents=[common],
                        help="fit the volume attacker against a policy")
    at.add_argument("--checkpoint", type=Path)
    at.add_argument("--steps", type=int, default=100_000,
                    help="rollout length for each of the fit and eval traces")
    sub.add_parser("gradcheck", parents=[common],
                   help="finite-difference check of the network gradients")
    sub.add_parser("validate-config", parents=[common],
                   help="parse and validate a config file")
    return parser


def _check_args(args) -> None:
    """Overrides that no config validation sees."""
    if args.theta is not None and not 0.0 <= args.theta <= 1.0:
        raise ConfigError(f"--theta must be in [0, 1], got {args.theta:g}")
    if args.jobs < 1:
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


def _out_dir(cfg: RunConfig) -> Path:
    path = Path(cfg.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_policy(kind: str, cfg: RunConfig, args):
    env = cfg.env
    if kind == "greedy":
        return GreedyPolicy(env)
    if kind == "uniform":
        return UniformPolicy(env)
    if kind == "theta":
        theta = args.theta if args.theta is not None else 0.5
        return ThetaPrivatePolicy(env, theta)
    checkpoint = getattr(args, "checkpoint", None)
    if checkpoint is None:
        raise ConfigError(f"--checkpoint required for agent {kind!r}")
    try:
        spec, params = load_checkpoint(checkpoint)
    except (OSError, CheckpointError) as exc:
        raise ConfigError(f"cannot load checkpoint: {exc}") from exc
    width = obs_dim(env) if kind == "drqn" else state_dim(env)
    if spec.input_dim != width:
        raise ConfigError(f"checkpoint input_dim {spec.input_dim} does not "
                          f"match the {kind} encoder width {width}")
    if spec.output_dim != env.n_actions:
        raise ConfigError(f"checkpoint output_dim {spec.output_dim} does not "
                          f"match n_actions {env.n_actions}")
    if bool(spec.gru_units) != (kind == "drqn"):
        raise ConfigError(f"a {kind} checkpoint must "
                          f"{'have' if kind == 'drqn' else 'not have'} "
                          f"a GRU layer")
    return LEARNERS[kind].policy(spec, params, env)


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    if cfg.policy not in LEARNERS:
        raise ConfigError("train requires --agent dqn or drqn")
    out = _out_dir(cfg)
    result = train(cfg.policy, cfg.env, cfg.agent,
                   np.random.default_rng(cfg.seeds[0]))
    save_checkpoint(out / "checkpoint.qnet", result.spec, result.params)
    write_learning_curve_csv(out / "learning_curve.csv", result.curve)
    policy = LEARNERS[cfg.policy].policy(result.spec, result.params, cfg.env)
    record = evaluate(policy, cfg.env, cfg.eval_episodes, cfg.seeds,
                      label=cfg.policy)
    write_metrics_csv(out / "metrics.csv", [record])
    write_manifest(out / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": "train"})
    print(f"trained {cfg.policy} for {cfg.agent.episodes} episodes; "
          f"artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg)
    policy = _build_policy(cfg.policy, cfg, args)
    label = cfg.policy if cfg.policy != "theta" else \
        f"theta={args.theta if args.theta is not None else 0.5:g}"
    record = evaluate(policy, cfg.env, cfg.eval_episodes, cfg.seeds, label=label)
    write_metrics_csv(out / "metrics.csv", [record])
    write_manifest(out / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": "evaluate"})
    print(f"{label}: avg cost/task {record.avg_cost_per_task:.4f}, "
          f"H(D,T) {record.h_dt:.4f} bits; metrics in {out}")
    return 0


def cmd_sweep_theta(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg)
    grid = (args.theta,) if args.theta is not None else cfg.theta_grid
    records = sweep_theta(grid, cfg.env, cfg.eval_episodes, cfg.seeds,
                          jobs=args.jobs)
    write_metrics_csv(out / "sweep_theta.csv", records,
                      extra={"theta": [float(t) for t in grid]})
    write_manifest(out / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": "sweep-theta"})
    for theta, rec in zip(grid, records):
        print(f"theta={theta:g}: cost/task {rec.avg_cost_per_task:.4f}, "
              f"H(D,T) {rec.h_dt:.4f}")
    return 0


def cmd_sweep_lambda(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg)
    grid = (args.lam,) if args.lam is not None else cfg.lambda_grid
    results = sweep_lambda(grid, cfg.env, cfg.agent, cfg.seeds[0],
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
    write_manifest(out / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": "sweep-lambda"})
    return 0


def cmd_attack(args) -> int:
    cfg = resolve_config(args)
    out = _out_dir(cfg)
    kind = cfg.policy if args.agent is None else args.agent
    policy = _build_policy(kind, cfg, args)
    seed = cfg.seeds[0]
    fit_trace = rollout_trace(policy, cfg.env,
                              np.random.default_rng([seed, 0]), args.steps)
    eval_trace = rollout_trace(policy, cfg.env,
                               np.random.default_rng([seed, 1]), args.steps)
    model = fit(fit_trace, n_d=cfg.env.d_max + 1, n_g=2)
    report = attack_evaluation(eval_trace, model)
    print(format_report(kind, report))
    write_attack_csv(out / "attack.csv", [{
        "label": kind,
        "success_d": report.success_d, "bound_d": report.bound_d,
        "success_g": report.success_g, "bound_g": report.bound_g,
        "n_eval": report.n_eval, "unseen_t": ";".join(map(str, report.unseen_t)),
    }])
    write_manifest(out / "manifest.json", config_as_dict(cfg), cfg.seeds,
                   extra={"command": "attack"})
    return 0


def cmd_gradcheck(args) -> int:
    seed = args.seed if args.seed is not None else 7
    dense_spec = NetworkSpec(input_dim=6, layers=(
        Dense(8, "relu"), Dense(8, "relu"), Dense(4, "identity")))
    gru_spec = NetworkSpec(input_dim=5, layers=(
        GRU(4), Dense(4, "identity")))
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
    if args.config is None:
        scaled_config(args.scale)
        print("built-in defaults: OK")
        return 0
    cfg = load_config(args.config, scale=args.scale)
    print(f"{args.config}: OK (policy {cfg.policy}, "
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
