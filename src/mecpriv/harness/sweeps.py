"""Grid sweeps over the randomization level theta and the privacy weight."""
from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..agents import DRQNPolicy
from ..baselines import GreedyPolicy, ThetaPrivatePolicy
from ..env import EnvParams
from .runner import RunRecord, evaluate, train


def _theta_cell(args) -> RunRecord:
    theta, env, episodes, seeds = args
    policy = (GreedyPolicy(env) if theta == 0.0
              else ThetaPrivatePolicy(env, theta))
    return evaluate(policy, env, episodes, seeds, label=f"theta={theta:g}")


def sweep_theta(thetas, env: EnvParams, episodes: int, seeds,
                jobs: int = 1) -> list[RunRecord]:
    """Evaluate the theta-private baseline across the grid."""
    cells = [(float(th), env, episodes, tuple(seeds)) for th in thetas]
    return _run_cells(_theta_cell, cells, jobs)


def _lambda_cell(args):
    lam, env, agent_cfg, train_seed, episodes, seeds = args
    cell_env = dataclasses.replace(env, privacy_weight=float(lam))
    result = train("drqn", cell_env, agent_cfg,
                   np.random.default_rng([train_seed, int(lam * 1000)]),
                   label=f"drqn lambda={lam:g}")
    policy = DRQNPolicy(result.spec, result.params, cell_env)
    record = evaluate(policy, cell_env, episodes, seeds, label=result.label)
    return record, result


def sweep_lambda(lambdas, env: EnvParams, agent_cfg, train_seed: int,
                 episodes: int, seeds, jobs: int = 1):
    """Train one recurrent agent per privacy weight and evaluate each.

    Returns a list of (RunRecord, TrainResult) in grid order.
    """
    cells = [(float(lam), env, agent_cfg, train_seed, episodes, tuple(seeds))
             for lam in lambdas]
    return _run_cells(_lambda_cell, cells, jobs)


def _run_cells(fn, cells, jobs: int):
    if jobs <= 1 or len(cells) <= 1:
        return [fn(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells))
