"""Shared desk-scale training runs, computed once per session.

Training is the expensive part of the suite; the acceptance tests and the
agent behavior tests all read from these fixtures. Seeds are fixed so the
whole suite is reproducible run to run. Every test that requests one of
the training fixtures (the *_run fixtures) is marked slow, so
`pytest -m "not slow"` skips the training.
"""
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mecpriv.harness import desk_agent, desk_env, train

TRAIN_SEEDS = {"dqn0": 101, "dqn10": 202, "drqn10": 303, "drqn2": 404,
               "drqn20": 505}
EVAL_SEEDS = (1, 2, 3)
EVAL_EPISODES = 20
README = Path(__file__).resolve().parent.parent / "README.md"


def action_id(q: int, t: int, p) -> int:
    """Action id of (q, t): ids run in lexicographic (q, t) order."""
    return q * (p.t_max + 1) + t


def _train(kind: str, lam: float, seed: int):
    env = dataclasses.replace(desk_env(), privacy_weight=lam)
    cfg = desk_agent(kind)
    return env, cfg, train(kind, env, cfg, np.random.default_rng(seed),
                           label=f"{kind} lambda={lam:g}")


@pytest.fixture
def readme_ini(tmp_path):
    """The README's config file reference, written to a file."""
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "readme.ini"
    path.write_text(block)
    return path


def pytest_collection_modifyitems(config, items):
    for item in items:
        if any(name.endswith("_run")
               for name in getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def dqn_lambda0_run():
    return _train("dqn", 0.0, TRAIN_SEEDS["dqn0"])


@pytest.fixture(scope="session")
def dqn_lambda10_run():
    return _train("dqn", 10.0, TRAIN_SEEDS["dqn10"])


@pytest.fixture(scope="session")
def drqn_lambda10_run():
    return _train("drqn", 10.0, TRAIN_SEEDS["drqn10"])


@pytest.fixture(scope="session")
def drqn_lambda2_run():
    return _train("drqn", 2.0, TRAIN_SEEDS["drqn2"])


@pytest.fixture(scope="session")
def drqn_lambda20_run():
    return _train("drqn", 20.0, TRAIN_SEEDS["drqn20"])
