"""Shared desk-scale training runs, computed once per session.

Training is the expensive part of the suite; the acceptance tests and the
agent behavior tests all read from these fixtures. Seeds are fixed so the
whole suite is reproducible run to run. Every test that requests one of
the training fixtures (the *_run fixtures) is marked slow, so
`pytest -m "not slow"` skips the training. At the first use of one, every
run that the selected tests request is started in worker processes, two
at a time, in the order the tests first need them.
"""
import dataclasses
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mecpriv.harness import desk_agent, desk_env, train

EVAL_SEEDS = (1, 2, 3)
EVAL_EPISODES = 20
README = Path(__file__).resolve().parent.parent / "README.md"


def action_id(q: int, t: int, p) -> int:
    """Action id of (q, t): ids run in lexicographic (q, t) order."""
    return q * (p.t_max + 1) + t


# The training fixtures: (learner, privacy weight, training seed).
RUNS = {"dqn_lambda0_run": ("dqn", 0.0, 101),
        "dqn_lambda10_run": ("dqn", 10.0, 202),
        "drqn_lambda10_run": ("drqn", 10.0, 303),
        "drqn_lambda2_run": ("drqn", 2.0, 404),
        "drqn_lambda20_run": ("drqn", 20.0, 505)}
_started: dict = {}


def _trained(request):
    """(env, agent config, TrainResult) of the requesting fixture. The
    first call starts every run that the selected tests request; spawned
    workers import mecpriv afresh, so their BLAS runs one thread."""
    if not _started:
        wanted = dict.fromkeys(name for item in request.session.items
                               for name in getattr(item, "fixturenames", ())
                               if name in RUNS)
        pool = ProcessPoolExecutor(
            max_workers=min(2, os.cpu_count() or 1),
            mp_context=multiprocessing.get_context("spawn"))
        for name in wanted:
            kind, lam, seed = RUNS[name]
            env = dataclasses.replace(desk_env(), privacy_weight=lam)
            cfg = desk_agent(kind)
            _started[name] = env, cfg, pool.submit(
                train, kind, env, cfg, np.random.default_rng(seed),
                f"{kind} lambda={lam:g}")
        pool.shutdown(wait=False)
    env, cfg, run = _started[request.fixturename]
    return env, cfg, run.result()


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
def dqn_lambda0_run(request):
    return _trained(request)


@pytest.fixture(scope="session")
def dqn_lambda10_run(request):
    return _trained(request)


@pytest.fixture(scope="session")
def drqn_lambda10_run(request):
    return _trained(request)


@pytest.fixture(scope="session")
def drqn_lambda2_run(request):
    return _trained(request)


@pytest.fixture(scope="session")
def drqn_lambda20_run(request):
    return _trained(request)
