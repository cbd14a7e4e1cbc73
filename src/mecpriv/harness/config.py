"""Run configuration: dataclass assembly, INI-style file loading, presets.

Config files have three sections, each optional, with keys matching the
dataclass field names:

    [env]    EnvParams fields (d_max, b_max, task_size_kb, ...)
    [agent]  AgentConfig fields (episodes, gamma, alpha, ...)
    [run]    policy, lambda_grid, theta_grid, seeds, eval_episodes, out_dir

Grid and seed values are comma separated. Unknown sections or keys are
rejected so typos fail loudly.
"""
from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from pathlib import Path

from ..agents import AgentConfig
from ..env import EnvParams

POLICY_KINDS = ("dqn", "drqn", "greedy", "theta", "uniform")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    env: EnvParams
    agent: AgentConfig
    policy: str = "drqn"
    lambda_grid: tuple[float, ...] = (2.0, 10.0, 20.0)
    theta_grid: tuple[float, ...] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    seeds: tuple[int, ...] = (1, 2, 3)
    eval_episodes: int = 20
    out_dir: str = "runs"

    def __post_init__(self):
        if self.policy not in POLICY_KINDS:
            raise ConfigError(f"policy must be one of {POLICY_KINDS}")
        if not self.lambda_grid or not self.theta_grid:
            raise ConfigError("lambda_grid and theta_grid must be non-empty")
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("seeds must be >= 0")
        if self.eval_episodes < 1:
            raise ConfigError("eval_episodes must be >= 1")
        if any(th < 0 or th > 1 for th in self.theta_grid):
            raise ConfigError("theta values must be in [0, 1]")
        if any(lam < 0 for lam in self.lambda_grid):
            raise ConfigError("lambda values must be >= 0")
        # A sweep cell seeds its training by int(lambda * 1000) and names
        # its files by f"{lambda:g}"; cells sharing either would coincide.
        for key in (lambda lam: int(lam * 1000), lambda lam: f"{lam:g}"):
            keys = [key(lam) for lam in self.lambda_grid]
            if len(set(keys)) != len(keys):
                raise ConfigError(f"lambda values {list(self.lambda_grid)} "
                                  f"collide in sweep seeds or file names")


def paper_env(**overrides) -> EnvParams:
    return EnvParams(**overrides)


def desk_env(**overrides) -> EnvParams:
    """Shrunk environment: short episodes, small entropy window."""
    base = dict(window=32, episode_len=400)
    base.update(overrides)
    return EnvParams(**base)


def paper_agent(**overrides) -> AgentConfig:
    return AgentConfig(**overrides)


def desk_agent(kind: str = "drqn", **overrides) -> AgentConfig:
    """Minutes-scale training preset: 1xGRU(32)+Dense(32) nets, 300 episodes.

    The optimizer knobs are retuned for the small budget: faster
    exploration decay, a short replay, a slow conventional-direction
    target and reward centering; the sampled window is longer than the
    entropy window so the recurrent state sees a full window before the
    loss segment.

    The recurrent learner (kind "drqn") trains on the Huber TD loss with
    rewards divided by their running standard deviation, and decays its
    learning rate by 0.99 per episode (2e-3 down to 1e-4, the paper
    preset's rate, by the last episode). With the MSE loss and a constant
    rate it under-optimised its own reward: at lambda 10 on training seeds
    303, 1, 2 and 3 the evaluated reward per step went from
    35.34/35.69/34.70/35.32 to 36.62/35.99/35.88/35.93, and the H(D,T)
    gain over greedy from 0.950/0.990/0.863/0.937 to 1.080/1.002/0.992/1.008.
    The Huber loss alone gave 1.053/1.043/1.019/0.963: the same mean gain,
    but wider across seeds and with a learning curve that stalls mid-run.
    The unit reward scale gives the Huber threshold of 1 the same meaning
    at every privacy weight; the decay lets the policy settle late in the
    run instead of drifting.
    The desk DQN keeps the MSE loss, unscaled rewards and a fixed rate.
    """
    base = dict(
        episodes=300,
        alpha=2e-3,
        epsilon_decay=0.97,
        buffer_capacity=20_000,
        batch_size=32,
        seq_len=48,
        gru_layers=1,
        gru_units=32,
        dense_layers=1,
        dense_units=32,
        update_every=8,
        polyak_conventional=True,
        tau=0.01,
        center_rewards=True,
    )
    if kind == "drqn":
        base.update(loss="huber", scale_rewards=True, alpha_decay=0.99)
    base.update(overrides)
    return AgentConfig(**base)


def scaled_config(scale: str, policy: str = "drqn") -> RunConfig:
    """The preset of a scale; configs/<scale>.ini holds the same values."""
    if scale == "paper":
        return RunConfig(env=paper_env(), agent=paper_agent(), policy=policy,
                         lambda_grid=(2.0, 5.0, 8.0, 10.0, 16.0, 20.0),
                         out_dir="runs/paper")
    if scale == "desk":
        return RunConfig(env=desk_env(), agent=desk_agent(policy),
                         policy=policy, out_dir="runs/desk")
    raise ConfigError(f"unknown scale {scale!r}")


_RUN_FIELD_TYPES = {
    "policy": str,
    "lambda_grid": tuple,
    "theta_grid": tuple,
    "seeds": tuple,
    "eval_episodes": int,
    "out_dir": str,
}


def _coerce(raw: str, ftype, key: str):
    raw = raw.strip()
    try:
        if ftype is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if ftype is int:
            return int(raw)
        if ftype is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


def _parse_section(parser, section: str, template) -> dict:
    if not parser.has_section(section):
        return {}
    fields = {f.name: f.type for f in dataclasses.fields(template)}
    # from __future__ annotations turns types into strings
    concrete = {f.name: type(getattr(template, f.name))
                for f in dataclasses.fields(template)}
    out = {}
    for key, raw in parser.items(section):
        if key not in fields:
            raise ConfigError(f"unknown key [{section}] {key}")
        out[key] = _coerce(raw, concrete[key], key)
    return out


def _parse_run_section(parser) -> dict:
    if not parser.has_section("run"):
        return {}
    out = {}
    for key, raw in parser.items("run"):
        if key not in _RUN_FIELD_TYPES:
            raise ConfigError(f"unknown key [run] {key}")
        ftype = _RUN_FIELD_TYPES[key]
        if ftype is tuple:
            items = [v.strip() for v in raw.split(",") if v.strip()]
            if not items:
                raise ConfigError(f"[run] {key} must be non-empty")
            elem = int if key == "seeds" else float
            out[key] = tuple(_coerce(v, elem, key) for v in items)
        else:
            out[key] = _coerce(raw, ftype, key)
    return out


def load_config(path: str | Path, scale: str | None = None,
                policy: str | None = None) -> RunConfig:
    """Parse a config file into a RunConfig, starting from preset defaults.

    The preset is the one for the policy, which the file's [run] section
    names unless a policy is passed here.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    known = {"env", "agent", "run"}
    extra = set(parser.sections()) - known
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")

    run_kwargs = _parse_run_section(parser)
    if policy is not None:
        run_kwargs["policy"] = policy
    base = scaled_config(scale or "paper",
                         policy=run_kwargs.get("policy", "drqn"))
    try:
        env = dataclasses.replace(
            base.env, **_parse_section(parser, "env", base.env))
        agent = dataclasses.replace(
            base.agent, **_parse_section(parser, "agent", base.agent))
        return dataclasses.replace(base, env=env, agent=agent, **run_kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def config_as_dict(cfg: RunConfig) -> dict:
    """Plain-dict view of a RunConfig for manifests."""
    return {
        "env": dataclasses.asdict(cfg.env),
        "agent": dataclasses.asdict(cfg.agent),
        "run": {
            "policy": cfg.policy,
            "lambda_grid": list(cfg.lambda_grid),
            "theta_grid": list(cfg.theta_grid),
            "seeds": list(cfg.seeds),
            "eval_episodes": cfg.eval_episodes,
            "out_dir": cfg.out_dir,
        },
    }
