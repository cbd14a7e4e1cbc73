"""Run configuration: dataclass assembly, INI-style file loading, presets.

The presets live here only. The paper preset is the dataclass defaults
plus its lambda grid and output directory; the desk preset is desk_env
and desk_agent.

Config files have three sections, each optional, with keys matching the
dataclass field names:

    [env]    EnvParams fields (d_max, b_max, task_size_kb, ...)
    [agent]  AgentConfig fields (episodes, gamma, alpha, ...)
    [run]    policy, lambda_grid, theta_grid, seeds, eval_episodes, out_dir

Each value takes the type of its field's default; grid and seed values
are comma separated. A ';' starts a comment, also after a value. Unknown
sections or keys are rejected so typos fail loudly.
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
        if self.policy == "drqn" and self.agent.gru_layers < 1:
            raise ConfigError("a drqn policy needs gru_layers >= 1")
        # A drqn samples windows of seq_len slots from whole episodes; a
        # dqn trains nothing until its ring holds one batch.
        if self.policy == "drqn" and self.agent.seq_len > self.env.episode_len:
            raise ConfigError("a drqn policy needs seq_len <= episode_len")
        if self.policy == "dqn" and \
                self.agent.batch_size > self.agent.buffer_capacity:
            raise ConfigError("a dqn policy needs batch_size <= "
                              "buffer_capacity")
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


def desk_env(**overrides) -> EnvParams:
    """Shrunk environment: short episodes, small entropy window."""
    base = dict(window=32, episode_len=400)
    base.update(overrides)
    return EnvParams(**base)


def desk_agent(kind: str = "drqn", **overrides) -> AgentConfig:
    """Minutes-scale training preset: 1xGRU(32)+Dense(32) nets, 300 episodes.

    The optimizer knobs are retuned for the small budget: faster
    exploration decay, a short replay, a target net that keeps 0.99 of
    itself at each soft update, and reward centering; the sampled window
    is longer than the entropy window so the recurrent state sees a full
    window before the loss segment. The recurrent learner (kind "drqn")
    also trains on the Huber TD loss with rewards divided by their running
    standard deviation, which gives the threshold of 1 one meaning at every
    privacy weight, and decays its learning rate by 0.99 per episode (2e-3
    down to the paper preset's 1e-4) so the policy settles late in the run.
    CHANGES.md has the seeds and figures behind that choice. The desk DQN
    keeps the MSE loss, unscaled rewards and a fixed rate.
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
        tau=0.99,
        center_rewards=True,
    )
    if kind == "drqn":
        base.update(loss="huber", scale_rewards=True, alpha_decay=0.99)
    base.update(overrides)
    return AgentConfig(**base)


def scaled_config(scale: str, policy: str = "drqn") -> RunConfig:
    """The preset of a scale, for the given policy."""
    if scale == "paper":
        return RunConfig(env=EnvParams(), agent=AgentConfig(), policy=policy,
                         lambda_grid=(2.0, 5.0, 8.0, 10.0, 16.0, 20.0),
                         out_dir="runs/paper")
    if scale == "desk":
        return RunConfig(env=desk_env(), agent=desk_agent(policy),
                         policy=policy, out_dir="runs/desk")
    raise ConfigError(f"unknown scale {scale!r}")


def _coerce(raw: str, like, key: str):
    """Parse raw as a value of like's type; a tuple is comma separated, each
    element of the type of like's elements."""
    raw = raw.strip()
    if isinstance(like, tuple):
        items = [v for v in raw.split(",") if v.strip()]
        if not items:
            raise ConfigError(f"{key} must be non-empty")
        return tuple(_coerce(v, like[0], key) for v in items)
    try:
        if isinstance(like, bool):
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return type(like)(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} = {raw!r}") from exc


def _parse_section(parser, section: str, cls) -> dict:
    """The section's keys, parsed by cls's field defaults. Fields without
    a default (RunConfig's env and agent) are sections of their own."""
    if not parser.has_section(section):
        return {}
    defaults = {f.name: f.default for f in dataclasses.fields(cls)
                if f.default is not dataclasses.MISSING}
    out = {}
    for key, raw in parser.items(section):
        if key not in defaults:
            raise ConfigError(f"unknown key [{section}] {key}")
        out[key] = _coerce(raw, defaults[key], key)
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
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    known = {"env", "agent", "run"}
    extra = set(parser.sections()) - known
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")

    run_kwargs = _parse_section(parser, "run", RunConfig)
    if policy is not None:
        run_kwargs["policy"] = policy
    base = scaled_config(scale or "paper",
                         policy=run_kwargs.get("policy", "drqn"))
    try:
        env = dataclasses.replace(
            base.env, **_parse_section(parser, "env", EnvParams))
        agent = dataclasses.replace(
            base.agent, **_parse_section(parser, "agent", AgentConfig))
        return dataclasses.replace(base, env=env, agent=agent, **run_kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def config_as_dict(cfg: RunConfig) -> dict:
    """Plain-dict view of a RunConfig for manifests."""
    run = dataclasses.asdict(cfg)
    return {"env": run.pop("env"), "agent": run.pop("agent"), "run": run}
