from .common import (AgentConfig, Learner, TrainResult, dqn_network_spec,
                     drqn_network_spec, encode, epsilon_at, epsilon_greedy,
                     obs_dim, state_dim)
from .replay import EpisodeBuffer, EpisodeTrace, Transition, TransitionBuffer
from .dqn import DQN, DQNPolicy, dqn_update, td_targets
from .drqn import DRQN, DRQNPolicy, drqn_update

LEARNERS = {"dqn": DQN, "drqn": DRQN}

__all__ = [
    "AgentConfig", "DQN", "DQNPolicy", "DRQN", "DRQNPolicy", "EpisodeBuffer",
    "EpisodeTrace", "LEARNERS", "Learner", "TrainResult", "Transition",
    "TransitionBuffer", "dqn_network_spec", "dqn_update",
    "drqn_network_spec", "drqn_update", "encode", "epsilon_at",
    "epsilon_greedy", "obs_dim", "state_dim", "td_targets",
]
