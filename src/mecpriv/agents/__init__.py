from .common import (AgentConfig, TrainResult, encode, epsilon_at,
                     epsilon_greedy, network_spec, obs_dim, state_dim)
from .replay import EpisodeBuffer, EpisodeTrace, TransitionBuffer
from .qlearn import QPolicy, q_update

__all__ = [
    "AgentConfig", "EpisodeBuffer", "EpisodeTrace", "QPolicy", "TrainResult",
    "TransitionBuffer", "encode", "epsilon_at", "epsilon_greedy",
    "network_spec", "obs_dim", "q_update", "state_dim",
]
