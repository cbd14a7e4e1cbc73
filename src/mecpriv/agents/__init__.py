from .common import (AgentConfig, TrainResult, encode, epsilon_at,
                     network_spec, obs_dim, state_dim)
from .replay import EpisodeBuffer, TransitionBuffer
from .qlearn import QPolicy, q_update
