from .config import (ConfigError, RunConfig, config_as_dict, desk_agent,
                     desk_env, load_config, scaled_config)
from .runner import (EpisodeLog, EpisodeMetrics, RunRecord, episode_metrics,
                     episode_rng, evaluate, rollout_trace, train)
from .sweeps import sweep_lambda, sweep_theta
from .io import (write_attack_csv, write_learning_curve_csv,
                 write_manifest, write_metrics_csv)
