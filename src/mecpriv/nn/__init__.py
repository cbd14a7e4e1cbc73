from .network import (Dense, GRU, NetworkSpec, Params, backward, clone_params,
                      forward, forward_step, gru_kernels, init_hidden,
                      init_params, param_shapes, zeros_like_params)
from .optim import Adam, polyak_update
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import gradient_check

__all__ = [
    "Adam", "CheckpointError", "Dense", "GRU", "NetworkSpec", "Params",
    "backward", "clone_params", "forward", "forward_step", "gradient_check",
    "gru_kernels", "init_hidden", "init_params", "load_checkpoint",
    "param_shapes", "polyak_update", "save_checkpoint", "zeros_like_params",
]
