from .network import (Dense, GRU, NetworkSpec, Params, backward, clone_params,
                      forward, forward_step, gru_kernels, init_hidden,
                      init_params, param_shapes, zeros_like_params)
from .optim import Adam, polyak_update
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .gradcheck import gradient_check
