"""Finite-difference verification of the analytic gradients."""
from __future__ import annotations

import numpy as np

from .network import NetworkSpec, backward, forward, init_params

STEP = 1e-5  # the central difference's half-width


def gradient_check(spec: NetworkSpec, seed: int, seq_len: int = 4,
                   batch: int = 1) -> float:
    """Max relative error between backprop and central differences.

    Uses the squared-error loss 0.5*sum((out - target)^2) on one random
    input/target pair and perturbs every parameter entry. Intended for
    small specs; cost grows with parameter count times sequence length.
    """
    rng = np.random.default_rng(seed)
    params = init_params(spec, rng)
    xs = rng.standard_normal((seq_len, batch, spec.input_dim))
    target = rng.standard_normal((seq_len, batch, spec.output_dim))

    def loss() -> float:
        out, _, _ = forward(spec, params, xs, collect_cache=False)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, _, cache = forward(spec, params, xs)
    analytic = backward(cache, out - target)

    max_err = 0.0
    for layer_params, layer_grads in zip(params, analytic):
        for name, arr in layer_params.items():
            grad = layer_grads[name]
            for idx in np.ndindex(arr.shape):
                orig = arr[idx]
                arr[idx] = orig + STEP
                up = loss()
                arr[idx] = orig - STEP
                down = loss()
                arr[idx] = orig
                numeric = (up - down) / (2.0 * STEP)
                denom = max(abs(grad[idx]), abs(numeric), 1e-8)
                max_err = max(max_err, abs(grad[idx] - numeric) / denom)
    return max_err
