"""The Adam optimizer and the soft target-parameter update, both in place."""
from __future__ import annotations

import numpy as np

from .network import Params, zeros_like_params

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's standard constants


def _check_finite(grads: Params) -> None:
    for layer in grads:
        for name, arr in layer.items():
            if not np.isfinite(arr).all():
                raise ValueError(f"non-finite gradient in {name}")


def _check_shapes(a: Params, b: Params, what: str) -> None:
    if len(a) != len(b) or any(
            set(la) != set(lb) or any(la[k].shape != lb[k].shape for k in la)
            for la, lb in zip(a, b)):
        raise ValueError(f"{what}: parameter structures do not match")


class Adam:
    """Adam with the standard constants, its state keyed by parameter
    position. step checks the gradients, then writes the moments and the
    parameters in place, each in the textbook order of operations."""

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._m: Params | None = None
        self._v: Params | None = None

    def step(self, params: Params, grads: Params) -> None:
        _check_shapes(params, grads, "adam step")
        _check_finite(grads)
        if self._m is None:
            self._m = zeros_like_params(params)
            self._v = zeros_like_params(params)
        self.t += 1
        bc1, bc2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            for k in p:
                m[k] *= BETA1
                m[k] += (1.0 - BETA1) * g[k]
                v[k] *= BETA2
                v[k] += (1.0 - BETA2) * g[k] * g[k]
                p[k] -= self.lr * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + EPS)


def polyak_update(target: Params, online: Params, tau: float) -> None:
    """Blend into target in place: tau on the old target, 1-tau on online.
    (1 - tau) * online is formed first, so target may be online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    _check_shapes(target, online, "polyak update")
    for t, o in zip(target, online):
        for k in t:
            blend = (1.0 - tau) * o[k]
            t[k] *= tau
            t[k] += blend
