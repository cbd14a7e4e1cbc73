"""The Adam optimizer and the soft target-parameter update."""
from __future__ import annotations

import numpy as np

from .network import Params


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
    """Adam with standard defaults; state is keyed by parameter position."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: Params | None = None
        self._v: Params | None = None

    def step(self, params: Params, grads: Params) -> Params:
        _check_shapes(params, grads, "adam step")
        _check_finite(grads)
        if self._m is None:
            self._m = [{k: np.zeros_like(v) for k, v in layer.items()}
                       for layer in params]
            self._v = [{k: np.zeros_like(v) for k, v in layer.items()}
                       for layer in params]
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        out = []
        for p, g, m, v in zip(params, grads, self._m, self._v):
            layer = {}
            for k in p:
                m[k] = b1 * m[k] + (1.0 - b1) * g[k]
                v[k] = b2 * v[k] + (1.0 - b2) * g[k] * g[k]
                layer[k] = p[k] - self.lr * (m[k] / bc1) / (
                    np.sqrt(v[k] / bc2) + self.eps)
            out.append(layer)
        return out


def polyak_update(target: Params, online: Params, tau: float) -> Params:
    """Blend target parameters: tau on the old target, 1-tau on online."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    _check_shapes(target, online, "polyak update")
    return [{k: tau * t[k] + (1.0 - tau) * o[k] for k in t}
            for t, o in zip(target, online)]
