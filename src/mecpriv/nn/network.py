"""Minimal dense/GRU network with exact backpropagation through time.

Everything is float64 and functional: parameters are a list of per-layer
dicts of arrays, forward returns an opaque cache, backward turns a cache
plus output gradients into parameter gradients of the same structure.
The net is one family: GRU layers, then relu dense layers, then one linear
output layer. A spec is its layer widths, so a layer's index says its
kind: the first len(spec.gru) are GRU layers and only the last is linear.
A dense layer has w (D, n) and b (n); a GRU layer has its three gates side
by side, z | r | h, in w (D, 3n), u (n, 3n) and b (3n). As the GRU layers
come first, a pass steps the whole GRU stack once per timestep and then
runs the dense head over the top layer's outputs.
Inputs are shaped (T, B, D): sequence length, batch, feature dim. A hidden
state passed into forward is treated as a constant, which is what makes
truncated backpropagation a matter of calling forward per bundle.

The cache holds each activation once. A GRU layer's steps write in place
into preallocated blocks: its states hs (T + 1, B, n) with hs[0] the
initial state and, while the layer's (T, B, 3n) gate block takes at most
GATE_BYTES, its gates z | r (T, B, 2n) and its candidates hc (T, B, n);
its input is the layer below's states, a view. A layer over the limit
keeps its input and states alone, and backward rebuilds each step's gates
from them just before that step's gradient, with the forward's own calls,
so the gradients have the same bits either way (memory-efficient BPTT,
Gruslys et al., 2016). A dense layer keeps its input and, unless it is
the output layer, its relu output. A hidden-only pass (a burn-in) keeps
just each layer's running (B, n) state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Params = list[dict[str, np.ndarray]]

# Most bytes of a GRU layer's cached gates and candidates; a larger layer's
# are rebuilt step by step in backward instead of held. The rebuild is a
# second gate pass per step: it frees 6 MiB per layer of the paper net, but
# at desk scale, 0.4 MB per layer, it costs more time than it saves memory.
GATE_BYTES = 2 ** 20

# Fewest bytes of a batch's per-step gate block, B * 3 * max(gru) * 8, at
# which an update runs the target net's burn-in on a second thread beside
# the online net's. One BLAS thread measured 0.96-0.99x at 24-96 KiB (the
# desk net is 24 KiB) and 1.53-1.87x at 192-384 KiB (the paper net's 384).
PAIR_BYTES = 2 ** 17


@dataclass(frozen=True)
class NetworkSpec:
    """GRU layers of widths gru, then relu dense layers of widths dense,
    then one linear layer of width output_dim."""
    input_dim: int
    gru: tuple[int, ...]
    dense: tuple[int, ...]
    output_dim: int

    def __post_init__(self):
        if min(self.input_dim, *self.gru, *self.dense, self.output_dim) < 1:
            raise ValueError("every width must be >= 1")

    def layer_dims(self) -> list[tuple[int, int]]:
        """(fan_in, fan_out) per layer, input side first."""
        widths = (self.input_dim, *self.gru, *self.dense, self.output_dim)
        return list(zip(widths, widths[1:]))


def param_shapes(spec: NetworkSpec) -> list[dict[str, tuple[int, ...]]]:
    shapes = []
    for li, (fan_in, units) in enumerate(spec.layer_dims()):
        if li < len(spec.gru):
            shapes.append({"w": (fan_in, 3 * units), "u": (units, 3 * units),
                           "b": (3 * units,)})
        else:
            shapes.append({"w": (fan_in, units), "b": (units,)})
    return shapes


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    lim = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-lim, lim, size=(fan_in, fan_out))


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> Params:
    """Glorot-uniform kernels, zero biases, float64. A GRU layer draws one
    kernel per gate, in the order w_z, u_z, w_r, u_r, w_h, u_h."""
    params = []
    for li, (fan_in, units) in enumerate(spec.layer_dims()):
        if li < len(spec.gru):
            w, u = zip(*[(_glorot(rng, fan_in, units), _glorot(rng, units, units))
                         for _ in "zrh"])
            params.append({"w": np.hstack(w), "u": np.hstack(u),
                           "b": np.zeros(3 * units)})
        else:
            params.append({"w": _glorot(rng, fan_in, units),
                           "b": np.zeros(units)})
    return params


def init_hidden(spec: NetworkSpec, batch: int) -> list[np.ndarray]:
    """Zero hidden vectors, one per GRU layer."""
    return [np.zeros((batch, u), dtype=np.float64) for u in spec.gru]


def clone_params(params: Params) -> Params:
    return [{k: v.copy() for k, v in layer.items()} for layer in params]


def zeros_like_params(params: Params) -> Params:
    return [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params]


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic function in place."""
    # tanh form: stable for any magnitude without branching
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5
    return x


def _dense_step(p, x, relu: bool):
    y = x @ p["w"]
    y += p["b"]
    if relu:
        np.maximum(y, 0.0, out=y)
        return y, (x, y)
    return y, (x, None)


def _gru_gates(p, x, h, zr=None, hc=None):
    """One GRU timestep's gates z | r (B, 2n) and candidate hc (B, n),
    written into zr and hc if given; returns (zr, hc)."""
    n = h.shape[1]
    w, u, b = p["w"], p["u"], p["b"]
    xw = x @ w
    # In-place forms of z, r = sigmoid(x w + h u + b) and
    # hc = tanh(x w_h + (r h) u_h + b_h); IEEE addition commutes, so the
    # bits are those of the textbook order. BLAS computes each output
    # column of a product on its own, so a product over side-by-side gates
    # gives each gate the bits of its own product (tests/test_nn.py).
    zr = np.matmul(h, u[:, :2 * n], out=zr)
    zr += xw[:, :2 * n]
    zr += b[:2 * n]
    _sigmoid_(zr)
    hc = np.matmul(zr[:, n:] * h, u[:, 2 * n:], out=hc)
    hc += xw[:, 2 * n:]
    hc += b[2 * n:]
    np.tanh(hc, out=hc)
    return zr, hc


def _gru_step(p, x, h, zr=None, hc=None, out=None):
    """One GRU timestep; returns the new hidden state.

    zr (B, 2n), hc (B, n) and out (B, n) are optional arrays to write the
    gates z | r, the candidate and the new state into; out must not be h.
    """
    zr, hc = _gru_gates(p, x, h, zr, hc)
    z = zr[:, :h.shape[1]]
    h_new = np.subtract(1.0, z, out=out)
    h_new *= h
    h_new += z * hc
    return h_new


@dataclass
class Cache:
    spec: NetworkSpec
    params: Params
    # per layer: GRU -> (x, hs, zr, hc), with zr and hc None for a layer
    # whose gates backward rebuilds; dense -> (x, y)
    layers: list
    seq_len: int
    batch: int


def forward(spec: NetworkSpec, params: Params, xs: np.ndarray,
            h0: list[np.ndarray] | None = None, collect_cache: bool = True,
            outputs: bool = True):
    """Run the network over a (T, B, D) input sequence.

    Returns (outputs (T, B, out), final hidden list, cache or None). The
    initial hidden state defaults to zeros and is not differentiated
    through by backward. Each timestep steps the whole GRU stack; the dense
    head then takes the top GRU layer's (T, B, n) outputs in one matmul per
    layer. With outputs=False (no cache) only each GRU layer's running
    state is kept and the outputs are None: a burn-in needs the hidden
    state only.
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[2] != spec.input_dim:
        raise ValueError(f"input shape {xs.shape} does not match "
                         f"(T, B, {spec.input_dim})")
    if collect_cache and not outputs:
        raise ValueError("a cached pass needs its outputs")
    T, B, _ = xs.shape
    units = spec.gru
    if h0 is None:
        h0 = init_hidden(spec, B)
    elif len(h0) != len(units) or any(
            v.shape != (B, n) for v, n in zip(h0, units)):
        raise ValueError("hidden state shapes do not match spec")
    # Per GRU layer, the blocks its steps write: states (T + 1, B, n) from
    # the initial one on, gates z | r (T, B, 2n) and candidates (T, B, n),
    # the gates only while they fit in GATE_BYTES. A row of `none` is
    # None: that step allocates its own array.
    none = [None] * (T + 1)
    blocks = []
    for i, n in enumerate(units):
        keep_h = collect_cache or (outputs and i == len(units) - 1)
        hs = np.empty((T + 1, B, n)) if keep_h else none
        if keep_h:
            hs[0] = h0[i]
        blocks.append((hs, np.empty((T, B, 2 * n)), np.empty((T, B, n)))
                      if collect_cache and T * B * 3 * n * 8 <= GATE_BYTES
                      else (hs, none, none))
    h = list(h0)
    for t in range(T):
        x = xs[t]
        for i, (hs, zr, hc) in enumerate(blocks):  # GRU layers come first
            x = h[i] = _gru_step(params[i], x, h[i], zr[t], hc[t], hs[t + 1])
    if not outputs:
        return None, h, None
    cur = blocks[-1][0][1:] if blocks else xs
    # a GRU layer's input is the network's, then the layer below's states
    ins = [xs] + [hs[1:] for hs, _, _ in blocks[:-1]] if collect_cache else []
    # a layer whose gates backward rebuilds caches None for them
    layer_caches = [(x, hs, *((None, None) if zr is none else (zr, hc)))
                    for x, (hs, zr, hc) in zip(ins, blocks)]
    last = len(params) - 1
    for li in range(len(blocks), last + 1):
        cur, c = _dense_step(params[li], cur, li < last)
        layer_caches.append(c)
    cache = (Cache(spec, params, layer_caches, T, B) if collect_cache
             else None)
    return cur, h, cache


def forward_step(spec: NetworkSpec, params: Params, x: np.ndarray,
                 h: list[np.ndarray] | None):
    """Single-timestep forward for (B, D) input; returns (y, new hidden)."""
    out, h_new, _ = forward(spec, params, x[None, :, :], h,
                            collect_cache=False)
    return out[0], h_new


def backward(cache: Cache, grad_out: np.ndarray) -> Params:
    """Exact gradients w.r.t. every parameter for the cached forward pass.

    grad_out holds dLoss/dOutput for each timestep, shape (T, B, out).
    Gradients through the initial hidden state are discarded. Neither
    grad_out nor the cache is written to, and each layer's gradients are
    allocated only when backward reaches that layer.
    """
    spec, params = cache.spec, cache.params
    T, B = cache.seq_len, cache.batch
    grad_out = np.asarray(grad_out, dtype=np.float64)
    if grad_out.shape != (T, B, spec.output_dim):
        raise ValueError(f"gradient shape {grad_out.shape} does not match "
                         f"cached forward ({T}, {B}, {spec.output_dim})")
    grads = [None] * len(params)
    d_cur = grad_out
    for li in range(len(params) - 1, -1, -1):
        need_dx = li > 0  # the network input's gradient is never used
        p = params[li]
        g = grads[li] = {k: np.zeros_like(v) for k, v in p.items()}
        if li < len(spec.gru):
            xs, hs, zr, hc = cache.layers[li]
            n = spec.gru[li]
            if zr is None:  # rebuilt per step into one pair of arrays
                zr_t, hc_t = np.empty((B, 2 * n)), np.empty((B, n))
            dxs = np.empty(xs.shape) if need_dx else None
            dh_carry = np.zeros((B, n))
            for t in range(T - 1, -1, -1):
                if zr is None:
                    _gru_gates(p, xs[t], hs[t], zr_t, hc_t)
                else:
                    zr_t, hc_t = zr[t], hc[t]
                dx, dh_carry = _gru_backward(p, g, (xs[t], hs[t], zr_t, hc_t),
                                             d_cur[t] + dh_carry, need_dx)
                if need_dx:
                    dxs[t] = dx
            d_cur = dxs
        else:
            # only the output layer reads grad_out; a relu layer's dy is the
            # dx that the layer above allocated
            d_cur = _dense_backward(p, g, cache.layers[li], d_cur, need_dx)
    return grads


def _dense_backward(p, g, c, dy, need_dx: bool = True):
    """A dense layer's gradients into g; returns dx. A relu layer masks dy
    in place."""
    x, y = c
    # a relu caches its output, y > 0 exactly where its input was > 0; the
    # linear output layer caches None
    if y is not None:
        dy *= y > 0.0
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    g["w"] += flat_x.T @ flat_dy
    g["b"] += flat_dy.sum(axis=0)
    return dy @ p["w"].T if need_dx else None


def _gru_backward(p, g, c, dh_total, need_dx: bool = True):
    """One timestep of BPTT; accumulates into g, returns (dx, dh_prev).

    The gates' pre-activation gradients sit side by side in d_in, z | r | h
    as in the parameters, so each parameter takes one product or sum.
    c is the step's (x, h, z | r, hc). dx is None when need_dx is False.
    """
    x, h, zr, hc = c
    n = h.shape[1]
    z, r = zr[:, :n], zr[:, n:]
    w, u = p["w"], p["u"]
    d_in = np.empty((h.shape[0], 3 * n))
    dzin, drin, dhin = d_in[:, :n], d_in[:, n:2 * n], d_in[:, 2 * n:]
    dz = dh_total * (hc - h)
    dhc = dh_total * z
    dh_prev = dh_total * (1.0 - z)

    np.multiply(dhc, 1.0 - hc * hc, out=dhin)
    drh = dhin @ u[:, 2 * n:].T
    dr = drh * h
    dh_prev += drh * r
    np.multiply(dz * z, 1.0 - z, out=dzin)
    dh_prev += dzin @ u[:, :n].T
    np.multiply(dr * r, 1.0 - r, out=drin)
    dh_prev += drin @ u[:, n:2 * n].T

    g["w"] += x.T @ d_in
    g["u"][:, :2 * n] += h.T @ d_in[:, :2 * n]
    g["u"][:, 2 * n:] += (r * h).T @ dhin
    g["b"] += d_in.sum(axis=0)
    if not need_dx:
        return None, dh_prev
    dx = dhin @ w[:, 2 * n:].T
    dx += dzin @ w[:, :n].T
    dx += drin @ w[:, n:2 * n].T
    return dx, dh_prev
