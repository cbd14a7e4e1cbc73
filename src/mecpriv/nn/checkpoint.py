"""Versioned binary checkpoints for network spec plus parameters.

Layout: 8-byte magic, u32 format version, u32 JSON descriptor length, the
descriptor, then each parameter array as raw little-endian float64, layer
by layer. The descriptor is the compact, key-sorted JSON of
{"input_dim": D, "layers": [...]}, one item per layer: ["gru", n] per GRU
layer, ["dense", n, "relu"] per hidden dense layer and
["dense", n, "identity"] for the output layer. A dense layer stores w, b;
a GRU layer stores its gates one after another, w_z, u_z, b_z, w_r, u_r,
b_r, w_h, u_h, b_h (each w_g (D, n), u_g (n, n), b_g (n)). Round trips
are byte-exact, and the loader takes only a descriptor that
save_checkpoint writes.
"""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .network import NetworkSpec, Params, param_shapes

MAGIC = b"QNETCKPT"
FORMAT_VERSION = 1
_HEADER = len(MAGIC) + 8


class CheckpointError(ValueError):
    pass


def _describe(spec: NetworkSpec) -> dict:
    layers = ([["gru", n] for n in spec.gru]
              + [["dense", n, "relu"] for n in spec.dense]
              + [["dense", spec.output_dim, "identity"]])
    return {"input_dim": spec.input_dim, "layers": layers}


def _size(value) -> int:
    """A size as written by save_checkpoint: a JSON integer, not a bool."""
    if type(value) is not int:
        raise TypeError(f"size {value!r} is not an integer")
    return value


def _spec_from_descriptor(blob: bytes) -> NetworkSpec:
    """The spec whose descriptor blob is: its layers' widths by position,
    the leading "gru" items as GRU layers and the last item as the output
    layer. Any descriptor save_checkpoint would not write for that spec
    is rejected."""
    desc = json.loads(blob)
    widths = [_size(item[1]) for item in desc["layers"]]
    n_gru = sum(item[0] == "gru" for item in desc["layers"])
    spec = NetworkSpec(_size(desc["input_dim"]), tuple(widths[:n_gru]),
                       tuple(widths[n_gru:-1]), widths[-1])
    if _describe(spec) != desc:
        raise ValueError("layers must be GRU, then relu dense, then one "
                         "identity dense, with no other key or field")
    return spec


def _file_order(p) -> list[np.ndarray]:
    """Views of a layer's arrays in the order the file stores them; a GRU
    layer is the one with a recurrent kernel u."""
    if "u" in p:
        n = p["u"].shape[0]
        return [p[k][..., i * n:(i + 1) * n] for i in range(3)
                for k in ("w", "u", "b")]
    return [p["w"], p["b"]]


def save_checkpoint(path: str | Path, spec: NetworkSpec, params: Params) -> None:
    blob = json.dumps(_describe(spec), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        for layer_params in params:
            for arr in _file_order(layer_params):
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[NetworkSpec, Params]:
    data = Path(path).read_bytes()
    if data[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(data) < _HEADER:
        raise CheckpointError(f"{path}: truncated header")
    version, blob_len = struct.unpack_from("<II", data, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    pos = _HEADER + blob_len
    if pos > len(data):
        raise CheckpointError(f"{path}: truncated descriptor")
    try:
        spec = _spec_from_descriptor(data[_HEADER:pos])
    except (ArithmeticError, LookupError, RecursionError, TypeError,
            ValueError) as exc:
        raise CheckpointError(f"{path}: bad descriptor: "
                              f"{type(exc).__name__}: {exc}") from exc
    shapes = param_shapes(spec)
    # Sized before anything is allocated: a descriptor may claim any shape.
    need = 8 * sum(math.prod(s) for layer in shapes for s in layer.values())
    if need != len(data) - pos:
        raise CheckpointError(f"{path}: {len(data) - pos} bytes of "
                              f"parameters where the layers need {need}")
    params: Params = []
    for layer_shapes in shapes:
        layer_params = {k: np.empty(s) for k, s in layer_shapes.items()}
        for block in _file_order(layer_params):
            block[...] = np.frombuffer(data, "<f8", block.size,
                                       pos).reshape(block.shape)
            pos += 8 * block.size
        params.append(layer_params)
    return spec, params
