"""Sliding-window entropy estimation over (d, g, t) tuples.

The privacy signal is estimated from the empirical joint distribution of
the last W (new-tasks, channel, offloaded) tuples. The per-step privacy
value is H(D|T) + H(G|T) + H(T): high offloading-volume entropy combined
with low predictability of demand and channel given the observed volume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class EmptyWindowError(ValueError):
    """Raised when an estimate is requested from an empty window."""


@dataclass(frozen=True)
class PrivacyBreakdown:
    """Entropy terms of the privacy value, all in bits, one entry per
    scored slot."""

    h_d_given_t: np.ndarray
    h_g_given_t: np.ndarray
    h_t: np.ndarray
    p_total: np.ndarray
    h_dt: np.ndarray
    h_gt: np.ndarray


@lru_cache(maxsize=16)
def _log_tables(size: int) -> tuple[np.ndarray, np.ndarray]:
    """m * log2(m) and log2(m) for m = 0..size, 0 standing in at m = 0.

    Built with math.log2, whose results np.log2 may miss by an ulp.
    """
    mlogm = np.array([0.0] + [m * math.log2(m) for m in range(1, size + 1)])
    log2n = np.array([0.0] + [math.log2(m) for m in range(1, size + 1)])
    mlogm.setflags(write=False)
    log2n.setflags(write=False)
    return mlogm, log2n


def _entropies(counts: np.ndarray, n: np.ndarray, mlogm: np.ndarray,
               log2n: np.ndarray) -> np.ndarray:
    """Plug-in entropy of each row of atom counts, whose total is n.

    Each row adds m * log2(m) over its counts in ascending order, one add
    at a time, so equal count-multisets give equal bits in every marginal
    and conditional entropies never go negative by rounding (np.sum or
    np.dot would add pairwise). Zero counts sort first and add an exact
    0.0, so the columns that are zero in every row are skipped: a window
    of W slots has at most W live atoms, and a cost-greedy policy far
    fewer.
    """
    ordered = np.sort(counts, axis=1)
    first = int(ordered.any(axis=0).argmax())
    terms = mlogm[ordered[:, first:]].T
    acc = terms[0].copy()
    for col in terms[1:]:
        acc += col
    return log2n[n] - acc / n


def privacy_breakdown(d, g, t, window: int, d_max: int, t_max: int,
                      start: int = 0) -> PrivacyBreakdown:
    """All entropy terms of the window estimate at slots start..n-1 of a
    trace of n (d, g, t) tuples.

    The window of slot i holds slots max(0, i - window + 1)..i, so slots
    before start only fill the early windows. H(D|T) and H(G|T) are
    obtained by the chain rule from the joint entropies H(D,T), H(G,T) and
    the volume entropy H(T).
    """
    trace = np.array((d, g, t), dtype=np.int64)
    if trace.ndim != 2:
        raise ValueError("d, g and t must be 1-d traces of one length")
    n = trace.shape[1]
    if window < 1:
        raise ValueError("window must be >= 1")
    if n == 0:
        raise EmptyWindowError("privacy breakdown of an empty trace")
    if not 0 <= start < n:
        raise ValueError(f"start={start} outside a trace of {n} slots")
    if trace.min() < 0 or (trace.max(axis=1) > (d_max, 1, t_max)).any():
        raise ValueError(f"(d, g, t) outside [0, {d_max}] x [0, 1] x "
                         f"[0, {t_max}]")
    d, g, t = trace
    # Atom counts of every prefix, as one cumulative table over the (d,t),
    # (g,t) and t atoms side by side; a window's counts are a difference
    # of two prefixes.
    nt = t_max + 1
    n_dt = (d_max + 1) * nt
    cols = np.stack((d * nt + t, n_dt + g * nt + t, n_dt + 2 * nt + t), axis=1)
    prefix = np.zeros((n + 1, n_dt + 3 * nt), dtype=np.int32)
    prefix[np.arange(1, n + 1)[:, None], cols] = 1
    np.cumsum(prefix, axis=0, out=prefix)
    hi = np.arange(start + 1, n + 1)
    lo = np.maximum(hi - window, 0)
    counts = prefix[hi] - prefix[lo]
    size = hi - lo
    mlogm, log2n = _log_tables(min(window, n))
    h_dt = _entropies(counts[:, :n_dt], size, mlogm, log2n)
    h_gt = _entropies(counts[:, n_dt:n_dt + 2 * nt], size, mlogm, log2n)
    h_t = _entropies(counts[:, n_dt + 2 * nt:], size, mlogm, log2n)
    h_d_given_t = h_dt - h_t
    h_g_given_t = h_gt - h_t
    return PrivacyBreakdown(
        h_d_given_t=h_d_given_t,
        h_g_given_t=h_g_given_t,
        h_t=h_t,
        p_total=h_d_given_t + h_g_given_t + h_t,
        h_dt=h_dt,
        h_gt=h_gt,
    )
