"""MAP attacker inferring demand and channel from the offloading volume.

A compromised server sees only the per-slot offload count t. The attacker
counts (t, d) and (t, g) pairs on one trace and, on another, guesses the
most frequent value of each volume's row. The achievable success rate is
bounded by the expected max-conditional, which shrinks as H(D|T) grows;
both sides of that bound are computed here so runs can verify it
empirically.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

Tables = tuple[np.ndarray, np.ndarray]  # (t, d) and (t, g) count tables
SLACK = 0.02  # how far a success rate may pass its bound and still be within


@dataclass(frozen=True)
class AttackReport:
    success_d: float
    bound_d: float
    success_g: float
    bound_g: float
    n_eval: int
    unseen_t: tuple[int, ...]

    def within_bound(self) -> bool:
        return (self.success_d <= self.bound_d + SLACK
                and self.success_g <= self.bound_g + SLACK)


def _as_array(trace) -> np.ndarray:
    arr = np.asarray(trace, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 3 or arr.shape[0] == 0:
        raise ValueError("trace must be a non-empty sequence of (d, g, t)")
    if arr.min() < 0:
        raise ValueError("trace values must be non-negative")
    return arr


def _counts(t: np.ndarray, x: np.ndarray, n_x: int | None) -> np.ndarray:
    """Count table c[t, x], one row per volume 0..max(t), n_x columns at least."""
    n_t = int(t.max()) + 1
    n_x = max(n_x or 0, int(x.max()) + 1)
    return np.bincount(t * n_x + x, minlength=n_t * n_x).reshape(n_t, n_x)


def fit(trace, n_d: int | None = None, n_g: int | None = None) -> Tables:
    """The (t, d) and (t, g) count tables of an observed trace.

    A volume the trace lacks has an all-zero row. n_d and n_g widen the
    tables to that many demand and channel values.
    """
    d, g, t = _as_array(trace).T
    return _counts(t, d, n_d), _counts(t, g, n_g)


def _bound(counts: np.ndarray, n: int) -> float:
    """sum_t p(t) max_x p(x|t) over the volumes that were seen."""
    m = counts.sum(axis=1)
    seen = m > 0
    terms = (m[seen] / n) * (counts.max(axis=1)[seen] / m[seen])
    # One addition at a time in ascending t. np.sum's pairwise order (from
    # 8 volumes on) and sum()'s compensated float addition (Python 3.12+)
    # would each change the last bits of the published bounds.
    return reduce(add, terms.tolist(), 0.0)


def attack_evaluation(eval_trace, model: Tables) -> AttackReport:
    """Empirical attack success on a held-out trace, plus the success bound.

    Each volume's guess is the first argmax of its fitted row: ties go to
    the smallest value, and an unseen volume's all-zero row guesses 0. The
    bound is the expected max-conditional, the best possible guessing rate.
    `bound_*` is the plug-in maximum over the evaluation trace's own
    counts, biased upward where the exact conditionals tie (the uniform
    policy's `bound_g` reads 0.5023 on the 100k-slot desk rollout of
    seed [91, 0] against the exact 0.5; tests/test_exact.py computes both).
    """
    arr = _as_array(eval_trace)
    t = arr[:, 2]
    n = len(arr)
    n_t = max(len(model[0]), int(t.max()) + 1)
    fitted = [np.pad(c, ((0, n_t - len(c)), (0, 0))) for c in model]
    guess = np.stack([c.argmax(axis=1) for c in fitted], axis=1)[t]
    hit_d, hit_g = np.count_nonzero(guess == arr[:, :2], axis=0).tolist()
    seen = fitted[0].any(axis=1)
    own_d, own_g = fit(arr)
    return AttackReport(success_d=hit_d / n, bound_d=_bound(own_d, n),
                        success_g=hit_g / n, bound_g=_bound(own_g, n),
                        n_eval=n,
                        unseen_t=tuple(np.unique(t[~seen[t]]).tolist()))


def format_report(label: str, report: AttackReport) -> str:
    lines = [
        f"attack report: {label}",
        f"  eval steps          {report.n_eval}",
        f"  demand guess rate   {report.success_d:.4f} (bound {report.bound_d:.4f})",
        f"  channel guess rate  {report.success_g:.4f} (bound {report.bound_g:.4f})",
        f"  bound respected     {report.within_bound()}",
    ]
    if report.unseen_t:
        lines.append(f"  unseen volumes      {list(report.unseen_t)} (uniform fallback)")
    return "\n".join(lines)
