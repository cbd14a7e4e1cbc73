"""Deterministic CSV and manifest writers.

Floats are written with repr so a rerun with the same config and seeds
produces byte-identical files.
"""
from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

from .. import __version__ as artifact_version
from ..adversary import AttackReport


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ";".join(map(str, value))
    return str(value)


def write_metrics_csv(path: str | Path, records: list,
                      extra: dict[str, list] | None = None) -> Path:
    """One row per dataclass record, one column per field; optional leading
    columns (e.g. theta, lambda)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    extra = extra or {}
    field_names = [f.name for f in dataclasses.fields(records[0])]
    header = list(extra) + field_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, rec in enumerate(records):
            row = [_fmt(extra[k][i]) for k in extra]
            row += [_fmt(getattr(rec, name)) for name in field_names]
            writer.writerow(row)
    return path


def write_learning_curve_csv(path: str | Path,
                             curve: list[tuple[int, float, float]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["episode", "total_reward", "epsilon"])
        for episode, total, eps in curve:
            writer.writerow([episode, _fmt(float(total)), _fmt(float(eps))])
    return path


def write_attack_csv(path: str | Path, label: str,
                     report: AttackReport) -> Path:
    """The attack command's one row: the label, then the report's fields."""
    return write_metrics_csv(path, [report], extra={"label": [label]})


def write_manifest(path: str | Path, config_dict: dict, seeds,
                   extra: dict | None = None) -> Path:
    """Full config, seeds and artifact version; no timestamps on purpose."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "artifact_version": artifact_version,
        "config": config_dict,
        "seeds": list(seeds),
        "heuristic_metric": ("greedy_deviation_standin "
                             "(stand-in; original metric external)"),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
