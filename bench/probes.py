"""Per-layer probes for the traced benchmark run.

Each probe wraps, from outside the package, the module-level names a
layer's callers bind (``mecpriv.agents.drqn:forward`` is the ``forward``
that ``drqn_update`` calls). A wrapped call records one span: name, start,
end, parent span and op id. Spans stay in memory and are reduced once, at
the end, to a call count and a mean self time (span minus the part of it
that child spans cover) per probe. A target that no longer exists is listed
as absent and its probe reports zero calls; the run goes on.

Which end-to-end metric each layer should move, and on which workload:

- env.*, privacy.*, baselines.act, harness.run_episode: steps_per_s and
  op_ms_p50 on policy_eval_desk; env.* and baselines.act also on
  attack_rollout. They are under 5% of the drqn_train_* ops, where the
  prediction is no change.
- privacy.* has zero calls on attack_rollout, the bypass for a change to
  the privacy window alone.
- nn.*, agents.*: steps_per_s on drqn_train_desk and drqn_train_paper; zero
  calls on policy_eval_desk and attack_rollout.
- agents.burnin_step_ratio: steps_per_s mostly on drqn_train_paper, less
  on drqn_train_desk. A gather or one-hot change (nn.input_nonzero_ratio)
  shows on both.
- adversary.*: op_ms_p50 on attack_rollout only.
- nn.checkpoint, harness.io, cli.main: small everywhere; a change that
  moves work into set-up shows in setup_s.
"""
from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PROBES = (
    ("env.step", ("mecpriv.harness.runner:step", "mecpriv.agents.drqn:step")),
    ("privacy.push", ("mecpriv.privacy:WindowHistory.push",)),
    ("privacy.breakdown", ("mecpriv.harness.runner:privacy_breakdown",
                           "mecpriv.agents.drqn:privacy_breakdown")),
    ("baselines.act", ("mecpriv.baselines:GreedyPolicy.act",
                       "mecpriv.baselines:ThetaPrivatePolicy.act")),
    ("baselines.init", ("mecpriv.baselines:GreedyPolicy.__init__",
                        "mecpriv.baselines:ThetaPrivatePolicy.__init__")),
    ("nn.forward_step", ("mecpriv.agents.drqn:forward_step",)),
    ("nn.gru_step", ("mecpriv.nn.network:_gru_step",)),
    ("nn.gru_backward", ("mecpriv.nn.network:_gru_backward",)),
    ("nn.forward", ("mecpriv.agents.drqn:forward",)),
    ("nn.backward", ("mecpriv.agents.drqn:backward",)),
    ("nn.adam", ("mecpriv.nn.optim:Adam.step",)),
    ("nn.polyak", ("mecpriv.agents.drqn:polyak_update",)),
    ("nn.checkpoint", ("mecpriv.cli:save_checkpoint",)),
    ("agents.drqn_update", ("mecpriv.agents.drqn:drqn_update",)),
    ("agents.window_batch", ("mecpriv.agents.drqn:_window_batch",)),
    ("agents.sample_windows", ("mecpriv.agents.replay:EpisodeBuffer.sample_windows",)),
    ("agents.epsilon_greedy", ("mecpriv.agents.drqn:epsilon_greedy",)),
    ("agents.train_loop", ("mecpriv.cli:TRAINERS.drqn",)),
    ("adversary.fit", ("mecpriv.cli:fit",)),
    ("adversary.attack_evaluation", ("mecpriv.cli:attack_evaluation",)),
    ("harness.evaluate", ("mecpriv.cli:evaluate",)),
    ("harness.run_episode", ("mecpriv.harness.runner:run_episode",)),
    ("harness.rollout_trace", ("mecpriv.cli:rollout_trace",)),
    ("harness.io", ("mecpriv.cli:write_metrics_csv",
                    "mecpriv.cli:write_learning_curve_csv",
                    "mecpriv.cli:write_attack_csv", "mecpriv.cli:write_manifest")),
    ("cli.main", ("mecpriv.cli:main",)),
)

# drqn_update's forward calls, told apart by their arguments: the loss pass
# keeps a cache, burn-in passes start from a zero hidden state, the
# bootstrap pass continues the target net's burned-in state.
FORWARD_KINDS = ("nn.forward.burnin", "nn.forward.loss", "nn.forward.target")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _forward_kind(args, kwargs) -> str:
    if _arg(args, kwargs, 4, "collect_cache", True):
        return "nn.forward.loss"
    if _arg(args, kwargs, 3, "h0") is None:
        return "nn.forward.burnin"
    return "nn.forward.target"


def _count_forward(counters, span, args, kwargs, result) -> None:
    xs = np.asarray(_arg(args, kwargs, 2, "xs"))
    counters["input_nonzero"] += int(np.count_nonzero(xs))
    counters["input_size"] += xs.size
    counters["forward_steps"] += xs.shape[0]
    if span == "nn.forward.burnin":
        counters["burnin_steps"] += xs.shape[0]


def _count_loss(counters, span, args, kwargs, result) -> None:
    counters["td_loss_sum"] += float(result[1])


def _count_rows(counters, span, args, kwargs, result) -> None:
    counters["attack_rows"] += int(result.n_eval)


NAMERS = {"nn.forward": _forward_kind}
HOOKS = {"nn.forward": _count_forward, "agents.drqn_update": _count_loss,
         "adversary.attack_evaluation": _count_rows}


def span_names() -> list[str]:
    names = []
    for name, _ in PROBES:
        names += FORWARD_KINDS if name in NAMERS else [name]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_us"] = "us"
    # Derived: nonzeros over the size of the inputs drqn_update feeds to
    # forward; burn-in forward timesteps over all its forward timesteps;
    # inclusive drqn_update time percentiles and mean TD loss; inclusive
    # attack_evaluation time per evaluated trace row.
    units.update({
        "nn.input_nonzero_ratio": "ratio",
        "agents.drqn_update.ms_p50": "ms",
        "agents.drqn_update.ms_p90": "ms",
        "agents.burnin_step_ratio": "ratio",
        "agents.td_loss_mean": "loss",
        "adversary.us_per_row": "us",
        "trace.absent_targets": "count",
        "trace.overhead_ratio": "ratio",
    })
    return units


def _resolve(target: str):
    """(container, key, current value) of "module:attr.attr" or a dict key."""
    module, _, path = target.partition(":")
    obj = importlib.import_module(module)
    *parents, key = path.split(".")
    for part in parents:
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    if isinstance(obj, dict):
        return obj, key, obj[key]
    if isinstance(obj, type):  # only the class's own attribute, not inherited
        return obj, key, vars(obj)[key]
    return obj, key, getattr(obj, key)


def self_times(start, end, parent) -> list[float]:
    """Span durations minus the union of their children's intervals."""
    kids = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, children in kids.items():
        lo, hi = start[p], end[p]
        covered, run_lo, run_hi = 0.0, None, None
        for a, b in sorted((max(start[k], lo), min(end[k], hi)) for k in children):
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


class Tracer:
    """Installs the probes for a `with` block and keeps every span."""

    def __init__(self, probes=PROBES):
        self.probes = probes
        self.names = span_names()
        self._ix = {name: i for i, name in enumerate(self.names)}
        self.name_of, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.op_id = -1
        self.absent: list[str] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self):
        self.absent = []
        for name, targets in self.probes:
            for target in targets:
                try:
                    container, key, original = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(target)
                    continue
                self._set(container, key, self._wrap(original, name))
                self._patches.append((container, key, original))
        return self

    def __exit__(self, *exc):
        while self._patches:
            self._set(*self._patches.pop())

    @staticmethod
    def _set(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def _wrap(self, fn, name: str):
        namer, hook = NAMERS.get(name), HOOKS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            i = len(self.start)
            self.name_of.append(self._ix[span])
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i], self.end[i] = t0, t1
            if hook:
                hook(self.counters, span, args, kwargs, result)
            return result

        return probe

    def write_spans(self, path) -> None:
        """Every span as one tab-separated row; parent is a row index."""
        with open(path, "w") as fh:
            fh.write("op\tname\tparent\tstart_s\tend_s\n")
            for op, ix, parent, start, end in zip(
                    self.op, self.name_of, self.parent, self.start, self.end):
                fh.write(f"{op}\t{self.names[ix]}\t{parent}\t{start!r}\t{end!r}\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; trace.overhead_ratio is added by the caller."""
        own = self_times(self.start, self.end, self.parent)
        calls = [0] * len(self.names)
        self_sum = [0.0] * len(self.names)
        durations = defaultdict(list)
        for ix, s, e, t in zip(self.name_of, self.start, self.end, own):
            calls[ix] += 1
            self_sum[ix] += t
            durations[ix].append(e - s)
        out = {}
        for ix, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[ix]
            out[f"{name}.self_us"] = 1e6 * self_sum[ix] / calls[ix] if calls[ix] else 0.0
        c = self.counters
        upd = [1e3 * d for d in durations[self._ix["agents.drqn_update"]]]
        attack = durations[self._ix["adversary.attack_evaluation"]]
        out.update({
            "nn.input_nonzero_ratio": _ratio(c["input_nonzero"], c["input_size"]),
            "agents.drqn_update.ms_p50": statistics.median(upd) if upd else 0.0,
            "agents.drqn_update.ms_p90": nearest_rank(upd, 90) if upd else 0.0,
            "agents.burnin_step_ratio": _ratio(c["burnin_steps"], c["forward_steps"]),
            "agents.td_loss_mean": _ratio(c["td_loss_sum"], len(upd)),
            "adversary.us_per_row": _ratio(1e6 * sum(attack), c["attack_rows"]),
            "trace.absent_targets": len(self.absent),
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def nearest_rank(values, p: int) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, -(-p * len(ordered) // 100) - 1)]
