"""Benchmark of the mecpriv lab, driven through its command line.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Load model: closed loop, one client, one process. Each op is one in-process
``mecpriv.cli.main(argv)`` call and the next op starts when it returns, so
refactors behind the CLI cannot break the end-to-end numbers. The seed picks
the ops' ``--seed`` values; equal seeds give equal inputs.

With ``--trace 0`` ops run for ``--seconds`` and the end-to-end metrics are
printed. With ``--trace 1`` each of a fixed number of ops runs once
untraced and once under the per-layer probes of ``probes.py``; the
per-layer metrics are printed, with the tracing overhead between the two.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. Exit code 2 means the benchmark could not run (missing sources, a
pinned input the program no longer honours) and prints no result.
``--workload all`` runs every workload, each in its own process.
"""
import os

# One BLAS thread, set before numpy loads: on a shared 2-core machine the
# default OpenBLAS pool turned a 0.125 s GRU pass into 3.3 s.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import probes  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 170

END_TO_END = {"setup_s": "s", "steps_per_s": "slots/s", "op_ms_p50": "ms",
              "peak_rss_mb": "MiB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def tail_percentile(n: int) -> int | None:
    """Highest integer percentile above the median with TAIL_BEYOND samples
    past its nearest rank, or None when n is too small for one."""
    p = 100 * (n - TAIL_BEYOND) // n if n > TAIL_BEYOND else 0
    return p if p > 50 else None


def load_cli():
    """Import mecpriv.cli from this checkout's sources, never another copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        from mecpriv import cli
    except ImportError as exc:
        raise BenchError(f"cannot import mecpriv from {src}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"mecpriv was imported from {cli.__file__}, not {src}")
    return cli


class Session:
    """One workload's inputs, op runner and output bookkeeping."""

    def __init__(self, cli, workload, seed: int, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.ini = workdir / f"{workload.name}.ini"
        self.ini.write_text(workload.ini_text())
        self.op_seeds = workload.op_seeds(seed)
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0

    def run_op(self, j: int, tracer=None) -> float:
        """Run op j, check its outputs, return its wall time in seconds."""
        if tracer is not None:
            tracer.op_id = j
        argv = self.workload.argv(j, self.op_seeds, self.ini, self._out())
        return self._run(argv, lambda out: workloads.check_outputs(
            self.workload, out, self.workload.command) + self._check_repeat(j, out))

    def warm_up(self) -> None:
        """A cheap greedy evaluate on the workload's INI. Its manifest shows
        the resolved config, which must hold the pinned values."""
        argv = self.workload.warmup_argv(self.op_seeds, self.ini, self._out())
        self._run(argv, lambda out: workloads.check_outputs(
            self.workload, out, "evaluate"))

    def _out(self) -> Path:
        return self.workdir / f"op{self.attempted}"

    def _run(self, argv: list[str], check) -> float:
        out = Path(argv[argv.index("--out") + 1])
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - an op failure, counted
                rc = f"exception {exc!r}"
            elapsed = time.perf_counter() - t0
        if rc == 0:
            problems = check(out)
        else:
            problems = [f"exit code {rc}: {sink.getvalue().strip()[-500:]}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op FAILED ({' '.join(argv)}): {'; '.join(problems)}",
                  file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def _check_repeat(self, j: int, out: Path) -> list[str]:
        key = self.workload.op_key(j, self.op_seeds)
        digest = workloads.csv_digest(out)
        first = self.digests.setdefault(key, digest)
        if first != digest:
            return [f"CSVs differ from an earlier op with the same inputs {key}"]
        return []


def setup(workload, seed: int, workdir: Path) -> Session:
    """Import, write the pinned inputs, and run the untimed warm-up op."""
    session = Session(load_cli(), workload, seed, workdir)
    session.warm_up()
    return session


def child_setup_seconds(args) -> float:
    """Wall time of a fresh process from spawn until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "1",
           "--trace", "0", "--setup-only", repr(time.time())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("set-up child timed out") from exc
    last = done.stdout.split()
    if done.returncode != 0 or last[:1] != ["ready"]:
        raise BenchError(f"set-up child failed with exit code {done.returncode}")
    return float(last[1])


def run_timed(session: Session, seconds: float):
    """Closed loop: ops back to back until `seconds` of wall time have passed."""
    latencies = []
    t_end = time.perf_counter() + seconds
    j = 0
    while not latencies or time.perf_counter() < t_end:
        latencies.append(session.run_op(j))
        j += 1
    return latencies


def end_to_end(session: Session, latencies, setups) -> dict:
    """The end-to-end metrics, printed with their units and sample counts."""
    n = len(latencies)
    slots = n * session.workload.slots_per_op()
    ms = [1e3 * t for t in latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": slots / sum(latencies),
        "op_ms_p50": statistics.median(ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups in fresh processes",
        "steps_per_s": f"{slots} slots in {sum(latencies):.3f} s of op time, n={n} ops",
        "op_ms_p50": f"n={n} ops",
        "peak_rss_mb": "this process",
    }
    for name, unit in END_TO_END.items():
        print(f"  {name:<12} {metrics[name]:>14.6g} {unit:<8} ({notes[name]})")
    p = tail_percentile(n)
    if p is None:
        print(f"  {'op_ms_tail':<12} {'-':>14} {'ms':<8} (n={n} ops: no percentile "
              f"above the median has {TAIL_BEYOND} ops beyond it)")
    else:
        beyond = n + (-p * n // 100)
        print(f"  {'op_ms_tail':<12} {probes.nearest_rank(ms, p):>14.6g} {'ms':<8} "
              f"(p{p}, n={n} ops, {beyond} beyond)")
    rate = session.failed / session.attempted
    print(f"  {'error_rate':<12} {rate:>14.6g} {'ratio':<8} "
          f"({session.failed} failed of {session.attempted} ops, warm-up included)")
    return metrics


def run_traced(session: Session, n_ops: int, spans: Path) -> dict:
    """Each of n_ops ops once untraced, then once traced; per-layer metrics.

    Interleaving the two passes op by op keeps drift in the machine's load
    out of the overhead ratio."""
    tracer = probes.Tracer()
    untraced = traced = 0.0
    for j in range(n_ops):
        untraced += session.run_op(j)
        with tracer:
            traced += session.run_op(j, tracer)
    tracer.write_spans(spans)
    print(f"  {len(tracer.start)} spans written to {spans}")
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    for target in tracer.absent:
        print(f"  ABSENT probe target {target}: its layer reports 0 calls")
    units = probes.metric_units()
    for name in units:
        print(f"  {name:<36} {metrics[name]:>14.6g} {units[name]}")
    return {name: metrics[name] for name in units}


def _blas_version() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def run_record(load_before) -> dict:
    import numpy as np
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "git_commit": _git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=float, metavar="SPAWN_TIME",
                        help="set up, print 'ready' and the seconds since "
                             "SPAWN_TIME (a time.time() value), and exit")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    worst = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    load_before = os.getloadavg()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        session = setup(workload, args.seed, workdir)
        if args.setup_only is not None:
            print(f"ready {time.time() - args.setup_only!r}")
            return 0
        print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
        if args.trace:
            metrics = run_traced(session, workload.trace_ops,
                                 WORK / f"spans-{workload.name}-seed{args.seed}.tsv")
        else:
            setups = [child_setup_seconds(args) for _ in range(SETUP_REPEATS)]
            latencies = run_timed(session, args.seconds)
            metrics = end_to_end(session, latencies, setups)
        print("run_record " + json.dumps(run_record(load_before), sort_keys=True))
    except (BenchError, workloads.PinError) as exc:
        print(f"benchmark refused: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    units = END_TO_END if not args.trace else probes.metric_units()
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
