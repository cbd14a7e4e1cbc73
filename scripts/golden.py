"""Golden digests: sha256 of every CSV and checkpoint of a fixed command set.

scripts/golden.txt is the checked-in listing. A refactor that claims
bit-identity must print it unchanged:

    python3 scripts/golden.py | diff - scripts/golden.txt

A change that moves results updates golden.txt, so its diff names the
digests that moved. The listing was recorded with numpy 2.4.6 and OpenBLAS
0.3.31 (scipy-openblas, Haswell kernels) on Python 3.11; another numpy or
BLAS build may print other digests, and then two trees are compared on one
machine instead:

    PYTHONPATH=/path/to/other/src python3 scripts/golden.py > before.txt

The commands run in-process through mecpriv.cli.main, in a temporary
directory, with one BLAS thread. At desk scale they cover the baselines
(evaluate, attack, sweep-theta), an attack on theta 0.5 whose 500-slot fit
trace lacks volumes that its evaluation trace has (the attacker's guess for
an unseen volume and a non-empty unseen_t column), short trainings of both
learners with an evaluate and an attack of each checkpoint, a short lambda
sweep in two worker processes, and three full 300-episode desk trainings
(the only runs long enough to wrap the replay rings of both learners). Two short
trainings of both learners at paper scale (two 160-slot episodes, one
update every 40 slots, one evaluation episode) cover the paper preset's
soft target update, which keeps 1 - 1e-4 of the target net instead of the
desk preset's 0.99. The whole set took 2 min 15 s, mostly on one core, of
a 2-vCPU machine.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# PYTHONPATH comes first, so it picks the tree under test; this checkout's
# src is the fallback.
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

from mecpriv.cli import main  # noqa: E402


def commands(ini3: str, ini6: str, ini_paper: str):
    """(name, argv) pairs; {out} is the run's own output directory."""
    desk = ["--scale", "desk"]
    yield "evaluate-greedy", ["evaluate", "--agent", "greedy", *desk, "--seed", "7"]
    yield "evaluate-uniform", ["evaluate", "--agent", "uniform", *desk, "--seed", "7"]
    yield "evaluate-theta0.3", ["evaluate", "--agent", "theta", "--theta", "0.3",
                                *desk, "--seed", "7"]
    for agent in ("greedy", "uniform"):
        yield f"attack-{agent}", ["attack", "--agent", agent, *desk,
                                  "--seed", "7", "--steps", "20000"]
    # Seed 12 is the seed nearest 7 whose 500-slot fit trace lacks a volume
    # that its evaluation trace has.
    yield "attack-theta0.5", ["attack", "--agent", "theta", "--theta", "0.5",
                              *desk, "--seed", "12", "--steps", "500"]
    yield "sweep-theta", ["sweep-theta", *desk, "--config", ini3]
    yield "sweep-lambda", ["sweep-lambda", *desk, "--config", ini3, "--jobs", "2"]
    for agent in ("dqn", "drqn"):
        name = f"train-{agent}-6ep"
        yield name, ["train", "--agent", agent, *desk, "--config", ini6,
                     "--lambda", "10", "--seed", "303"]
        for command in ("evaluate", "attack"):
            yield f"{command}-{agent}-6ep", [
                command, "--agent", agent, *desk, "--config", ini6,
                "--lambda", "10", "--seed", "303",
                "--checkpoint", f"{{root}}/{name}/checkpoint.qnet",
                *(["--steps", "20000"] if command == "attack" else [])]
    for agent in ("dqn", "drqn"):
        yield f"train-{agent}-paper", [
            "train", "--agent", agent, "--scale", "paper", "--config", ini_paper,
            "--lambda", "10", "--seed", "303"]
    for agent, lam, seed in (("dqn", "10", "202"), ("dqn", "0", "101"),
                             ("drqn", "10", "303")):
        yield f"train-{agent}-lambda{lam}-seed{seed}", [
            "train", "--agent", agent, *desk, "--lambda", lam, "--seed", seed]


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ini3, ini6 = root / "episodes3.ini", root / "episodes6.ini"
        ini_paper = root / "paper_short.ini"
        ini3.write_text("[agent]\nepisodes = 3\n")
        ini6.write_text("[agent]\nepisodes = 6\n")
        ini_paper.write_text("[env]\nepisode_len = 160\n\n"
                             "[agent]\nepisodes = 2\nupdate_every = 40\n\n"
                             "[run]\neval_episodes = 1\n")
        for name, argv in commands(str(ini3), str(ini6), str(ini_paper)):
            out = root / name
            argv = [a.replace("{root}", tmp) for a in argv]
            # The commands' own reports go to stderr; stdout has digests only.
            with contextlib.redirect_stdout(sys.stderr):
                code = main(argv + ["--out", str(out)])
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            for path in sorted(out.iterdir()):
                if path.suffix in (".csv", ".qnet"):
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    print(f"{digest}  {name}/{path.name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
