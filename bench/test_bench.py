"""Tests of the benchmark itself: python3 -m pytest -q bench"""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (10, None), (19, None), (20, None), (21, 52), (40, 75), (62, 83),
    (100, 90), (300, 96), (1000, 99),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = run.tail_percentile(n)
    assert p == expected
    if p is not None:
        rank = -(-p * n // 100)
        assert n - rank >= run.TAIL_BEYOND
        assert n - -(-(p + 1) * n // 100) < run.TAIL_BEYOND


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert probes.nearest_rank(values, 90) == 90
    assert probes.nearest_rank(values, 50) == 50
    assert probes.nearest_rank([5.0], 90) == 5.0


def test_self_time_subtracts_the_union_of_child_spans():
    # 0: root [0, 10]; 1 covers [1, 5] and 2 lies inside it, so together
    # they cover 4; 3 is a grandchild inside 1; 4 sticks out of the root.
    start = [0.0, 1.0, 2.0, 1.5, 8.0]
    end = [10.0, 5.0, 3.0, 2.5, 12.0]
    parent = [-1, 0, 0, 1, 0]
    own = probes.self_times(start, end, parent)
    assert own == pytest.approx([10 - 4 - 2, 4 - 1, 1, 1, 4])


def test_tracer_counts_spans_and_reports_absent_targets():
    module = type(sys)("bench_probe_fixture")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    originals = module.inner, module.outer
    tracer = probes.Tracer((
        ("cli.main", ("bench_probe_fixture:outer",)),
        ("env.step", ("bench_probe_fixture:inner",)),
        ("privacy.push", ("bench_probe_fixture:gone",
                          "no_such_module_anywhere:fn")),
    ))
    sys.modules[module.__name__] = module
    try:
        with tracer:
            assert module.outer(1) == 4
            assert module.inner(1) == 2
    finally:
        del sys.modules[module.__name__]
    assert (module.inner, module.outer) == originals
    assert list(tracer.parent) == [-1, 0, -1]
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == 1
    assert metrics["env.step.calls"] == 2
    assert metrics["privacy.push.calls"] == 0
    assert tracer.absent == ["bench_probe_fixture:gone",
                             "no_such_module_anywhere:fn"]
    assert metrics["trace.absent_targets"] == 2


def test_error_rate_counts_exit_codes_and_failed_checks(tmp_path, monkeypatch):
    session = run.Session(run.load_cli(), workloads.WORKLOADS["policy_eval_desk"],
                          seed=3, workdir=tmp_path)
    session.run_op(0)
    assert (session.attempted, session.failed) == (1, 0)

    # A non-zero exit code is a failure.
    real_main = session.cli.main
    monkeypatch.setattr(session.cli, "main", lambda argv: 1)
    session.run_op(1)
    assert (session.attempted, session.failed) == (2, 1)

    # So is a zero exit code whose outputs fail a check.
    def bad_entropy(argv):
        rc = real_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        text = (out / "metrics.csv").read_text().splitlines()
        header = text[0].split(",")
        row = text[1].split(",")
        row[header.index("h_dt")] = "99.0"
        (out / "metrics.csv").write_text("\n".join([text[0], ",".join(row)]) + "\n")
        return rc

    monkeypatch.setattr(session.cli, "main", bad_entropy)
    session.run_op(2)
    assert (session.attempted, session.failed) == (3, 2)

    # A same-input repeat whose CSVs differ fails the repeat check.
    monkeypatch.setattr(session.cli, "main", real_main)
    session.digests[session.workload.op_key(0, session.op_seeds)] = "other"
    session.run_op(0)
    assert (session.attempted, session.failed) == (4, 3)


def test_check_pins_refuses_a_resized_workload():
    pins = workloads.WORKLOADS["drqn_train_desk"].pins
    config = {section: dict(values) for section, values in pins.items()}
    workloads.check_pins(config, pins)
    with pytest.raises(workloads.PinError, match="eval_episodes"):
        workloads.check_pins({**config, "run": {}}, pins)
    config["agent"]["seq_len"] = 32
    with pytest.raises(workloads.PinError, match="seq_len = 32, pinned 48"):
        workloads.check_pins(config, pins)


def test_bench_refuses_when_the_program_ignores_a_pin(monkeypatch, capsys):
    w = workloads.WORKLOADS["policy_eval_desk"]
    pinned = w.ini_text()
    # The INI asks for 200-slot episodes while the pins still say 400, as
    # if the program had resolved the workload to another size.
    monkeypatch.setattr(workloads.Workload, "ini_text",
                        lambda self: pinned.replace("episode_len = 400",
                                                    "episode_len = 200"))
    rc = run.main(["--workload", w.name, "--seed", "1", "--seconds", "1",
                   "--trace", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "episode_len = 200, pinned 400" in captured.err
    assert not captured.out.strip()


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == probes.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_inis_pin_every_sizing_key():
    for w in workloads.WORKLOADS.values():
        text = w.ini_text()
        for key in ("episode_len", "window", "d_max", "b_max"):
            assert f"{key} = " in text
        if w.command != "attack":
            assert "eval_episodes = " in text
        if w.command == "train":
            for key in ("episodes", "batch_size", "seq_len", "tbptt_len",
                        "gru_layers", "gru_units", "dense_layers",
                        "dense_units", "update_every", "buffer_capacity"):
                assert f"\n{key} = " in text


def test_op_seeds_follow_the_bench_seed():
    w = workloads.WORKLOADS["attack_rollout"]
    assert w.op_seeds(7) == w.op_seeds(7)
    assert w.op_seeds(7) != w.op_seeds(8)
    seeds = w.op_seeds(7)
    assert w.op_key(0, seeds) == w.op_key(2 * w.seed_pool, seeds)
