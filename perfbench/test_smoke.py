"""Smoke test of the benchmark at tiny sizes.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "commit_batched_1k": {"peers": 64, "warmup_flushes": 2, "flushes": 6, "probes": 4},
    "contended_unbatched": {"peers": 48, "edits": 40, "writers": 8, "probes": 4},
    "cold_sync_sqlite": {"peers": 24, "history": 40, "rounds": 6,
                         "checkpoint_interval": 8, "probes": 4},
}

#: Sizes big enough for each workload to show its shape.
SHAPE = {
    "commit_batched_1k": {"peers": 400, "warmup_flushes": 8, "flushes": 16},
    "contended_unbatched": {"edits": 120},
    "cold_sync_sqlite": {"history": 96, "rounds": 24},
}


def _episode_with_blocks(walls: list[float], kernels: list[float]) -> workloads.Episode:
    episode = workloads.Episode(workload="synthetic")
    episode.block_commits = [16] * len(walls)
    episode.block_wall = list(walls)
    episode.block_kernel = list(kernels)
    episode.committed = sum(episode.block_commits)
    return episode


def test_normaliser_cancels_a_host_slowdown_but_not_a_program_slowdown():
    blocks = 40
    walls = [0.020 + 0.001 * (index % 5) for index in range(blocks)]
    kernel = 0.004
    steady = _episode_with_blocks(walls, [kernel] * blocks)
    # The host runs 1.5x slower for the second half of the blocks: the
    # blocks and the kernel runs after them stretch alike.
    slow = [1.5 if index >= blocks // 2 else 1.0 for index in range(blocks)]
    host_slowed = _episode_with_blocks(
        [wall * factor for wall, factor in zip(walls, slow)],
        [kernel * factor for factor in slow])
    assert host_slowed.commits_per_s == pytest.approx(steady.commits_per_s, rel=1e-12)
    assert host_slowed.timed_wall / steady.timed_wall == pytest.approx(1.25)
    raw = calibrate.blockwise_rate(steady.block_commits, [steady.block_wall])
    raw_slowed = calibrate.blockwise_rate(host_slowed.block_commits, [host_slowed.block_wall])
    assert raw_slowed == pytest.approx(raw / 1.25)
    # The program itself gets slower: only the blocks stretch.
    program_slowed = _episode_with_blocks([wall * factor for wall, factor in zip(walls, slow)],
                                          [kernel] * blocks)
    assert program_slowed.commits_per_s == pytest.approx(steady.commits_per_s / 1.25)
    # Reference seconds are wall seconds on a host that runs the kernel in
    # REFERENCE_KERNEL_S.
    reference = _episode_with_blocks(walls, [calibrate.REFERENCE_KERNEL_S] * blocks)
    assert reference.timed_reference == pytest.approx(reference.timed_wall)


def test_setup_clock_divides_each_block_by_the_kernel_runs_beside_it():
    clock = calibrate.SetupClock()
    clock.block()
    clock.block()
    assert len(clock.walls) == 2 and len(clock.kernels) == 3
    reference = calibrate.REFERENCE_KERNEL_S
    # The host slows 1.5x from the middle of the second block on.
    clock.walls = [0.10, 0.25]
    clock.kernels = [reference, reference, 1.5 * reference]
    assert clock.wall == pytest.approx(0.35)
    assert clock.reference == pytest.approx(0.10 + 0.25 / 1.25)


def test_blockwise_rate_drops_a_repeat_hit_by_a_burst():
    commits = [16, 16, 16]
    repeats = [[0.02, 0.02, 0.02], [0.02, 0.09, 0.02], [0.02, 0.02, 0.02]]
    assert calibrate.blockwise_rate(commits, repeats) == pytest.approx(48 / 0.06)


def test_calibration_kernel_checks_its_result(monkeypatch):
    assert calibrate.kernel_seconds() > 0
    monkeypatch.setattr(calibrate, "KERNEL_CHECKSUM", calibrate.KERNEL_CHECKSUM + 1)
    with pytest.raises(calibrate.CalibrationError):
        calibrate.kernel_seconds()


def test_calibration_kernel_runs_with_the_collector_paused(monkeypatch):
    states = []
    work = calibrate._work

    def spy(rounds):
        states.append(gc.isenabled())
        return work(rounds)

    monkeypatch.setattr(calibrate, "_work", spy)
    assert gc.isenabled()
    calibrate.kernel_seconds()
    assert states == [False] and gc.isenabled()


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_spec_and_benchmark_agree():
    spec = workloads.load_spec()
    assert set(spec["workloads"]) == set(workloads.WORKLOADS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(spec["workloads"])
    for workload in BENCHMARK["workloads"]:
        assert workload["why"] == spec["workloads"][workload["name"]]["why"]
    assert set(spec["per_layer"]) == set(_units("per_layer"))


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_reported_with_its_unit(workload, trace, tmp_path):
    result = run.measure(workload, seed=5, seconds=0.0, trace=trace,
                         root=tmp_path, overrides=TINY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = _units("per_layer" if trace else "end_to_end")
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == expected
    if trace:
        assert (tmp_path / run.OUT_DIR / f"spans-{workload}.jsonl").stat().st_size > 0


def _remove_entry(system, key: str, ts: int) -> None:
    """Delete every placement (owner and replicas) of one log entry."""
    for storage_key, _identifier in system.log_client().placements(key, ts):
        for node in system.ring.nodes.values():
            node.storage.remove(storage_key)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_gate_fails_on_a_log_with_one_entry_removed(workload, tmp_path):
    make_inputs, _setup, run_workload = workloads.WORKLOADS[workload]
    params = workloads.workload_params(workload, TINY[workload])
    inputs = make_inputs(params, 7)
    system, storage_dir, _clock = workloads._build(workload, params, 7, tmp_path, inputs)
    try:
        episode = workloads.Episode(workload=workload)
        counters = workloads.Counters(system)
        expected = run_workload(system, inputs, params, episode, None, counters)
        assert workloads.check_outcome(system, expected) == []
        key = max(expected, key=expected.get)
        _remove_entry(system, key, expected[key] // 2)
        problems = workloads.check_outcome(system, expected)
        assert problems and all(problem.startswith(key) for problem in problems)
        # A wrong count of committed edits breaks the dense-timestamp check.
        assert workloads.check_outcome(system, {key: expected[key] + 1})
    finally:
        workloads._teardown(system, storage_dir)


def test_failed_gate_exits_non_zero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "check_outcome", lambda system, expected: ["corrupted"])
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(workloads, "workload_params",
                        lambda name, overrides=None: {
                            **workloads.load_spec()["workloads"][name]["params"],
                            **TINY[name]})
    code = run.main(["--workload", "commit_batched_1k", "--seed", "1",
                     "--seconds", "0", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


_COUNTS_SCRIPT = """
import json, sys
from pathlib import Path
sys.path[:0] = [{src!r}, {here!r}]
import workloads
params = workloads.workload_params({workload!r}, {overrides!r})
episode = workloads.run_episode({workload!r}, params, {seed}, Path({scratch!r}))
print(json.dumps(episode.deterministic(), sort_keys=True))
"""


def _counts_in_fresh_process(workload: str, seed: int, hash_seed: str, scratch: Path) -> dict:
    script = _COUNTS_SCRIPT.format(src=str(ROOT / "src"), here=str(HERE), workload=workload,
                                   overrides=TINY[workload], seed=seed, scratch=str(scratch))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
def test_same_seed_reproduces_every_count_across_processes(workload, tmp_path):
    first = _counts_in_fresh_process(workload, 11, "1", tmp_path)
    second = _counts_in_fresh_process(workload, 11, "2", tmp_path)
    assert first == second
    other_seed = _counts_in_fresh_process(workload, 12, "1", tmp_path)
    assert other_seed != first


def test_fresh_seed_keeps_each_workload_shape(tmp_path):
    seed = 424242

    def ledger(workload):
        result = run.measure(workload, seed=seed, seconds=0.0, trace=True,
                             root=tmp_path, overrides=SHAPE[workload])
        return {name: metric["value"] for name, metric in result["metrics"].items()}

    batched = ledger("commit_batched_1k")
    shares = {name: value for name, value in batched.items()
              if name.startswith("net.msgs_per_commit.")}
    assert max(shares, key=shares.get) == "net.msgs_per_commit.find_successor"
    assert ledger("contended_unbatched")["core.master.behind_fraction"] > 0
    assert ledger("cold_sync_sqlite")["p2plog.checkpoint_hit_fraction"] > 0
