"""P2P-LTR benchmark: commit and sync workloads with a per-layer cost ledger.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload commit_batched_1k --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` repeats untraced episodes of the workload (at least three,
then while another fits in ``--seconds`` beside the set-up builds still to
time), prints the end-to-end metrics and, on standard error, the same
metrics before calibration.  ``--trace 1`` runs one untraced and one traced
episode of the same seed, fails unless their deterministic counts are
identical, prints the per-layer metrics and writes the traced spans as JSON
lines under ``.perfbench_out/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero, and no result is printed, when a correctness check fails.
Every timing is in reference seconds: wall time divided by the time of a
calibration kernel run next to it (see ``calibrate.py``).  The workloads and
what each layer metric should move are described in
``perfbench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

from calibrate import CalibrationError, blockwise_rate

OUT_DIR = ".perfbench_out"

#: Set-up builds timed per untraced run, at least (``setup_s`` is their
#: median); each episode's own build is one of them.
MIN_SETUPS = 11

#: Episodes per untraced run, at least, even past ``--seconds``
#: (``commits_per_s`` takes medians over them).
MIN_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "commits_per_s": "1/s",
    "commit_latency_p50_ms": "ms",
    "commit_latency_p95_ms": "ms",
    "messages_per_commit": "count",
    "peak_rss_mb": "MiB",
}


class BenchmarkFailure(Exception):
    """A correctness or determinism check failed; no metrics are reported."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_episode(episode, reference=None) -> None:
    if episode.problems:
        raise BenchmarkFailure(
            f"{episode.workload}: correctness gate failed: " + "; ".join(episode.problems)
        )
    if episode.committed == 0:
        raise BenchmarkFailure(f"{episode.workload}: no edit committed")
    if reference is not None:
        expected = reference.deterministic()
        observed = episode.deterministic()
        differing = sorted(key for key in expected if expected[key] != observed.get(key))
        if differing:
            raise BenchmarkFailure(
                f"{episode.workload}: a rerun of the same seed changed "
                f"deterministic counts: {', '.join(differing)}"
            )


def end_to_end(episodes: list, setups: list[tuple[float, float]],
               raw: bool = False) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of the untraced episodes (all of one seed).

    ``setups`` holds each set-up build's time in wall and in reference
    seconds.  ``commits_per_s`` counts each timed block with its
    median time across the episodes; every episode repeats the same seeded
    work in the same blocks (``_check_episode`` holds them to it).  Times
    are in reference seconds, or in wall seconds when ``raw`` is true (the
    diagnostic that shows what the calibration cancels).
    """
    first = episodes[0]
    from workloads import percentile

    if raw:
        setup_times = [wall for wall, _reference in setups]
        block_times = [episode.block_wall for episode in episodes]
    else:
        setup_times = [reference for _wall, reference in setups]
        block_times = [episode.block_reference for episode in episodes]
    values = {
        "setup_s": statistics.median(setup_times),
        "commits_per_s": blockwise_rate(first.block_commits, block_times),
        "commit_latency_p50_ms": percentile(first.commit_latencies, 0.50) * 1000.0,
        "commit_latency_p95_ms": percentile(first.commit_latencies, 0.95) * 1000.0,
        "messages_per_commit": first.counts["messages"] / first.committed,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(traced, untraced, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer ledger of one traced episode (see ``spec.json``).

    Wall times of the traced episode are scaled into reference seconds by
    the calibration of its own timed blocks.
    """
    from tracing import LAYERS
    from workloads import LEDGER_METHODS, percentile

    counts = traced.counts
    committed = traced.committed
    syncs = len(traced.sync_latencies)
    calls = tracer.calls
    scale = traced.scale
    wall = {name: seconds * scale for name, seconds in tracer.wall.items()}
    self_wall = {layer: seconds * scale for layer, seconds in tracer.self_wall.items()}
    sim_time = tracer.sim_time
    items = tracer.items
    metrics: dict[str, tuple[float, str]] = {}

    def per_commit(value: float) -> float:
        return _ratio(value, committed)

    def mean_sim_ms(*names: str) -> float:
        return _ratio(sum(sim_time[name] for name in names),
                      sum(calls[name] for name in names)) * 1000.0

    kernel_wall = (traced.timed_wall - tracer.top_level_wall) * scale
    metrics["sim.events_per_commit"] = (per_commit(counts["events"]), "count")
    metrics["sim.self_ms_per_commit"] = (per_commit(kernel_wall) * 1000.0, "ms")
    for layer in LAYERS[1:]:  # every layer after the kernel remainder
        metrics[f"{layer}.self_ms_per_commit"] = (
            per_commit(self_wall.get(layer, 0.0)) * 1000.0, "ms")

    send_self = (tracer.self_by_name["net.Network.send"]
                 + tracer.self_by_name["net.Network._deliver"]) * scale
    metrics["net.send_self_us_per_message"] = (
        _ratio(send_self, counts["messages"]) * 1e6, "us")
    metrics["net.find_successor_share"] = (
        _ratio(counts["method.find_successor"], counts["messages"]), "fraction")
    for method in LEDGER_METHODS:
        metrics[f"net.msgs_per_commit.{method}"] = (
            per_commit(counts[f"method.{method}"]), "count")
    metrics["net.dropped"] = (counts["dropped"], "count")
    metrics["net.rpc_timeouts"] = (tracer.rpc_timeouts, "count")

    cache_lookups = counts["route_cache_hits"] + counts["route_cache_misses"]
    metrics["chord.lookups_per_commit"] = (
        per_commit(calls["chord.ChordNode.find_successor"]), "count")
    metrics["chord.route_cache_hit_fraction"] = (
        _ratio(counts["route_cache_hits"], cache_lookups), "fraction")
    metrics["chord.hops_per_lookup"] = (_ratio(sum(traced.hops), len(traced.hops)), "count")

    metrics["dht.put_many_sim_ms"] = (mean_sim_ms("dht.ChordDhtClient.put_many"), "ms")
    metrics["dht.call_owner_sim_ms"] = (mean_sim_ms("dht.ChordDhtClient.call_owner"), "ms")
    metrics["dht.get_many_per_sync"] = (
        _ratio(calls["dht.ChordDhtClient.get_many"], syncs), "count")

    put_many = ("storage.StorageBackend.put_many", "storage.SqliteBackend.put_many")
    put_many_items = sum(items[name] for name in put_many)
    single_puts = (calls["storage.MemoryBackend.put"] + calls["storage.SqliteBackend.put"])
    metrics["storage.put_many_calls_per_commit"] = (
        per_commit(sum(calls[name] for name in put_many)), "count")
    # MemoryBackend inherits put_many as a loop over put, so its items are
    # already among the single puts; SqliteBackend writes them in one batch.
    metrics["storage.items_written_per_commit"] = (
        per_commit(single_puts + items["storage.SqliteBackend.put_many"]), "count")
    metrics["storage.put_many_us_per_item"] = (
        _ratio(sum(wall.get(name, 0.0) for name in put_many), put_many_items) * 1e6, "us")

    metrics["kts.allocations_per_commit"] = (per_commit(counts["allocations"]), "count")
    metrics["kts.next_timestamps_us"] = (
        _ratio(wall.get("kts.TimestampAuthority.next_timestamps", 0.0),
               calls["kts.TimestampAuthority.next_timestamps"]) * 1e6, "us")

    metrics["p2plog.append_many_sim_ms"] = (
        mean_sim_ms("p2plog.P2PLogClient.append_many"), "ms")
    metrics["p2plog.entries_published_per_commit"] = (
        per_commit(counts["published_entries"]), "count")
    metrics["p2plog.retrievals_per_commit"] = (per_commit(counts["retrievals"]), "count")
    sync_reads = sum(
        tracer.sim_by_parent[(name, "core.UserPeer.sync")]
        for name in ("p2plog.P2PLogClient.fetch_range",
                     "p2plog.P2PLogClient.latest_checkpoint")
    )
    metrics["p2plog.fetch_sim_ms_per_sync"] = (_ratio(sync_reads, syncs) * 1000.0, "ms")
    metrics["p2plog.span_fetches_per_sync"] = (_ratio(counts["span_fetches"], syncs), "count")
    metrics["p2plog.fallback_reads"] = (counts["fallback_reads"], "count")
    metrics["p2plog.checkpoint_hit_fraction"] = (
        _ratio(counts["checkpoints_fetched"],
               counts["checkpoints_fetched"] + counts["checkpoint_misses"]), "fraction")

    behind = counts["validations_behind"] + counts["batches_behind"]
    validations = behind + counts["validations_ok"] + counts["batches_ok"]
    metrics["core.master.behind_fraction"] = (_ratio(behind, validations), "fraction")
    metrics["core.master.validate_sim_ms"] = (
        mean_sim_ms("core.MasterService.validate_and_publish",
                    "core.MasterService.validate_and_publish_batch"), "ms")
    metrics["core.user_peer.attempts_per_commit"] = (
        _ratio(traced.attempts, traced.commit_ops), "count")
    metrics["core.user_peer.retrieved_per_commit"] = (
        _ratio(traced.retrieved, traced.commit_ops), "count")
    metrics["core.user_peer.syncs_per_s"] = (_ratio(syncs, untraced.timed_reference), "1/s")
    metrics["core.user_peer.sync_latency_p50_ms"] = (
        percentile(traced.sync_latencies, 0.50) * 1000.0 if syncs else 0.0, "ms")
    metrics["core.user_peer.sync_latency_p95_ms"] = (
        percentile(traced.sync_latencies, 0.95) * 1000.0 if syncs else 0.0, "ms")
    metrics["core.user_peer.messages_per_sync"] = (
        _ratio(traced.sync_messages, syncs), "count")
    metrics["core.user_peer.failed_fraction"] = (
        _ratio(traced.failed, traced.attempted), "fraction")

    metrics["ot.transform_calls_per_commit"] = (
        per_commit(calls["ot.transform_sequences"]), "count")
    integrate = ("ot.integrate_remote_patches", "ot.integrate_remote_into_staged",
                 "ot.install_snapshot", "ot.install_snapshot_into_staged")
    integrated = (items["ot.integrate_remote_patches"]
                  + items["ot.integrate_remote_into_staged"]
                  + calls["ot.install_snapshot"] + calls["ot.install_snapshot_into_staged"])
    metrics["ot.integrate_us_per_patch"] = (
        _ratio(sum(wall.get(name, 0.0) for name in integrate), integrated) * 1e6, "us")

    metrics["trace.overhead_fraction"] = (
        1.0 - _ratio(traced.commits_per_s, untraced.commits_per_s), "fraction")
    metrics["bench.calibration_ms"] = (statistics.median(untraced.block_kernel) * 1000.0, "ms")
    metrics["bench.raw_commits_per_s"] = (
        _ratio(untraced.committed, untraced.timed_wall), "1/s")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            overrides: Optional[dict] = None) -> dict:
    """Run the benchmark in-process; returns the result object it prints."""
    from workloads import run_episode, setup_only, workload_params

    params = workload_params(workload, overrides)
    scratch = root / OUT_DIR
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    first = run_episode(workload, params, seed, scratch)
    _check_episode(first)

    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_episode(workload, params, seed, scratch, tracer=tracer)
        finally:
            tracer.uninstall()
        _check_episode(traced, reference=first)
        tracer.write_spans(scratch / f"spans-{workload}.jsonl")
        episodes = [first, traced]
        metrics = per_layer(traced, first, tracer)
    else:
        episodes = [first]
        episodes_wall = time.perf_counter() - started
        built = time.perf_counter()
        setups = [(first.setup_wall, first.setup_reference),
                  setup_only(workload, params, seed, scratch)]
        build_wall = time.perf_counter() - built

        def another_fits() -> bool:
            # One more episode, then the set-up builds still missing.
            builds_left = max(0, MIN_SETUPS - len(setups) - 1)
            projected = (time.perf_counter() - started + episodes_wall / len(episodes)
                         + builds_left * build_wall)
            return projected <= seconds

        while len(episodes) < MIN_REPEATS or another_fits():
            began = time.perf_counter()
            episode = run_episode(workload, params, seed, scratch)
            episodes_wall += time.perf_counter() - began
            _check_episode(episode, reference=first)
            episodes.append(episode)
            setups.append((episode.setup_wall, episode.setup_reference))
        while len(setups) < MIN_SETUPS:
            setups.append(setup_only(workload, params, seed, scratch))
        metrics = end_to_end(episodes, setups)
        raw = end_to_end(episodes, setups, raw=True)
        print("un-normalised: " + json.dumps({name: value for name, (value, _unit) in raw.items()}),
              file=sys.stderr)

    return {
        "correct": True,
        "attempted": sum(episode.attempted for episode in episodes),
        "failed": sum(episode.failed for episode in episodes),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no P2P-LTR sources under {source}; run from the root "
              f"of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchmarkFailure, CalibrationError) as failure:
        print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
