"""The three benchmark workloads, their seeded inputs and one timed episode.

An *episode* builds a fresh system from the seed (timed as set-up), runs the
workload's fixed amount of work (the timed phase), probes routing, and runs
the correctness gate.  The amount of work never depends on the wall clock,
so every deterministic count of an episode is a pure function of the seed:
the benchmark repeats episodes to fill its measuring time and requires each
repeat, traced or not, to reproduce the first one exactly.
"""

from __future__ import annotations

import gc
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.core import LtrConfig, LtrSystem
from repro.errors import ReproError
from repro.experiments.scenarios import SCALE_CHORD_CONFIG, protocol_revision_text
from repro.net import UniformLatency

from calibrate import SetupClock, kernel_seconds, to_reference

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"

#: RPC methods whose per-commit message counts the ledger reports.
LEDGER_METHODS = (
    "find_successor", "store_many", "receive_items", "fetch", "fetch_many",
    "ltr_validate_and_publish", "ltr_validate_and_publish_batch",
)


def load_spec() -> dict:
    """The workload and metric descriptions shared with ``BENCHMARK.json``."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (which must not be empty)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Episode:
    """What one episode measured; ``counts`` holds its deterministic part.

    Set-up is kept in wall and reference seconds; timed blocks keep their
    wall seconds, and ``block_kernel[i]`` is the kernel run right after
    timed block ``i``.
    """

    workload: str
    setup_wall: float = 0.0
    setup_reference: float = 0.0
    block_commits: list[int] = field(default_factory=list)
    block_wall: list[float] = field(default_factory=list)
    block_kernel: list[float] = field(default_factory=list)
    attempted: int = 0
    committed: int = 0
    failed: int = 0
    commit_ops: int = 0
    commit_latencies: list[float] = field(default_factory=list)
    sync_latencies: list[float] = field(default_factory=list)
    sync_messages: int = 0
    attempts: int = 0
    retrieved: int = 0
    counts: dict[str, Any] = field(default_factory=dict)
    hops: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def record_commit(self, edits: int, result: Any, latency: float) -> None:
        """Account one committed operation (a flush or an unbatched commit)."""
        self.committed += edits
        self.commit_ops += 1
        self.attempts += result.attempts
        self.retrieved += result.retrieved_patches
        self.commit_latencies.append(latency)

    @property
    def block_reference(self) -> list[float]:
        """Each timed block's wall time in reference seconds."""
        return [to_reference(wall, kernel)
                for wall, kernel in zip(self.block_wall, self.block_kernel)]

    @property
    def timed_wall(self) -> float:
        """Wall seconds of the timed phase, calibration runs left out."""
        return sum(self.block_wall)

    @property
    def timed_reference(self) -> float:
        """Reference seconds of the timed phase."""
        return sum(self.block_reference)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the timed phase."""
        return self.timed_reference / self.timed_wall

    @property
    def commits_per_s(self) -> float:
        """Committed edits per reference second of the timed phase."""
        return self.committed / self.timed_reference

    def deterministic(self) -> dict[str, Any]:
        """Everything a rerun of the same seed must reproduce exactly."""
        return {
            "attempted": self.attempted,
            "committed": self.committed,
            "failed": self.failed,
            "block_commits": self.block_commits,
            "commit_latencies": self.commit_latencies,
            "sync_latencies": self.sync_latencies,
            "sync_messages": self.sync_messages,
            "attempts": self.attempts,
            "retrieved": self.retrieved,
            "hops": self.hops,
            **self.counts,
        }


# -- counters ------------------------------------------------------------------

_LOG_COUNTERS = ("published_entries", "retrievals", "fallback_reads", "span_fetches",
                 "checkpoints_fetched", "checkpoint_misses")


class Counters:
    """Deterministic totals read from the program's own counters."""

    def __init__(self, system: LtrSystem) -> None:
        self.system = system
        #: Log counters of user peers dropped by ``forget`` (cold readers).
        self.retired = dict.fromkeys(_LOG_COUNTERS, 0)

    def forget(self, name: str) -> None:
        """Drop the user peer on ``name`` so its next use starts cold."""
        user = next((user for user in self.system.users() if user.author == name), None)
        if user is not None:
            for counter in _LOG_COUNTERS:
                self.retired[counter] += getattr(user.log, counter)
        self.system.forget_user(name)

    def snapshot(self) -> dict[str, int]:
        system = self.system
        stats = system.network.stats
        totals: dict[str, int] = {
            "messages": stats.sent,
            "dropped": stats.dropped,
            "events": system.runtime.processed_events,
        }
        for method in LEDGER_METHODS:
            totals[f"method.{method}"] = 0
        for method, sent in stats.per_method.items():
            totals[f"method.{method}"] = sent
        master_keys = ("validations_ok", "validations_behind", "batches_ok", "batches_behind")
        for key in master_keys + ("allocations",) + _LOG_COUNTERS:
            totals[key] = 0
        for counter, value in self.retired.items():
            totals[counter] += value
        logs = [user.log for user in system.users()]
        for node in system.ring.nodes.values():
            kts = node.service("kts")
            if kts is not None:
                totals["allocations"] += kts.allocations
            master = node.service("ltr-master")
            if master is not None:
                for key in master_keys:
                    totals[key] += getattr(master, key)
                if master.log is not None:
                    logs.append(master.log)
        for log in logs:
            for counter in _LOG_COUNTERS:
                totals[counter] += getattr(log, counter)
        cache = system.ring.route_cache_stats()
        totals["route_cache_hits"] = int(cache["hits"])
        totals["route_cache_misses"] = int(cache["misses"])
        return totals

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {key: after[key] - before.get(key, 0) for key in after}


# -- shared plumbing -------------------------------------------------------------


def build_system(params: dict, seed: int, ltr_config: LtrConfig) -> LtrSystem:
    """A warm ring on the scale Chord settings with the injected hop delay.

    Each hop's delay is drawn uniformly within ``hop_jitter_s`` of
    ``hop_delay_s`` from the seeded simulation RNG.  A constant delay would
    make every simulated latency a multiple of it, so a percentile would
    read the same for every seed and could not show a change smaller than
    one hop.
    """
    delay, jitter = params["hop_delay_s"], params["hop_jitter_s"]
    system = LtrSystem(
        ltr_config=ltr_config,
        chord_config=SCALE_CHORD_CONFIG,
        seed=seed,
        latency=UniformLatency(delay - jitter, delay + jitter),
    )
    system.bootstrap(params["peers"], warm=True)
    return system


def revision_base(rng: random.Random) -> int:
    """A seeded offset into E20's revision sequence; six digits keep every
    revision the same size whatever the seed."""
    return rng.randrange(100_000, 900_000)


def document_key(prefix: str, rng: random.Random) -> str:
    """A seeded document name: it decides where the Master and every log
    placement of the document sit on the ring."""
    return f"{prefix}-{rng.randrange(1_000_000):06d}"


def probe_hops(system: LtrSystem, keys: list[str], seed: int, probes: int) -> list[int]:
    """Routed lookups of the documents from seeded gateways (as in E20)."""
    rng = random.Random(seed * 65537 + len(system.ring.nodes))
    gateways = system.peer_names()
    return [
        system.ring.lookup(keys[index % len(keys)],
                           via=gateways[rng.randrange(len(gateways))])["hops"]
        for index in range(probes)
    ]


def check_outcome(system: LtrSystem, expected: dict[str, int]) -> list[str]:
    """The correctness gate: one problem string per violated property.

    For every touched document: dense timestamps (``last_ts`` equals the
    edits committed to it), a prefix-complete log (entries ``1..last_ts``
    all retrievable, in order) and converged replicas (every user replica
    equals the replay of the log).
    """
    problems = []
    for key, committed in sorted(expected.items()):
        last_ts = system.last_ts(key)
        if last_ts != committed:
            problems.append(f"{key}: last_ts {last_ts} != {committed} committed edits")
        try:
            report = system.check_consistency(key)
        except ReproError as exc:
            problems.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        if not report.log_continuous:
            problems.append(f"{key}: log is not prefix-complete up to {report.last_ts}")
        if not report.converged:
            problems.append(f"{key}: replicas did not converge "
                            f"({report.distinct_contents} distinct contents)")
    return problems


class Timer:
    """Timed phase: wall time per block of committed edits.

    Blocks close at points of simulated progress, never of the clock, so
    every repeat of an episode splits its work into the same blocks.  Each
    closed block is followed by one run of the calibration kernel, which is
    left out of the block's time.
    """

    def __init__(self, episode: Episode, tracer: Any, counters: Counters) -> None:
        self.episode = episode
        self.tracer = tracer
        self.counters = counters
        self._before: dict[str, int] = {}
        self._block_start = 0.0
        self._block_committed = 0

    def start(self) -> None:
        gc.collect()
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.recording = True
        self._before = self.counters.snapshot()
        self._block_committed = self.episode.committed
        self._block_start = time.perf_counter()

    def block(self) -> None:
        """Close the current block unless it holds no commit yet."""
        wall = time.perf_counter() - self._block_start
        done = self.episode.committed - self._block_committed
        if not done:
            return
        self.episode.block_commits.append(done)
        self.episode.block_wall.append(wall)
        self.episode.block_kernel.append(kernel_seconds())
        self._block_committed = self.episode.committed
        self._block_start = time.perf_counter()

    def stop(self) -> None:
        self.block()
        if self.tracer is not None:
            self.tracer.recording = False
        self.episode.counts = Counters.delta(self._before, self.counters.snapshot())


def set_commit(tracer: Any, commit: Optional[int]) -> None:
    if tracer is not None:
        tracer.commit = commit


def flush_chunk(system: LtrSystem, writer: str, key: str, chunk: list[str],
                episode: Episode) -> None:
    """Stage one full batch (the last stage flushes it) and account it."""
    episode.attempted += len(chunk)
    try:
        outcome = None
        for text in chunk:
            outcome = system.stage(writer, key, text)
    except ReproError:
        outcome = None
    if outcome is None:
        episode.failed += len(chunk)
        system.user(writer).discard_batch(key)
    else:
        episode.record_commit(outcome.edits, outcome,
                              outcome.finished_at - outcome.started_at)


# -- commit_batched_1k ------------------------------------------------------------


def _batched_inputs(params: dict, seed: int) -> dict:
    rng = random.Random(seed)
    base = revision_base(rng)
    total = (params["warmup_flushes"] + params["flushes"]) * params["batch"]
    return {
        "document": document_key(params["document"], rng),
        "revisions": [protocol_revision_text(base + index, params["lines"])
                      for index in range(total)],
    }


def _batched_setup(params: dict, seed: int, scratch: Path, inputs: dict,
                   clock: SetupClock):
    config = LtrConfig(batch_enabled=True, batch_max_edits=params["batch"],
                       parallel_retrieval=True)
    return build_system(params, seed, config), None


def _batched_run(system: LtrSystem, inputs: dict, params: dict,
                 episode: Episode, tracer: Any, counters: Counters) -> dict[str, int]:
    writer = system.peer_names()[0]
    key = inputs["document"]
    batch = params["batch"]
    chunks = [inputs["revisions"][start:start + batch]
              for start in range(0, len(inputs["revisions"]), batch)]
    # Untimed warm-up: the route caches start empty on a fresh ring and the
    # flush latency falls from about 58 to 33 ms over the first 200-odd
    # flushes.  Timed from a cold start, the 208 samples straddle that
    # fall and their median swings by a tenth from seed to seed.
    warm_up = Episode(workload=episode.workload)
    for chunk in chunks[:params["warmup_flushes"]]:
        flush_chunk(system, writer, key, chunk, warm_up)
    if warm_up.failed:
        episode.problems.append(f"{key}: {warm_up.failed} warm-up edits failed")
    timer = Timer(episode, tracer, counters)
    timer.start()
    for flush, chunk in enumerate(chunks[params["warmup_flushes"]:]):
        set_commit(tracer, flush)
        flush_chunk(system, writer, key, chunk, episode)
        set_commit(tracer, None)
        timer.block()
    timer.stop()
    return {key: warm_up.committed + episode.committed}


# -- contended_unbatched ------------------------------------------------------------


@dataclass(frozen=True)
class DueEdit:
    """One generated edit: when it falls due, on which document, what it does."""

    due: float
    document: int
    position: float
    line: str


def _contended_inputs(params: dict, seed: int) -> dict:
    rng = random.Random(seed)
    weights = [1.0 / rank ** params["zipf_s"] for rank in range(1, params["documents"] + 1)]
    due = 0.0
    edits = []
    for index in range(params["edits"]):
        due += rng.expovariate(params["rate_per_s"])
        document = rng.choices(range(params["documents"]), weights)[0]
        words = " ".join(f"w{rng.randrange(10_000):04d}" for _ in range(6))
        edits.append(DueEdit(due, document, rng.random(), f"edit {index:05d} {words}"))
    return {"edits": edits, "writer_seed": rng.random()}


def _contended_setup(params: dict, seed: int, scratch: Path, inputs: dict,
                     clock: SetupClock):
    return build_system(params, seed, LtrConfig()), None


def _contended_run(system: LtrSystem, inputs: dict, params: dict,
                   episode: Episode, tracer: Any, counters: Counters) -> dict[str, int]:
    runtime = system.runtime
    edits: list[DueEdit] = inputs["edits"]
    keys = [f"doc-{index}" for index in range(params["documents"])]
    names = system.peer_names()
    stride = len(names) // params["writers"]
    free = names[::stride][:params["writers"]]
    picker = random.Random(inputs["writer_seed"])
    queue: list[tuple[int, DueEdit]] = []
    committed_per_key = dict.fromkeys(keys, 0)
    max_lines = params["max_lines"]
    resolved = [0]

    def mutate(edit: DueEdit) -> Callable[[list[str]], list[str]]:
        def apply(lines: list[str]) -> list[str]:
            lines = list(lines)
            if len(lines) < max_lines:
                lines.insert(int(edit.position * (len(lines) + 1)), edit.line)
            else:
                lines[int(edit.position * len(lines))] = edit.line
            return lines
        return apply

    def run_edit(index: int, writer: str, edit: DueEdit):
        key = keys[edit.document]
        user = system.user(writer)
        user.edit_lines(key, mutate(edit))
        try:
            result = yield from user.commit(key)
        except ReproError:
            result = None
            user.discard_pending(key)
        if result is None:
            episode.failed += 1
        else:
            committed_per_key[key] += 1
            episode.record_commit(1, result, runtime.now - edit.due)
        resolved[0] += 1
        free.append(writer)
        dispatch()

    def dispatch() -> None:
        while queue and free:
            index, edit = queue.pop(0)
            writer = free.pop(picker.randrange(len(free)))
            set_commit(tracer, index)
            runtime.process(run_edit(index, writer, edit), name=f"edit-{index}")
            set_commit(tracer, None)

    def arrive(index: int, edit: DueEdit) -> None:
        queue.append((index, edit))
        dispatch()

    start = runtime.now
    for index, edit in enumerate(edits):
        runtime.call_later(edit.due, lambda _value, i=index, e=edit: arrive(i, e))
    window = params["window_s"]
    deadline = start + edits[-1].due + params["drain_s"]
    timer = Timer(episode, tracer, counters)
    timer.start()
    while resolved[0] < len(edits) and runtime.now < deadline:
        runtime.run(until=runtime.now + window)
        timer.block()
    timer.stop()
    # Edits still unresolved at the deadline never committed.
    episode.failed += len(edits) - resolved[0]
    episode.attempted = len(edits)
    return {key: count for key, count in committed_per_key.items() if count}


# -- cold_sync_sqlite ------------------------------------------------------------------


#: Preload flushes per set-up block of ``cold_sync_sqlite``.
PRELOAD_BLOCK_FLUSHES = 4


def _cold_sync_config(params: dict, storage_dir: Path) -> LtrConfig:
    return LtrConfig(
        storage_backend="sqlite",
        storage_dir=str(storage_dir),
        checkpoint_enabled=True,
        checkpoint_interval=params["checkpoint_interval"],
        grouped_fetch=True,
        batch_enabled=True,
        batch_max_edits=params["batch"],
    )


def _cold_sync_inputs(params: dict, seed: int) -> dict:
    rng = random.Random(seed)
    base = revision_base(rng)
    total = params["history"] + params["rounds"] * params["batch"]
    # One fixed document: where its Master sits decides how often the
    # Master's placement lookups miss the route cache, and on 100 peers
    # that would make the commit latency of a seeded key differ by seed.
    return {
        "document": params["document"],
        "revisions": [protocol_revision_text(base + index, params["lines"])
                      for index in range(total)],
        "reader_order": rng.random(),
    }


def _cold_sync_setup(params: dict, seed: int, scratch: Path, inputs: dict,
                     clock: SetupClock):
    storage_dir = scratch / f"sqlite-{time.monotonic_ns()}"
    system = build_system(params, seed, _cold_sync_config(params, storage_dir))
    clock.block()
    writer = system.peer_names()[0]
    stages_per_block = PRELOAD_BLOCK_FLUSHES * params["batch"]
    for index, text in enumerate(inputs["revisions"][:params["history"]], start=1):
        system.stage(writer, inputs["document"], text)
        if index % stages_per_block == 0:
            clock.block()
    if system.last_ts(inputs["document"]) != params["history"]:
        raise ReproError("cold_sync_sqlite: preloaded history did not commit")
    return system, storage_dir


def _cold_sync_run(system: LtrSystem, inputs: dict, params: dict,
                   episode: Episode, tracer: Any, counters: Counters) -> dict[str, int]:
    names = system.peer_names()
    writer = names[0]
    readers = names[1:]
    random.Random(inputs["reader_order"]).shuffle(readers)
    key = inputs["document"]
    batch = params["batch"]
    revisions = inputs["revisions"][params["history"]:]
    timer = Timer(episode, tracer, counters)
    timer.start()
    for round_index in range(params["rounds"]):
        set_commit(tracer, round_index)
        flush_chunk(system, writer, key,
                    revisions[round_index * batch:(round_index + 1) * batch], episode)
        reader = readers[round_index % len(readers)]
        counters.forget(reader)
        sent = system.network.stats.sent
        result = system.sync(reader, key)
        episode.sync_messages += system.network.stats.sent - sent
        episode.sync_latencies.append(result.finished_at - result.started_at)
        set_commit(tracer, None)
        timer.block()
    timer.stop()
    return {key: params["history"] + episode.committed}


# -- registry and the episode runner ---------------------------------------------------

WORKLOADS: dict[str, tuple[Callable, Callable, Callable]] = {
    "commit_batched_1k": (_batched_inputs, _batched_setup, _batched_run),
    "contended_unbatched": (_contended_inputs, _contended_setup, _contended_run),
    "cold_sync_sqlite": (_cold_sync_inputs, _cold_sync_setup, _cold_sync_run),
}


def workload_params(name: str, overrides: Optional[dict] = None) -> dict:
    """The workload's parameters from ``spec.json``, with optional overrides."""
    params = dict(load_spec()["workloads"][name]["params"])
    params.update(overrides or {})
    return params


def _build(name: str, params: dict, seed: int, scratch: Path, inputs: dict):
    """Build the workload's system on a set-up clock."""
    gc.collect()
    clock = SetupClock()
    system, storage_dir = WORKLOADS[name][1](params, seed, scratch, inputs, clock)
    clock.block()
    return system, storage_dir, clock


def setup_only(name: str, params: dict, seed: int, scratch: Path) -> tuple[float, float]:
    """Build (and tear down) the workload's system; returns the build's time
    in wall and in reference seconds."""
    inputs = WORKLOADS[name][0](params, seed)
    system, storage_dir, clock = _build(name, params, seed, scratch, inputs)
    _teardown(system, storage_dir)
    return clock.wall, clock.reference


def _teardown(system: LtrSystem, storage_dir: Optional[Path]) -> None:
    system.shutdown()
    if storage_dir is not None:
        shutil.rmtree(storage_dir, ignore_errors=True)


def run_episode(name: str, params: dict, seed: int, scratch: Path,
                tracer: Any = None) -> Episode:
    """One episode: seeded inputs, timed set-up, timed phase, probes, gate."""
    make_inputs, _setup, run = WORKLOADS[name]
    inputs = make_inputs(params, seed)
    episode = Episode(workload=name)
    system, storage_dir, clock = _build(name, params, seed, scratch, inputs)
    episode.setup_wall, episode.setup_reference = clock.wall, clock.reference
    if tracer is not None:
        tracer.runtime = system.runtime
    try:
        expected = run(system, inputs, params, episode, tracer, Counters(system))
        episode.hops = probe_hops(system, sorted(expected), seed, params["probes"])
        episode.problems.extend(check_outcome(system, expected))
    finally:
        if tracer is not None:
            tracer.recording = False
            tracer.commit = None
        _teardown(system, storage_dir)
    return episode
