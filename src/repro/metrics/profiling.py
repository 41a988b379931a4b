"""Hot-path profiling for protocol experiments.

:class:`HotpathProfiler` wraps a measured code region (a commit pipeline
run, a scenario body) in ``cProfile`` — and optionally ``tracemalloc`` —
and attributes the cost to the protocol layers that matter for the
scale experiments: payload copies on delivery, Message/RPC object churn,
chord routing and maintenance, storage writes, and the simulation kernel
itself.  The attribution is by *defining file* (and, where one file hosts
several roles, by function name), so it keeps working as functions are
added — an unknown function simply lands in ``other``.

Usage (scenario or benchmark code)::

    profiler = HotpathProfiler(allocations=False)
    with profiler:
        run_commit_pipeline()
    report = profiler.report()
    print(report.render(per=commits))

The profiler measures the wall-clock cost of whatever ran inside the
``with`` block; dividing by a unit count (``per=``) yields the per-commit
attribution table recorded in ``DESIGN.md``.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["HOTPATH_CATEGORIES", "HotpathProfiler", "HotpathReport"]

#: Function names in ``net/codec.py`` that implement the per-delivery
#: structural copy (everything else in that file is the byte codec).
_COPY_FUNCTIONS = frozenset({"copy_payload", "copy_message"})

#: Function names in ``chord/node.py`` that belong to routing rather than
#: ring maintenance.
_ROUTING_FUNCTIONS = frozenset({
    "find_successor", "lookup", "put", "get", "remove",
    "_find_successor_local", "rpc_find_successor", "_cached_route",
    "_remember_route", "_first_live_successor_candidate",
})

#: Attribution rules, first match wins: (category, filename fragment,
#: optional function-name whitelist).
HOTPATH_CATEGORIES: tuple[tuple[str, str, Optional[frozenset]], ...] = (
    ("payload_copy", "net/codec.py", _COPY_FUNCTIONS),
    ("codec_bytes", "net/codec.py", None),
    ("transport", "net/transport.py", None),
    ("rpc", "net/rpc.py", None),
    ("chord_routing", "chord/node.py", _ROUTING_FUNCTIONS),
    ("chord_routing", "chord/finger.py", None),
    ("chord_routing", "chord/routecache.py", None),
    ("chord_routing", "chord/idspace.py", None),
    ("chord_maintenance", "chord/node.py", None),
    ("chord_ring", "chord/ring.py", None),
    ("storage", "chord/storage.py", None),
    ("storage", "repro/storage/", None),
    ("kernel", "repro/sim/", None),
    ("kernel", "repro/runtime/", None),
    ("protocol", "repro/core/", None),
    ("protocol", "repro/p2plog/", None),
    ("protocol", "repro/dht/", None),
    ("protocol", "repro/kts/", None),
    ("protocol", "repro/ot/", None),
)


def categorize(filename: str, function: str) -> str:
    """The hot-path category of one profiled function (``"other"`` default).

    Dataclass-generated ``__init__``/``__eq__`` bodies compile from a
    synthetic ``<string>`` file, so object-construction churn of Message,
    NodeRef and friends is reported as its own ``dataclass_init`` bucket.
    """
    normalized = filename.replace("\\", "/")
    for category, fragment, names in HOTPATH_CATEGORIES:
        if fragment in normalized and (names is None or function in names):
            return category
    if normalized.startswith("<") and function in ("__init__", "__eq__", "__hash__"):
        return "dataclass_init"
    return "other"


@dataclass
class HotpathReport:
    """Per-category timing (and optional allocation) attribution."""

    wall_s: float
    #: category -> {"tottime_s": float, "calls": float}
    categories: dict = field(default_factory=dict)
    #: category -> {"kib": float, "blocks": float} (``None`` without tracemalloc)
    allocations: Optional[dict] = None

    @property
    def profiled_s(self) -> float:
        """Total tottime across all categories (excludes profiler overhead)."""
        return sum(entry["tottime_s"] for entry in self.categories.values())

    def as_dict(self) -> dict:
        """JSON-ready rendering (what ``profile_protocol.py --json`` writes)."""
        payload = {
            "wall_s": round(self.wall_s, 4),
            "categories": {
                name: {"tottime_s": round(entry["tottime_s"], 4),
                       "calls": int(entry["calls"])}
                for name, entry in sorted(self.categories.items())
            },
        }
        if self.allocations is not None:
            payload["allocations"] = {
                name: {"kib": round(entry["kib"], 1),
                       "blocks": int(entry["blocks"])}
                for name, entry in sorted(self.allocations.items())
            }
        return payload

    def render(self, per: int = 0, unit: str = "commit") -> str:
        """An aligned text table, optionally with a per-unit cost column."""
        lines = [f"wall {self.wall_s:.3f}s, profiled tottime {self.profiled_s:.3f}s"]
        header = f"{'category':<18} {'tottime_s':>10} {'%':>6} {'calls':>12}"
        if per:
            header += f" {'calls/' + unit:>14}"
        if self.allocations is not None:
            header += f" {'alloc_kib':>10}"
        lines.append(header)
        total = self.profiled_s or 1.0
        ordered = sorted(self.categories.items(),
                         key=lambda item: item[1]["tottime_s"], reverse=True)
        for name, entry in ordered:
            row = (f"{name:<18} {entry['tottime_s']:>10.3f} "
                   f"{100.0 * entry['tottime_s'] / total:>5.1f}% "
                   f"{int(entry['calls']):>12}")
            if per:
                row += f" {entry['calls'] / per:>14.1f}"
            if self.allocations is not None:
                kib = self.allocations.get(name, {}).get("kib", 0.0)
                row += f" {kib:>10.1f}"
            lines.append(row)
        return "\n".join(lines)


class HotpathProfiler:
    """Context manager profiling one measured region with category attribution.

    ``allocations=True`` additionally runs ``tracemalloc`` across the
    region and attributes allocated KiB to the same categories (by the
    allocation site's filename).  Allocation tracking slows the region
    down noticeably, so it is off by default and timing numbers from an
    allocation-enabled run should not be compared against plain runs.
    """

    def __init__(self, *, allocations: bool = False) -> None:
        self.allocations = allocations
        self._profile = cProfile.Profile()
        self._wall = 0.0
        self._snapshot = None
        self._started = 0.0

    def __enter__(self) -> "HotpathProfiler":
        if self.allocations:
            import tracemalloc

            tracemalloc.start(1)
        self._started = time.perf_counter()
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.disable()
        self._wall = time.perf_counter() - self._started
        if self.allocations:
            import tracemalloc

            self._snapshot = tracemalloc.take_snapshot()
            tracemalloc.stop()

    def report(self) -> HotpathReport:
        """Aggregate the profiled region into a :class:`HotpathReport`."""
        stats = pstats.Stats(self._profile)
        categories: dict = {}
        for (filename, _line, function), row in stats.stats.items():  # type: ignore[attr-defined]
            calls, _primitive, tottime, _cumtime = row[0], row[1], row[2], row[3]
            entry = categories.setdefault(
                categorize(filename, function), {"tottime_s": 0.0, "calls": 0}
            )
            entry["tottime_s"] += tottime
            entry["calls"] += calls
        allocations = None
        if self._snapshot is not None:
            allocations = {}
            for stat in self._snapshot.statistics("filename"):
                frame = stat.traceback[0]
                entry = allocations.setdefault(
                    categorize(frame.filename, ""), {"kib": 0.0, "blocks": 0}
                )
                entry["kib"] += stat.size / 1024.0
                entry["blocks"] += stat.count
        return HotpathReport(
            wall_s=self._wall, categories=categories, allocations=allocations
        )
