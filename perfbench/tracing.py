"""Span tracing of the layer entry points, installed from outside the program.

The traced run wraps the public entry points of each layer (and the
internal process bodies that would otherwise run unattributed under the
kernel) with timing wrappers.  A wrapper only observes: it calls the
original with the same arguments, forwards every value and exception of a
generator unchanged, and reads the wall clock and the simulated clock.  The
benchmark proves that claim on every traced run by comparing the
deterministic counts of a traced and an untraced episode.

Generator entry points are timed per resume: each time the kernel (or a
caller's ``yield from``) resumes the generator, one segment opens and
closes, so a span's self time never includes the simulated waits between
its resumes.  A layer's self time is the wall time of its segments minus
the part covered by nested segments of any layer.  Wall time spent with no
segment open is the kernel remainder, reported as the ``sim`` layer.

Every span carries the id of the commit it serves.  The id propagates from
the span that is open when a process is spawned or a message is sent, to
the process and to the message's delivery.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

#: ``(module, owner, attribute, layer)`` entry points wrapped by the traced
#: run.  ``owner`` is a class name inside ``module`` or ``None`` for a
#: module-level name, patched in the namespace of the module that calls it.
ENTRY_POINTS: tuple[tuple[str, Optional[str], str, str], ...] = (
    # net: the transport switchboard and the RPC agent.
    ("repro.net.transport", "Network", "send", "net"),
    ("repro.net.transport", "Network", "_deliver", "net"),
    ("repro.net.rpc", "RpcAgent", "call", "net"),
    # chord: client lookups, RPC handlers and the maintenance loops.
    ("repro.chord.node", "ChordNode", "find_successor", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_find_successor", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_store", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_store_many", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_fetch", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_fetch_many", "chord"),
    ("repro.chord.node", "ChordNode", "rpc_receive_items", "chord"),
    ("repro.chord.node", "ChordNode", "_stabilize_loop", "chord"),
    ("repro.chord.node", "ChordNode", "_fix_fingers_loop", "chord"),
    ("repro.chord.node", "ChordNode", "_check_predecessor_loop", "chord"),
    # dht: the Chord-backed client and the process bodies it spawns.
    ("repro.dht.chord_client", "ChordDhtClient", "put", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "get", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "put_many", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "get_many", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "call_owner", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "_resolve_placement", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "_store_group", "dht"),
    ("repro.dht.chord_client", "ChordDhtClient", "_fetch_group", "dht"),
    # storage: backend writes (reads are served from in-memory caches).
    ("repro.storage.api", "StorageBackend", "put_many", "storage"),
    ("repro.storage.memory", "MemoryBackend", "put", "storage"),
    ("repro.storage.sqlite", "SqliteBackend", "put", "storage"),
    ("repro.storage.sqlite", "SqliteBackend", "put_many", "storage"),
    # kts: the timestamp authority's operations.
    ("repro.kts.authority", "TimestampAuthority", "next_timestamps", "kts"),
    ("repro.kts.authority", "TimestampAuthority", "last_ts", "kts"),
    # p2plog: publication, retrieval and checkpoints.
    ("repro.p2plog.log", "P2PLogClient", "publish", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "append_many", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "fetch", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "fetch_range", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "fetch_span", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "latest_checkpoint", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "publish_checkpoint", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "publish_checkpoint_index", "p2plog"),
    ("repro.p2plog.log", "P2PLogClient", "gc_checkpoint", "p2plog"),
    # core: the user peer's procedures and the Master's RPC handlers.
    ("repro.core.user_peer", "UserPeer", "commit", "core"),
    ("repro.core.user_peer", "UserPeer", "flush", "core"),
    ("repro.core.user_peer", "UserPeer", "sync", "core"),
    ("repro.core.master", "MasterService", "validate_and_publish", "core"),
    ("repro.core.master", "MasterService", "validate_and_publish_batch", "core"),
    ("repro.core.master", "MasterService", "handle_last_ts", "core"),
    # ot: the reconciliation functions, under the names their callers use.
    ("repro.core.user_peer", None, "integrate_remote_patches", "ot"),
    ("repro.core.user_peer", None, "integrate_remote_into_staged", "ot"),
    ("repro.core.user_peer", None, "install_snapshot", "ot"),
    ("repro.core.user_peer", None, "install_snapshot_into_staged", "ot"),
    ("repro.core.user_peer", None, "make_patch", "ot"),
    ("repro.ot.merge", None, "transform_sequences", "ot"),
    ("repro.ot.document", "Document", "apply_patch", "ot"),
)

#: Spans are kept for every ``SPAN_SAMPLE``-th commit (all of its calls,
#: every layer); the ledger's aggregates cover every call of every commit.
#: Keeping them all would take hundreds of megabytes on the contended
#: workload.
SPAN_SAMPLE = 16

#: Layers that report a self time; ``sim`` is the kernel remainder.
LAYERS = ("sim", "net", "chord", "dht", "storage", "kts", "p2plog", "core", "ot")

#: Calls whose second argument is a batch whose size the ledger records
#: (``ot.integrate_us_per_patch`` and ``storage.put_many_us_per_item``
#: divide by it).
_SIZED = frozenset({
    "storage.StorageBackend.put_many",
    "storage.SqliteBackend.put_many",
    "ot.integrate_remote_patches",
    "ot.integrate_remote_into_staged",
})


class _Span:
    """One call of a wrapped entry point (all resumes of a generator)."""

    __slots__ = ("span_id", "name", "layer", "parent", "commit",
                 "wall_start", "wall_end", "sim_start", "sim_end")

    def __init__(self, span_id, name, layer, parent, commit, wall_start, sim_start):
        self.span_id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.commit = commit
        self.wall_start = wall_start
        self.wall_end = wall_start
        self.sim_start = sim_start
        self.sim_end = sim_start


class Tracer:
    """In-memory span recorder plus the per-layer aggregates of one run."""

    def __init__(self) -> None:
        self.runtime: Any = None
        self.spans: list[_Span] = []
        self.self_wall: dict[str, float] = defaultdict(float)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.sim_time: dict[str, float] = defaultdict(float)
        self.items: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.sim_by_parent: dict[tuple[str, str], float] = defaultdict(float)
        self.top_level_wall = 0.0
        self.rpc_timeouts = 0
        self.commit: Optional[int] = None
        self._next_id = 0
        # Open segments: [span, segment start, wall covered by children].
        self._stack: list[list] = []
        self._process_commit: dict[int, Optional[int]] = {}
        self._message_commit: dict[int, Optional[int]] = {}
        self._patches: list[tuple[Any, str, bool, Any]] = []
        self.recording = False

    # -- context -------------------------------------------------------------

    def _context_commit(self) -> Optional[int]:
        if self.commit is not None:
            return self.commit
        runtime = self.runtime
        if runtime is not None:
            process = runtime.active_process
            if process is not None:
                return self._process_commit.get(id(process))
        return None

    def reset(self) -> None:
        """Forget everything recorded so far (called when timing starts)."""
        self.spans.clear()
        for table in (self.self_wall, self.self_by_name, self.calls, self.sim_time, self.items,
                      self.wall, self.sim_by_parent):
            table.clear()
        self.top_level_wall = 0.0
        self.rpc_timeouts = 0

    # -- span bookkeeping --------------------------------------------------------

    def _open(self, name: str, layer: str) -> _Span:
        stack = self._stack
        parent = stack[-1][0] if stack else None
        commit = parent.commit if parent is not None else self._context_commit()
        runtime = self.runtime
        self._next_id += 1
        span = _Span(self._next_id, name, layer, parent, commit, time.perf_counter(),
                     runtime.now if runtime is not None else 0.0)
        if self.recording and commit is not None and commit % SPAN_SAMPLE == 0:
            self.spans.append(span)
        return span

    def _enter(self, span: _Span) -> None:
        self._stack.append([span, time.perf_counter(), 0.0])

    def _leave(self) -> None:
        now = time.perf_counter()
        span, started, children = self._stack.pop()
        duration = now - started
        span.wall_end = now
        if self._stack:
            self._stack[-1][2] += duration
        if self.recording:
            # Accumulated per segment, not per span: maintenance loops never
            # return, yet their resumes must be charged to their layer.
            self.self_wall[span.layer] += duration - children
            self.self_by_name[span.name] += duration - children
            if not self._stack:
                self.top_level_wall += duration

    def _close(self, span: _Span) -> None:
        runtime = self.runtime
        span.sim_end = runtime.now if runtime is not None else 0.0
        if not self.recording:
            return
        name = span.name
        self.calls[name] += 1
        self.wall[name] += span.wall_end - span.wall_start
        elapsed = span.sim_end - span.sim_start
        self.sim_time[name] += elapsed
        if span.parent is not None:
            self.sim_by_parent[(name, span.parent.name)] += elapsed

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, function: Callable, name: str, layer: str) -> Callable:
        tracer = self
        sized = name in _SIZED
        if name == "net.Network.send":
            def note_message(args):
                tracer._message_commit[id(args[1])] = tracer._context_commit()
        else:
            note_message = None

        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                span = tracer._open(name, layer)
                return tracer._drive(function(*args, **kwargs), span)
            return generator_wrapper

        if name == "net.Network._deliver":
            @functools.wraps(function)
            def deliver_wrapper(network, message):
                saved = tracer.commit
                tracer.commit = tracer._message_commit.pop(id(message), None)
                span = tracer._open(name, layer)
                tracer._enter(span)
                try:
                    return function(network, message)
                finally:
                    tracer._leave()
                    tracer._close(span)
                    tracer.commit = saved
            return deliver_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if note_message is not None:
                note_message(args)
            if sized and tracer.recording:
                tracer.items[name] += len(args[1])
            span = tracer._open(name, layer)
            tracer._enter(span)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._leave()
                tracer._close(span)
        return wrapper

    def _drive(self, inner, span: _Span):
        """Resume ``inner`` segment by segment, forwarding values unchanged."""
        send_value = None
        thrown: Optional[BaseException] = None
        try:
            while True:
                saved = self.commit
                self.commit = span.commit
                self._enter(span)
                try:
                    if thrown is not None:
                        exc, thrown = thrown, None
                        yielded = inner.throw(exc)
                    else:
                        yielded = inner.send(send_value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._leave()
                    self.commit = saved
                try:
                    send_value = yield yielded
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded into inner
                    thrown = exc
                    send_value = None
        finally:
            self._close(span)

    def _process_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def process(runtime, generator, name=None):
            created = original(runtime, generator, name=name)
            tracer._process_commit[id(created)] = tracer._context_commit()
            return created
        return process

    def _timeout_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def init(exc, *args, **kwargs):
            if tracer.recording:
                tracer.rpc_timeouts += 1
            original(exc, *args, **kwargs)
        return init

    # -- installation ------------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, own, vars(owner).get(attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> None:
        """Wrap every entry point; must run before the system is built,
        because RPC handlers are bound when a node is created."""
        for module_name, owner_name, attribute, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attribute)
            label = f"{owner_name}.{attribute}" if owner_name else attribute
            self._patch(owner, attribute, self._wrap(original, f"{layer}.{label}", layer))
        from repro.errors import RequestTimeout
        from repro.runtime.sim_backend import SimRuntime

        self._patch(SimRuntime, "process", self._process_wrapper(SimRuntime.process))
        self._patch(RequestTimeout, "__init__", self._timeout_wrapper(RequestTimeout.__init__))

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attribute, own, original = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- output --------------------------------------------------------------------

    def write_spans(self, path: Path) -> int:
        """Write the recorded spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps({
                    "id": span.span_id,
                    "name": span.name,
                    "parent": span.parent.span_id if span.parent is not None else None,
                    "commit": span.commit,
                    "wall_start": span.wall_start,
                    "wall_end": span.wall_end,
                    "sim_start": span.sim_start,
                    "sim_end": span.sim_end,
                }, separators=(",", ":")))
                out.write("\n")
        return len(self.spans)
