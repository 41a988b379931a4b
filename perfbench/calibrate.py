"""Calibration kernel: cancels the host's speed drift out of timed blocks.

On a shared host the same single-threaded Python work switches between a
fast and an up to 1.7x slower speed, several times a second, in CPU time
as well as wall time.  The benchmark therefore runs a fixed, stdlib-only
kernel in its own process right after every timed block (one flush, window
or round, and each step of a set-up build) and reports the block's wall
time divided by the kernel's time, scaled by ``REFERENCE_KERNEL_S``.  A
slow stretch of the host stretches the block and the kernel alike, so the
quotient stays put; a slower program stretches only the block.  The result
is in *reference seconds*: what the block would take on a host that runs
the kernel in ``REFERENCE_KERNEL_S``.

The kernel's work resembles the program's: small tuples and lists are
allocated, a dict is updated and a ``heapq`` heap is pushed and popped.  It
imports nothing from the program and runs with the cyclic garbage collector
paused, so the size of the program's heap cannot slow it.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Sequence

#: Loop iterations of one kernel run (about 3 ms on the reference host).
KERNEL_ROUNDS = 3000

#: The kernel's result; any other value means the kernel did not run as
#: written, and its time would calibrate nothing.
KERNEL_CHECKSUM = 974470904

#: A typical wall time of one kernel run on the reference host (a shared
#: 2-vCPU x86-64 VM running CPython 3.11, where one run took 2.8-5.4 ms).
#: Fixed here and never re-measured by a run: it only sets the unit, so
#: that reference seconds stay close to real seconds on that host.
REFERENCE_KERNEL_S = 0.004


class CalibrationError(Exception):
    """The calibration kernel computed a wrong result."""


def _work(rounds: int) -> int:
    heap: list[tuple[int, int, list[int]]] = []
    table: dict[int, int] = {}
    checksum = 0
    for index in range(rounds):
        key = (index * 7919) % 1021
        heapq.heappush(heap, (key, index, [key, index]))
        table[key] = table.get(key, 0) + index
        if len(heap) > 256:
            popped_key, popped_index, pair = heapq.heappop(heap)
            checksum = (checksum * 31 + popped_key + popped_index + pair[0]) % 1_000_000_007
    return (checksum + sum(table.values())) % 1_000_000_007


def kernel_seconds() -> float:
    """Run the kernel once with the cyclic GC paused; returns its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        checksum = _work(KERNEL_ROUNDS)
        elapsed = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if checksum != KERNEL_CHECKSUM:
        raise CalibrationError(f"calibration kernel returned {checksum}, "
                               f"expected {KERNEL_CHECKSUM}")
    return elapsed


def to_reference(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` in reference seconds, given the kernel time next to it."""
    return wall_s * REFERENCE_KERNEL_S / kernel_s


class SetupClock:
    """Set-up time in blocks, each between two kernel runs.

    A build can last a second, far longer than the host stays in one speed,
    so kernel runs taken only around it say little about the speed during
    it.  The set-up code therefore calls :meth:`block` at points of
    progress; the kernel runs once before the first block and after each
    block, and each block counts with the mean of the two runs beside it.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.kernels = [kernel_seconds()]
        self._start = time.perf_counter()

    def block(self) -> None:
        """Close the current block and run the kernel after it."""
        self.walls.append(time.perf_counter() - self._start)
        self.kernels.append(kernel_seconds())
        self._start = time.perf_counter()

    @property
    def wall(self) -> float:
        """Wall seconds of the set-up, kernel runs left out."""
        return sum(self.walls)

    @property
    def reference(self) -> float:
        """Reference seconds of the set-up."""
        return sum(to_reference(wall, (before + after) / 2.0)
                   for wall, before, after in zip(self.walls, self.kernels, self.kernels[1:]))


def blockwise_rate(block_work: Sequence[int], repeats: Sequence[Sequence[float]]) -> float:
    """Work per second over blocks timed in several repeats of the same work.

    ``repeats`` holds one sequence of block times per repeat, all splitting
    the same ``block_work`` into the same blocks.  Each block counts with
    its median time across the repeats, which drops a repeat that a burst
    of host noise hit.
    """
    total = sum(statistics.median(times) for times in zip(*repeats))
    return sum(block_work) / total
