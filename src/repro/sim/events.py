"""Discrete-event kernel for the memory-hierarchy engine.

The PR 2 engine kept time as ad-hoc per-run accounting: a float heap of
port free-times per network, advanced inline by the gate loop.  That
model reserves a port *greedily at scan time* — when a transfer's
operand is not yet available, the chosen lane is pushed to the far
future and the idle window between its old free-time and the transfer's
actual start is lost forever.  On a deep stack that loss compounds: the
slow bottom network's backlog leaks into every faster network above it.

This module is the reusable replacement: an :class:`EventKernel` (a
time-ordered event heap) plus :class:`PortServer`, the transfer ports
of one network modeled as a resource.  A ``PortServer`` speaks two
dialects:

* **Greedy reservations** (:meth:`PortServer.reserve`) — exactly the
  PR 2 arithmetic (pop the earliest-free lane, start no earlier than
  ``ready``, hold through ``duration + hold``), the arithmetic of the
  reservation model's audited oracle.  Reservations taken through :meth:`PortServer.reserve_handle`
  are cancellable: :meth:`Reservation.cancel` restores the lane's prior
  free-time.
* **Split-transaction requests** (:meth:`PortServer.request`) — a
  transfer occupies a port only while it is actually in flight.
  Requests queue from their ``ready`` time and a freed port picks the
  highest-priority ready request, so short transfers backfill the idle
  windows the greedy model wastes.  Queued requests can be withdrawn
  (:meth:`PortServer.withdraw`) and re-issued, e.g. to upgrade an
  in-queue prefetch to demand priority.

The kernel is deterministic: ties in time break by schedule order, ties
in priority by enqueue order, and no call reads a wall clock.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = [
    "EventKernel",
    "PortServer",
    "Reservation",
    "TransferRequest",
]


class EventKernel:
    """A time-ordered event heap with a monotonic clock.

    ``schedule(time, fn, *args)`` enqueues a callback; :meth:`step` pops
    the earliest event, advances :attr:`now` to its time, and runs it.
    Events at equal times run in schedule order (the heap tie-breaks on
    a monotone sequence number), which keeps every simulation built on
    the kernel deterministic.
    """

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: List[tuple] = []
        self._seq = 0

    @property
    def pending(self) -> int:
        """Number of events still scheduled."""
        return len(self._heap)

    def schedule(self, time: float, fn: Callable, *args) -> None:
        """Enqueue ``fn(*args)`` to run at ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event at t={time} in the past "
                f"(now={self.now})"
            )
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, fn, args))

    def step(self) -> float:
        """Run the earliest pending event; returns its time."""
        if not self._heap:
            raise RuntimeError(
                "event heap is empty but the simulation still expects "
                "progress — a transfer chain was dropped"
            )
        time, _, fn, args = heapq.heappop(self._heap)
        self.now = time
        fn(*args)
        return time

    def run(self) -> None:
        """Drain every pending event."""
        while self._heap:
            self.step()


@dataclass
class Reservation:
    """A cancellable greedy port reservation.

    ``start`` is when the transfer begins, ``busy_until`` when the lane
    frees (start + duration + hold).  :meth:`cancel` hands the lane's
    prior free-time back to the server; cancelling twice is a no-op.
    Only the *most recent* live reservation on its lane can be
    cancelled — a later reservation's start was computed from this
    one's hold, so unwinding out of order would overbook the lane, and
    the server refuses with ``ValueError``.  Unwinding a chain in LIFO
    order works: once the later reservation is cancelled, the earlier
    one becomes the lane's most recent again.
    """

    server: "PortServer"
    lane: int
    version: int
    prev_version: int
    start: float
    busy_until: float
    restore: float
    cancelled: bool = False

    def cancel(self) -> None:
        self.server._cancel(self)


@dataclass
class TransferRequest:
    """One queued split-transaction transfer.

    Lifecycle: ``scheduled`` (waiting for its ready time) -> ``queued``
    (eligible, waiting for a port) -> ``active`` -> ``done``; a request
    withdrawn before dispatch ends as ``withdrawn`` and never runs.
    """

    ready: float
    duration: float
    on_complete: Callable[[float], None]
    priority: int = 0
    label: str = ""
    state: str = "scheduled"


class PortServer:
    """The parallel transfer ports of one network, as a resource.

    ``lanes`` is the network's effective concurrency (the paper's "Par
    Xfer" divided by the code's channels-per-transfer).  The greedy
    dialect (:meth:`reserve`) mirrors the PR 2 float-heap arithmetic
    exactly; the split-transaction dialect (:meth:`request`) needs a
    ``kernel`` and dispatches queued transfers as ports free up.  With
    ``record=True`` every busy interval is kept for occupancy audits.
    """

    def __init__(
        self,
        lanes: int,
        kernel: Optional[EventKernel] = None,
        name: str = "",
        record: bool = False,
    ) -> None:
        if lanes < 1:
            raise ValueError("a port server needs at least one lane")
        self.lanes = lanes
        self.kernel = kernel
        self.name = name
        self.record = record
        self.intervals: List[Tuple[float, float]] = []
        # greedy dialect: a heap of (free-time, lane, version) entries.
        # The float sequence popped is exactly the PR 2 plain-float
        # heap's (the heap always yields the minimum free-time; lane
        # and version only break ties between equal floats, which are
        # interchangeable).  A cancellation bumps the lane's version,
        # so its superseded entry is dropped exactly when popped.
        self._free: List[Tuple[float, int, int]] = [
            (0.0, lane, 0) for lane in range(lanes)
        ]
        self._lane_free: List[float] = [0.0] * lanes
        # The lane's currently-valid entry version; cancellation
        # restores the prior version, so versions are drawn from a
        # separate monotone counter and never reused by later pushes.
        self._lane_version: List[int] = [0] * lanes
        self._lane_seq: List[int] = [0] * lanes
        # split-transaction dialect
        self._idle = lanes
        self._queue: List[tuple] = []
        self._seq = 0
        self.active = 0
        self.max_active = 0
        self.dispatched = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # greedy reservations (PR 2-compatible arithmetic)
    # ------------------------------------------------------------------
    def _pop_free(self) -> Tuple[float, int]:
        free, lane, version = heapq.heappop(self._free)
        while version != self._lane_version[lane]:  # superseded by cancel
            free, lane, version = heapq.heappop(self._free)
        return free, lane

    def lane_free_times(self) -> List[float]:
        """The current free-time of every lane, sorted."""
        return sorted(self._lane_free)

    def reserve(self, ready: float, duration: float, hold: float = 0.0) -> float:
        """Greedily reserve the earliest-free lane; returns the start.

        The lane is held through ``start + duration + hold`` — ``hold``
        models work that keeps the port busy after the transfer itself
        (PR 2's paired write-back).  Bit-identical to popping/pushing
        the PR 2 float heap.
        """
        free, lane = self._pop_free()
        start = free if free > ready else ready
        busy = start + duration + hold
        self._push_lane(lane, busy, self._lane_seq[lane] + 1)
        if self.record:
            self.intervals.append((start, busy))
        return start

    def reserve_handle(
        self, ready: float, duration: float, hold: float = 0.0
    ) -> Reservation:
        """Like :meth:`reserve` but returns a cancellable handle."""
        free, lane = self._pop_free()
        prev_version = self._lane_version[lane]
        start = free if free > ready else ready
        busy = start + duration + hold
        version = self._push_lane(lane, busy, self._lane_seq[lane] + 1)
        if self.record:
            self.intervals.append((start, busy))
        return Reservation(self, lane, version, prev_version, start, busy,
                           free)

    def _push_lane(self, lane: int, free: float, version: int) -> int:
        if version > self._lane_seq[lane]:
            self._lane_seq[lane] = version
        self._lane_version[lane] = version
        self._lane_free[lane] = free
        heapq.heappush(self._free, (free, lane, version))
        return version

    def _cancel(self, reservation: Reservation) -> None:
        if reservation.cancelled:
            return
        if self._lane_version[reservation.lane] != reservation.version:
            raise ValueError(
                "only the most recent reservation on a lane can be "
                "cancelled — a later reservation already built on this "
                "one's hold"
            )
        reservation.cancelled = True
        # Hand back the lane's prior free-time under its prior version:
        # the cancelled entry goes stale, and the reservation that
        # preceded this one becomes the lane's most recent again.
        self._push_lane(reservation.lane, reservation.restore,
                        reservation.prev_version)
        if self.record:
            interval = (reservation.start, reservation.busy_until)
            for i in range(len(self.intervals) - 1, -1, -1):
                if self.intervals[i] == interval:
                    del self.intervals[i]
                    break

    # ------------------------------------------------------------------
    # split-transaction requests
    # ------------------------------------------------------------------
    def request(
        self,
        ready: float,
        duration: float,
        on_complete: Callable[[float], None],
        priority: int = 0,
        label: str = "",
    ) -> TransferRequest:
        """Queue a transfer that may start any time from ``ready``.

        The port is occupied only for ``duration``; ``on_complete(end)``
        fires when the transfer finishes.  Lower ``priority`` values
        dispatch first among simultaneously-ready requests.
        """
        if self.kernel is None:
            raise RuntimeError(
                "split-transaction requests need a PortServer bound to "
                "an EventKernel"
            )
        now = self.kernel.now
        if ready < now:
            ready = now
        req = TransferRequest(ready, duration, on_complete, priority, label)
        self.kernel.schedule(ready, self._enqueue, req)
        return req

    def withdraw(self, request: TransferRequest) -> bool:
        """Remove a not-yet-dispatched request; False once it started."""
        if request.state in ("scheduled", "queued"):
            request.state = "withdrawn"
            return True
        return False

    def _enqueue(self, req: TransferRequest) -> None:
        if req.state == "withdrawn":
            return
        req.state = "queued"
        self._seq += 1
        heapq.heappush(self._queue, (req.priority, self._seq, req))
        self._dispatch()

    def _dispatch(self) -> None:
        while self._idle and self._queue:
            _, _, req = heapq.heappop(self._queue)
            if req.state == "withdrawn":
                continue
            req.state = "active"
            self._idle -= 1
            self.active += 1
            if self.active > self.max_active:
                self.max_active = self.active
            self.dispatched += 1
            start = self.kernel.now
            end = start + req.duration
            if self.record:
                self.intervals.append((start, end))
            self.kernel.schedule(end, self._complete, req)

    def _complete(self, req: TransferRequest) -> None:
        req.state = "done"
        self._idle += 1
        self.active -= 1
        self.completed += 1
        req.on_complete(self.kernel.now)
        self._dispatch()

    # ------------------------------------------------------------------
    # audit
    # ------------------------------------------------------------------
    def busy_seconds(self) -> float:
        """Total recorded port-seconds (record=True only)."""
        return sum(end - start for start, end in self.intervals)

    def max_concurrency(self) -> int:
        """Peak overlap of recorded intervals (record=True only).

        Computed from the interval log itself, independently of the
        dispatch bookkeeping, so tests can cross-check that occupancy
        never exceeded ``lanes``.
        """
        events: List[Tuple[float, int]] = []
        for start, end in self.intervals:
            events.append((start, 1))
            events.append((end, -1))
        # Ends sort before starts at the same instant: a transfer
        # beginning exactly when another finishes reuses its lane.
        events.sort(key=lambda e: (e[0], e[1]))
        peak = current = 0
        for _, delta in events:
            current += delta
            if current > peak:
                peak = current
        return peak
