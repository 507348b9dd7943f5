"""Traffic/time factorization for batched design-space sweeps.

The engine-grid sweeps re-run :func:`~repro.sim.levels.simulate_hierarchy_run`
for every (code assignment, port provisioning) point even though the
*replacement traffic* — which qubit moves across which boundary, in
what order — is identical across all of them.  PR 5 pinned that
invariance for the reservation model: the caches never observe time,
so their event stream depends only on (capacity, policy, trace).  This
module exploits it:

* :func:`extract_movement_trace` runs the cache machinery **once** per
  (workload, depth, policy) group and records a code-agnostic
  :class:`MovementTrace` — per-gate miss records ``(source level,
  evicted?, cascade length)``, the qubit each movement carries, and
  every traffic counter;
* :func:`price_movement_trace` replays that trace against one concrete
  :class:`~repro.sim.levels.HierarchyStack`, reproducing the greedy
  port-reservation arithmetic float-for-float, so its
  :class:`~repro.sim.levels.HierarchyEngineResult` is bit-identical to
  a fresh :func:`~repro.sim.levels.simulate_hierarchy_run`; given a
  :class:`~repro.sim.residency.ResidencyRecorder` it also logs every
  priced hop under its qubit, exactly as the audited reservation engine
  does, which is how recorded (fidelity) reservation runs are priced;
* :func:`price_movement_traces_multi` prices **many traces** — one per
  traffic group, each against its own stacks — in a single pass: from
  :data:`MULTI_NUMPY_THRESHOLD` cells up the variable-length miss and
  gate streams are padded into one numpy batch whose columns are all
  (group x config) cells of the grid, so the per-step interpreter
  overhead is paid once for the whole design space instead of once per
  stack; :func:`price_movement_trace_batch` is its one-group case;
* :func:`trace_key` / :meth:`MovementTrace.from_bytes` round-trip a
  trace through a content-addressed blob (see
  :class:`repro.perf.tracecache.TraceCache`): the key folds the
  traffic identity, the stack geometry and
  :data:`TRACE_FORMAT_VERSION`, so a layout change can only ever miss,
  never decode stale bytes wrongly.

The extraction has two implementations: a *flattened* loop for the
five shipped eviction policies and a *generic* fallback that drives
the real :class:`~repro.sim.policies.PolicyCache` objects for any
other registered policy (logged at DEBUG).  The flattened loop runs
:class:`_FlatReplacement` — dict-as-recency-order, an incremental score
window, an O(1) Belady next-use scheme over a precomputed ``next_pos``
array and the ``fidelity`` trip ledger — the one definition of each
shipped policy's victim rule that :mod:`repro.sim.fastsplit` runs too.
Both loops are pinned equal to each other and to the retained
reference engine by the equivalence tests.

Batching is bypassed — cells fall back to per-cell simulation — for
split-transaction runs with prefetching (``prefetch != "none"``): port
contention feeds back into the victim-exclusion and veto decisions
there, so the traffic is *not* code-invariant.  The same bypass will
apply to any future policy whose decisions observe time (per-level
mixed policies with shared state, noise-coupled residency costs).
"""

from __future__ import annotations

import hashlib
import heapq
import json
import logging
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..circuits.circuit import Circuit
from .levels import HierarchyEngineResult, HierarchyStack, _level_stats, _resolve_run
from .policies import PolicyCache, ScorePolicy, make_policy

__all__ = [
    "MULTI_NUMPY_THRESHOLD",
    "MovementTrace",
    "TRACE_FORMAT_VERSION",
    "extract_movement_trace",
    "price_movement_trace",
    "price_movement_trace_batch",
    "price_movement_traces_multi",
    "trace_key",
]

logger = logging.getLogger(__name__)

#: The policies with a flattened victim kernel (:class:`_FlatReplacement`).
#: This one set gates both fast engines — the extraction here and
#: :func:`repro.sim.fastsplit.supports_fast_split`; any other
#: registered policy runs through its :class:`~repro.sim.policies.PolicyCache`.
_FLAT_POLICIES = frozenset({"belady", "fidelity", "fifo", "lru", "score"})

_SCORE_WINDOW = ScorePolicy().window  # the reference's default lookahead

#: Total (group x config) cell count from which the one-pass numpy
#: pricer overtakes the scalar one.  numpy pays a fixed per-step
#: overhead that only amortizes across enough columns, so smaller
#: batches are priced one stack at a time.
MULTI_NUMPY_THRESHOLD = 24

#: Serialization version of :meth:`MovementTrace.to_bytes` blobs.
#: Folded into every :func:`trace_key`, so a layout change invalidates
#: persisted traces (a cache miss and re-extraction) instead of ever
#: decoding them under the wrong schema.
TRACE_FORMAT_VERSION = 2


# ----------------------------------------------------------------------
# scan programs (per-(circuit, order) flattened schedules, cached)
# ----------------------------------------------------------------------

class _ScanProgram:
    """The flattened scheduled program one extraction scans.

    Everything here is a pure function of (circuit, order) — the gate
    operand tuples and EC durations in scheduled order, the operand
    trace, the touched-qubit set — so it is computed once and cached on
    the circuit instance, shared by every policy and every stack.
    """

    __slots__ = (
        "gate_qubits",
        "gate_ec",
        "gate_ec_tuple",
        "trace",
        "touched",
        "total_ec",
        "_next_pos",
        "_belady_keys",
    )

    def __init__(self, circuit: Circuit, order: Sequence[int]) -> None:
        gates = circuit.gates
        self.gate_qubits: List[Tuple[int, ...]] = [gates[idx].qubits for idx in order]
        self.gate_ec: List[int] = [gates[idx].ec_slots for idx in order]
        self.gate_ec_tuple: Tuple[int, ...] = tuple(self.gate_ec)
        self.trace: List[int] = [q for qubits in self.gate_qubits for q in qubits]
        self.touched: List[int] = circuit.touched_qubits()
        self.total_ec: int = sum(self.gate_ec)
        self._next_pos: Optional[List[int]] = None
        self._belady_keys: Dict[int, List[int]] = {}

    def next_pos(self) -> List[int]:
        """``next_pos[p]``: next position of ``trace[p]`` after ``p``.

        One backward scan gives every Belady next-use query in O(1):
        at a demand access of ``q`` at position ``p`` the next use of
        ``q`` is exactly ``next_pos[p]``.  "Never recurs" is encoded as
        ``len(trace)`` — strictly greater than every finite position,
        so comparisons order exactly like the reference's
        :data:`math.inf` while keeping the array all-int (int keys make
        the Belady heap entries cheap 2-tuples).
        """
        if self._next_pos is None:
            trace = self.trace
            n = len(trace)
            nxt: List[int] = [n] * n
            last: Dict[int, int] = {}
            for p in range(n - 1, -1, -1):
                q = trace[p]
                nxt[p] = last.get(q, n)
                last[q] = p
            self._next_pos = nxt
        return self._next_pos

    def belady_keys(self, span: int) -> List[int]:
        """``-next_pos[p] * span`` — the distance part of a heap key.

        A Belady heap entry pushed at position ``p`` with push counter
        ``seq`` gets the int key ``seq - next_pos[p] * span``; with
        ``span`` exceeding every seq the min-heap pops by descending
        next use, oldest push first.  The distance part depends only on
        the scan program (and ``span``), so it is precomputed here once
        and the hot loop pays a single add per access.
        """
        cache = self._belady_keys
        keys = cache.get(span)
        if keys is None:
            keys = [-nd * span for nd in self.next_pos()]
            cache.clear()  # spans are near-constant; keep one
            cache[span] = keys
        return keys


def _scan_program(circuit: Circuit, order: Sequence[int]) -> _ScanProgram:
    """The cached :class:`_ScanProgram` for (circuit, order).

    Cached on the circuit instance (circuits are immutable once they
    enter the simulator); the key carries the gate count so a circuit
    extended after a run cannot serve a stale program.
    """
    cache = circuit.__dict__.setdefault("_scan_programs", {})
    key = (len(circuit.gates), circuit.n_qubits, tuple(order))
    program = cache.get(key)
    if program is None:
        program = _ScanProgram(circuit, order)
        cache.clear()  # one schedule per circuit is the norm; don't hoard
        cache[key] = program
    return program


# ----------------------------------------------------------------------
# the movement trace
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MovementTrace:
    """The code-agnostic traffic of one reservation-model run.

    Every miss is three small integers — the level the operand was
    found at (``miss_src``), whether the compute-level insertion
    evicted a resident (``miss_evict``), and how many cascade
    write-backs rippled down the stack (``miss_clen``) — grouped per
    scheduled gate by ``gate_nmiss``.  Together with the per-gate EC
    durations this is everything the time model consumes, and every
    cache counter is already final (replacement never observes time).

    The identity fields name *which* qubit each movement carries, so a
    :class:`~repro.sim.residency.ResidencyRecorder` can ride the
    re-pricer: ``miss_qubit`` has one entry per miss (the operand
    fetched), ``evict_qubit`` one per miss with ``miss_evict == 1`` (the
    compute-level victim written back), and ``cascade_qubit`` one per
    cascade write-back, in scan order (``sum(miss_clen)`` entries).
    Time-only pricing never reads them.
    """

    workload: str
    policy: str
    depth: int
    capacities: Tuple[Optional[int], ...]
    gate_ec: Tuple[int, ...]
    gate_nmiss: Tuple[int, ...]
    miss_src: Tuple[int, ...]
    miss_evict: Tuple[int, ...]
    miss_clen: Tuple[int, ...]
    miss_qubit: Tuple[int, ...]
    evict_qubit: Tuple[int, ...]
    cascade_qubit: Tuple[int, ...]
    fetches: Tuple[int, ...]
    writebacks: Tuple[int, ...]
    bottom_hits: int
    level_accesses: Tuple[int, ...]
    level_hits: Tuple[int, ...]
    level_misses: Tuple[int, ...]
    level_evictions: Tuple[int, ...]
    final_occupancy: Tuple[int, ...]
    total_ec: int

    def to_bytes(self) -> bytes:
        """A canonical byte serialization (for invariance pins).

        Two traces are byte-equal iff every field is equal, so the
        PR 5 "traffic is code-agnostic" invariant is assertable as a
        single ``bytes`` comparison across code assignments.
        """
        payload = {
            "workload": self.workload,
            "policy": self.policy,
            "depth": self.depth,
            "capacities": list(self.capacities),
            "gate_ec": list(self.gate_ec),
            "gate_nmiss": list(self.gate_nmiss),
            "miss_src": list(self.miss_src),
            "miss_evict": list(self.miss_evict),
            "miss_clen": list(self.miss_clen),
            "miss_qubit": list(self.miss_qubit),
            "evict_qubit": list(self.evict_qubit),
            "cascade_qubit": list(self.cascade_qubit),
            "fetches": list(self.fetches),
            "writebacks": list(self.writebacks),
            "bottom_hits": self.bottom_hits,
            "level_accesses": list(self.level_accesses),
            "level_hits": list(self.level_hits),
            "level_misses": list(self.level_misses),
            "level_evictions": list(self.level_evictions),
            "final_occupancy": list(self.final_occupancy),
            "total_ec": self.total_ec,
        }
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("ascii")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MovementTrace":
        """Rebuild a trace from its :meth:`to_bytes` serialization.

        Strict by construction: after reconstructing the dataclass the
        round-trip ``to_bytes()`` must reproduce ``blob`` exactly, so a
        blob with missing/extra/retyped fields (e.g. written by a
        different layout, or bit-flipped into other valid JSON) raises
        :class:`ValueError` instead of yielding a trace that prices
        differently.  Cache layers treat that error as a miss.
        """
        try:
            payload = json.loads(blob.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ValueError(f"not a serialized MovementTrace: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("not a serialized MovementTrace: not an object")
        tuple_fields = (
            "capacities", "gate_ec", "gate_nmiss", "miss_src", "miss_evict",
            "miss_clen", "miss_qubit", "evict_qubit", "cascade_qubit",
            "fetches", "writebacks", "level_accesses",
            "level_hits", "level_misses", "level_evictions",
            "final_occupancy",
        )
        fields = dict(payload)
        for name in tuple_fields:
            value = fields.get(name)
            if not isinstance(value, list):
                raise ValueError(
                    f"not a serialized MovementTrace: field {name!r} is "
                    "missing or not a list"
                )
            fields[name] = tuple(value)
        try:
            trace = cls(**fields)
        except TypeError as exc:
            raise ValueError(f"not a serialized MovementTrace: {exc}") from exc
        if trace.to_bytes() != blob:
            raise ValueError(
                "not a canonical MovementTrace serialization (field types "
                "or ordering differ from to_bytes output)"
            )
        return trace

    @property
    def n_misses(self) -> int:
        return len(self.miss_src)


def trace_key(
    traffic_token: str,
    depth: int,
    capacities: Sequence[Optional[int]],
) -> str:
    """Content address of one movement trace in a trace cache.

    ``traffic_token`` is the traffic-group identity (the engine grid
    passes :func:`repro.core.design_space.engine_traffic_key`, which
    already folds every traffic axis plus the package version); depth
    and per-level capacities pin the stack geometry the trace was
    extracted against, and :data:`TRACE_FORMAT_VERSION` pins the blob
    layout — bumping it orphans (never misreads) old blobs.
    """
    payload = json.dumps(
        {
            "v": TRACE_FORMAT_VERSION,
            "traffic": traffic_token,
            "depth": depth,
            "capacities": list(capacities),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:40]


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------

def extract_movement_trace(
    stack: HierarchyStack,
    workload: Union[Circuit, str],
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
) -> MovementTrace:
    """Run the replacement machinery once; return the movement trace.

    Accepts the same workload/scheduling arguments as
    :func:`~repro.sim.levels.simulate_hierarchy_run` (reservation model
    only — split-transaction traffic with prefetching is time-coupled
    and cannot be factored).  Only the *geometry* of ``stack`` matters
    (depth and per-level capacities); its codes and port provisioning
    are deliberately ignored, which is the whole point: one trace
    prices every code assignment of the same shape.
    """
    circuit, order, _ = _resolve_run(stack, workload, policy, window, fetch, order)
    return _extract(stack, circuit, policy, _scan_program(circuit, order))


def _extract(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
) -> MovementTrace:
    """Dispatch to the flattened or the generic extraction loop."""
    if policy in _FLAT_POLICIES:
        return _extract_flat(stack, circuit, policy, program)
    logger.debug(
        "traffic extraction of policy=%r falls back to the PolicyCache "
        "path: repro.sim.replay has no flattened kernel for it",
        policy,
    )
    return _extract_generic(stack, circuit, policy, program)


class _FlatReplacement:
    """The flattened replacement state of one run's finite levels.

    Replicates :class:`~repro.sim.policies.PolicyCache` plus the shipped
    policy classes exactly, for both fast engines (this module's
    extraction and :mod:`repro.sim.fastsplit`).  One insertion-ordered
    dict per level (``orders``) doubles as resident set and recency
    order — a hit reinserts, matching ``OrderedDict.move_to_end``, when
    ``refresh_on_hit``.  :attr:`victim` ``(level, pos, excluded)`` names
    the resident to displace without removing it, with the reference's
    unsatisfiable-pin fallback (the returned qubit may be excluded when
    every resident is).  The engine owns every insert, remove and
    access and keeps the per-policy state below in step:

    * ``belady`` (``track_nu``): one lazily-pruned min-heap per level
      over int-keyed 2-tuples ``(seq - dist * span, q)``, where
      ``dist`` is the next use cached at the qubit's last compute-level
      access and ``seq`` a monotone push counter the engine keeps;
      ``span`` exceeds every seq, so the heap pops by descending next
      use, oldest push first — the reference scan's LRU-first
      tie-break (every recency refresh is accompanied by a push; finite
      next uses are globally unique, so real ties only arise among
      never-used-again qubits, where push order *is* recency order).
      An entry is current iff ``q`` is resident at the level it was
      pushed for and the entry is the latest push for ``q``
      (``cur_key[q]`` matches; seq makes keys globally unique).  A next
      use only changes at a compute-level access of ``q``, which pushes
      a fresh entry, and every inter-level move pushes into the
      destination heap.  ``keybase`` precomputes the ``-dist * span``
      part per trace position; a cascaded victim's next use carries
      down unchanged (it cannot have recurred since its last touch —
      the occurrence would have been a demand access pulling it up), so
      ``qkb[q]`` remembers the base from the last compute-level access.
      The victim peek is non-destructive (a prefetch veto may leave the
      victim resident): the winner is read off the heap top and stays
      there, and an eviction stales it through the residency check.
    * ``score``: the reference keeps one sliding window per level, but
      the window content is a pure function of the sync position and
      every victim call syncs to the current operand position — so all
      levels observe identical counts and one shared window suffices.
    * ``fidelity`` (``track_trips``): per-level lifetime insertion
      counts (``FidelityPolicy``'s trip ledger) and a trip count ->
      current residents tally, kept by :attr:`trip_insert` /
      :attr:`trip_remove` at exactly the ``on_insert`` / ``on_remove``
      points of the reference.
    * ``track_next`` (always on for ``fidelity``): ``nu_now[q]`` is the
      first occurrence of ``q`` at/after the scan pointer — the
      reference's ``TraceIndex.next_use(q, pos - 1)``, kept incrementally
      by the engine storing ``nu_now[q] = next_pos[pos]`` once per
      operand access instead of bisected.
    """

    __slots__ = (
        "orders",
        "victim",
        "refresh_on_hit",
        "track_nu",
        "track_trips",
        "track_next",
        "span",
        "keybase",
        "qkb",
        "cur_key",
        "bheaps",
        "next_pos",
        "nu_now",
        "trip_insert",
        "trip_remove",
    )

    def __init__(
        self,
        policy: str,
        program: _ScanProgram,
        caps: Sequence[int],
        n_qubits: int,
        depth: int,
        track_next: bool = False,
    ) -> None:
        trace = program.trace
        n = len(trace)
        n_finite = len(caps)
        orders: List[Dict[int, None]] = [{} for _ in range(n_finite)]
        bheaps: List[List[Tuple[int, int]]] = [[] for _ in range(n_finite)]
        self.orders = orders
        self.bheaps = bheaps
        self.refresh_on_hit = policy != "fifo"
        self.track_nu = policy == "belady"
        self.track_trips = policy == "fidelity"
        self.track_next = track_next or self.track_trips
        # span must exceed the total push count (<= depth pushes per
        # trace position); a depth-independent value keeps the
        # precomputed key bases shared across stacks of different depths.
        self.span = n * max(depth, 64) + 1
        self.keybase: Sequence[int] = ()
        self.qkb: List[int] = []
        cur_key: List[int] = []
        if self.track_nu:
            self.keybase = program.belady_keys(self.span)
            self.qkb = [0] * n_qubits
            cur_key = [0] * n_qubits
        self.cur_key = cur_key
        next_pos: Sequence[int] = ()
        nu_now: List[int] = []
        if self.track_next:
            next_pos = program.next_pos()
            nu_now = [n] * n_qubits
            for p in range(n - 1, -1, -1):
                nu_now[trace[p]] = p
        self.next_pos = next_pos
        self.nu_now = nu_now
        trips: List[List[int]] = []
        tallies: List[Dict[int, int]] = []
        if self.track_trips:
            trips = [[0] * n_qubits for _ in range(n_finite)]
            tallies = [{} for _ in range(n_finite)]
        wpos = -1
        counts: List[int] = []
        if policy == "score":
            counts = [0] * n_qubits
            for q in trace[:_SCORE_WINDOW]:
                counts[q] += 1
        heappush = heapq.heappush
        heappop = heapq.heappop

        def trip_insert(i, q):
            tr = trips[i]
            count = tr[q] + 1
            tr[q] = count
            tally = tallies[i]
            tally[count] = tally.get(count, 0) + 1

        def trip_remove(i, q):
            count = trips[i][q]
            tally = tallies[i]
            remaining = tally[count] - 1
            if remaining:
                tally[count] = remaining
            else:
                del tally[count]

        def victim_recency(i, pos, excl):
            d = orders[i]
            if not excl:
                return next(iter(d))
            for q in d:
                if q not in excl:
                    return q
            return next(iter(d))  # unsatisfiable pin: fall back

        def victim_score(i, pos, excl):
            nonlocal wpos
            while wpos < pos:  # slide the window to cover pos+1..pos+window
                wpos += 1
                counts[trace[wpos]] -= 1
                entering = wpos + _SCORE_WINDOW
                if entering < n:
                    counts[trace[entering]] += 1
            best = None
            best_score = None
            for q in orders[i]:  # LRU-first iteration breaks ties
                if q in excl:
                    continue
                score = counts[q]
                if best_score is None or score < best_score:
                    best, best_score = q, score
                    if score == 0:
                        break
            if best is None:
                return next(iter(orders[i]))
            return best

        def victim_belady(i, pos, excl):
            h = bheaps[i]
            d = orders[i]
            if len(h) > (len(d) << 2) + 64:
                # Compact: stale entries otherwise accumulate and deepen
                # every subsequent sift (the heap is lazily pruned).
                h[:] = [e for e in h if cur_key[e[1]] == e[0] and e[1] in d]
                heapq.heapify(h)
            stash = None
            while h:
                key, q = h[0]
                if q not in d or cur_key[q] != key:
                    heappop(h)  # stale: the qubit moved since this push
                    continue
                if q not in excl:
                    break
                if stash is None:
                    stash = []
                stash.append(heappop(h))
            else:
                q = next(iter(d))  # unsatisfiable pin: fall back
            if stash:
                for e in stash:
                    heappush(h, e)
            return q

        def victim_fidelity(i, pos, excl):
            # FidelityPolicy.victim: fewest lifetime trips at this level,
            # then farthest next_use(q, pos), then LRU order.
            d = orders[i]
            tr = trips[i]
            if excl:
                fewest = None
                for q in d:
                    if q not in excl:
                        count = tr[q]
                        if fewest is None or count < fewest:
                            fewest = count
                if fewest is None:  # unsatisfiable pin: fall back
                    return next(iter(d))
            else:
                fewest = min(tallies[i])
            # nu_now[q] is q's first use at/after the scan pointer (==
            # pos); next_use(q, pos) is the first use strictly after it.
            # Victims are only chosen for an access or a prefetch
            # candidate at/after pos, so pos < n.
            after = next_pos[pos]
            best = None
            best_dist = -1
            for q in d:  # LRU-first iteration breaks ties
                if tr[q] != fewest or q in excl:
                    continue
                dist = nu_now[q]
                if dist == pos:
                    dist = after
                if dist == n:  # never used again
                    return q
                if dist > best_dist:
                    best, best_dist = q, dist
            return best

        self.trip_insert = trip_insert
        self.trip_remove = trip_remove
        self.victim = {
            "lru": victim_recency,
            "fifo": victim_recency,
            "score": victim_score,
            "belady": victim_belady,
            "fidelity": victim_fidelity,
        }[policy]


def _extract_flat(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
) -> MovementTrace:
    """The flattened extraction loop for the shipped policies.

    Runs :class:`_FlatReplacement` through the reservation model's scan.
    Belady reads next uses from the scan program's ``next_pos`` array
    instead of bisecting (a demand access at position ``p`` *is* an
    occurrence of its qubit, and a cascaded victim's cached next use
    stays exact all the way down the stack).

    The loop records only the per-miss ``(src, evicted, cascade)``
    triples; every access/hit/traffic counter is derived from them
    afterwards (see :func:`_trace_from_misses`), which keeps counter
    bookkeeping entirely out of the hot path.
    """
    bottom = stack.depth - 1
    caps = [level.capacity for level in stack.levels[:-1]]
    repl = _FlatReplacement(policy, program, caps, circuit.n_qubits, stack.depth)
    orders = repl.orders
    select_victim = repl.victim
    refresh_on_hit = repl.refresh_on_hit
    track_nu = repl.track_nu
    track_trips = repl.track_trips
    track_next = repl.track_next
    keybase = repl.keybase
    qkb = repl.qkb
    cur_key = repl.cur_key
    bheaps = repl.bheaps
    next_pos = repl.next_pos
    nu_now = repl.nu_now
    trip_insert = repl.trip_insert
    trip_remove = repl.trip_remove
    heappush = heapq.heappush
    bseq = 0

    location = [-1] * circuit.n_qubits
    for q in program.touched:
        location[q] = bottom
    gate_nmiss: List[int] = []
    miss_src: List[int] = []
    miss_evict: List[int] = []
    miss_clen: List[int] = []
    miss_qubit: List[int] = []
    evict_qubit: List[int] = []
    cascade_qubit: List[int] = []
    append_nmiss = gate_nmiss.append
    append_src = miss_src.append
    append_evict = miss_evict.append
    append_clen = miss_clen.append
    append_qubit = miss_qubit.append
    append_evicted = evict_qubit.append
    append_cascade = cascade_qubit.append
    d0 = orders[0]
    cap0 = caps[0]
    h0 = bheaps[0]
    pos = 0
    for qubits in program.gate_qubits:
        nmiss = 0
        j = 0
        for q in qubits:
            src = location[q]
            if src == 0:
                # Guaranteed hit at the compute level.
                if refresh_on_hit:
                    del d0[q]
                    d0[q] = None
                if track_nu:
                    kb = keybase[pos]
                    qkb[q] = kb
                    key = bseq + kb
                    cur_key[q] = key
                    heappush(h0, (key, q))
                    bseq += 1
            else:
                if src != bottom:
                    del orders[src][q]
                    if track_trips:
                        trip_remove(src, q)
                evicted = None
                if len(d0) >= cap0:
                    # The operands already issued for this gate are
                    # pinned (they cannot be teleported away mid-gate).
                    evicted = select_victim(0, pos, qubits[:j])
                    del d0[evicted]
                    if track_trips:
                        trip_remove(0, evicted)
                d0[q] = None
                if track_trips:
                    trip_insert(0, q)
                if track_nu:
                    kb = keybase[pos]
                    qkb[q] = kb
                    key = bseq + kb
                    cur_key[q] = key
                    heappush(h0, (key, q))
                    bseq += 1
                location[q] = 0
                clen = 0
                if evicted is not None:
                    append_evicted(evicted)
                    location[evicted] = 1
                    victim = evicted
                    lvl = 1
                    while lvl < bottom:
                        d = orders[lvl]
                        bumped = None
                        if len(d) >= caps[lvl]:
                            bumped = select_victim(lvl, pos, ())
                            del d[bumped]
                            if track_trips:
                                trip_remove(lvl, bumped)
                        d[victim] = None
                        if track_trips:
                            trip_insert(lvl, victim)
                        if track_nu:
                            # The victim's cached next use carries down
                            # unchanged.
                            key = bseq + qkb[victim]
                            cur_key[victim] = key
                            heappush(bheaps[lvl], (key, victim))
                            bseq += 1
                        if bumped is None:
                            break
                        append_cascade(bumped)
                        location[bumped] = lvl + 1
                        victim = bumped
                        lvl += 1
                        clen += 1
                append_src(src)
                append_evict(1 if evicted is not None else 0)
                append_clen(clen)
                append_qubit(q)
                nmiss += 1
            if track_next:
                nu_now[q] = next_pos[pos]
            j += 1
            pos += 1
        append_nmiss(nmiss)

    return _trace_from_misses(
        stack,
        circuit,
        policy,
        program,
        location,
        gate_nmiss,
        miss_src,
        miss_evict,
        miss_clen,
        miss_qubit,
        evict_qubit,
        cascade_qubit,
    )


def _trace_from_misses(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
    location: List[int],
    gate_nmiss: List[int],
    miss_src: List[int],
    miss_evict: List[int],
    miss_clen: List[int],
    miss_qubit: List[int],
    evict_qubit: List[int],
    cascade_qubit: List[int],
) -> MovementTrace:
    """Derive every traffic counter from the per-miss records.

    The scan path of ``_run_reservation`` fixes each counter as a pure
    function of the miss stream: a miss from ``src`` passes through
    (and is counted a miss at) every level ``k < src`` above its hop
    path, is found at ``src`` (a ``lookup_remove`` hit below the
    backing store, a bottom hit otherwise), and its cascade writes back
    through levels ``1..clen`` — which also pins ``evictions[k] ==
    writebacks[k]`` for ``k >= 1`` and ``evictions[0] ==
    writebacks[0]`` (every compute-level eviction pairs with exactly
    one write-back).  The policy only decides *which* qubit moves, never
    how a move is counted, so this holds for every registered policy.
    ``location[q]`` is the final level of qubit ``q``.
    """
    bottom = stack.depth - 1
    n_finite = bottom
    n_misses = len(miss_src)
    occupancy = [0] * stack.depth
    for q in program.touched:
        occupancy[location[q]] += 1
    src_count = [0] * (bottom + 1)
    for s, cnt in Counter(miss_src).items():
        src_count[s] = cnt
    clen_count = [0] * (bottom + 1)
    for c, cnt in Counter(miss_clen).items():
        clen_count[c] = cnt
    evicted0 = sum(miss_evict)
    accesses = [0] * n_finite
    hits = [0] * n_finite
    misses = [0] * n_finite
    evictions = [0] * n_finite
    fetches = [0] * n_finite
    writebacks = [0] * n_finite
    accesses[0] = len(program.trace)
    misses[0] = n_misses
    hits[0] = accesses[0] - n_misses
    evictions[0] = evicted0
    writebacks[0] = evicted0
    fetches[0] = n_misses
    for k in range(1, n_finite):
        through = sum(src_count[k + 1:])  # searched past this level
        found = src_count[k]  # lookup_remove hits
        accesses[k] = through + found
        misses[k] = through
        hits[k] = found
        fetches[k] = through
        # clen >= k: the cascade reached (and wrote back through) k.
        bumped = sum(clen_count[k:])
        writebacks[k] = bumped
        evictions[k] = bumped
    return MovementTrace(
        workload=circuit.name or f"circuit-{circuit.n_qubits}q",
        policy=policy,
        depth=stack.depth,
        capacities=tuple(level.capacity for level in stack.levels),
        gate_ec=program.gate_ec_tuple,
        gate_nmiss=tuple(gate_nmiss),
        miss_src=tuple(miss_src),
        miss_evict=tuple(miss_evict),
        miss_clen=tuple(miss_clen),
        miss_qubit=tuple(miss_qubit),
        evict_qubit=tuple(evict_qubit),
        cascade_qubit=tuple(cascade_qubit),
        fetches=tuple(fetches),
        writebacks=tuple(writebacks),
        bottom_hits=src_count[bottom],
        level_accesses=tuple(accesses),
        level_hits=tuple(hits),
        level_misses=tuple(misses),
        level_evictions=tuple(evictions),
        final_occupancy=tuple(occupancy),
        total_ec=program.total_ec,
    )


def _extract_generic(
    stack: HierarchyStack,
    circuit: Circuit,
    policy: str,
    program: _ScanProgram,
) -> MovementTrace:
    """Extraction through the real policy objects (any registered
    policy).  Identical event stream to ``_run_reservation`` with the
    port arithmetic deleted; as on the flat path, the counters follow
    from the miss stream (see :func:`_trace_from_misses`)."""
    bottom = stack.depth - 1
    trace = program.trace
    caches = [
        PolicyCache(level.capacity, make_policy(policy), trace)
        for level in stack.levels[:-1]
    ]
    location = [-1] * circuit.n_qubits
    for q in program.touched:
        location[q] = bottom
    gate_nmiss: List[int] = []
    miss_src: List[int] = []
    miss_evict: List[int] = []
    miss_clen: List[int] = []
    miss_qubit: List[int] = []
    evict_qubit: List[int] = []
    cascade_qubit: List[int] = []
    pos = 0
    for qubits in program.gate_qubits:
        nmiss = 0
        issued: Set[int] = set()
        for q in qubits:
            src = location[q]
            if src == 0:
                caches[0].access_evicting(q, pos)  # guaranteed hit
                issued.add(q)
                pos += 1
                continue
            if src != bottom:
                caches[src].lookup_remove(q, pos)
            _, evicted = caches[0].access_evicting(q, pos, issued)
            location[q] = 0
            issued.add(q)
            clen = 0
            if evicted is not None:
                evict_qubit.append(evicted)
                location[evicted] = 1
                victim = evicted
                lvl = 1
                while lvl < bottom:
                    bumped = caches[lvl].insert(victim, pos)
                    if bumped is None:
                        break
                    cascade_qubit.append(bumped)
                    location[bumped] = lvl + 1
                    victim = bumped
                    lvl += 1
                    clen += 1
            miss_src.append(src)
            miss_evict.append(1 if evicted is not None else 0)
            miss_clen.append(clen)
            miss_qubit.append(q)
            nmiss += 1
            pos += 1
        gate_nmiss.append(nmiss)

    return _trace_from_misses(
        stack,
        circuit,
        policy,
        program,
        location,
        gate_nmiss,
        miss_src,
        miss_evict,
        miss_clen,
        miss_qubit,
        evict_qubit,
        cascade_qubit,
    )


# ----------------------------------------------------------------------
# pricing
# ----------------------------------------------------------------------

def _check_geometry(trace: MovementTrace, stack: HierarchyStack) -> None:
    if stack.depth != trace.depth or (
        tuple(level.capacity for level in stack.levels) != trace.capacities
    ):
        raise ValueError(
            "stack geometry does not match the movement trace: the "
            f"trace was extracted at depth {trace.depth} / capacities "
            f"{trace.capacities}, the pricing stack is depth "
            f"{stack.depth} / capacities "
            f"{tuple(lv.capacity for lv in stack.levels)} — traffic is "
            "only invariant across stacks of equal shape"
        )


def price_movement_trace(
    trace: MovementTrace, stack: HierarchyStack, recorder=None
) -> HierarchyEngineResult:
    """Replay ``trace`` against one stack's codes and port widths.

    Reproduces the greedy reservation arithmetic exactly: one plain
    float heap of lane free-times per network (the reference server's
    lane/version entries only tie-break equal floats, which are
    interchangeable), ``start = max(free, ready)``, lanes held through
    ``start + duration + hold``.  Every output float is bit-identical
    to :func:`~repro.sim.levels.simulate_hierarchy_run` on the same
    cell.

    ``recorder`` (a :class:`~repro.sim.residency.ResidencyRecorder`)
    receives exactly the ``begin`` / ``transfer`` / ``finish`` calls the
    audited reservation engine makes, in the same order — every touched
    qubit starts at the backing store, and the trace's identity fields
    name the qubit each priced hop carries.  Recording only observes
    the arithmetic; the returned floats are unchanged.
    """
    _check_geometry(trace, stack)
    networks = stack.networks()
    demote = [net.demote_time_s for net in networks]
    promote = [net.promote_time_s for net in networks]
    heaps = [[0.0] * max(1, round(net.effective_concurrency)) for net in networks]
    heapreplace = heapq.heapreplace
    top_op = stack.levels[0].op_time_s
    d0 = demote[0]
    p0 = promote[0]
    h0 = heaps[0]
    rec = None
    if recorder is not None:
        # Every qubit starts at the backing store, so each touched qubit
        # misses at its first access: the miss stream names them all.
        bottom = trace.depth - 1
        recorder.begin({q: bottom for q in sorted(set(trace.miss_qubit))})
        rec = recorder.transfer
        next_evicted = iter(trace.evict_qubit).__next__
        next_cascaded = iter(trace.cascade_qubit).__next__
    misses = zip(trace.miss_src, trace.miss_evict, trace.miss_clen, trace.miss_qubit)
    next_miss = misses.__next__
    compute_free = 0.0
    transfer_wait = 0.0
    compute_time = 0.0
    for ec, nmiss in zip(trace.gate_ec, trace.gate_nmiss):
        duration = ec * top_op
        compute_time += duration
        if not nmiss:
            # No arrivals: start = max(compute_free, 0.0) is just
            # compute_free (times never go negative).
            compute_free += duration
            continue
        arrivals = 0.0
        for _ in range(nmiss):
            src, ev, clen, q = next_miss()
            prev = 0.0
            if src > 1:
                # Depth 3 dominates real grids: unroll its single hop.
                if src == 2:
                    h = heaps[1]
                    free = h[0]
                    start = free if free > 0.0 else 0.0
                    prev = start + demote[1]
                    heapreplace(h, prev)
                    if rec is not None:
                        rec(q, 2, 1, start, prev, 1)
                else:
                    for k in range(src - 1, 0, -1):
                        h = heaps[k]
                        free = h[0]
                        start = free if free > prev else prev
                        prev = start + demote[k]
                        heapreplace(h, prev)
                        if rec is not None:
                            rec(q, k + 1, k, start, prev, k)
            free = h0[0]
            start = free if free > prev else prev
            arrival = start + d0
            if rec is not None:
                rec(q, 1, 0, start, arrival, 0)
            if ev:
                # The paired write-back holds the arrival port
                # (busy = start + demote + promote = arrival + promote,
                # matching the reference's left-associated sum).
                available = arrival + p0
                heapreplace(h0, available)
                if rec is not None:
                    rec(next_evicted(), 0, 1, arrival, available, 0)
                if clen == 1:
                    h = heaps[1]
                    free = h[0]
                    start2 = free if free > available else available
                    end = start2 + promote[1]
                    heapreplace(h, end)
                    if rec is not None:
                        rec(next_cascaded(), 1, 2, start2, end, 1)
                elif clen:
                    for lvl in range(1, clen + 1):
                        h = heaps[lvl]
                        free = h[0]
                        start2 = free if free > available else available
                        available = start2 + promote[lvl]
                        heapreplace(h, available)
                        if rec is not None:
                            rec(next_cascaded(), lvl, lvl + 1, start2, available, lvl)
            else:
                heapreplace(h0, arrival)
            if arrival > arrivals:
                arrivals = arrival
        start = compute_free if compute_free > arrivals else arrivals
        if arrivals > compute_free:
            transfer_wait += arrivals - compute_free
        compute_free = start + duration

    if recorder is not None:
        recorder.finish(compute_free)
    return _result_from_trace(trace, stack, compute_free, compute_time, transfer_wait)


def _result_from_trace(
    trace: MovementTrace,
    stack: HierarchyStack,
    total_time: float,
    compute_time: float,
    transfer_wait: float,
) -> HierarchyEngineResult:
    counters = zip(
        trace.level_accesses, trace.level_hits,
        trace.level_misses, trace.level_evictions,
    )
    level_stats = _level_stats(
        stack, counters, trace.final_occupancy, trace.bottom_hits
    )
    serial_bottom = trace.total_ec * stack.levels[-1].op_time_s
    return HierarchyEngineResult(
        workload=trace.workload,
        policy=trace.policy,
        depth=stack.depth,
        total_time_s=total_time,
        serial_bottom_time_s=serial_bottom,
        compute_time_s=compute_time,
        transfer_wait_s=transfer_wait,
        level_stats=level_stats,
        fetches=tuple(trace.fetches),
        writebacks=tuple(trace.writebacks),
    )


def price_movement_trace_batch(
    trace: MovementTrace,
    stacks: Sequence[HierarchyStack],
) -> List[HierarchyEngineResult]:
    """Price one movement trace across many stacks in one pass.

    The one-group case of :func:`price_movement_traces_multi`.
    """
    return price_movement_traces_multi([(trace, stacks)])[0]


def price_movement_traces_multi(
    groups: Sequence[Tuple[MovementTrace, Sequence[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    """Price many traffic groups' traces in one pass over the grid.

    ``groups`` pairs each movement trace with the stacks it prices
    (every stack must match its trace's geometry); the return value is
    one result list per group, in order — each row bit-identical to
    :func:`price_movement_trace` on that (trace, stack).

    From :data:`MULTI_NUMPY_THRESHOLD` total (group x config) cells up,
    even for a single group, the variable-length miss and gate streams
    are padded into one structured batch whose columns are *all* cells
    and replayed in a single vectorized pass (see
    :func:`_price_multi_numpy`), so the whole design space pays the
    per-step interpreter overhead once instead of once per traffic
    group; below it every stack is priced by the scalar
    :func:`price_movement_trace`.
    """
    prepared: List[Tuple[MovementTrace, List[HierarchyStack]]] = []
    for trace, stacks in groups:
        stacks = list(stacks)
        for stack in stacks:
            _check_geometry(trace, stack)
        prepared.append((trace, stacks))
    if sum(len(stacks) for _, stacks in prepared) < MULTI_NUMPY_THRESHOLD:
        return [
            [price_movement_trace(trace, stack) for stack in stacks]
            for trace, stacks in prepared
        ]
    return _price_multi_numpy(prepared)


def _price_multi_numpy(
    prepared: List[Tuple[MovementTrace, List[HierarchyStack]]],
) -> List[List[HierarchyEngineResult]]:
    """One vectorized pass over every (group x config) cell.

    Columns are all configs of all groups side by side; each group's
    miss and gate streams are zero-padded to the longest group's
    (``src == 0`` marks a padded miss, ``ec == 0`` a padded gate — both
    are exact no-ops on every accumulator, so padding never perturbs a
    bit).  Groups are mutually independent — no port array or register
    is shared across columns — so executing step ``m`` of every group
    simultaneously preserves each column's exact reservation order, and
    every per-column float op is the same IEEE-754 add/max/argmin the
    scalar heap performs (``argmin`` picks each column's earliest-free
    lane; lanes past a config's width are +inf, and ties are
    interchangeable equal floats): results are bit-identical to
    :func:`price_movement_trace`.

    The port phase never reads the compute clock (reservations depend
    only on earlier reservations), so the pass factorizes into a
    miss-stream phase that scatters per-gate arrival maxima and a
    gate-stream phase that replays the compute_free/transfer_wait scan
    — each a single loop over the *longest* group's stream instead of
    one loop per group.
    """
    import numpy as np

    n_groups = len(prepared)
    col_group: List[int] = []
    all_stacks: List[HierarchyStack] = []
    for g, (_, stacks) in enumerate(prepared):
        col_group.extend([g] * len(stacks))
        all_stacks.extend(stacks)
    n_cols = len(all_stacks)
    cg = np.asarray(col_group, dtype=np.intp)
    n_nets = max(trace.depth for trace, _ in prepared) - 1

    demote = np.zeros((n_nets, n_cols))
    promote = np.zeros((n_nets, n_cols))
    lanes = [[1] * n_cols for _ in range(n_nets)]
    for c, stack in enumerate(all_stacks):
        for k, net in enumerate(stack.networks()):
            demote[k, c] = net.demote_time_s
            promote[k, c] = net.promote_time_s
            lanes[k][c] = max(1, round(net.effective_concurrency))
    # One (columns, lanes) free-time array per network, inf-padded for
    # narrower configs; columns of shallower stacks simply never touch
    # the networks beyond their depth.
    free_t = []
    for k in range(n_nets):
        width = max(lanes[k])
        arr = np.full((n_cols, width), np.inf)
        for c in range(n_cols):
            arr[c, : lanes[k][c]] = 0.0
        free_t.append(arr)
    top_op = np.array([stack.levels[0].op_time_s for stack in all_stacks])

    max_misses = max(trace.n_misses for trace, _ in prepared)
    max_gates = max(len(trace.gate_ec) for trace, _ in prepared)
    src_g = np.zeros((max_misses, n_groups), dtype=np.int64)
    evcl_g = np.zeros((max_misses, n_groups), dtype=np.int64)
    ec_g = np.zeros((max_gates, n_groups), dtype=np.int64)
    for g, (trace, _) in enumerate(prepared):
        n_miss = trace.n_misses
        src_g[:n_miss, g] = trace.miss_src
        # evict and cascade length fold into one operand: a cascade
        # only exists under an eviction, so clen >= 1 implies evict,
        # and evict-without-cascade is encoded as clen == 0 with the
        # evict bit carried separately below via the sign-free split
        # evcl = evict + clen (evict in {0,1}, so evcl == 0 iff no
        # eviction, and the cascade reached level lvl iff
        # evcl - 1 >= lvl).
        evict = np.asarray(trace.miss_evict, dtype=np.int64)
        evcl_g[:n_miss, g] = evict + np.asarray(trace.miss_clen, dtype=np.int64)
        ec_g[: len(trace.gate_ec), g] = trace.gate_ec
    # Expand the per-group streams to per-column matrices once, so the
    # hot loops index views instead of paying a fancy gather per step.
    src_c = src_g[:, cg]
    evcl_c = evcl_g[:, cg]
    durations = ec_g[:, cg] * top_op

    # Pre-masked per-step operands for the all-active fast path below.
    # ``d_eff[k][m]`` is each column's hop-k demote time, already
    # zeroed where the column's miss does not hop through network k;
    # ``hop_f``/``casc_f`` are the same masks as exact 0.0/1.0 factors.
    # ``*_any[m]`` says whether any group fires the block at step m, so
    # empty blocks are skipped without a per-column scan.
    hop_f = [None] * n_nets
    d_eff = [None] * n_nets
    casc_f = [None] * n_nets
    p_eff = [None] * n_nets
    hop_any = [None] * n_nets
    casc_any = [None] * n_nets
    for k in range(1, n_nets):
        hmask = src_c > k
        hop_f[k] = hmask.astype(np.float64)
        d_eff[k] = demote[k] * hop_f[k]
        cmask = evcl_c > k
        casc_f[k] = cmask.astype(np.float64)
        p_eff[k] = promote[k] * casc_f[k]
        hop_any[k] = (src_g > k).any(axis=1)
        casc_any[k] = (evcl_g > k).any(axis=1)
    p0_eff = promote[0] * (evcl_c > 0)

    # ---- phase 1: the miss streams, all columns in lockstep ---------
    # Each step's arrival vector lands in its own row; the per-gate
    # arrival maxima fold out of the rows afterwards in one
    # ``maximum.reduceat`` per group (max is exact and associative, so
    # the segmented reduction reproduces the sequential fold bit for
    # bit) — cheaper than a fancy-indexed scatter-max on every step.
    arrival_rows = np.empty((max_misses, n_cols))
    zeros_cols = np.zeros(n_cols)
    prev_buf = np.empty(n_cols)
    avail_buf = np.empty(n_cols)
    flatnonzero = np.flatnonzero
    maximum = np.maximum
    rows = np.arange(n_cols)
    d0 = demote[0]
    p0 = promote[0]
    arr0 = free_t[0]
    # Steps below the shortest group's stream have every column active,
    # so they run without index subsetting: masked operands make each
    # op an exact identity on non-participating columns (prev == 0 at a
    # skipped hop, so max(free, 0) + 0.0 writes ``free`` back; a masked
    # avail of 0.0 does the same for a skipped cascade level).
    min_misses = min(trace.n_misses for trace, _ in prepared)
    for m in range(min_misses):
        prev = zeros_cols
        # Hop down: network k serves every column whose miss source
        # lies above it (k <= src - 1), highest network first —
        # exactly each column's scalar hop order.
        for k in range(n_nets - 1, 0, -1):
            if not hop_any[k][m]:
                continue
            arr = free_t[k]
            lane = arr.argmin(axis=1)
            free = arr[rows, lane]
            busy = maximum(free, prev) + d_eff[k][m]
            arr[rows, lane] = busy
            prev = busy * hop_f[k][m]
        lane = arr0.argmin(axis=1)
        free = arr0[rows, lane]
        arrival = maximum(free, prev) + d0
        # The paired write-back holds the arrival port (the reference's
        # left-associated start + demote + promote); a non-evicting
        # miss adds an exact 0.0 instead, which preserves bits.
        busy = arrival + p0_eff[m]
        arr0[rows, lane] = busy
        arrival_rows[m] = arrival
        if n_nets > 1 and casc_any[1][m]:
            avail = busy * casc_f[1][m]
            for lvl in range(1, n_nets):
                if not casc_any[lvl][m]:
                    break
                arr = free_t[lvl]
                lane = arr.argmin(axis=1)
                free = arr[rows, lane]
                nxt = maximum(free, avail) + p_eff[lvl][m]
                arr[rows, lane] = nxt
                if lvl + 1 < n_nets:
                    avail = nxt * casc_f[lvl + 1][m]
    # The padded tail: shorter groups have run dry (src == 0), so ops
    # subset down to the still-active columns.
    for m in range(min_misses, max_misses):
        src = src_c[m]
        prev = prev_buf
        avail = avail_buf
        prev[:] = 0.0
        # A zero row contributes nothing to any gate's arrival maximum
        # (the accumulators never go negative), so inactive columns are
        # exact no-ops in the segmented reduction below.
        arrival_rows[m] = 0.0
        for k in range(n_nets - 1, 0, -1):
            idx = flatnonzero(src > k)
            if idx.size == 0:
                continue
            arr = free_t[k]
            lane = arr.argmin(axis=1)[idx]
            start = maximum(arr[idx, lane], prev[idx])
            busy = start + demote[k, idx]
            arr[idx, lane] = busy
            prev[idx] = busy
        idx = flatnonzero(src)
        if idx.size == 0:
            continue
        evcl = evcl_c[m]
        lane = arr0.argmin(axis=1)[idx]
        start = maximum(arr0[idx, lane], prev[idx])
        arrival = start + d0[idx]
        busy = arrival + p0[idx] * (evcl[idx] > 0)
        arr0[idx, lane] = busy
        avail[idx] = busy
        arrival_rows[m][idx] = arrival
        for lvl in range(1, n_nets):
            idx = flatnonzero(evcl > lvl)
            if idx.size == 0:
                break
            arr = free_t[lvl]
            lane = arr.argmin(axis=1)[idx]
            start2 = maximum(arr[idx, lane], avail[idx])
            nxt = start2 + promote[lvl, idx]
            arr[idx, lane] = nxt
            avail[idx] = nxt

    # Fold each gate's arrival maximum out of its miss rows.  A gate's
    # misses occupy consecutive rows (``gate_nmiss`` counts them), so
    # one segmented max per group reproduces the sequential per-miss
    # fold exactly.  Trailing miss-free gates are left at zero rather
    # than passed to ``reduceat`` (whose degenerate segments would read
    # out of bounds); interior miss-free gates yield degenerate
    # segments that are overwritten with the 0.0 the reference uses.
    arrivals = np.zeros((max_gates, n_cols))
    offset = 0
    for trace, stacks in prepared:
        sl = slice(offset, offset + len(stacks))
        offset += len(stacks)
        if trace.n_misses == 0:
            continue
        nmiss = np.asarray(trace.gate_nmiss, dtype=np.int64)
        last = int(np.nonzero(nmiss)[0][-1])
        starts = np.zeros(last + 1, dtype=np.int64)
        np.cumsum(nmiss[:last], out=starts[1:])
        seg = np.maximum.reduceat(
            arrival_rows[: trace.n_misses, sl], starts, axis=0
        )
        seg[nmiss[: last + 1] == 0] = 0.0
        arrivals[: last + 1, sl] = seg

    # ---- phase 2: the gate streams, all columns in lockstep ---------
    where = np.where
    compute_free = np.zeros(n_cols)
    transfer_wait = np.zeros(n_cols)
    compute_time = np.zeros(n_cols)
    for i in range(max_gates):
        gate_arrivals = arrivals[i]
        start = maximum(compute_free, gate_arrivals)
        delta = gate_arrivals - compute_free
        # Adding 0.0 where there was no wait preserves bits (the
        # accumulators never go negative, so x + 0.0 == x exactly).
        transfer_wait += where(delta > 0.0, delta, 0.0)
        duration = durations[i]
        compute_free = start + duration
        compute_time = compute_time + duration

    results: List[List[HierarchyEngineResult]] = []
    c = 0
    for trace, stacks in prepared:
        group_rows = []
        for stack in stacks:
            group_rows.append(
                _result_from_trace(
                    trace,
                    stack,
                    float(compute_free[c]),
                    float(compute_time[c]),
                    float(transfer_wait[c]),
                )
            )
            c += 1
        results.append(group_rows)
    return results
