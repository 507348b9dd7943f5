"""Noise-aware residency: per-qubit intervals + logical-error accrual.

The engine prices *time*; this module prices *fidelity* on top of it.
Every engine dialect (the reservation model, the split-transaction
reference, and the flattened :mod:`repro.sim.fastsplit` engine) accepts
an optional :class:`ResidencyRecorder` that observes each qubit's
movements: where it starts, every hop it takes across a boundary
network, and when the run's horizon closes.  :meth:`ResidencyRecorder.
finish` turns that movement log into per-qubit *residency intervals* —
an exact partition of ``[0, horizon]`` into level-tagged parked spans
and network-tagged in-flight spans — and :func:`accrue_residency`
integrates those intervals against per-level error rates derived from
each level's concatenated code, calibrated by the ECC Monte Carlo
(:mod:`repro.ecc.montecarlo`).  The result is a ``(makespan_s,
logical_error)`` pair with a per-level breakdown
(:class:`FidelityResult`), surfaced in one call through
:func:`simulate_fidelity_run`.

Interval semantics per dialect
------------------------------

* **Split-transaction / fastsplit**: each qubit's transfers complete in
  per-qubit causal order (the movement queues serialize them), so the
  recorded intervals are exact and ``clamped == 0``.
* **Reservation model**: ports are greedily reserved at *scan* time, so
  a later movement of a qubit can be booked at an earlier port slot
  than its previous arrival.  The recorder monotonizes by
  clamp-truncation — the inverted span is charged to the level the
  qubit was parked at, the transit span shrinks (possibly to zero), and
  ``clamped`` counts the events.  The partition invariant holds exactly
  in every dialect; clamping only ever *under*-charges a little transit
  time in the reservation dialect's scan-time approximation.  Recorded
  reservation runs are priced by the replay pricer
  (:func:`repro.sim.replay.price_movement_trace`) from the qubit
  identities a format-2 movement trace carries; it makes the same
  recorder calls as the audited event-kernel engine, so records,
  intervals and ``clamped`` counts are bit-identical between the two.

Noise derivation
----------------

``code_noise`` runs the batched Monte Carlo decoder at a calibration
physical rate (:data:`P_CAL`), scales the Gottesman Equation 1 analytic
failure rate by the measured-vs-analytic ratio at level 1, and applies
that scale at the level of interest — an MC-calibrated analytic model,
deterministic for a fixed ``(trials, seed)``.  A level's coherence time
is one EC period over its per-cycle error rate; an in-flight qubit on
network ``k`` is charged at the *worse* endpoint's per-second rate (the
shallower level — deeper levels are doubly-exponentially more
reliable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..ecc.concatenated import by_key
from ..ecc.montecarlo import logical_error_rate

#: Calibration physical error rate of the Monte Carlo scale factor:
#: large enough that 2000 trials resolve a nonzero failure count for
#: both shipped codes, small enough to sit in the ``c * p**2`` regime.
P_CAL = 0.01

#: Default Monte Carlo calibration budget (trials, seed).  The seed is
#: chosen so both shipped codes measure a nonzero failure count at
#: :data:`P_CAL` — the scale factor is then data, not the fallback.
FIDELITY_TRIALS = 2000
FIDELITY_SEED = 2006

#: Interval kinds.
LEVEL, TRANSIT = "level", "transit"


class Interval(NamedTuple):
    """One span of a qubit's residency timeline.

    ``kind == "level"`` parks the qubit at hierarchy level ``place``;
    ``kind == "transit"`` has it in flight on boundary network
    ``place`` (which joins levels ``place`` and ``place + 1``).  A
    named tuple rather than a frozen dataclass: a fidelity grid builds
    ~10^5 of them, and construction dominates the recorder's ``finish``.
    """

    start: float
    end: float
    kind: str
    place: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class ResidencyRecorder:
    """Collects per-qubit movement records from one engine run.

    Engines call :meth:`begin` with the initial location map, then
    :meth:`transfer` once per completed hop, then :meth:`finish` with
    the makespan.  ``finish`` builds ``intervals`` — for every touched
    qubit, an exact partition of ``[0, horizon]`` (see the module
    docstring for the per-dialect clamp semantics).
    """

    def __init__(self) -> None:
        #: Flat movement log: (qubit, src, dst, start, end, net).
        self.records: List[Tuple[int, int, int, float, float, int]] = []
        self._initial: Dict[int, int] = {}
        self._finished = False
        self.makespan = 0.0
        self.horizon = 0.0
        #: Reservation-dialect time inversions, monotonized away.
        self.clamped = 0
        #: Records whose source level disagreed with the tracked
        #: location — an engine accounting bug; must stay 0 everywhere.
        self.mismatches = 0
        self.intervals: Dict[int, List[Interval]] = {}
        self.final_level: Dict[int, int] = {}

    def begin(self, locations: Mapping[int, int]) -> None:
        """Record where every touched qubit starts (engine-called)."""
        self._initial = dict(locations)

    def transfer(
        self, qubit: int, src: int, dst: int, start: float, end: float,
        net: int,
    ) -> None:
        """One completed hop of ``qubit`` on network ``net``."""
        self.records.append((qubit, src, dst, start, end, net))

    def finish(self, makespan: float) -> "ResidencyRecorder":
        """Close the run and build the per-qubit interval partitions.

        Idempotent: a second call is a no-op (engines may finish a
        recorder that a wrapper also finishes defensively).
        """
        if self._finished:
            return self
        self._finished = True
        self.makespan = makespan
        horizon = makespan
        for rec in self.records:
            if rec[4] > horizon:
                horizon = rec[4]
        self.horizon = horizon
        per_qubit: Dict[int, List[Tuple[int, int, int, float, float, int]]]
        per_qubit = {q: [] for q in self._initial}
        for rec in self.records:
            per_qubit[rec[0]].append(rec)
        for q, level in self._initial.items():
            timeline: List[Interval] = []
            cur_t = 0.0
            cur_level = level
            for _, src, dst, start, end, net in per_qubit[q]:
                if src != cur_level:
                    self.mismatches += 1
                if start < cur_t:
                    # Reservation-dialect inversion: truncate the
                    # transit span so the partition stays exact.
                    self.clamped += 1
                    start = cur_t
                    if end < start:
                        end = start
                if start > cur_t:
                    timeline.append(Interval(cur_t, start, LEVEL, cur_level))
                if end > start:
                    timeline.append(Interval(start, end, TRANSIT, net))
                cur_t = end
                cur_level = dst
            if horizon > cur_t:
                timeline.append(Interval(cur_t, horizon, LEVEL, cur_level))
            self.intervals[q] = timeline
            self.final_level[q] = cur_level
        return self

    @property
    def finished(self) -> bool:
        return self._finished

    def partition_ok(self) -> bool:
        """Exact-partition invariant over every qubit's timeline.

        Each timeline must start at 0, be contiguous (every interval
        starts exactly where the previous one ended — float-exact, by
        construction), contain no negative-width spans, and end exactly
        at the shared horizon.
        """
        if not self._finished:
            raise RuntimeError("partition_ok() before finish()")
        for timeline in self.intervals.values():
            t = 0.0
            for iv in timeline:
                if iv.start != t or iv.end < iv.start:
                    return False
                t = iv.end
            if t != self.horizon:
                return False
        return True

    def level_time(self, q: int) -> Dict[int, float]:
        """Summed parked time of qubit ``q`` per hierarchy level."""
        out: Dict[int, float] = {}
        for iv in self.intervals[q]:
            if iv.kind == LEVEL:
                out[iv.place] = out.get(iv.place, 0.0) + iv.duration
        return out

    def transit_time(self, q: int) -> float:
        """Summed in-flight time of qubit ``q`` across every network."""
        return sum(
            iv.duration for iv in self.intervals[q] if iv.kind == TRANSIT
        )


# ----------------------------------------------------------------------
# MC-calibrated per-level noise
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LevelNoise:
    """Noise parameters of one hierarchy level's encoding point.

    ``cycle_error_rate`` is the per-EC-cycle logical failure
    probability (Monte-Carlo-calibrated Equation 1); ``cycle_time_s``
    one EC period.  ``coherence_time_s`` is the derived mean time to
    logical failure for a parked qubit, and ``error_rate_per_s`` its
    reciprocal — the exponent accrual rate residency integrates.
    """

    code_key: str
    code_level: int
    cycle_time_s: float
    cycle_error_rate: float

    @property
    def error_rate_per_s(self) -> float:
        return self.cycle_error_rate / self.cycle_time_s

    @property
    def coherence_time_s(self) -> float:
        return self.cycle_time_s / self.cycle_error_rate


@lru_cache(maxsize=None)
def code_noise(
    code_key: str,
    code_level: int,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> LevelNoise:
    """MC-calibrated :class:`LevelNoise` of one (code, level) point.

    The batched decoder measures the level-1 logical error rate at the
    calibration physical rate :data:`P_CAL`; the ratio against the
    analytic Equation 1 value at the same point scales the analytic
    rate at ``code_level`` under the default technology point.  When
    the measurement resolves zero failures (below MC resolution at the
    given trial budget) the analytic rate is kept unscaled.
    """
    code = by_key(code_key)
    mc = logical_error_rate(
        code.algebraic_code(), P_CAL, trials=trials, seed=seed
    )
    if mc.failures == 0:
        scale = 1.0
    else:
        scale = mc.logical_error_rate / code.failure_rate(1, p0=P_CAL)
    rate = min(1.0, scale * code.failure_rate(code_level))
    return LevelNoise(
        code_key=code_key,
        code_level=code_level,
        cycle_time_s=code.ec_time_s(code_level),
        cycle_error_rate=rate,
    )


@dataclass(frozen=True)
class StackNoise:
    """Per-level and per-network accrual rates of one hierarchy stack.

    ``transit_rates[k]`` charges a qubit in flight on network ``k`` at
    the worse endpoint's per-second rate — the shallower level's, since
    deeper levels are doubly-exponentially more reliable.
    """

    levels: Tuple[LevelNoise, ...]
    level_rates: Tuple[float, ...]
    transit_rates: Tuple[float, ...]


def stack_noise(
    stack,
    *,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> StackNoise:
    """The :class:`StackNoise` of a :class:`~repro.sim.levels.HierarchyStack`."""
    levels = tuple(
        code_noise(level.code_key, level.code_level, trials, seed)
        for level in stack.levels
    )
    level_rates = tuple(noise.error_rate_per_s for noise in levels)
    transit_rates = tuple(
        max(level_rates[k], level_rates[k + 1])
        for k in range(len(levels) - 1)
    )
    return StackNoise(
        levels=levels, level_rates=level_rates, transit_rates=transit_rates
    )


# ----------------------------------------------------------------------
# accrual
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FidelityResult:
    """Logical-error accrual of one run, with a per-level breakdown.

    ``level_exponents[l]`` is the summed ``duration * rate`` exponent
    accrued parked at level ``l`` (over all qubits);
    ``transit_exponent`` the same for in-flight spans across every
    network.  ``logical_error`` is ``1 - exp(-total)`` — the survival
    model's probability that at least one logical failure occurred.
    """

    makespan_s: float
    horizon_s: float
    logical_error: float
    level_exponents: Tuple[float, ...]
    transit_exponent: float

    @property
    def total_exponent(self) -> float:
        return sum(self.level_exponents) + self.transit_exponent

    @property
    def level_errors(self) -> Tuple[float, ...]:
        """Per-level failure probabilities, each taken in isolation."""
        return tuple(-math.expm1(-x) for x in self.level_exponents)

    @property
    def transit_error(self) -> float:
        return -math.expm1(-self.transit_exponent)


def accrue_residency(
    recorder: ResidencyRecorder,
    stack,
    *,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
) -> FidelityResult:
    """Integrate a finished recorder's intervals against stack noise."""
    if not recorder.finished:
        raise ValueError("accrue_residency() requires a finished recorder")
    noise = stack_noise(stack, trials=trials, seed=seed)
    level_exp = [0.0] * stack.depth
    transit_exp = 0.0
    for timeline in recorder.intervals.values():
        for iv in timeline:
            if iv.kind == LEVEL:
                level_exp[iv.place] += iv.duration * noise.level_rates[iv.place]
            else:
                transit_exp += iv.duration * noise.transit_rates[iv.place]
    total = sum(level_exp) + transit_exp
    return FidelityResult(
        makespan_s=recorder.makespan,
        horizon_s=recorder.horizon,
        logical_error=-math.expm1(-total),
        level_exponents=tuple(level_exp),
        transit_exponent=transit_exp,
    )


def simulate_fidelity_run(
    stack,
    workload,
    policy: str = "lru",
    *,
    window: Optional[int] = None,
    fetch: str = "optimized",
    order: Optional[Sequence[int]] = None,
    prefetch: str = "none",
    pipeline: Optional[bool] = None,
    trials: int = FIDELITY_TRIALS,
    seed: int = FIDELITY_SEED,
):
    """One engine run priced in both time and fidelity.

    Runs :func:`repro.sim.levels.simulate_hierarchy_run` with a
    :class:`ResidencyRecorder` attached and returns ``(result,
    fidelity)`` — the unchanged
    :class:`~repro.sim.levels.HierarchyEngineResult` (every float
    bit-identical to a recorder-less run) plus the
    :class:`FidelityResult` accrued from the recorded intervals.
    """
    from .levels import simulate_hierarchy_run

    recorder = ResidencyRecorder()
    result = simulate_hierarchy_run(
        stack,
        workload,
        policy,
        window=window,
        fetch=fetch,
        order=order,
        prefetch=prefetch,
        pipeline=pipeline,
        recorder=recorder,
    )
    recorder.finish(result.total_time_s)
    fidelity = accrue_residency(recorder, stack, trials=trials, seed=seed)
    return result, fidelity


__all__ = [
    "P_CAL",
    "FIDELITY_TRIALS",
    "FIDELITY_SEED",
    "Interval",
    "ResidencyRecorder",
    "LevelNoise",
    "StackNoise",
    "code_noise",
    "stack_noise",
    "FidelityResult",
    "accrue_residency",
    "simulate_fidelity_run",
]
