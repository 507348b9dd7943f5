"""Property pins for the traffic/price factorization and the fast DES.

Two invariants carry the whole batched-sweep design:

* **Traffic invariance** — reservation-model replacement traffic is a
  function of geometry (capacities, depth), policy, and the gate trace
  alone.  Stacks that differ only in code assignment (which codes
  encode which levels, how many parallel transfer channels) must
  produce the *byte-identical* serialized movement trace, which is why
  one simulation can be re-priced across the whole code axis.
* **Pricing exactness** — replaying that trace through the re-pricer
  must equal the direct simulator with ``==`` on every row field (the
  floats come out of the same arithmetic, not a tolerance away from
  it), for both the scalar and the numpy pricers.

Plus the split-transaction pin: the flattened event loop
(:mod:`repro.sim.fastsplit`) dispatched by ``simulate_hierarchy_run``
is held bit-identical to the retained reference across a policy ×
prefetcher × stack matrix.
"""

import json
import logging
import random
from contextlib import contextmanager, nullcontext

import pytest

from repro.circuits.workloads import build_workload
from repro.sim import policies
from repro.sim.cache import simulate_optimized
from repro.sim import fastsplit, replay
from repro.sim.fastsplit import supports_fast_split
from repro.sim.levels import (
    mixed_stack,
    simulate_hierarchy_run,
    simulate_hierarchy_run_audited,
    standard_stack,
)
from repro.sim.policies import LruPolicy, available_policies, register_policy
from repro.sim.prefetch import available_prefetchers
from repro.sim.replay import (
    _extract_flat,
    _extract_generic,
    _price_multi_numpy,
    _scan_program,
    extract_movement_trace,
    price_movement_trace,
    price_movement_trace_batch,
    price_movement_traces_multi,
)


#: The shipped registries, read at import time (before any test can
#: register an extension of its own).
SHIPPED_POLICIES = available_policies()
SHIPPED_PREFETCHERS = available_prefetchers()


class _MruPolicy(LruPolicy):
    """A test-only extension: evict the *most* recently used resident."""

    name = "test-only-mru"

    def victim(self, pos, pinned=()):
        for qubit in reversed(self._order):
            if qubit not in pinned:
                return qubit
        return next(reversed(self._order))  # unsatisfiable pin


@contextmanager
def _registered(policy_cls):
    """Register a test-only policy for the duration of a block."""
    register_policy(policy_cls)
    try:
        yield policy_cls.name
    finally:
        del policies._REGISTRY[policy_cls.name]


def _code_variants(depth, compute_qubits, cache_factor, parallel_transfers):
    """Every code assignment of one fixed geometry."""
    kwargs = dict(depth=depth, compute_qubits=compute_qubits,
                  cache_factor=cache_factor,
                  parallel_transfers=parallel_transfers)
    return [
        standard_stack("steane", **kwargs),
        standard_stack("bacon_shor", **kwargs),
        mixed_stack("steane", "bacon_shor", **kwargs),
        mixed_stack("bacon_shor", "steane", **kwargs),
    ]


def _random_cases(count, seed=2006):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        cases.append(dict(
            workload=rng.choice(["draper_adder", "qft", "modexp_trace"]),
            n_bits=rng.choice([12, 16, 24, 32]),
            depth=rng.choice([2, 3, 4]),
            compute_qubits=rng.choice([8, 12, 17]),
            cache_factor=rng.choice([1.0, 1.5]),
            parallel_transfers=rng.choice([5, 10]),
            policy=rng.choice(available_policies()),
        ))
    return cases


class TestTrafficInvariance:
    @pytest.mark.parametrize("case", _random_cases(10),
                             ids=lambda c: f"{c['workload']}-{c['n_bits']}-"
                                           f"d{c['depth']}-{c['policy']}")
    def test_trace_bytes_and_pricing_exact(self, case):
        circuit = build_workload(case["workload"], case["n_bits"])
        stacks = _code_variants(case["depth"], case["compute_qubits"],
                                case["cache_factor"],
                                case["parallel_transfers"])
        order = simulate_optimized(
            circuit, stacks[0].levels[0].capacity
        ).order
        traces = [
            extract_movement_trace(stack, circuit, case["policy"],
                                   order=order)
            for stack in stacks
        ]
        blobs = {trace.to_bytes() for trace in traces}
        assert len(blobs) == 1, "movement trace depends on code assignment"

        direct = [
            simulate_hierarchy_run(stack, circuit, case["policy"],
                                   order=order)
            for stack in stacks
        ]
        scalar = [price_movement_trace(traces[0], stack) for stack in stacks]
        assert scalar == direct

    def test_numpy_engine_exact(self):
        # One case through the vectorized pricer, above the dispatch
        # threshold: replicating the stack list must replicate the rows
        # exactly — the numpy path is arithmetic-identical, not close.
        circuit = build_workload("draper_adder", 24)
        stacks = _code_variants(3, 12, 1.0, 10) * 16
        order = simulate_optimized(
            circuit, stacks[0].levels[0].capacity
        ).order
        trace = extract_movement_trace(stacks[0], circuit, "lru",
                                       order=order)
        batched = _price_multi_numpy([(trace, stacks)])[0]
        direct = [
            simulate_hierarchy_run(stack, circuit, "lru", order=order)
            for stack in stacks
        ]
        assert batched == direct
        assert price_movement_trace_batch(trace, stacks) == direct


class TestMultiGroupPricing:
    """Whole-grid one-pass pricing vs per-group batched pricing.

    ``price_movement_traces_multi`` pads variable-length traces from
    many traffic groups into one structured batch; every path — the
    dispatcher, per-group ``price_movement_trace_batch`` and the numpy
    pass called directly — must return rows ``==``-identical to the
    scalar ``price_movement_trace`` run per stack.  The group set is
    deliberately ragged — different workloads, sizes, depths, policies,
    and *unequal config counts* — so the padding tail, and groups whose
    trailing gates are miss-free (the ``reduceat`` fold's boundary
    case), are all exercised.
    """

    # (workload, n_bits, depth, policy, widths); qft-12-d2 has ~11
    # trailing miss-free gates, modexp is the longest trace, and the
    # widths lists give groups 8, 4, and 12 priced configurations.
    GROUP_SPECS = [
        ("draper_adder", 16, 3, "lru", (5, 10)),
        ("qft", 12, 2, "belady", (7,)),
        ("modexp_trace", 12, 2, "fifo", (4, 8, 12)),
    ]

    @staticmethod
    def _build(specs):
        groups = []
        for workload, n_bits, depth, policy, widths in specs:
            circuit = build_workload(workload, n_bits)
            stacks = [
                stack
                for width in widths
                for stack in _code_variants(depth, 12, 1.0, width)
            ]
            order = simulate_optimized(
                circuit, stacks[0].levels[0].capacity
            ).order
            trace = extract_movement_trace(stacks[0], circuit, policy,
                                           order=order)
            groups.append((trace, stacks))
        return groups

    def test_trailing_missfree_gates_present(self):
        # The boundary case must actually be in the fixture: a group
        # whose last gates incur no misses (the fold must leave their
        # arrival rows at zero, not clip into the prior gate's segment).
        groups = self._build(self.GROUP_SPECS)
        assert any(
            trace.n_misses > 0 and trace.gate_nmiss[-1] == 0
            for trace, _ in groups
        )

    PATHS = {
        "auto": price_movement_traces_multi,
        "grouped": lambda groups: [
            price_movement_trace_batch(trace, stacks)
            for trace, stacks in groups
        ],
        "numpy": _price_multi_numpy,
    }

    @staticmethod
    def _scalar(groups):
        return [
            [price_movement_trace(trace, stack) for stack in stacks]
            for trace, stacks in groups
        ]

    @pytest.mark.parametrize("engine", ["auto", "grouped", "numpy"])
    def test_exact_vs_per_group(self, engine):
        groups = self._build(self.GROUP_SPECS)
        assert self.PATHS[engine](groups) == self._scalar(groups)

    @pytest.mark.parametrize("engine", ["auto", "grouped", "numpy"])
    def test_single_group_and_empty(self, engine):
        groups = self._build(self.GROUP_SPECS[:1])
        assert self.PATHS[engine](groups) == self._scalar(groups)
        if engine != "numpy":  # the numpy pass needs at least one cell
            assert self.PATHS[engine]([]) == []


class TestFastSplitEquivalence:
    """The flattened split-transaction loop vs the retained reference."""

    CASES = [
        ("draper_adder", 48, 2), ("draper_adder", 48, 3), ("qft", 32, 3),
    ]

    @pytest.mark.parametrize("policy", available_policies())
    @pytest.mark.parametrize("prefetch", available_prefetchers())
    @pytest.mark.parametrize("workload,n_bits,depth", CASES)
    def test_bit_identical_to_reference(self, workload, n_bits, depth,
                                        policy, prefetch):
        circuit = build_workload(workload, n_bits)
        for stack in (
            standard_stack("steane", depth, compute_qubits=12),
            mixed_stack("bacon_shor", "steane", depth=depth,
                        compute_qubits=12),
        ):
            order = simulate_optimized(
                circuit, stack.levels[0].capacity
            ).order
            fast = simulate_hierarchy_run(
                stack, circuit, policy, order=order, prefetch=prefetch,
                pipeline=True,
            )
            reference, _ = simulate_hierarchy_run_audited(
                stack, circuit, policy, order=order, prefetch=prefetch,
                pipeline=True,
            )
            assert fast == reference

    @pytest.mark.parametrize("prefetch", ("next_k", "distance"))
    @pytest.mark.parametrize("depth", (3, 4))
    def test_fidelity_ledger_on_deep_tight_stacks(self, depth, prefetch):
        # Small caps over several levels: prefetches quietly pull qubits
        # out of intermediate levels and cascades bump through them, so
        # every trip-ledger hook of the fidelity kernel is exercised.
        circuit = build_workload("modexp_trace", 24)
        for stack in (
            standard_stack("steane", depth, compute_qubits=8),
            mixed_stack("bacon_shor", "steane", depth=depth, compute_qubits=8),
        ):
            order = simulate_optimized(circuit, stack.levels[0].capacity).order
            fast = simulate_hierarchy_run(
                stack, circuit, "fidelity", order=order, prefetch=prefetch,
            )
            reference, _ = simulate_hierarchy_run_audited(
                stack, circuit, "fidelity", order=order, prefetch=prefetch,
            )
            assert fast == reference

    def test_every_shipped_cell_runs_flattened(self):
        uncovered = [
            (policy, prefetch)
            for policy in SHIPPED_POLICIES
            for prefetch in SHIPPED_PREFETCHERS
            if not supports_fast_split(policy, prefetch)
        ]
        assert uncovered == []

    def test_reference_fallback_is_logged(self, caplog):
        class TestOnlyPolicy(LruPolicy):
            name = "test-only-lru"

        register_policy(TestOnlyPolicy)
        try:
            assert not supports_fast_split("test-only-lru", "next_k")
            circuit = build_workload("draper_adder", 12)
            stack = standard_stack("steane", 2, compute_qubits=12)
            with caplog.at_level(logging.DEBUG, logger="repro.sim.levels"):
                result = simulate_hierarchy_run(
                    stack, circuit, "test-only-lru", prefetch="next_k"
                )
                simulate_hierarchy_run(stack, circuit, "lru", prefetch="next_k")
        finally:
            del policies._REGISTRY["test-only-lru"]
        assert result.policy == "test-only-lru"
        records = [r for r in caplog.records if r.name == "repro.sim.levels"]
        assert len(records) == 1  # the covered lru run logs nothing
        assert records[0].levelno == logging.DEBUG
        message = records[0].getMessage()
        assert "'test-only-lru'" in message and "'next_k'" in message


class TestFlatReplacement:
    """One flattened replacement kernel, shared by both fast engines."""

    @pytest.mark.parametrize("depth", (2, 3, 4))
    @pytest.mark.parametrize("workload,n_bits", [("draper_adder", 24),
                                                 ("modexp_trace", 16)])
    @pytest.mark.parametrize("policy", SHIPPED_POLICIES)
    def test_flat_extraction_bytes_equal_generic(self, policy, workload,
                                                 n_bits, depth):
        # Byte-equal traces, qubit identities included: either loop
        # writes the same format-2 blob (TRACE_FORMAT_VERSION is 2).
        circuit = build_workload(workload, n_bits)
        stack = standard_stack("steane", depth, compute_qubits=8)
        order = simulate_optimized(circuit, stack.levels[0].capacity).order
        program = _scan_program(circuit, order)
        flat = _extract_flat(stack, circuit, policy, program)
        generic = _extract_generic(stack, circuit, policy, program)
        assert flat.to_bytes() == generic.to_bytes()
        assert replay.TRACE_FORMAT_VERSION == 2

    def test_one_policy_set_gates_both_engines(self):
        assert set(SHIPPED_POLICIES) <= replay._FLAT_POLICIES
        assert fastsplit._FLAT_POLICIES is replay._FLAT_POLICIES
        for policy in SHIPPED_POLICIES + ("test-only-mru",):
            for prefetch in SHIPPED_PREFETCHERS:
                assert supports_fast_split(policy, prefetch) == (
                    policy in replay._FLAT_POLICIES
                )

    @pytest.mark.parametrize("depth", (2, 3, 4))
    def test_generic_counters_from_miss_stream(self, depth):
        # The PolicyCache path derives its counters from the miss stream
        # alone; a policy no flattened kernel knows must still agree
        # with the reference engine on every field.
        circuit = build_workload("modexp_trace", 16)
        stack = standard_stack("steane", depth, compute_qubits=8)
        with _registered(_MruPolicy) as policy:
            fast = simulate_hierarchy_run(stack, circuit, policy)
            reference, _ = simulate_hierarchy_run_audited(
                stack, circuit, policy
            )
            replayed = price_movement_trace(
                extract_movement_trace(stack, circuit, policy), stack
            )
        assert fast == reference == replayed
        lru = simulate_hierarchy_run(stack, circuit, "lru")
        assert fast.level_stats != lru.level_stats  # a distinct policy

    def test_generic_extraction_is_logged(self, caplog):
        circuit = build_workload("draper_adder", 12)
        stack = standard_stack("steane", 3, compute_qubits=8)
        with _registered(_MruPolicy) as policy:
            with caplog.at_level(logging.DEBUG, logger="repro.sim.replay"):
                extract_movement_trace(stack, circuit, policy)
                for shipped in SHIPPED_POLICIES:
                    extract_movement_trace(stack, circuit, shipped)
        records = [r for r in caplog.records if r.name == "repro.sim.replay"]
        assert len(records) == 1  # shipped policies log nothing
        assert records[0].levelno == logging.DEBUG
        assert "'test-only-mru'" in records[0].getMessage()


class TestTraceFormatV2:
    """The qubit-identity fields of format 2 traces."""

    @staticmethod
    def _trace(policy, depth):
        # A tight stack: depth-3 cascades and depth-4 multi-level ones.
        circuit = build_workload("modexp_trace", 16)
        stack = standard_stack("steane", depth, compute_qubits=4,
                               cache_factor=1.0)
        return extract_movement_trace(stack, circuit, policy), circuit

    @pytest.mark.parametrize("depth", (2, 3, 4))
    @pytest.mark.parametrize("policy", SHIPPED_POLICIES + ("test-only-mru",))
    def test_identity_fields_follow_the_miss_stream(self, policy, depth):
        test_only = policy == "test-only-mru"
        with _registered(_MruPolicy) if test_only else nullcontext():
            trace, circuit = self._trace(policy, depth)
        assert len(trace.miss_qubit) == trace.n_misses
        assert len(trace.evict_qubit) == sum(trace.miss_evict)
        assert len(trace.cascade_qubit) == sum(trace.miss_clen)
        # Replaying the identities from "everything at the backing
        # store" reproduces every recorded source level and the final
        # occupancy: each identity names the qubit its movement carries.
        bottom = depth - 1
        location = {q: bottom for q in circuit.touched_qubits()}
        evicted = iter(trace.evict_qubit)
        cascaded = iter(trace.cascade_qubit)
        for q, src, ev, clen in zip(trace.miss_qubit, trace.miss_src,
                                    trace.miss_evict, trace.miss_clen):
            assert location[q] == src
            location[q] = 0
            if ev:
                victim = next(evicted)
                assert location[victim] == 0 and victim != q
                location[victim] = 1
                for lvl in range(1, clen + 1):
                    bumped = next(cascaded)
                    assert location[bumped] == lvl
                    location[bumped] = lvl + 1
        occupancy = [0] * depth
        for level in location.values():
            occupancy[level] += 1
        assert tuple(occupancy) == trace.final_occupancy
        if depth > 2:
            assert trace.cascade_qubit  # the cascade path is exercised

    def test_round_trip_keeps_identity_fields(self):
        trace, _ = self._trace("lru", 4)
        assert trace.evict_qubit and trace.cascade_qubit
        restored = replay.MovementTrace.from_bytes(trace.to_bytes())
        assert restored == trace  # every field, identities included

    def test_v1_layout_blob_is_rejected(self):
        trace, _ = self._trace("lru", 3)
        payload = json.loads(trace.to_bytes().decode("ascii"))
        for name in ("miss_qubit", "evict_qubit", "cascade_qubit"):
            del payload[name]
        v1_blob = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("ascii")
        with pytest.raises(ValueError, match="miss_qubit"):
            replay.MovementTrace.from_bytes(v1_blob)
