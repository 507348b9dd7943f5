"""Equivalence tests: rewritten hot paths vs retained references.

The incremental fetch scheduler, the batched Monte Carlo decoder, and
the N-level hierarchy engine are rewrites of paths whose numbers the
paper tables depend on — each must produce *bit-identical* output to
the implementation it replaced.  The references are kept in the tree
(``simulate_optimized_reference``, ``logical_error_rate_reference``,
``simulate_l1_run_reference``, and the reservation model's audited
oracle ``simulate_hierarchy_run_audited(..., pipeline=False)``) as
executable specifications, and these tests pin the new paths to them.
"""

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.workloads import build_workload
from repro.core.design_space import hierarchy_sweep
from repro.ecc.bacon_shor import bacon_shor_code
from repro.ecc.montecarlo import (
    logical_error_rate,
    logical_error_rate_reference,
    sample_depolarizing_batch,
)
from repro.ecc.steane import steane_code
from repro.sim.cache import simulate_optimized, simulate_optimized_reference
from repro.sim.hierarchy_sim import simulate_l1_run, simulate_l1_run_reference
from repro.sim.levels import (
    simulate_hierarchy_run,
    simulate_hierarchy_run_audited,
    standard_stack,
)
from repro.sim.policies import available_policies
from repro.sim.replay import extract_movement_trace
from repro.sim.scheduler import _adder_circuit

COMPUTE_QUBITS = 27


class TestSchedulerEquivalence:
    @pytest.mark.parametrize("n_bits", [8, 32, 128])
    @pytest.mark.parametrize("cache_factor", [1.0, 1.5, 2.0])
    def test_order_and_stats_identical(self, n_bits, cache_factor):
        circuit = _adder_circuit(n_bits, False)
        capacity = max(1, int(round(cache_factor * COMPUTE_QUBITS)))
        fast = simulate_optimized(circuit, capacity)
        ref = simulate_optimized_reference(circuit, capacity)
        assert fast.order == ref.order
        assert fast.stats == ref.stats

    @pytest.mark.parametrize("window", [1, 2, 5, 16])
    def test_windowed_identical(self, window):
        circuit = _adder_circuit(32, False)
        fast = simulate_optimized(circuit, 40, window=window)
        ref = simulate_optimized_reference(circuit, 40, window=window)
        assert fast.order == ref.order
        assert fast.stats == ref.stats


class TestHierarchyEngineEquivalence:
    """The generalized N-level engine, run as a two-level LRU stack,
    must reproduce the original Table 5 simulator field for field."""

    @pytest.mark.parametrize("code_key", ["steane", "bacon_shor"])
    @pytest.mark.parametrize("n_bits", [32, 64])
    @pytest.mark.parametrize("par", [5, 10])
    def test_two_level_lru_bit_identical(self, code_key, n_bits, par):
        engine = simulate_l1_run(
            code_key, n_bits, parallel_transfers=par, cache=False
        )
        ref = simulate_l1_run_reference(
            code_key, n_bits, parallel_transfers=par
        )
        # Frozen-dataclass equality: every field exactly equal, floats
        # included — no tolerance.
        assert engine == ref

    @pytest.mark.parametrize("compute_qubits,cache_factor", [
        (27, 1.0), (27, 1.5), (81, 2.0),
    ])
    def test_cache_geometry_variants_identical(
        self, compute_qubits, cache_factor
    ):
        engine = simulate_l1_run(
            "steane", 64, compute_qubits=compute_qubits,
            cache_factor=cache_factor, cache=False,
        )
        ref = simulate_l1_run_reference(
            "steane", 64, compute_qubits=compute_qubits,
            cache_factor=cache_factor,
        )
        assert engine == ref

    def test_caller_supplied_circuit_identical(self):
        circuit = _adder_circuit(32, False)
        engine = simulate_l1_run("steane", 32, circuit=circuit)
        ref = simulate_l1_run_reference("steane", 32, circuit=circuit)
        assert engine == ref

    def test_table5_speedups_unchanged(self):
        """Every Table 5 cell's L1 speedup survives the refactor exactly."""
        rows = hierarchy_sweep(cache=False)
        assert rows
        for row in rows:
            ref = simulate_l1_run_reference(
                row.code_key, row.n_bits,
                parallel_transfers=row.parallel_transfers,
            )
            assert row.l1_speedup == ref.l1_speedup


def _reservation_oracle(stack, circuit, **kwargs):
    """The reservation dialect's one oracle: the audited event-kernel
    engine with pipelining disabled (result only, audit dropped)."""
    return simulate_hierarchy_run_audited(
        stack, circuit, pipeline=False, **kwargs
    )[0]


#: Every engine entry point resolves its arguments through one front
#: door, so each rejects the same malformed requests the same way.
_ENTRY_POINTS = (
    simulate_hierarchy_run,
    simulate_hierarchy_run_audited,
    extract_movement_trace,
)

_BAD_ARGUMENTS = (
    ("fetch-mode", {"fetch": "optimised"}, "unknown fetch mode"),
    ("in-order-with-order", {"fetch": "in-order", "order": [0, 1]},
     "contradict"),
    ("window-with-order", {"window": 4, "order": [0, 1]},
     "window only applies"),
    ("order-not-permutation", {"order": [0, 0]}, "permutation"),
    ("unknown-policy", {"policy": "optimal"}, "unknown eviction policy"),
    ("empty-circuit", {"workload": Circuit(3)}, "empty circuit"),
    # Extraction is reservation-only: it takes no prefetch argument.
    ("prefetch-without-pipeline", {"prefetch": "next_k",
                                   "pipeline": False}, "pipeline"),
)


class TestEventKernelEngineEquivalence:
    """The production reservation model (replay: extract the movement
    trace, price it) must reproduce the event-kernel oracle
    (``simulate_hierarchy_run_audited(..., pipeline=False)``) field for
    field on every engine-sweep cell shape."""

    @pytest.mark.parametrize("workload", ["draper_adder", "qft",
                                          "modexp_trace"])
    @pytest.mark.parametrize("depth", [2, 3, 4])
    @pytest.mark.parametrize("policy", available_policies())
    def test_engine_sweep_cells_bit_identical(self, workload, depth, policy):
        stack = standard_stack("steane", depth, compute_qubits=12,
                               cache_factor=1.0)
        circuit = build_workload(workload, 16)
        engine = simulate_hierarchy_run(stack, circuit, policy=policy)
        ref = _reservation_oracle(stack, circuit, policy=policy)
        # Frozen-dataclass equality: every field exactly equal, floats
        # included — no tolerance.
        assert engine == ref

    @pytest.mark.parametrize("code_key", ["steane", "bacon_shor"])
    def test_paper_geometry_bit_identical(self, code_key):
        stack = standard_stack(code_key, 3)
        circuit = build_workload("draper_adder", 64)
        engine = simulate_hierarchy_run(stack, circuit)
        ref = _reservation_oracle(stack, circuit)
        assert engine == ref

    @pytest.mark.parametrize("entry,kwargs,match", [
        pytest.param(entry, kwargs, match, id=f"{entry.__name__}-{case}")
        for case, kwargs, match in _BAD_ARGUMENTS
        for entry in _ENTRY_POINTS
        if entry is not extract_movement_trace or "prefetch" not in kwargs
    ])
    def test_front_door_validates_every_entry_point(
        self, entry, kwargs, match
    ):
        # A typo'd or contradictory request must raise, never silently
        # run some other schedule, policy or transfer model.
        stack = standard_stack("steane", 3, compute_qubits=12,
                               cache_factor=1.0)
        kwargs = dict(kwargs)
        workload = kwargs.pop("workload", "qft")
        with pytest.raises(ValueError, match=match):
            entry(stack, workload, **kwargs)


class TestMonteCarloEquivalence:
    @pytest.mark.parametrize("code_fn", [steane_code, bacon_shor_code])
    @pytest.mark.parametrize("p,trials,seed", [
        (0.002, 500, 11),
        (0.01, 800, 7),
        (0.05, 400, 3),
        (0.2, 200, 42),
    ])
    def test_failure_counts_identical(self, code_fn, p, trials, seed):
        code = code_fn()
        fast = logical_error_rate(code, p, trials=trials, seed=seed)
        ref = logical_error_rate_reference(code, p, trials=trials, seed=seed)
        assert fast.failures == ref.failures
        assert fast.trials == ref.trials
        assert fast.physical_error_rate == ref.physical_error_rate

    def test_batch_sampler_matches_scalar_stream(self):
        """Batch sampling must consume the RNG exactly like the scalar
        sampler: trial t of a batch equals the t-th scalar draw."""
        import numpy as np

        from repro.ecc.montecarlo import sample_depolarizing

        batch_rng = np.random.default_rng(5)
        scalar_rng = np.random.default_rng(5)
        batch = sample_depolarizing_batch(7, 0.3, 20, batch_rng)
        for t in range(20):
            pauli = sample_depolarizing(7, 0.3, scalar_rng)
            assert tuple(batch[t, :7]) == pauli.x
            assert tuple(batch[t, 7:]) == pauli.z
