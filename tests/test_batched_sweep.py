"""Tests for batched (traffic-grouped) sweep execution.

The engine design space factorizes: reservation-model replacement
traffic depends only on the traffic axes (workload, size, depth,
policy), never on the priced axes (code assignment, transfer width).
The batched runner exploits this — one group simulates its movement
trace once and re-prices it per member — and these tests pin the
batched path to the per-cell path at every observable layer: returned
rows, stored record bytes, group-shaped supervision and quarantine,
shard assignment, and the CLI.
"""

import pstats

import pytest

from repro.core.design_space import (
    EngineRow,
    engine_batch_cell,
    engine_batch_spec,
    engine_cell,
    engine_grid,
    engine_sweep,
    engine_traffic_key,
)
from repro.perf import chaos
from repro.perf.store import ResultStore
from repro.perf.supervise import Supervision, RetryPolicy, supervised_indexed
from repro.sweep.cli import main as sweep_main
from repro.sweep.runner import compute_grid

PAIRS = (("bacon_shor", "steane"), ("steane", "bacon_shor"))

#: One small engine grid with both batchable (no-prefetch) and
#: time-coupled (next_k) cells, and a three-config priced axis per
#: traffic group (pure steane plus both mixed pairs).
GRID_KWARGS = dict(
    workloads=("draper_adder",), sizes=(16,), depths=(2, 3),
    policies=("lru", "belady"), prefetches=("none", "next_k"),
    code_pairs=PAIRS,
)
GRID_ARGS = [
    "--workloads", "draper_adder", "--sizes", "16", "--depths", "2", "3",
    "--policies", "lru", "belady", "--prefetches", "none", "next_k",
    "--code-pairs", "bacon_shor:steane", "steane:bacon_shor",
]


def _record_bytes(store: ResultStore) -> dict:
    return {
        path.name: path.read_bytes()
        for path in store.directory.glob("*.json")
        if path.name != "index.json"
    }


def _groups(grid):
    groups = {}
    for cell in grid:
        token = engine_traffic_key(cell.as_dict())
        if token is not None:
            groups.setdefault(token, []).append(cell)
    return groups


class TestTrafficKey:
    def test_priced_axes_share_a_key(self):
        base = dict(workload="draper_adder", n_bits=16, depth=2,
                    policy="lru", prefetch="none", code_key="steane",
                    parallel_transfers=10, compute_qubits=12,
                    cache_factor=1.0)
        mixed = dict(base, code_key="bacon_shor", memory_code_key="steane",
                     parallel_transfers=20)
        assert engine_traffic_key(base) == engine_traffic_key(mixed)

    def test_traffic_axes_split_keys(self):
        base = dict(workload="draper_adder", n_bits=16, depth=2,
                    policy="lru", prefetch="none", code_key="steane",
                    parallel_transfers=10, compute_qubits=12,
                    cache_factor=1.0)
        assert engine_traffic_key(base) != engine_traffic_key(
            dict(base, policy="belady")
        )
        assert engine_traffic_key(base) != engine_traffic_key(
            dict(base, depth=3)
        )

    def test_time_coupled_cells_are_unbatchable(self):
        params = dict(workload="draper_adder", n_bits=16, depth=2,
                      policy="lru", prefetch="next_k", code_key="steane",
                      parallel_transfers=10, compute_qubits=12,
                      cache_factor=1.0)
        assert engine_traffic_key(params) is None


class TestBatchKernel:
    def test_rejects_mixed_traffic_groups(self):
        grid = engine_grid(**GRID_KWARGS)
        cells = [cell.as_dict() for cell in grid
                 if cell.as_dict()["prefetch"] == "none"]
        different = [params for params in cells
                     if params["depth"] != cells[0]["depth"]]
        with pytest.raises(ValueError):
            engine_batch_cell((cells[0], different[0]))

    def test_rejects_time_coupled_groups(self):
        grid = engine_grid(**GRID_KWARGS)
        prefetched = [cell.as_dict() for cell in grid
                      if cell.as_dict()["prefetch"] != "none"]
        with pytest.raises(ValueError):
            engine_batch_cell((prefetched[0],))


class TestBatchedEquivalence:
    def test_rows_bit_identical(self):
        assert engine_sweep(**GRID_KWARGS) == engine_sweep(
            batched=True, **GRID_KWARGS
        )

    def test_store_records_byte_identical(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        percell = ResultStore(tmp_path / "percell")
        batched = ResultStore(tmp_path / "batched")
        rows_percell = compute_grid(grid, engine_cell, EngineRow,
                                    store=percell)
        rows_batched = compute_grid(grid, engine_cell, EngineRow,
                                    store=batched,
                                    batch=engine_batch_spec())
        assert rows_percell == rows_batched
        assert _record_bytes(percell) == _record_bytes(batched)

    def test_supervised_batched_identical(self):
        grid = engine_grid(**GRID_KWARGS)
        plain = compute_grid(grid, engine_cell, EngineRow)
        supervised = compute_grid(
            grid, engine_cell, EngineRow, batch=engine_batch_spec(),
            supervise=Supervision(cell_timeout_s=120.0), workers=2,
        )
        assert plain == supervised

    def test_batched_reads_through_store(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path / "store")
        first = compute_grid(grid, engine_cell, EngineRow, store=store,
                             batch=engine_batch_spec())
        # Second pass must resolve every cell from the store; a kernel
        # that explodes on contact proves nothing recomputes.
        def _explodes(params):
            raise AssertionError("warm batched run recomputed a cell")

        again = compute_grid(grid, _explodes, EngineRow, store=store,
                             batch=engine_batch_spec())
        assert first == again


class TestTraceCacheSweep:
    """The persistent trace cache and batched execution on real sweeps."""

    def test_serial_store_matches_pooled_store(self, tmp_path):
        # Serial and pooled batched runs price the same groups in
        # different processes and orders; both must leave
        # byte-identical record trees.
        grid = engine_grid(**GRID_KWARGS)
        serial_store = ResultStore(tmp_path / "serial")
        pooled_store = ResultStore(tmp_path / "pooled")
        rows_serial = compute_grid(grid, engine_cell, EngineRow,
                                   store=serial_store,
                                   batch=engine_batch_spec())
        rows_pooled = compute_grid(grid, engine_cell, EngineRow,
                                   store=pooled_store, workers=2,
                                   batch=engine_batch_spec())
        assert rows_serial == rows_pooled
        assert _record_bytes(serial_store) == _record_bytes(pooled_store)

    def test_warm_cache_skips_extraction_and_is_bit_identical(self, tmp_path):
        from repro.perf.tracecache import TraceCache

        cache_dir = tmp_path / "traces"
        grid = engine_grid(**GRID_KWARGS)
        cold_store = ResultStore(tmp_path / "cold")
        warm_store = ResultStore(tmp_path / "warm")
        cold = compute_grid(grid, engine_cell, EngineRow, store=cold_store,
                            batch=engine_batch_spec(trace_cache=cache_dir))
        after_cold = TraceCache(cache_dir).read_stats()
        assert after_cold["extractions"] > 0
        assert len(TraceCache(cache_dir)) == after_cold["extractions"]
        warm = compute_grid(grid, engine_cell, EngineRow, store=warm_store,
                            batch=engine_batch_spec(trace_cache=cache_dir))
        after_warm = TraceCache(cache_dir).read_stats()
        # The warm run simulated nothing and loaded every group.
        assert after_warm["extractions"] == after_cold["extractions"]
        assert after_warm["hits"] == after_cold["hits"] + \
            after_cold["extractions"]
        assert cold == warm
        assert _record_bytes(cold_store) == _record_bytes(warm_store)

    def test_pooled_workers_share_the_cache(self, tmp_path):
        from repro.perf.tracecache import TraceCache

        cache_dir = tmp_path / "traces"
        grid = engine_grid(**GRID_KWARGS)
        compute_grid(grid, engine_cell, EngineRow, workers=2,
                     batch=engine_batch_spec(trace_cache=cache_dir))
        stats = TraceCache(cache_dir).read_stats()
        # Pool workers flush their deltas into the shared stats.json.
        assert stats["extractions"] == len(TraceCache(cache_dir)) > 0
        compute_grid(grid, engine_cell, EngineRow, workers=2,
                     batch=engine_batch_spec(trace_cache=cache_dir))
        again = TraceCache(cache_dir).read_stats()
        assert again["extractions"] == stats["extractions"]

    def test_engine_sweep_trace_cache_requires_batched(self, tmp_path):
        with pytest.raises(ValueError):
            engine_sweep(trace_cache=tmp_path / "traces", **GRID_KWARGS)


class TestGroupSupervision:
    def test_transient_group_fault_retried_once_per_attempt(self, tmp_path):
        # The fault poisons exactly one member cell of a three-member
        # traffic group (chaos attempt counters are per-params).  The
        # whole group is the retry unit, so times=2 heals it inside
        # max_attempts=3 and every member's row comes out identical to
        # the fault-free sweep.
        grid = engine_grid(**GRID_KWARGS)
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "transient", "times": 2,
              "match": {"policy": "lru", "depth": 2, "prefetch": "none",
                        "memory_code_key": "steane"}}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        with chaos.active(plan):
            rows = compute_grid(grid, engine_cell, EngineRow,
                                batch=engine_batch_spec(),
                                supervise=supervision)
        assert rows == compute_grid(grid, engine_cell, EngineRow)

    def test_terminal_group_failure_quarantines_every_member(self, tmp_path):
        grid = engine_grid(**GRID_KWARGS)
        store = ResultStore(tmp_path / "store")
        poisoned = {"policy": "lru", "depth": 2, "prefetch": "none",
                    "memory_code_key": "steane"}
        plan = chaos.ChaosPlan.scripted([{"fault": "raise",
                                          "match": poisoned}])
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            # One failed *group* must count as one failure unit: three
            # quarantined member cells with max_failures=1 would abort
            # if the runner double-charged them.
            max_failures=1,
        )
        token = engine_traffic_key(
            dict(workload="draper_adder", n_bits=16, depth=2, policy="lru",
                 prefetch="none", code_key="steane", parallel_transfers=10,
                 compute_qubits=12, cache_factor=1.0)
        )
        group = _groups(grid)[token]
        assert len(group) == 3
        with chaos.active(plan):
            rows = compute_grid(grid, engine_cell, EngineRow, store=store,
                                batch=engine_batch_spec(),
                                supervise=supervision)
        member_keys = sorted(cell.key for cell in group)
        assert sorted(store.failure_keys()) == member_keys
        for position, cell in enumerate(grid):
            if cell.key in member_keys:
                assert rows[position] is None
                record = store.failure(cell.key)["failure"]
                assert sorted(record["group_members"]) == member_keys
            else:
                assert rows[position] is not None

    def test_failure_records_name_members_only_when_batched(self, tmp_path):
        # A per-cell run's failure record has no "group_members" key; a
        # batched run's names the work item's members, including the
        # singleton membership of an unbatchable (prefetching) cell.
        grid = engine_grid(**GRID_KWARGS)
        poisoned = {"policy": "belady", "depth": 3,
                    "memory_code_key": "bacon_shor"}
        plan = chaos.ChaosPlan.scripted([{"fault": "raise",
                                          "match": poisoned}])
        hit = [cell for cell in grid
               if all(cell.as_dict().get(k) == v for k, v in poisoned.items())]
        assert {cell.as_dict()["prefetch"] for cell in hit} == {
            "none", "next_k"}
        percell = ResultStore(tmp_path / "percell")
        batched = ResultStore(tmp_path / "batched")
        with chaos.active(plan):
            compute_grid(grid, engine_cell, EngineRow, store=percell,
                         supervise=Supervision())
            compute_grid(grid, engine_cell, EngineRow, store=batched,
                         supervise=Supervision(), batch=engine_batch_spec())
        groups = _groups(grid)
        assert sorted(percell.failure_keys()) == sorted(c.key for c in hit)
        for cell in hit:
            assert "group_members" not in percell.failure(cell.key)["failure"]
            token = engine_traffic_key(cell.as_dict())
            members = ([cell.key] if token is None
                       else sorted(c.key for c in groups[token]))
            record = batched.failure(cell.key)["failure"]
            assert sorted(record["group_members"]) == members
            for key in members:
                assert key in batched.failure_keys()

    def test_supervised_weights_validated(self):
        items = [1, 2, 3]
        with pytest.raises(ValueError):
            list(supervised_indexed(lambda x: x, items,
                                    supervision=Supervision(),
                                    weights=[1.0, 2.0]))
        with pytest.raises(ValueError):
            list(supervised_indexed(lambda x: x, items,
                                    supervision=Supervision(),
                                    weights=[1.0, 0.0, 2.0]))


class TestGroupAwareSharding:
    @pytest.mark.parametrize("count", [2, 3, 5])
    def test_groups_never_split_and_cover_the_grid(self, count):
        grid = engine_grid(**GRID_KWARGS)

        def group_key(cell):
            return engine_traffic_key(cell.as_dict())

        shards = [grid.shard(index, count, group_key=group_key)
                  for index in range(count)]
        seen = [cell.key for shard in shards for cell in shard]
        assert sorted(seen) == sorted(grid.keys())
        for token, group in _groups(grid).items():
            owners = {
                index
                for index, shard in enumerate(shards)
                for cell in shard
                if engine_traffic_key(cell.as_dict()) == token
            }
            assert len(owners) == 1, (token, owners)


class TestBatchedCli:
    def test_sharded_batched_run_matches_percell(self, tmp_path):
        percell, batched = str(tmp_path / "percell"), str(tmp_path / "batched")
        for index in range(2):
            assert sweep_main(["run", "--shard", f"{index}/2", "--store",
                               percell, *GRID_ARGS]) == 0
            assert sweep_main(["run", "--shard", f"{index}/2", "--store",
                               batched, "--batched", *GRID_ARGS]) == 0
        out_percell = tmp_path / "rows-percell.json"
        out_batched = tmp_path / "rows-batched.json"
        assert sweep_main(["merge", "--store", percell, "--verify",
                           "--output", str(out_percell), *GRID_ARGS]) == 0
        assert sweep_main(["merge", "--store", batched, "--verify",
                           "--output", str(out_batched), *GRID_ARGS]) == 0
        assert out_percell.read_bytes() == out_batched.read_bytes()
        assert _record_bytes(ResultStore(percell)) == _record_bytes(
            ResultStore(batched)
        )

    def test_trace_cache_run_reports_warm_second_pass(self, tmp_path,
                                                      capsys):
        cache = str(tmp_path / "traces")
        cold, warm = str(tmp_path / "cold"), str(tmp_path / "warm")
        assert sweep_main(["run", "--shard", "0/1", "--store", cold,
                           "--batched", "--trace-cache", cache,
                           *GRID_ARGS]) == 0
        cold_out = capsys.readouterr().out
        assert "trace cache:" in cold_out
        assert "(0 extractions)" not in cold_out
        assert sweep_main(["run", "--shard", "0/1", "--store", warm,
                           "--batched", "--trace-cache", cache,
                           *GRID_ARGS]) == 0
        warm_out = capsys.readouterr().out
        # The warm pass loaded every group: zero simulations, and the
        # record trees are byte-identical.
        assert "(0 extractions)" in warm_out
        assert "0 misses" in warm_out
        assert _record_bytes(ResultStore(cold)) == _record_bytes(
            ResultStore(warm)
        )
        assert sweep_main(["status", "--store", warm, "--trace-cache",
                           cache, *GRID_ARGS]) == 0
        status_out = capsys.readouterr().out
        assert "blobs" in status_out and "lifetime" in status_out

    def test_trace_cache_requires_batched(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_main(["run", "--shard", "0/1", "--store",
                        str(tmp_path / "s"), "--trace-cache",
                        str(tmp_path / "traces"), *GRID_ARGS])

    def test_batched_rejects_table_kernels(self, tmp_path):
        with pytest.raises(SystemExit):
            sweep_main(["run", "--shard", "0/1", "--store",
                        str(tmp_path / "s"), "--kernel", "transfer_cell",
                        "--batched"])

    def test_profile_writes_loadable_pstats(self, tmp_path):
        store = tmp_path / "store"
        assert sweep_main(["run", "--shard", "0/1", "--store", str(store),
                           "--profile", "--batched", *GRID_ARGS]) == 0
        dump = tmp_path / "store-profile-shard0of1.pstats"
        assert dump.is_file()
        stats = pstats.Stats(str(dump))
        assert stats.total_calls > 0
        # The dump is a sibling of the store, never inside it: the
        # record set a merge diff inspects must stay byte-comparable.
        assert not list(store.glob("*.pstats"))

    def test_profile_resume_dump(self, tmp_path):
        store = tmp_path / "store"
        assert sweep_main(["resume", "--store", str(store), "--profile",
                           *GRID_ARGS]) == 0
        assert (tmp_path / "store-profile-resume.pstats").is_file()
