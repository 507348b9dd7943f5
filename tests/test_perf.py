"""Tests for the repro.perf subsystem and its sweep wiring."""

import concurrent.futures
import json
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.design_space import hierarchy_sweep, specialization_sweep
from repro.perf.memo import (
    SweepCache,
    default_cache,
    resolve_cache,
    stable_key,
)
from repro.perf.store import ResultStore
from repro.sim.hierarchy_sim import l1_speedup, simulate_l1_run
from repro.sweep.grid import Cell, Grid
from repro.sweep.runner import BatchSpec, compute_grid


class TestStableKey:
    def test_deterministic(self):
        assert stable_key("k", a=1, b=[2, 3]) == stable_key("k", b=[2, 3], a=1)

    def test_sensitive_to_kernel_and_params(self):
        base = stable_key("k", a=1)
        assert stable_key("other", a=1) != base
        assert stable_key("k", a=2) != base
        assert stable_key("k", a=1, b=0) != base


class TestSweepCache:
    def test_memory_roundtrip(self):
        cache = SweepCache()
        assert cache.get("x") is None
        cache.put("x", {"v": 1})
        assert cache.get("x") == {"v": 1}
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_bound(self):
        cache = SweepCache(max_memory_entries=2)
        for i in range(4):
            cache.put(f"k{i}", i)
        assert len(cache) == 2
        assert cache.get("k0") is None
        assert cache.get("k3") == 3

    def test_disk_tier_survives_memory_clear(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        cache.put("k", [1, 2, 3])
        cache.clear_memory()
        assert cache.get("k") == [1, 2, 3]
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        assert json.loads(files[0].read_text()) == {"value": [1, 2, 3]}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None

    def test_clear_removes_files(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        cache.put("k", 1)
        cache.clear()
        assert cache.get("k") is None
        assert not list(tmp_path.glob("*.json"))

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepCache(max_memory_entries=0)


class TestResolveCache:
    def test_none_gives_process_default(self):
        assert resolve_cache(None) is default_cache()
        assert resolve_cache(True) is default_cache()

    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_path_builds_disk_cache(self, tmp_path):
        cache = resolve_cache(tmp_path)
        assert isinstance(cache, SweepCache)
        assert cache.directory == tmp_path

    def test_passthrough_and_rejection(self):
        cache = SweepCache()
        assert resolve_cache(cache) is cache
        with pytest.raises(TypeError):
            resolve_cache(3.14)


@dataclass(frozen=True)
class _SquareRow:
    x: int
    square: int


def _toy_grid(xs, **extra):
    return Grid("toy_cell", tuple(Cell.make("toy_cell", x=x, **extra) for x in xs))


def _square_row(params):
    x = params["x"]
    if x < 0:
        raise RuntimeError(f"scripted failure for {x}")
    return _SquareRow(x, x * x)


def _square_rows(group):
    return [_square_row(params) for params in group]


#: Groups cells by parity: a batched toy grid with two work items.
_PARITY_BATCH = BatchSpec(group_key=lambda params: str(params["x"] % 2),
                          fn=_square_rows)


def _square_row_or_fail_slowly(params):
    if params["x"] < 0:
        time.sleep(1.0)
    return _square_row(params)


def _mark_and_square_row(params):
    if params["x"] >= 0:
        time.sleep(0.3)
        Path(params["directory"], f"ran-{params['x']}").write_text("")
    return _square_row(params)


def _stored_xs(store, grid):
    return sorted(cell.as_dict()["x"] for cell in grid if store.has(cell.key))


class TestComputeGridExecution:
    """The one execution loop: serial and pooled, fail-fast and durable."""

    @pytest.mark.parametrize("workers", [None, 4])
    def test_rows_in_grid_order(self, workers):
        rows = compute_grid(
            _toy_grid(range(20)), _square_row, _SquareRow, workers=workers
        )
        assert rows == [_SquareRow(x, x * x) for x in range(20)]
        assert compute_grid(_toy_grid([]), _square_row, _SquareRow, workers=8) == []

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            compute_grid(_toy_grid([1]), _square_row, _SquareRow, workers=-1)

    @pytest.mark.parametrize("batch", [None, _PARITY_BATCH])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_fail_fast_raises_the_cells_own_exception(self, workers, batch):
        with pytest.raises(RuntimeError, match="scripted failure for -2"):
            compute_grid(
                _toy_grid([1, -2, 3]),
                _square_row,
                _SquareRow,
                workers=workers,
                batch=batch,
            )

    def test_pool_persists_finished_cells_before_raising(self, tmp_path):
        """Cells that finished while the failing cell ran are durable,
        even though the failing cell holds the lowest index."""
        grid = _toy_grid([-1, 1, 2, 3])
        store = ResultStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="scripted failure for -1"):
            compute_grid(
                grid, _square_row_or_fail_slowly, _SquareRow, store=store, workers=2
            )
        assert _stored_xs(store, grid) == [1, 2, 3]

    def test_pool_drains_a_completed_batch_before_raising(
        self, tmp_path, monkeypatch
    ):
        """A success completing alongside the failure is persisted."""
        real_wait = concurrent.futures.wait

        def wait_all(fs, timeout=None, return_when=None):
            return real_wait(
                fs, timeout=timeout, return_when=concurrent.futures.ALL_COMPLETED
            )

        monkeypatch.setattr(concurrent.futures, "wait", wait_all)
        grid = _toy_grid([-1, 1])
        store = ResultStore(tmp_path / "store")
        with pytest.raises(RuntimeError, match="scripted failure for -1"):
            compute_grid(grid, _square_row, _SquareRow, store=store, workers=2)
        assert _stored_xs(store, grid) == [1]

    def test_pool_failure_cancels_queued_cells(self, tmp_path):
        """Teardown after a failure must not start queued cells."""
        grid = _toy_grid([-1] + list(range(10)), directory=str(tmp_path))
        with pytest.raises(RuntimeError, match="scripted failure"):
            compute_grid(grid, _mark_and_square_row, _SquareRow, workers=2)
        # Only cells already running or in the pool's bounded call
        # queue (workers + 1 deep) can still finish; the rest of the
        # queue was cancelled, never drained.  2 running + 3 queued,
        # plus one slot of scheduling slop.
        assert len(list(tmp_path.glob("ran-*"))) <= 6


class TestSweepWiring:
    def test_specialization_sweep_cache_and_workers_agree(self, tmp_path):
        plain = specialization_sweep(sizes=(32, 64), cache=False)
        cache = SweepCache(directory=tmp_path)
        first = specialization_sweep(sizes=(32, 64), cache=cache)
        cache.clear_memory()
        from_disk = specialization_sweep(sizes=(32, 64), cache=cache)
        fanned = specialization_sweep(sizes=(32, 64), cache=False, workers=2)
        assert plain == first == from_disk == fanned

    def test_hierarchy_sweep_cached_identical(self):
        cache = SweepCache()
        a = hierarchy_sweep(sizes=(256,), cache=cache)
        b = hierarchy_sweep(sizes=(256,), cache=cache)
        assert a == b
        assert cache.hits >= 1

    def test_malformed_persisted_entry_recomputes(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        good = specialization_sweep(sizes=(32,), cache=cache)
        for entry in tmp_path.glob("*.json"):
            entry.write_text('{"value": "garbage"}')
        cache.clear_memory()
        again = specialization_sweep(sizes=(32,), cache=cache)
        assert again == good

    def test_simulate_l1_run_memo_identical(self):
        cache = SweepCache()
        a = simulate_l1_run("steane", 64, cache=cache)
        b = simulate_l1_run("steane", 64, cache=cache)
        fresh = simulate_l1_run("steane", 64, cache=False)
        assert a == b == fresh
        assert cache.hits >= 1


class TestL1SpeedupKeying:
    def test_explicit_parameters_are_part_of_the_key(self):
        base = l1_speedup("steane", 64)
        small = l1_speedup("steane", 64, 10, 27, 1.0)
        # A smaller compute region / cache must not alias the default
        # entry: the cached function now keys on every input.
        assert small != base
        assert base == l1_speedup("steane", 64)
        assert small == l1_speedup("steane", 64, 10, 27, 1.0)

    def test_defaults_match_explicit_defaults(self):
        from repro.sim.hierarchy_sim import DEFAULT_COMPUTE_QUBITS

        assert l1_speedup("steane", 64) == l1_speedup(
            "steane", 64, 10, DEFAULT_COMPUTE_QUBITS, 2.0
        )
