"""Grid execution: store read-through, compute, reassembly.

:func:`compute_grid` is the one engine every sweep goes through — the
single-process :func:`repro.core.design_space.engine_sweep` call, a
``python -m repro.sweep run --shard i/K`` worker, and a ``resume`` after
a crash are all the same loop: skip cells whose record is already in
the store, turn the rest into work items (one per cell, or one per
traffic group under a :class:`BatchSpec`), run them through
:func:`repro.perf.supervise.supervised_indexed`, persist each result as
it completes, return rows in canonical grid order.

Without a ``supervise=`` spec the loop runs under the fail-fast
:class:`repro.perf.supervise.Supervision` (one attempt, no deadline,
no quarantine) and raises the failing cell's own exception.  With one,
transient faults are retried, hung cells reaped, dead workers rebuilt,
and a cell that exhausts its retries is *quarantined* — its classified
failure lands as a durable store record and its row slot stays
``None`` — rather than killing the shard (``quarantine=False``
restores fail-fast via :class:`CellFailed`).  Fault-free output is the
same either way.

:func:`rows_from_store` is the read-only half — ``merge``, ``status``
and the table builders use it to reassemble a sweep without computing
anything, failing loudly (:class:`MissingCells`) when records are
absent or corrupt, unless ``allow_missing=True`` degrades gracefully
(``None`` placeholders in canonical positions; see
:func:`missing_report` for the failure footer data).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from ..perf import chaos
from ..perf.store import ResultStore, resolve_store
from ..perf.supervise import CellFailure, Supervision, supervised_indexed
from .grid import Cell, Grid


class MissingCells(ValueError):
    """A read-only reassembly found cells with no readable record."""

    def __init__(self, grid: Grid, keys: Tuple[str, ...]) -> None:
        self.keys = keys
        super().__init__(
            f"store is missing {len(keys)}/{len(grid)} cells of the "
            f"{grid.kernel} grid (run `python -m repro.sweep resume` to "
            f"compute them)"
        )


class CellFailed(RuntimeError):
    """A supervised, non-quarantine run hit a terminal cell failure."""

    def __init__(self, cell: Cell, failure: CellFailure) -> None:
        self.cell = cell
        self.failure = failure
        super().__init__(
            f"cell {cell.key} of the {cell.kernel} grid failed terminally "
            f"({failure.kind}: {failure.exception_type} after "
            f"{failure.attempts} attempt(s))"
        )


@dataclass(frozen=True)
class BatchSpec:
    """How a grid's cells group into shared-work batches.

    ``group_key`` maps one cell's parameter dict to a stable group
    token, or ``None`` for cells that must run individually through the
    per-cell kernel.  ``fn`` is the group kernel: it takes the member
    parameter dicts of one group (in canonical grid order) and returns
    one row per member, same order.  Both must be module-level
    (picklable) so groups can run in pool workers.
    """

    group_key: Callable[[Dict[str, Any]], Optional[str]]
    fn: Callable[[Tuple[Dict[str, Any], ...]], List[Any]]


@dataclass(frozen=True)
class _BatchKernel:
    """Picklable dispatcher for the runner's work items.

    A work item is ``("cell", params)`` or ``("group", (params, ...))``
    (groups only under a :class:`BatchSpec`, whose kernel is
    ``group_fn``); both return a *list* of rows so the runner maps
    results back uniformly.  Chaos faults fire here, inside the worker,
    per member — a scripted fault aimed at any one cell of a group
    poisons (and on retry, re-poisons) the whole group, which is the
    unit of supervised work.
    """

    cell_fn: Callable[[Dict[str, Any]], Any]
    group_fn: Optional[Callable[[Tuple[Dict[str, Any], ...]], List[Any]]]

    def __call__(self, item: Tuple[str, Any]) -> List[Any]:
        kind, payload = item
        if kind == "cell":
            chaos.fire(payload)
            return [self.cell_fn(payload)]
        for params in payload:
            chaos.fire(params)
        return list(self.group_fn(payload))


def _row_from_record(row_type: Type, value: Any) -> Optional[Any]:
    """Rebuild a row dataclass from a stored record value, or None.

    A record whose value does not match the row schema (wrong fields,
    wrong shape — e.g. written by an older layout) is treated exactly
    like a corrupt file: missing, to be recomputed.
    """
    if not isinstance(value, dict):
        return None
    try:
        return row_type(**value)
    except TypeError:
        return None


def compute_grid(
    grid: Grid,
    fn: Callable[[Dict[str, Any]], Any],
    row_type: Type,
    *,
    store=None,
    workers: Optional[int] = None,
    supervise: Optional[Supervision] = None,
    batch: Optional[BatchSpec] = None,
) -> List[Any]:
    """Rows for every grid cell, reading through ``store`` when given.

    ``fn`` maps one cell's parameter dict to one ``row_type`` row (it
    must be module-level so pool workers can pickle it).  Cells already
    in the store are not recomputed; freshly computed cells are
    persisted *as each result completes* (completion order, so a slow
    cell never delays the durability of faster ones — a worker killed
    mid-grid loses only its in-flight cells) with one batched
    index update at the end (the index is advisory; records are the
    truth and ``merge`` rebuilds it).  The returned list is always in
    canonical grid order, so a warm, cold, sharded, or mixed run yields
    the identical row sequence.

    Every run goes through
    :func:`repro.perf.supervise.supervised_indexed`.  With
    ``supervise=None`` it runs under ``Supervision(quarantine=False)``
    and fails fast: the first failing cell's own exception is re-raised
    once every result that finished before it has been persisted.
    Items already handed to a pool worker run to completion before the
    raise (their results are dropped); no other item starts.  A
    ``supervise`` spec retries failures per its policy, and a cell that
    exhausts its attempts is quarantined — a durable failure record
    replaces its result and its slot in the returned list is ``None`` —
    unless ``supervise.quarantine`` is False, in which case
    :class:`CellFailed` raises.

    ``batch`` (a :class:`BatchSpec`) groups cells that share work: each
    group is *one* unit of execution — one pool task, one supervised
    attempt (a transient fault retries only its group, charged once),
    one per-group deadline scaled by member count — while the store
    still receives one record per member cell, so memo keys, resume,
    quarantine and ``merge --verify`` are unaffected.  A terminal
    failure of a batched run's work item quarantines every member, each
    failure record naming the full membership under
    ``"group_members"``.
    """
    resolved: Optional[ResultStore] = resolve_store(store)
    cells = list(grid)
    rows: List[Any] = [None] * len(cells)
    todo: List[int] = []
    for position, cell in enumerate(cells):
        if resolved is not None:
            row = _row_from_record(row_type, resolved.get(cell.key))
            if row is not None:
                rows[position] = row
                continue
        todo.append(position)
    items, members = _work_items(cells, todo, batch)
    kernel = _BatchKernel(cell_fn=fn, group_fn=None if batch is None else batch.fn)
    written: Dict[str, Any] = {}
    # Completion order, not input order: each finished item is
    # persisted immediately, never queued behind a slower one.
    outcomes = supervised_indexed(
        kernel,
        items,
        workers=workers,
        supervision=supervise or Supervision(quarantine=False),
        weights=[float(len(positions)) for positions in members],
    )
    try:
        for outcome in outcomes:
            positions = members[outcome.index]
            if outcome.ok:
                if len(outcome.value) != len(positions):
                    raise ValueError(
                        f"batch kernel returned {len(outcome.value)} rows for a "
                        f"{len(positions)}-cell group of the {grid.kernel} grid"
                    )
                for position, row in zip(positions, outcome.value):
                    rows[position] = row
                    if resolved is not None:
                        written[cells[position].key] = _persist(
                            resolved, cells[position], row
                        )
                continue
            if supervise is None:
                raise outcome.error
            if not supervise.quarantine:
                raise CellFailed(cells[positions[0]], outcome.failure)
            if resolved is None:
                continue
            record = outcome.failure.as_record()
            if batch is not None:
                # A quarantined group must be diagnosable from any of
                # its cells: each member's record names the whole group.
                record["group_members"] = [cells[p].key for p in positions]
            for position in positions:
                cell = cells[position]
                resolved.put_failure(
                    cell.key, record, kernel=cell.kernel, params=cell.as_dict()
                )
    finally:
        # Stop the executor now, not whenever the raised exception's
        # frames are collected: an item not yet handed to a worker
        # never starts after a raise.
        outcomes.close()
        if resolved is not None and written:
            resolved.index_add(written)
    return rows


def _work_items(
    cells: List[Cell], todo: List[int], batch: Optional[BatchSpec]
) -> Tuple[List[Tuple[str, Any]], List[List[int]]]:
    """The work items of one run, and the grid positions each covers.

    Without ``batch`` every cell is its own ``("cell", params)`` item.
    With one, items are whole groups (first-appearance order, members
    in canonical grid order); unbatchable cells (``group_key`` None)
    ride along as singleton ``("cell", params)`` items, so one sweep
    can mix both kinds.
    """
    items: List[Tuple[str, Any]] = []
    members: List[List[int]] = []
    group_slots: Dict[str, int] = {}
    for position in todo:
        params = cells[position].as_dict()
        token = None if batch is None else batch.group_key(params)
        if token is None:
            items.append(("cell", params))
            members.append([position])
            continue
        slot = group_slots.get(token)
        if slot is None:
            group_slots[token] = len(items)
            items.append(("group", [params]))
            members.append([position])
        else:
            items[slot][1].append(params)
            members[slot].append(position)
    items = [
        (kind, tuple(payload) if kind == "group" else payload)
        for kind, payload in items
    ]
    return items, members


def _persist(store, cell: Cell, row: Any) -> Dict[str, Any]:
    """Write one row's record (indexing deferred to the caller's batch).

    ``store`` is any backend of the pluggable-store protocol
    (:mod:`repro.perf.backends`), not just the filesystem
    :class:`ResultStore`.
    """
    meta = store.put(
        cell.key, asdict(row), kernel=cell.kernel, params=cell.as_dict(), index=False
    )
    # A success supersedes any quarantine left by an earlier run —
    # supervised or not, a healed cell must stop reporting as failed.
    store.clear_failure(cell.key)
    plan = chaos.active_plan()
    if plan is not None:
        # The "corrupt" chaos fault models a torn write surviving
        # persistence: it fires here, after the record landed, through
        # the backend's own tear hook.
        store.chaos_tear(plan, cell.key, cell.as_dict())
    return meta


def persist_rows(grid: Grid, rows: List[Any], store) -> None:
    """Write already-computed rows through to a store.

    Used when a sweep obtains its rows without touching the store —
    e.g. a whole-sweep memoization hit — so that ``store=`` always
    leaves a complete, mergeable record set behind.  Cells whose record
    already exists are left untouched.
    """
    resolved = resolve_store(store)
    if resolved is None:
        return
    written: Dict[str, Any] = {}
    for cell, row in zip(grid, rows):
        if not resolved.has(cell.key):
            written[cell.key] = _persist(resolved, cell, row)
    if written:
        resolved.index_add(written)


def rows_from_store(
    grid: Grid, row_type: Type, store, *, allow_missing: bool = False
) -> List[Any]:
    """Reassemble a sweep from stored records only.

    Raises :class:`MissingCells` (listing the absent keys) if any cell
    has no readable, schema-valid record — a merge must never silently
    return a partial sweep.  ``allow_missing=True`` is the explicit
    graceful-degradation opt-in: the returned list keeps canonical grid
    length with ``None`` in each missing (e.g. quarantined) cell's
    position, so table renderers can show ``—`` cells with a failure
    footer instead of nothing at all.
    """
    resolved = resolve_store(store)
    if resolved is None:
        raise ValueError("rows_from_store requires a store")
    rows: List[Any] = []
    missing: List[str] = []
    for cell in grid:
        row = _row_from_record(row_type, resolved.get(cell.key))
        if row is None:
            missing.append(cell.key)
        rows.append(row)
    if missing and not allow_missing:
        raise MissingCells(grid, tuple(missing))
    return rows


def missing_report(grid: Grid, store) -> List[Tuple[Cell, Optional[Dict[str, Any]]]]:
    """Each cell lacking a readable record, with its failure if known.

    The data behind every graceful-degradation footer: a list of
    ``(cell, failure_record_or_None)`` pairs in canonical grid order.
    A ``None`` failure means the cell is merely missing (never
    computed, or torn); a dict is the durable quarantine record
    (``{"failure": {...}, "meta": {...}}``).
    """
    resolved = resolve_store(store)
    if resolved is None:
        raise ValueError("missing_report requires a store")
    report = []
    for cell in grid:
        if not resolved.has(cell.key):
            report.append((cell, resolved.failure(cell.key)))
    return report


def kernel_registry() -> Dict[str, Tuple[Callable[[Dict[str, Any]], Any], Type]]:
    """Kernel name -> (cell function, row type) for the worker CLI.

    Imported lazily: the design-space module itself imports this
    package for :func:`compute_grid`, and the registry is only needed
    by CLI entry points.
    """
    from ..core import design_space

    return {
        "engine_cell": (design_space.engine_cell, design_space.EngineRow),
        "fidelity_cell": (design_space.fidelity_cell, design_space.FidelityRow),
        "specialization_cell": (
            design_space.specialization_cell,
            design_space.SpecializationRow,
        ),
        "hierarchy_cell": (design_space.hierarchy_cell, design_space.HierarchyRow),
        "transfer_cell": (design_space.transfer_cell, design_space.TransferRow),
    }
