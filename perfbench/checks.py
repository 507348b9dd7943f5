"""Output checks: the rows a workload stored against the rows pinned for it.

Pins live in ``pins.json`` (written by ``pin.py``) as one short digest
per row, in canonical grid order, so a mismatch is counted row by row.
A digest covers the row's canonical JSON (``sort_keys``), so equal
digests mean byte-identical rows.

Engine statistics do not depend on the benchmark seed.  In
``fidelity-reservation`` the Monte Carlo fields do (the seed is the
``--fidelity-seed``), so those rows are pinned in two parts: the
seed-free fields once, the Monte Carlo fields per pinned seed.  For a
seed with no pin, a seed-drawn sample of cells is recomputed in process
with the cell kernel and must equal the stored rows.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

PINS = Path(__file__).resolve().parent / "pins.json"

#: FidelityRow fields that depend on the Monte Carlo seed.
MC_FIELDS = ("fidelity_seed", "logical_error", "level_errors", "transit_error")

#: Cells recomputed in process for a fidelity seed that has no pin.
FIDELITY_SAMPLE = 4


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pins() -> Dict[str, Any]:
    return json.loads(PINS.read_text())


def grid_for(argv: Sequence[str]):
    """The grid a ``python -m repro.sweep`` command line enumerates."""
    from repro.sweep import cli

    # The CLI's own option-to-grid mapping, so the checked grid is
    # exactly the one the command ran.
    return cli._grid_from_args(cli.build_parser().parse_args(list(argv)))


def stored_rows(grid, locator: str) -> List[Optional[Dict[str, Any]]]:
    """Row dicts in grid order (``None`` for a missing cell)."""
    from repro.perf.backends import open_store
    from repro.sweep.runner import kernel_registry, rows_from_store

    _, row_type = kernel_registry()[grid.kernel]
    rows = rows_from_store(grid, row_type, open_store(locator), allow_missing=True)
    return [None if row is None else asdict(row) for row in rows]


def computed_rows(grid) -> List[Dict[str, Any]]:
    """Row dicts computed in process, serially, with no store."""
    from repro.sweep.runner import compute_grid, kernel_registry

    fn, row_type = kernel_registry()[grid.kernel]
    return [asdict(row) for row in compute_grid(grid, fn, row_type)]


def split_fidelity(row: Dict[str, Any]):
    """(seed-free part, Monte Carlo part) of one fidelity row dict."""
    free = {k: v for k, v in row.items() if k not in MC_FIELDS}
    return free, [row[k] for k in MC_FIELDS]


def row_mismatches(
    rows: Sequence[Optional[Dict[str, Any]]], pinned: Sequence[str]
) -> int:
    """Rows that are missing or differ from their pinned digest."""
    if len(rows) != len(pinned):
        return max(len(rows), len(pinned))
    return sum(
        1 for row, pin in zip(rows, pinned) if row is None or digest(row) != pin
    )


def fidelity_mismatches(grid, rows, pins: Dict[str, Any], seed: int) -> int:
    """Mismatched rows of a fidelity grid run with ``--fidelity-seed seed``."""
    if len(rows) != len(pins["seed_free"]):
        return len(rows)
    parts = [None if row is None else split_fidelity(row) for row in rows]
    bad = {
        i
        for i, (p, pin) in enumerate(zip(parts, pins["seed_free"]))
        if p is None or digest(p[0]) != pin
    }
    mc_pins = pins["monte_carlo"].get(str(seed))
    if mc_pins is not None:
        bad |= {
            i
            for i, (p, pin) in enumerate(zip(parts, mc_pins))
            if p is None or digest(p[1]) != pin
        }
        return len(bad)
    from repro.sweep.runner import kernel_registry

    fn, _ = kernel_registry()[grid.kernel]
    cells = list(grid)
    for i in random.Random(seed).sample(range(len(cells)), FIDELITY_SAMPLE):
        key = cells[i].key
        if key not in _RECOMPUTED:
            _RECOMPUTED[key] = digest(asdict(fn(cells[i].as_dict())))
        if rows[i] is None or digest(rows[i]) != _RECOMPUTED[key]:
            bad.add(i)
    return len(bad)


#: Digests of the fidelity rows recomputed in process, by cell key, so a
#: run that checks many passes recomputes each sampled cell once.
_RECOMPUTED: Dict[str, str] = {}


def paper_rel_err(table4_rows, table5_rows) -> float:
    """Median relative error of every Table 4 and Table 5 value against
    :mod:`repro.analysis.paper_values`."""
    from repro.analysis import paper_values

    errors = []
    for row in table4_rows:
        paper = paper_values.TABLE4.get(
            (row["n_bits"], row["n_blocks"], row["code_key"])
        )
        if paper is not None:
            ours = (row["area_reduction"], row["speedup"], row["gain_product"])
            errors.extend(abs(o - p) / abs(p) for o, p in zip(ours, paper))
    for row in table5_rows:
        paper = paper_values.TABLE5.get(
            (row["code_key"], row["parallel_transfers"], row["n_bits"])
        )
        if paper is not None:
            ours = (
                row["l1_speedup"],
                row["l2_speedup"],
                row["adder_speedup"],
                row["area_reduction"],
                row["gain_product"],
            )
            errors.extend(abs(o - p) / abs(p) for o, p in zip(ours, paper))
    if not errors:
        raise ValueError("no Table 4 or Table 5 row has a paper value")
    return float(statistics.median(errors))
