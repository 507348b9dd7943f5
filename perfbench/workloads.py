"""The four workloads: which ``python -m repro.sweep`` commands each runs.

Every workload is a fixed list of CLI command lines in four phases,
run in this order with one fresh process per command:

``cold``
    the sweep itself into empty stores (``sweep_s``);
``warm``
    the sweep again with the workload's persistent state warm
    (``warm_sweep_s``): for ``codepairs-batched`` a fresh store over the
    trace cache the cold run filled, for the others a re-run over the
    complete store, which computes no cell;
``table``
    the read-out (``table_s``): ``sweep table``, and for
    ``paper-tables`` also the ``sweep merge`` of the Table 4 and 5 rows;
``serve``
    ``sweep serve`` over the finished store, queried by :mod:`load`.

``setup`` is a ``sweep status`` against an empty store: interpreter
start, imports and grid enumeration, with no cell computed
(``setup_s``).  ``checked`` lists ``sweep status`` command lines whose
grid and store are compared against the pins after each pass.

README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

CODEPAIRS_GRID = [
    "--prefetches", "none",
    "--codes", "steane", "bacon_shor",
    "--code-pairs", "bacon_shor:steane", "steane:bacon_shor",
    "--transfers", "5", "10", "20", "40",
    "--sizes", "32",
]

#: Traffic groups of the code-pairs grid: extractions in a cold run.
CODEPAIRS_GROUPS = 30

PAPER_KERNELS = ("transfer_cell", "specialization_cell", "hierarchy_cell")


@dataclass
class Plan:
    setup: List[str]
    cold: List[List[str]]
    warm: List[List[str]]
    table: List[List[str]]
    serve: List[str]
    checked: List[List[str]]
    #: Substring each cold / warm command's output must contain.
    expect_cold: str = ""
    expect_warm: str = ""
    #: Row files the table phase's ``sweep merge`` writes, by kernel.
    merged: Dict[str, Path] = field(default_factory=dict)


def _engine_default(d: Path, seed: int) -> Plan:
    store = f"fs:{d}/store"
    return Plan(
        setup=["status", "--store", f"fs:{d}/empty"],
        cold=[["run", "--store", store]],
        warm=[["run", "--store", store]],
        table=[["table", "--store", store]],
        serve=["serve", "--store", store, "--port", "0"],
        checked=[["status", "--store", store]],
    )


def _codepairs_batched(d: Path, seed: int) -> Plan:
    cache = ["--batched", "--trace-cache", str(d / "traces")]
    cold, warm = f"sqlite:{d}/cold.db", f"sqlite:{d}/warm.db"
    return Plan(
        setup=["status", "--store", f"sqlite:{d}/empty.db", *CODEPAIRS_GRID],
        cold=[["run", "--store", cold, *cache, *CODEPAIRS_GRID]],
        warm=[["run", "--store", warm, *cache, *CODEPAIRS_GRID]],
        table=[["table", "--store", warm, *CODEPAIRS_GRID]],
        serve=["serve", "--store", warm, "--port", "0", *CODEPAIRS_GRID],
        checked=[
            ["status", "--store", cold, *CODEPAIRS_GRID],
            ["status", "--store", warm, *CODEPAIRS_GRID],
        ],
        expect_cold=f"({CODEPAIRS_GROUPS} extractions)",
        expect_warm="(0 extractions)",
    )


def _paper_tables(d: Path, seed: int) -> Plan:
    store = f"fs:{d}/store"
    runs = [["run", "--kernel", k, "--store", store] for k in PAPER_KERNELS]
    merged = {
        "specialization_cell": d / "table4.json",
        "hierarchy_cell": d / "table5.json",
    }
    return Plan(
        setup=["status", "--kernel", "hierarchy_cell", "--store", f"fs:{d}/empty"],
        cold=runs,
        warm=runs,
        table=[
            ["table", "--kernel", "transfer_cell", "--store", store],
            *(
                ["merge", "--kernel", kernel, "--store", store, "--output", str(path)]
                for kernel, path in merged.items()
            ),
        ],
        serve=["serve", "--kernel", "transfer_cell", "--store", store, "--port", "0"],
        checked=[["status", "--kernel", k, "--store", store] for k in PAPER_KERNELS],
        merged=merged,
    )


def fidelity_grid_options(seed: int) -> List[str]:
    return [
        "--kernel", "fidelity_cell",
        "--prefetches", "none",
        "--sizes", "32", "64",
        "--fidelity-seed", str(seed),
    ]


def _fidelity_reservation(d: Path, seed: int) -> Plan:
    store = f"fs:{d}/store"
    grid = fidelity_grid_options(seed)
    return Plan(
        setup=["status", "--store", f"fs:{d}/empty", *grid],
        cold=[["run", "--store", store, *grid]],
        warm=[["run", "--store", store, *grid]],
        table=[["table", "--store", store, *grid]],
        serve=["serve", "--store", store, "--port", "0", *grid],
        checked=[["status", "--store", store, *grid]],
    )


#: Workload name -> plan builder ``(work directory, seed) -> Plan``.
WORKLOADS = {
    "engine-default": _engine_default,
    "codepairs-batched": _codepairs_batched,
    "paper-tables": _paper_tables,
    "fidelity-reservation": _fidelity_reservation,
}
