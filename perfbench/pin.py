"""Write ``pins.json``: per-row digests of every workload's grids.

Usage, from the root of a checkout::

    PYTHONPATH=src python3 perfbench/pin.py

The rows are computed in this process, serially and without a store,
through the sweep runner's plain per-cell path, so the benchmark checks
the CLI's stores (batched, trace-cached, SQLite) against an independent
path.  The fidelity workload's Monte Carlo fields are pinned for seeds
``0`` to ``FIDELITY_SEEDS - 1``.  Re-run after a change that is meant
to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import checks
from workloads import WORKLOADS, fidelity_grid_options

#: Fidelity seeds whose Monte Carlo fields are pinned.
FIDELITY_SEEDS = 32


def main() -> None:
    pins = {}
    for name, build in WORKLOADS.items():
        if name == "fidelity-reservation":
            continue
        grids = {}
        for argv in build(Path("unused"), 0).checked:
            grid = checks.grid_for(argv)
            if grid.kernel not in grids:
                grids[grid.kernel] = [
                    checks.digest(row) for row in checks.computed_rows(grid)
                ]
        pins[name] = grids
    seed_free = None
    monte_carlo = {}
    for seed in range(FIDELITY_SEEDS):
        grid = checks.grid_for(["status", "--store", "unused", *fidelity_grid_options(seed)])
        parts = [checks.split_fidelity(row) for row in checks.computed_rows(grid)]
        free = [checks.digest(free) for free, _ in parts]
        if seed_free is not None and free != seed_free:
            raise SystemExit(f"seed {seed} changed seed-free fidelity fields")
        seed_free = free
        monte_carlo[str(seed)] = [checks.digest(mc) for _, mc in parts]
    pins["fidelity-reservation"] = {"seed_free": seed_free, "monte_carlo": monte_carlo}
    checks.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {checks.PINS}")


if __name__ == "__main__":
    main()
