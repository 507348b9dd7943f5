"""Record a result set: every workload over several seeds, interleaved.

Usage, from the root of a checkout::

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --output perfbench/results/NAME.json [--workloads ...] [--trace]

Runs ``run.py`` once per (seed, workload), cycling through the
workloads within each seed so that a drift of the host spreads over
all of them.  For each workload and end-to-end metric it reports the
median, the quartiles and the spread (interquartile distance over the
median), and flags a spread above a third of the metric's bound in
``BENCHMARK.json``.  With ``--trace`` it adds one traced run per
workload, on the first seed.  Each run's host calibration loop is kept
with its result.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}"
        )
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "wall_s": wall,
        "printed": printed(lines),
        **json.loads(lines[-1]),
    }


def printed(lines):
    """The ``  name value [unit]`` lines of run.py's report, by name;
    values that read as numbers become floats."""
    found = {}
    for line in lines:
        match = re.match(r"^  ([A-Za-z0-9][\w.\-]*) +(.*)$", line)
        if match:
            name, text = match.groups()
            head = text.split(" ", 1)[0]
            try:
                found[name] = float(head)
            except ValueError:
                found[name] = text
    return found


def quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "spread": spread(values)}


def summarize(runs, config) -> dict:
    """Per workload: quartiles of every end-to-end metric (with its
    bound, and whether the spread is under a third of it), and of every
    numeric diagnostic."""
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if not r["trace"]):
        mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
        rows = {}
        for name, bound in bounds.items():
            row = quartiles([r["metrics"][name]["value"] for r in mine])
            row["bound"] = bound
            row["steady"] = name == "setup_s" or row["spread"] < bound / 3
            rows[name] = row
        diagnostics = {}
        for name, value in mine[0]["printed"].items():
            values = [r["printed"].get(name) for r in mine]
            if name not in rows and all(isinstance(v, float) for v in values):
                diagnostics[name] = quartiles(values)
        summary[workload] = {"metrics": rows, "diagnostics": diagnostics}
    return summary


def main() -> None:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        for workload in args.workloads:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(
                f"{workload:<22} seed {seed:<4} {runs[-1]['wall_s']:6.1f} s  "
                f"calibration {runs[-1]['printed']['calibration_s']:.3f} s",
                flush=True,
            )
    if args.trace:
        for workload in args.workloads:
            runs.append(run_once(workload, args.seeds[0], args.seconds, 1))
    summary = summarize(runs, config) if len(args.seeds) > 1 else {}
    for workload, parts in summary.items():
        print(workload)
        for name, row in parts["metrics"].items():
            flag = "" if row["steady"] else "  <-- spread above bound/3"
            print(
                f"  {name:<22} median {row['median']:<12.6g} spread "
                f"{row['spread']:.3f} (bound {row['bound']}){flag}"
            )
        for name, row in parts["diagnostics"].items():
            print(
                f"  ({name:<20} median {row['median']:<12.6g} spread "
                f"{row['spread']:.3f})"
            )
    if args.output:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(
                {
                    "python": platform.python_version(),
                    "seconds": args.seconds,
                    "seeds": args.seeds,
                    "summary": summary,
                    "runs": runs,
                },
                indent=1,
            )
            + "\n"
        )
        print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
