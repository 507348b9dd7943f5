"""End-to-end benchmark of the ``python -m repro.sweep`` commands.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload engine-default --seed 1 \\
        --seconds 28 --trace 0

With ``--trace 0`` the workload's commands run as separate processes,
pass after pass, for about ``--seconds`` seconds, and the end-to-end
metrics are medians over the passes, host-normalised by a reference
workload (see ``reference.py``).  With ``--trace 1`` one untraced
and one traced pass run instead, and the per-layer metrics come from
spans recorded around each layer's entry points (see ``spans.py``);
the service is then hosted in this process.  Outputs are checked
after every pass, outside the timed commands.

Human-readable lines come first: the environment, diagnostics that are
not gated, and the metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.
Stores and caches live in a fresh directory under ``.perfbench-work/``
at the root of the checkout, removed at the end.  README.md in this
directory defines every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import load
import reference
import spans
from metrics import median, tail
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Least ``setup_s`` probes per run (after one untimed warm-up probe).
SETUP_PROBES = 5

#: Least passes per run, so that every metric is the median of at least
#: three samples and no single slow sample sets it.
MIN_PASSES = 3

#: Every run ends within this many seconds, or fails.
RUN_DEADLINE_S = 170.0

#: Time allowed for ``sweep serve`` to print its address, or to exit.
SERVE_WAIT_S = 30.0

#: Environment variables that size the BLAS thread pools of numpy.
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: The three command phases of a pass, in order (see workloads.py).
PHASES = ("cold", "warm", "table")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "warm_sweep_s": "s",
    "table_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """A command failed or timed out; the run has no result."""


@dataclass
class Pass:
    """One pass over a workload's cold, warm and table commands, with
    each phase's summed wall and CPU seconds."""

    wall_s: Dict[str, float] = field(default_factory=dict)
    cpu_s: Dict[str, float] = field(default_factory=dict)
    outputs: Dict[str, List[str]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ)
        # The program's own cache and fault-injection switches would make
        # a run warm or faulty; the benchmark runs without them.
        for name in ("REPRO_CACHE_DIR", "REPRO_CHAOS"):
            self.env.pop(name, None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        # One BLAS thread per command: the pool numpy starts at import
        # would otherwise compete with the main thread on a small host.
        for name in BLAS_THREADS:
            self.env[name] = "1"
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{self._dirs:03d}-{label}"
        path.mkdir()
        return path

    def plan(self, directory: Path):
        return WORKLOADS[self.workload](directory, self.seed)

    # -- processes --------------------------------------------------------
    def _reap(self, proc: subprocess.Popen, limit: float):
        """Wait for ``proc``; returns (exit code, its ``rusage``).

        ``os.wait4`` reaps the child and reports the resources it and
        its waited-for descendants used; signals go through ``os.kill``
        because ``Popen`` methods would reap it first.
        """
        timer = threading.Timer(
            max(0.0, limit - time.monotonic()), os.kill, (proc.pid, signal.SIGKILL)
        )
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= limit:
            raise BenchError(f"{proc.args[3:]} did not end in time")
        return proc.returncode, usage

    def command(self, args: List[str], log: Path, spans_file: Optional[Path] = None):
        """Run one sweep command, traced into ``spans_file`` if given;
        (wall s, CPU s, peak RSS MB, stdout, exit code)."""
        if spans_file is None:
            argv = [sys.executable, "-m", "repro.sweep", *args]
        else:
            argv = [
                sys.executable, str(HERE / "tracecmd.py"),
                str(spans_file), spans_file.stem, "--", *args,
            ]
        with open(log.with_suffix(".out"), "w") as out, open(
            log.with_suffix(".err"), "w"
        ) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            code, usage = self._reap(proc, self.deadline)
            wall = time.perf_counter() - start
        cpu = usage.ru_utime + usage.ru_stime
        rss = usage.ru_maxrss / 1024.0
        return wall, cpu, rss, log.with_suffix(".out").read_text(), code

    def run_pass(
        self, label: str, traced: bool = False, references: Optional[List[float]] = None
    ):
        """One pass of the cold, warm and table commands; (Pass, plan).
        Given ``references``, a reference probe before each phase after
        the first is appended to it."""
        directory = self.fresh_dir(label)
        plan = self.plan(directory)
        result = Pass()
        for phase in PHASES:
            if references is not None and phase != PHASES[0]:
                references.append(self.reference_probe())
            result.wall_s[phase] = result.cpu_s[phase] = 0.0
            result.outputs[phase] = []
            for index, args in enumerate(getattr(plan, phase)):
                log = directory / f"{phase}{index}"
                spans_file = log.with_suffix(".spans") if traced else None
                wall, cpu, rss, out, code = self.command(args, log, spans_file)
                if code != 0:
                    err = log.with_suffix(".err").read_text()[-2000:]
                    raise BenchError(f"{args[:3]} exited {code}: {err}")
                result.wall_s[phase] += wall
                result.cpu_s[phase] += cpu
                result.outputs[phase].append(out)
                result.peak_rss_mb = max(result.peak_rss_mb, rss)
        return result, plan

    def setup_probe(self) -> float:
        """Wall seconds of the workload's ``setup`` command."""
        directory = self.fresh_dir("setup")
        wall, _, _, out, code = self.command(
            self.plan(directory).setup, directory / "setup"
        )
        if code != 1 or "grid: 0/" not in out:
            raise BenchError(f"setup probe: exit {code}, output {out!r}")
        return wall

    def reference_probe(self) -> float:
        """CPU seconds of the reference workload, in its own process."""
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "reference.py")],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(0.1, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("reference workload did not end in time") from None
        if done.returncode != 0:
            raise BenchError(f"reference workload exited {done.returncode}")
        return float(done.stdout)

    def serve(self, plan, keys: List[str]):
        """``sweep serve`` in its own process, driven by :mod:`load`;
        (phase, server peak RSS MB)."""
        err = open(self.workdir / "serve.err", "a")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.sweep", *plan.serve],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=err, text=True,
        )
        try:
            ready, _, _ = select.select([proc.stdout], [], [], SERVE_WAIT_S)
            line = proc.stdout.readline() if ready else ""
            found = re.search(r" on (http://\S+)", line)
            if found is None:
                raise BenchError(f"serve did not start: {line!r}")
            phase = load.drive(found.group(1), keys, self.seed)
        finally:
            os.kill(proc.pid, signal.SIGINT)
            _, usage = self._reap(
                proc, min(self.deadline, time.monotonic() + SERVE_WAIT_S)
            )
            proc.stdout.close()
            err.close()
        return phase, usage.ru_maxrss / 1024.0

    def serve_in_process(self, plan, keys: List[str], tracer):
        """The same read load against a ``BackgroundService`` in this
        process, with the layer wrappers installed."""
        from repro.service.server import BackgroundService

        store = plan.serve[plan.serve.index("--store") + 1]
        grid = checks.grid_for(plan.serve)
        restore = spans.install(tracer)
        try:
            with BackgroundService(store, grid) as service:
                return load.drive(service.url, keys, self.seed)
        finally:
            restore()


def served_keys(plan) -> List[str]:
    return sorted({key for argv in plan.checked for key in checks.grid_for(argv).keys()})


# -- checks -------------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    paper_rel_err: Optional[float] = None

    def count(self, attempted: int, failed: int, problem: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{failed} of {attempted} {problem}")


def check_pass(bench: Bench, plan, result: Pass, phase, pins, verdict: Verdict):
    """Compare one pass's stored rows, outputs and, when ``phase`` is
    given, served answers with the pins; every failure is counted into
    ``verdict``."""
    rows_by_key: Dict[str, dict] = {}
    stored: Dict[str, list] = {}
    for argv in plan.checked:
        grid = checks.grid_for(argv)
        rows = checks.stored_rows(grid, argv[argv.index("--store") + 1])
        if bench.workload == "fidelity-reservation":
            bad = checks.fidelity_mismatches(grid, rows, pins[bench.workload], bench.seed)
        else:
            bad = checks.row_mismatches(rows, pins[bench.workload][grid.kernel])
        verdict.count(len(grid), bad, f"{grid.kernel} rows differ from the pins")
        if grid.kernel in stored:  # codepairs-batched: the warm store
            differ = sum(1 for a, b in zip(stored[grid.kernel], rows) if a != b)
            verdict.count(len(rows), differ, "warm rows differ from the cold rows")
        stored[grid.kernel] = rows
        for cell, row in zip(grid, rows):
            if row is not None:
                rows_by_key[cell.key] = row
    for phase_name, expected in (("cold", plan.expect_cold), ("warm", plan.expect_warm)):
        for out in result.outputs[phase_name]:
            verdict.count(1, int(expected not in out), f"{phase_name} runs lack {expected!r}")
    merged = {
        kernel: json.loads(path.read_text()) for kernel, path in plan.merged.items()
    }
    for kernel, rows in merged.items():
        same = checks.digest(rows) == checks.digest(stored[kernel])
        verdict.count(1, int(not same), f"merged {kernel} rows differ from the store")
    if merged:
        verdict.paper_rel_err = checks.paper_rel_err(
            merged["specialization_cell"], merged["hierarchy_cell"]
        )
    if phase is None:
        return
    table_text = result.outputs["table"][0]
    for response in phase.responses:
        ok = response.status == 200
        if ok and response.path == "/v1/table":
            ok = response.body.decode() + "\n" == table_text
        elif ok and response.path == "/v1/status":
            ok = json.loads(response.body).get("complete") is True
        elif ok:
            payload = json.loads(response.body)
            row = rows_by_key.get(payload.get("key"))
            ok = row is not None and checks.digest(payload.get("value")) == checks.digest(row)
        verdict.count(1, int(not ok), f"queries answered wrongly ({response.path})")
    unsent = load.POINT_QUERIES - len(phase.latencies("/v1/cell/"))
    verdict.count(unsent, unsent, "point queries never sent")


# -- environment ----------------------------------------------------------------


def environment(workdir: Path) -> Dict[str, object]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "scratch_fs": filesystem_type(workdir),
        "calibration_s": calibration_loop(),
    }


def filesystem_type(path: Path) -> str:
    """Type of the filesystem ``path`` lives on, from the mount table."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point = fields[1].replace("\\040", " ")
            inside = target == point or target.startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, kind = point, fields[2]
    return kind


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i % 7
    return time.perf_counter() - start


# -- runs -----------------------------------------------------------------------


def host_scale(references: List[float]) -> float:
    """Factor that turns this run's times into times on the host where
    the reference workload takes :data:`reference.NOMINAL_S`."""
    return reference.NOMINAL_S / median(references)


def timed_run(bench: Bench, seconds: float, pins):
    """Passes for about ``seconds``; (metrics, verdict, diagnostics).

    The first pass also runs the serve phase; later passes run only the
    timed commands, so a run holds as many samples of them as fit.  A
    pass starts only if at least half of it is expected to end within
    ``seconds`` of the run's start, so runs end about ``seconds`` in.
    The reference workload runs before each pass's setup probe, before
    its warm and table phases, and once after the last pass.  Every time
    metric is a median over the passes, so a slow spell of the host
    during one pass moves it little, scaled by :func:`host_scale`, so a
    slow host during the whole run moves it little either.
    """
    start = time.monotonic()
    bench.setup_probe()  # untimed warm-up: bytecode caches, page cache
    setup: List[float] = []
    references: List[float] = []
    verdict = Verdict()
    passes: List[Pass] = []
    durations: List[float] = []
    phase = None
    check_s = 0.0
    while True:
        began = time.monotonic()
        references.append(bench.reference_probe())
        setup.append(bench.setup_probe())
        result, plan = bench.run_pass("pass", references=references)
        served = None
        if phase is None:
            served, rss = bench.serve(plan, served_keys(plan))
            phase = served
            result.peak_rss_mb = max(result.peak_rss_mb, rss)
        checked = time.perf_counter()
        check_pass(bench, plan, result, served, pins, verdict)
        check_s += time.perf_counter() - checked
        passes.append(result)
        durations.append(time.monotonic() - began)
        # The first pass served queries too, so it does not predict
        # the length of the next one.
        per_pass = median(durations[1:] or durations)
        owed = max(0, SETUP_PROBES - len(setup)) * median(setup)
        left = start + seconds - time.monotonic() - owed
        if len(passes) >= MIN_PASSES and left < per_pass / 2:
            break
        if time.monotonic() + 1.5 * per_pass > bench.deadline:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(bench.setup_probe())
    references.append(bench.reference_probe())
    tail_percentile, tail_value = tail(phase.latencies("/v1/cell/"))
    scale = host_scale(references)
    cpu = {name: median([p.cpu_s[name] for p in passes]) for name in PHASES}
    metrics = {
        "setup_s": scale * median(setup),
        "sweep_s": scale * cpu["cold"],
        "warm_sweep_s": scale * cpu["warm"],
        "table_s": scale * cpu["table"],
        # A child's peak RSS counts the benchmark process's RSS at fork,
        # and the checks after the first pass load the program into it.
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    diagnostics = {
        "passes": (len(passes), "count"),
        "check_s": (check_s, "s"),
        "reference_s": (median(references), "s"),
        "host_scale": (scale, "ratio"),
        "setup_wall_s": (median(setup), "s"),
        "sweep_cpu_s": (cpu["cold"], "s"),
        "warm_sweep_cpu_s": (cpu["warm"], "s"),
        "table_cpu_s": (cpu["table"], "s"),
        "sweep_wall_s": (median([p.wall_s["cold"] for p in passes]), "s"),
        "warm_sweep_wall_s": (median([p.wall_s["warm"] for p in passes]), "s"),
        "table_wall_s": (median([p.wall_s["table"] for p in passes]), "s"),
        "table_query_ms": (1e3 * median(phase.latencies("/v1/table")), "ms"),
        "point_query_ms": (1e3 * median(phase.latencies("/v1/cell/")), "ms"),
        "point_query_tail_ms": (1e3 * tail_value, "ms"),
        "point_query_tail_percentile": (tail_percentile, "%"),
        "queries_per_s": (len(phase.responses) / phase.wall_s, "1/s"),
    }
    return (
        {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()},
        verdict,
        diagnostics,
    )


def traced_run(bench: Bench, pins):
    """One untraced and one traced pass; (metrics, verdict, diagnostics)."""
    untraced, _ = bench.run_pass("untraced")
    traced, plan = bench.run_pass("traced", traced=True)
    tracer = spans.Tracer("serve")
    phase = bench.serve_in_process(plan, served_keys(plan), tracer)
    verdict = Verdict()
    check_pass(bench, plan, traced, phase, pins, verdict)
    recorded = list(tracer.spans)
    for path in sorted(bench.workdir.glob("*-traced/*.spans")):
        recorded.extend(spans.load(path))
    metrics = spans.layer_metrics(recorded)
    overhead = sum(traced.cpu_s.values()) / sum(untraced.cpu_s.values()) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")
    diagnostics = {"spans": (len(recorded), "count")}
    for phase_name in PHASES + ("serve",):
        subset = [s for s in recorded if str(s["run"]).startswith(phase_name)]
        diagnostics[f"dominant_layer.{phase_name}"] = (dominant_layer(subset), "")
    return metrics, verdict, diagnostics


def dominant_layer(recorded) -> str:
    """The layer with the most self time in ``recorded``, with its share
    of all layer self time."""
    busy = spans.layer_metrics(recorded)
    own = {layer: busy[f"{layer}.self_s"][0] for layer in spans.LAYERS}
    top = max(own, key=own.get)
    total = sum(own.values())
    if not total:
        return "none"
    return f"{top} ({own[top]:.3f} s, {own[top] / total:.0%} of layer self time)"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "sweep" / "cli.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pins = checks.load_pins()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        env = environment(workdir)
        if args.trace:
            metrics, verdict, diagnostics = traced_run(bench, pins)
        else:
            metrics, verdict, diagnostics = timed_run(bench, args.seconds, pins)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    if verdict.paper_rel_err is not None:
        diagnostics["paper_rel_err"] = (verdict.paper_rel_err, "ratio")
    diagnostics["error_rate"] = (verdict.failed / verdict.attempted, "ratio")
    report(args, env, diagnostics, metrics, verdict)
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if verdict.failed == 0 else 1


def report(args, env, diagnostics, metrics, verdict: Verdict) -> None:
    """The human-readable lines: ``  name value unit``, one a line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment")
    for name, value in env.items():
        print(f"  {name:<30} {value}")
    print(f"diagnostics (not gated; {verdict.failed} failed of {verdict.attempted})")
    for problem in verdict.problems:
        print(f"  MISMATCH: {problem}")
    for name, (value, unit) in diagnostics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {name:<30} {shown} {unit}".rstrip())
    print("metrics")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
