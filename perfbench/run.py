"""becmix benchmark: run one workload through the CLI, check it, report metrics.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Workloads (see inputs.py): `ladder` (becmix sweep), `calibration`
(becmix scattering) and `effective` (four becmix effective
trajectories).  A pass runs every CLI invocation of the workload once,
one process after another (closed loop, single-threaded BLAS, one
client); passes repeat while the next one is expected to end within
--seconds (at least MIN_PASSES of them).  Every operation's
outputs are checked (check.py).

--trace 0 reports the end-to-end metrics, medians over passes:
  wall_s       time to solution of a pass: process start to exit,
               summed over its invocations
  setup_s      process start -> imports -> config parsing -> first
               solver call, median of SETUP_PROBES probe processes
  cpu_s        user + system CPU of the pass's processes
  peak_rss_mb  largest peak resident set of the pass's processes
The times are given at a fixed host speed.  This process and every
process it starts run on one CPU, and speed.py runs a fixed reference
chunk on that CPU every 0.2 s, next to the measured process.  The times
of a pass, and of a set-up probe, are multiplied by REF_CHUNK_S / (chunk
time within the pass or probe).  That cancels the host's speed, which on
a shared host moves by up to a factor of two within minutes, because the
program and the chunks slow down alike.  The raw times are printed too.
--trace 1 alternates untraced and traced passes (tracer.py) and reports
the per-layer split: self times of the spans, counters, and the tracing
overhead, all as measured (no reference process runs).

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.  The exit code is 0 only if every operation passed
its checks; 2 if the becmix sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402

SETUP_PROBES = 7       # least number of set-up probes per run, after one warm-up probe
MIN_PASSES = 2         # least number of passes of an untraced run
RUN_LIMIT_S = 170.0    # a child still running this long after start is killed
REF_CHUNK_S = 0.025    # chunk time (speed.py) at the reference speed: the scale of the times
MIN_CHUNKS = 5         # least number of reference chunks behind one speed factor

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "manybody.build_basis_s": "s",
    "manybody.hamiltonian_s": "s",
    "manybody.product_state_s": "s",
    "manybody.propagate_s": "s",
    "manybody.propagate_calls": "count",
    "manybody.matvecs": "count",
    "manybody.propagate_ms_per_matvec": "ms",
    "manybody.basis_dim": "count",
    "effective.step_s": "s",
    "effective.step_calls": "count",
    "effective.step_ms": "ms",
    "effective.sample_s": "s",
    "effective.convolve_calls": "count",
    "indicators.alpha_11_s": "s",
    "indicators.trace_dist_s": "s",
    "indicators.depletion_s": "s",
    "indicators.channels_s": "s",
    "indicators.weights_s": "s",
    "indicators.samples": "count",
    "scattering.residual_s": "s",
    "scattering.residual_calls": "count",
    "scattering.residual_ms": "ms",
    "scattering.calibrate_s": "s",
    "scattering.residual_calls_per_calibration": "count",
    "scattering.g_norms_s": "s",
    "config.parse_s": "s",
    "harness.emit_s": "s",
    "harness.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


@dataclass
class ChildRun:
    start: float  # time.monotonic() at spawn and at exit
    end: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    log: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(cmd: list[str], cwd: Path, log_path: Path, deadline: float) -> ChildRun:
    """Run cmd to completion; time it from spawn to exit and collect its rusage."""
    env = child_env()
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(start, end, end - start, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode,
                    log_path.read_text(errors="replace"))


class SpeedReference:
    """speed.py running next to the measured processes, on the same CPU."""

    def __init__(self, log: Path):
        self.log = log
        self.proc = subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(log)],
                                     env=child_env(), stdin=subprocess.DEVNULL)
        waited = time.monotonic()
        while not (log.is_file() and log.stat().st_size):  # warm-up done, first chunk run
            if self.proc.poll() is not None or time.monotonic() - waited > 60.0:
                self.stop()
                raise RuntimeError("the speed reference (speed.py) did not start")
            time.sleep(0.05)

    def stop(self) -> list[tuple[str, float, float]]:
        """End the reference process; return the (kind, start, end) of its chunks."""
        self.proc.kill()
        self.proc.wait()
        return speed.read_log(self.log) if self.log.is_file() else []


def speed_factor(chunks: list[tuple[str, float, float]], start: float, end: float) -> float:
    """REF_CHUNK_S over the chunk time of the reference within [start, end].

    The chunk time is the geometric mean, over the kinds of chunk, of the
    mean time of the chunks of that kind run within the window.  A window
    that holds fewer than MIN_CHUNKS chunks of a kind uses the MIN_CHUNKS
    of that kind whose midpoints lie nearest to its own.
    """
    mid = 0.5 * (start + end)
    logs = []
    for kind in sorted({c[0] for c in chunks}):
        of_kind = [(a, b) for k, a, b in chunks if k == kind]
        inside = [b - a for a, b in of_kind if a >= start and b <= end]
        if len(inside) < MIN_CHUNKS:
            of_kind.sort(key=lambda c: abs(0.5 * (c[0] + c[1]) - mid))
            inside = [b - a for a, b in of_kind[:MIN_CHUNKS]]
        logs.append(math.log(statistics.fmean(inside)))
    if not logs:
        raise RuntimeError("no reference chunks were recorded")
    return REF_CHUNK_S / math.exp(statistics.fmean(logs))


class Bench:
    """One benchmark run of a workload in its own work directory."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.invocations = inputs.workload(workload, seed)
        for inv in self.invocations:
            (work / f"{inv.name}.ini").write_text(inv.text)
        self.attempted = 0
        self.failed = 0
        self.diagnostics: list[str] = []

    def cli_args(self, inv: inputs.Invocation) -> list[str]:
        return ["--threads", "1", "--out", str(self.work / "out" / inv.name),
                inv.subcommand, str(self.work / f"{inv.name}.ini")]

    def setup_probe(self, inv: inputs.Invocation) -> tuple[float, float]:
        """Spawn and ready times of a process that stops at the first solver call."""
        cmd = [sys.executable, str(HERE / "tracer.py"), "setup", "-", "--", *self.cli_args(inv)]
        run = run_child(cmd, self.work, self.work / "probe.log", self.deadline)
        ready = [line for line in run.log.splitlines() if line.startswith("ready ")]
        if run.returncode != 0 or not ready:
            raise RuntimeError(f"set-up probe of {inv.name} failed:\n{run.log}")
        return run.start, float(ready[-1].split()[1])

    def run_pass(self, traced: bool) -> dict:
        """Run every invocation once; check outputs; return the pass's runs and totals."""
        totals = {"runs": [], "wall_s": 0.0, "output_bytes": 0, "dumps": []}
        for inv in self.invocations:
            out = self.work / "out" / inv.name
            shutil.rmtree(out, ignore_errors=True)
            dump = self.work / f"{inv.name}.spans.json"
            dump.unlink(missing_ok=True)
            prefix = ([sys.executable, str(HERE / "tracer.py"), "spans", str(dump), "--"]
                      if traced else [sys.executable, "-m", "becmix.cli"])
            run = run_child(prefix + self.cli_args(inv), self.work,
                            self.work / f"{inv.name}.log", self.deadline)
            totals["runs"].append(run)
            totals["wall_s"] += run.wall_s
            totals["output_bytes"] += sum(p.stat().st_size for p in out.rglob("*")
                                          if p.is_file())
            if traced and dump.is_file():
                totals["dumps"].append(json.loads(dump.read_text()))
            for op in check.check(inv.subcommand, inv.params, out, run.log, self.seed,
                                  run.returncode):
                self.attempted += 1
                if not op.ok:
                    self.failed += 1
                    self.diagnostics.append(f"{inv.name}: {op.label}: {'; '.join(op.failures)}")
            if run.returncode != 0:
                self.diagnostics.append(f"{inv.name} output:\n{run.log}")
        return totals


def self_times(dump: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Per span name: summed self time (duration minus child spans) and span count."""
    spans = dump["spans"]
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for (_, _, _, parent), d in zip(spans, dur):
        if parent >= 0:
            child[parent] += d
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, *_), d, c in zip(spans, dur, child):
        own[name] += d - c
        calls[name] += 1
    return own, calls


def layer_metrics(traced_pass: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced pass, and the self time of every span."""
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)  # counter name -> total
    matvecs_in_propagate = 0
    residuals_in_calibration = 0
    in_spans = 0.0
    for dump in traced_pass["dumps"]:
        o, c = self_times(dump)
        for name in o:
            own[name] += o[name]
            calls[name] += c[name]
        for key, n in dump["counts"].items():
            counts[key.partition("@")[0]] += n
            if key == "manybody.matvecs@manybody.propagate":
                matvecs_in_propagate += n
        spans = dump["spans"]
        residuals_in_calibration += sum(
            1 for name, _, _, parent in spans
            if name == "scattering.residual" and parent >= 0
            and spans[parent][0] == "scattering.calibrate")
        in_spans += sum(end - start for _, start, end, parent in spans if parent < 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "manybody.build_basis_s": own["manybody.build_basis"],
        "manybody.hamiltonian_s": own["manybody.hamiltonian"],
        "manybody.product_state_s": own["manybody.product_state"],
        "manybody.propagate_s": own["manybody.propagate"],
        "manybody.propagate_calls": calls["manybody.propagate"],
        "manybody.matvecs": counts["manybody.matvecs"],
        "manybody.propagate_ms_per_matvec":
            1e3 * ratio(own["manybody.propagate"], matvecs_in_propagate),
        "manybody.basis_dim": counts["manybody.basis_dim"],
        "effective.step_s": own["effective.step"],
        "effective.step_calls": calls["effective.step"],
        "effective.step_ms": 1e3 * ratio(own["effective.step"], calls["effective.step"]),
        "effective.sample_s": own["effective.sample"],
        "effective.convolve_calls": counts["effective.convolve_calls"],
        "indicators.alpha_11_s": own["indicators.alpha_11"],
        "indicators.trace_dist_s": own["indicators.trace_dist"],
        "indicators.depletion_s": own["indicators.depletion"],
        "indicators.channels_s": own["indicators.channels"],
        "indicators.weights_s": own["indicators.weights"],
        "indicators.samples": calls["indicators.alpha_11"],
        "scattering.residual_s": own["scattering.residual"],
        "scattering.residual_calls": calls["scattering.residual"],
        "scattering.residual_ms":
            1e3 * ratio(own["scattering.residual"], calls["scattering.residual"]),
        "scattering.calibrate_s": own["scattering.calibrate"],
        "scattering.residual_calls_per_calibration":
            ratio(residuals_in_calibration, calls["scattering.calibrate"]),
        "scattering.g_norms_s": own["scattering.g_norms"],
        "config.parse_s": own["config.parse"],
        "harness.emit_s": own["harness.emit"],
        "harness.output_bytes": traced_pass["output_bytes"],
    }
    own["(outside spans: interpreter, imports, exit)"] = traced_pass["wall_s"] - in_spans
    return m, dict(own)


def pass_metrics(runs: list[ChildRun], chunks: list[tuple[str, float, float]] | None
                 ) -> dict[str, float]:
    """wall_s, cpu_s and peak_rss_mb of one pass; times at REF_CHUNK_S speed if chunks given.

    One factor serves the whole pass: a single process of `effective`
    lasts about a second, too short for a steady mean chunk time.
    """
    factor = speed_factor(chunks, runs[0].start, runs[-1].end) if chunks is not None else 1.0
    return {"wall_s": factor * sum(r.wall_s for r in runs),
            "cpu_s": factor * sum(r.cpu_s for r in runs),
            "peak_rss_mb": max(r.peak_rss_mb for r in runs)}


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    keys = dict.fromkeys(k for r in rows for k in r)
    return {k: statistics.median(r.get(k, 0.0) for r in rows) for k in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "becmix" / "__init__.py").is_file():
        print(f"error: becmix sources not found under {SRC}", file=sys.stderr)
        return 2

    # one CPU for this process, the reference and every becmix process
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.monotonic()
    work = HERE / "_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reference = None
    chunks = None
    try:
        bench = Bench(args.workload, args.seed, work, started + RUN_LIMIT_S)
        if not args.trace:
            reference = SpeedReference(work / "speed.log")
        bench.setup_probe(bench.invocations[0])  # warm-up: bytecode and file caches
        setups: list[tuple[float, float]] = []

        def probe() -> None:
            inv = bench.invocations[len(setups) % len(bench.invocations)]
            setups.append(bench.setup_probe(inv))

        plain: list[dict] = []
        traced: list[dict] = []
        min_passes = 1 if args.trace else MIN_PASSES
        loop_start = time.monotonic()
        longest = 0.0  # the longest round so far
        while len(plain) < min_passes \
                or time.monotonic() - loop_start + longest <= args.seconds:
            round_start = time.monotonic()
            if not args.trace:
                probe()  # spread over the run, so slow and fast spells of the host both count
            plain.append(bench.run_pass(traced=False))
            if args.trace:
                traced.append(bench.run_pass(traced=True))
            longest = max(longest, time.monotonic() - round_start)
        while not args.trace and len(setups) < SETUP_PROBES:
            probe()
    finally:
        if reference is not None:
            chunks = reference.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced and {len(traced)} traced passes of "
          f"{len(bench.invocations)} CLI run(s), closed loop, one process at a time")
    print("untraced pass wall_s as measured:", " ".join(f"{p['wall_s']:.3f}" for p in plain))
    if args.trace:
        rows, spans = zip(*(layer_metrics(p) for p in traced))
        metrics = median_metrics(list(rows))
        metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                       - statistics.median(p["wall_s"] for p in plain))
        units = PER_LAYER_UNITS
        print("self time per span, median over traced passes:")
        for name, value in sorted(median_metrics(list(spans)).items(), key=lambda kv: -kv[1]):
            print(f"  {name:<48} {value:10.4f} s")
    else:
        rows = [pass_metrics(p["runs"], chunks) for p in plain]
        print(f"untraced pass wall_s at the reference speed ({len(chunks)} reference chunks):",
              " ".join(f"{r['wall_s']:.3f}" for r in rows))
        print("median as measured:", {k: round(v, 4) for k, v in
                                      median_metrics([pass_metrics(p["runs"], None)
                                                      for p in plain]).items()},
              "setup_s", round(statistics.median(b - a for a, b in setups), 4))
        metrics = median_metrics(rows)
        metrics["setup_s"] = statistics.median((b - a) * speed_factor(chunks, a, b)
                                               for a, b in setups)
        units = END_TO_END_UNITS
    for name in units:
        print(f"{name:<44} {metrics[name]:14.6f} {units[name]}")
    print(f"{'failed_frac':<44} {bench.failed / bench.attempted:14.6f} 1 "
          f"({bench.failed} of {bench.attempted} operations)")
    for line in bench.diagnostics:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
