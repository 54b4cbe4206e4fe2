"""Run the becmix CLI in this process with spans around its public calls.

    python3 tracer.py spans OUT.json -- [becmix CLI arguments]
    python3 tracer.py setup - -- [becmix CLI arguments]

`spans` wraps the layer entry points (module attributes that becmix
looks up at call time; no file of becmix is edited), runs the CLI, and
writes every span [name, start, end, parent index] and counter to
OUT.json at exit.  Counters are keyed "name@enclosing span".

`setup` replaces the first solver call of each subcommand with a hook
that prints time.monotonic() and exits, so the parent can time process
start -> imports -> config parsing -> first solver call.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
import types
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        where = self.spans[self._stack[-1]][0] if self._stack else ""
        self.counts[f"{name}@{where}"] += amount

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


# (module, attribute, span name); modules are given by import path
SPANS = [
    ("becmix.cli", "parse_config", "config.parse"),
    ("becmix.cli", "run_convergence_sweep", "harness.sweep"),
    ("becmix.cli", "emit_report", "harness.emit"),
    ("becmix.effective", "Trajectory.write_csv", "harness.emit"),
    ("becmix.effective", "Trajectory.append", "effective.sample"),
    ("becmix.harness", "hartree_energy", "effective.sample"),
    ("becmix.harness", "step", "effective.step"),
    ("becmix.effective", "step", "effective.step"),
    ("becmix.harness", "product_state", "manybody.product_state"),
    ("becmix.harness", "alpha_11", "indicators.alpha_11"),
    ("becmix.harness", "reduce_density", "indicators.trace_dist"),
    ("becmix.harness", "trace_distance", "indicators.trace_dist"),
    ("becmix.harness", "condensate_depletion", "indicators.depletion"),
    ("becmix.harness", "derivative_decomposition", "indicators.channels"),
    ("becmix.harness", "weight_expectation", "indicators.weights"),
    ("becmix.harness", "weight_s", "indicators.weights"),
    ("becmix.harness", "weight_n", "indicators.weights"),
    ("becmix.harness", "weight_m", "indicators.weights"),
    ("becmix.scattering", "scattering_length", "scattering.residual"),
    ("becmix.cli", "scattering_length", "scattering.residual"),
    ("becmix.cli", "calibrate_shell", "scattering.calibrate"),
    ("becmix.cli", "g_norms", "scattering.g_norms"),
]

# the first solver call of each subcommand
SOLVER_ENTRIES = [("becmix.cli", "run_convergence_sweep"), ("becmix.cli", "evolve"),
                  ("becmix.cli", "scattering_length")]


def _patch(module: str, attr: str, wrap) -> None:
    """Replace module.attr (attr may be "Class.method") by wrap(old)."""
    target = sys.modules[module]
    *owners, name = attr.split(".")
    for owner in owners:
        target = getattr(target, owner)
    setattr(target, name, wrap(getattr(target, name)))


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of an imported becmix in spans."""
    import becmix.cli  # noqa: F401  (imports every module SPANS names)
    import becmix.harness as harness

    for module, attr, name in SPANS:
        _patch(module, attr, functools.partial(tracer.timed, name))
    _patch("becmix.effective", "periodic_convolve",
           functools.partial(tracer.counted, "effective.convolve_calls"))

    build_basis = tracer.timed("manybody.build_basis", harness.build_basis)

    def traced_build_basis(*args, **kwargs):
        basis = build_basis(*args, **kwargs)
        tracer.count("manybody.basis_dim", basis.dim)
        return basis

    build_hamiltonian = tracer.timed("manybody.hamiltonian", harness.Hamiltonian)

    def traced_hamiltonian(spec, basis):
        H = build_hamiltonian(spec, basis)
        # per-instance: propagate() reaches apply() through the instance
        H.apply = tracer.counted("manybody.matvecs", H.apply)
        H.propagate = tracer.timed("manybody.propagate", H.propagate)
        return H

    harness.build_basis = traced_build_basis
    harness.Hamiltonian = traced_hamiltonian

    # the scattering subcommand writes its CSV rows inline
    def writer(fh, *args, **kwargs):
        rows = csv.writer(fh, *args, **kwargs)
        return types.SimpleNamespace(writerow=tracer.timed("harness.emit", rows.writerow))

    sys.modules["becmix.cli"].csv = types.SimpleNamespace(writer=writer)


def install_setup_probe() -> None:
    import becmix.cli  # noqa: F401

    def ready(*args, **kwargs):
        print(f"ready {time.monotonic()!r}", flush=True)
        os._exit(0)

    for module, attr in SOLVER_ENTRIES:
        _patch(module, attr, lambda old: ready)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[0] not in ("spans", "setup"):
        print(__doc__, file=sys.stderr)
        return 2
    mode, out_path, cli_args = argv[0], argv[1], argv[3:]
    if mode == "setup":
        install_setup_probe()
        return sys.modules["becmix.cli"].main(cli_args)
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["becmix.cli"]
    try:
        return tracer.timed("cli.main", cli.main)(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
