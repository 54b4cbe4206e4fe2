"""Convergence sweeps: co-evolve the lattice gas and its effective system.

One sweep runs the particle-number ladder of an ExperimentConfig.  The
coupled convolution system is advanced in dt Strang steps once per
distinct c1 (lattice kinetic term on both sides, so the derivative
identity is exact) and kept at the sample points.  Each entry prepares
the condensed product state, draws its states at all sample points from
one Krylov propagation (each Krylov space serves every sample it
reaches), and samples every indicator column there against the orbitals
of its c1.  Reports are
deterministic functions of (config, seed): re-running writes
byte-identical CSVs at any --threads, at a fixed BLAS thread count, since
entries are independent and assembled in ladder order.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from traceback import format_exc

import numpy as np

from . import __version__
from .config import ExperimentConfig, HarnessError
from .effective import CouplingSpec, OrbitalState, hartree_energy, integrate
from .effective import step  # noqa: F401  (perfbench/tracer.py patches it on this module)
from .indicators import SampleEvaluator, weight_m, weight_n, weight_s
# the sweep no longer calls these; perfbench/tracer.py patches them on this module
from .indicators import (alpha_11, condensate_depletion, derivative_decomposition,  # noqa: F401
                         reduce_density, trace_distance, weight_expectation)  # noqa: F401
from .manybody import (Hamiltonian, HamiltonianSpec, build_basis, manybody_energy, product_state,
                       propagate_through)

__all__ = ["SweepEntry", "SweepReport", "HarnessError", "run_convergence_sweep", "emit_report"]

INDICATOR_COLUMNS = ("t", "alpha_11", "trace_dist", "alpha_10", "alpha_01",
                     "C_V1_im", "C_V2_im", "C_V12_im",
                     "weight_s", "weight_n", "weight_m")


@dataclass
class SweepEntry:
    n1: int
    n2: int
    dim: int = 0
    rows: list[tuple[float, ...]] = field(default_factory=list)
    alpha_probe: float = float("nan")
    energy_gap: float = float("nan")
    error: str | None = None
    traceback: str | None = None


@dataclass
class SweepReport:
    entries: list[SweepEntry]
    fitted_exponent: float | None
    config_echo: dict
    seed: int
    version: str
    wall_clock_s: float


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class _Trajectory:
    """The effective orbitals of one c1 at the sample steps, or why they are missing."""

    steps: list[int]
    spec: CouplingSpec | None = None
    orbitals: list[OrbitalState] = field(default_factory=list)
    error: str | None = None
    traceback: str | None = None


def _effective_trajectory(cfg: ExperimentConfig, c1: float) -> _Trajectory:
    n_steps = int(round(cfg.T / cfg.dt))
    probe_step = int(round(cfg.probe_time / cfg.dt))
    traj = _Trajectory([0] + [k for k in range(1, n_steps + 1) if k % cfg.sample_every == 0
                              or k == n_steps or k == probe_step])
    try:
        # lattice kinetic term on the effective side isolates the
        # particle-number dependence from discretization mismatch
        traj.spec = CouplingSpec.hartree(cfg.potential_field("v1"), cfg.potential_field("v2"),
                                         cfg.potential_field("v12"), c1=c1, kinetic="stencil")
        eff = OrbitalState((cfg.orbital_field("u0"), cfg.orbital_field("v0")), 0.0)
        traj.orbitals = [eff, *integrate(eff, traj.spec, cfg.dt, traj.steps[1:])]
    except Exception as exc:  # every entry of this c1 carries the diagnostic
        traj.error = f"{type(exc).__name__}: {exc}"
        traj.traceback = format_exc()
    return traj


def _run_entry(cfg: ExperimentConfig, n1: int, n2: int, traj: _Trajectory) -> SweepEntry:
    entry = SweepEntry(n1=n1, n2=n2)
    try:
        grid = cfg.build_grid()
        basis = build_basis(grid.points_per_axis, n1, n2, dim_cap=cfg.cap)
        entry.dim = basis.dim
        if traj.error is not None:
            entry.error, entry.traceback = traj.error, traj.traceback
            return entry
        mb_spec = HamiltonianSpec.mean_field(grid, traj.spec.V1, traj.spec.V2, traj.spec.V12,
                                             n1, n2)
        H = Hamiltonian(mb_spec, basis)
        eff = traj.orbitals[0]
        psi = product_state(*eff.components, basis)
        entry.energy_gap = abs(manybody_energy(H, psi) - hartree_energy(eff, traj.spec))
        evaluate = SampleEvaluator(H, (weight_s(n1), weight_n(n1), weight_m(n1, cfg.xi)))
        entry.rows.append((0.0, *evaluate(psi, *eff.components)))
        if entry.rows[0][1] > 1e-10:
            raise HarnessError(f"product initial data has alpha(0) = {entry.rows[0][1]:.3e}")
        offsets = [k * cfg.dt for k in traj.steps[1:]]
        for psi, eff in zip(propagate_through(H, psi, offsets), traj.orbitals[1:], strict=True):
            entry.rows.append((psi.time, *evaluate(psi, *eff.components)))
        entry.alpha_probe = entry.rows[traj.steps.index(round(cfg.probe_time / cfg.dt))][1]
    except Exception as exc:  # keep the sweep alive; the entry carries the diagnostic
        entry.error = f"{type(exc).__name__}: {exc}"
        entry.traceback = format_exc()
    return entry


def run_convergence_sweep(cfg: ExperimentConfig, threads: int = 1) -> SweepReport:
    """Run every ladder entry and fit the probe-time decay exponent.

    The effective orbitals are integrated once per distinct c1 = n1/(n1+n2)
    and shared by the entries with that ratio.  Trajectories, then entries,
    run concurrently when threads > 1 but are reported in ladder order,
    so outputs do not depend on scheduling.  A document the sweep would
    misread (mode other than mean_field, dim other than 1) raises first.
    """
    if cfg.mode != "mean_field":   # first: only a mean_field document may set a ladder
        raise HarnessError(f"[system] mode: a sweep runs mode mean_field, got {cfg.mode!r}")
    if not cfg.ladder:
        raise HarnessError("[ladder] entries: the ladder is empty")
    if cfg.dim != 1:
        raise HarnessError(f"[grid] dim: the many-body harness is one-dimensional, got {cfg.dim}")
    t0 = time.perf_counter()

    def each(fn, items):
        if threads <= 1:
            return [fn(item) for item in items]
        # imported here: concurrent.futures and the logging it loads cost every process
        # several ms at start-up
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))

    ratios = list(dict.fromkeys(n1 / (n1 + n2) for n1, n2 in cfg.ladder))
    trajs = dict(zip(ratios, each(lambda c1: _effective_trajectory(cfg, c1), ratios)))
    entries = each(lambda nn: _run_entry(cfg, *nn, trajs[nn[0] / (nn[0] + nn[1])]), cfg.ladder)

    fitted = None
    good = [e for e in entries if e.error is None and e.alpha_probe > 0]
    if len(good) >= 3:
        logs = np.log([e.n1 + e.n2 for e in good])
        vals = np.log([e.alpha_probe for e in good])
        fitted = float(np.polyfit(logs, vals, 1)[0])
    return SweepReport(entries=entries, fitted_exponent=fitted,
                       config_echo=cfg.echo, seed=cfg.seed, version=__version__,
                       wall_clock_s=time.perf_counter() - t0)


def emit_report(report: SweepReport, out_dir) -> list[Path]:
    """Write per-entry series CSVs, the summary CSV and a JSON manifest.

    CSV payloads are pure functions of (config, seed); the manifest
    additionally records wall-clock time and the traceback of each failed
    entry, and is the only file allowed to differ between identical runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for entry in report.entries:
        if entry.error is not None:
            continue
        path = out / f"series_n1-{entry.n1}_n2-{entry.n2}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(INDICATOR_COLUMNS)
            for row in entry.rows:
                writer.writerow([_fmt(x) for x in row])
        written.append(path)

    summary = out / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n1", "n2", "dim", "alpha_probe", "energy_gap",
                         "fitted_exponent", "status"])
        fit = "" if report.fitted_exponent is None else _fmt(report.fitted_exponent)
        for entry in report.entries:
            if entry.error is not None:
                writer.writerow([entry.n1, entry.n2, entry.dim, "", "", fit,
                                 entry.error])
            else:
                writer.writerow([entry.n1, entry.n2, entry.dim,
                                 _fmt(entry.alpha_probe), _fmt(entry.energy_gap),
                                 fit, "ok"])
    written.append(summary)

    manifest = out / "manifest.json"
    with open(manifest, "w") as fh:
        json.dump({
            "config": report.config_echo,
            "version": report.version,
            "seed": report.seed,
            "wall_clock_s": report.wall_clock_s,
            "fitted_exponent": report.fitted_exponent,
            "tracebacks": {f"{e.n1},{e.n2}": e.traceback for e in report.entries if e.error},
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(manifest)
    return written
