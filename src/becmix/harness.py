"""Convergence sweeps: co-evolve the lattice gas and its effective system.

One sweep runs the particle-number ladder of an ExperimentConfig.  Each
entry prepares the condensed product state, advances the coupled
convolution system in dt Strang steps (lattice kinetic term on both
sides, so the derivative identity is exact), propagates the many-body
state exactly from one sample point to the next in one Krylov call, and
samples every indicator column there.  Reports are deterministic
functions of (config, seed): re-running writes byte-identical CSVs at
any thread count, since entries are independent and assembled in ladder
order.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from traceback import format_exc

import numpy as np

from . import __version__
from .config import ExperimentConfig
from .effective import CouplingSpec, OrbitalState, hartree_energy, step
from .indicators import (
    alpha_11,
    condensate_depletion,
    counting_projectors,
    derivative_decomposition,
    reduce_density,
    trace_distance,
    weight_expectation,  # noqa: F401  (perfbench/tracer.py patches this attribute)
    weight_m,
    weight_n,
    weight_s,
)
from .manybody import Hamiltonian, HamiltonianSpec, build_basis, manybody_energy, product_state

__all__ = ["SweepEntry", "SweepReport", "HarnessError", "run_convergence_sweep", "emit_report"]

INDICATOR_COLUMNS = ("t", "alpha_11", "trace_dist", "alpha_10", "alpha_01",
                     "C_V1_im", "C_V2_im", "C_V12_im",
                     "weight_s", "weight_n", "weight_m")


class HarnessError(RuntimeError):
    pass


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


def _run_entry(cfg: ExperimentConfig, n1: int, n2: int) -> SweepEntry:
    entry = SweepEntry(n1=n1, n2=n2)
    try:
        grid = cfg.build_grid()
        V1 = cfg.potential_field("v1")
        V2 = cfg.potential_field("v2")
        V12 = cfg.potential_field("v12")
        u0 = cfg.orbital_field("u0")
        v0 = cfg.orbital_field("v0")
        basis = build_basis(grid.points_per_axis, n1, n2, dim_cap=cfg.cap)
        entry.dim = basis.dim
        mb_spec = HamiltonianSpec.mean_field(grid, V1, V2, V12, n1, n2)
        H = Hamiltonian(mb_spec, basis)
        # lattice kinetic term on the effective side isolates the
        # particle-number dependence from discretization mismatch
        eff_spec = CouplingSpec.hartree(V1, V2, V12, c1=n1 / (n1 + n2), kinetic="stencil")

        psi = product_state(u0, v0, basis)
        eff = OrbitalState((u0, v0), 0.0)
        entry.energy_gap = abs(manybody_energy(H, psi) - hartree_energy(eff, eff_spec))

        ws, wn, wm = weight_s(n1), weight_n(n1), weight_m(n1, cfg.xi)

        def sample(t: float, state, orbitals) -> tuple[float, ...]:
            u, v = orbitals.components
            a11 = alpha_11(state, u, v)
            td = trace_distance(reduce_density(state, (1, 1)), u, v)
            ch = derivative_decomposition(state, u, v, mb_spec)
            # one counting split serves all three weights (weight_expectation's sum)
            sectors = counting_projectors(state.basis, u, "A").sector_weights(state)
            return (t, a11, td,
                    condensate_depletion(state, u, "A"),
                    condensate_depletion(state, v, "B"),
                    ch.c_v1.imag, ch.c_v2.imag, ch.c_v12.imag,
                    *(float(np.dot(w.values, sectors)) for w in (ws, wn, wm)))

        entry.rows.append(sample(0.0, psi, eff))
        if entry.rows[0][1] > 1e-10:
            raise HarnessError(f"product initial data has alpha(0) = {entry.rows[0][1]:.3e}")

        n_steps = int(round(cfg.T / cfg.dt))
        probe_step = int(round(cfg.probe_time / cfg.dt))
        alpha_probe = entry.rows[0][1] if probe_step == 0 else None
        last = 0
        for k in range(1, n_steps + 1):
            eff = step(eff, eff_spec, cfg.dt)
            if k % cfg.sample_every == 0 or k == n_steps or k == probe_step:
                psi = H.propagate(psi, (k - last) * cfg.dt)
                last = k
                row = sample(k * cfg.dt, psi, eff)
                entry.rows.append(row)
                if k == probe_step:
                    alpha_probe = row[1]
        entry.alpha_probe = alpha_probe if alpha_probe is not None else entry.rows[-1][1]
    except Exception as exc:  # keep the sweep alive; the entry carries the diagnostic
        entry.error = f"{type(exc).__name__}: {exc}"
        entry.traceback = format_exc()
    return entry


def run_convergence_sweep(cfg: ExperimentConfig, threads: int = 1) -> SweepReport:
    """Run every ladder entry and fit the probe-time decay exponent.

    Entries run concurrently when threads > 1 but are reported in ladder
    order, so outputs do not depend on scheduling.
    """
    if not cfg.ladder:
        raise HarnessError("the ladder is empty")
    t0 = time.perf_counter()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            entries = list(pool.map(lambda nn: _run_entry(cfg, *nn), cfg.ladder))
    else:
        entries = [_run_entry(cfg, n1, n2) for (n1, n2) in cfg.ladder]

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
