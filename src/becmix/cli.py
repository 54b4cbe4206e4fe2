"""Command line front end.

Subcommands:
  sweep CONFIG       convergence sweep over the particle-number ladder
  effective CONFIG   integrate one effective system, write trajectory CSV
  scattering CONFIG  shell calibration sweep, one CSV row per (N, beta)
  check              run the quick invariant battery

Common flags: --out DIR (overrides [output] dir), --seed N (overrides
the config seed), --threads N (ladder concurrency).
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .config import _EFFECTIVE, ConfigError, ExperimentConfig, HarnessError, parse_config
from .grids import Field
from .scattering import calibrate_shell, g_norms, scattering_length, ScatteringError

__all__ = ["main", "run"]


def _load_config(path: str, args) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    cfg = parse_config(text)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.echo.setdefault("system", {})["seed"] = str(args.seed)
    if args.out is not None:
        cfg.out_dir = args.out
    return cfg


# Only `sweep` (and `check`) load the lattice gas, and only `effective` (and the
# sweep's harness) the effective solvers: these three stay names of this module,
# which perfbench/tracer.py patches, and import their module when called.
def run_convergence_sweep(cfg: ExperimentConfig, threads: int = 1):
    """harness.run_convergence_sweep, importing the harness."""
    from .harness import run_convergence_sweep
    return run_convergence_sweep(cfg, threads=threads)


def emit_report(report, out_dir) -> list[Path]:
    """harness.emit_report, importing the harness."""
    from .harness import emit_report
    return emit_report(report, out_dir)


def evolve(state, spec, T: float, dt: float, sample_every: int = 1):
    """effective.evolve, importing the effective solvers."""
    from .effective import evolve
    return evolve(state, spec, T, dt, sample_every)


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args)
    report = run_convergence_sweep(cfg, threads=args.threads)
    paths = emit_report(report, cfg.out_dir)
    for entry in report.entries:
        if entry.error is None:
            print(f"({entry.n1},{entry.n2}) dim={entry.dim} "
                  f"alpha(t*)={entry.alpha_probe:.6e} energy_gap={entry.energy_gap:.6e}")
        else:
            print(f"({entry.n1},{entry.n2}) FAILED: {entry.error}")
    if report.fitted_exponent is not None:
        print(f"fitted exponent of alpha(t*) vs N1+N2: {report.fitted_exponent:.3f}")
    print(f"wrote {len(paths)} files to {cfg.out_dir}")
    return 1 if any(e.error for e in report.entries) else 0


def _build_coupling(cfg: ExperimentConfig):
    """The (CouplingSpec, OrbitalState) pair of an effective config."""
    from .effective import CouplingSpec, OrbitalState
    comps = [cfg.orbital_field("u0"), cfg.orbital_field("v0")]
    if cfg.mode not in _EFFECTIVE:
        raise ConfigError(f"mode {cfg.mode!r} is not an effective system")
    rabi_field = (lambda t, B=float(cfg.b_field): B) if cfg.mode == "rabi" else None
    spec = CouplingSpec(cfg.mode, cfg.build_grid(), cfg.c1, *(
        cfg.potential_field(v) if cfg.mode == "hartree" else None for v in ("v1", "v2", "v12")),
        a1=cfg.a1, a2=cfg.a2, a12=cfg.a12, a=cfg.a, rabi_field=rabi_field, kinetic=cfg.kinetic)
    if spec.n_components == 3:
        comps.append(cfg.orbital_field("w0"))
        # split the unit total mass between the occupied components
        occupied = 2 if np.all(comps[2].values == 0) else 3
        comps = [Field(spec.grid, c.values / np.sqrt(occupied)) for c in comps]
    return spec, OrbitalState(tuple(comps), 0.0)


def _cmd_effective(args) -> int:
    cfg = _load_config(args.config, args)
    spec, state = _build_coupling(cfg)
    traj = evolve(state, spec, cfg.T, cfg.dt, cfg.sample_every)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    snap_dir = None
    if cfg.snapshots:
        snap_dir = out / "snapshots"
        snap_dir.mkdir(exist_ok=True)
    traj.write_csv(out / "trajectory.csv", snapshot_dir=snap_dir)
    m0, mT = traj.masses[0], traj.masses[-1]
    print(f"{cfg.mode}: {len(traj.times)} samples to t={traj.times[-1]:g}")
    print(f"mass {tuple(round(x, 6) for x in m0)} -> {tuple(round(x, 6) for x in mT)}")
    drift = abs(traj.energies[-1] - traj.energies[0]) / max(1.0, abs(traj.energies[0]))
    print(f"energy drift {drift:.3e}; wrote {out / 'trajectory.csv'}")
    return 0


def _cmd_scattering(args) -> int:
    cfg = _load_config(args.config, args)
    if cfg.mode != "scattering":
        raise ConfigError(f"mode {cfg.mode!r} is not a scattering problem")
    V = cfg.radial_potential()
    base = scattering_length(V)
    rows = [["N", "beta", "C", "a_residual", "g_L1", "g_L2", "g_Linf"]]
    for beta in cfg.beta_values:
        for N in cfg.n_values:
            C, res = calibrate_shell(V, N, beta)
            l1, l2, linf = g_norms(res)
            rows.append([N, *(format(x, ".17g") for x in (beta, C, res.scattering_length,
                                                           l1, l2, linf))])
            print(f"N={N} beta={beta}: C={C:.9f} "
                  f"residual={res.scattering_length:.3e} L1={l1:.4e}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scattering.csv"
    with open(path, "w", newline="") as fh:  # every row computed: a failed run writes none
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow(row)
    print(f"a(V) = {base.scattering_length:.9f}; wrote {path}")
    return 0


def _cmd_check(args) -> int:
    from .checks import run_invariant_suite
    results = run_invariant_suite(seed=args.seed if args.seed is not None else 0)
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name:<{width}}  {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _int_at_least(low: int):
    """An argparse type that accepts the decimal integers >= low."""
    def parse(text: str) -> int:
        if not text.isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="becmix", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="output directory (overrides [output] dir)")
    parser.add_argument("--seed", type=_int_at_least(0), help="seed override")
    parser.add_argument("--threads", type=_int_at_least(1), default=1,
                        help="ladder concurrency")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, needs_config in (("sweep", _cmd_sweep, True),
                                   ("effective", _cmd_effective, True),
                                   ("scattering", _cmd_scattering, True),
                                   ("check", _cmd_check, False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("config")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, HarnessError, ScatteringError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The process entry: main(), then flush and exit skipping finalization (~27 ms
    of module teardown and garbage collection), so atexit handlers do not run."""
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start
                stream.flush()
    except OSError:
        sys.exit(code)  # a closed pipe: the interpreter reports it as it exits
    os._exit(code)


if __name__ == "__main__":
    run()
