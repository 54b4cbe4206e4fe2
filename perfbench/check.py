"""Output checker: one verdict per operation of a CLI run.

An operation is a ladder entry (`sweep`), an (N, beta) calibration
(`scattering`) or a trajectory (`effective`).  It fails if the run
exited nonzero, if an output it owns is missing or malformed, or if a
check below does not hold.

* ladder: status `ok`, the basis dimension, the series row count, and
  per row max(alpha_10, alpha_01) <= alpha_11 <= alpha_10 + alpha_01 and
  alpha_11 <= trace_dist <= 2 sqrt(alpha_11) (slack 1e-10, as c06).
  The fitted exponent must equal the least-squares fit of the summary
  rows; at seed 0, alpha_probe, energy_gap and the exponent must match
  LADDER_REFERENCE to LADDER_RTOL.
* calibration: a(V) = R - tanh(kappa R)/kappa, kappa = sqrt(amp/2), to
  1e-8; each |a_residual| <= 1e-8 * max(R, C) N^-beta; g_L1 falls with N.
* effective: mass drift per component < 1e-10 for hartree and
  gross_pitaevskii (c03); total mass and magnetization drift < 1e-8 for
  spin1 (c05); for rabi total mass drift < 1e-10 and the populations
  within 1e-6 of cos^2(b t) m1(0) + sin^2(b t) m2(0) (c04).
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BOUND_SLACK = 1e-10
LADDER_RTOL = 1e-6
A_TOL = 1e-8
RESIDUAL_TOL = 1e-8
MASS_TOL = {"hartree": 1e-10, "gross_pitaevskii": 1e-10, "rabi": 1e-10, "spin1": 1e-8}
MAGNETIZATION_TOL = 1e-8
RABI_TOL = 1e-6

# seed-0 sweep of configs/sweep_ladder.ini: (n1, n2) -> (alpha_probe, energy_gap)
LADDER_REFERENCE = {
    (1, 1): (0.016950362942321329, 0.0063246415298794517),
    (2, 2): (0.013571290433526673, 0.0031623207649402185),
    (3, 3): (0.010177063873833991, 0.0021082138432929054),
}
LADDER_REFERENCE_EXPONENT = -0.44889756165262162


@dataclass
class OpResult:
    label: str
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _read_csv(path: Path) -> list[dict[str, str]] | None:
    if not path.is_file():
        return None
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row: dict[str, str], *keys: str) -> list[float]:
    return [float(row[k]) for k in keys]


def _close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * abs(ref)


def _sample_steps(n_steps: int, every: int, extra: int | None = None) -> int:
    """Rows written: the initial sample plus every sampled step."""
    return 1 + sum(1 for k in range(1, n_steps + 1)
                   if k % every == 0 or k == n_steps or k == extra)


def check_ladder(params: dict, out: Path, log: str, seed: int) -> list[OpResult]:
    M, ladder = params["points"], params["ladder"]
    n_steps = round(params["t"] / params["dt"])
    rows_expected = _sample_steps(n_steps, params["sample_every"],
                                  round(params["probe_time"] / params["dt"]))
    summary = _read_csv(out / "summary.csv") or []
    results = []
    for i, (n1, n2) in enumerate(ladder):
        op = OpResult(f"entry ({n1},{n2})")
        results.append(op)
        row = summary[i] if i < len(summary) else None
        if row is None or (int(row["n1"]), int(row["n2"])) != (n1, n2):
            op.failures.append("missing from summary.csv")
            continue
        if row["status"] != "ok":
            op.failures.append(f"status {row['status']!r}")
            continue
        dim = math.comb(M + n1 - 1, n1) * math.comb(M + n2 - 1, n2)
        if int(row["dim"]) != dim:
            op.failures.append(f"dim {row['dim']} != {dim}")
        if seed == 0:
            ref_probe, ref_gap = LADDER_REFERENCE[(n1, n2)]
            probe, gap = _floats(row, "alpha_probe", "energy_gap")
            if not _close(probe, ref_probe, LADDER_RTOL):
                op.failures.append(f"alpha_probe {probe!r} != reference {ref_probe!r}")
            if not _close(gap, ref_gap, LADDER_RTOL):
                op.failures.append(f"energy_gap {gap!r} != reference {ref_gap!r}")
        series = _read_csv(out / f"series_n1-{n1}_n2-{n2}.csv")
        if series is None:
            op.failures.append("series CSV missing")
            continue
        if len(series) != rows_expected:
            op.failures.append(f"series has {len(series)} rows, expected {rows_expected}")
        for r in series:
            a11, td, a10, a01 = _floats(r, "alpha_11", "trace_dist", "alpha_10", "alpha_01")
            if not all(map(math.isfinite, (a11, td, a10, a01))):
                op.failures.append(f"non-finite indicator at t={r['t']}")
            elif (max(a10, a01) > a11 + BOUND_SLACK or a11 > a10 + a01 + BOUND_SLACK
                  or a11 > td + BOUND_SLACK
                  or td > 2.0 * math.sqrt(max(a11, 0.0)) + BOUND_SLACK):
                op.failures.append(f"marginal/chain bound violated at t={r['t']}")
    if len(summary) != len(ladder):
        for op in results:
            op.failures.append(f"summary.csv has {len(summary)} rows, expected {len(ladder)}")
    fit_problem = _fit_problem(summary, seed) if len(summary) == len(ladder) else None
    if fit_problem:
        for op in results:
            op.failures.append(fit_problem)
    return results


def _fit_problem(summary: list[dict[str, str]], seed: int) -> str | None:
    """Why the summary's fitted exponent is wrong, or None."""
    if any(r["status"] != "ok" for r in summary):
        return None  # the failing entry already carries the diagnostic
    fitted = float(summary[0]["fitted_exponent"])
    if any(float(r["fitted_exponent"]) != fitted for r in summary):
        return "fitted_exponent differs between summary rows"
    logs = np.log([int(r["n1"]) + int(r["n2"]) for r in summary])
    vals = np.log([float(r["alpha_probe"]) for r in summary])
    refit = float(np.polyfit(logs, vals, 1)[0])
    if not _close(fitted, refit, 1e-9):
        return f"fitted_exponent {fitted!r} != refit {refit!r}"
    if seed == 0 and not _close(fitted, LADDER_REFERENCE_EXPONENT, LADDER_RTOL):
        return f"fitted_exponent {fitted!r} != reference {LADDER_REFERENCE_EXPONENT!r}"
    return None


def barrier_scattering_length(amp: float, radius: float) -> float:
    kappa = math.sqrt(amp / 2.0)
    return radius - math.tanh(kappa * radius) / kappa


def check_calibration(params: dict, out: Path, log: str, seed: int) -> list[OpResult]:
    R = params["radius"]
    expected = [(n, b) for b in params["beta_values"] for n in params["n_values"]]
    results = [OpResult(f"calibration N={n} beta={b:g}") for n, b in expected]
    match = re.search(r"^a\(V\) = (\S+);", log, re.MULTILINE)
    a_ref = barrier_scattering_length(params["amp"], R)
    if match is None:
        a_problem = "a(V) line missing from the output"
    elif abs(float(match.group(1)) - a_ref) > A_TOL:
        a_problem = f"a(V) = {match.group(1)} != {a_ref:.12f}"
    else:
        a_problem = None
    rows = _read_csv(out / "scattering.csv") or []
    prev_l1: dict[float, float] = {}
    for i, (op, (n, beta)) in enumerate(zip(results, expected)):
        if a_problem:
            op.failures.append(a_problem)
        if i >= len(rows) or (int(rows[i]["N"]), float(rows[i]["beta"])) != (n, beta):
            op.failures.append("row missing from scattering.csv")
            continue
        C, res, l1 = _floats(rows[i], "C", "a_residual", "g_L1")
        if not (C > 1.0 and math.isfinite(res) and math.isfinite(l1)):
            op.failures.append(f"bad row: C={C!r} residual={res!r} g_L1={l1!r}")
            continue
        scale = max(R, C) * n ** -beta
        if abs(res) > RESIDUAL_TOL * scale:
            op.failures.append(f"residual {res:.3e} exceeds {RESIDUAL_TOL:g} * {scale:.3e}")
        if beta in prev_l1 and not l1 < prev_l1[beta]:
            op.failures.append(f"g_L1 {l1:.6e} does not fall below {prev_l1[beta]:.6e}")
        prev_l1[beta] = l1
    if len(rows) != len(expected):
        for op in results:
            op.failures.append(f"scattering.csv has {len(rows)} rows, expected {len(expected)}")
    return results


def check_effective(params: dict, out: Path, log: str, seed: int) -> list[OpResult]:
    mode = params["mode"]
    op = OpResult(f"{mode} trajectory")
    rows = _read_csv(out / "trajectory.csv")
    if rows is None:
        op.failures.append("trajectory.csv missing")
        return [op]
    n_steps = round(params["t"] / params["dt"])
    rows_expected = _sample_steps(n_steps, params["sample_every"])
    if len(rows) != rows_expected:
        op.failures.append(f"trajectory has {len(rows)} rows, expected {rows_expected}")
    if not rows:
        return [op]
    mass_keys = sorted(k for k in rows[0] if k.startswith("mass_"))
    t = np.array([float(r["t"]) for r in rows])
    masses = np.array([_floats(r, *mass_keys) for r in rows])
    if not np.all(np.isfinite(masses)):
        op.failures.append("non-finite mass")
        return [op]
    tol = MASS_TOL[mode]
    if mode in ("hartree", "gross_pitaevskii"):
        drift = float(np.max(np.abs(masses - masses[0])))
        if not drift < tol:
            op.failures.append(f"component mass drift {drift:.2e} >= {tol:g}")
    else:
        total = masses.sum(axis=1)
        drift = float(np.max(np.abs(total - total[0])))
        if not drift < tol:
            op.failures.append(f"total mass drift {drift:.2e} >= {tol:g}")
    if mode == "spin1":
        mag = np.array([float(r["magnetization"]) for r in rows])
        mag_drift = float(np.max(np.abs(mag - mag[0])))
        if not mag_drift < MAGNETIZATION_TOL:
            op.failures.append(f"magnetization drift {mag_drift:.2e} >= {MAGNETIZATION_TOL:g}")
    if mode == "rabi":
        c2, s2 = np.cos(params["b"] * t) ** 2, np.sin(params["b"] * t) ** 2
        m1 = c2 * masses[0, 0] + s2 * masses[0, 1]
        m2 = s2 * masses[0, 0] + c2 * masses[0, 1]
        err = float(np.max(np.abs(np.column_stack([m1, m2]) - masses)))
        if not err < RABI_TOL:
            op.failures.append(f"population error {err:.2e} >= {RABI_TOL:g}")
    return [op]


CHECKERS = {"sweep": check_ladder, "scattering": check_calibration,
            "effective": check_effective}


def check(subcommand: str, params: dict, out: Path, log: str, seed: int,
          returncode: int) -> list[OpResult]:
    """Verdicts for every operation of one CLI run."""
    results = CHECKERS[subcommand](params, out, log, seed)
    if returncode != 0:
        for op in results:
            op.failures.append(f"exit code {returncode}")
    return results
