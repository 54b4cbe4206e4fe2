#!/usr/bin/env python3
"""Invariant slacks of one ladder entry at the probe time t*.

Prepares the entry's product state from the config's orbitals, propagates
it and the effective orbitals (lattice kinetic term, c1 = n1/(n1+n2), as
the sweep does) to t*, and prints the worst slack of each identity that
holds for every state:

  marginal sandwich    max{d_A, d_B} <= alpha <= d_A + d_B
  trace-norm chain     alpha <= Tr|gamma - |uv><uv|| <= 2 sqrt(alpha)
  counting resolution  sum_k P_k psi = psi, for each species
  c09 identities       (pp,pp), (qq,qq), (pq,pq)+(qp,qp) and (pp,qp) plus
                       its conjugate vanish

A slack is the amount by which an inequality fails (<= 0 when it holds)
or the size of a quantity that should be zero; each is compared with the
bound that `becmix check` uses.  Wall time and peak RSS close the report.
The entry's basis cap is raised to its dimension: the (5,5) entry at the
bundled M = 10 has 4,008,004 states and needs about 1.5 GB.

Usage: python scripts/edge_invariants.py [--config configs/sweep_ladder.ini] [--entry 4,4]
"""

import argparse
import math
from pathlib import Path
import resource
import sys
import time

import numpy as np

from becmix.config import basis_dim, parse_config
from becmix.effective import CouplingSpec, OrbitalState, integrate
from becmix.indicators import (
    alpha_11,
    counting_projectors,
    insertion_terms,
    marginal_bounds_check,
    reduce_density,
    trace_distance,
)
from becmix.manybody import Hamiltonian, HamiltonianSpec, build_basis, product_state, propagate

ROOT = Path(__file__).resolve().parent.parent


def entry(text: str) -> tuple[int, int]:
    n1, n2 = (int(n) for n in text.split(","))
    if n1 < 1 or n2 < 1:
        raise argparse.ArgumentTypeError(f"expected n1,n2 >= 1, got {text!r}")
    return n1, n2


def slacks(st, u, v, V12) -> list[tuple[str, float, float]]:
    """(name, worst slack, bound) of each invariant on the state st."""
    mb = marginal_bounds_check(st, u, v)
    a11 = alpha_11(st, u, v)
    td = trace_distance(reduce_density(st, (1, 1)), u, v)
    resolution = max(float(np.max(np.abs(sum(counting_projectors(st.basis, f, s).split(st))
                                         - st.psi)))
                     for f, s in ((u, "A"), (v, "B")))
    t = insertion_terms(st, u, v, V12)
    return [("marginal sandwich", max(mb.lhs_max - mb.middle, mb.middle - mb.rhs_sum), 1e-10),
            ("trace-norm chain", max(a11 - td, td - 2.0 * math.sqrt(max(a11, 0.0))), 1e-10),
            ("counting resolution", resolution, 1e-12),
            ("c09 |pp,pp|", abs(t["pp,pp"]), 1e-10),
            ("c09 |qq,qq|", abs(t["qq,qq"]), 1e-10),
            ("c09 |pq,pq + qp,qp|", abs(t["pq,pq"] + t["qp,qp"]), 1e-10),
            ("c09 |pp,qp + conj|", abs(t["pp,qp"] + np.conj(t["pp,qp"])), 1e-10)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", default=str(ROOT / "configs" / "sweep_ladder.ini"))
    ap.add_argument("--entry", type=entry, default=(4, 4), help="n1,n2 (default 4,4)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    cfg = parse_config(Path(args.config).read_text())
    n1, n2 = args.entry
    V = tuple(cfg.potential_field(slot) for slot in ("v1", "v2", "v12"))
    eff = OrbitalState((cfg.orbital_field("u0"), cfg.orbital_field("v0")), 0.0)
    basis = build_basis(cfg.points, n1, n2, dim_cap=basis_dim(cfg.points, n1, n2))
    H = Hamiltonian(HamiltonianSpec.mean_field(*V), basis)
    psi = product_state(*eff.components, basis)
    steps = round(cfg.probe_time / cfg.dt)
    if steps > 0:
        spec = CouplingSpec.hartree(*V, c1=n1 / (n1 + n2), kinetic="stencil")
        eff = integrate(eff, spec, cfg.dt, [steps])[0]
        psi = propagate(H, psi, steps * cfg.dt)
    t1 = time.perf_counter()
    rows = slacks(psi, *eff.components, V[2])
    t2 = time.perf_counter()

    print(f"entry ({n1},{n2}), M = {cfg.points}, dim = {basis.dim}, t* = {psi.time:g}")
    width = max(len(name) for name, _, _ in rows)
    failures = 0
    for name, slack, bound in rows:
        ok = slack <= bound
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {slack:+.3e}  (<= {bound:.0e})")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(f"wall {t2 - t0:.2f} s (set-up and propagation {t1 - t0:.2f} s, "
          f"invariants {t2 - t1:.2f} s), peak RSS {peak:.0f} MB")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
