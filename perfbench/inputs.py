"""Seeded INI inputs for the benchmark workloads.

`workload(name, seed)` returns the CLI invocations of one workload pass,
each with the INI text the program reads and the parameters the output
checker needs.  Seed 0 reproduces the bundled configs byte for byte
(`configs/*.ini`), plus two generated effective configs
(gross_pitaevskii and rabi at M=64).  Any other seed draws every
amplitude, orbital `eps` and the barrier height uniformly within +-20%
of its seed-0 value, rounded to 4 decimals.  Sizes never change with
the seed (M, ladder, T, dt, sample_every, n_values), so the work per
pass stays the same.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

SPREAD = 0.2  # drawn values lie in [(1 - SPREAD) c, (1 + SPREAD) c] around seed-0 value c
TWO_PI = "6.283185307179586"

LADDER_TEXT = """\
# Convergence sweep: product initial data on the (1,1),(2,2),(3,3) ladder.
# The cross potential dominates so the 1/(N1+N2) envelope is visible at
# desk scale; intra-species couplings stay moderate.

[grid]
points = 10
length = {L}

[system]
mode = mean_field
v1 = cosine amp={v1} k=1
v2 = cosine amp={v2} k=2
v12 = cosine amp={v12} k=1
u0 = cospack eps={u_eps} k=1
v0 = cospack eps={v_eps} k=2
seed = 0

[ladder]
entries = 1,1; 2,2; 3,3

[time]
t = 0.5
dt = 1e-3
sample_every = 50

[indicators]
xi = 0.2
probe_time = 0.5

[output]
dir = out/sweep
"""

SCATTERING_TEXT = """\
# Shell calibration sweep for the square barrier, reporting the deficit
# norms of the modified problem per particle number.

[grid]
points = 8
length = {L}

[system]
mode = scattering
potential = box amp={amp} radius=1
n_values = 8; 16; 32
beta_values = 1.0

[output]
dir = out/scattering
"""

HARTREE_TEXT = """\
# One convolution-system trajectory with conserved-quantity sampling.

[grid]
points = 64
length = {L}

[system]
mode = hartree
v1 = cosine amp={v1} k=1
v2 = cosine amp={v2} k=2
v12 = cosine amp={v12} k=1
u0 = cospack eps={u_eps} k=1
v0 = cospack eps={v_eps} k=2
c1 = 0.5

[time]
t = 1.0
dt = 1e-3
sample_every = 100

[output]
dir = out/hartree
"""

SPIN1_TEXT = """\
# Spin-1 spinor run: exchange moves population between components while
# total mass and magnetization stay flat.

[grid]
points = 32
length = {L}

[system]
mode = spin1
a = {a}
u0 = gaussian x0=3.14 sigma=0.8
v0 = gaussian x0=2.64 sigma=0.8 k=1
w0 = zero

[time]
t = 1.0
dt = 1e-3
sample_every = 100

[output]
dir = out/spin1
"""

GP_TEXT = """\
# Local cubic two-component trajectory (generated for the benchmark).

[grid]
points = 64
length = {L}

[system]
mode = gross_pitaevskii
a1 = {a1}
a2 = {a2}
a12 = {a12}
u0 = cospack eps={u_eps} k=1
v0 = cospack eps={v_eps} k=2
c1 = 0.5

[time]
t = 1.0
dt = 1e-3
sample_every = 100

[output]
dir = out/gross_pitaevskii
"""

RABI_TEXT = """\
# Rabi-coupled pseudo-spinor trajectory (generated for the benchmark).
# Both orbitals are real, so the populations follow the closed form
# cos^2(b t) m1(0) + sin^2(b t) m2(0).

[grid]
points = 64
length = {L}

[system]
mode = rabi
a = {a}
b = {b}
u0 = cospack eps={u_eps} k=1
v0 = cospack eps={v_eps} k=2

[time]
t = 1.0
dt = 1e-3
sample_every = 100

[output]
dir = out/rabi
"""

# (file name, subcommand, template, seed-0 values of the drawn parameters)
_SPECS = {
    "sweep_ladder": ("sweep", LADDER_TEXT,
                     {"v1": 0.2, "v2": 0.15, "v12": 0.8, "u_eps": 0.3, "v_eps": 0.25}),
    "scattering_box": ("scattering", SCATTERING_TEXT, {"amp": 2.0}),
    "effective_hartree": ("effective", HARTREE_TEXT,
                          {"v1": 0.8, "v2": 0.6, "v12": 0.5, "u_eps": 0.3, "v_eps": 0.25}),
    "effective_spin1": ("effective", SPIN1_TEXT, {"a": 0.05}),
    "effective_gross_pitaevskii": ("effective", GP_TEXT,
                                   {"a1": 0.05, "a2": 0.04, "a12": 0.03,
                                    "u_eps": 0.3, "v_eps": 0.25}),
    "effective_rabi": ("effective", RABI_TEXT,
                       {"a": 0.05, "b": 1.0, "u_eps": 0.3, "v_eps": 0.25}),
}

WORKLOADS = {
    "ladder": ("sweep_ladder",),
    "calibration": ("scattering_box",),
    "effective": ("effective_hartree", "effective_spin1",
                  "effective_gross_pitaevskii", "effective_rabi"),
}

# sizes shared by every seed; the checker derives expected row counts from them
SIZES = {
    "sweep_ladder": {"points": 10, "ladder": [(1, 1), (2, 2), (3, 3)], "t": 0.5,
                     "dt": 1e-3, "sample_every": 50, "probe_time": 0.5},
    "scattering_box": {"radius": 1.0, "n_values": [8, 16, 32], "beta_values": [1.0]},
    "effective_hartree": {"mode": "hartree", "points": 64, "t": 1.0, "dt": 1e-3,
                          "sample_every": 100},
    "effective_spin1": {"mode": "spin1", "points": 32, "t": 1.0, "dt": 1e-3,
                        "sample_every": 100},
    "effective_gross_pitaevskii": {"mode": "gross_pitaevskii", "points": 64, "t": 1.0,
                                   "dt": 1e-3, "sample_every": 100},
    "effective_rabi": {"mode": "rabi", "points": 64, "t": 1.0, "dt": 1e-3,
                       "sample_every": 100},
}


@dataclass(frozen=True)
class Invocation:
    """One CLI run: `becmix <subcommand> <name>.ini`."""

    name: str
    subcommand: str
    text: str
    params: dict  # drawn values plus fixed sizes


def _draw(seed: int, central: dict[str, float], rng: random.Random) -> dict[str, float]:
    if seed == 0:
        return dict(central)
    return {k: round(rng.uniform((1 - SPREAD) * c, (1 + SPREAD) * c), 4)
            for k, c in central.items()}


def workload(name: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of workload `name` at `seed`."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    out = []
    for cfg_name in WORKLOADS[name]:
        subcommand, template, central = _SPECS[cfg_name]
        # one stream per config, so a config's draws do not depend on its neighbours
        rng = random.Random(f"{seed}:{cfg_name}")
        values = _draw(seed, central, rng)
        text = template.format(L=TWO_PI, **{k: format(v, "g") for k, v in values.items()})
        out.append(Invocation(cfg_name, subcommand, text, {**values, **SIZES[cfg_name]}))
    return out
