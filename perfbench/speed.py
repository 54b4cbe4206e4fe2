"""Host-speed reference for run.py: fixed computations, repeated.

    python3 speed.py LOG

Every PERIOD_S seconds this process runs one reference chunk (about
15 ms of CPU), of the two kinds in turn, and appends "kind start end"
(time.monotonic) to LOG:
  ode  an RK45 solve with a Python right-hand side: interpreter-bound,
       like the scattering solver and the Python loop around every layer
  fft  small FFT convolutions: numpy calls on cache-resident arrays,
       like the Strang steps and the Lanczos updates
run.py starts it on the CPU and at the priority of the measured becmix
processes, so each chunk shares that CPU with them and takes longer when
the host gives the CPU less speed.  run.py divides every measured time
by the chunk time in the same window.  The chunks do not use becmix, so
a change to becmix moves the measured times and not the reference.  The
process exits when its parent does.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.2
Y0 = np.array([0.0, 1.0])
X = np.cos(np.arange(64.0))


def _rhs(t, y):
    return (y[1], -y[0])


def ode() -> None:
    solve_ivp(_rhs, (0.0, 2.4), Y0, method="RK45", rtol=1e-12, atol=1e-14, max_step=0.01)


def fft() -> None:
    for _ in range(480):
        np.fft.ifft(np.fft.fft(X) * X).real.sum()


CHUNKS = {"ode": ode, "fft": fft}


def read_log(path) -> list[tuple[str, float, float]]:
    """The (kind, start, end) of every complete chunk line of LOG."""
    chunks = []
    with open(path) as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 3 and line.endswith("\n"):
                chunks.append((fields[0], float(fields[1]), float(fields[2])))
    return chunks


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent = os.getppid()
    for chunk in CHUNKS.values():  # warm-up: imports, bytecode and caches
        chunk()
    kinds = list(CHUNKS)
    with open(argv[0], "w") as log:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            kind = kinds[0]
            kinds.append(kinds.pop(0))
            start = time.monotonic()
            CHUNKS[kind]()
            log.write(f"{kind} {start!r} {time.monotonic()!r}\n")
            log.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
