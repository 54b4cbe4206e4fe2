"""Smoke runs of the example scripts, which import the public solver APIs."""

import os
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY_LADDER = """
[grid]
points = 4
length = 6.283185307179586

[system]
mode = mean_field
v1 = cosine amp=0.2 k=1
v2 = cosine amp=0.15 k=2
v12 = cosine amp=0.8 k=1
u0 = cospack eps=0.3 k=1
v0 = cospack eps=0.25 k=2

[ladder]
entries = 1,1; 2,2

[time]
t = 0.01
"""


@pytest.mark.parametrize("script,args", [
    ("deficit_norms.py", ["--n", "8", "16"]),
    ("spinor_demo.py", ["--t", "0.2"]),
    ("convergence_ladder.py", ["--config", "{tmp}/ladder.ini", "--out", "{tmp}/out"]),
    ("edge_invariants.py", ["--config", "{tmp}/ladder.ini", "--entry", "1,2"]),
], ids=["deficit_norms", "spinor_demo", "convergence_ladder", "edge_invariants"])
def test_script_runs(tmp_path, script, args):
    (tmp_path / "ladder.ini").write_text(TINY_LADDER)
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                          *(a.format(tmp=tmp_path) for a in args)],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
