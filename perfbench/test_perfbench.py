"""Self-tests of the benchmark: generator, checker, tracer and report format.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from becmix.config import parse_config  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _params(workload: str, seed: int) -> dict:
    return inputs.workload(workload, seed)[0].params


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([[format(float(x), ".17g") if isinstance(x, float) else x
                           for x in row] for row in rows])


# --- generator ---------------------------------------------------------------

def test_seed_zero_reproduces_bundled_configs():
    bundled = 0
    for name in inputs.WORKLOADS:
        for inv in inputs.workload(name, 0):
            path = ROOT / "configs" / f"{inv.name}.ini"
            if path.is_file():
                assert inv.text == path.read_text(), inv.name
                bundled += 1
    assert bundled == 4


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_generator_is_deterministic_and_keeps_sizes(seed):
    for name in inputs.WORKLOADS:
        first, again = inputs.workload(name, seed), inputs.workload(name, seed)
        assert [i.text for i in first] == [i.text for i in again]
        for inv, ref in zip(first, inputs.workload(name, 0)):
            assert inv.text != ref.text
            cfg, ref_cfg = parse_config(inv.text), parse_config(ref.text)
            for key in ("mode", "points", "ladder", "T", "dt", "sample_every",
                        "n_values", "beta_values", "probe_time"):
                assert getattr(cfg, key) == getattr(ref_cfg, key), (inv.name, key)


def test_drawn_values_stay_in_their_ranges():
    for seed in range(1, 30):
        for name in inputs.WORKLOADS:
            for inv, ref in zip(inputs.workload(name, seed), inputs.workload(name, 0)):
                for key, central in ref.params.items():
                    if isinstance(central, float) and key not in inputs.SIZES[inv.name]:
                        lo, hi = sorted(((1 - inputs.SPREAD) * central,
                                         (1 + inputs.SPREAD) * central))
                        assert lo - 1e-4 <= inv.params[key] <= hi + 1e-4


# --- checker -----------------------------------------------------------------

def _calibration_output(out: Path, amp: float, l1=(7e-4, 9e-5, 1e-5)) -> str:
    rows = [[n, 1.0, 1.1734511758278565, -6e-16, v, 1e-3, 0.17]
            for n, v in zip((8, 16, 32), l1)]
    _write_csv(out / "scattering.csv", ["N", "beta", "C", "a_residual", "g_L1", "g_L2",
                                        "g_Linf"], rows)
    return f"a(V) = {check.barrier_scattering_length(amp, 1.0):.9f}; wrote x\n"


def test_calibration_checker_accepts_good_and_rejects_corrupt(tmp_path):
    p = _params("calibration", 3)
    log = _calibration_output(tmp_path, p["amp"])
    assert all(op.ok for op in check.check("scattering", p, tmp_path, log, 3, 0))

    wrong = log.replace("a(V) = 0", "a(V) = 1")
    assert not any(op.ok for op in check.check("scattering", p, tmp_path, wrong, 3, 0))
    assert not any(op.ok for op in check.check("scattering", p, tmp_path, log, 3, 1))

    _calibration_output(tmp_path, p["amp"], l1=(7e-4, 8e-4, 1e-5))
    assert [op.ok for op in check.check("scattering", p, tmp_path, log, 3, 0)] \
        == [True, False, True]

    rows = (tmp_path / "scattering.csv").read_text().splitlines()
    (tmp_path / "scattering.csv").write_text("\n".join(rows[:-1]) + "\n")
    assert not any(op.ok for op in check.check("scattering", p, tmp_path, log, 3, 0))


SERIES_COLUMNS = ["t", "alpha_11", "trace_dist", "alpha_10", "alpha_01", "C_V1_im",
                  "C_V2_im", "C_V12_im", "weight_s", "weight_n", "weight_m"]


def _ladder_output(out: Path, params: dict, alphas=None) -> None:
    n_rows = check._sample_steps(round(params["t"] / params["dt"]), params["sample_every"],
                                 round(params["probe_time"] / params["dt"]))
    if alphas is None:
        alphas = [3e-2 / (n1 + n2) ** 0.5 for n1, n2 in params["ladder"]]
    tot = [n1 + n2 for n1, n2 in params["ladder"]]
    fit = float(np.polyfit(np.log(tot), np.log(alphas), 1)[0])
    summary = []
    for (n1, n2), a in zip(params["ladder"], alphas):
        M = params["points"]
        dim = math.comb(M + n1 - 1, n1) * math.comb(M + n2 - 1, n2)
        summary.append([n1, n2, dim, a, 1e-3, fit, "ok"])
        rows = [[0.05 * k, 1.5 * x, 10 * x, x, x, 0.0, 0.0, 0.0, x, x, 0.4]
                for k, x in enumerate(np.linspace(0.0, a, n_rows))]
        _write_csv(out / f"series_n1-{n1}_n2-{n2}.csv", SERIES_COLUMNS, rows)
    _write_csv(out / "summary.csv", ["n1", "n2", "dim", "alpha_probe", "energy_gap",
                                     "fitted_exponent", "status"], summary)


def test_ladder_checker_accepts_good_and_rejects_corrupt(tmp_path):
    p = _params("ladder", 5)
    _ladder_output(tmp_path, p)
    assert all(op.ok for op in check.check("sweep", p, tmp_path, "", 5, 0))
    # seed 0 compares with the recorded reference, which these numbers miss
    assert not any(op.ok for op in check.check("sweep", p, tmp_path, "", 0, 0))

    series = tmp_path / "series_n1-2_n2-2.csv"
    lines = series.read_text().splitlines()
    series.write_text("\n".join(lines[:-1]) + "\n")  # a dropped row
    assert [op.ok for op in check.check("sweep", p, tmp_path, "", 5, 0)] == [True, False, True]

    _ladder_output(tmp_path, p)
    lines = series.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = "0.5"  # alpha_11 above alpha_10 + alpha_01
    series.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    assert [op.ok for op in check.check("sweep", p, tmp_path, "", 5, 0)] == [True, False, True]

    _ladder_output(tmp_path, p)
    rows = list(csv.reader(open(tmp_path / "summary.csv")))
    for row in rows[1:]:
        row[5] = "-0.7"  # a fitted exponent that does not fit the rows
    _write_csv(tmp_path / "summary.csv", rows[0], rows[1:])
    assert not any(op.ok for op in check.check("sweep", p, tmp_path, "", 5, 0))


def test_ladder_checker_accepts_the_reference_at_seed_zero(tmp_path):
    p = _params("ladder", 0)
    alphas = [check.LADDER_REFERENCE[e][0] for e in p["ladder"]]
    _ladder_output(tmp_path, p, alphas)
    rows = list(csv.reader(open(tmp_path / "summary.csv")))
    for row, entry in zip(rows[1:], p["ladder"]):
        row[4] = format(check.LADDER_REFERENCE[entry][1], ".17g")
    _write_csv(tmp_path / "summary.csv", rows[0], rows[1:])
    assert all(op.ok for op in check.check("sweep", p, tmp_path, "", 0, 0))


def _trajectory(out: Path, params: dict, masses: np.ndarray, mag=None) -> None:
    header = ["t"] + [f"mass_{i + 1}" for i in range(masses.shape[1])] + ["energy"]
    t = np.linspace(0.0, params["t"], masses.shape[0])
    rows = [[ti, *m, 1.0] for ti, m in zip(t, masses)]
    if mag is not None:
        header.append("magnetization")
        rows = [r + [g] for r, g in zip(rows, mag)]
    _write_csv(out / "trajectory.csv", header, rows)


def test_effective_checker_accepts_good_and_rejects_corrupt(tmp_path):
    hartree, spin1, gp, rabi = inputs.workload("effective", 2)
    n = check._sample_steps(1000, 100)
    flat = np.ones((n, 2))
    _trajectory(tmp_path, hartree.params, flat)
    assert check.check("effective", hartree.params, tmp_path, "", 2, 0)[0].ok
    assert not check.check("effective", hartree.params, tmp_path, "", 2, 1)[0].ok
    drift = flat.copy()
    drift[-1, 1] += 1e-9
    _trajectory(tmp_path, gp.params, drift)
    assert not check.check("effective", gp.params, tmp_path, "", 2, 0)[0].ok
    _trajectory(tmp_path, hartree.params, flat[:-1])
    assert not check.check("effective", hartree.params, tmp_path, "", 2, 0)[0].ok

    exchange = np.column_stack([np.linspace(0.5, 0.51, n), np.linspace(0.5, 0.48, n),
                                np.linspace(0.0, 0.01, n)])
    _trajectory(tmp_path, spin1.params, exchange, mag=np.full(n, 0.5))
    assert check.check("effective", spin1.params, tmp_path, "", 2, 0)[0].ok
    _trajectory(tmp_path, spin1.params, exchange, mag=np.linspace(0.5, 0.5 + 1e-7, n))
    assert not check.check("effective", spin1.params, tmp_path, "", 2, 0)[0].ok

    t = np.linspace(0.0, 1.0, n)
    c2, s2 = np.cos(rabi.params["b"] * t) ** 2, np.sin(rabi.params["b"] * t) ** 2
    _trajectory(tmp_path, rabi.params, np.column_stack([c2, s2]))
    assert check.check("effective", rabi.params, tmp_path, "", 2, 0)[0].ok
    slow = np.cos(0.99 * rabi.params["b"] * t) ** 2  # a wrong Rabi frequency
    _trajectory(tmp_path, rabi.params, np.column_stack([slow, 1.0 - slow]))
    assert not check.check("effective", rabi.params, tmp_path, "", 2, 0)[0].ok


# --- speed reference ---------------------------------------------------------

def _chunks(start: float, stop: float, length: float) -> list[tuple[str, float, float]]:
    """Alternating ode and fft chunks; fft chunks take twice as long."""
    return [(kind, t, t + scale * length)
            for t, (kind, scale) in zip(np.arange(start, stop, 0.05),
                                        itertools.cycle([("ode", 1.0), ("fft", 2.0)]))]


def test_speed_factor_divides_by_the_chunk_time_in_the_window():
    chunks = _chunks(0.0, 1.0, 0.010) + _chunks(1.0, 2.0, 0.020)
    geo = math.sqrt(2.0)  # geometric mean of the two kinds' relative times
    assert run.speed_factor(chunks, 0.0, 1.0) == pytest.approx(run.REF_CHUNK_S / (0.010 * geo))
    assert run.speed_factor(chunks, 1.0, 2.0) == pytest.approx(run.REF_CHUNK_S / (0.020 * geo))
    # too short a window for MIN_CHUNKS chunks: the nearest chunks stand in
    assert run.speed_factor(chunks, 1.5, 1.51) == pytest.approx(run.REF_CHUNK_S / (0.020 * geo))


def test_pass_metrics_cancel_a_slower_host():
    def child(start, wall):
        return run.ChildRun(start, start + wall, wall, 0.9 * wall, 80.0, 0, "")

    # two processes per pass; one factor from the chunks between the first start and last end
    fast = run.pass_metrics([child(0.0, 0.4), child(0.5, 0.5)], _chunks(0.0, 1.0, 0.010))
    slow = run.pass_metrics([child(1.0, 0.8), child(2.0, 1.0)], _chunks(1.0, 3.0, 0.020))
    assert slow == pytest.approx(fast)
    assert fast["wall_s"] == pytest.approx(0.9 * run.REF_CHUNK_S / (0.010 * math.sqrt(2.0)))
    assert run.pass_metrics([child(0.0, 1.0)], None) == pytest.approx(
        {"wall_s": 1.0, "cpu_s": 0.9, "peak_rss_mb": 80.0})


def test_speed_log_skips_a_partly_written_line(tmp_path):
    log = tmp_path / "speed.log"
    log.write_text("ode 1.0 1.005\nfft 2.0 2.006\node 3.0 3.0")
    assert speed.read_log(log) == [("ode", 1.0, 1.005), ("fft", 2.0, 2.006)]


# --- tracing and report ------------------------------------------------------

def test_self_time_subtracts_children():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
             ["a", 5.0, 6.0, 0]]
    own, calls = run.self_times({"spans": spans, "counts": {}})
    assert own == pytest.approx({"root": 6.0, "a": 3.0, "b": 1.0})
    assert calls == {"root": 1, "a": 2, "b": 1}


def test_tracer_records_layers_of_a_small_sweep(tmp_path):
    text = inputs.workload("ladder", 0)[0].text
    text = (text.replace("points = 10", "points = 4").replace("t = 0.5", "t = 0.01")
            .replace("sample_every = 50", "sample_every = 5")
            .replace("probe_time = 0.5", "probe_time = 0.01"))
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(text)
    dump = tmp_path / "spans.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "OMP_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), "spans", str(dump), "--",
                           "--out", str(tmp_path / "out"), "sweep", str(cfg)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(dump.read_text())
    metrics, _ = run.layer_metrics({"dumps": [data], "wall_s": 1.0, "output_bytes": 1})
    assert metrics["manybody.propagate_calls"] == 3 * 10
    assert metrics["effective.step_calls"] == 3 * 10
    assert metrics["indicators.samples"] == 3 * 3
    assert metrics["manybody.basis_dim"] == 4 * 4 + 10 * 10 + 20 * 20
    assert metrics["manybody.matvecs"] >= 2 * metrics["manybody.propagate_calls"]
    assert metrics["manybody.propagate_s"] > 0 and metrics["config.parse_s"] > 0


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]), m
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25 and m["better"] == "lower"
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
