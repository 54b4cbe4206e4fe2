import dataclasses
import json
import os
from pathlib import Path
import subprocess
import sys
import warnings

import numpy as np
import pytest

from becmix import config as config_mod
from becmix.config import ConfigError, parse_config
from becmix.effective import CouplingSpec
from becmix.grids import Field, l2_norm
from becmix.harness import INDICATOR_COLUMNS, emit_report, run_convergence_sweep
import becmix
from becmix import cli
import becmix.harness as harness_mod
import becmix.manybody as manybody_mod

MINIMAL = """
[grid]
points = 6
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
t = 0.05

[output]
dir = {out}
"""


def test_minimal_document_gets_defaults(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    assert cfg.dt == 1e-3
    assert cfg.xi == 0.2
    assert cfg.seed == 0
    assert cfg.probe_time == cfg.T
    assert cfg.ladder == [(1, 1), (2, 2)]


EVERY_KEY = """
[grid]
dim = 2
points = 6
length = 3.5

[system]
mode = hartree
v1 = cosine amp=0.5 k=2
v2 = gaussian amp=0.3 sigma=0.4
v12 = box amp=0.2 radius=0.7
u0 = mode k=2
v0 = cospack eps=0.1 k=3
w0 = uniform
c1 = 0.25
a1 = 0.1
a2 = 0.2
a12 = 0.3
a = 0.4
b = 0.6
kinetic = stencil
seed = 7
potential = gaussian amp=1.5 sigma=0.3
n_values = 4; 6
beta_values = 0.5 0.75

[ladder]
entries = 1,1; 2,1
cap = 5000
ratio_fixed = no

[time]
t = 0.2
dt = 0.002
sample_every = 5

[indicators]
xi = 0.3
probe_time = 0.1

[output]
dir = elsewhere
snapshots = 3
"""


# the keys each mode reads beside the shared [grid], [output] dir, mode and seed
READS = {
    "mean_field": "v1 v2 v12 u0 v0 entries cap ratio_fixed t dt sample_every xi probe_time",
    "hartree": "v1 v2 v12 u0 v0 c1 kinetic t dt sample_every snapshots",
    "gross_pitaevskii": "u0 v0 c1 a1 a2 a12 kinetic t dt sample_every snapshots",
    "rabi": "u0 v0 a b kinetic t dt sample_every snapshots",
    "spin1": "u0 v0 w0 a kinetic t dt sample_every snapshots",
    "scattering": "potential n_values beta_values",
}
SHARED = "dim points length mode seed dir"


def _every_key_split(mode: str) -> tuple[str, list[str]]:
    """EVERY_KEY in mode without the keys mode does not read, and their paths."""
    section, kept, unread = "", [], []
    for line in EVERY_KEY.replace("mode = hartree", f"mode = {mode}").splitlines():
        if line.startswith("["):
            section = line
        elif line and line.split()[0] not in (READS[mode] + " " + SHARED).split():
            unread.append(f"{section} {line.split()[0]}")
            continue
        kept.append(line)
    return "\n".join(kept), unread


def test_every_key_sets_its_field():
    cfgs = {mode: parse_config(_every_key_split(mode)[0]) for mode in READS}
    assert all(cfg.mode == mode for mode, cfg in cfgs.items())
    cfg, gp, rabi = cfgs["hartree"], cfgs["gross_pitaevskii"], cfgs["rabi"]
    assert (cfg.dim, cfg.points, cfg.length) == (2, 6, 3.5)
    assert (cfg.v1, cfg.v2, cfg.v12) == ("cosine amp=0.5 k=2", "gaussian amp=0.3 sigma=0.4",
                                         "box amp=0.2 radius=0.7")
    assert (cfg.u0, cfg.v0, cfgs["spin1"].w0) == ("mode k=2", "cospack eps=0.1 k=3", "uniform")
    assert (cfg.c1, gp.a1, gp.a2, gp.a12, rabi.a, rabi.b_field) == (0.25, 0.1, 0.2, 0.3,
                                                                    0.4, 0.6)
    assert (cfg.kinetic, cfg.seed, cfg.snapshots) == ("stencil", 7, 3)
    cfg = cfgs["scattering"]
    assert cfg.scatter_potential == "gaussian amp=1.5 sigma=0.3"
    assert (cfg.n_values, cfg.beta_values) == ([4, 6], [0.5, 0.75])
    cfg = cfgs["mean_field"]
    assert (cfg.ladder, cfg.cap, cfg.ratio_fixed) == ([(1, 1), (2, 1)], 5000, False)
    assert (cfg.T, cfg.dt, cfg.sample_every) == (0.2, 0.002, 5)
    assert (cfg.xi, cfg.probe_time) == (0.3, 0.1)
    assert cfg.out_dir == "elsewhere"
    assert cfg.echo["ladder"] == {"entries": "1,1; 2,1", "cap": "5000", "ratio_fixed": "no"}


@pytest.mark.parametrize("mode", sorted(READS))
def test_key_its_mode_does_not_read_rejected(mode):
    # a sweep used to ignore c1, kinetic, a12 and w0 without a word
    with pytest.raises(ConfigError) as err:
        parse_config(EVERY_KEY.replace("mode = hartree", f"mode = {mode}"))
    assert str(err.value).split("\n  ") == ["invalid configuration:", *(
        f"{path}: mode {mode} does not read this key" for path in _every_key_split(mode)[1])]


def test_one_bad_value_per_section_reports_each_line():
    doc = ("[grid]\nlength = inf\n"
           "[system]\nbeta_values = 0.5 nan\n"
           "[ladder]\nratio_fixed = maybe\n"
           "[time]\nsample_every = 0\n"
           "[indicators]\nxi = -1\n"
           "[output]\nsnapshots = many\n")
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert str(err.value).split("\n  ") == [
        "invalid configuration:",
        "[grid] length: cannot parse 'inf' as a finite number",
        "[system] beta_values: cannot parse '0.5 nan' as finite numbers",
        "[ladder] ratio_fixed: cannot parse 'maybe' (use 1/0, true/false or yes/no)",
        "[time] sample_every: sample_every must be >= 1",
        "[indicators] xi: xi must be positive, got -1.0",
        "[output] snapshots: cannot parse 'many'",
        "[system] beta_values: mode mean_field does not read this key",
        "[output] snapshots: mode mean_field does not read this key",
    ]


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\npoints = 8\nlenght = 3\n")
    assert "[grid] lenght" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config("[grids]\npoints = 8\n")
    assert "unknown section [grids]" in str(err.value)


def test_zero_particle_entry_rejected_by_name():
    doc = MINIMAL.format(out="x").replace("entries = 1,1; 2,2", "entries = 0,1")
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "[ladder] entries" in str(err.value)


def test_duplicate_ladder_entry_rejected():
    doc = MINIMAL.format(out="x").replace("entries = 1,1; 2,2", "entries = 1,1; 2,2; 2,2")
    with pytest.raises(ConfigError, match=r"\[ladder\] entries: \(2,2\) listed twice"):
        parse_config(doc)


def test_cap_violation_reports_dimension():
    doc = MINIMAL.format(out="x").replace("entries = 1,1; 2,2",
                                          "entries = 6,6\ncap = 1000")
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "213444" in str(err.value)  # C(11,6)^2 at 6 sites


def test_negative_points_with_ladder_is_a_config_error():
    # the cap check sizes the basis only once the point count is valid
    doc = MINIMAL.format(out="x").replace("points = 6", "points = -5")
    with pytest.raises(ConfigError, match=r"\[grid\] points: need at least 4 points"):
        parse_config(doc)


def test_varying_ratio_rejected_when_fixed():
    doc = MINIMAL.format(out="x").replace("entries = 1,1; 2,2", "entries = 1,1; 1,2")
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "ratio" in str(err.value)
    ok = parse_config(doc.replace("entries = 1,1; 1,2",
                                  "entries = 1,1; 1,2\nratio_fixed = false"))
    assert ok.ladder == [(1, 1), (1, 2)]


def test_bad_values_are_collected_with_paths():
    doc = MINIMAL.format(out="x").replace("points = 6", "points = 2")
    doc = doc.replace("t = 0.05", "t = -1")
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    msg = str(err.value)
    assert "[grid] points" in msg and "[time] t" in msg


def test_final_time_off_the_step_lattice_rejected():
    doc = MINIMAL.format(out="x").replace("t = 0.05", "t = 0.05\ndt = 0.02")
    with pytest.raises(ConfigError, match=r"\[time\] t: 0.05 is not a multiple of dt 0.02"):
        parse_config(doc)


def test_probe_time_off_the_step_lattice_rejected():
    doc = MINIMAL.format(out="x").replace("t = 0.05",
                                          "t = 0.05\n\n[indicators]\nprobe_time = 0.0335")
    with pytest.raises(ConfigError,
                       match=r"\[indicators\] probe_time: 0.0335 is not a multiple of dt 0.001"):
        parse_config(doc)
    assert parse_config(doc.replace("0.0335", "0.033")).probe_time == 0.033


@pytest.mark.parametrize("doc, key", [
    ("[time]\nt = inf", "[time] t"),
    ("[grid]\nlength = inf", "[grid] length"),
    ("[system]\na1 = inf", "[system] a1"),
    ("[system]\nb = nan", "[system] b"),
    ("[indicators]\nxi = inf", "[indicators] xi"),
    ("[system]\nv1 = cosine amp=nan", "[system] v1"),
])
def test_non_finite_numbers_rejected_at_parse_time(doc, key):
    with pytest.raises(ConfigError) as err:
        parse_config(doc + "\n")
    assert f"{key}: " in str(err.value) and "finite" in str(err.value)


def test_subnormal_dt_rejected_at_parse_time():
    # t / dt overflows to inf, which the step-lattice test cannot round
    with pytest.raises(ConfigError, match=r"\[time\] dt: 1e-320 is too small"):
        parse_config("[time]\nt = 0.5\ndt = 1e-320\n")


@pytest.mark.parametrize("dt", ["1e-300", "9.9e-09"])
def test_step_count_above_the_ceiling_rejected(dt):
    with pytest.raises(ConfigError, match=rf"\[time\] dt: {dt} is too small, t / dt exceeds "
                                          r"100,000,000 steps"):
        parse_config(f"[time]\nt = 1\ndt = {dt}\n")
    assert parse_config("[time]\nt = 1\ndt = 1e-8\n").dt == 1e-8


def test_repeated_expression_key_rejected():
    with pytest.raises(ConfigError, match=r"\[system\] v1: amp given twice"):
        parse_config("[system]\nv1 = cosine amp=1 amp=3\n")


UNUSABLE_SAMPLES = [
    ("effective", "u0 = gaussian sigma=1e-300",
     "[system] u0: 'gaussian sigma=1e-300' samples to non-finite"),
    ("effective", "v1 = gaussian sigma=1e-300",
     "[system] v1: 'gaussian sigma=1e-300' samples to non-finite"),
    ("effective", "v0 = gaussian sigma=1e-3 x0=0.3",
     "[system] v0: 'gaussian sigma=1e-3 x0=0.3': cannot normalize a zero field"),
    # a sweep used to sample per trajectory: it failed every entry, wrote its files, exited 1
    ("sweep", "v1 = gaussian sigma=1e-300",
     "[system] v1: 'gaussian sigma=1e-300' samples to non-finite"),
    ("sweep", "u0 = gaussian sigma=1e-300",
     "[system] u0: 'gaussian sigma=1e-300' samples to non-finite"),
]


@pytest.mark.parametrize("command, line, needle", UNUSABLE_SAMPLES,
                         ids=[f"{line}-{needle}" if command == "effective"
                              else f"{command}-{line}-{needle}"
                              for command, line, needle in UNUSABLE_SAMPLES])
@pytest.mark.filterwarnings("error")  # the ConfigError is the only diagnostic
def test_cli_effective_unusable_samples_are_config_errors(tmp_path, capsys, command, line,
                                                          needle):
    mode, ladder = {"effective": ("hartree", ""),
                    "sweep": ("mean_field", "[ladder]\nentries = 1,1\n")}[command]
    cfg_path = tmp_path / "bad.ini"
    cfg_path.write_text(f"[grid]\npoints = 16\n[system]\nmode = {mode}\n{line}\n{ladder}"
                        f"[time]\nt = 0.01\n[output]\ndir = {tmp_path / 'eff'}\n")
    assert cli.main([command, str(cfg_path)]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "eff").exists()


@pytest.mark.parametrize("line, needle", [
    ("potential = box radius=0", "[system] potential: radius must be positive, got 0"),
    ("potential = gaussian sigma=-0.5", "[system] potential: sigma must be positive, got -0.5"),
    ("v1 = gaussian sigma=0", "[system] v1: sigma must be positive, got 0"),
    ("u0 = gaussian sigma=0", "[system] u0: sigma must be positive, got 0"),
    ("v12 = box radius=-1", "[system] v12: radius must be positive, got -1"),
])
def test_expression_widths_must_be_positive(line, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(f"[system]\n{line}\n")
    assert needle in str(err.value)


@pytest.mark.parametrize("line, needle", [
    ("n_values =", "[system] n_values: no N given"),
    ("beta_values = ;", "[system] beta_values: no beta given"),
    ("n_values = 8 1", "[system] n_values: all N must be >= 2"),
    ("beta_values = 0.5 1.5", "[system] beta_values: beta must lie in (0,1]"),
])
def test_scattering_values_rejected_at_parse_time(line, needle):
    # an empty list would run no calibration and write a header-only scattering.csv
    with pytest.raises(ConfigError) as err:
        parse_config(f"[system]\nmode = scattering\n{line}\n")
    assert needle in str(err.value)


def test_cli_scattering_zero_radius_is_a_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "box.ini"
    cfg_path.write_text(f"[system]\nmode = scattering\npotential = box radius=0\n"
                        f"[output]\ndir = {tmp_path / 'sc'}\n")
    assert cli.main(["scattering", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "error: invalid configuration" in err and "radius must be positive" in err
    assert not (tmp_path / "sc").exists()


@pytest.mark.parametrize("probe", ["0.051", "-0.01"])
def test_probe_time_outside_the_run_rejected(probe):
    doc = MINIMAL.format(out="x").replace("t = 0.05",
                                          f"t = 0.05\n\n[indicators]\nprobe_time = {probe}")
    with pytest.raises(ConfigError,
                       match=rf"\[indicators\] probe_time: {probe} outside \[0, t\]"):
        parse_config(doc)
    for ok in ("0.0", "0.05"):
        assert parse_config(doc.replace(probe, ok)).probe_time == float(ok)


def test_sweep_columns_and_alpha_zero(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    report = run_convergence_sweep(cfg)
    assert len(report.entries) == 2
    for entry in report.entries:
        assert entry.error is None
        assert len(entry.rows[0]) == len(INDICATOR_COLUMNS)
        assert abs(entry.rows[0][1]) < 1e-10      # alpha(0) at product data
        times = [r[0] for r in entry.rows]
        assert times == sorted(times)
    assert report.fitted_exponent is None          # fewer than 3 entries


def test_sweep_fits_no_exponent_when_entries_share_n1_plus_n2(tmp_path):
    # three good entries, all at N1 + N2 = 4: a line through one abscissa has no slope
    doc = MINIMAL.format(out=tmp_path).replace("entries = 1,1; 2,2",
                                               "entries = 1,3; 2,2; 3,1\nratio_fixed = no")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_convergence_sweep(parse_config(doc))
    assert all(e.error is None and e.alpha_probe > 0 for e in report.entries)
    assert report.fitted_exponent is None
    emit_report(report, tmp_path / "r")
    rows = (tmp_path / "r" / "summary.csv").read_bytes().decode().strip().split("\r\n")
    assert [row.split(",")[5] for row in rows[1:]] == ["", "", ""]


def test_sweep_fitted_exponent_negative(tmp_path):
    doc = MINIMAL.format(out=tmp_path).replace("entries = 1,1; 2,2",
                                               "entries = 1,1; 2,2; 3,3")
    cfg = parse_config(doc)
    report = run_convergence_sweep(cfg)
    assert report.fitted_exponent is not None
    assert report.fitted_exponent < 0


def test_emit_report_files_and_rerun_identical(tmp_path):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    report = run_convergence_sweep(cfg)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    emit_report(report, out1)
    emit_report(run_convergence_sweep(cfg, threads=2), out2)
    for name in ("series_n1-1_n2-1.csv", "series_n1-2_n2-2.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "series_n1-1_n2-1.csv").read_bytes().split(b"\r\n")[0]
    assert header.decode() == ",".join(INDICATOR_COLUMNS)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert "wall_clock_s" in manifest


def test_sweep_entry_failure_is_diagnosed_not_fatal(tmp_path, monkeypatch):
    cfg = parse_config(MINIMAL.format(out=tmp_path))
    real = harness_mod.product_state

    def flaky(u, v, basis):
        if basis.N1 == 2:
            raise RuntimeError("synthetic failure")
        return real(u, v, basis)

    monkeypatch.setattr(harness_mod, "product_state", flaky)
    report = run_convergence_sweep(cfg)
    assert report.entries[0].error is None
    assert "synthetic failure" in report.entries[1].error
    assert report.entries[0].traceback is None
    out = tmp_path / "partial"
    emit_report(report, out)
    rows = (out / "summary.csv").read_bytes().decode().strip().split("\r\n")
    assert len(rows) == 3
    assert rows[2].endswith(",RuntimeError: synthetic failure")
    tracebacks = json.loads((out / "manifest.json").read_text())["tracebacks"]
    assert list(tracebacks) == ["2,2"]
    assert "in flaky" in tracebacks["2,2"]
    assert tracebacks["2,2"].rstrip().endswith("RuntimeError: synthetic failure")


@pytest.mark.parametrize("entries,trajectories", [("1,1; 2,2", 1), ("1,2; 2,2", 2)])
def test_effective_trajectory_integrated_once_per_ratio(tmp_path, monkeypatch, entries,
                                                        trajectories):
    doc = MINIMAL.format(out=tmp_path).replace(
        "entries = 1,1; 2,2", f"entries = {entries}\nratio_fixed = false")
    cfg = parse_config(doc)
    real = harness_mod.integrate
    calls = []

    def counting_integrate(*args):
        calls.append(args[1].c1)
        return real(*args)

    monkeypatch.setattr(harness_mod, "integrate", counting_integrate)
    sampled = []

    def counting_sample(real_sample):
        def sample(self, slot):
            sampled.append(slot)
            return real_sample(self, slot)
        return sample

    for method in ("potential_field", "orbital_field"):
        monkeypatch.setattr(config_mod.ExperimentConfig, method,
                            counting_sample(getattr(config_mod.ExperimentConfig, method)))
    shared = run_convergence_sweep(cfg, threads=2)
    assert len(calls) == trajectories
    assert sorted(sampled) == ["u0", "v0", "v1", "v12", "v2"]   # once per sweep, not per c1
    # each entry alone integrates its own trajectory: the rows are the same bits
    for entry in shared.entries:
        assert entry.error is None
        alone = parse_config(doc.replace(f"entries = {entries}",
                                         f"entries = {entry.n1},{entry.n2}"))
        ref = run_convergence_sweep(alone).entries[0]
        assert entry.rows == ref.rows
        assert entry.alpha_probe == ref.alpha_probe
        assert entry.energy_gap == ref.energy_gap


def test_interaction_diagonals_built_once_per_entry(tmp_path, monkeypatch):
    # the evaluator reads the entry's Hamiltonian instead of building its own diagonals
    import becmix.indicators as indicators_mod
    real = manybody_mod._interaction_diagonals
    calls = []

    def counting(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(manybody_mod, "_interaction_diagonals", counting)
    monkeypatch.setattr(indicators_mod, "_interaction_diagonals", counting)
    # and one HamiltonianSpec serves every entry
    real_spec = manybody_mod.HamiltonianSpec.mean_field
    specs = []

    def counting_spec(*args):
        specs.append(args)
        return real_spec(*args)

    monkeypatch.setattr(manybody_mod.HamiltonianSpec, "mean_field", counting_spec)
    report = run_convergence_sweep(parse_config(MINIMAL.format(out=tmp_path)))
    assert all(entry.error is None for entry in report.entries)
    assert calls == [(6, 6), (21, 21)]
    assert len(specs) == 1


def test_failed_trajectory_fails_every_entry_of_its_ratio(tmp_path, monkeypatch):
    doc = MINIMAL.format(out=tmp_path).replace(
        "entries = 1,1; 2,2", "entries = 1,2; 2,2; 2,4\nratio_fixed = false")
    cfg = parse_config(doc)
    real = harness_mod.integrate

    def failing_integrate(state, spec, dt, steps):
        if spec.c1 < 0.5:
            raise RuntimeError("synthetic step failure")
        return real(state, spec, dt, steps)

    monkeypatch.setattr(harness_mod, "integrate", failing_integrate)
    report = run_convergence_sweep(cfg)
    failed = {(e.n1, e.n2): e for e in report.entries if e.error is not None}
    assert sorted(failed) == [(1, 2), (2, 4)]
    for entry in failed.values():
        assert entry.error == "RuntimeError: synthetic step failure"
        assert "in failing_integrate" in entry.traceback
        assert entry.dim > 0 and entry.rows == []
    assert report.entries[1].error is None and len(report.entries[1].rows) == 2


@pytest.mark.parametrize("timing,times,krylov_dim,spaces_ok", [
    ("t = 0.05\nsample_every = 20\n\n[indicators]\nprobe_time = 0.033",
     [0.0, 0.02, 0.033, 0.04, 0.05], None, lambda spaces: spaces < 4),
    ("t = 0.5\nsample_every = 50", [k * 1e-3 for k in range(0, 501, 50)], None,
     lambda spaces: spaces < 10),
    ("t = 2.0\ndt = 0.01\nsample_every = 200", [0.0, 2.0], 17, lambda spaces: spaces > 1),
], ids=["probe_off_the_sample_grid", "ten_samples", "one_interval_many_steps"])
def test_sample_interval_propagation_matches_per_dt_steps(tmp_path, monkeypatch, timing, times,
                                                          krylov_dim, spaces_ok):
    # the sweep draws every sample of an entry from one propagate_through
    # call, whose Krylov spaces each serve all the samples they reach; the
    # reference takes one Krylov step per effective dt
    cfg = parse_config(MINIMAL.format(out=tmp_path).replace("t = 0.05", timing))
    if krylov_dim is not None:   # spaces of the module's cap cover the whole interval
        monkeypatch.setattr(manybody_mod, "KRYLOV_DIM", krylov_dim)
    real_through, real_lanczos = harness_mod.propagate_through, manybody_mod._lanczos
    spaces = []  # Krylov spaces of time steps built per entry

    def counting_through(*args, **kwargs):
        spaces.append(0)
        return real_through(*args, **kwargs)

    def counting_lanczos(*args, **kwargs):
        # indicators binds its own name, so the counting split never gets here
        spaces[-1] += 1
        return real_lanczos(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "propagate_through", counting_through)
    monkeypatch.setattr(manybody_mod, "_lanczos", counting_lanczos)
    fast = run_convergence_sweep(cfg)
    # ten samples share fewer spaces than intervals; one interval of 2.0 is
    # beyond one Krylov space of 18 vectors and takes several
    assert len(spaces) == len(cfg.ladder) and all(spaces_ok(n) for n in spaces)

    def per_dt(H, state, offsets):
        for last, t in zip([0.0, *offsets], offsets):
            for _ in range(round((t - last) / cfg.dt)):
                state = manybody_mod.propagate(H, state, cfg.dt)
            yield state

    monkeypatch.setattr(harness_mod, "propagate_through", per_dt)
    ref = run_convergence_sweep(cfg)
    for a, b in zip(fast.entries, ref.entries, strict=True):
        assert a.error is None and b.error is None
        assert np.max(np.abs(np.array(a.rows) - np.array(b.rows))) < 1e-10
        assert abs(a.alpha_probe - b.alpha_probe) < 1e-10
        assert [r[0] for r in a.rows] == times


def test_system_forms_and_keys_validated_per_slot():
    for line, needle in (("v1 = uniform", "[system] v1: unknown form 'uniform'"),
                         ("u0 = box radius=1", "[system] u0: unknown form 'box'"),
                         ("v2 = cosine amp=1 kk=3", "[system] v2: cosine takes amp, k, got kk")):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[system]\n{line}\n")
        assert needle in str(err.value)
    with pytest.raises(ConfigError) as err:   # every error is reported together
        parse_config("[system]\nv1 = uniform\nu0 = box radius=1\nv2 = cosine amp=1 kk=3\n"
                     "v0 = gaussian x0=1 sigma=0.5 k=2 amp=3\nw0 = zero eps=1\n")
    msg = str(err.value)
    for path in ("[system] v1", "[system] u0", "[system] v2", "[system] v0", "[system] w0"):
        assert path in msg
    cfg = parse_config("[system]\nv12 = box amp=2 radius=0.5\nu0 = mode k=2\n"
                       "v0 = gaussian x0=1 sigma=0.5 k=2\n")
    assert (cfg.v12, cfg.u0) == ("box amp=2 radius=0.5", "mode k=2")


def test_sweep_requires_ladder(tmp_path):
    doc = MINIMAL.format(out=tmp_path).replace("[ladder]\nentries = 1,1; 2,2\n", "")
    cfg = parse_config(doc)
    with pytest.raises(Exception):
        run_convergence_sweep(cfg)


def test_cli_sweep_and_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "cli_out"))
    rc = cli.main(["--seed", "7", "sweep", str(cfg_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_cli_effective(tmp_path):
    doc = """
[grid]
points = 32
length = 6.283185307179586

[system]
mode = rabi
a = 0.0
b = 1.0
u0 = gaussian x0=3.14 sigma=0.8
v0 = uniform

[time]
t = 0.2
dt = 1e-3
sample_every = 50

[output]
dir = {out}
"""
    cfg_path = tmp_path / "rabi.ini"
    cfg_path.write_text(doc.format(out=tmp_path / "eff"))
    assert cli.main(["effective", str(cfg_path)]) == 0
    data = (tmp_path / "eff" / "trajectory.csv").read_bytes()
    assert data.split(b"\r\n")[0] == b"t,mass_1,mass_2,energy"


EFFECTIVE_SYSTEMS = {
    "hartree": "mode = hartree\nv1 = cosine amp=0.8 k=1\nv2 = gaussian amp=0.6 sigma=0.7\n"
               "v12 = box amp=0.5 radius=1\nc1 = 0.3\nkinetic = stencil\n",
    "gross_pitaevskii": "mode = gross_pitaevskii\na1 = 0.05\na2 = 0.04\na12 = 0.03\nc1 = 0.7\n",
    "rabi": "mode = rabi\na = 0.05\nb = 1.5\n",
    "spin1-w0-zero": "mode = spin1\na = 0.05\nw0 = zero\n",
    "spin1": "mode = spin1\na = -0.02\nw0 = mode k=2\nkinetic = stencil\n",
}


def _classmethod_coupling(cfg):
    """The system of an effective config, built as each mode's classmethod builds it."""
    grid, comps = cfg.build_grid(), [cfg.orbital_field("u0"), cfg.orbital_field("v0")]
    if cfg.mode == "hartree":
        return CouplingSpec.hartree(*(cfg.potential_field(v) for v in ("v1", "v2", "v12")),
                                    c1=cfg.c1, kinetic=cfg.kinetic), comps
    if cfg.mode == "gross_pitaevskii":
        return CouplingSpec.gross_pitaevskii(grid, cfg.a1, cfg.a2, cfg.a12, c1=cfg.c1,
                                             kinetic=cfg.kinetic), comps
    if cfg.mode == "rabi":
        return CouplingSpec.rabi(grid, cfg.a, cfg.b_field, kinetic=cfg.kinetic), comps
    w0 = cfg.orbital_field("w0")
    if np.all(w0.values == 0):
        return CouplingSpec.spin1(grid, cfg.a, kinetic=cfg.kinetic), [
            Field(grid, c.values / np.sqrt(2)) for c in comps] + [w0]
    return CouplingSpec.spin1(grid, cfg.a, kinetic=cfg.kinetic), [
        Field(grid, c.values / np.sqrt(3)) for c in comps + [w0]]


@pytest.mark.parametrize("system", EFFECTIVE_SYSTEMS)
def test_effective_builds_each_system_as_its_classmethod(system):
    cfg = parse_config("[grid]\npoints = 16\nlength = 6.283185307179586\n[system]\n"
                       "u0 = gaussian x0=1 sigma=0.8 k=1\nv0 = cospack eps=0.3 k=2\n"
                       + EFFECTIVE_SYSTEMS[system] + "[time]\nt = 0.01\n")
    spec, state = cli._build_coupling(cfg)
    ref, comps = _classmethod_coupling(cfg)
    for f in dataclasses.fields(spec):
        got, want = getattr(spec, f.name), getattr(ref, f.name)
        if f.name == "rabi_field":
            assert (got is None) == (want is None)
            assert got is None or all(got(t) == want(t) for t in (0.0, 0.3, 7.5))
        elif f.name in ("V1", "V2", "V12"):
            assert (got is None) == (want is None)
            assert got is None or (got.grid == want.grid
                                   and got.values.tobytes() == want.values.tobytes())
        else:
            assert got == want, f.name
    assert len(state.components) == len(comps) == spec.n_components
    for got, want in zip(state.components, comps):
        assert got.grid == want.grid and got.values.tobytes() == want.values.tobytes()
    assert state.time == 0.0


@pytest.mark.parametrize("doc", ["[system]\nmode = mean_field\n",
                                 "[system]\nmode = scattering\n"])
def test_effective_refuses_a_system_that_is_not_effective(doc):
    with pytest.raises(ConfigError, match=r"mode '(mean_field|scattering)' is not an effective "
                                          r"system"):
        cli._build_coupling(parse_config(doc))


@pytest.mark.parametrize("mode, broken, named", [
    ("hartree", ("v12", "v0", "v1"), "v0"), ("hartree", ("v12", "v2"), "v2"),
    ("spin1", ("w0", "u0"), "u0"), ("mean_field", ("v1", "u0"), "u0")])
def test_effective_samples_its_slots_in_order(mode, broken, named):
    # u0, v0, then v1 v2 v12, then w0: the first unusable slot in that order is reported,
    # and a mode that is no effective system only after u0 and v0
    cfg = parse_config(f"[system]\nmode = {mode}\n")
    for slot in broken:
        setattr(cfg, slot, "gaussian sigma=1e-300")
    with pytest.raises(ConfigError, match=rf"\[system\] {named}: 'gaussian sigma=1e-300'"):
        cli._build_coupling(cfg)


CONFIGS = Path(__file__).parents[1] / "configs"
LATTICE_GAS = ("becmix.harness", "becmix.indicators", "becmix.manybody")
HARTREE_DOC = """
[grid]
points = 16
length = 6.283185307179586

[system]
mode = hartree
v1 = cosine amp=0.8 k=1
v2 = cosine amp=0.6 k=2
v12 = cosine amp=0.5 k=1
u0 = cospack eps=0.3 k=1
v0 = cospack eps=0.25 k=2

[time]
t = 0.01
dt = 1e-3
sample_every = 5
"""


def _fresh_python(code: str) -> list[str]:
    """The stdout lines of code run in a new interpreter on this checkout's becmix."""
    src = str(Path(becmix.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


@pytest.mark.parametrize("command, config, forbidden", [
    # only the lattice gas needs scipy
    pytest.param("effective", HARTREE_DOC, ("scipy",), id="effective-scipy"),
    # species sectors of at most DENSE_MAX_DIM states take dense operators, and the
    # Krylov eigensolver is numpy's, so a desk-scale sweep loads no scipy module
    pytest.param("sweep", MINIMAL, ("scipy",), id="sweep-scipy"),
    pytest.param("sweep", CONFIGS / "sweep_ladder.ini", ("scipy",), id="sweep-ladder-scipy"),
    # the shell calibration finds its root itself; no scipy.optimize
    pytest.param("scattering", "[system]\nmode = scattering\npotential = box amp=2 radius=1\n"
                 "n_values = 8\n", ("scipy",), id="scattering-scipy"),
    # numpy.ma takes 9-15 ms to import; np.union1d would pull it in through np.unique
    pytest.param("scattering", CONFIGS / "scattering_box.ini", ("numpy.ma",),
                 id="scattering-numpy.ma"),
    # only the sweep runs the lattice gas
    pytest.param("effective", CONFIGS / "effective_hartree.ini", LATTICE_GAS,
                 id="effective-lattice-gas"),
    pytest.param("scattering", CONFIGS / "scattering_box.ini", LATTICE_GAS,
                 id="scattering-lattice-gas"),
    # only `effective` and the sweep integrate the effective systems
    pytest.param("scattering", CONFIGS / "scattering_box.ini", ("becmix.effective",),
                 id="scattering-effective"),
])
def test_cli_loads_no_module_it_does_not_run(tmp_path, command, config, forbidden):
    if isinstance(config, str):
        cfg_path = tmp_path / "cfg.ini"
        cfg_path.write_text(config.format(out=tmp_path / "out"))
        config = cfg_path
    code = (
        "import sys\n"
        "from becmix.cli import main\n"
        f"assert main(['--out', {str(tmp_path / 'out')!r}, {command!r}, {str(config)!r}]) == 0\n"
        f"print(sorted(m for m in sys.modules\n"
        f"             if any(m == p or m.startswith(p + '.') for p in {forbidden!r})))\n"
    )
    assert _fresh_python(code)[-1] == "[]"
    written = {"effective": "trajectory.csv", "sweep": "summary.csv",
               "scattering": "scattering.csv"}[command]
    assert (tmp_path / "out" / written).exists()


def test_config_loads_no_scattering():
    # only ExperimentConfig.radial_potential builds a radial potential, and imports it there
    code = "import sys\nimport becmix.config\nprint('becmix.scattering' in sys.modules)\n"
    assert _fresh_python(code) == ["False"]


def test_setup_probe_reaches_each_subcommands_first_solver_call(tmp_path):
    # perfbench/tracer.py times start-up by replacing these names of becmix.cli with a hook
    # that exits; the sweep reaches its hook before it loads the lattice gas
    code = (
        "import sys\n"
        "from becmix import cli\n"
        "class Reached(Exception):\n"
        "    pass\n"
        "def stub(*args, **kwargs):\n"
        "    raise Reached('becmix.harness' in sys.modules)\n"
        "for name in ('run_convergence_sweep', 'evolve', 'scattering_length'):\n"
        "    setattr(cli, name, stub)\n"
        "for command, config in (('sweep', 'sweep_ladder'), ('effective', 'effective_hartree'),\n"
        "                        ('scattering', 'scattering_box')):\n"
        "    try:\n"
        f"        cli.main(['--out', {str(tmp_path / 'out')!r}, command,\n"
        f"                  {str(CONFIGS)!r} + '/' + config + '.ini'])\n"
        "    except Reached as exc:\n"
        "        print(command, 'harness loaded' if exc.args[0] else 'reached')\n"
    )
    assert _fresh_python(code) == ["sweep reached", "effective reached", "scattering reached"]
    assert not (tmp_path / "out").exists()


def test_process_entry_flushes_and_keeps_exit_codes(tmp_path):
    # `python -m becmix.cli` ends through os._exit, which drops whatever a stream still
    # buffers; PYTHONUNBUFFERED would hide a missing flush, so the child runs without it
    src = str(Path(becmix.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    cfg_path = tmp_path / "hartree.ini"
    cfg_path.write_text(HARTREE_DOC)
    bad_path = tmp_path / "bad.ini"
    bad_path.write_text("[system]\nmode = bogus\n")

    def entry(config, **kwargs):
        cmd = [sys.executable, "-m", "becmix.cli", "--out", str(tmp_path / "out"),
               "effective", str(config)]
        return subprocess.run(cmd, env=env, stderr=subprocess.PIPE, text=True, timeout=120,
                              **kwargs)

    with open(tmp_path / "stdout.txt", "w") as fh:  # a file: block-buffered, as in perfbench
        run = entry(cfg_path, stdout=fh)
    assert run.returncode == 0, run.stderr
    lines = (tmp_path / "stdout.txt").read_text().splitlines()
    assert [line.split()[0] for line in lines] == ["hartree:", "mass", "energy"]
    assert (tmp_path / "out" / "trajectory.csv").is_file()

    run = entry(bad_path, stdout=subprocess.DEVNULL)
    assert run.returncode == 2
    assert run.stderr.startswith("error: ")

    # fd 1 closed at start: sys.stdout is None, and the run ends as it would otherwise
    run = entry(cfg_path, preexec_fn=lambda: os.close(1))
    assert run.returncode == 0
    assert "Traceback" not in run.stderr

    # in-process callers get main's code back and keep running
    assert cli.main(["--out", str(tmp_path / "in_process"), "effective", str(cfg_path)]) == 0
    assert (tmp_path / "in_process" / "trajectory.csv").is_file()


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_cli_threads_must_be_positive(tmp_path, capsys, threads):
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "sweep"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", threads, "sweep", str(cfg_path)])
    assert exc.value.code == 2
    assert "argument --threads" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5", "seven"])
@pytest.mark.parametrize("command", ["check", "sweep"])
def test_cli_seed_must_be_nonnegative(tmp_path, capsys, seed, command):
    cfg_path = tmp_path / "sweep.ini"
    cfg_path.write_text(MINIMAL.format(out=tmp_path / "sweep"))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--seed", seed, command, *([str(cfg_path)] if command == "sweep" else [])])
    assert exc.value.code == 2
    assert "argument --seed: expected an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_cli_scattering(tmp_path):
    doc = """
[system]
mode = scattering
potential = box amp=2 radius=1
n_values = 8
beta_values = 1.0

[output]
dir = {out}
"""
    cfg_path = tmp_path / "scat.ini"
    cfg_path.write_text(doc.format(out=tmp_path / "sc"))
    assert cli.main(["scattering", str(cfg_path)]) == 0
    rows = (tmp_path / "sc" / "scattering.csv").read_bytes().decode().strip().split("\r\n")
    assert rows[0] == "N,beta,C,a_residual,g_L1,g_L2,g_Linf"
    assert len(rows) == 2


def test_scattering_potential_validated_at_parse_time():
    for expr in ("box amp=abc radius=1", "box amp=2 radius=1 junk", "box amp=2 raduis=1",
                 "cosine amp=1"):
        with pytest.raises(ConfigError) as err:
            parse_config(f"[system]\nmode = scattering\npotential = {expr}\n")
        assert "[system] potential" in str(err.value)
    doc = "[system]\nmode = scattering\npotential = gaussian amp=1 sigma=0.2\n"
    assert parse_config(doc).scatter_potential == "gaussian amp=1 sigma=0.2"


# (points, length) by id suffix: a dyadic spacing keeps every coordinate exact, and on
# the others x and L - x are not exact mirror images; the radial potential takes no grid
SAMPLE_GRIDS = {"": ("8", "2"), "-M10-L1": ("10", "1"), "-M16-L2pi": ("16", repr(2 * np.pi))}
SAMPLED_SLOTS = [(slot, form, grid) for grid in SAMPLE_GRIDS
                 for slot in ("v1", "v2", "v12", "u0", "v0", "w0", "potential")
                 if not grid or slot != "potential" for form in config_mod._SLOT_FORMS[slot]]


@pytest.mark.parametrize("slot, form, grid", SAMPLED_SLOTS,
                         ids=[f"{s}-{f}{g}" for s, f, g in SAMPLED_SLOTS])
def test_every_form_of_every_slot_samples(slot, form, grid):
    # potentials are sampled at the site distance, so even means bit-for-bit even on any grid
    points, length = SAMPLE_GRIDS[grid]
    cfg = parse_config(f"[grid]\npoints = {points}\nlength = {length}\n[system]\nmode = "
                       f"{'scattering' if slot == 'potential' else 'spin1'}\n")
    setattr(cfg, "scatter_potential" if slot == "potential" else slot, form)
    if slot == "potential":
        assert cfg.radial_potential().support_radius == {"box": 1.0, "gaussian": 3.0}[form]
    elif config_mod._SLOT_FORMS[slot] is config_mod._POTENTIALS:
        assert cfg.potential_field(slot).is_even(0.0)
    else:
        assert l2_norm(cfg.orbital_field(slot)) == pytest.approx(0.0 if form == "zero" else 1.0)


@pytest.mark.parametrize("images", [-2, -1, 1, 2])
def test_gaussian_orbital_samples_at_any_x0(images):
    # the periodic image sum is centred on x0: x0 = 1.43 + 2L peaked at site 15
    # instead of site 4 before x0 was wrapped into [0, L)
    L = 2 * np.pi
    doc = f"[grid]\npoints = 16\nlength = {L!r}\n[system]\nmode = spin1\nu0 = gaussian sigma=0.5 "
    ref = parse_config(doc + "x0=1.43").orbital_field("u0").values
    got = parse_config(doc + f"x0={1.43 + images * L!r}").orbital_field("u0").values
    assert np.argmax(np.abs(got)) == 4
    assert np.max(np.abs(got - ref)) < 1e-12


def _image_reference(d, sigma, L):
    """exp(-d^2 / (2 sigma^2)) summed over the 401 images d + kL, |k| <= 200."""
    return sum(np.exp(-((d + k * L) ** 2) / (2.0 * sigma**2)) for k in range(-200, 201))


@pytest.mark.parametrize("slot, sigma", [("u0", 0.5), ("u0", 2.0), ("u0", 3.0), ("v1", 0.5),
                                         ("v1", 3.0), ("u0", 13.0), ("v1", 19.0)])
def test_gaussian_sums_every_image_that_moves_a_bit(slot, sigma):
    # the images at -L, 0 and +L only left u0 (sigma = 2) 0.52% and v1 (sigma = 3)
    # 0.59% off the periodic gaussian, and u0 with x0 = 0 not even (u[63] - u[1] = -3e-3);
    # from sigma = 2L = 12.6 on the sum is its mean
    L, M = 2 * np.pi, 64
    form = f"gaussian x0=0 sigma={sigma}" if slot == "u0" else f"gaussian sigma={sigma}"
    cfg = parse_config(f"[grid]\npoints = {M}\nlength = {L!r}\n[system]\nmode = hartree\n"
                       f"{slot} = {form}\n")
    j = np.arange(M)
    if slot == "u0":
        got = cfg.orbital_field("u0").values
        assert np.max(np.abs(got[M - j[1:]] - got[j[1:]])) <= 1e-15 * np.max(np.abs(got))
        got = got.real / got.real.max()
        ref = _image_reference(j * L / M, sigma, L)
        ref /= ref.max()
    else:
        got = cfg.potential_field("v1").values.real
        ref = _image_reference(L / M * np.minimum(j, M - j), sigma, L)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(ref)


def test_gaussian_wider_than_the_grid_samples_as_its_mean():
    # sigma = 1e12 would need 2e12 images; sigma = 1e308 overflows the mean
    doc = "[grid]\npoints = 8\nlength = 2\n[system]\nmode = hartree\nv1 = gaussian sigma={}\n"
    V1 = parse_config(doc.format("1e12")).potential_field("v1")
    assert V1.values.tolist() == [np.sqrt(2 * np.pi) * 1e12 / 2] * 8
    with pytest.raises(ConfigError, match="samples to non-finite"):
        parse_config(doc.format("1e308")).potential_field("v1")


def test_box_samples_evenly_at_a_site_offset_radius(tmp_path):
    # with h = 0.1, |d| at sites 3 and 7 differed in the last bit: the box took
    # site 7 but not site 3, and `becmix effective` rejected its own potential
    doc = ("[grid]\npoints = 10\nlength = 1\n[system]\nmode = hartree\nv1 = box radius=0.3\n"
           f"[time]\nt = 0.01\n[output]\ndir = {tmp_path / 'out'}\n")
    V1 = parse_config(doc).potential_field("v1")
    assert V1.values.tolist() == [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]
    assert V1.is_even(0.0)
    (tmp_path / "box.ini").write_text(doc)
    assert cli.main(["effective", str(tmp_path / "box.ini")]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()


def test_ratio_fixed_accepts_only_flags():
    base = MINIMAL.format(out="x").replace("entries = 1,1; 2,2", "entries = 1,1; 2,2\nratio_fixed = {}")
    for raw, value in (("YES", True), ("0", False), ("False", False)):
        assert parse_config(base.format(raw)).ratio_fixed is value
    with pytest.raises(ConfigError) as err:
        parse_config(base.format("ture"))
    assert "[ladder] ratio_fixed" in str(err.value)


def test_cli_scattering_bound_state_is_an_error(tmp_path, capsys):
    cfg_path = tmp_path / "well.ini"
    cfg_path.write_text(f"[system]\nmode = scattering\npotential = box amp=-20 radius=1\n"
                        f"[output]\ndir = {tmp_path / 'sc'}\n")
    assert cli.main(["scattering", str(cfg_path)]) == 2
    assert "error: radial solution crosses zero" in capsys.readouterr().err


def test_cli_scattering_failure_writes_no_csv(tmp_path, capsys):
    # a(box amp=-1 radius=1) < 0 fails the first calibration, which ran after
    # the header was written: the failed run left a header-only scattering.csv
    doc = "[system]\nmode = scattering\npotential = {}\nn_values = 8\n[output]\ndir = {}\n"
    runs = {"good": ("box", "sc"), "bad": ("box amp=-1 radius=1", "sc"),
            "fresh": ("box amp=-1 radius=1", "fresh")}
    for name, (potential, out) in runs.items():
        (tmp_path / f"{name}.ini").write_text(doc.format(potential, tmp_path / out))
    assert cli.main(["scattering", str(tmp_path / "good.ini")]) == 0
    earlier = (tmp_path / "sc" / "scattering.csv").read_bytes()
    capsys.readouterr()
    for name in ("bad", "fresh"):
        assert cli.main(["scattering", str(tmp_path / f"{name}.ini")]) == 2
        assert ("error: calibration expects a positive scattering length"
                in capsys.readouterr().err)
    assert (tmp_path / "sc" / "scattering.csv").read_bytes() == earlier
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("case", ["bad-value", "directory", "not-utf8", "no-ladder", "dim-2",
                                  "wrong-mode", "scattering-mode", "unread-keys", "snapshots"])
def test_cli_rejects_bad_config(tmp_path, capsys, case):
    cfg_path = tmp_path / "bad.ini"
    minimal = MINIMAL.format(out=tmp_path / "out")
    command, message = "sweep", {
        "no-ladder": "[ladder] entries: the ladder is empty",
        "dim-2": "[grid] dim: the many-body harness is one-dimensional, got 2",
        "wrong-mode": "[system] mode: a sweep runs mode mean_field, got 'spin1'",
        "scattering-mode": "mode 'mean_field' is not a scattering problem",
        "unread-keys": "\n  ".join(f"[system] {key}: mode mean_field does not read this key"
                                   for key in ("w0", "c1", "a12", "kinetic")),
        "snapshots": "[output] snapshots: mode mean_field does not read this key"}.get(case)
    if case == "bad-value":
        cfg_path.write_text("[grid]\npoints = nope\n")
    elif case == "directory":
        cfg_path.mkdir()
    elif case == "no-ladder":
        cfg_path.write_text(f"[grid]\npoints = 6\n[time]\nt = 0.05\n"
                            f"[output]\ndir = {tmp_path / 'out'}\n")
    elif case == "dim-2":
        cfg_path.write_text(minimal.replace("[grid]\n", "[grid]\ndim = 2\n"))
    elif case == "wrong-mode":    # a spin1 document holds no ladder
        cfg_path.write_text(f"[system]\nmode = spin1\n[time]\nt = 0.05\n"
                            f"[output]\ndir = {tmp_path / 'out'}\n")
    elif case == "scattering-mode":
        command = "scattering"
        cfg_path.write_text(minimal)
    elif case == "unread-keys":
        cfg_path.write_text(minimal.replace("[ladder]", "c1 = 0.3\nkinetic = spectral\na12 = 5\n"
                                                        "w0 = uniform\n\n[ladder]"))
    elif case == "snapshots":     # a sweep used to accept it and write no snapshot
        cfg_path.write_text(minimal.replace("entries = 1,1; 2,2", "entries = 1,1")
                            + "snapshots = 3\n")
    else:
        cfg_path.write_bytes("[grid]\npoints = 16 # \u00e9\n".encode("latin-1"))
    assert cli.main([command, str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if case in ("directory", "not-utf8"):
        assert str(cfg_path) in err
    if message is not None:
        assert message in err
        assert not (tmp_path / "out").exists()


def test_cli_check_passes():
    assert cli.main(["check"]) == 0


def test_sweep_zero_potentials_stay_condensed(tmp_path):
    doc = MINIMAL.format(out=tmp_path)
    for key in ("v1 = cosine amp=0.2 k=1", "v2 = cosine amp=0.15 k=2",
                "v12 = cosine amp=0.8 k=1"):
        doc = doc.replace(key, key.split("=")[0] + "= zero")
    cfg = parse_config(doc)
    report = run_convergence_sweep(cfg)
    for entry in report.entries:
        assert entry.error is None
        assert max(abs(r[1]) for r in entry.rows) < 1e-10  # alpha_11 column


def test_sweep_species_relabel_symmetry(tmp_path):
    base = MINIMAL.format(out=tmp_path).replace("v2 = cosine amp=0.15 k=2",
                                                "v2 = cosine amp=0.2 k=1")
    fwd = base.replace("entries = 1,1; 2,2", "entries = 2,1")
    swp = base.replace("entries = 1,1; 2,2", "entries = 1,2")
    swp = swp.replace("u0 = cospack eps=0.3 k=1", "u0 = cospack eps=0.25 k=2")
    swp = swp.replace("v0 = cospack eps=0.25 k=2", "v0 = cospack eps=0.3 k=1")
    r_fwd = run_convergence_sweep(parse_config(fwd)).entries[0]
    r_swp = run_convergence_sweep(parse_config(swp)).entries[0]
    cols_fwd = np.array(r_fwd.rows)
    cols_swp = np.array(r_swp.rows)
    # t, alpha_11, trace_dist and C_V12 are invariant; the one-species
    # columns swap (alpha_10 <-> alpha_01, C_V1 <-> C_V2)
    for i, j in ((0, 0), (1, 1), (2, 2), (3, 4), (4, 3), (5, 6), (6, 5), (7, 7)):
        assert np.allclose(cols_fwd[:, i], cols_swp[:, j], atol=1e-11), (i, j)
    assert r_fwd.energy_gap == pytest.approx(r_swp.energy_gap, abs=1e-12)


def test_emit_report_empty_ladder(tmp_path):
    from becmix.harness import SweepReport
    report = SweepReport(entries=[], fitted_exponent=None, config_echo={},
                         seed=0, version="0", wall_clock_s=0.0)
    emit_report(report, tmp_path / "empty")
    rows = (tmp_path / "empty" / "summary.csv").read_bytes().decode().strip().split("\r\n")
    assert rows == ["n1,n2,dim,alpha_probe,energy_gap,fitted_exponent,status"]
