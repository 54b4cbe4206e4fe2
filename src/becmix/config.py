"""INI-style experiment configuration.

Sections: [grid] [system] [ladder] [time] [indicators] [output].
Unknown sections or keys are hard errors (no silent typos), and so is a
key the document's mode does not read; every violated constraint is
reported with its key path.  Potentials and
orbitals are small "name key=value ..." expressions sampled onto the
grid at build time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, Grid, GridError, make_grid, normalize

__all__ = ["ConfigError", "HarnessError", "EffectiveError", "ExperimentConfig", "parse_config"]

DEFAULT_DT = 1e-3
DEFAULT_XI = 0.2
DEFAULT_SEED = 0
DEFAULT_DIM_CAP = 200_000  # ceiling on a many-body basis dimension
MAX_STEPS = 10**8  # ceiling on the step count round(t / dt), as DEFAULT_DIM_CAP is on dim

# the forms of each [system] expression slot, and each form's keys with
# their defaults; a None default is set by the grid
_POTENTIALS = {"zero": {}, "cosine": {"amp": 1.0, "k": 1.0},
               "gaussian": {"amp": 1.0, "sigma": 0.5}, "box": {"amp": 1.0, "radius": 1.0}}
_ORBITALS = {"zero": {}, "uniform": {}, "mode": {"k": 1.0}, "cospack": {"eps": 0.3, "k": 1.0},
             "gaussian": {"x0": None, "sigma": None, "k": 0.0}}
_SLOT_FORMS = {"v1": _POTENTIALS, "v2": _POTENTIALS, "v12": _POTENTIALS,
               "u0": _ORBITALS, "v0": _ORBITALS, "w0": _ORBITALS,
               "potential": {"box": {"amp": 2.0, "radius": 1.0},
                             "gaussian": _POTENTIALS["gaussian"]}}
_MODES = ("mean_field", "hartree", "gross_pitaevskii", "rabi", "spin1", "scattering")


class ConfigError(ValueError):
    pass


class HarnessError(RuntimeError):
    """A sweep the harness refuses.  Defined here, beside ConfigError, so the
    CLI catches it without importing the lattice gas."""


class EffectiveError(ValueError):
    """Invalid state/spec combination or a failed integration step.  Defined here,
    beside ConfigError, so the CLI catches it without importing the effective solvers."""


def basis_dim(M: int, N1: int, N2: int) -> int:
    """Dimension of the joint basis of N1 and N2 bosons on M sites."""
    return math.comb(M + N1 - 1, N1) * math.comb(M + N2 - 1, N2)


def _finite(raw: str) -> float:
    """float(raw) that refuses inf and nan."""
    val = float(raw)
    if not math.isfinite(val):
        raise ValueError(f"{raw!r} is not finite")
    return val


def _parse_expr(text: str, slot: str, errors: list[str]) -> tuple[str, dict]:
    """The form of one [system] expression and its keys, defaults filled in.

    Checks the form against the slot, the key names against the form, that
    no key is given twice, that every value is finite and that sigma and
    radius are positive; each violation is appended to errors, tagged with
    the slot.
    """
    path, forms = f"[system] {slot}", _SLOT_FORMS[slot]
    name, *tokens = text.split() or [""]
    if name not in forms:
        errors.append(f"{path}: unknown form {name!r} (expected one of {', '.join(forms)})")
        return name, {}
    kw, given = dict(forms[name]), set()
    for tok in tokens:
        key, eq, raw = tok.partition("=")
        if not eq:
            errors.append(f"{path}: expected key=value, got {tok!r}")
        elif key not in kw:
            errors.append(f"{path}: {name} takes {', '.join(sorted(kw)) or 'no keys'}, got {key}")
        elif key in given:
            errors.append(f"{path}: {key} given twice")
        else:
            given.add(key)
            try:
                kw[key] = _finite(raw)
            except ValueError:
                errors.append(f"{path}: {key!r} needs a finite number, got {raw!r}")
            else:
                if key in ("sigma", "radius") and kw[key] <= 0:
                    errors.append(f"{path}: {key} must be positive, got {kw[key]:g}")
    return name, kw


def _images(d: np.ndarray, sigma: float, L: float) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)) summed over the periodic images d + kL of |d| <= L."""
    if sigma >= 2.0 * L:    # then the sum is its mean, sqrt(2 pi) sigma / L, within e^-78
        return np.full(d.shape, math.sqrt(2.0 * math.pi) * sigma / L)
    K = 2 + math.ceil(12.0 * sigma / L)     # each image left out is beyond 12 sigma, < e^-72
    return sum(np.exp(-((d + k * L) ** 2) / (2.0 * sigma**2)) for k in range(-K, K + 1))


# the sampling functions run with numpy's floating-point warnings off: a
# sample that overflows or divides by zero (a gaussian's 2 sigma^2 underflows
# for a tiny sigma) is reported by ExperimentConfig._sampled, naming its slot
@np.errstate(all="ignore")
def _potential_values(grid: Grid, name: str, kw: dict[str, float]) -> np.ndarray:
    """Sample an even periodic potential on the grid at the site distance
    |d| = h min(j, M - j), so the samples at d and -d are the same bits."""
    j = np.indices(grid.shape)[0]
    d = grid.spacing * np.minimum(j, grid.points_per_axis - j)
    if name == "cosine":
        return kw["amp"] * np.cos(2.0 * np.pi * kw["k"] * d / grid.length_per_axis)
    if name == "gaussian":
        return kw["amp"] * _images(d, kw["sigma"], grid.length_per_axis)
    if name == "box":
        return kw["amp"] * (d <= kw["radius"])
    return np.zeros(grid.shape)


@np.errstate(all="ignore")
def _orbital_values(grid: Grid, name: str, kw: dict[str, float | None]) -> np.ndarray:
    L = grid.length_per_axis
    x = grid.coordinate_arrays()[0]
    if name == "mode":
        return np.exp(2j * np.pi * kw["k"] * x / L)
    if name == "cospack":
        return (1.0 + kw["eps"] * np.cos(2.0 * np.pi * kw["k"] * x / L)).astype(complex)
    if name == "gaussian":
        x0 = (L / 2.0 if kw["x0"] is None else kw["x0"]) % L   # the images cover x0 in [0, L)
        sigma = L / 10.0 if kw["sigma"] is None else kw["sigma"]
        return _images(x - x0, sigma, L) * np.exp(2j * np.pi * kw["k"] * x / L)
    if name == "uniform":
        return np.ones(grid.shape, dtype=complex)
    return np.zeros(grid.shape, dtype=complex)


# midpoint cells of the gaussian radial potential; the error in a(V) is
# second order in the cell width (2.7e-6 relative at the defaults)
GAUSSIAN_CELLS = 1024


@dataclass
class ExperimentConfig:
    """Validated configuration for sweep / effective / scattering runs."""

    dim: int = 1
    points: int = 10
    length: float = 2.0 * math.pi
    mode: str = "mean_field"
    v1: str = "zero"
    v2: str = "zero"
    v12: str = "zero"
    u0: str = "uniform"
    v0: str = "uniform"
    w0: str = "zero"
    c1: float = 0.5
    a1: float = 0.0
    a2: float = 0.0
    a12: float = 0.0
    a: float = 0.0
    b_field: float = 0.0
    kinetic: str = "spectral"
    seed: int = DEFAULT_SEED
    ladder: list[tuple[int, int]] = dc_field(default_factory=list)
    cap: int = DEFAULT_DIM_CAP
    ratio_fixed: bool = True
    T: float = 0.5
    dt: float = DEFAULT_DT
    sample_every: int = 50
    xi: float = DEFAULT_XI
    probe_time: float = 0.5
    out_dir: str = "out"
    snapshots: int = 0
    scatter_potential: str = "box amp=2 radius=1"
    n_values: list[int] = dc_field(default_factory=lambda: [8, 16, 32])
    beta_values: list[float] = dc_field(default_factory=lambda: [1.0])
    echo: dict = dc_field(default_factory=dict, repr=False)

    def build_grid(self) -> Grid:
        return make_grid(self.dim, self.points, self.length)

    def _expr(self, slot: str) -> tuple[str, dict]:
        """The form and keys of one [system] expression, or ConfigError."""
        errors: list[str] = []
        form = _parse_expr(getattr(self, "scatter_potential" if slot == "potential" else slot),
                           slot, errors)
        if errors:
            raise ConfigError("; ".join(errors))
        return form

    def _sampled(self, slot: str, values: np.ndarray) -> Field:
        """values as a Field, or ConfigError if a sample is not finite."""
        if not np.all(np.isfinite(values)):
            raise ConfigError(f"[system] {slot}: {getattr(self, slot)!r} samples to "
                              "non-finite values on the grid")
        return Field(self.build_grid(), values)

    def potential_field(self, which: str) -> Field:
        if _SLOT_FORMS.get(which) is not _POTENTIALS:
            raise ConfigError(f"no potential slot {which!r}")
        return self._sampled(which, _potential_values(self.build_grid(), *self._expr(which)))

    def orbital_field(self, which: str) -> Field:
        if _SLOT_FORMS.get(which) is not _ORBITALS:
            raise ConfigError(f"no orbital slot {which!r}")
        name, kw = self._expr(which)
        vals = self._sampled(which, _orbital_values(self.build_grid(), name, kw))
        if name == "zero":
            return vals
        try:
            return normalize(vals)
        except GridError as exc:
            raise ConfigError(f"[system] {which}: {getattr(self, which)!r}: {exc}") from None

    def radial_potential(self):
        """[system] potential as a scattering.RadialPotential: the box is one
        cell, the gaussian is GAUSSIAN_CELLS midpoint cells out to 6 sigma."""
        from .scattering import RadialPotential, square_barrier
        name, kw = self._expr("potential")
        if name == "box":
            return square_barrier(kw["amp"], kw["radius"])
        edges = np.linspace(0.0, 6.0 * kw["sigma"], GAUSSIAN_CELLS + 1)
        return RadialPotential(
            edges, kw["amp"] * np.exp(-(edges[:-1] + edges[1:]) ** 2 / (8.0 * kw["sigma"]**2)))


def _flag(raw: str) -> bool:
    return {"1": True, "true": True, "yes": True,
            "0": False, "false": False, "no": False}[raw.lower()]


def _ints(raw: str) -> list[int]:
    return [int(tok) for tok in raw.replace(";", " ").split()]


def _floats(raw: str) -> list[float]:
    return [_finite(tok) for tok in raw.replace(";", " ").split()]


def _pairs(raw: str) -> list[tuple[int, int]]:
    """'n1,n2; n1,n2; ...' as (n1, n2) tuples; empty chunks are skipped."""
    out = []
    for chunk in filter(None, (c.strip() for c in raw.split(";"))):
        n1, n2 = (int(tok) for tok in chunk.split(","))
        out.append((n1, n2))
    return out


def _positive(key: str):
    return lambda v: v > 0 or f"{key} must be positive, got {v}"


# what a parse failure says after the raw value, per parser
_EXPECTED = {_finite: " as a finite number", _floats: " as finite numbers",
             _flag: " (use 1/0, true/false or yes/no)"}

# the modes that read a key: the effective systems, and those with a time axis
_EFFECTIVE = ("hartree", "gross_pitaevskii", "rabi", "spin1")
_TIMED = ("mean_field", *_EFFECTIVE)

# the document grammar, in read order: (section, key, ExperimentConfig field,
# parser, check, modes); a check returns True or the error text; modes are
# the [system] modes that read the key, None for every mode; the [system]
# expression slots are checked by _parse_expr
_GRAMMAR = (
    ("grid", "dim", "dim", int, lambda v: v in (1, 2, 3) or f"dim must be 1..3, got {v}", None),
    ("grid", "points", "points", int, lambda v: v >= 4 or f"need at least 4 points, got {v}",
     None),
    ("grid", "length", "length", _finite, _positive("length"), None),
    ("system", "mode", "mode", str, lambda v: v in _MODES or f"unknown mode {v!r}", None),
    *(("system", slot, slot, str, None, ("mean_field", "hartree")) for slot in ("v1", "v2", "v12")),
    *(("system", slot, slot, str, None, _TIMED) for slot in ("u0", "v0")),
    ("system", "w0", "w0", str, None, ("spin1",)),
    ("system", "c1", "c1", _finite, lambda v: 0.0 < v < 1.0 or f"c1 must lie in (0,1), got {v}",
     ("hartree", "gross_pitaevskii")),
    *(("system", key, key, _finite, None, ("gross_pitaevskii",)) for key in ("a1", "a2", "a12")),
    ("system", "a", "a", _finite, None, ("rabi", "spin1")),
    ("system", "b", "b_field", _finite, None, ("rabi",)),
    ("system", "kinetic", "kinetic", str,
     lambda v: v in ("spectral", "stencil") or f"unknown kinetic {v!r}", _EFFECTIVE),
    ("system", "seed", "seed", int, lambda v: v >= 0 or "seed must be nonnegative", None),
    ("system", "potential", "scatter_potential", str, None, ("scattering",)),
    ("system", "n_values", "n_values", _ints,
     lambda v: (all(n >= 2 for n in v) or "all N must be >= 2") if v else "no N given",
     ("scattering",)),
    ("system", "beta_values", "beta_values", _floats,
     lambda v: (all(0 < b <= 1 for b in v) or "beta must lie in (0,1]") if v else "no beta given",
     ("scattering",)),
    ("ladder", "entries", "ladder", _pairs, None, ("mean_field",)),
    ("ladder", "cap", "cap", int, lambda v: v > 0 or "cap must be positive", ("mean_field",)),
    ("ladder", "ratio_fixed", "ratio_fixed", _flag, None, ("mean_field",)),
    ("time", "t", "T", _finite, _positive("t"), _TIMED),
    ("time", "dt", "dt", _finite, _positive("dt"), _TIMED),
    ("time", "sample_every", "sample_every", int,
     lambda v: v >= 1 or "sample_every must be >= 1", _TIMED),
    ("indicators", "xi", "xi", _finite, _positive("xi"), ("mean_field",)),
    ("indicators", "probe_time", "probe_time", _finite, None, ("mean_field",)),
    ("output", "dir", "out_dir", str, None, None),
    ("output", "snapshots", "snapshots", int, lambda v: v >= 0 or "snapshots must be >= 0",
     _EFFECTIVE),
)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment document.

    All violations are collected and raised together, each tagged with
    its section/key path: the per-key errors in grammar order, then the
    errors that tie several keys together.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive; grammar is lowercase
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed document: {exc}") from exc

    errors: list[str] = []
    known = {(section, key) for section, key, *_ in _GRAMMAR}
    for section in parser.sections():
        if not any(section == s for s, _ in known):
            errors.append(f"unknown section [{section}]")
            continue
        errors.extend(f"unknown key [{section}] {key}" for key in parser[section]
                      if (section, key) not in known)

    cfg = ExperimentConfig(probe_time=None)    # probe_time defaults to t, read below
    for section, key, name, parse, check, _ in _GRAMMAR:
        if not parser.has_option(section, key):
            continue
        raw = parser.get(section, key)
        try:
            val = parse(raw)
        except (ValueError, TypeError, KeyError):
            errors.append(f"[{section}] {key}: cannot parse {raw!r}{_EXPECTED.get(parse, '')}")
            continue
        setattr(cfg, name, val)
        if check is not None and (msg := check(val)) is not True:
            errors.append(f"[{section}] {key}: {msg}")
        if key in _SLOT_FORMS:
            _parse_expr(val, key, errors)
    if cfg.probe_time is None:
        cfg.probe_time = cfg.T

    if cfg.mode in _MODES:    # a key its mode does not read would be ignored without a word
        errors.extend(f"[{section}] {key}: mode {cfg.mode} does not read this key"
                      for section, key, *_, modes in _GRAMMAR
                      if modes is not None and cfg.mode not in modes
                      and parser.has_option(section, key))

    for i, (n1, n2) in enumerate(cfg.ladder):
        if (n1, n2) in cfg.ladder[:i]:
            if cfg.ladder[:i].count((n1, n2)) == 1:     # one error per repeated entry
                errors.append(f"[ladder] entries: ({n1},{n2}) listed twice")
            continue
        if n1 < 1 or n2 < 1:
            errors.append(f"[ladder] entries: particle numbers must be >= 1, got ({n1},{n2})")
            continue
        if cfg.points >= 4 and (dim := basis_dim(cfg.points, n1, n2)) > cfg.cap:
            errors.append(
                f"[ladder] entries: ({n1},{n2}) has basis dimension {dim} > cap {cfg.cap}"
            )
    if cfg.ratio_fixed and len(cfg.ladder) >= 2:
        ratios = {round(n1 / (n1 + n2), 12) for (n1, n2) in cfg.ladder if n1 >= 1 and n2 >= 1}
        if len(ratios) > 1:
            errors.append("[ladder] entries: population ratio varies but ratio_fixed is on")

    # t / dt overflows for a subnormal dt; every lattice test needs it finite
    lattice = cfg.dt > 0 and math.isfinite(cfg.T / cfg.dt)
    too_many_steps = cfg.dt > 0 and (not lattice or round(cfg.T / cfg.dt) > MAX_STEPS)

    def off_lattice(x: float) -> bool:
        """x is not a whole number of dt steps, to a relative 1e-9."""
        return lattice and abs(round(x / cfg.dt) * cfg.dt - x) > 1e-9 * abs(x)

    if cfg.dt > cfg.T:
        errors.append("[time] dt: dt exceeds t")
    elif too_many_steps:
        errors.append(f"[time] dt: {cfg.dt!r} is too small, t / dt exceeds {MAX_STEPS:,} steps")
    elif cfg.T > 0 and off_lattice(cfg.T):
        errors.append(f"[time] t: {cfg.T!r} is not a multiple of dt {cfg.dt!r}")

    if not 0.0 <= cfg.probe_time <= cfg.T:
        errors.append(f"[indicators] probe_time: {cfg.probe_time!r} outside [0, t] "
                      f"with t = {cfg.T!r}")
    elif parser.has_option("indicators", "probe_time") and off_lattice(cfg.probe_time):
        errors.append(f"[indicators] probe_time: {cfg.probe_time!r} is not a multiple of dt "
                      f"{cfg.dt!r}")

    # zero potentials are legal; zero initial orbitals are not
    for key in ("u0", "v0"):  # the third spinor component w0 may start empty
        if getattr(cfg, key).split()[:1] == ["zero"]:
            errors.append(f"[system] {key}: initial orbital must be nonzero")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    cfg.echo = {s: dict(parser[s]) for s in parser.sections()}
    return cfg
