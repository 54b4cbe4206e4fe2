"""INI-style experiment configuration.

Sections: [grid] [system] [ladder] [time] [indicators] [output].
Unknown sections or keys are hard errors (no silent typos); every
violated constraint is reported with its key path.  Potentials and
orbitals are small "name key=value ..." expressions sampled onto the
grid at build time.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grids import Field, Grid, GridError, make_grid, normalize
from .manybody import DEFAULT_DIM_CAP, _basis_dim
from .scattering import RadialPotential, square_barrier

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]

DEFAULT_DT = 1e-3
DEFAULT_XI = 0.2
DEFAULT_SEED = 0
MAX_STEPS = 10**8  # ceiling on the step count round(t / dt), as DEFAULT_DIM_CAP is on dim

_KNOWN_KEYS = {
    "grid": {"dim", "points", "length"},
    "system": {"mode", "v1", "v2", "v12", "u0", "v0", "w0", "c1",
               "a1", "a2", "a12", "a", "b", "kinetic", "seed",
               "potential", "n_values", "beta_values"},
    "ladder": {"entries", "cap", "ratio_fixed"},
    "time": {"t", "dt", "sample_every"},
    "indicators": {"xi", "probe_time"},
    "output": {"dir", "snapshots"},
}

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
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_MODES = ("mean_field", "hartree", "gross_pitaevskii", "rabi", "spin1", "scattering")


class ConfigError(ValueError):
    pass


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


# the sampling functions run with numpy's floating-point warnings off: a
# sample that overflows or divides by zero (a gaussian's 2 sigma^2 underflows
# for a tiny sigma) is reported by ExperimentConfig._sampled, naming its slot
@np.errstate(all="ignore")
def _potential_values(grid: Grid, name: str, kw: dict[str, float]) -> np.ndarray:
    """Sample an even periodic potential on the grid."""
    L = grid.length_per_axis
    d = grid.signed_coordinates()[0]
    if name == "cosine":
        return kw["amp"] * np.cos(2.0 * np.pi * kw["k"] * d / L)
    if name == "gaussian":
        out = np.zeros(grid.shape)
        for shift in (-L, 0.0, L):
            out += np.exp(-((d + shift) ** 2) / (2.0 * kw["sigma"]**2))
        return kw["amp"] * out
    if name == "box":
        return kw["amp"] * (np.abs(d) <= kw["radius"]).astype(float)
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
        x0 = L / 2.0 if kw["x0"] is None else kw["x0"]
        sigma = L / 10.0 if kw["sigma"] is None else kw["sigma"]
        out = np.zeros(grid.shape)
        for shift in (-L, 0.0, L):
            out += np.exp(-((x - x0 + shift) ** 2) / (2.0 * sigma**2))
        return out * np.exp(2j * np.pi * kw["k"] * x / L)
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
        if which not in ("v1", "v2", "v12"):
            raise ConfigError(f"no potential slot {which!r}")
        return self._sampled(which, _potential_values(self.build_grid(), *self._expr(which)))

    def orbital_field(self, which: str) -> Field:
        if which not in ("u0", "v0", "w0"):
            raise ConfigError(f"no orbital slot {which!r}")
        name, kw = self._expr(which)
        vals = self._sampled(which, _orbital_values(self.build_grid(), name, kw))
        if name == "zero":
            return vals
        try:
            return normalize(vals)
        except GridError as exc:
            raise ConfigError(f"[system] {which}: {getattr(self, which)!r}: {exc}") from None

    def radial_potential(self) -> RadialPotential:
        """[system] potential as cells: the box is one, the gaussian is
        GAUSSIAN_CELLS midpoint cells out to 6 sigma."""
        name, kw = self._expr("potential")
        if name == "box":
            return square_barrier(kw["amp"], kw["radius"])
        edges = np.linspace(0.0, 6.0 * kw["sigma"], GAUSSIAN_CELLS + 1)
        return RadialPotential(
            edges, kw["amp"] * np.exp(-(edges[:-1] + edges[1:]) ** 2 / (8.0 * kw["sigma"]**2)))


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate an experiment document.

    All violations are collected and raised together, each tagged with
    its section/key path.
    """
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    parser.optionxform = str  # keep keys case-sensitive; grammar is lowercase
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed document: {exc}") from exc

    errors: list[str] = []
    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            errors.append(f"unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                errors.append(f"unknown key [{section}] {key}")

    cfg = ExperimentConfig()

    def read(section, key, cast, default, check=None, describe=""):
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                val = cast(raw)
            except (ValueError, TypeError, KeyError):
                describe = describe or {_finite: " as a finite number"}.get(cast, "")
                errors.append(f"[{section}] {key}: cannot parse {raw!r}{describe}")
                return default
        else:
            val = default
        if check is not None and val is not None:
            msg = check(val)
            if msg:
                errors.append(f"[{section}] {key}: {msg}")
        return val

    cfg.dim = read("grid", "dim", int, 1, lambda v: None if v in (1, 2, 3) else f"dim must be 1..3, got {v}")
    cfg.points = read("grid", "points", int, cfg.points,
                      lambda v: None if v >= 4 else f"need at least 4 points, got {v}")
    cfg.length = read("grid", "length", _finite, cfg.length,
                      lambda v: None if v > 0 else f"length must be positive, got {v}")

    cfg.mode = read("system", "mode", str, cfg.mode,
                    lambda v: None if v in _MODES else f"unknown mode {v!r}")
    for key in ("v1", "v2", "v12", "u0", "v0", "w0"):
        setattr(cfg, key, read("system", key, str, getattr(cfg, key)))
        _parse_expr(getattr(cfg, key), key, errors)
    cfg.c1 = read("system", "c1", _finite, cfg.c1,
                  lambda v: None if 0.0 < v < 1.0 else f"c1 must lie in (0,1), got {v}")
    cfg.a1 = read("system", "a1", _finite, cfg.a1)
    cfg.a2 = read("system", "a2", _finite, cfg.a2)
    cfg.a12 = read("system", "a12", _finite, cfg.a12)
    cfg.a = read("system", "a", _finite, cfg.a)
    cfg.b_field = read("system", "b", _finite, cfg.b_field)
    cfg.kinetic = read("system", "kinetic", str, cfg.kinetic,
                       lambda v: None if v in ("spectral", "stencil") else f"unknown kinetic {v!r}")
    cfg.seed = read("system", "seed", int, cfg.seed,
                    lambda v: None if v >= 0 else "seed must be nonnegative")
    cfg.scatter_potential = read("system", "potential", str, cfg.scatter_potential)
    _parse_expr(cfg.scatter_potential, "potential", errors)

    def int_list(raw: str) -> list[int]:
        return [int(tok) for tok in raw.replace(";", " ").split()]

    def float_list(raw: str) -> list[float]:
        return [_finite(tok) for tok in raw.replace(";", " ").split()]

    cfg.n_values = read("system", "n_values", int_list, cfg.n_values,
                        lambda v: None if all(n >= 2 for n in v) else "all N must be >= 2")
    cfg.beta_values = read("system", "beta_values", float_list, cfg.beta_values,
                           lambda v: None if all(0 < b <= 1 for b in v) else "beta must lie in (0,1]",
                           describe=" as finite numbers")

    def ladder_list(raw: str) -> list[tuple[int, int]]:
        out = []
        for chunk in raw.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            n1, n2 = (int(tok) for tok in chunk.split(","))
            out.append((n1, n2))
        return out

    cfg.ladder = read("ladder", "entries", ladder_list, cfg.ladder)
    cfg.cap = read("ladder", "cap", int, cfg.cap,
                   lambda v: None if v > 0 else "cap must be positive")
    cfg.ratio_fixed = read("ladder", "ratio_fixed", lambda r: _FLAGS[r.lower()], cfg.ratio_fixed,
                           describe=" (use 1/0, true/false or yes/no)")
    for i, (n1, n2) in enumerate(cfg.ladder):
        if (n1, n2) in cfg.ladder[:i]:
            if cfg.ladder[:i].count((n1, n2)) == 1:     # one error per repeated entry
                errors.append(f"[ladder] entries: ({n1},{n2}) listed twice")
            continue
        if n1 < 1 or n2 < 1:
            errors.append(f"[ladder] entries: particle numbers must be >= 1, got ({n1},{n2})")
            continue
        if cfg.points >= 4 and (dim := _basis_dim(cfg.points, n1, n2)) > cfg.cap:
            errors.append(
                f"[ladder] entries: ({n1},{n2}) has basis dimension {dim} > cap {cfg.cap}"
            )
    if cfg.ratio_fixed and len(cfg.ladder) >= 2:
        ratios = {round(n1 / (n1 + n2), 12) for (n1, n2) in cfg.ladder if n1 >= 1 and n2 >= 1}
        if len(ratios) > 1:
            errors.append("[ladder] entries: population ratio varies but ratio_fixed is on")

    cfg.T = read("time", "t", _finite, cfg.T,
                 lambda v: None if v > 0 else f"t must be positive, got {v}")
    cfg.dt = read("time", "dt", _finite, cfg.dt,
                  lambda v: None if v > 0 else f"dt must be positive, got {v}")
    cfg.sample_every = read("time", "sample_every", int, cfg.sample_every,
                            lambda v: None if v >= 1 else "sample_every must be >= 1")

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

    cfg.xi = read("indicators", "xi", _finite, cfg.xi,
                  lambda v: None if v > 0 else f"xi must be positive, got {v}")
    cfg.probe_time = read("indicators", "probe_time", _finite, cfg.T)
    if not 0.0 <= cfg.probe_time <= cfg.T:
        errors.append(f"[indicators] probe_time: {cfg.probe_time!r} outside [0, t] "
                      f"with t = {cfg.T!r}")
    elif parser.has_option("indicators", "probe_time") and off_lattice(cfg.probe_time):
        errors.append(f"[indicators] probe_time: {cfg.probe_time!r} is not a multiple of dt "
                      f"{cfg.dt!r}")

    cfg.out_dir = read("output", "dir", str, cfg.out_dir)
    cfg.snapshots = read("output", "snapshots", int, cfg.snapshots,
                         lambda v: None if v >= 0 else "snapshots must be >= 0")

    # zero potentials are legal; zero initial orbitals are not
    for key in ("u0", "v0"):  # the third spinor component w0 may start empty
        if getattr(cfg, key).split()[:1] == ["zero"]:
            errors.append(f"[system] {key}: initial orbital must be nonzero")

    if errors:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(errors))

    cfg.echo = {s: dict(parser[s]) for s in parser.sections()}
    return cfg
