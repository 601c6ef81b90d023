"""Experiment drivers: configuration files, initial conditions, the
convergence / evolution / multi-scale studies, and every file output.

Config files are flat key/value text with typed sections::

    # comment
    [section]
    key = value

Scalars are decimal text, lists are whitespace-separated, matrices separate
rows with ';'.  Unknown sections or keys are rejected.  See the README for
the full grammar and the per-section key tables.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field as dc_field, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .field import (
    SpectralField,
    dump_field,
    field_from_coeffs,
    field_from_listed,
    load_field,
    norm_ap,
    project_mean,
)
from .lattice import IndexGrid, OperatorSymbol, ProjectionSpec, build_grid, build_symbol
from .lattice import _raster_terms, kept_half_modes, raster_axes, raster_of_terms
from .model import ModelParams
from .sav_cn import StepReport, StepperState, evolve, init_state, initial_report
from .sdc import _sdc_blocks, sdc_solve

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "dodecagonal_projection",
    "ring_star_modes",
    "build_initial",
    "run_evolution",
    "run_convergence",
    "run_scales_study",
    "spectrum_report",
    "classify_fold",
    "render_field",
    "write_pgm",
    "ENERGY_HEADER",
]

ENERGY_HEADER = "step,t,tau,original_energy,modified_energy,R,w_norm_sq"
SPECTRUM_HEADER = "kx,ky,amplitude"
RATES_HEADER = "scheme,NT,error,rate"
NOISE_G2_MAX = 25.0


def dodecagonal_projection() -> np.ndarray:
    """Projection matrix for 12-fold planar symmetry in a 4-d embedding:
    columns are unit vectors at 0, 30, 60 and 90 degrees."""
    c = math.cos
    s = math.sin
    return np.array(
        [
            [1.0, c(math.pi / 6), c(math.pi / 3), 0.0],
            [0.0, s(math.pi / 6), s(math.pi / 3), 1.0],
        ]
    )


# -- config values: parsers and formatters ---------------------------------------


def _c_number(cast, what: str):
    def parse(v: str):
        try:
            return cast(v)
        except ValueError as exc:
            raise ConfigError(f"expected {what}, got {v!r}") from exc

    return parse


def _finite(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError(v)
    return x


_c_int = _c_number(int, "integer")
_c_float = _c_number(_finite, "finite number")


def _c_bool(v: str) -> bool:
    low = v.strip().lower()
    if low in {"1", "true", "yes", "on"}:
        return True
    if low in {"0", "false", "no", "off"}:
        return False
    raise ConfigError(f"expected boolean, got {v!r}")


def _c_matrix(v: str):
    # 'identity' needs n from another key; ProjectionCfg.check resolves it.
    if v.strip().lower() == "identity":
        return "identity"
    rows = [r.strip() for r in v.split(";")]
    data = [[_c_float(t) for t in r.split()] for r in rows if r]
    if not data:
        raise ConfigError("empty matrix value")
    width = len(data[0])
    if any(len(r) != width for r in data):
        raise ConfigError("matrix rows have unequal lengths")
    return np.array(data, dtype=float)


def _c_modes(v: str) -> List[Tuple[Tuple[int, ...], float, float]]:
    modes = []
    for row in filter(None, (r.strip() for r in v.split(";"))):
        tokens = row.split()
        if len(tokens) < 3:
            raise ConfigError(f"mode rows need indices, amplitude and phase; got {row!r}")
        h = tuple(_c_int(t) for t in tokens[:-2])
        modes.append((h, _c_float(tokens[-2]), _c_float(tokens[-1])))
    if not modes:
        raise ConfigError("mode list is empty")
    return modes


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _fmt_matrix(m: np.ndarray) -> str:
    return " ; ".join(" ".join(_fmt_float(v) for v in row) for row in np.atleast_2d(m))


def _fmt_modes(modes) -> str:
    return " ; ".join(
        " ".join(str(v) for v in h) + f" {_fmt_float(a)} {_fmt_float(ph)}" for h, a, ph in modes
    )


# (parse, format) pair of each value type
_INT = (_c_int, str)
_FLOAT = (_c_float, _fmt_float)
_STR = (str, str)
_BOOL = (_c_bool, lambda b: "true" if b else "false")
_INTS = (lambda v: tuple(_c_int(t) for t in v.split()), lambda vs: " ".join(map(str, vs)))
_FLOATS = (lambda v: tuple(_c_float(t) for t in v.split()), lambda vs: " ".join(map(_fmt_float, vs)))
_STRS = (lambda v: tuple(v.split()), " ".join)
_MATRIX = (_c_matrix, _fmt_matrix)
_MODES = (_c_modes, _fmt_modes)

_SCHEMES = ("sav_cn", "sav_cn_sdc")


# -- config sections -----------------------------------------------------------
# Each section is a dataclass whose field defaults are the config defaults.
# check() runs the section's cross-field checks once the file is parsed; it
# receives the whole config, so it can also check keys of other sections.


class _Section:
    def check(self, cfg: ExperimentConfig) -> None:
        pass


def _rule(section: str, rule, *args):
    """rule(*args): a library check or builder run on config values, its
    ValueError raised as a ConfigError of the section."""
    try:
        return rule(*args)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


@dataclass
class ProjectionCfg(_Section):
    d: int
    n: int
    P: np.ndarray
    B: np.ndarray
    sizes: Tuple[int, ...]

    def check(self, cfg) -> None:
        if isinstance(self.P, str):
            if self.d != self.n:
                raise ConfigError("'identity' projections need d == n")
            self.P = np.eye(self.n)
        if isinstance(self.B, str):
            self.B = np.eye(self.n)


@dataclass
class ModelCfg(_Section):
    eps: float
    alpha: float
    q: Optional[Tuple[float, ...]] = None
    c1: float = 1e16
    dealias: bool = False


@dataclass
class TimeCfg(_Section):
    T: float
    nt: int
    scheme: str = "sav_cn"
    sweeps: int = 1
    block: int = 4096

    def check(self, cfg) -> None:
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"[time] scheme must be sav_cn or sav_cn_sdc, got {self.scheme!r}")
        if self.T <= 0 or self.nt < 1:
            raise ConfigError("[time] needs T > 0 and nt >= 1")
        if self.scheme == "sav_cn_sdc":
            _rule("time", _sdc_blocks, self.nt, self.sweeps, self.block)


@dataclass
class InitialCfg(_Section):
    kind: str
    amplitude: float = 1.0
    modes: Optional[List[Tuple[Tuple[int, ...], float, float]]] = None
    file: Optional[str] = None

    def check(self, cfg) -> None:
        if self.kind not in {"sine", "mode_list", "field_file"}:
            raise ConfigError(
                f"[initial] kind must be sine, mode_list or field_file, got {self.kind!r}"
            )
        if self.kind == "mode_list" and self.modes is None:
            raise ConfigError("[initial] mode_list needs a 'modes' key")
        if self.kind == "field_file" and self.file is None:
            raise ConfigError("[initial] field_file needs a 'file' key")
        n = cfg.projection.n
        for h, _, _ in self.modes or ():
            if len(h) != n:
                raise ConfigError(f"[initial] mode rows need {n} indices, amplitude and phase; got {h}")


def _dump_tol(T: float) -> float:
    """How far a node may fall short of a requested dump time and still
    write it, in a run to time T."""
    return 1e-9 * max(1.0, T)


@dataclass
class OutputCfg(_Section):
    dir: str = "."
    energy_csv: str = "energy.csv"
    dump_times: Tuple[float, ...] = ()
    dump_prefix: str = "state"

    def check(self, cfg) -> None:
        # a run writes a dump at the first node at or past each time, within
        # run_evolution's tolerance; a time past [time] T has no such node
        if cfg.time is not None:
            late = [t for t in self.dump_times if not t <= cfg.time.T + _dump_tol(cfg.time.T)]
            if late:
                raise ConfigError(f"[output] dump_times {late} lie past [time] T = {cfg.time.T!r}")


@dataclass
class RenderCfg(_Section):
    window: Tuple[float, ...]
    resolution: Tuple[int, ...]
    floor_rel: float = 1e-8

    def check(self, cfg) -> None:
        _rule("render", raster_axes, cfg.projection.d, self.window, self.resolution)
        _rule("render", _render_rule, cfg.projection.d, self.floor_rel)


@dataclass
class SpectrumCfg(_Section):
    threshold_rel: float = 0.1

    def check(self, cfg) -> None:
        _rule("spectrum", _spectrum_rule, self.threshold_rel)


@dataclass
class ConvergenceCfg(_Section):
    nt_list: Tuple[int, ...]
    reference_nt: int
    schemes: Tuple[str, ...] = _SCHEMES
    csv: str = "rates.csv"

    def check(self, cfg) -> None:
        bad = [s for s in self.schemes if s not in _SCHEMES]
        if bad:
            raise ConfigError(f"[convergence] unknown schemes {bad}")
        if not self.nt_list:
            raise ConfigError("[convergence] nt_list is empty")
        if min(self.nt_list) < 1:
            raise ConfigError("[convergence] nt_list entries must be >= 1")
        if self.reference_nt <= max(self.nt_list):
            raise ConfigError("[convergence] reference_nt must exceed every tested nt")
        tcfg = cfg.time
        if tcfg is None:
            return
        # the reference is an SDC run with at least one sweep, and so is
        # each tested nt of the sav_cn_sdc scheme
        runs = [(self.reference_nt, max(tcfg.sweeps, 1))]
        if "sav_cn_sdc" in self.schemes:
            runs += [(nt, tcfg.sweeps) for nt in self.nt_list]
        for nt, sweeps in runs:
            _rule("convergence", _sdc_blocks, nt, sweeps, tcfg.block)


@dataclass
class ScalesCfg(_Section):
    m_list: Tuple[int, ...]
    s: float = 2.0 * math.cos(math.pi / 12.0)
    amplitude: float = 0.3
    jitter: float = 0.0
    noise: float = 0.0
    seed: int = 0
    ring_tol: float = 1e-8

    def check(self, cfg) -> None:
        if any(m < 1 for m in self.m_list):
            raise ConfigError("[scales] m_list entries must be >= 1")
        _rule("scales", _spectrum_rule, cfg.spectrum.threshold_rel, cfg.projection.d)


@dataclass
class ExperimentConfig:
    projection: ProjectionCfg
    model: ModelCfg
    time: Optional[TimeCfg] = None
    initial: Optional[InitialCfg] = None
    output: OutputCfg = dc_field(default_factory=OutputCfg)
    render: Optional[RenderCfg] = None
    spectrum: SpectrumCfg = dc_field(default_factory=SpectrumCfg)
    convergence: Optional[ConvergenceCfg] = None
    scales: Optional[ScalesCfg] = None

    # -- builders ------------------------------------------------------------

    def build_spec(self) -> ProjectionSpec:
        p = self.projection
        return _rule("projection", ProjectionSpec, p.d, p.n, p.P, p.B)

    def build_grid(self, spec: Optional[ProjectionSpec] = None) -> IndexGrid:
        return _rule("projection", build_grid, spec or self.build_spec(), self.projection.sizes)

    def build_params(self, q: Optional[Sequence[float]] = None) -> ModelParams:
        m = self.model
        q = tuple(q) if q is not None else m.q
        if q is None:
            raise ConfigError("[model] q is required for this command")
        return _rule("model", ModelParams, q, m.eps, m.alpha, m.c1)


# section -> (dataclass, {key: (parse, format)}), both in file order
_SECTIONS = {
    "projection": (ProjectionCfg, {"d": _INT, "n": _INT, "P": _MATRIX, "B": _MATRIX, "sizes": _INTS}),
    "model": (ModelCfg, {"q": _FLOATS, "eps": _FLOAT, "alpha": _FLOAT, "c1": _FLOAT, "dealias": _BOOL}),
    "time": (TimeCfg, {"T": _FLOAT, "nt": _INT, "scheme": _STR, "sweeps": _INT, "block": _INT}),
    "initial": (InitialCfg, {"kind": _STR, "amplitude": _FLOAT, "modes": _MODES, "file": _STR}),
    "output": (
        OutputCfg,
        {"dir": _STR, "energy_csv": _STR, "dump_times": _FLOATS, "dump_prefix": _STR},
    ),
    "render": (RenderCfg, {"window": _FLOATS, "resolution": _INTS, "floor_rel": _FLOAT}),
    "spectrum": (SpectrumCfg, {"threshold_rel": _FLOAT}),
    "convergence": (
        ConvergenceCfg,
        {"nt_list": _INTS, "reference_nt": _INT, "schemes": _STRS, "csv": _STR},
    ),
    "scales": (
        ScalesCfg,
        {
            "m_list": _INTS, "s": _FLOAT, "amplitude": _FLOAT, "jitter": _FLOAT,
            "noise": _FLOAT, "seed": _INT, "ring_tol": _FLOAT,
        },
    ),
}


def _defaults(cls) -> dict:
    """Field name -> default, with MISSING for fields that have none."""
    return {
        f.name: f.default_factory() if f.default_factory is not MISSING else f.default
        for f in fields(cls)
    }


def _parse_sections(text: str) -> dict:
    sections: dict = {}
    current = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {ln}: malformed section header {raw.strip()!r}")
            name = line[1:-1].strip()
            if name in sections:
                raise ConfigError(f"line {ln}: duplicate section [{name}]")
            sections[name] = {}
            current = name
        else:
            if current is None:
                raise ConfigError(f"line {ln}: key outside any section")
            if "=" not in line:
                raise ConfigError(f"line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in sections[current]:
                raise ConfigError(f"line {ln}: duplicate key {key!r} in [{current}]")
            sections[current][key] = value
    return sections


def _parse_section(name: str, raw: dict):
    cls, keys = _SECTIONS[name]
    defaults = _defaults(cls)
    values = {}
    for key, (parse, _) in keys.items():
        if key in raw:
            try:
                values[key] = parse(raw[key])
            except ConfigError as exc:
                raise ConfigError(f"[{name}] {key}: {exc}") from exc
        elif defaults[key] is MISSING:
            raise ConfigError(f"[{name}] missing required key {key!r}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"[{name}] unknown keys: {sorted(unknown)}")
    return cls(**values)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    sections = _parse_sections(text)
    unknown = set(sections) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    for name, default in _defaults(ExperimentConfig).items():
        if default is MISSING and name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    cfg = ExperimentConfig(**{name: _parse_section(name, raw) for name, raw in sections.items()})
    for name in _SECTIONS:
        section = getattr(cfg, name)
        if section is not None:
            section.check(cfg)
    return cfg


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(text))) == parse(text).

    Absent sections are left out, and so are keys that hold an empty default
    (None or an empty list); every other key is written out."""
    blocks = []
    for name, (cls, keys) in _SECTIONS.items():
        section = getattr(cfg, name)
        if section is None:
            continue
        defaults = _defaults(cls)
        lines = [f"[{name}]"]
        for key, (_, fmt) in keys.items():
            value = getattr(section, key)
            if value is None or (defaults[key] == () and value == ()):
                continue
            lines.append(f"{key} = {fmt(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# -- initial conditions --------------------------------------------------------


def ring_star_modes(
    grid: IndexGrid,
    radii: Sequence[float],
    amplitude: float,
    jitter: float = 0.0,
    seed: int = 0,
    tol: float = 1e-8,
) -> List[Tuple[Tuple[int, ...], float, float]]:
    """Mode list with equal (optionally jittered) amplitudes at every grid
    mode whose wavevector lies on one of the given circles.

    Jitter perturbs each conjugate pair by the same deterministic factor so
    the resulting field stays real; it is the knob that breaks exact
    rotational degeneracy when the relaxed state must pick an orientation.
    """
    kabs = np.sqrt(grid.unfold(grid.ksq).ravel())  # exact on live modes
    sel = np.zeros(grid.total, dtype=bool)
    for r in radii:
        sel |= np.abs(kabs - float(r)) <= tol
    sel[grid.zero_index] = False
    sel &= grid.unfold(grid.live_mask).ravel()
    flats = np.flatnonzero(sel)
    pos = np.unravel_index(flats, grid.sizes)
    mirrors = np.ravel_multi_index(tuple(-p % nj for p, nj in zip(pos, grid.sizes)), grid.sizes)
    pairs = sorted({(int(min(i, m)), int(max(i, m))) for i, m in zip(flats, mirrors)})
    rng = np.random.default_rng(seed)
    modes: List[Tuple[Tuple[int, ...], float, float]] = []
    for key, partner in pairs:
        amp = amplitude * (1.0 + jitter * (2.0 * rng.random() - 1.0)) if jitter else amplitude
        modes.append((tuple(grid.modes(key).tolist()), amp, 0.0))
        if partner != key:
            modes.append((tuple(grid.modes(partner).tolist()), amp, 0.0))
    return modes


def field_from_modes(grid: IndexGrid, modes) -> SpectralField:
    """Accumulate amplitude * exp(i phase) at each listed mode, in list
    order, then symmetrize and project out the mean, in the half layout."""
    flat = np.array([grid.flat_index(h) for h, _, _ in modes], dtype=np.intp)
    keys, where = np.unique(flat, return_inverse=True)
    values = np.zeros(len(keys), dtype=complex)
    listed = [amp * np.exp(1j * phase) for _, amp, phase in modes]
    np.add.at(values, where, np.array(listed, dtype=complex))
    f = field_from_listed(grid, np.stack(np.unravel_index(keys, grid.sizes), axis=-1), values)
    f.half.ravel()[grid.zero_index] = 0.0
    return f


def banded_noise_field(symbol: OperatorSymbol, scale: float, seed: int) -> SpectralField:
    """Deterministic conjugate-symmetric noise on the symbol's grid,
    restricted to the dynamically active shells where g^2 <= NOISE_G2_MAX.

    Strongly damped modes are excluded: the midpoint stepper rings on their
    content instead of removing it, which would swamp the energy diagnostics.
    """
    grid = symbol.grid
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes))
    noise = field_from_coeffs(grid, c).half * (symbol.g2_half <= NOISE_G2_MAX)
    return project_mean(SpectralField(grid, noise))


def build_initial(cfg: ExperimentConfig, grid: IndexGrid, base_dir: str = ".") -> SpectralField:
    if cfg.initial is None:
        raise ConfigError("missing required section [initial]")
    icfg = cfg.initial
    if icfg.kind == "sine":
        e1 = tuple([1] + [0] * (len(grid.sizes) - 1))
        flat = [_rule("initial", grid.flat_index, h) for h in (e1, tuple(-v for v in e1))]
        pos = np.stack(np.unravel_index(flat, grid.sizes), axis=-1)
        amp = icfg.amplitude
        return field_from_listed(grid, pos, [-0.5j * amp, 0.5j * amp])
    if icfg.kind == "mode_list":
        return _rule("initial", field_from_modes, grid, icfg.modes)
    path = os.path.join(base_dir, icfg.file)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            f = load_field(fh, grid)
    except OSError as exc:
        raise ConfigError(f"cannot read initial field file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return project_mean(f)


# -- spectra and rasters ---------------------------------------------------------


def classify_fold(kvecs: np.ndarray, amps: np.ndarray) -> int:
    """Largest s in {12, 6, 4, 2} under which the peak set is invariant
    (rotation by 2 pi / s), else 1.  Peak matching uses the angular and
    radial tolerance 1e-6 and a 5% relative amplitude tolerance."""
    radii = np.hypot(kvecs[:, 0], kvecs[:, 1])
    angles = np.arctan2(kvecs[:, 1], kvecs[:, 0])
    for s in (12, 6, 4, 2):
        dtheta = 2.0 * math.pi / s
        if _invariant_under(radii, angles, amps, dtheta):
            return s
    return 1


def _invariant_under(radii, angles, amps, dtheta) -> bool:
    for i in range(radii.size):
        if radii[i] <= 1e-12:
            continue  # the origin is rotation-invariant
        target = angles[i] + dtheta
        dr = np.abs(radii - radii[i])
        da = np.abs((angles - target + math.pi) % (2.0 * math.pi) - math.pi)
        damp = np.abs(amps - amps[i]) <= 0.05 * np.maximum(amps, amps[i])
        ok = (dr <= max(1e-6, 1e-6 * radii[i])) & (da <= 1e-6) & damp
        if not ok.any():
            return False
    return True


def _spectrum_rule(threshold_rel: float, d: Optional[int] = None) -> None:
    """Raise ValueError unless threshold_rel and d (when given) suit `spectrum_report`."""
    if not 0 < threshold_rel < 1:
        raise ValueError("threshold_rel must be in (0, 1): at 1 or more it drops every mode")
    if d is not None and d > 2:
        raise ValueError(f"symmetry classification supports d <= 2 only, got d = {d}")


def spectrum_report(fld: SpectralField, threshold_rel: float):
    """Peaks above threshold_rel * max amplitude, at their projected
    wavevectors, and the symmetry verdict.

    Returns (kxy, amps, verdict): kxy is (n, 2) with a zero second column for
    one-dimensional fields, rows sorted lexicographically for deterministic
    output.
    """
    grid = fld.grid
    _spectrum_rule(threshold_rel, grid.spec.d)
    magnitude = np.abs(fld.half)
    mx = float(magnitude.max())
    if mx <= 0.0:
        raise ValueError("empty spectrum: the field is identically zero")
    pos, modes, coeffs, interior = kept_half_modes(fld, threshold_rel * mx, magnitude)
    del magnitude
    # each interior mode's mirror holds conj(c), read off its own mode row
    modes = np.concatenate([modes, grid.modes_at(-pos[interior] % grid.sizes)])
    kv = modes @ grid.spec.projected_basis.T
    amps = np.abs(np.concatenate([coeffs, coeffs[interior]]))
    kxy = kv if kv.shape[1] == 2 else np.column_stack([kv[:, 0], np.zeros(kv.shape[0])])
    order = np.lexsort((kxy[:, 1], kxy[:, 0]))
    kxy = kxy[order]
    amps = amps[order]
    fold = classify_fold(kxy, amps)
    return kxy, amps, f"{fold}-fold"


def write_spectrum_csv(path: str, kxy: np.ndarray, amps: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SPECTRUM_HEADER + "\n")
        for (kx, ky), a in zip(kxy, amps):
            fh.write(f"{_fmt_float(kx)},{_fmt_float(ky)},{_fmt_float(a)}\n")


def _render_rule(d: int, floor_rel: float) -> None:
    """Raise ValueError unless d and floor_rel suit `render_field`."""
    if d > 2:
        raise ValueError(f"graymaps need d <= 2, got d = {d}")
    if not 0 <= floor_rel < 1:
        raise ValueError("floor_rel must be in [0, 1): at 1 or more it drops every mode")


def render_field(fld: SpectralField, window, resolution, floor_rel: float = 1e-8) -> np.ndarray:
    """Grayscale raster of the field over the window: linear map of the
    sampled range onto 0..255, a degenerate range maps to uniform 128.
    Modes at or below floor_rel times the largest amplitude are dropped.
    |c| is formed once, and the field is let go once the raster's terms
    are taken: a caller that keeps no reference to it (the CLI's render)
    rasters without it."""
    d = fld.grid.spec.d
    _render_rule(d, floor_rel)
    magnitude = np.abs(fld.half)
    coeffs, kv = _raster_terms(fld, floor_rel * float(magnitude.max()), magnitude)
    del fld, magnitude
    raster = raster_of_terms(coeffs, kv, d, window, resolution)
    lo = float(raster.min())
    hi = float(raster.max())
    if hi - lo <= 1e-12 * max(1.0, abs(hi), abs(lo)):
        return np.full(raster.shape, 128, dtype=np.uint8)
    img = np.rint((raster - lo) / (hi - lo) * 255.0)
    return img.astype(np.uint8)


def write_pgm(path: str, raster: np.ndarray) -> None:
    """Binary P5 graymap.  For 2-d rasters the first raster axis becomes the
    image column so a field varying along the first window axis renders as
    vertical stripes; 1-d rasters become a single-row strip."""
    if raster.ndim > 2:
        raise ValueError(f"a graymap needs a raster of at most 2 axes, got {raster.ndim}")
    img = raster.T if raster.ndim == 2 else raster.reshape(1, -1)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


# -- drivers ---------------------------------------------------------------------


def _run_scheme(start, symbol, params, tcfg: TimeCfg, on_step=None):
    """Step the initial state that start() returns over [0, T] with the
    configured scheme, on the sampling grid the state was built with;
    returns (state, reports).  on_step(i, state, report), if given, is
    called for every node after the initial one as soon as the scheme has
    finished it: each step for `sav_cn`, each corrected block for
    `sav_cn_sdc`.  start() is called in the scheme's argument list, so this
    frame keeps no reference to the state: a state no caller keeps is freed
    by the scheme, with its field and samples, once its steps stop reading
    it (after step 2 for `sav_cn`)."""
    if tcfg.scheme == "sav_cn_sdc":
        return sdc_solve(
            start(), tcfg.T, tcfg.nt, symbol, params, sweeps=tcfg.sweeps, block=tcfg.block,
            on_step=on_step,
        )
    times = np.linspace(0.0, tcfg.T, tcfg.nt + 1)
    return evolve(start(), times, symbol, params, on_step=on_step)


def _write_energy_csv(
    path: str, initial: list, symbol, params, dealias: bool, tcfg: TimeCfg, on_step=None
):
    """Run the configured scheme from the initial field, writing one energy
    row per node (the initial one included) as it is finished and then
    calling on_step(i, state, report); returns the final field.  A failure
    part-way leaves the rows of the nodes before it in the file.  `initial`
    is a one-item list that the caller hands over as the field's only
    holder: the field is taken out of it for the scheme, which frees it."""
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1) as fh:
        fh.write(ENERGY_HEADER + "\n")

        def row(i: int, state: StepperState, rep: StepReport) -> None:
            values = (
                state.t, rep.tau, rep.original_energy, rep.modified_energy, rep.r_value,
                rep.w_norm_sq,
            )
            fh.write(f"{i}," + ",".join(map(_fmt_float, values)) + "\n")
            if on_step is not None:
                on_step(i, state, rep)

        def start() -> StepperState:
            state = init_state(initial.pop(), symbol, params, dealias=dealias)
            row(0, state, initial_report(state, symbol, params))
            return state

        return _run_scheme(start, symbol, params, tcfg, on_step=row)[0].phi


def _output_dir(cfg: ExperimentConfig, base_dir: str) -> str:
    out_dir = os.path.join(base_dir, cfg.output.dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _setup(cfg: ExperimentConfig, base_dir: str):
    """(params, symbol, initial) of a config with [model] q and [initial]:
    `initial` is a one-item list holding the initial field, so that a run
    can take the field out and be its only holder."""
    grid = cfg.build_grid()
    params = cfg.build_params()
    symbol = build_symbol(grid.spec, grid, params.q)
    return params, symbol, [build_initial(cfg, grid, base_dir)]


def run_evolution(cfg: ExperimentConfig, base_dir: str = ".") -> dict:
    """Drive one evolution run: energy CSV, optional dumps and rasters."""
    if cfg.time is None:
        raise ConfigError("missing required section [time]")
    params, symbol, initial = _setup(cfg, base_dir)
    out_dir = _output_dir(cfg, base_dir)
    csv_path = os.path.join(out_dir, cfg.output.energy_csv)
    dumps: List[str] = []
    # each requested dump time snaps to the first node at or past it
    pending = sorted(float(t) for t in cfg.output.dump_times)
    tol = _dump_tol(cfg.time.T)

    def dump(i: int, state: StepperState, rep: StepReport) -> None:
        t, fld = state.t, state.phi
        if not pending or t < pending[0] - tol:
            return
        while pending and t >= pending[0] - tol:
            pending.pop(0)
        path = os.path.join(out_dir, f"{cfg.output.dump_prefix}_t{t:.6f}.field")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            dump_field(fld, fh)
        dumps.append(path)
        if cfg.render is not None:
            img = render_field(fld, cfg.render.window, cfg.render.resolution, cfg.render.floor_rel)
            write_pgm(path[: -len(".field")] + ".pgm", img)

    final = _write_energy_csv(
        csv_path, initial, symbol, params, cfg.model.dealias, cfg.time, on_step=dump
    )
    return {"csv": csv_path, "dumps": dumps, "final": final}


def run_convergence(cfg: ExperimentConfig, base_dir: str = ".") -> List[dict]:
    """Temporal refinement study against a self-generated reference.

    The reference is the corrected (deferred-correction) solution at
    reference_nt, stepped in blocks; errors are coefficient 2-norms at the
    final time and rates compare each nt against the previous halving.
    """
    if cfg.time is None or cfg.convergence is None:
        raise ConfigError("convergence runs need [time] and [convergence] sections")
    params, symbol, initial = _setup(cfg, base_dir)
    tcfg = cfg.time
    ccfg = cfg.convergence

    state0 = init_state(initial.pop(), symbol, params, dealias=cfg.model.dealias)

    def final(**change) -> SpectralField:
        return _run_scheme(lambda: state0, symbol, params, replace(tcfg, **change))[0].phi

    reference = final(scheme="sav_cn_sdc", nt=ccfg.reference_nt, sweeps=max(tcfg.sweeps, 1))
    rows: List[dict] = []
    for scheme in ccfg.schemes:
        prev_err = None
        for nt in ccfg.nt_list:
            err = norm_ap(final(scheme=scheme, nt=nt) - reference)
            rate = math.log2(prev_err / err) if (prev_err is not None and err > 0) else None
            rows.append({"scheme": scheme, "nt": nt, "error": err, "rate": rate})
            prev_err = err

    csv_path = os.path.join(_output_dir(cfg, base_dir), ccfg.csv)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RATES_HEADER + "\n")
        for row in rows:
            rate = "" if row["rate"] is None else _fmt_float(row["rate"])
            fh.write(f"{row['scheme']},{row['nt']},{_fmt_float(row['error'])},{rate}\n")
    return rows


def run_scales_study(cfg: ExperimentConfig, base_dir: str = ".") -> List[dict]:
    """Evolve the ring-seeded state under potentials with m = 1..m length
    scales and classify the final spectra."""
    if cfg.time is None or cfg.scales is None:
        raise ConfigError("scale studies need [time] and [scales] sections")
    spec = cfg.build_spec()
    grid = cfg.build_grid(spec)
    scfg = cfg.scales
    out_dir = _output_dir(cfg, base_dir)

    results: List[dict] = []
    for m in scfg.m_list:
        qs = tuple(scfg.s**j for j in range(m))
        params = cfg.build_params(q=qs)
        symbol = build_symbol(spec, grid, qs)
        modes = ring_star_modes(
            grid, qs, scfg.amplitude, jitter=scfg.jitter, seed=scfg.seed, tol=scfg.ring_tol
        )
        if not modes:
            raise ConfigError(f"no grid modes found on the m={m} rings")
        initial = [field_from_modes(grid, modes)]
        if scfg.noise > 0.0:
            # orientation tie-breaker: a perfectly symmetric star can freeze
            # in mixed local minima, so the relaxed state never picks an
            # orientation
            initial[0] += banded_noise_field(symbol, scfg.noise, scfg.seed)

        csv_path = os.path.join(out_dir, f"energy_m{m}.csv")
        final = _write_energy_csv(csv_path, initial, symbol, params, cfg.model.dealias, cfg.time)
        kxy, amps, verdict = spectrum_report(final, cfg.spectrum.threshold_rel)
        write_spectrum_csv(os.path.join(out_dir, f"spectrum_m{m}.csv"), kxy, amps)
        results.append(
            {
                "m": m,
                "verdict": verdict,
                "n_peaks": int(len(amps)),
                "n_seed_modes": len(modes),
                "final": final,
                "energy_csv": csv_path,
            }
        )

    with open(os.path.join(out_dir, "verdicts.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,verdict,n_peaks,n_seed_modes\n")
        for r in results:
            fh.write(f"{r['m']},{r['verdict']},{r['n_peaks']},{r['n_seed_modes']}\n")
    return results
