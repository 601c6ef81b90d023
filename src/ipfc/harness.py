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
    load_field,
    norm_ap,
    project_mean,
)
from .lattice import IndexGrid, OperatorSymbol, ProjectionSpec, build_grid, build_symbol, sample_real_space
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


_c_int = _c_number(int, "integer")
_c_float = _c_number(float, "number")


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
# check() runs the section's cross-field checks once the file is parsed.


class _Section:
    def check(self, projection: ProjectionCfg) -> None:
        pass


@dataclass
class ProjectionCfg(_Section):
    d: int
    n: int
    P: np.ndarray
    B: np.ndarray
    sizes: Tuple[int, ...]

    def check(self, projection) -> None:
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

    def check(self, projection) -> None:
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"[time] scheme must be sav_cn or sav_cn_sdc, got {self.scheme!r}")
        if self.T <= 0 or self.nt < 1:
            raise ConfigError("[time] needs T > 0 and nt >= 1")
        if self.scheme == "sav_cn_sdc":
            try:
                _sdc_blocks(self.nt, self.sweeps, self.block)
            except ValueError as exc:
                raise ConfigError(f"[time] {exc}") from None


@dataclass
class InitialCfg(_Section):
    kind: str
    amplitude: float = 1.0
    modes: Optional[List[Tuple[Tuple[int, ...], float, float]]] = None
    file: Optional[str] = None

    def check(self, projection) -> None:
        if self.kind not in {"sine", "mode_list", "field_file"}:
            raise ConfigError(
                f"[initial] kind must be sine, mode_list or field_file, got {self.kind!r}"
            )
        if self.kind == "mode_list" and self.modes is None:
            raise ConfigError("[initial] mode_list needs a 'modes' key")
        if self.kind == "field_file" and self.file is None:
            raise ConfigError("[initial] field_file needs a 'file' key")
        n = projection.n
        for h, _, _ in self.modes or ():
            if len(h) != n:
                raise ConfigError(f"[initial] mode rows need {n} indices, amplitude and phase; got {h}")


@dataclass
class OutputCfg(_Section):
    dir: str = "."
    energy_csv: str = "energy.csv"
    dump_times: Tuple[float, ...] = ()
    dump_prefix: str = "state"


@dataclass
class RenderCfg(_Section):
    window: Tuple[float, ...]
    resolution: Tuple[int, ...]
    floor_rel: float = 1e-8

    def check(self, projection) -> None:
        d = projection.d
        if len(self.window) != 2 * d or len(self.resolution) != d:
            raise ConfigError(f"[render] window needs {2 * d} numbers and resolution {d}")


@dataclass
class SpectrumCfg(_Section):
    threshold_rel: float = 0.1

    def check(self, projection) -> None:
        if not self.threshold_rel > 0:
            raise ConfigError("[spectrum] threshold_rel must be positive")


@dataclass
class ConvergenceCfg(_Section):
    nt_list: Tuple[int, ...]
    reference_nt: int
    schemes: Tuple[str, ...] = _SCHEMES
    csv: str = "rates.csv"

    def check(self, projection) -> None:
        bad = [s for s in self.schemes if s not in _SCHEMES]
        if bad:
            raise ConfigError(f"[convergence] unknown schemes {bad}")
        if not self.nt_list:
            raise ConfigError("[convergence] nt_list is empty")
        if self.reference_nt <= max(self.nt_list):
            raise ConfigError("[convergence] reference_nt must exceed every tested nt")


@dataclass
class ScalesCfg(_Section):
    m_list: Tuple[int, ...]
    s: float = 2.0 * math.cos(math.pi / 12.0)
    amplitude: float = 0.3
    jitter: float = 0.0
    noise: float = 0.0
    seed: int = 0
    ring_tol: float = 1e-8

    def check(self, projection) -> None:
        if any(m < 1 for m in self.m_list):
            raise ConfigError("[scales] m_list entries must be >= 1")


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
        try:
            return ProjectionSpec(d=p.d, n=p.n, P=p.P, B=p.B)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_grid(self, spec: Optional[ProjectionSpec] = None) -> IndexGrid:
        spec = spec or self.build_spec()
        try:
            return build_grid(spec, self.projection.sizes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_params(self, q: Optional[Sequence[float]] = None) -> ModelParams:
        m = self.model
        q = tuple(q) if q is not None else m.q
        if q is None:
            raise ConfigError("[model] q is required for this command")
        try:
            return ModelParams(q=q, eps=m.eps, alpha=m.alpha, c1=m.c1)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
            section.check(cfg.projection)
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
    kabs = np.sqrt((grid.kvec**2).sum(axis=1))
    sel = np.zeros(grid.total, dtype=bool)
    for r in radii:
        sel |= np.abs(kabs - float(r)) <= tol
    sel[grid.zero_index] = False
    sel &= grid.unfold(grid.live_mask).ravel()
    flats = np.flatnonzero(sel)
    pair_keys = sorted({int(min(i, grid.neg_flat[i])) for i in flats})
    rng = np.random.default_rng(seed)
    modes: List[Tuple[Tuple[int, ...], float, float]] = []
    for key in pair_keys:
        amp = amplitude * (1.0 + jitter * (2.0 * rng.random() - 1.0)) if jitter else amplitude
        partner = int(grid.neg_flat[key])
        modes.append((tuple(int(v) for v in grid.h_matrix[key]), amp, 0.0))
        if partner != key:
            modes.append((tuple(int(v) for v in grid.h_matrix[partner]), amp, 0.0))
    return modes


def field_from_modes(grid: IndexGrid, modes) -> SpectralField:
    """Accumulate amplitude * exp(i phase) at each listed mode, then
    symmetrize and project out the mean."""
    c = np.zeros(grid.sizes, dtype=complex)
    flat = c.ravel()
    for h, amp, phase in modes:
        flat[grid.flat_index(h)] += amp * np.exp(1j * phase)
    return project_mean(field_from_coeffs(grid, c))


def banded_noise_field(
    grid: IndexGrid, symbol: OperatorSymbol, scale: float, seed: int, g2_max: float = 25.0
) -> SpectralField:
    """Deterministic conjugate-symmetric noise restricted to the dynamically
    active shells where the operator symbol is small.

    Strongly damped modes are excluded: the midpoint stepper rings on their
    content instead of removing it, which would swamp the energy diagnostics.
    """
    rng = np.random.default_rng(seed)
    c = scale * (rng.standard_normal(grid.sizes) + 1j * rng.standard_normal(grid.sizes))
    return project_mean(field_from_coeffs(grid, c * (symbol.g2 <= g2_max)))


def build_initial(cfg: ExperimentConfig, grid: IndexGrid, base_dir: str = ".") -> SpectralField:
    if cfg.initial is None:
        raise ConfigError("missing required section [initial]")
    icfg = cfg.initial
    if icfg.kind == "sine":
        e1 = tuple([1] + [0] * (len(grid.sizes) - 1))
        c = np.zeros(grid.sizes, dtype=complex)
        try:
            c.ravel()[grid.flat_index(e1)] = -0.5j * icfg.amplitude
            c.ravel()[grid.flat_index(tuple(-v for v in e1))] = 0.5j * icfg.amplitude
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return field_from_coeffs(grid, c)
    if icfg.kind == "mode_list":
        try:
            return field_from_modes(grid, icfg.modes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
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


def spectrum_report(fld: SpectralField, grid: IndexGrid, threshold_rel: float):
    """Peaks above threshold_rel * max amplitude and the symmetry verdict.

    Returns (kxy, amps, verdict): kxy is (n, 2) with a zero second column for
    one-dimensional fields, rows sorted lexicographically for deterministic
    output.
    """
    if threshold_rel <= 0:
        raise ValueError("threshold must be positive")
    flat = np.abs(fld.coeffs.ravel())
    mx = float(flat.max()) if flat.size else 0.0
    if mx <= 0.0:
        raise ValueError("empty spectrum: the field is identically zero")
    mask = flat > threshold_rel * mx
    kv = grid.kvec[mask]
    amps = flat[mask]
    d = kv.shape[1]
    if d == 1:
        kxy = np.column_stack([kv[:, 0], np.zeros(kv.shape[0])])
    elif d == 2:
        kxy = kv.copy()
    else:
        raise ValueError("symmetry classification supports d <= 2 only")
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


def render_field(
    fld: SpectralField,
    spec: ProjectionSpec,
    grid: IndexGrid,
    window,
    resolution,
    floor_rel: float = 1e-8,
) -> np.ndarray:
    """Grayscale raster of the field over the window: linear map of the
    sampled range onto 0..255, a degenerate range maps to uniform 128."""
    cmax = float(np.abs(fld.half).max())
    floor = floor_rel * cmax
    raster = sample_real_space(spec, grid, fld, window, resolution, amplitude_floor=floor)
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
    img = raster.T if raster.ndim == 2 else raster.reshape(1, -1)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(img, dtype=np.uint8).tobytes())


# -- drivers ---------------------------------------------------------------------


def _run_scheme(
    state0: StepperState, symbol, params, dealias: bool, tcfg: TimeCfg, on_node=None
) -> SpectralField:
    """Step the initial state over [0, T] with the configured scheme and
    return the final field.  on_node(step, t, tau, report, phi), if given,
    is called for every node after the initial one as soon as the scheme has
    finished it: each step for `sav_cn`, each corrected block for
    `sav_cn_sdc`."""
    if tcfg.scheme == "sav_cn_sdc":
        return sdc_solve(
            state0, tcfg.T, tcfg.nt, symbol, params, sweeps=tcfg.sweeps, block=tcfg.block,
            dealias=dealias, node_hook=on_node,
        )[0]
    times = np.linspace(0.0, tcfg.T, tcfg.nt + 1)

    def on_step(i: int, state, report: StepReport) -> None:
        if on_node is not None:
            on_node(i, state.t, float(times[i] - times[i - 1]), report, state.phi)

    return evolve(state0, times, symbol, params, dealias=dealias, on_step=on_step)[0].phi


def _write_energy_csv(path: str, phi0, symbol, params, dealias: bool, tcfg: TimeCfg, on_node=None):
    """Run the configured scheme from phi0, writing one energy row per node
    (the initial one included) as it is finished and then calling
    on_node(t, phi); returns the final field.  A failure part-way leaves the
    rows of the nodes before it in the file."""
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1) as fh:
        fh.write(ENERGY_HEADER + "\n")

        def row(step: int, t: float, tau: float, rep: StepReport, phi: SpectralField) -> None:
            values = (t, tau, rep.original_energy, rep.modified_energy, rep.r_value, rep.w_norm_sq)
            fh.write(f"{step}," + ",".join(map(_fmt_float, values)) + "\n")
            if on_node is not None:
                on_node(t, phi)

        state0 = init_state(phi0, symbol, params, dealias=dealias)
        row(0, 0.0, 0.0, initial_report(state0, symbol, params, dealias), phi0)
        return _run_scheme(state0, symbol, params, dealias, tcfg, on_node=row)


def _output_dir(cfg: ExperimentConfig, base_dir: str) -> str:
    out_dir = os.path.join(base_dir, cfg.output.dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _setup(cfg: ExperimentConfig, base_dir: str):
    """(spec, grid, params, symbol, phi0) of a config with [model] q and [initial]."""
    spec = cfg.build_spec()
    grid = cfg.build_grid(spec)
    params = cfg.build_params()
    symbol = build_symbol(spec, grid, params.q)
    return spec, grid, params, symbol, build_initial(cfg, grid, base_dir)


def run_evolution(cfg: ExperimentConfig, base_dir: str = ".") -> dict:
    """Drive one evolution run: energy CSV, optional dumps and rasters."""
    if cfg.time is None:
        raise ConfigError("missing required section [time]")
    spec, grid, params, symbol, phi0 = _setup(cfg, base_dir)
    out_dir = _output_dir(cfg, base_dir)
    csv_path = os.path.join(out_dir, cfg.output.energy_csv)
    dumps: List[str] = []
    # each requested dump time snaps to the first node at or past it
    pending = sorted(float(t) for t in cfg.output.dump_times)
    tol = 1e-9 * max(1.0, cfg.time.T)

    def dump(t: float, fld: SpectralField) -> None:
        if not pending or t < pending[0] - tol:
            return
        while pending and t >= pending[0] - tol:
            pending.pop(0)
        path = os.path.join(out_dir, f"{cfg.output.dump_prefix}_t{t:.6f}.field")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            dump_field(fld, fh)
        dumps.append(path)
        if cfg.render is not None:
            img = render_field(
                fld, spec, grid, cfg.render.window, cfg.render.resolution, cfg.render.floor_rel
            )
            write_pgm(path[: -len(".field")] + ".pgm", img)

    final = _write_energy_csv(
        csv_path, phi0, symbol, params, cfg.model.dealias, cfg.time, on_node=dump
    )
    return {"csv": csv_path, "dumps": dumps, "final": final, "grid": grid, "spec": spec}


def run_convergence(cfg: ExperimentConfig, base_dir: str = ".") -> List[dict]:
    """Temporal refinement study against a self-generated reference.

    The reference is the corrected (deferred-correction) solution at
    reference_nt, stepped in blocks; errors are coefficient 2-norms at the
    final time and rates compare each nt against the previous halving.
    """
    if cfg.time is None or cfg.convergence is None:
        raise ConfigError("convergence runs need [time] and [convergence] sections")
    _, _, params, symbol, phi0 = _setup(cfg, base_dir)
    tcfg = cfg.time
    ccfg = cfg.convergence

    state0 = init_state(phi0, symbol, params, dealias=cfg.model.dealias)

    def final(**change) -> SpectralField:
        return _run_scheme(state0, symbol, params, cfg.model.dealias, replace(tcfg, **change))

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
        phi0 = field_from_modes(grid, modes)
        if scfg.noise > 0.0:
            # orientation tie-breaker: a perfectly symmetric star can freeze
            # in mixed local minima, so the relaxed state never picks an
            # orientation
            phi0 = phi0 + banded_noise_field(grid, symbol, scfg.noise, scfg.seed)

        csv_path = os.path.join(out_dir, f"energy_m{m}.csv")
        final = _write_energy_csv(csv_path, phi0, symbol, params, cfg.model.dealias, cfg.time)
        kxy, amps, verdict = spectrum_report(final, grid, cfg.spectrum.threshold_rel)
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
