"""Command-line entry point.

Subcommands: evolve, converge, scales, render, spectrum.  Exit codes:
0 success, 1 configuration error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, NumericalError
from .field import load_field
from .harness import (
    RATES_HEADER,
    _output_dir,
    parse_config,
    render_field,
    run_convergence,
    run_evolution,
    run_scales_study,
    spectrum_report,
    write_pgm,
    write_spectrum_csv,
)


def _load_config(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    return cfg, os.path.dirname(os.path.abspath(path))


def _load_dump(cfg, dump_path: str):
    grid = cfg.build_grid()
    with open(dump_path, "r", encoding="utf-8") as fh:
        return load_field(fh, grid)


def _dump_output_path(cfg, base_dir: str, dump_path: str, suffix: str) -> str:
    """Output file named after the dump, in the config's output directory."""
    stem = os.path.splitext(os.path.basename(dump_path))[0]
    return os.path.join(_output_dir(cfg, base_dir), stem + suffix)


def _cmd_evolve(args) -> int:
    cfg, base = _load_config(args.config)
    result = run_evolution(cfg, base)
    print(f"energy log: {result['csv']}")
    for p in result["dumps"]:
        print(f"dump: {p}")
    return 0


def _cmd_converge(args) -> int:
    cfg, base = _load_config(args.config)
    rows = run_convergence(cfg, base)
    print(RATES_HEADER)
    for row in rows:
        rate = "" if row["rate"] is None else f"{row['rate']:.3f}"
        print(f"{row['scheme']},{row['nt']},{row['error']:.6e},{rate}")
    return 0


def _cmd_scales(args) -> int:
    cfg, base = _load_config(args.config)
    for res in run_scales_study(cfg, base):
        print(f"m={res['m']}: {res['verdict']} ({res['n_peaks']} peaks)")
    return 0


def _cmd_render(args) -> int:
    cfg, base = _load_config(args.config)
    if cfg.render is None:
        raise ConfigError("missing required section [render]")
    # no reference to the loaded field here: render_field frees it before the raster
    img = render_field(
        _load_dump(cfg, args.dump), cfg.render.window, cfg.render.resolution, cfg.render.floor_rel
    )
    path = _dump_output_path(cfg, base, args.dump, ".pgm")
    write_pgm(path, img)
    print(f"raster: {path}")
    return 0


def _cmd_spectrum(args) -> int:
    cfg, base = _load_config(args.config)
    fld = _load_dump(cfg, args.dump)
    kxy, amps, verdict = spectrum_report(fld, cfg.spectrum.threshold_rel)
    path = _dump_output_path(cfg, base, args.dump, "_spectrum.csv")
    write_spectrum_csv(path, kxy, amps)
    print(f"spectrum: {path}")
    print(f"verdict: {verdict} ({len(amps)} peaks)")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipfc",
        description="Energy-stable spectral solver for multi-length-scale "
        "phase-field-crystal gradient flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="run one dynamic evolution")
    p.add_argument("config")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("converge", help="temporal convergence study")
    p.add_argument("config")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("scales", help="multi-length-scale study")
    p.add_argument("config")
    p.set_defaults(func=_cmd_scales)

    p = sub.add_parser("render", help="raster a field dump to a P5 graymap")
    p.add_argument("config")
    p.add_argument("dump")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("spectrum", help="peak report and symmetry verdict of a dump")
    p.add_argument("config")
    p.add_argument("dump")
    p.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
