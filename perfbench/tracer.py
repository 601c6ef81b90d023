"""Run the ``ipfc`` CLI in this process with a span around every call into
each package layer, then write the spans to a JSON file.

    python3 perfbench/tracer.py SPANS.json evolve run.cfg

The wrappers live here, not in ``ipfc``: each traced function is replaced in
every ``ipfc`` module namespace that holds it, which is where its callers
look it up (``from .field import _coeff_inner`` copies the name into
``sav_cn``).  ``numpy.fft.fftn``/``ifftn`` are traced as ``field`` looks
them up, through a proxy for ``field``'s ``np``.  Spans stay in memory until
the command returns.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# module -> {function name: span name}.  Names are the layer metrics' stems.
TRACED = {
    "ipfc.field": {
        "to_physical": "field.to_physical",
        "to_spectral": "field.to_spectral",
        "enforce_hermitian": "field.enforce_hermitian",
        "_coeff_inner": "field.coeff_inner",
        "pointwise_poly": "field.pointwise_poly",
        "pointwise_poly_mean": "field.pointwise_poly_mean",
        "dump_field": "field.dump_field",
        "load_field": "field.load_field",
    },
    "ipfc._kernels": {
        "poly_eval": "kernels.poly_eval",
        "hermitian_pair_mean": "kernels.hermitian_pair_mean",
        "bohr_fourier_sum": "kernels.bohr_fourier_sum",
    },
    "ipfc.model": {
        "sav_ingredients": "model.sav_ingredients",
        "bulk_mean": "model.bulk_mean",
        "nprime": "model.nprime",
        "variational_derivative": "model.variational_derivative",
        "energy": "model.energy",
    },
    "ipfc.sav_cn": {
        "_cn_step_full": "sav_cn.cn_step",
        "init_state": "sav_cn.init_state",
    },
    "ipfc.sdc": {
        "sdc_solve": "sdc.sdc_solve",
        "predict": "sdc.predict",
        "correct": "sdc.correct",
        "_refreeze": "sdc.refreeze",
        "integration_matrix": "sdc.integration_matrix",
    },
    "ipfc.lattice": {
        "build_grid": "lattice.build_grid",
        "build_symbol": "lattice.build_symbol",
        "sample_real_space": "lattice.sample_real_space",
    },
    "ipfc.harness": {
        "parse_config": "harness.parse_config",
        "build_initial": "harness.build_initial",
        "run_evolution": "harness.driver",
        "render_field": "harness.render_field",
        "write_pgm": "harness.write_pgm",
    },
}


class Tracer:
    """Spans as [name index, start s, end s, parent span index or -1, size],
    in start order.  `size` is what the name's tally computed from the
    call's arguments and result, or None."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        tally = _TALLIES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[me] = (idx, t0, t1, parent, None)
            if tally is not None:
                spans[me] = (idx, t0, t1, parent, tally(args, out))
            return out

        return traced


def _fft_bytes(args, out):
    # bytes read plus bytes written by one transform
    return args[0].nbytes + out.nbytes


def _raster_size(args, out):
    kvecs, _, _, points = args
    return [int(kvecs.shape[0]), int(points.shape[0])]  # modes, points


def _sdc_stored_bytes(args, out):
    # Fields and right-hand sides the predictor trajectory holds, plus the
    # stacked right-hand sides and interval quadratures correct() builds.
    traj = args[0]
    fields = len(traj.phis) + 2 * len(traj.ws) + (len(traj.phis) - 1)
    return fields * traj.phis[0].coeffs.nbytes


_TALLIES = {
    "fft.fftn": _fft_bytes,
    "fft.ifftn": _fft_bytes,
    "kernels.bohr_fourier_sum": _raster_size,
    "sdc.correct": _sdc_stored_bytes,
}


class _Namespace:
    """Attribute proxy: given names are overridden, the rest are read from
    the target once and then cached on the proxy."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        setattr(self, name, value)
        return value


def install(tracer: Tracer) -> None:
    import numpy

    replacements = {}
    for module_name, functions in TRACED.items():
        module = importlib.import_module(module_name)
        for attr, span in functions.items():
            fn = getattr(module, attr)
            replacements[id(fn)] = (fn, tracer.wrap(fn, span))
    for module_name, module in list(sys.modules.items()):
        if module_name == "ipfc" or module_name.startswith("ipfc."):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    fft = _Namespace(
        numpy.fft,
        fftn=tracer.wrap(numpy.fft.fftn, "fft.fftn"),
        ifftn=tracer.wrap(numpy.fft.ifftn, "fft.ifftn"),
    )
    sys.modules["ipfc.field"].np = _Namespace(numpy, fft=fft)


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import ipfc.cli
    import_ms = (time.perf_counter() - t0) * 1e3

    tracer = Tracer()
    install(tracer)
    code = ipfc.cli.main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_ms": import_ms,
                "names": tracer.names,
                "spans": tracer.spans,
            },
            fh,
            separators=(",", ":"),
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
