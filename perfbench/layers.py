"""Per-layer metrics from the span files ``tracer.py`` writes.

A step is one ``sav_cn.cn_step`` span: every Crank-Nicolson step, the SDC
predictor's included, runs through ``sav_cn._cn_step_full``.  An SDC node is
a step taken inside ``sdc.sdc_solve``.  ``*.calls_per_step`` and
``fft.bytes_per_step`` count what runs inside steps; ``sdc.*_per_node``
counts everything inside ``sdc_solve``.  A layer a workload never calls
reports 0.

The counts must repeat exactly between traced runs; the timings are medians
over every call of all traced runs.
"""

from __future__ import annotations

import statistics

STEP = "sav_cn.cn_step"
SDC = "sdc.sdc_solve"
FFT = ("fft.fftn", "fft.ifftn")
RASTER_CHUNK_POINTS = 8192  # points per phase matrix in the direct-sum raster


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return float(statistics.quantiles(values, n=10, method="inclusive")[-1])


def _per(total, base) -> float:
    return total / base if base else 0.0


class _Run:
    """One traced run: for each span name, every call's duration and self
    time in ms, computed size, and whether it ran inside a step and inside
    ``sdc_solve``."""

    def __init__(self, doc: dict):
        names = doc["names"]
        spans = doc["spans"]
        self.import_ms = float(doc["import_ms"])
        dur = [(s[2] - s[1]) * 1e3 for s in spans]
        self_ms = list(dur)
        in_step = [False] * len(spans)
        in_sdc = [False] * len(spans)
        for i, s in enumerate(spans):  # a parent precedes its children
            p = s[3]
            if p >= 0:
                self_ms[p] -= dur[i]
                parent = names[spans[p][0]]
                in_step[i] = in_step[p] or parent == STEP
                in_sdc[i] = in_sdc[p] or parent == SDC
        self.calls_of: dict = {}
        for i, s in enumerate(spans):
            call = {"ms": dur[i], "self_ms": self_ms[i], "size": s[4], "step": in_step[i], "sdc": in_sdc[i]}
            self.calls_of.setdefault(names[s[0]], []).append(call)
        self.steps = len(self.calls_of.get(STEP, ()))
        self.nodes = len(self.calls(STEP, within="sdc"))

    def calls(self, *names, within=None) -> list:
        return [c for n in names for c in self.calls_of.get(n, ()) if within is None or c[within]]

    def total(self, key, *names, within=None) -> float:
        return sum(c[key] for c in self.calls(*names, within=within))

    def counts(self) -> dict:
        rasters = self.calls("kernels.bohr_fourier_sum")
        modes = _median([c["size"][0] for c in rasters])
        points = _median([c["size"][1] for c in rasters])
        return {
            "fft.calls_per_step": _per(len(self.calls(*FFT, within="step")), self.steps),
            "fft.bytes_per_step": _per(self.total("size", *FFT, within="step"), self.steps),
            **{
                f"{name}.calls_per_step": _per(len(self.calls(name, within="step")), self.steps)
                for name in (
                    "field.enforce_hermitian",
                    "field.coeff_inner",
                    "kernels.poly_eval",
                    "model.bulk_mean",
                )
            },
            "sdc.fft.calls_per_node": _per(len(self.calls(*FFT, within="sdc")), self.nodes),
            "sdc.node_bytes": _per(self.total("size", "sdc.correct"), self.nodes),
            "lattice.raster.modes": modes,
            "lattice.raster.phase_bytes": min(points, RASTER_CHUNK_POINTS) * modes * 8,
        }


def summarize(docs) -> tuple:
    """Return (metrics, repeat): the per-layer metric values, and whether
    every count came out identical in every run."""
    runs = [_Run(d) for d in docs]
    counts = [r.counts() for r in runs]

    def pooled(key, *names):
        return [c[key] for r in runs for c in r.calls(*names)]

    def ms(name):
        return _median(pooled("ms", name))

    def per_node(key, name):
        return _median([r.total(key, name) / r.nodes for r in runs if r.nodes])

    metrics = dict(counts[0])
    metrics.update(
        {
            "fft.ms_per_call": _median(pooled("ms", *FFT)),
            **{
                f"{name}.ms": ms(name)
                for name in (
                    "field.to_physical",
                    "field.to_spectral",
                    "field.enforce_hermitian",
                    "field.coeff_inner",
                    "field.pointwise_poly",
                    "field.dump_field",
                    "field.load_field",
                    "kernels.poly_eval",
                    "kernels.hermitian_pair_mean",
                    "kernels.bohr_fourier_sum",
                    "model.sav_ingredients",
                    "model.bulk_mean",
                    "model.nprime",
                    "model.variational_derivative",
                    "model.energy",
                    "sav_cn.init_state",
                    "lattice.build_grid",
                    "lattice.build_symbol",
                    "lattice.sample_real_space",
                    "harness.parse_config",
                    "harness.build_initial",
                    "harness.render_field",
                    "harness.write_pgm",
                )
            },
            "sav_cn.cn_step.ms_p50": ms(STEP),
            "sav_cn.cn_step.ms_p90": _p90(pooled("ms", STEP)),
            "sav_cn.cn_step.self_ms": _median(pooled("self_ms", STEP)),
            "sdc.predict.ms_per_node": per_node("ms", "sdc.predict"),
            "sdc.correct.ms_per_node": per_node("ms", "sdc.correct"),
            "sdc.refreeze.ms_per_node": per_node("ms", "sdc.refreeze"),
            "sdc.records.ms_per_node": per_node("self_ms", SDC),
            # A sum over a run's builds, not a per-call median: builds differ in size.
            "sdc.integration_matrix.ms": _median(
                [r.total("ms", "sdc.integration_matrix") for r in runs]
            ),
            "harness.driver.self_ms": _median(
                [r.total("self_ms", "harness.driver") for r in runs if r.calls("harness.driver")]
            ),
            "cli.import_ms": _median([r.import_ms for r in runs]),
        }
    )
    return metrics, all(c == counts[0] for c in counts[1:])
