"""ipfc benchmark: run one workload through the ``ipfc`` CLI and print its
metrics as one JSON object on the last line of standard output.

    python3 perfbench/run.py --workload cn_ddqc24 --seed 0 --seconds 25 --trace 0

Run it from the root of a source tree (the directory holding ``src/ipfc``
and ``BENCHMARK.json``).  With ``--trace 0`` it reports the end-to-end
metrics of untraced CLI processes; with ``--trace 1`` it reports the
per-layer metrics of traced ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers
from workloads import WORKLOADS, cn_config, dump_name

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
# The first few processes after a pause run slow (on a 2-core VM, set-up
# probes took 0.79, 0.70, 0.54 and 0.50 s before settling at 0.41-0.44 s),
# so each run starts with this many untimed probes.
WARMUP_PROBES = 3
CLI = "import sys; from ipfc.cli import main; sys.exit(main())"  # the `ipfc` entry point
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src", "ipfc")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def machine_record() -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "pocketfft" if importlib.util.find_spec("numpy.fft._pocketfft_umath") else "unknown",
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "src_ipfc_lines": _src_lines(),
    }


class Bench:
    """One workload at one seed: a scratch directory inside the source tree,
    the child-process environment and the outputs of the runs so far."""

    def __init__(self, workload: str, seed: int):
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = os.path.join(ROOT, ".perfbench_runs", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.dump = self._make_dump() if self.wl.command == "render" else None
        self.first_output = None
        self.runs = 0

    def _run_dir(self, name: str, config: str) -> str:
        d = os.path.join(self.work, name)
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "run.cfg"), "w", encoding="utf-8") as fh:
            fh.write(config)
        return d

    def _make_dump(self) -> str:
        """Evolve the cn_ddqc24 config of this seed; its final dump is the
        field the render workload rasters.  Not timed."""
        d = self._run_dir("dump", cn_config(self.seed))
        proc = subprocess.run(
            [sys.executable, "-c", CLI, "evolve", "run.cfg"],
            cwd=d, env=self.env, capture_output=True, text=True,
        )
        path = os.path.join(d, "out", dump_name())
        if proc.returncode != 0 or not os.path.isfile(path):
            raise SystemExit(f"making the render dump failed:\n{proc.stdout}{proc.stderr}")
        return path

    def setup_s(self) -> float:
        """Time, in a fresh process, until the first step (or raster chunk)
        could begin."""
        d = self._run_dir("probe", self.wl.config(self.seed))
        argv = [sys.executable, os.path.join(HERE, "probe.py"), "run.cfg"]
        argv += [self.dump] if self.dump else []
        t0 = time.monotonic()
        proc = subprocess.run(argv, cwd=d, env=self.env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{proc.stdout}{proc.stderr}")
        return float(proc.stdout.split()[-1]) - t0

    def run_once(self, traced: bool) -> dict:
        """One fresh ``ipfc`` process; returns its wall time, peak RSS, the
        problems the output checks found and, when traced, its spans."""
        self.runs += 1
        d = self._run_dir(f"run{self.runs}", self.wl.config(self.seed))
        spans = os.path.join(d, "spans.json")
        if traced:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans]
        else:
            argv = [sys.executable, "-c", CLI]
        argv += [self.wl.command, "run.cfg"] + ([self.dump] if self.dump else [])
        with open(os.path.join(d, "stdout.txt"), "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=d, env=self.env, stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)

        result = {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0, "spans": None}
        problems = self._check(d, proc.returncode)
        if traced and not problems:
            with open(spans, "r", encoding="utf-8") as fh:
                result["spans"] = json.load(fh)
        if problems:
            print(f"run {self.runs} failed: " + "; ".join(problems), file=sys.stderr)
        result["failed"] = bool(problems)
        shutil.rmtree(d)
        return result

    def _check(self, d: str, code: int) -> list:
        if code != 0:
            with open(os.path.join(d, "stdout.txt"), "r", encoding="utf-8", errors="replace") as fh:
                return [f"exit code {code}: {fh.read()[-500:]}"]
        try:
            problems = self.wl.check(d, self.seed)
            with open(os.path.join(d, self.wl.output), "rb") as fh:
                data = fh.read()
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.first_output is None:
            self.first_output = data
        elif data != self.first_output:
            problems.append(f"{self.wl.output} differs from the first run's")
        return problems

    def window(self, seconds: float, modes: tuple, min_runs: int, before_run=None) -> list:
        """Runs ``ipfc`` traced (True) or untraced (False), cycling through
        `modes`, until the next run would take the runs' total wall time past
        `seconds`.  `before_run` is called ahead of each run, off the clock."""
        results: list = []
        spent = 0.0
        while len(results) < min_runs or spent + statistics.median(r["wall_s"] for r in results) <= seconds:
            if before_run is not None:
                before_run()
            results.append(self.run_once(modes[len(results) % len(modes)]))
            spent += results[-1]["wall_s"]
        return results


def _declared_metrics(key: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ipfc", "__init__.py")):
        print(f"error: no ipfc sources under {ROOT}/src", file=sys.stderr)
        return 2

    machine = machine_record()
    print("machine " + json.dumps(machine, sort_keys=True))
    bench = Bench(args.workload, args.seed)
    for _ in range(WARMUP_PROBES):
        bench.setup_s()
    if args.trace == 0:
        # The set-up probes alternate with the first timed runs, so that both
        # sample the same stretch of machine time.
        setups: list = []

        def probe():
            if len(setups) < SETUP_PROBES:
                setups.append(bench.setup_s())

        runs = bench.window(args.seconds, (False,), 1, before_run=probe)
        while len(setups) < SETUP_PROBES:
            probe()
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in runs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = _declared_metrics("end_to_end")
        repeat = True
    else:
        # Untraced runs alternate with traced ones, for trace_overhead.
        runs = bench.window(args.seconds, (False, True), 4)
        untraced, traced = runs[0::2], runs[1::2]
        docs = [r["spans"] for r in traced if r["spans"] is not None]
        if not docs:
            print("error: no traced run completed", file=sys.stderr)
            return 1
        values, repeat = layers.summarize(docs)
        if not repeat:
            print("traced counts differ between runs", file=sys.stderr)
        values["trace_overhead"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced)
            - 1.0
        )
        values["src_lines"] = machine["src_ipfc_lines"]
        units = _declared_metrics("per_layer")
    shutil.rmtree(bench.work)
    with contextlib.suppress(OSError):  # left in place while other workloads use it
        os.rmdir(os.path.dirname(bench.work))

    if set(values) != set(units):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in runs)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in runs)
    print(f"run wall_s: {walls}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0 and repeat,
                "attempted": len(runs),
                "failed": failed,
                "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
