"""Record the final ``original_energy`` of the cn_ddqc24 and sdc_ddqc24
workloads for a range of seeds into ``perfbench/reference.json``.

    python3 perfbench/record_reference.py            # seeds 0-63 and the held-out seed
    python3 perfbench/record_reference.py 0-9 1009

Run it from the root of the source tree, at the commit whose outputs are the
reference; the benchmark then fails any run whose final energy drifts more
than 1e-12 relative from it.  It calls the same ``run_evolution`` the CLI
calls, in one process, so it does not build the grid once per seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(specs):
    for spec in specs:
        lo, _, hi = spec.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def main(argv) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ipfc.harness import parse_config, run_evolution
    from workloads import HELD_OUT_SEED, REFERENCE_PATH, cn_config, sdc_config

    work = os.path.join(ROOT, ".perfbench_runs", "reference")
    table = {"cn_ddqc24": {}, "sdc_ddqc24": {}}
    for seed in _seeds(argv or ["0-63", str(HELD_OUT_SEED)]):
        for name, config in (("cn_ddqc24", cn_config), ("sdc_ddqc24", sdc_config)):
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            result = run_evolution(parse_config(config(seed)), work)
            with open(result["csv"], "r", encoding="utf-8") as fh:
                last = fh.read().splitlines()[-1]
            table[name][str(seed)] = float(last.split(",")[3])
        print(seed, table["cn_ddqc24"][str(seed)], table["sdc_ddqc24"][str(seed)], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
