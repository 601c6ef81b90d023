"""Set-up probe: do in a fresh interpreter what ``ipfc`` does before its
first step (or first raster chunk), then print ``time.monotonic()``.

    python3 perfbench/probe.py run.cfg [dump.field]

The caller reads the clock just before starting this process, so the
difference covers interpreter start, ``import ipfc``, ``parse_config``,
``ExperimentConfig.build_grid``, ``build_symbol`` and ``build_initial``, or
``load_field`` of the dump when one is given.  Needs ``src`` on
``PYTHONPATH``.
"""

import os
import sys
import time

from ipfc.field import load_field
from ipfc.harness import build_initial, parse_config
from ipfc.lattice import build_symbol


def main(argv) -> int:
    cfg_path = argv[0]
    with open(cfg_path, "r", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    spec = cfg.build_spec()
    grid = cfg.build_grid(spec)
    build_symbol(spec, grid, cfg.build_params().q)
    if len(argv) > 1:
        with open(argv[1], "r", encoding="utf-8") as fh:
            load_field(fh, grid)
    else:
        build_initial(cfg, grid, os.path.dirname(os.path.abspath(cfg_path)))
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
