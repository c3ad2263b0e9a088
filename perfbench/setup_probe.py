"""Set-up probe, run in a fresh interpreter: imports, then one network build.

``python -m perfbench.setup_probe WORKLOAD SEED`` prints one JSON line
``{"ready_s": ..., "import_s": ..., "build_network_ms": ...}`` once the
network of the workload's first scenario is built.  ``ready_s`` is the CPU
time this process has used since it was spawned, interpreter start-up
included; the other two are CPU times of the imports and the build.
"""

from __future__ import annotations

import json
import sys
from time import process_time


def main(argv) -> int:
    started = process_time()
    from repro.experiments import build_network

    from perfbench.workloads import WORKLOADS

    imported = process_time()
    workload = WORKLOADS[argv[0]]
    config = workload.rounds(int(argv[1]), 1)[0][0]
    build_network(config)
    built = process_time()
    print(json.dumps({
        "ready_s": built,
        "import_s": imported - started,
        "build_network_ms": (built - imported) * 1e3,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
