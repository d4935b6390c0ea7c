"""Time a workload's set-up in a fresh interpreter and print the times.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is the path from the instance source to a ready ``MtaSystem``,
through the same calls the CLI makes, without wrappers.  One untimed
set-up warms up and sizes a batch of set-ups that takes at least
``BATCH_MIN_S``; batches are then timed, each between two host-speed probes
(hostspeed.py), and the time per set-up of each batch and the probes are
printed as JSON ``{"setup": [...], "probes": [...]}``.  run.py reports the
median calibrated time.  Batching keeps a set-up of a few milliseconds from
being timed on caches the probe has just cleared.
"""

import json
import math
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BATCH_MIN_S = 0.25
SETUP_REPS = 5  # at least this many batches ...
SETUP_MIN_S = 1.0  # ... and at least this long ...
SETUP_MAX_S = 10.0  # ... unless this much time has gone


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    work = workloads.WORKLOADS[name](seed, workdir)
    lk = workloads.load_package(Path(__file__).resolve().parent.parent / "src")
    clock = time.perf_counter
    begin = clock()
    work.setup(lk)
    batch = max(1, math.ceil(BATCH_MIN_S / (clock() - begin)))
    times: list[float] = []
    probes = [hostspeed.probe()]
    while not times or (
        (len(times) < SETUP_REPS or clock() - begin < SETUP_MIN_S) and clock() - begin < SETUP_MAX_S
    ):
        start = clock()
        for _ in range(batch):
            work.setup(lk)
        times.append((clock() - start) / batch)
        probes.append(hostspeed.probe())
    print(json.dumps({"setup": times, "probes": probes}))


if __name__ == "__main__":
    main()
