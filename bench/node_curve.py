"""Node-count curve: traffic-aware host time and events at 30, 100, 200 and
400 nodes, at about 2.8 nodes per cell, with the grid-400 workload's traffic
over 300 s.

    python3 bench/node_curve.py

Times are scaled to the reference machine's speed as in run.py; each size
runs three simulation seeds and reports the median. Events come from one
traced run of the first seed.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

import layers
import run
from workloads import grid_scenario

SIZES = ((30, 3, 1), (100, 6, 2), (200, 8, 2), (400, 12, 3))  # nodes, width, partition
SEEDS = (1, 2, 3)
HORIZON_S = 300.0


def main() -> None:
    run.import_program()
    from ecsim.config import from_dict
    from ecsim.engine import Simulation

    print("nodes  grid   run_s  events  events_per_s")
    for nodes, width, partition in SIZES:
        raw = grid_scenario(random.Random(nodes), nodes, width, partition, HORIZON_S)
        times = []
        for seed in SEEDS:
            sim = Simulation(from_dict(raw), seed)
            before = run.calibrate()
            start = perf_counter()
            sim.run()
            elapsed = perf_counter() - start
            speed = 2 * run.REFERENCE_CALIBRATION_S / (before + run.calibrate())
            times.append(elapsed * speed)
        with layers.Tracer() as tracer:
            Simulation(from_dict(raw), SEEDS[0]).run()
        events = tracer.metrics()["engine.events"]
        run_s = statistics.median(times)
        print(f"{nodes:5d}  {width}x{width:<3d} {run_s:6.2f}  {events:6d}  {events / times[0]:10.0f}")


if __name__ == "__main__":
    main()
