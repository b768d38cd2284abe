#!/usr/bin/env python3
"""Probe for a known defect: link faults + scaling + defrag crash ``run_chaos``.

With a rack uplink down, the threshold autoscaler on *and* the background
defragmenter on, a defrag planning pass can die: ``plan_migration`` tries
a move on its simulator, the move fails, and the simulator's undo path
(``_Simulator.try_move`` putting the node back) re-reserves bandwidth
across the failed uplink and raises ``CapacityError``. Neither
``DefragPlanner._consider`` nor ``run_chaos`` catches it, so the whole run
dies instead of skipping the candidate. Link faults with only one of
scaling / defrag do not trigger it (0 of 40 seeds each); all three
together crash 6 of 40 seeds on a 2-rack cloud (seeds 9, 12, 15, 24, 38,
39 at the commit that added this probe).

This is why the ``lifecycle-chaos`` workload uses ``links=0``. The fix
belongs to a later issue; this script only reports which seeds hit it.

    PYTHONPATH=src python benchmarks/ledger/probes/chaos_link_scaling.py
"""

from __future__ import annotations

import os
import sys
import traceback

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.datacenter.builder import build_datacenter  # noqa: E402
from repro.defrag import DefragConfig  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.scaling import ScalingConfig  # noqa: E402
from repro.sim.chaos import run_chaos  # noqa: E402
from repro.sim.scenarios import make_fault_plan  # noqa: E402

SEEDS = 40


def main() -> int:
    cloud = build_datacenter(num_racks=2)
    crashed = []
    for seed in range(SEEDS):
        plan = make_fault_plan(
            cloud, seed=seed, hosts=4, links=1, steps=12,
            recover_after_steps=2, api_transient_rate=0.05,
        )
        try:
            run_chaos(
                plan, cloud=cloud, apps=12, app_vms=10, algorithm="eg",
                defrag=DefragConfig(algorithm="eg", max_moves_per_pass=16),
                scaling=ScalingConfig(
                    policy="threshold", tier_prefix="tier1",
                    scale_out_at=0.70, scale_in_at=0.35, step_fraction=0.34,
                    cooldown_s=3600.0, seed=seed, consolidate=True,
                ),
            )
        except ReproError as exc:
            crashed.append(seed)
            frames = traceback.extract_tb(exc.__traceback__)
            via = " > ".join(frame.name for frame in frames[1:6])
            print(f"seed {seed}: uncaught {type(exc).__name__} via {via}: {exc}")
    print(f"{len(crashed)} of {SEEDS} seeds crashed run_chaos: {crashed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
