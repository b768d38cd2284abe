#!/usr/bin/env python3
"""Probe for a known defect: every search leaks its scratch states.

``repro.core.kernel.StateView._CACHE`` is a ``WeakKeyDictionary`` keyed by
``DataCenterState``, but each cached ``StateView`` holds a strong reference
to its key (``self.state``), so no entry ever dies: the scratch clone of
every search, with its NumPy mirror, stays alive for the life of the
process. That is one state per EG placement and more per BA* search (286
per lap of 110 ``place-scale`` ops, 2400 hosts each); full garbage
collections get slower as they pile up (9 ms before that lap, 29 ms
after), which is why a second lap of ``place-scale`` over the very same
ops reads ~6 % slower than the first and a third ~11 % (with
``gc.disable()`` three laps read 14.27 / 14.26 / 14.39 s).

The fix belongs to a later issue (drop the back-reference or key the
cache by ``id`` + version); this script only counts what stays alive.

    PYTHONPATH=src python benchmarks/ledger/probes/stateview_leak.py
"""

from __future__ import annotations

import gc
import os
import sys
from time import perf_counter

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.core.kernel import StateView  # noqa: E402
from repro.core.scheduler import Ostro  # noqa: E402
from repro.datacenter.builder import build_datacenter  # noqa: E402
from repro.datacenter.state import DataCenterState  # noqa: E402
from repro.workloads.multitier import build_multitier  # noqa: E402

PLACEMENTS = 40


def live_states() -> int:
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, DataCenterState))


def full_collect_ms() -> float:
    started = perf_counter()
    gc.collect()
    return (perf_counter() - started) * 1e3


def main() -> int:
    ostro = Ostro(build_datacenter(num_racks=150))
    before = live_states()
    print(f"live DataCenterState objects before: {before}, "
          f"full collection {full_collect_ms():.1f} ms")
    for i in range(PLACEMENTS):
        name = f"app-{i}"
        ostro.place(
            build_multitier(total_vms=15, heterogeneous=True, name=name),
            "eg", commit=True,
        )
        ostro.remove(name)
    after = live_states()
    print(f"after {PLACEMENTS} place+remove pairs: {after} "
          f"({(after - before) / PLACEMENTS:.1f} leaked per placement), "
          f"StateView cache holds {len(StateView._CACHE)} entries, "
          f"full collection {full_collect_ms():.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
