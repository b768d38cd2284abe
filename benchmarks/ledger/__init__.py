"""Perf ledger: four end-to-end workloads with outside-in per-layer attribution.

See ``benchmarks/ledger/README.md``. Entry points:

* ``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- one workload, one JSON result line (the
  ``BENCHMARK.json`` contract).
* ``PYTHONPATH=src python -m benchmarks.ledger run --seed 0`` -- all four
  workloads, every metric printed by name with its unit.
* ``python -m benchmarks.ledger compare A.json B.json`` -- the regression
  table between two result sets.
"""
