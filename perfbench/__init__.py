"""Standalone benchmark of the simulator: see ``perfbench/NOTES.md``.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout.  Nothing under ``src/`` knows
about this package: the traced run wraps the layers' public functions at run
time (:mod:`perfbench.tracing`).
"""
