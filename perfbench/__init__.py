"""The repository benchmark: end-to-end metrics and a traced per-layer ledger.

Run it from the root of a checkout::

    python3 perfbench/run.py --workload sim-xcdn --seed 11 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing but a few
phase timers installed; ``--trace 1`` repeats the run with span-recording
wrappers around every layer's entry points and prints the self-time
ledger.  ``BENCHMARK.json`` at the repository root names the workloads
and the metrics each mode reports.
"""
