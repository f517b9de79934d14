"""``benchmarks.e2e`` — the wall-clock benchmark.

Four long workloads, their end-to-end metrics and a per-layer ledger,
all timed from outside the program through its public functions.  See
``README.md`` in this directory for the metric tables, the layer →
end-to-end map and how to run it (``run.py`` is the one entry point);
``NOISE.md`` holds the measured run-to-run agreement the bounds in
``BENCHMARK.json`` come from.
"""
