"""Candidate-throughput microbenchmarks.

The measurement library lives in :mod:`repro.evaluation.perf`; this package
holds the pytest smoke test that guards the perf contract (tiered+cached
validation at least 3x the seed-architecture reference on the fixed kernel
set) and documents how to regenerate the ``BENCH_*.json`` trajectory:

    PYTHONPATH=src python -m repro bench --scope quick --tag <tag>

See the "Performance" section of ROADMAP.md for how to read the records.
"""
