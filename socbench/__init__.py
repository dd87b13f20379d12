"""End-to-end and per-layer benchmark for the socdfn CLI.

Run it from the repository root with ``python3 -m socbench.run``; see
``socbench/README.md`` for the workloads and metrics.
"""
