"""The repository benchmark: three workloads, end-to-end and per-layer.

Run ``python3 perfbench/run.py`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and sizing.
"""
