"""The repository benchmark: seeded workloads through the public API.

Run one workload from the repository root::

    python3 spanbench/run.py --workload warm_daemon --seed 1 --seconds 25 --trace 0

See ``spanbench/README.md`` for what each workload is for.
"""
