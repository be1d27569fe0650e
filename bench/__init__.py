"""The repository benchmark: four seeded workloads, per-op-minimum
estimators, and layer spans recorded from outside the program.

Run ``python3 bench/run.py --help`` from the repository root; see
``bench/README.md`` for every metric and why each workload exists.
"""
