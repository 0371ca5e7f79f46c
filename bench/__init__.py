"""The Clio benchmark of record (see ``bench/README.md``).

Run one workload with ``python3 bench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""
