"""End-to-end and per-layer benchmark of negosim.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; ``python3 perfbench/sweep.py`` runs every workload over
several seeds and prints each metric with its unit.
"""
