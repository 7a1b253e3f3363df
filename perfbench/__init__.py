"""perfbench: the repository's end-to-end and per-layer benchmark.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the root of a checkout; see README.md in
this directory for the workloads, the metrics and the traced run.
"""
