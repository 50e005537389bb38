"""End-to-end benchmark of the partitioner, with outside-in layer tracing.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; ``DESIGN.md`` records the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""
