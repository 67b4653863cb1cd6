"""Benchmark for coxrank: four workloads, end-to-end metrics and a traced
per-layer breakdown.  Run ``python3 perfbench/run.py --help``."""
