"""The repo benchmark: six workloads, end-to-end metrics, a traced pass.

See README.md in this directory and BENCHMARK.json at the repo root.
"""
