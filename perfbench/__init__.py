"""Benchmark of floppynet: workloads, output checks and per-layer tracing."""
