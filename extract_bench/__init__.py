"""Benchmark of the checkpointed extraction flagship (see run.py)."""
