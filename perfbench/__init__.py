"""Benchmark harness for siegelmodp; see README.md and run.py."""
