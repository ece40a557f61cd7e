"""Benchmark of paramck check; see README.md."""
