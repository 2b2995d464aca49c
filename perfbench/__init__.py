"""Benchmark for the motzkinperm command line; see README.md in this directory."""
