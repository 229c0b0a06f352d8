"""Tier-1 runs the same Hypothesis examples on every run: derandomized, with
no example database carried between runs.  Each test's @settings still sets
its own max_examples."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
