"""The statistic kernels behind every exhaustive census.

``BACKEND`` names the kernel that runs; the benchmark probe reads it.
"""

from __future__ import annotations

from . import pure

BACKEND = "pure"
stat_tuple = pure.stat_tuple
census_stats = pure.census_stats

__all__ = ["BACKEND", "stat_tuple", "census_stats", "pure"]
