"""Permutation statistics through colored Motzkin paths.

The core is a bijection sending a permutation to a Motzkin path whose steps
carry colors recording which diagram rays each entry closed.  On top of it:
joint statistic distributions as continued fractions (one weight scheme per
supported permutation class), a surgery connecting single-cycle permutations
to set partitions, divisor-sum counts for cyclic pattern avoidance, and an
inverse direction that recovers weights from a sequence prefix.
"""

from .bell import (
    SetPartition,
    block_path_to_partition,
    cycle_to_partition,
    cycle_to_path,
    enumerate_block_paths,
    enumerate_cycle_paths,
    lengthen_path,
    path_to_cycle,
    shorten_path,
    weak_exc_partition,
)
from .census import CensusReport, CheckResult, census, check_all
from .cfrac import WeightScheme, jfraction_series, kfraction_series
from .invert import (
    RecoveryStatus,
    WeightRecovery,
    classify_weights,
    invert_jfraction,
    regenerate,
)
from .mobius import brute_count, mobius_count, mobius_value
from .oracle import distribution, members, sweep_counts
from .paths import ColoredMotzkinPath, ColoredStep, enumerate_paths, path_to_perm, perm_to_path
from .perms import DiagonalSequence, DiagonalType, Permutation, StatVector, foata, stats
from .polys import MultiPoly
from .schemes import scheme_for, scheme_names
from .sequences import closed_form_counts
from .subsets import SubsetId, is_member

__version__ = "0.1.0"

__all__ = [
    "SetPartition",
    "block_path_to_partition",
    "cycle_to_partition",
    "cycle_to_path",
    "enumerate_block_paths",
    "enumerate_cycle_paths",
    "lengthen_path",
    "path_to_cycle",
    "shorten_path",
    "weak_exc_partition",
    "CensusReport",
    "CheckResult",
    "census",
    "check_all",
    "WeightScheme",
    "jfraction_series",
    "kfraction_series",
    "RecoveryStatus",
    "WeightRecovery",
    "classify_weights",
    "invert_jfraction",
    "regenerate",
    "brute_count",
    "mobius_count",
    "mobius_value",
    "distribution",
    "members",
    "sweep_counts",
    "ColoredMotzkinPath",
    "ColoredStep",
    "enumerate_paths",
    "path_to_perm",
    "perm_to_path",
    "DiagonalSequence",
    "DiagonalType",
    "Permutation",
    "StatVector",
    "foata",
    "stats",
    "MultiPoly",
    "scheme_for",
    "scheme_names",
    "closed_form_counts",
    "SubsetId",
    "is_member",
    "__version__",
]
