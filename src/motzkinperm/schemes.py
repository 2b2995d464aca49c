"""Weight schemes built from the class records, plus the run-statistic scheme.

A scheme keeps a chosen set of statistic markers (subset of x, v, w, t, q);
markers left out are evaluated at 1, so one parametrised record serves both
the refined census and plain counting.  Requesting a marker a class cannot
carry raises ValueError rather than silently producing wrong weights.

The height-h step weights, read from :data:`motzkinperm.subsets.CLASSES`,
encode how many diagram rays each step could act on and which statistics the
choice changes.  Classes whose members are single cycles use elevated paths;
everything else uses grounded paths.
"""

from __future__ import annotations

from typing import Iterable

from .cfrac import WeightScheme
from .polys import VARS, MultiPoly, check_marks
from .subsets import ClassSpec, SubsetId

# Schemes that describe a statistic over all permutations rather than a class.
EXTRA_SCHEMES: dict[str, ClassSpec] = {
    # w marks rising runs of three adjacent entries
    "Consecutive123": ClassSpec(
        (), "w",
        down=lambda h, x, v, w, t, q: h * h,
        level=lambda h, x, v, w, t, q: (1, h * w, h),
    ),
}


def scheme_names() -> tuple[str, ...]:
    return tuple(s.value for s in SubsetId) + tuple(EXTRA_SCHEMES)


def scheme_for(
    subset: SubsetId | str, marks: Iterable[str] | None = None
) -> WeightScheme:
    """The weight scheme for a permutation class, keeping the given markers.

    ``marks`` defaults to everything the class supports, except for the full
    symmetric group where the default is x, v, w, t (the cycle and inversion
    markers cannot be carried simultaneously there).
    """
    name = subset.value if isinstance(subset, SubsetId) else str(subset)
    if name in EXTRA_SCHEMES:
        spec = EXTRA_SCHEMES[name]
        subset_id = None
    elif name in scheme_names():
        subset_id = SubsetId.from_name(name)
        spec = subset_id.spec
    else:
        raise ValueError(f"unknown scheme {name!r}; choose from {', '.join(scheme_names())}")
    supported = frozenset(spec.marks)

    if marks is None:
        chosen = supported
        if subset_id is SubsetId.ALL:
            chosen = frozenset("xvwt")
    else:
        chosen = check_marks(marks)
        unsupported = sorted(chosen - supported)
        if unsupported:
            raise ValueError(
                f"class {name} has no weight scheme carrying markers "
                f"{unsupported}; it supports {sorted(supported)}"
            )
    if subset_id is SubsetId.ALL and "t" in chosen and "q" in chosen:
        raise ValueError(
            "the full symmetric group cannot carry the cycle marker t and "
            "the inversion marker q in one scheme; drop one of them"
        )

    xvwtq = tuple(MultiPoly.var(m) if m in chosen else MultiPoly.one() for m in VARS)
    return WeightScheme(
        name,
        down=lambda h: MultiPoly.zero() + spec.down(h, *xvwtq),  # a weight may be an int
        level=lambda h: sum(spec.level(h, *xvwtq), MultiPoly.zero()),
        elevated=spec.elevated,
        marks=chosen,
    )
