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
from .subsets import CLASSES, ClassSpec, SubsetId

# Schemes that describe a statistic over all permutations rather than a class.
EXTRA_SCHEMES: dict[str, ClassSpec] = {
    # All's weights with w alone: by the Foata transform, rising runs of three
    # adjacent entries are equidistributed with double excedances
    "Consecutive123": CLASSES[SubsetId.ALL]._replace(marks=("w",), closed=None),
}


def scheme_names() -> tuple[str, ...]:
    return tuple(s.value for s in SubsetId) + tuple(EXTRA_SCHEMES)


def scheme_for(
    subset: SubsetId | str, marks: Iterable[str] | None = None
) -> WeightScheme:
    """The weight scheme for a permutation class, keeping the given markers.

    ``marks`` must lie within one of the class's marker sets,
    ``ClassSpec.marks``, and defaults to the first.  Only All has two: its D
    weight counts cycles at q = 1 and inversions at t = 1, so no scheme
    carries t and q together.
    """
    name = subset.value if isinstance(subset, SubsetId) else str(subset)
    if name in EXTRA_SCHEMES:
        spec = EXTRA_SCHEMES[name]
    elif name in scheme_names():
        spec = SubsetId(name).spec
    else:
        raise ValueError(f"unknown scheme {name!r}; choose from {', '.join(scheme_names())}")
    sets = [frozenset(m) for m in spec.marks]
    chosen = sets[0] if marks is None else check_marks(marks)
    if not any(chosen <= s for s in sets):
        raise ValueError(
            f"class {name} has no weight scheme carrying markers "
            f"{sorted(chosen - frozenset.intersection(*sets))}; it supports "
            + " or ".join(str(sorted(s)) for s in sets)
        )

    xvwtq = tuple(MultiPoly.var(m) if m in chosen else 1 for m in VARS)
    return WeightScheme(
        name,
        down=lambda h: MultiPoly.zero() + spec.down(h, *xvwtq),  # a weight may be an int
        level=lambda h: sum(spec.level(h, *xvwtq), MultiPoly.zero()),
        elevated=spec.elevated,
        marks=chosen,
    )
