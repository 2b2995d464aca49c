"""From single-cycle permutations through path surgery to set partitions.

Three bijections compose here.  A permutation of [n] forming one cycle with
increasing excedance values encodes as a path of length n in the *elevated*
family :data:`CYCLE_PATHS`, whose interior stays above the axis: a lower
bounce at height h picks one of h open horizontal rays (colors 0..h-1), an
upper bounce always acts on the oldest vertical ray (color h), and an
interior down step picks any open horizontal ray except the one that would
close the cycle early (colors 0..h-2), the cycle finally closing on the last
step.  A one-step surgery turns those elevated paths into paths one step
shorter in the *grounded* family :data:`BLOCK_PATHS`, with down-step colors
0..h-1 and level colors 0..h.  Reading a grounded path left to right as
instructions — open a block, close a singleton, join a block, join and
finish a block — yields a set partition of [n-1].

The three path families are Bell-counted, and every arrow is invertible, so
single-cycle permutations with increasing excedance values biject with set
partitions one size down.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ._kernels import check_size
from .paths import ColoredMotzkinPath, PathFamily, check_family, decode, encode, enumerate_paths
from .perms import Permutation, _Record, _require_permutation
from .subsets import SubsetId, is_member


# The largest n that :func:`set_partitions` enumerates: its 678,570 partitions
# take 1.3-1.6 s at 11 and the 4,213,597 at 12 take 10.5 s (CPU time, pure
# Python 3.11.7 on a 2-core x86-64 virtual machine).
PARTITION_CAP = 11


class SetPartition(_Record):
    """Blocks covering 1..n, each sorted, ordered by smallest element."""

    __slots__ = ("blocks",)
    blocks: tuple[tuple[int, ...], ...]

    def _check(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if type(block) is not tuple or not block or not set(map(type, block)) <= {int}:
                raise ValueError(f"block {block!r} is not a nonempty tuple of ints")
            if list(block) != sorted(block):
                raise ValueError(f"block {block} is not sorted")
            if seen & set(block):
                raise ValueError("blocks overlap")
            seen |= set(block)
        if seen and seen != set(range(1, max(seen) + 1)):
            raise ValueError("blocks do not cover 1..n")
        if list(self.blocks) != sorted(self.blocks, key=lambda b: b[0]):
            raise ValueError("blocks are not ordered by minimum")

    @classmethod
    def of(cls, blocks: Sequence[Sequence[int]]) -> "SetPartition":
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        return cls(tuple(canon))

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        """Parse ``"1 9 | 2 | 3 4 7 8"``; an empty string is the partition of nothing."""
        text = text.strip()
        if not text:
            return cls(())
        return cls.of([[int(v) for v in part.split()] for part in text.split("|")])

    def to_text(self) -> str:
        return " | ".join(" ".join(str(v) for v in block) for block in self.blocks)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def set_partitions(n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All set partitions of {1..n} as sorted tuples of sorted blocks.

    Generated by restricted growth: entry i joins an existing block or opens
    the next fresh one.  An n over :data:`PARTITION_CAP` is refused before the
    first partition.
    """
    check_size(n, "size", PARTITION_CAP)
    if n == 0:
        yield ()
        return

    blocks: list[list[int]] = []

    def walk(i: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from walk(i + 1)
            b.pop()
        blocks.append([i])
        yield from walk(i + 1)
        blocks.pop()

    yield from walk(1)


# -- the two path families ---------------------------------------------------


def _elevated_down_colors(h: int) -> int:
    return 1 if h == 1 else h - 1


def _grounded_down_colors(h: int) -> int:
    return h


def _level_colors(h: int) -> int:
    return h + 1


def _cycle_color(letter: str, h: int, j: int, k: int, state, last: bool) -> int:
    if not j:  # a lower bounce
        return k - 1
    if j != 1:
        raise AssertionError("upper bounce or close off the oldest vertical ray expected")
    if letter == "L":
        return h
    cycle_k = state.cycle_k(1)
    if k == cycle_k:
        if not last:
            raise AssertionError("cycle closed before the final step")
        return 0
    return k - 1 - (k > cycle_k)


def _cycle_rays(letter: str, h: int, color: int, state, last: bool) -> tuple[int, int]:
    if letter == "L":
        if color < h:
            return 0, color + 1
        return (1, 0) if h else (0, 0)
    if last:
        return 1, 1
    k = color + 1  # skip the one horizontal ray that would close the cycle early
    return 1, (k if k < state.cycle_k(1) else k + 1)


CYCLE_PATHS = PathFamily(_elevated_down_colors, _level_colors, True, _cycle_color, _cycle_rays)
BLOCK_PATHS = PathFamily(_grounded_down_colors, _level_colors)


def enumerate_cycle_paths(n: int) -> Iterator[ColoredMotzkinPath]:
    """The elevated family of length n (Bell-counted one size down)."""
    return enumerate_paths(n, CYCLE_PATHS)


def enumerate_block_paths(n: int) -> Iterator[ColoredMotzkinPath]:
    """The grounded family of length n (Bell-counted)."""
    return enumerate_paths(n, BLOCK_PATHS)


# -- single-cycle permutations <-> elevated paths ----------------------------


def cycle_to_path(perm: Permutation | Sequence[int]) -> ColoredMotzkinPath:
    """Encode a single-cycle permutation with increasing excedance values."""
    values = _require_permutation(perm)
    if not is_member(values, SubsetId.CYCLIC_INCREASING_EXC):
        raise ValueError(
            "input must be a single cycle whose excedance values increase "
            "left to right"
        )
    return encode(values, CYCLE_PATHS)


def path_to_cycle(path: ColoredMotzkinPath) -> Permutation:
    """Decode an elevated-family path back to its single-cycle permutation."""
    check_family(path, CYCLE_PATHS)
    return decode(path, CYCLE_PATHS)


# -- the one-step surgery between the families -------------------------------


def shorten_path(path: ColoredMotzkinPath) -> ColoredMotzkinPath:
    """Elevated family, length n  ->  grounded family, length n-1.

    A level step whose color equals its height is *marked*.  If the path has
    one, the rightmost marked step at height h becomes a down step of color
    h-1 and the final step is dropped; otherwise the leading up step becomes
    a level step of color 0 and the final step is dropped.
    """
    check_family(path, CYCLE_PATHS)
    steps = path.steps
    pairs = [(st.letter, st.color) for st in steps[:-1]]
    marked = [i for i, st in enumerate(steps[:-1]) if st.letter == "L" and st.color == st.height]
    if marked:
        pairs[marked[-1]] = ("D", steps[marked[-1]].height - 1)
    elif pairs:
        pairs[0] = ("L", 0)
    return ColoredMotzkinPath.from_pairs(pairs)


def lengthen_path(path: ColoredMotzkinPath) -> ColoredMotzkinPath:
    """Grounded family, length n  ->  elevated family, length n+1.

    Inverse of :func:`shorten_path`: an empty path becomes the lone level
    step; a path starting with a level step is re-elevated wholesale; and
    otherwise the leftmost down step of maximal color at its height (there
    is always one: the last descent from height 1 qualifies) turns back into
    a marked level step.
    """
    check_family(path, BLOCK_PATHS)
    steps = path.steps
    if not steps:
        return ColoredMotzkinPath.from_pairs([("L", 0)])
    pairs = [(st.letter, st.color) for st in steps] + [("D", 0)]
    if steps[0].letter == "L":
        pairs[0] = ("U", 0)
    else:
        cut = next(
            i for i, st in enumerate(steps) if st.letter == "D" and st.color == st.height - 1
        )
        pairs[cut] = ("L", steps[cut].height)
    return ColoredMotzkinPath.from_pairs(pairs)


# -- grounded paths -> set partitions ----------------------------------------


def block_path_to_partition(path: ColoredMotzkinPath) -> SetPartition:
    """Read a grounded-family path as block-building instructions.

    Open blocks are kept oldest-first.  An up step opens a block; a level
    step of color equal to the height closes {i} as a singleton; a level
    step of lower color c joins block c and leaves it open; a down step of
    color c joins block c and closes it.
    """
    check_family(path, BLOCK_PATHS)
    open_blocks: list[list[int]] = []
    done: list[list[int]] = []
    for i, st in enumerate(path.steps, start=1):
        if st.letter == "U":
            open_blocks.append([i])
        elif st.letter == "L":
            if st.color == st.height:
                done.append([i])
            else:
                open_blocks[st.color].append(i)
        else:
            block = open_blocks.pop(st.color)
            block.append(i)
            done.append(block)
    if open_blocks:
        raise AssertionError("blocks left open on a closed path")
    return SetPartition.of(done)


def cycle_to_partition(perm: Permutation | Sequence[int]) -> SetPartition:
    """The full pipeline: single-cycle permutation of [n] -> partition of [n-1]."""
    return block_path_to_partition(shorten_path(cycle_to_path(perm)))


def weak_exc_partition(perm: Permutation | Sequence[int]) -> SetPartition:
    """Partition of [n] generated by i ~ p(i) at every strict descent i > p(i).

    Restricted to permutations whose weak excedance values increase, this is
    a bijection onto set partitions of [n].  Each value is the image of one
    entry, so the blocks are chains i -> p(i) < i: read in ascending order,
    an i with p(i) < i joins p(i)'s block and any other i opens one.
    """
    values = _require_permutation(perm)
    if not is_member(values, SubsetId.INCREASING_WEAK_EXC):
        raise ValueError(
            "weak excedance values must increase left to right"
        )
    blocks: list[list[int]] = []
    block_of: list[list[int]] = [[]]  # block_of[i] holds i; entry 0 pads
    for i, v in enumerate(values, start=1):
        if v < i:
            block = block_of[v]
        else:
            block = []
            blocks.append(block)
        block.append(i)
        block_of.append(block)
    return SetPartition.of(blocks)
