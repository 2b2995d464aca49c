"""The statistic kernels behind every exhaustive census, in pure Python.

:func:`stat_tuple` reads one permutation in O(n log n): one pass for fixed
points, excedances, double excedances and cycles, with a Fenwick tree
counting inversions.  It assumes a valid permutation;
:func:`motzkinperm.perms.stats` is the checked entry point.
:func:`prefix_walk` walks the one-line prefixes of S_n depth first (Knuth,
TAOCP 4A, 7.2.1.2), skipping every placement a class's rule refuses, and
yields each permutation it reaches; the rules are exact, so those are the
class's members and nothing else.
:func:`state_tallies` tallies the statistics of a class at every size up to
n at once, without visiting each member: a forward dynamic program over the
walk's placement states that merges prefixes whose relabelled states agree
(the whole group up to n = 9 in 0.03 s, against 0.2 s for a memoized
recursion per size; CPU time, Python 3.11.7 on a 2-core x86-64 virtual
machine).  It carries only the statistics a caller marks, so a plain count
holds one int per state.  Its rule may read ``top``, ``head`` and
``unused`` but not ``values``, and every class rule keeps to that.
``BACKEND`` names the kernel that runs; the benchmark probe reads it.
"""

from __future__ import annotations

BACKEND = "pure"


def check_size(n, name: str = "size", cap: int | None = None) -> None:
    """Refuse a size that is not a nonnegative int, or is over ``cap``; a bool
    is not a size.  Every capped entry point refuses through this one guard."""
    if type(n) is not int:
        raise ValueError(f"{name} must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if cap is not None and n > cap:
        raise ValueError(f"{name} {n} is refused; the cap is {cap}")


def stat_tuple(values):
    """``(fixed, exc, dexc, cyc, inv)`` of a permutation in one-line notation:
    fixed points, excedances (pi(i) > i), double excedances (i < pi(i) <
    pi(pi(i))), cycles and inversions."""
    n = len(values)
    fixed = exc = dexc = cyc = inv = 0
    seen = bytearray(n)
    tree = [0] * (n + 1)
    for i in range(n):
        v = values[i]
        if v == i + 1:
            fixed += 1
        elif v > i + 1:
            exc += 1
            if values[v - 1] > v:
                dexc += 1
        if not seen[i]:
            cyc += 1
            j = i
            while not seen[j]:
                seen[j] = 1
                j = values[j] - 1
        # earlier values above v: all i earlier ones minus the tree's count of those <= v
        inv += i
        j = v
        while j:
            inv -= tree[j]
            j &= j - 1
        j = v
        while j <= n:
            tree[j] += 1
            j += j & -j
    return (fixed, exc, dexc, cyc, inv)


class Prefix:
    """What a membership rule sees of the permutation being built.

    When the walk tries value v at position i, ``values[j]`` is pi(j) for
    1 <= j < i (``values[0]`` is padding), ``unused`` lists the values not yet
    placed in increasing order (v among them), and ``top`` is the largest
    placed value, 0 for the empty prefix.  Placed entries form chains j ->
    pi(j) -> ...; ``head[t]`` is the first element of the chain that ends at
    t and ``tail[h]`` the last of the chain that starts at h, so ``head[i] !=
    i`` exactly when i is already some earlier pi(j), and placing v = head[i]
    closes a cycle.  :meth:`place` makes one placement for good, as
    :func:`motzkinperm.subsets.is_member` replays a permutation; after it
    ``unused`` holds only the smallest value not yet placed and the largest
    below the next position (nothing once all are placed), which is all of it
    the rules read.
    """

    __slots__ = ("values", "unused", "top", "head", "tail", "placed", "below")

    def __init__(self, n: int) -> None:
        self.values = [0] * (n + 1)
        self.unused = list(range(1, n + 1))
        self.top = 0
        self.head = list(range(n + 1))
        self.tail = list(range(n + 1))
        self.placed = bytearray(n + 2)  # placed[n + 1] stays 0
        self.below = []

    def place(self, i: int, v: int) -> None:
        """Set pi(i) = v after pi(1..i-1), joining chains as the walk does.

        The smallest unused value only rises, so the scan over ``placed`` that
        finds it takes amortized O(1) per placement.  ``below`` stacks each value
        i still unused when position i is placed, and pops values placed since
        only once they reach its top, so its top is the largest unused value
        up to i, in amortized O(1) too.
        """
        self.values[i] = v
        placed = self.placed
        placed[v] = 1
        low = self.unused[0]
        while placed[low]:
            low += 1
        below = self.below
        if not placed[i]:
            below.append(i)
        while below and placed[below[-1]]:
            below.pop()
        if below and below[-1] != low:
            self.unused = [low, below[-1]]
        else:
            self.unused = [low] if low < len(placed) - 1 else []
        if v > self.top:
            self.top = v
        h = self.head[i]
        if v != h:
            t = self.tail[v]
            self.head[t], self.tail[h] = h, t


def prefix_walk(n, prefix_ok=None):
    """Yield each permutation of S_n, in lexicographic order.

    The walk places pi(1), pi(2), ... depth first (Knuth, TAOCP 4A, 7.2.1.2,
    Algorithm X), position i taking each unused value in turn.  With
    ``prefix_ok(prefix, i, v)`` given, a value is tried only where it returns
    True for the :class:`Prefix` view, so whole subtrees are skipped and the
    walk yields exactly the permutations whose every placement passes.  Each
    is yielded as ``values``, the list of the view, 1-based and reused: copy
    what you keep.  The size is checked when the walk starts.  The walk
    keeps its own stack, so it yields from one frame, not one per position.
    """
    check_size(n)
    prefix = Prefix(n)
    values, unused, head, tail = prefix.values, prefix.unused, prefix.head, prefix.tail
    if not n:
        yield values
        return
    ks, tops = [0] * n, [0] * n  # at each position: the index in unused of its value, top before it
    i, k = 1, 0  # next, try unused[k] at position i
    while True:
        if i == n:  # the last value left
            v = unused[0]
            if prefix_ok is None or prefix_ok(prefix, i, v):
                values[i] = v
                yield values
        else:
            if prefix_ok is not None:
                while k <= n - i and not prefix_ok(prefix, i, unused[k]):
                    k += 1
            if k <= n - i:
                v = values[i] = unused[k]
                del unused[k]
                ks[i] = k
                top = tops[i] = prefix.top
                if v > top:
                    prefix.top = v
                h = head[i]
                if v != h:  # join the chain headed by v, ending at some t > i, to h's
                    head[tail[v]], tail[h] = h, tail[v]
                i, k = i + 1, 0
                continue
        i -= 1  # undo the placement at i, then try the next value there
        if not i:
            return
        v, h = values[i], head[i]
        if v != h:
            head[tail[h]], tail[h] = v, i
        k = ks[i]
        unused.insert(k, v)
        prefix.top = tops[i]
        k += 1


class _State(Prefix):
    """A representative placement state of :func:`state_tallies`: ``unused``,
    ``top`` and ``head``, and no ``values``."""

    __slots__ = ()

    def __init__(self, unused, top, head):
        self.unused, self.top, self.head = unused, top, head


def state_tallies(n_max, rule=None, marks="xvwtq"):
    """Tally :func:`stat_tuple` over the members of every size 0..n_max at once.

    Entry m of the returned list is ``{stat tuple: multiplicity}`` over the
    permutations of size m whose every placement passes ``rule`` (all of S_m
    without one).  The pass holds one level (position) of placement states
    at a time, each a representative and the packed statistics of the
    prefixes that reach it.  What positions i..n add, and what the rules
    allow, reads only i, ``top`` and the chain heads of the open positions,
    whose set is the unused values.  So the key lists those heads, each
    unused value below i as its rank, -m..-1 for m of them (they lie below
    every open position), every other as u - i; that fixes ``top`` too, the
    largest value from i up not unused, else i - 1.  So ``rule`` may read
    ``top``, ``head`` and ``unused`` of its :class:`Prefix` view, but not
    ``values``, which a state does not hold.  The state at level m + 1 with
    ``top == m`` holds the permutations of 1..m, which every rule reads as
    at size m.  Only the statistics whose markers (x, v, w, t, q, in tuple
    order) are in ``marks`` are carried; the others read 0, so with no
    marker each state holds one int.  The sum still runs over every member,
    and reads no path or continued fraction.
    """
    check_size(n_max)
    n = n_max
    width = max(1, (n * n).bit_length())  # each statistic <= n*n < 2**width: sums never carry
    fix, exc, dexc, cyc, inv = (
        1 << k * width if m in marks else 0 for k, m in zip((4, 3, 2, 1, 0), "xvwtq")
    )
    level = {None: (_State(list(range(1, n + 1)), 0, list(range(n + 1))), {0: 1})}
    packed = []
    for i in range(1, n + 2):
        packed.append(next((sums for state, sums in level.values() if state.top == i - 1), {}))
        if i > n:
            break
        following = {}
        while level:  # popped, so each state's sums are freed once passed on
            state, sums = level.popitem()[1]
            unused, top, head = state.unused, state.top, state.head
            h = head[i]
            above = exc + (dexc if h != i else 0)
            for k, v in enumerate(unused):
                if rule is not None and not rule(state, i, v):
                    continue
                step = k * inv + (above if v > i else fix if v == i else 0) + (cyc if v == h else 0)
                rest = unused[:k] + unused[k + 1 :]
                heads = head[:]
                if v != h:  # v heads the chain that ends at an open t > i: join it to h
                    heads[heads.index(v, i + 1)] = h
                low = [u for u in rest if u <= i]
                rank = {u: r - len(low) for r, u in enumerate(low)}
                key = tuple([rank[u] if u <= i else u - i for u in heads[i + 1 :]])
                if key not in following:
                    child = _State(rest, max(v, top), heads)
                    following[key] = (child, {})
                acc = following[key][1]
                for s, mult in sums.items():
                    acc[s + step] = acc.get(s + step, 0) + mult
        level = following
    mask = (1 << width) - 1
    return [
        {tuple(s >> k * width & mask for k in (4, 3, 2, 1, 0)): mult for s, mult in sums.items()}
        for sums in packed
    ]

