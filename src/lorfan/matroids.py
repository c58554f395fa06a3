"""Matroids from bases and Bergman fans via chains of flats.

Subsets of the ground set {0, ..., n-1} are held as int bitmasks (bit e set
for element e).  The rank of S is max |S & B| over the bases B, and the
closure of S takes one pass over the bases: e outside S lies outside cl(S)
exactly when some basis B with |B & S| = rank(S) contains e, so cl(S) is the
ground set minus the union of B - S over those bases.

Each matroid keeps one record of its cocircuits (`Matroid._cocircuits`):
every cocircuit is a fundamental cocircuit C*(B, e) = {f : B - e + f is a
basis} of some basis B and e in B, so one swap set per (B, e)
finds them all.  The exchange check scans the bases once per distinct
cocircuit, and the flats are closed as intersections of the hyperplanes,
the complements of the cocircuits, that contain a set.

The Bergman fan lives in the quotient of coordinate space by the all-ones
line, realized by deleting the coordinate of element 0.  Rays are proper
nonempty flats marked by the image of their indicator vector; maximal cones
are maximal chains of such flats; the weight is identically one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import PreconditionError
from .fan import MarkedFan, components, point_fan
from .weights import MinkowskiWeight, TropicalFan, constant_weight

# how many loops a refusal names
_LOOPS_SHOWN = 5


def _mask(elements) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


def _elements(mask: int) -> tuple[int, ...]:
    return tuple(e for e in range(mask.bit_length()) if mask >> e & 1)


@dataclass(frozen=True)
class Matroid:
    n: int
    bases: frozenset

    @property
    def rank(self) -> int:
        return len(next(iter(self.bases)))

    @cached_property
    def _basis_masks(self) -> tuple[int, ...]:
        return tuple(sorted(_mask(b) for b in self.bases))

    def _rank(self, s: int) -> int:
        return max((s & b).bit_count() for b in self._basis_masks)

    def _closure(self, s: int) -> int:
        """cl(S) in one pass: drop from the ground set every element of B - S
        for the bases B that meet S in rank(S) elements."""
        best, spanning = -1, 0
        for b in self._basis_masks:
            k = (s & b).bit_count()
            if k > best:
                best, spanning = k, b
            elif k == best:
                spanning |= b
        return ((1 << self.n) - 1) & ~(spanning & ~s)

    def rank_of(self, subset) -> int:
        return self._rank(_mask(subset))

    def closure(self, subset) -> frozenset:
        return frozenset(_elements(self._closure(_mask(subset))))

    def loops(self) -> frozenset:
        return self.closure(())

    @cached_property
    def _cocircuits(self) -> dict[int, tuple[int, int]]:
        """Each distinct swap set {f : B - e + f is a basis}, mapped to the
        first (B, e) giving it, in basis-mask order and then element order.

        For a matroid the swap sets are exactly the cocircuits.  A swap set
        holds e, since B - e + e = B, and no other element of B, since the
        bases share one size.
        """
        index = set(self._basis_masks)
        bits = [1 << f for f in range(self.n)]
        out = {}
        for b in self._basis_masks:
            outside = [bit for bit in bits if not b & bit]
            for e in _elements(b):
                rest = b & ~(1 << e)
                swaps = 1 << e
                for bit in outside:
                    if rest | bit in index:
                        swaps |= bit
                out.setdefault(swaps, (b, e))
        return out

    @cached_property
    def _flats(self) -> tuple[tuple[int, int], ...]:
        """(rank, mask) of every flat, ordered by (rank, sorted set).

        A search up from the loops, one rank at a time.  cl(S) is the
        intersection of the hyperplanes containing S (the ground set if there
        are none), so each flat F carries the hyperplanes containing it and
        cl(F + e) intersects those that hold e.  The flats covering F
        partition the ground set minus F, so each element outside F seeds at
        most one closure.
        """
        ground = (1 << self.n) - 1
        hyperplanes = [ground & ~c for c in self._cocircuits]
        loops = ground
        for h in hyperplanes:
            loops &= h
        level = {loops: hyperplanes}
        out = []
        for k in range(self.rank + 1):
            out.extend(sorted(((k, f) for f in level), key=lambda rf: _elements(rf[1])))
            above = {}
            for f, over in level.items():
                rest = ground & ~f
                while rest:
                    e = (rest & -rest).bit_length() - 1
                    g, through = ground, []
                    for h in over:
                        if h >> e & 1:
                            g &= h
                            through.append(h)
                    rest &= ~g
                    above.setdefault(g, through)
            level = above
        return tuple(out)

    @cached_property
    def _proper_flats(self) -> tuple[tuple[int, int], ...]:
        ground = (1 << self.n) - 1
        return tuple((k, f) for k, f in self._flats if f and f != ground)

    def flats(self) -> tuple[frozenset, ...]:
        """All flats, ordered by (rank, sorted set); computed once per matroid."""
        return tuple(frozenset(_elements(f)) for _, f in self._flats)

    def proper_flats(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(_elements(f)) for _, f in self._proper_flats)


def matroid_from_bases(n: int, bases) -> Matroid:
    """Reject loops (`loopless_matroid`), then validate the exchange axiom
    exhaustively."""
    m = loopless_matroid(n, bases)
    _check_exchange(m)
    return m


def loopless_matroid(n: int, bases) -> Matroid:
    """The Matroid on the bases after every check of `matroid_from_bases` but
    the exchange axiom's.

    Loops are counted from the union of the bases before any n-bit mask is
    built, so a huge n with few bases is refused in time linear in the input.
    """
    if n < 0:
        raise PreconditionError("a matroid needs a ground set of size n >= 0")
    base_set = frozenset(frozenset(b) for b in bases)
    if not base_set:
        raise PreconditionError("a matroid needs at least one basis")
    sizes = {len(b) for b in base_set}
    if len(sizes) != 1:
        raise PreconditionError("bases must all have the same cardinality")
    used = frozenset().union(*base_set)
    if any(not 0 <= e < n for e in used):
        raise PreconditionError("basis element out of range")
    if len(used) < n:
        count = n - len(used)
        first = list(itertools.islice((e for e in range(n) if e not in used), _LOOPS_SHOWN))
        raise PreconditionError(f"matroid has {count} loops, the first {len(first)}: {first}")
    return Matroid(n=n, bases=base_set)


def _check_exchange(m: Matroid) -> None:
    """For a basis B1 and e in B1, every basis B2 without e must meet the
    swap set of (B1, e).  The swap set holds e, so the scan of B2 depends on
    the swap set alone and runs once per distinct one, for its first (B1, e):
    the first failure is the one a scan per (B1, e) would meet first."""
    for swaps, (b1, e) in m._cocircuits.items():
        for b2 in m._basis_masks:
            if not b2 & swaps:
                raise PreconditionError(
                    f"exchange axiom fails for {list(_elements(b1))}, {list(_elements(b2))} at {e}"
                )


def uniform_matroid(r: int, n: int) -> Matroid:
    return matroid_from_bases(n, itertools.combinations(range(n), r))


def graphic_matroid(edges) -> Matroid:
    """Matroid of a connected graph: bases are the spanning trees.

    Edges are pairs of vertex labels; the ground set is the edge index set.
    """
    edges = [tuple(e) for e in edges]
    vertices = sorted({v for e in edges for v in e})
    nv = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    ends = [tuple(index[x] for x in e) for e in edges]
    parts = len(components(range(nv), ends))
    if parts != 1:
        raise PreconditionError(f"graphic matroids need a connected graph; this one has {parts} components")
    # nv - 1 edges joining all nv vertices form a spanning tree
    trees = [
        subset
        for subset in itertools.combinations(range(len(edges)), nv - 1)
        if len(components(range(nv), [ends[ei] for ei in subset])) == 1
    ]
    return matroid_from_bases(len(edges), trees)


def complete_graph_matroid(k: int) -> Matroid:
    return graphic_matroid(itertools.combinations(range(k), 2))


def fano_matroid() -> Matroid:
    lines = [
        {0, 1, 2},
        {0, 3, 4},
        {0, 5, 6},
        {1, 3, 5},
        {1, 4, 6},
        {2, 3, 6},
        {2, 4, 5},
    ]
    bases = [
        b for b in itertools.combinations(range(7), 3) if set(b) not in lines
    ]
    return matroid_from_bases(7, bases)


def _flat_mark(n: int, flat: int) -> tuple[int, ...]:
    """Image of the indicator vector after deleting coordinate 0 of the
    quotient, as ints."""
    first = flat & 1
    return tuple((flat >> i & 1) - first for i in range(1, n))


def bergman_fan(m: Matroid) -> TropicalFan:
    """The fan of chains of proper nonempty flats, with unit weight.

    Rank-one matroids have no proper nonempty flats and give the origin fan.
    """
    if m.loops():
        raise PreconditionError("Bergman fans require loopless matroids")
    r = m.rank
    if r < 1:
        raise PreconditionError("Bergman fans require rank at least one")
    if r == 1:
        return TropicalFan(point_fan(m.n - 1), MinkowskiWeight(0, {(): Fraction(1)}))
    flats = m._proper_flats
    by_rank = {}
    for i, (k, _) in enumerate(flats):
        by_rank.setdefault(k, []).append(i)
    # the flats of the next rank containing each flat; indices grow with rank
    covers = [[j for j in by_rank.get(k + 1, ()) if flats[j][1] & f == f] for k, f in flats]

    chains = []

    def extend(chain):
        if len(chain) == r - 1:
            chains.append(tuple(chain))
            return
        for j in covers[chain[-1]]:
            extend(chain + [j])

    for i in by_rank.get(1, ()):
        extend([i])
    fan = MarkedFan(m.n - 1, tuple((_flat_mark(m.n, f), 1) for _, f in flats), tuple(sorted(chains)))
    return TropicalFan(fan, constant_weight(fan))
