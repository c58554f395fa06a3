"""Simplicial marked fans.

A fan is stored as its marked rays plus maximal cones given as sorted tuples
of ray indices; simpliciality means every face of a maximal cone is the cone
on a subset of its rays, so no other cones need to be stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import DimensionError, InternalError, PreconditionError
from .linalg import Mat, Vec, eliminate, fractions, over_lcd, vec
from .lp import LinearRow, strict_feasible

Cone = tuple[int, ...]


def cone_key(indices: Iterable[int]) -> Cone:
    return tuple(sorted(set(indices)))


IntRows = tuple[tuple[int, ...], ...]
# a point as its int numerators over one positive denominator
Point = tuple[tuple[int, ...], int]
# `_regular`'s record: each maximal cone's annihilator point, in
# maximal_cones order
RegularRecord = tuple[Point, ...]


class Quotient(NamedTuple):
    """Coordinates for the quotient by the span of one cone.

    Row reduction of the cone's marks picks the pivot columns; the quotient
    coordinates are the other columns, which makes star fans reproducible
    bit for bit.  `particular_rows[r]` is the functional that is one on the
    r-th mark, zero on the other marks and zero off the pivot columns.  The
    annihilator rows, one per non-pivot column, span the functionals that
    vanish on the cone; as a matrix they project onto the quotient.

    Both sets of rows are kept as Python ints over one positive denominator
    `den`, the least common denominator of all their entries: no prime
    divides `den` and every numerator of the record, though a single row
    need not be in lowest terms.  `annihilators` makes the Fraction matrix on
    each access.  The methods take a point nums / d as the int numerators of
    its entries over any positive d, and give numerators over den * d.  A
    ray's record is a `RayQuotient`, with the same fields and methods.
    """

    pivots: tuple[int, ...]
    den: int
    particular_rows: IntRows
    annihilator_rows: IntRows

    @property
    def annihilators(self) -> Mat:
        return tuple(fractions(row, self.den) for row in self.annihilator_rows)

    @property
    def codim(self) -> int:
        """The dimension of the quotient: the number of annihilators."""
        return len(self.annihilator_rows)

    def project(self, nums) -> list[int]:
        """The point's image under the annihilators: its quotient coordinates."""
        return [sum(map(mul, row, nums)) for row in self.annihilator_rows]

    def in_span(self, nums) -> bool:
        """Whether the point lies in the cone's span: every annihilator
        vanishes on it."""
        return not any(sum(map(mul, row, nums)) for row in self.annihilator_rows)

    def coordinates(self, nums) -> list[int]:
        """The particular functionals at the point: its coordinates in the
        cone's mark basis when it lies in the span."""
        return [sum(map(mul, row, nums)) for row in self.particular_rows]

    def functional(self, nums, d: int) -> tuple[list[int], int]:
        """sum(c[r] * particular[r]) + sum(w[j] * annihilator[j]) for the
        coefficients c on the cone's marks and w on the annihilators (w = 0
        when nums stops after c), given as int numerators nums = [*c, *w]
        over a positive d: its numerators over den * d.

        Every functional taking the values c on the cone's marks has this
        form for exactly one w.
        """
        phi = [0] * (len(self.pivots) + len(self.annihilator_rows))
        if len(nums) > len(phi):
            raise InternalError("more coefficients than particular and annihilator rows")
        for coeff, row in zip(nums, itertools.chain(self.particular_rows, self.annihilator_rows)):
            if coeff:
                for j, x in enumerate(row):
                    if x:
                        phi[j] += coeff * x
        return phi, d * self.den


class RayQuotient(NamedTuple):
    """A ray's quotient record in closed form, from its mark nums / d with
    first nonzero numerator a and g = gcd(d, *nums) signed like a: the pivot
    is a's column, den = a / g, the particular functional is `scale` = d / g
    at the pivot, and annihilator j at x is den * x_j - mark[j] * x_pivot for
    `mark` = nums / g.  The methods are `Quotient`'s in O(n), with the same
    ints; the dense rows, those of the elimination, are made on each access.
    """

    pivot: int
    den: int
    scale: int
    mark: tuple[int, ...]

    @property
    def pivots(self) -> tuple[int, ...]:
        return (self.pivot,)

    @property
    def particular_rows(self) -> IntRows:
        return (tuple(self.scale if j == self.pivot else 0 for j in range(len(self.mark))),)

    @property
    def annihilator_rows(self) -> IntRows:
        c, den, n = self.pivot, self.den, len(self.mark)
        return tuple(
            tuple(den if i == j else -x if i == c else 0 for i in range(n)) for j, x in enumerate(self.mark) if j != c
        )

    annihilators = Quotient.annihilators

    @property
    def codim(self) -> int:
        return len(self.mark) - 1

    def project(self, nums) -> list[int]:
        xc, den = nums[self.pivot], self.den
        image = [den * x - m * xc for x, m in zip(nums, self.mark)]
        del image[self.pivot]
        return image

    def in_span(self, nums) -> bool:
        return parallel(nums, self.mark, self.pivot)

    def coordinates(self, nums) -> list[int]:
        return [self.scale * nums[self.pivot]]

    def functional(self, nums, d: int) -> tuple[list[int], int]:
        c, n = self.pivot, len(self.mark)
        if len(nums) > n:
            raise InternalError("more coefficients than particular and annihilator rows")
        w = nums[1:]
        phi = [self.den * x for x in w] + [0] * (n - 1 - len(w))
        lead = nums[0] * self.scale if nums else 0
        phi.insert(c, lead - sum(map(mul, w, self.mark[:c] + self.mark[c + 1:])))
        return phi, d * self.den


def parallel(x, u, c: int) -> bool:
    """Whether the int vector x is a multiple of u, whose first nonzero
    entry is at c: x_j * u_c == u_j * x_c at every j."""
    a, t = u[c], x[c]
    return all(a * v == m * t for v, m in zip(x, u))


def _ray_quotient(nums, d: int) -> RayQuotient:
    c = next(j for j, x in enumerate(nums) if x)
    g = gcd(d, *nums)
    if nums[c] < 0:
        g = -g
    return RayQuotient(c, nums[c] // g, d // g, tuple(x // g for x in nums))


def _quotient(fan: MarkedFan, cone: Cone) -> Optional[Quotient | RayQuotient]:
    """A ray's closed-form record (`RayQuotient`); for any other cone, one
    elimination of [marks | identity], or None when the marks are dependent:
    the left block becomes the reduced echelon form of the marks, and the
    right block inverts the marks on the pivot columns, which gives the
    particular functionals."""
    if len(cone) == 1:
        return _ray_quotient(*fan.int_marks[cone[0]])
    n, k = fan.ambient_dim, len(cone)
    rows, dens = [], []
    for r, i in enumerate(cone):
        nums, d = fan.int_marks[i]
        row = [*nums, *(0,) * k]
        row[n + r] = d
        rows.append(row)
        dens.append(d)
    pivots = eliminate(rows, dens)
    if len(pivots) != k or (pivots and pivots[-1] >= n):
        return None
    den = lcm(*dens)
    scales = [den // d for d in dens]
    particulars = [[0] * n for _ in range(k)]
    for row, s, p in zip(rows, scales, pivots):
        for r in range(k):
            particulars[r][p] = row[n + r] * s
    annihilators = []
    for j in range(n):
        if j in pivots:
            continue
        a = [0] * n
        a[j] = den
        for row, s, p in zip(rows, scales, pivots):
            a[p] -= row[j] * s
        annihilators.append(tuple(a))
    return Quotient(pivots, den, tuple(map(tuple, particulars)), tuple(annihilators))


class Neighborhood(NamedTuple):
    """Rays around one cone, read in the cone's quotient record.

    `image_rows[e]` holds the numerators of the mark of `rays[e]` under the
    annihilators (`Quotient.project`): the coefficients of its max-slack row
    over w, and its mark on the star.  `coord_rows[e]` holds the particular
    functionals at that mark, so the functional matching z on the cone takes
    sum(z[cone[r]] * coords[e][r]) there, k products for a k-cone.  Both are
    over the positive denominator `dens[e]`, and the three are in lowest
    terms together; `star` reduces each image with its denominator to the
    star ray's int mark.  `rows(z)` makes int max-slack rows.  The record of
    `MarkedFan.neighborhood` runs over the neighborhood rays; `_regular`
    builds others, over the rays each iterate of a maximal cone's
    cutting-plane loop adds, and `validate` over the rays two cones do not
    share.
    """

    cone: Cone
    rays: tuple[int, ...]
    image_rows: IntRows
    coord_rows: IntRows
    dens: tuple[int, ...]

    def rows(self, z) -> list[LinearRow]:
        """One int max-slack row phi(u_eta) + t <= z_eta per ray, over the
        coefficients w of phi = (the functional matching z on the cone) +
        w.annihilators: its image and excess over the ray's denominator
        times those of z_eta and of z on the cone."""
        on_cone, zd = over_lcd([z[i] for i in self.cone])
        out = []
        for eta, image, coords, d in zip(self.rays, self.image_rows, self.coord_rows, self.dens):
            # z_eta - sum(on_cone * coords) / (zd * d), over vd * zd * d
            v = z[eta]
            s = v.denominator * zd
            if s != 1:
                image = tuple(x * s for x in image)
            b = v.numerator * zd * d - sum(map(mul, on_cone, coords)) * v.denominator
            out.append((image, b, s * d))
        return out

    def excess(self, z) -> tuple[Fraction, ...]:
        """z at each ray minus the functional matching z on the cone; on a
        star these are the values of the pushed divisor."""
        return tuple(Fraction(b, d) for _, b, d in self.rows(z))


def _neighborhood(fan: MarkedFan, cone: Cone, rays: tuple[int, ...]) -> Neighborhood:
    q = fan.quotient(cone)
    images, coords, dens = [], [], []
    for r in rays:
        nums, d = fan.int_marks[r]
        image, co = q.project(nums), q.coordinates(nums)
        d *= q.den
        g = gcd(d, *image, *co)
        if g != 1:
            image = [v // g for v in image]
            co = [v // g for v in co]
            d //= g
        images.append(tuple(image))
        coords.append(tuple(co))
        dens.append(d)
    return Neighborhood(cone, rays, tuple(images), tuple(coords), tuple(dens))


# a ray mark as its int numerators over their least common positive
# denominator
Mark = tuple[tuple[int, ...], int]


def int_mark(values) -> Mark:
    """A mark given by rationals (Fractions or ints) as a `Mark`."""
    nums, d = over_lcd(values)
    return tuple(nums), d


@dataclass(frozen=True)
class MarkedFan:
    """A simplicial fan: ray marks and maximal cones as sorted ray-index tuples.

    The marks are ints (`int_marks`, one `Mark` per ray: numerators over
    their least common positive denominator, in lowest terms), and every
    kernel reads them.  `int_mark` turns rationals into a `Mark`; `rays`,
    the Fraction marks, is made on first read.

    The cone index (`cones`, `incident`, `cofaces`), the per-cone quotient
    records (`quotient`), the per-cone neighborhood records (`neighborhood`:
    the neighborhood rays' images under the cone's annihilators and
    particular functionals) and `_regular`'s record per divisor (kept by
    `regular`: each maximal cone's annihilator point, or None) are computed
    on first use and kept on the instance, so they are shared by every
    computation on the fan and freed with it.  A stellar fan starts with the
    records of the cones it keeps.
    """

    ambient_dim: int
    int_marks: tuple[Mark, ...]
    maximal_cones: tuple[Cone, ...]

    def __post_init__(self):
        if self.ambient_dim < 0:
            raise DimensionError("ambient dimension must be nonnegative")
        for nums, d in self.int_marks:
            if len(nums) != self.ambient_dim:
                raise DimensionError("ray mark has wrong ambient dimension")
            if not any(nums):
                raise PreconditionError("ray marks must be nonzero")
            if d < 1:
                raise PreconditionError("ray mark denominators must be positive")
            if gcd(d, *nums) != 1:
                raise PreconditionError("ray marks must be in lowest terms")
        seen = set()
        for c in self.maximal_cones:
            if type(c) is not tuple or any(a >= b for a, b in zip(c, c[1:])):
                raise PreconditionError("maximal cones must be sorted tuples without repeats")
            if c in seen:
                raise PreconditionError("duplicate maximal cone")
            seen.add(c)
            if c and (c[0] < 0 or c[-1] >= len(self.int_marks)):
                raise PreconditionError("cone refers to a missing ray")
        if not self.maximal_cones:
            raise PreconditionError("a fan needs at least one maximal cone (possibly the origin)")

    @cached_property
    def rays(self) -> tuple[Vec, ...]:
        """The marks as Fractions, made on first read."""
        return tuple(fractions(nums, d) for nums, d in self.int_marks)

    @cached_property
    def dimension(self) -> int:
        return max(len(c) for c in self.maximal_cones)

    @cached_property
    def incident(self) -> dict[Cone, tuple[Cone, ...]]:
        """Every cone, mapped to the maximal cones containing it (in
        maximal_cones order)."""
        out = {}
        for c in self.maximal_cones:
            for k in range(len(c) + 1):
                for face in itertools.combinations(c, k):
                    out.setdefault(face, []).append(c)
        return {face: tuple(cs) for face, cs in out.items()}

    @cached_property
    def _cones_by_dim(self) -> tuple[tuple[Cone, ...], ...]:
        by_dim = [[] for _ in range(self.dimension + 1)]
        for face in self.incident:
            by_dim[len(face)].append(face)
        return tuple(tuple(sorted(faces)) for faces in by_dim)

    @cached_property
    def cofaces(self) -> dict[Cone, tuple[tuple[Cone, int], ...]]:
        """Every cone, mapped to the sorted cones one dimension up that contain
        it, each paired with its ray opposite the cone."""
        out = {face: [] for face in self.incident}
        for cones in self._cones_by_dim[1:]:
            for sigma in cones:
                for pos, ray in enumerate(sigma):
                    out[sigma[:pos] + sigma[pos + 1:]].append((sigma, ray))
        return {face: tuple(up) for face, up in out.items()}

    @cached_property
    def _quotients(self) -> dict[Cone, Quotient | RayQuotient]:
        return {}

    def quotient(self, cone: Cone) -> Quotient | RayQuotient:
        """The quotient record of a cone's span, computed on first use."""
        q = self._quotients.get(cone)
        if q is None:
            q = _quotient(self, cone)
            if q is None:
                raise PreconditionError(f"cone {cone} has dependent marks")
            self._quotients[cone] = q
        return q

    @cached_property
    def _neighborhoods(self) -> dict[Cone, Neighborhood]:
        return {}

    def neighborhood(self, cone: Cone) -> Neighborhood:
        """The neighborhood record of a cone, computed on first use."""
        hood = self._neighborhoods.get(cone)
        if hood is None:
            hood = self._neighborhoods[cone] = _neighborhood(self, cone, neighborhood_rays(self, cone))
        return hood

    @cached_property
    def _regulars(self) -> dict[tuple, Optional[RegularRecord]]:
        return {}

    def regular(self, z) -> bool:
        """Whether `_regular` finds its record for the divisor z, decided on
        first use; the record, or None, is kept per divisor, and the
        records kept before are `_regular`'s `kept`."""
        z = tuple(z)
        if len(z) != len(self.int_marks):
            raise PreconditionError("divisor has one value per ray")
        if z not in self._regulars:
            self._regulars[z] = _regular(self, z, self._regulars)
        return self._regulars[z] is not None

    def cones(self, k: int) -> tuple[Cone, ...]:
        """All k-dimensional cones, i.e. k-subsets of maximal cones, sorted."""
        if k < 0 or k > self.dimension:
            raise PreconditionError(f"cone dimension {k} out of range 0..{self.dimension}")
        return self._cones_by_dim[k]

    def all_cones(self) -> tuple[Cone, ...]:
        return tuple(itertools.chain.from_iterable(self._cones_by_dim))


def neighborhood_rays(fan: MarkedFan, tau: Cone) -> tuple[int, ...]:
    """Rays of all maximal cones containing tau, minus tau's own rays."""
    return tuple(sorted(set(itertools.chain.from_iterable(fan.incident[tau])) - set(tau)))


def candidate_divisor(fan: MarkedFan) -> tuple[Fraction, ...]:
    """z(u) = k(n + 1 - k), with k the number of nonzero entries of the mark
    u.  On a Bergman fan this is c_F = |F|(|E| - |F|), which lies in the
    ample cone (Adiprasito-Huh-Katz, arXiv:1511.02888); elsewhere it is a
    guess that every caller checks exactly."""
    counts = (sum(1 for x in nums if x) for nums, _ in fan.int_marks)
    return tuple(Fraction(k * (fan.ambient_dim + 1 - k)) for k in counts)


# ---------------------------------------------------------------------------
# validation


# how validate decided the fan condition (None when not simplicial)
ROUTE_REGULAR = "regular"
ROUTE_WALLS = "walls"
ROUTE_PAIRS = "pairs"


class ValidationReport(NamedTuple):
    simplicial: bool
    pure: bool
    fan_condition: bool
    all_rays_used: bool
    failures: tuple[str, ...]
    fan_condition_route: Optional[str]

    @property
    def valid(self) -> bool:
        return self.simplicial and self.pure and self.fan_condition and self.all_rays_used


def _meet_in_shared_face(fan: MarkedFan, c1: Cone, c2: Cone) -> bool:
    """True when cone(c1) and cone(c2) meet exactly in the cone on their shared rays.

    Two simplicial cones meet in that common face iff some functional h
    vanishes on the shared marks, is positive on the other marks of c1 and
    negative on the other marks of c2 (the separation lemma, cf. De Loera,
    Rambau and Santos, Triangulations, 2010, section 2.1).  The functionals
    vanishing on the shared face are the combinations of its quotient
    record's annihilators, so the program runs over their coefficients.
    strict_feasible checks the functional it finds, or its certificate that
    none exists, before it returns.
    """
    shared = tuple(s for s in c1 if s in c2)
    hood = _neighborhood(fan, shared, tuple(i for i in c1 + c2 if i not in shared))
    rows = [
        (tuple(-v for v in image) if i in c1 else image, 0, d)
        for i, image, d in zip(hood.rays, hood.image_rows, hood.dens)
    ]
    return strict_feasible(rows, fan.quotient(shared).codim).feasible


class _RayBounds:
    """The bounds phi(u_r) < z_r of a divisor z = zn / zd at every ray r,
    for a functional phi given as int numerators over a positive den.

    With C_j[r] the j-th mark numerator of ray r times zd and Z[r] zn_r
    times the mark's denominator, the bound reads
    s_r = sum_j phi_j * C_j[r] - den * Z[r] < 0.  `violated` tests every ray
    at once: each column C_j, and Z, is packed into one big int with a W-bit
    slot per ray, so that T = OFF - den * Z + sum_j phi_j * C_j, with
    2**(W-1) in each slot of OFF, holds s_r + 2**(W-1) in slot r while every
    |s_r| < 2**(W-1), since then no slot borrows from or carries into the
    next.  The top bit of slot r is set exactly when s_r >= 0, so the set
    top bits name the failing rays.  max|phi| * B_m + den * B_z bounds every
    |s_r|, for B_m = max_r sum_j |C_j[r]| and B_z = max_r |Z[r]|; the slots
    leave 64 bits of room above B_m + B_z, and a functional past the bound
    is tested by `scan`, ray by ray.
    """

    def __init__(self, fan: MarkedFan, zn, zd: int):
        # each ray's mark numerators and Z[r]
        self.zd = zd
        self.bounds = [(nums, v * d) for (nums, d), v in zip(fan.int_marks, zn)]
        columns = [[x * zd for x in nums] for nums, _ in self.bounds]
        self.bm = max((sum(map(abs, col)) for col in columns), default=0)
        self.bz = max((abs(v) for _, v in self.bounds), default=0)
        self.width = w = (self.bm + self.bz).bit_length() + 65
        self.half = 1 << (w - 1)
        self.tops = sum(self.half << (w * r) for r in range(len(columns)))
        self.columns = [sum(x << (w * r) for r, x in enumerate(col)) for col in zip(*columns)]
        self.z = sum(v << (w * r) for r, (_, v) in enumerate(self.bounds))

    def violated(self, phi, den: int, sigma: Cone) -> tuple[int, ...]:
        """The rays off sigma where phi(u_r) < z_r fails, in ray order, read
        off the top bits of one packed sum."""
        if max(map(abs, phi), default=0) * self.bm + den * self.bz >= self.half:
            return self.scan(phi, den, sigma)
        t = self.tops - den * self.z
        for p, column in zip(phi, self.columns):
            if p:
                t += p * column
        w = self.width
        t &= self.tops - sum(self.half << (w * r) for r in sigma)
        rays = []
        while t:
            low = t & -t
            rays.append((low.bit_length() - 1) // w)
            t ^= low
        return tuple(rays)

    def scan(self, phi, den: int, sigma: Cone) -> tuple[int, ...]:
        """`violated` by int dot products with the marks, ray by ray."""
        return tuple(
            r for r, (nums, v) in enumerate(self.bounds)
            if r not in sigma and sum(map(mul, phi, nums)) * self.zd >= v * den
        )


def _lowest(nums, d: int) -> Point:
    """The point nums / d in lowest terms."""
    g = gcd(d, *nums)
    return tuple(x // g for x in nums), d // g


def _shift(zn, zd: int, kept) -> Optional[tuple[int, int, RegularRecord]]:
    """lam = <z1, z> / <z1, z1> as int numerator and positive denominator,
    and the record, of the first kept divisor z1 with a record and
    z1 != 0, for z = zn / zd; None when there is none."""
    for z1, record in kept.items():
        if record is None:
            continue
        n1, d1 = over_lcd(z1)
        norm = sum(v * v for v in n1)
        if norm:
            return sum(map(mul, n1, zn)) * d1, zd * norm, record
    return None


def _relax(point: Point, rows) -> Point:
    """One sweep of the relaxation method for linear inequalities (Agmon;
    Motzkin and Schoenberg, Canad. J. Math. 6, 1954) over the program's
    rows a.w + t <= b, from the point w = nums / d: each row with
    a.w >= b moves w along a until a.w = b - 1, the row's slack at t = 1.
    A row with a = 0 is skipped, since only a program's Farkas certificate
    decides it.  The last point; a moved one is in lowest terms."""
    nums, d = point
    for a, b, rd in rows:
        # the int row reads a.w + rd * t <= b, so w fails it at t = 0
        # exactly when a.nums >= b * d
        aw = sum(map(mul, a, nums))
        if aw < b * d:
            continue
        norm = sum(x * x for x in a)
        if not norm:
            continue
        # w + lam * a, lam = ((b - rd) * d - a.nums) / (d * norm), meets
        # a.w = b - rd
        step = (b - rd) * d - aw
        nums, d = _lowest([x * norm + step * y for x, y in zip(nums, a)], d * norm)
    return nums, d


def _iterates(free, rows, codim: int) -> Iterator[tuple[Point, bool]]:
    """The iterates of `_regular`'s loop at one cone, each with whether a
    program gave it: the free points, then `_relax` from the last of them
    over the rows gathered so far when it moves, then the points of the
    programs over `rows`, which the caller extends between iterates, until
    one is infeasible."""
    point = None
    for point in free:
        yield point, False
    relaxed = _relax(point, rows)
    if relaxed != point:
        yield relaxed, False
    while True:
        result = strict_feasible(rows, codim)
        if not result.feasible:
            return
        nums, d = over_lcd(result.point)
        yield (tuple(nums), d), True


def _regular(fan: MarkedFan, z, kept) -> Optional[RegularRecord]:
    """Each maximal cone sigma's annihilator point w_sigma (the w of
    `Quotient.functional`) of a functional phi_sigma equal to z on sigma's
    rays and below z on all other rays, or None when some cone has none;
    None decides nothing.  `kept` maps divisors to such records (or None).

    When the record exists, z is strictly convex at every cone, the lemma
    that `convexity.require_convex` and `strictly_convex_witness` rely on:
    for a face tau of sigma, phi_sigma - eps*psi, where psi vanishes on tau
    and is 1 on the other rays of sigma (sigma is simplicial), equals z on
    tau and is below z on every other ray for small eps > 0, so it is a
    strict witness at tau.  And two maximal cones meet in their shared face,
    which `validate`'s regular route relies on: for x = sum a_i u_i =
    sum b_j u_j in both, the two functionals give sum a z <= sum b z <=
    sum a z, with equality only when a and b vanish off the shared rays (De
    Loera, Rambau and Santos, Triangulations, 2010, chapters 2 and 5).

    z is made int once, as zn / zd, and every point, kept ones included, is
    its int numerators over one positive denominator, in lowest terms.
    Each cone runs one cutting-plane loop (Kelley, J. SIAM 8, 1960) over
    its program's rows, each iterate's functional tested against every ray
    by `_RayBounds`.  The first iterates cost no program.  The first is
    lam * w1_sigma, from the first kept record whose divisor z1 is not zero
    (a zero divisor would give no lam), for lam = <z1, z> / <z1, z1>: its
    functional is lam * phi1_sigma plus the particular functional of
    z - lam * z1, which equals z on sigma and is below z elsewhere when z is
    near lam * z1.  The second is w = 0, the particular functional of z,
    where the program's simplex starts.  The third is one `_relax` sweep
    from w = 0 over the rows the free points gathered, tried when it moves
    w.  The later iterates are the program's points.  The rays where an
    iterate's functional is not below z join the rows, so the first
    program starts from the rays that the free points got wrong; a free
    point may fail only rays that are rows already.  A program's point
    meets its rows strictly, so it passes or fails some ray off them;
    otherwise the loop would not move, and InternalError is raised.  A
    functional that passes every ray answers the full program; a Farkas
    certificate on some rows is one on all of them, with zero multipliers
    on the rest.
    """
    zn, zd = over_lcd(z)
    bounds = _RayBounds(fan, zn, zd)
    shift = _shift(zn, zd, kept)
    points = []
    for k, sigma in enumerate(fan.maximal_cones):
        q = fan.quotient(sigma)
        on_cone = [zn[i] for i in sigma]
        free = [((0,) * q.codim, 1)]
        if shift is not None:
            lam_num, lam_den, record = shift
            wn, wd = record[k]
            free.insert(0, _lowest([lam_num * x for x in wn], lam_den * wd))
        in_rows, rows = set(sigma), []
        for point, programmed in _iterates(free, rows, q.codim):
            nums, d = point
            m = lcm(zd, d)
            phi, den = q.functional([c * (m // zd) for c in on_cone] + [x * (m // d) for x in nums], m)
            failed = bounds.violated(phi, den, sigma)
            if not failed:
                break
            rays = tuple(r for r in failed if r not in in_rows)
            if programmed and not rays:
                raise InternalError("a program's point fails only rays among its rows")
            in_rows.update(rays)
            rows += _neighborhood(fan, sigma, rays).rows(z)
        else:
            return None
        points.append(point)
    return tuple(points)


def is_complete(fan: MarkedFan) -> bool:
    """Whether a simplicial fan covers its ambient space, read off its walls
    (its cones of dimension d - 1): the fan is d-dimensional in R^d, every
    wall lies in exactly two maximal cones, and the maximal cones form one
    class when the two at each wall are joined.

    This is exact on fans that pass `validate`.  There the two cones at a
    wall have disjoint interiors, so they lie on opposite sides of its
    hyperplane, and the number of maximal cones containing a point off the
    walls' hyperplanes is the same everywhere (the argument in `validate`'s
    docstring).  Disjoint interiors make it at most 1, and points inside a
    cone make it at least 1, so the cones cover R^d.  On other input the
    wall counts prove nothing: the double cover of the triangle fan passes
    them and covers the plane twice.  They are the first test of
    `validate`'s walls route.
    """
    d = fan.dimension
    if d == 0:
        return fan.ambient_dim == 0
    if d != fan.ambient_dim:
        return False
    walls = [fan.incident[w] for w in fan.cones(d - 1)]
    if any(len(cones) != 2 for cones in walls):
        return False
    return len(components(fan.maximal_cones, walls)) == 1


def _wall_normals(fan: MarkedFan) -> Optional[list[tuple[int, ...]]]:
    """One int normal per wall tau = sigma1 - eta1 = sigma2 - eta2, in
    `cones` order, or None unless every wall separates its two cones: the
    particular functional of eta1 in sigma1's quotient record, which
    vanishes on tau and is one at u_eta1, must be negative at u_eta2.  The
    caller has checked `is_complete` on a pure fan of n-ray cones in R^n."""
    normals = []
    for tau in fan.cones(fan.ambient_dim - 1):
        sigma1, sigma2 = fan.incident[tau]
        normal = fan.quotient(sigma1).particular_rows[next(r for r, i in enumerate(sigma1) if i not in tau)]
        eta2 = next(i for i in sigma2 if i not in tau)
        if sum(map(mul, normal, fan.int_marks[eta2][0])) >= 0:
            return None
        normals.append(normal)
    return normals


def _generic_point(normals) -> list[int]:
    """p = (1, t, ..., t^(n-1)) for t = 2 + the largest |entry| of the int
    normals: p lies on none of their hyperplanes, since normal . p is an int
    polynomial in t, not zero, and by Cauchy's bound each of its roots has
    |root| <= 1 + that largest entry (its leading coefficient is at least
    1 in absolute value)."""
    t = 2 + max(abs(x) for normal in normals for x in normal)
    return [t**j for j in range(len(normals[0]))]


def _covered_once(fan: MarkedFan) -> bool:
    """The walls route: whether a pure fan of n-ray cones in R^n, n >= 1,
    that passes `is_complete` has a normal per wall (`_wall_normals`) and
    `_generic_point` of those normals in the interior of exactly one maximal
    cone; False decides nothing.  The point's coordinates in each cone come
    from the cone's quotient record, and none is zero, since each facet of a
    maximal cone is a wall whose hyperplane misses the point."""
    n = fan.ambient_dim
    if n < 1 or any(len(c) != n for c in fan.maximal_cones) or not is_complete(fan):
        return False
    normals = _wall_normals(fan)
    if normals is None:
        return False
    p = _generic_point(normals)
    covering = 0
    for sigma in fan.maximal_cones:
        coords = fan.quotient(sigma).coordinates(p)
        if not all(coords):
            raise InternalError("the generic point lies on a wall's hyperplane")
        covering += min(coords) > 0
    return covering == 1


def _fan_route(fan: MarkedFan) -> str:
    """The route that decides the fan condition on a simplicial fan: the
    first of the regular and the walls route that proves it, else pairs."""
    if fan.regular(candidate_divisor(fan)):
        return ROUTE_REGULAR
    if _covered_once(fan):
        return ROUTE_WALLS
    return ROUTE_PAIRS


def _shape_failures(fan: MarkedFan) -> Iterator[tuple[str, str]]:
    """`validate`'s failures before the fan condition's, in report order,
    each after the report field it makes false, found one at a time: a gate
    stops at the first."""
    # the elimination that decides simpliciality keeps the cone's quotient record
    for c in fan.maximal_cones:
        try:
            fan.quotient(c)
        except PreconditionError:
            yield "simplicial", f"cone {c} has linearly dependent marks"

    d = fan.dimension
    if not all(len(c) == d for c in fan.maximal_cones):
        yield "pure", "maximal cones do not all have the same dimension"

    used = set(itertools.chain.from_iterable(fan.maximal_cones))
    if used != set(range(len(fan.int_marks))):
        yield "all_rays_used", "some rays belong to no maximal cone"


def _overlaps(fan: MarkedFan) -> Iterator[str]:
    """The pairs route's failures, one pair LP at a time."""
    for c1, c2 in itertools.combinations(fan.maximal_cones, 2):
        if not _meet_in_shared_face(fan, c1, c2):
            yield f"cones {c1} and {c2} overlap beyond their shared face"


def validate(fan: MarkedFan) -> ValidationReport:
    """Structural report: simpliciality, purity, ray usage, and the fan
    condition, which a simplicial fan decides by the first of three routes
    that proves it, named in the report.

    - "regular": the candidate divisor is a height function (per maximal
      cone, free points and then LPs on the rays their functionals violate,
      until one passes every ray; the lemma in `_regular`'s docstring).
    - "walls", on a pure fan of n-ray cones in R^n, n >= 1, by exact sign
      tests and no LP: (a) every wall lies in exactly two maximal cones
      (`is_complete`); (b) at each wall tau = sigma1 - eta1 = sigma2 - eta2,
      the functional vanishing on tau and one at u_eta1 is negative at
      u_eta2, so the two cones lie on opposite sides of tau's hyperplane;
      (c) the point p = (1, t, ..., t^(n-1)), with t two more than the
      largest |entry| of those functionals' int rows, lies in exactly one
      maximal cone.  By Cauchy's root bound p lies on no wall's hyperplane.
      This is the pseudomanifold characterization of triangulations with
      one point covered once (De Loera, Rambau and Santos, Triangulations,
      2010) in its fan form: a finite set of full-dimensional simplicial
      cones in R^n with (a), (b) and (c) is a complete fan.  Let c(x) count
      the cones containing x, at points x off every wall's hyperplane.  It
      is locally constant there, and it does not change across a
      hyperplane H at a point x on no other: a cone with x on its boundary
      has x in the relative interior of one facet on H (two facets of a
      simplicial cone span different hyperplanes), that facet is a wall,
      and its two cones lie on opposite sides of H, so crossing H leaves
      one cone and enters one.  Such crossings join any two points off the
      hyperplanes, since two hyperplanes meet in codimension two (for
      n = 1, (a) and (b) give two rays of opposite signs).  So c = c(p) = 1:
      the cones cover R^n and their interiors are disjoint.  In the star
      of a cone G, whose walls are the images of the walls through G, (a)
      and (b) hold too, so its count is a constant, at least 1; near a
      point of G's relative interior the cones through G cover with that
      count, so it is 1, and they cover a neighborhood of the point.  For
      x in two cones A and D, let G_A and G_D be
      the faces of A and D that hold x in their relative interiors: each
      cone through G_D meets the cones through G_A in an open set near x,
      so it is one of them, and the other way round; hence D contains G_A,
      G_A = G_D, and A and D meet in the cone on their shared rays.
    - "pairs": one separating-functional LP per pair of maximal cones
      (`_meet_in_shared_face`), which decides every simplicial fan and
      names each pair that overlaps.

    A failed route decides nothing, so every refusal comes from the pairs
    route."""
    failures = list(_shape_failures(fan))
    simplicial = all(field != "simplicial" for field, _ in failures)
    route = _fan_route(fan) if simplicial else None
    if route == ROUTE_PAIRS:
        failures += (("fan_condition", message) for message in _overlaps(fan))
    failed = {field for field, _ in failures}
    return ValidationReport(
        simplicial="simplicial" not in failed,
        pure="pure" not in failed,
        fan_condition="fan_condition" not in failed,
        all_rays_used="all_rays_used" not in failed,
        failures=tuple(message for _, message in failures),
        fan_condition_route=route,
    )


def require_fan(fan: MarkedFan, message: str) -> None:
    """The gate of every operation whose mathematics assumes a fan: raise
    PreconditionError with the message and `validate`'s first failure, found
    without looking for the others."""
    failure = next((failure for _, failure in _shape_failures(fan)), None)
    if failure is None and _fan_route(fan) == ROUTE_PAIRS:
        failure = next(_overlaps(fan), None)
    if failure is not None:
        raise PreconditionError(f"{message}: {failure}")


# ---------------------------------------------------------------------------
# star fans


class StarData(NamedTuple):
    """Quotient of a fan by the span of one of its cones.

    The quotient coordinates are those of the apex's quotient record on the
    parent fan.  `lift[i]` is the parent ray index of star ray i.
    """

    parent: MarkedFan
    apex: Cone
    fan: MarkedFan
    lift: tuple[int, ...]

    @property
    def projection(self) -> Mat:
        return self.parent.quotient(self.apex).annihilators


def star(fan: MarkedFan, apex: Cone) -> StarData:
    """The star of a cone: the fan in R^n / span(apex) of the images of the
    maximal cones containing the apex, less the apex's rays.  The star rays
    are the neighborhood rays (`MarkedFan.neighborhood`), in ray order, each
    marked by its image under the apex's annihilators; the empty apex gives
    the fan itself.  Raises PreconditionError when the apex is not a cone,
    or a neighborhood ray lies in its span."""
    apex = cone_key(apex)
    if apex not in fan.incident:
        raise PreconditionError(f"{apex} is not a cone of the fan")
    if not apex:
        return StarData(parent=fan, apex=apex, fan=fan, lift=tuple(range(len(fan.int_marks))))
    hood = fan.neighborhood(apex)
    marks = []
    for parent_ray, image, d in zip(hood.rays, hood.image_rows, hood.dens):
        if not any(image):
            raise PreconditionError(f"ray {parent_ray} lies in the span of {apex}: not simplicial")
        g = gcd(d, *image)
        marks.append((tuple(x // g for x in image), d // g) if g != 1 else (image, d))
    # hood.rays ascend, so each cone's star indices do too
    index_of = {parent: i for i, parent in enumerate(hood.rays)}
    star_cones = {tuple(index_of[i] for i in c if i not in apex) for c in fan.incident[apex]}
    quotient = MarkedFan(fan.ambient_dim - len(apex), tuple(marks), tuple(sorted(star_cones)))
    return StarData(parent=fan, apex=apex, fan=quotient, lift=hood.rays)


# ---------------------------------------------------------------------------
# pinch detection


class PinchReport(NamedTuple):
    unpinched: bool
    pinched_at: tuple[Cone, ...]


def components(cones, groups) -> list[list[Cone]]:
    """The classes of `cones` when the cones of each nonempty group are
    joined, by union-find; each class lists its cones in the order of
    `cones`, and a cone in no group is a class of its own."""
    parent = {c: c for c in cones}

    def root(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for group in groups:
        first = root(group[0])
        for c in group[1:]:
            parent[root(c)] = first
    classes = {}
    for c in cones:
        classes.setdefault(root(c), []).append(c)
    return list(classes.values())


def is_unpinched(fan: MarkedFan) -> PinchReport:
    """Connectivity of every star of codimension at least two.

    Two maximal cones of a star share a nonzero face exactly when the parent
    cones share a ray beyond the apex, so the star at tau is connected
    exactly when the maximal cones around tau form one class once those
    around tau plus r are joined, for every ray r off tau.
    """
    d = fan.dimension
    pinched = []
    for k in range(0, max(d - 1, 0)):
        for tau in fan.cones(k):
            incident = fan.incident[tau]
            if len(incident) <= 1:
                continue
            groups = (fan.incident[cone_key((*tau, r))] for r in neighborhood_rays(fan, tau))
            if len(components(incident, groups)) > 1:
                pinched.append(tau)
    return PinchReport(unpinched=not pinched, pinched_at=tuple(pinched))


# ---------------------------------------------------------------------------
# stellar subdivision


class StellarSubdivision(NamedTuple):
    fan: MarkedFan
    containment: dict
    ray_map: dict
    new_ray: int


def stellar_subdivide(fan: MarkedFan, v: Vec) -> StellarSubdivision:
    """Star the fan at a point of its support; the new ray is marked by v itself.

    v is made int once, and each maximal cone reads v's coordinates from its
    quotient record.  A cone whose span misses v, or in which v has a
    negative coordinate, stays.  A cone that contains v gives way to
    (cone - r) + v for each ray r where v's coordinate is positive: a
    simplicial cone's coordinates are unique, so these are exactly its
    facets that miss v.  v lies outside the support when no cone splits.
    The refined fan's `int_marks` are the parent's and v's, and each kept
    cone's quotient record is the parent's.

    Returns the refined fan together with the map from new maximal cones to
    the parent maximal cones containing them, and the reindexing of surviving
    parent rays.
    """
    v = vec(v)
    if len(v) != fan.ambient_dim:
        raise DimensionError("subdivision point has wrong dimension")
    if all(x == 0 for x in v):
        raise PreconditionError("cannot subdivide at the origin")
    mark = nums, _ = int_mark(v)
    specs = []  # (parent rays of a new cone, whether v joins them, parent cone)
    for c in fan.maximal_cones:
        q = fan.quotient(c)
        coords = q.coordinates(nums) if q.in_span(nums) else None
        if coords is None or min(coords) < 0:
            specs.append((c, False, c))
        else:
            specs += [(c[:r] + c[r + 1:], True, c) for r, x in enumerate(coords) if x > 0]
    if not any(joins for _, joins, _ in specs):
        raise PreconditionError("subdivision point lies outside the support")

    used_old = sorted(set().union(*(kept for kept, _, _ in specs)))
    ray_map = {old: i for i, old in enumerate(used_old)}
    new_ray = len(used_old)
    # ray_map keeps the order and the new ray comes last, so each cone is sorted
    containment = {tuple(ray_map[i] for i in kept) + (new_ray,) * joins: c for kept, joins, c in specs}
    refined = MarkedFan(
        fan.ambient_dim,
        tuple(fan.int_marks[i] for i in used_old) + (mark,),
        tuple(sorted(containment)),
    )
    # a kept cone's marks are the parent's, in order, so its record is too
    refined._quotients.update((tuple(ray_map[i] for i in c), fan.quotient(c)) for c, joins, _ in specs if not joins)
    return StellarSubdivision(fan=refined, containment=containment, ray_map=ray_map, new_ray=new_ray)


# ---------------------------------------------------------------------------
# products


def product_fan(f1: MarkedFan, f2: MarkedFan) -> MarkedFan:
    """Pairwise products of cones; rays of the factors embed block-diagonally."""
    n1, n2 = f1.ambient_dim, f2.ambient_dim
    marks = [(nums + (0,) * n2, d) for nums, d in f1.int_marks]
    marks += [((0,) * n1 + nums, d) for nums, d in f2.int_marks]
    offset = len(f1.int_marks)
    cones = []
    for c1 in f1.maximal_cones:
        for c2 in f2.maximal_cones:
            cones.append(cone_key(list(c1) + [offset + i for i in c2]))
    return MarkedFan(n1 + n2, tuple(marks), tuple(sorted(set(cones))))


def point_fan(ambient_dim: int = 0) -> MarkedFan:
    """The fan consisting of the origin alone."""
    return MarkedFan(ambient_dim, (), ((),))
