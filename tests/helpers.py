"""Shared generators and independent oracles for the test-suite.

Everything here is deliberately written against raw data (integer vectors,
vertex lists) rather than through the package's own degree machinery, so the
tests compare two genuinely different routes to the same numbers.
"""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional
from unittest import mock

from lorfan import convexity, fixtures, linalg, lorentzian, lp, matroids
from lorfan.errors import BalancingError, DimensionError, InternalError, PreconditionError
from lorfan.fan import (
    MarkedFan,
    Neighborhood,
    Quotient,
    StellarSubdivision,
    _neighborhood,
    cone_key,
    product_fan,
    star,
    stellar_subdivide,
)
from lorfan.linalg import ONE, ZERO, Inertia, fractions, is_symmetric, mat, over_lcd, vec
from lorfan.lorentzian import AFReport, SampleCheckReport, StarSampleRecord, is_log_concave, is_unimodal
from lorfan.lp import FeasibilityCertificate, StrictFeasibility
from lorfan.matroids import Matroid, _elements, _mask, bergman_fan, complete_graph_matroid, fano_matroid, uniform_matroid
from lorfan.weights import (
    MinkowskiWeight,
    TropicalFan,
    _mark_sum,
    divisor_action,
    indicator_divisor,
    mixed_degree,
    mixed_degrees,
    push_divisor_to_star,
    quadratic_form,
    star_weight,
)


# ---------------------------------------------------------------------------
# Fraction vectors and matrices: products, the identity, the transpose, the
# reduced row echelon form and the rank


def dot(a, b) -> Fraction:
    if len(a) != len(b):
        raise DimensionError("vector length mismatch")
    return sum((x * y for x, y in zip(a, b) if x and y), ZERO)


def mat_vec(A, x):
    return tuple(dot(row, x) for row in A)


def identity(n: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(A):
    return tuple(zip(*A)) if A else ()


def rref(A):
    """Reduced row echelon form and pivot columns by the int-row kernel
    `linalg.eliminate`, as Fraction rows."""
    rows, dens = linalg._int_rows(A)
    pivots = linalg.eliminate(rows, dens)
    return tuple(map(fractions, rows, dens)), pivots


def rank(A) -> int:
    """The number of pivots of the Fraction elimination."""
    return len(fraction_rref(A)[1])


# ---------------------------------------------------------------------------
# Fraction views of the int records, and the two forms of a max-slack row


def particulars(q: Quotient):
    """The quotient record's particular functionals as Fraction rows."""
    return tuple(fractions(row, q.den) for row in q.particular_rows)


def neighborhood_images(hood: Neighborhood):
    """Each neighborhood ray's image under the annihilators, as Fraction
    vectors: the star's marks."""
    return tuple(map(fractions, hood.image_rows, hood.dens))


def neighborhood_coords(hood: Neighborhood):
    """The particular functionals at each neighborhood ray's mark, as
    Fraction vectors."""
    return tuple(map(fractions, hood.coord_rows, hood.dens))


def int_rows(rows):
    """Max-slack rows (a, b) of rationals as the solver's int rows
    (a_nums, b_num, d), each over the least common denominator of its
    entries."""
    out = []
    for a, b in rows:
        nums, d = over_lcd([*map(Fraction, a), Fraction(b)])
        out.append((tuple(nums[:-1]), nums[-1], d))
    return out


def fraction_rows(rows):
    """The solver's int rows (a_nums, b_num, d) as rows (a, b) of Fractions."""
    return [(fractions(a, d), Fraction(b, d)) for a, b, d in rows]


def _primitive(x, y):
    g = math.gcd(abs(x), abs(y))
    return (x // g, y // g)


def ccw_key(u):
    """Exact counterclockwise ordering key for a nonzero planar direction."""
    x, y = u
    s = abs(x) + abs(y)
    if y > 0 or (y == 0 and x > 0):
        return (0, Fraction(-x, s))
    return (1, Fraction(x, s))


def random_complete_directions(rng: random.Random, m: int):
    """m distinct primitive directions, ccw sorted, consecutive gaps below pi."""
    while True:
        dirs = set()
        while len(dirs) < m:
            x, y = rng.randint(-4, 4), rng.randint(-4, 4)
            if (x, y) != (0, 0):
                dirs.add(_primitive(x, y))
        ordered = sorted(dirs, key=ccw_key)
        cross = [
            ordered[i][0] * ordered[(i + 1) % m][1]
            - ordered[i][1] * ordered[(i + 1) % m][0]
            for i in range(m)
        ]
        if all(c > 0 for c in cross):
            return ordered


def random_balanced_2fan(rng: random.Random, m: int = None) -> TropicalFan:
    """Random complete planar fan with its canonical positive balanced weight.

    The weight on each cone is inversely proportional to the determinant of
    its two marks, which is exactly the balancing condition in the plane.
    """
    m = m if m is not None else rng.choice([3, 4, 5])
    dirs = random_complete_directions(rng, m)
    rays = tuple((Fraction(x), Fraction(y)) for x, y in dirs)
    cones = tuple(tuple(sorted((i, (i + 1) % m))) for i in range(m))
    dets = {}
    for i in range(m):
        a, b = rays[i], rays[(i + 1) % m]
        dets[tuple(sorted((i, (i + 1) % m)))] = a[0] * b[1] - a[1] * b[0]
    scale = math.lcm(*(d.numerator for d in dets.values()))
    values = {c: Fraction(scale) / d for c, d in dets.items()}
    fan = MarkedFan(ambient_dim=2, rays=rays, maximal_cones=tuple(sorted(set(cones))))
    return TropicalFan(fan, MinkowskiWeight(2, values))


def smooth_complete_2fan(rng: random.Random, steps: int):
    """Random complete planar fan with all adjacent mark determinants one.

    Built by corner subdivisions of the standard triangle fan: inserting the
    sum of two adjacent marks keeps determinants at one, so the unit weight
    stays balanced and degrees match 2! times Euclidean areas exactly.
    """
    dirs = [(1, 0), (0, 1), (-1, -1)]
    for _ in range(steps):
        k = rng.randrange(len(dirs))
        a, b = dirs[k], dirs[(k + 1) % len(dirs)]
        dirs.insert(k + 1, (a[0] + b[0], a[1] + b[1]))
    m = len(dirs)
    rays = tuple((Fraction(x), Fraction(y)) for x, y in dirs)
    cones = tuple(sorted(tuple(sorted((i, (i + 1) % m))) for i in range(m)))
    fan = MarkedFan(ambient_dim=2, rays=rays, maximal_cones=cones)
    unit = MinkowskiWeight(2, {c: Fraction(1) for c in cones})
    from lorfan.weights import check_balancing

    assert check_balancing(fan, unit) == ()
    return fan, TropicalFan(fan, unit)


def shoelace_of_vertex_list(fan: MarkedFan, verts: dict) -> Fraction:
    """Independent polygon area: order vertices by normal-cone angle, shoelace."""

    def key(c):
        x = sum(fan.rays[i][0] for i in c)
        y = sum(fan.rays[i][1] for i in c)
        s = abs(x) + abs(y)
        if y > 0 or (y == 0 and x > 0):
            return (0, -x / s)
        return (1, x / s)

    ordered = sorted(verts, key=key)
    total = Fraction(0)
    for k in range(len(ordered)):
        x1, y1 = verts[ordered[k]]
        x2, y2 = verts[ordered[(k + 1) % len(ordered)]]
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def polytope_vertices(fan: MarkedFan, rhs) -> dict:
    """Vertex of {x : <x, u_r> <= rhs_r} selected by each maximal cone.

    Valid when the right-hand sides are convex on the fan, so that each
    maximal cone of normals pins down one vertex.
    """
    if len(rhs) != len(fan.rays):
        raise PreconditionError("one right-hand side per ray required")
    return {c: fractions(*fan.quotient(c).functional(*over_lcd([Fraction(rhs[i]) for i in c]))) for c in fan.maximal_cones}


def polygon_area(fan: MarkedFan, rhs) -> Fraction:
    """Exact area of a polygon given by a complete planar fan of outer
    normals: its vertices ordered by the direction of each cone's mark sum,
    then the shoelace formula."""
    if fan.ambient_dim != 2:
        raise PreconditionError("shoelace area needs a planar fan")
    verts = polytope_vertices(fan, rhs)
    cones = sorted(verts, key=lambda c: ccw_key(tuple(sum(fan.rays[i][j] for i in c) for j in range(2))))
    area2 = ZERO
    for k in range(len(cones)):
        x1, y1 = verts[cones[k]]
        x2, y2 = verts[cones[(k + 1) % len(cones)]]
        area2 += x1 * y2 - x2 * y1
    return abs(area2) / 2


# ---------------------------------------------------------------------------
# divisors by their definitions


def linear_divisor(fan: MarkedFan, functional):
    """Restriction of a global linear functional to the ray marks."""
    return tuple(dot(functional, u) for u in fan.rays)


def rescale_divisor(z, scale):
    """The same divisor class expressed on marks rescaled ray by ray."""
    return tuple(Fraction(s) * v for s, v in zip(scale, z))


def rescale_marking(tf: TropicalFan, scale) -> TropicalFan:
    """Equivalent representative with marks scaled ray by ray.

    Weights pick up the inverse product of the scales over each cone, which
    keeps every mixed degree of divisor classes unchanged.
    """
    lam = [Fraction(s) for s in scale]
    if len(lam) != len(tf.fan.rays):
        raise DimensionError("one scale per ray required")
    if any(s <= 0 for s in lam):
        raise PreconditionError("scales must be positive")
    fan = rescale_fan(tf.fan, lam)
    values = {}
    for c, v in tf.weight.values.items():
        factor = ONE
        for i in c:
            factor /= lam[i]
        values[c] = factor * v
    return TropicalFan(fan, MinkowskiWeight(tf.weight.degree, values))


def skeleton_weight(a, b, c) -> MinkowskiWeight:
    """The balanced weight on the coordinate skeleton taking value a*b on the
    xy-plane cones, a*c on the xz-plane cones, and b*c on the yz-plane cones."""
    tf = fixtures.coordinate_skeleton_fan()
    products = {(0, 1): Fraction(a) * Fraction(b), (0, 2): Fraction(a) * Fraction(c), (1, 2): Fraction(b) * Fraction(c)}
    values = {}
    for cone in tf.fan.maximal_cones:
        axes = tuple(sorted(i // 2 for i in cone))
        values[cone] = products[axes]
    return MinkowskiWeight(2, values)


def cone_coordinates(fan: MarkedFan, cone, point):
    """Coordinates of a point in the cone's mark basis as Fractions, or None
    if outside the span."""
    q = fan.quotient(cone)
    nums, d = over_lcd(point)
    if not q.in_span(nums):
        return None
    return fractions(q.coordinates(nums), q.den * d)


def cone_contains(fan: MarkedFan, cone, point) -> bool:
    """Whether the point has nonnegative coordinates in the cone's mark basis."""
    q = fan.quotient(cone)
    nums, _ = over_lcd(point)
    return q.in_span(nums) and all(c >= 0 for c in q.coordinates(nums))


def minimal_containing_cone(fan: MarkedFan, v):
    """The cone whose relative interior contains v (v must be in the support)."""
    for c in fan.maximal_cones:
        coords = cone_coordinates(fan, c, v)
        if coords is not None and all(x >= 0 for x in coords):
            return cone_key(i for i, x in zip(c, coords) if x > 0)
    raise PreconditionError("point lies outside the support")


def in_support(fan: MarkedFan, point) -> bool:
    """Whether some maximal cone contains the point."""
    return any(cone_contains(fan, c, point) for c in fan.maximal_cones)


def facet_stellar_subdivide(fan: MarkedFan, v) -> StellarSubdivision:
    """stellar_subdivide by asking which cones contain v: the support first,
    then each maximal cone, then each facet of a cone that contains v, which
    gives way to the facet plus v when the facet misses v.  The oracle of the
    route that reads v's coordinates once per maximal cone."""
    v = vec(v)
    if len(v) != fan.ambient_dim:
        raise DimensionError("subdivision point has wrong dimension")
    if all(x == 0 for x in v):
        raise PreconditionError("cannot subdivide at the origin")
    if not in_support(fan, v):
        raise PreconditionError("subdivision point lies outside the support")
    new = -1
    specs = []  # (rays of a new cone, -1 standing for v, and its parent cone)
    for c in fan.maximal_cones:
        if not cone_contains(fan, c, v):
            specs.append((frozenset(c), c))
            continue
        for facet in itertools.combinations(c, len(c) - 1):
            if not cone_contains(fan, facet, v):
                specs.append((frozenset(facet) | {new}, c))
    used_old = sorted(set().union(*(s - {new} for s, _ in specs)))
    ray_map = {old: i for i, old in enumerate(used_old)}
    new_ray = len(used_old)
    containment = {}
    for spec, parent in specs:
        containment[cone_key(ray_map[i] if i != new else new_ray for i in spec)] = parent
    refined = MarkedFan(fan.ambient_dim, tuple(fan.rays[i] for i in used_old) + (v,), tuple(sorted(containment)))
    return StellarSubdivision(fan=refined, containment=containment, ray_map=ray_map, new_ray=new_ray)


def stellar_points(fan: MarkedFan, rng: random.Random):
    """The sums of the marks of up to three k-cones for each k >= 1 (interior
    points of maximal cones, wall points when k = d - 1, twice a ray's mark
    when k = 1), the origin and four random points, some of them outside
    the support on an incomplete fan."""
    points = [vec([0] * fan.ambient_dim)]
    for k in range(1, fan.dimension + 1):
        cones = fan.cones(k)
        for tau in cones[:: max(1, len(cones) // 3)][:3]:
            marks = [fan.rays[i] for i in tau] * (2 if k == 1 else 1)
            points.append(vec([sum(col) for col in zip(*marks)]))
    for _ in range(4):
        points.append(vec([Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(fan.ambient_dim)]))
    return points


def fraction_transport_weight(coarse: TropicalFan, fine: MarkedFan) -> TropicalFan:
    """transport_weight with each fine cone's parent found by its barycentre,
    and the ratio the determinant of Fraction coordinates: the oracle for
    the route that reads marks on ints in the given parent's record."""
    cfan = coarse.fan
    values = {}
    for c in fine.maximal_cones:
        bary = vec([sum((fine.rays[i][j] for i in c), ZERO) for j in range(fine.ambient_dim)])
        parent = next((p for p in cfan.maximal_cones if cone_contains(cfan, p, bary)), None)
        if parent is None:
            raise PreconditionError(f"fine cone {c} lies outside the coarse support")
        columns = []
        for i in c:
            coords = cone_coordinates(cfan, parent, fine.rays[i])
            if coords is None or any(x < 0 for x in coords):
                raise PreconditionError(f"fine cone {c} is not contained in coarse cone {parent}")
            columns.append(coords)
        ratio = abs(linalg.det(mat(tuple(zip(*columns)))))
        if not ratio:
            raise PreconditionError(f"fine cone {c} has linearly dependent marks")
        values[c] = coarse.weight[parent] / ratio
    return TropicalFan(fine, MinkowskiWeight(fine.dimension, values))


def fraction_pullback_divisor(coarse: MarkedFan, z, fine: MarkedFan):
    """pullback_divisor by asking every coarse maximal cone whether it
    contains each fine mark, with Fraction coordinates."""
    out = []
    for u in fine.rays:
        parent = next((c for c in coarse.maximal_cones if cone_contains(coarse, c, u)), None)
        if parent is None:
            raise PreconditionError("fine ray lies outside the coarse support")
        coords = cone_coordinates(coarse, parent, u)
        out.append(sum((x * z[i] for x, i in zip(coords, parent)), ZERO))
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials


def poly_eval(poly: dict, values) -> Fraction:
    """Value of an exponent-tuple -> coefficient polynomial at a point."""
    total = Fraction(0)
    for expo, coeff in poly.items():
        term = coeff
        for v, e in zip(values, expo):
            term *= Fraction(v) ** e
        total += term
    return total


def indicator_volume_polynomial(tf: TropicalFan) -> dict:
    """The volume polynomial from the mixed degree of every monomial of ray
    indicators, times its multinomial: the oracle for
    `lorentzian.volume_polynomial`, which reads the degrees off quadratic
    forms."""
    fan = tf.fan
    d = fan.dimension
    nrays = len(fan.rays)
    if d == 0:
        return {(): tf.weight[()]}
    indicators = [indicator_divisor(fan, i) for i in range(nrays)]
    combos = list(itertools.combinations_with_replacement(range(nrays), d))
    poly = {}
    for combo, degree in zip(combos, mixed_degrees(fan, tf.weight, indicators, combos)):
        if degree == 0:
            continue
        expo = [0] * nrays
        for i in combo:
            expo[i] += 1
        multi = math.factorial(d)
        for e in expo:
            multi //= math.factorial(e)
        poly[tuple(expo)] = multi * degree
    return poly


def star_fan_forms(tf: TropicalFan) -> list:
    """(tau, form) for every codimension-two cone tau of a tropical fan, in
    cones order: on the star fan that `fan.star` builds at tau, under its
    `star_weight`, the indicators' divisor actions (`indicator_pairing_form`).
    The oracle for `weights.star_forms`, which reads every form off the
    parent fan; `quadratic_form` is that kernel's origin case, so it would
    not be an oracle here."""
    d = tf.dimension
    forms = []
    for tau in tf.fan.cones(d - 2) if d >= 2 else ():
        stf = star_weight(tf, tau, star(tf.fan, tau))
        forms.append((tau, indicator_pairing_form(stf.fan, stf.weight)))
    return forms


def hessian_of_quadratic(poly: dict, nrays: int):
    """Symmetric matrix H with poly(z) = z.H.z for a homogeneous quadratic."""
    entries = [[Fraction(0)] * nrays for _ in range(nrays)]
    for expo, coeff in poly.items():
        support = [i for i, e in enumerate(expo) if e]
        assert sum(expo) == 2, "not a quadratic polynomial"
        if len(support) == 1:
            i = support[0]
            entries[i][i] = coeff
        else:
            i, j = support
            entries[i][j] = coeff / 2
            entries[j][i] = coeff / 2
    return tuple(tuple(row) for row in entries)


# ---------------------------------------------------------------------------
# brute-force scans of a fan, the oracles for its cone index


def scan_cones(fan: MarkedFan, k: int):
    """All k-subsets of maximal cones, deduplicated and sorted."""
    out = set()
    for c in fan.maximal_cones:
        if len(c) >= k:
            out.update(itertools.combinations(c, k))
    return tuple(sorted(out))


def scan_incident(fan: MarkedFan, tau):
    return tuple(c for c in fan.maximal_cones if set(tau) <= set(c))


def scan_cofaces(fan: MarkedFan, tau):
    out = []
    for sigma in scan_cones(fan, len(tau) + 1) if len(tau) < fan.dimension else ():
        if set(tau) <= set(sigma):
            (extra,) = set(sigma) - set(tau)
            out.append((sigma, extra))
    return tuple(out)


def scan_neighborhood(fan: MarkedFan, tau):
    return tuple(sorted(set(itertools.chain.from_iterable(scan_incident(fan, tau))) - set(tau)))


def functional_rows(fan: MarkedFan, z, cone, rays):
    """The functional `base` matching z on the cone, and one max-slack row
    phi(u_r) + t <= z_r per given ray for phi = base + w.annihilators, over
    the coefficients w: row by row from the quotient record, the oracle for
    the neighborhood records."""
    q = fan.quotient(cone)
    base = fractions(*q.functional(*over_lcd([Fraction(z[i]) for i in cone])))
    rows = []
    for r in rays:
        u = fan.rays[r]
        rows.append((tuple(dot(a, u) for a in q.annihilators), Fraction(z[r]) - dot(base, u)))
    return base, rows


def rref_quotient(fan: MarkedFan, tau):
    """(pivots, particulars, annihilators) of tau's span, by row reduction of
    its marks and one linear solve per particular functional."""
    n = fan.ambient_dim
    if not tau:
        identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
        return (), (), identity
    marks = [fan.rays[i] for i in tau]
    reduced, pivots = rref(mat(marks))
    assert len(pivots) == len(tau), "dependent marks"
    square = mat([[m[p] for p in pivots] for m in marks])
    particulars = []
    for r in range(len(tau)):
        coeffs = solve_linear(square, vec(int(i == r) for i in range(len(tau))))
        psi = [Fraction(0)] * n
        for p, c in zip(pivots, coeffs):
            psi[p] = c
        particulars.append(tuple(psi))
    annihilators = []
    for j in range(n):
        if j in pivots:
            continue
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        for r_idx, p in enumerate(pivots):
            row[p] -= reduced[r_idx][j]
        annihilators.append(tuple(row))
    return pivots, tuple(particulars), tuple(annihilators)


# ---------------------------------------------------------------------------
# Fraction elimination and the Fraction quotient, neighborhood and divisor
# action constructions: the oracles for the integer kernels


def fraction_rref(A):
    """Reduced row echelon form and pivot columns by Fraction row operations."""
    rows = [[Fraction(x) for x in r] for r in A]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in rows), tuple(pivots)


def fraction_det(A):
    """Determinant by Fraction Gaussian elimination."""
    n = len(A)
    rows = [[Fraction(x) for x in r] for r in A]
    d = ONE
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return ZERO
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return d


def fraction_quotient(fan: MarkedFan, cone):
    """(pivots, particulars, annihilators) of the cone's span from one Fraction
    reduction of [marks | identity], or None when the marks are dependent."""
    n, k = fan.ambient_dim, len(cone)
    unit = [[ONE if i == j else ZERO for j in range(k)] for i in range(k)]
    reduced, pivots = fraction_rref([list(fan.rays[i]) + unit[r] for r, i in enumerate(cone)])
    if len(pivots) != k or (pivots and pivots[-1] >= n):
        return None
    particulars = [[ZERO] * n for _ in range(k)]
    for row, p in zip(reduced, pivots):
        for r in range(k):
            particulars[r][p] = row[n + r]
    annihilators = []
    for j in range(n):
        if j in pivots:
            continue
        row = [ZERO] * n
        row[j] = ONE
        for r_idx, p in enumerate(pivots):
            row[p] -= reduced[r_idx][j]
        annihilators.append(tuple(row))
    return pivots, tuple(map(tuple, particulars)), tuple(annihilators)


def elimination_quotient(fan: MarkedFan, cone) -> Optional[Quotient]:
    """The int quotient record of any cone from one elimination of [marks |
    identity], or None when the marks are dependent: the route
    `fan._quotient` takes for every cone but a ray, whose closed form
    (`fan.RayQuotient`) it checks field by field and method by method."""
    n, k = fan.ambient_dim, len(cone)
    rows, dens = [], []
    for r, i in enumerate(cone):
        nums, d = fan.int_marks[i]
        row = [*nums, *(0,) * k]
        row[n + r] = d
        rows.append(row)
        dens.append(d)
    pivots = linalg.eliminate(rows, dens)
    if len(pivots) != k or (pivots and pivots[-1] >= n):
        return None
    den = math.lcm(*dens)
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


def fraction_neighborhood(fan: MarkedFan, cone, rays):
    """(images, coords) of the given rays' marks under the Fraction quotient
    record of the cone: its annihilators and its particular functionals."""
    _, particulars, annihilators = fraction_quotient(fan, cone)
    marks = [fan.rays[r] for r in rays]
    images = tuple(tuple(dot(a, u) for a in annihilators) for u in marks)
    coords = tuple(tuple(dot(psi, u) for psi in particulars) for u in marks)
    return images, coords


def fraction_excess(fan: MarkedFan, cone, rays, z):
    """z at each ray minus the functional matching z on the cone, in Fractions."""
    _, coords = fraction_neighborhood(fan, cone, rays)
    on_cone = [Fraction(z[i]) for i in cone]
    return tuple(
        Fraction(z[eta]) - sum((v * c for v, c in zip(on_cone, co)), ZERO) for eta, co in zip(rays, coords)
    )


def fraction_mark_sum(fan: MarkedFan, w: MinkowskiWeight, tau):
    """Sum of w(sigma) times the opposite ray's mark over tau's cofaces."""
    total = [ZERO] * fan.ambient_dim
    for sigma, eta in fan.cofaces[tau]:
        ws = w[sigma]
        for j, x in enumerate(fan.rays[eta]):
            if x:
                total[j] += ws * x
    return tuple(total)


def fraction_action_at(fan: MarkedFan, w: MinkowskiWeight, tau, z):
    """Value at tau of z acting on w, or None when w is unbalanced at tau: the
    mark sum's coordinates in tau's mark basis from the Fraction quotient."""
    _, particulars, annihilators = fraction_quotient(fan, tau)
    total = fraction_mark_sum(fan, w, tau)
    if any(dot(a, total) for a in annihilators):
        return None
    coords = [dot(psi, total) for psi in particulars]
    linear_part = sum((w[sigma] * z[eta] for sigma, eta in fan.cofaces[tau]), ZERO)
    return linear_part - sum((c * z[i] for c, i in zip(coords, tau)), ZERO)


def fraction_divisor_action(fan: MarkedFan, w: MinkowskiWeight, z) -> MinkowskiWeight:
    """divisor_action by fraction_action_at at every cone, raising what it
    raises, in the same order."""
    if w.degree < 1:
        raise PreconditionError("divisor action needs a weight of degree at least one")
    if len(z) != len(fan.rays):
        raise DimensionError("divisor has one value per ray")
    out = {}
    for tau in fan.cones(w.degree - 1):
        value = fraction_action_at(fan, w, tau, z)
        if value is None:
            raise BalancingError(f"weight is unbalanced at cone {tau}")
        out[tau] = value
    return MinkowskiWeight(w.degree - 1, out)


def sequential_acted_weights(fan: MarkedFan, w: MinkowskiWeight, divisors, sequences):
    """acted_weights one Fraction divisor action at a time, sequence by
    sequence, each distinct prefix once: the oracle of its values and of the
    first error it raises."""
    partial = {(): w}
    out = []
    for seq in map(tuple, sequences):
        for k in range(1, len(seq) + 1):
            if seq[:k] not in partial:
                partial[seq[:k]] = fraction_divisor_action(fan, partial[seq[: k - 1]], divisors[seq[k - 1]])
        out.append(partial[seq])
    return out


def outcome(call):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def non_pure_plane() -> MarkedFan:
    """A quadrant and a lone ray in R^2."""
    return MarkedFan(2, (vec([1, 0]), vec([0, 1]), vec([-1, -1])), ((0, 1), (2,)))


def non_pure_space() -> MarkedFan:
    """Two 3-cones and a 2-cone on rays of its own in R^3."""
    rays = tuple(vec(u) for u in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 2, 0), (0, -1, 2)))
    return MarkedFan(3, rays, ((0, 1, 2), (0, 1, 3), (4, 5)))


# fans with maximal cones of two dimensions: the first maximal cone over some
# cones is smaller than the fan, and the lone cones' faces have no cofaces
NON_PURE_FANS = {"plane": non_pure_plane, "space": non_pure_space}


def dependent_marks_fan() -> MarkedFan:
    """Two 2-cones in R^2, the first on the parallel marks e1 and 2 e1."""
    return MarkedFan(2, (vec([1, 0]), vec([2, 0]), vec([0, 1])), ((0, 1), (0, 2)))


def unused_ray_fan() -> MarkedFan:
    """The triangle fan with a fourth ray, (1, 1), in none of its cones."""
    rays = (vec([1, 0]), vec([0, 1]), vec([-1, -1]), vec([1, 1]))
    return MarkedFan(2, rays, ((0, 1), (0, 2), (1, 2)))


def rescale_fan(fan: MarkedFan, scale) -> MarkedFan:
    """The fan with each ray's mark multiplied by its scale."""
    rays = tuple(tuple(Fraction(s) * x for x in u) for s, u in zip(scale, fan.rays))
    return MarkedFan(fan.ambient_dim, rays, fan.maximal_cones)


# ---------------------------------------------------------------------------
# fan condition and spanning rays, by the definitions


def overlap_witness(fan: MarkedFan, c1, c2) -> bool:
    """True when cone(c1) meets cone(c2) outside the cone on their shared rays.

    One LP per non-shared ray over the k1 + k2 cone coefficients: is there a
    point of both cones whose coefficient on that ray is one?
    """
    shared = set(c1) & set(c2)
    n = fan.ambient_dim
    k1, k2 = len(c1), len(c2)
    dim = k1 + k2
    for side, cone_a in ((0, c1), (1, c2)):
        for pos, idx in enumerate(cone_a):
            if idx in shared:
                continue
            var = pos if side == 0 else k1 + pos
            eqs = []
            for coord in range(n):
                row = [fan.rays[i][coord] for i in c1] + [-fan.rays[i][coord] for i in c2]
                eqs.append((vec(row), ZERO))
            pin = [ZERO] * dim
            pin[var] = ONE
            eqs.append((vec(pin), ONE))
            ineqs = []
            for j in range(dim):
                row = [ZERO] * dim
                row[j] = -ONE
                ineqs.append((vec(row), ZERO))
            if linear_feasible(eqs, ineqs, dim) is not None:
                return True
    return False


def full_row_regular(fan: MarkedFan, z, kept=None) -> Optional[tuple]:
    """fan._regular with no point tried first and every program solved on
    all its rows at once: for each maximal cone, one max-slack program over
    a neighborhood record built on every ray off the cone.  Its points, as
    int numerators over one denominator, or None when one program is
    infeasible; `kept` is not read."""
    points = []
    for sigma in fan.maximal_cones:
        others = tuple(r for r in range(len(fan.rays)) if r not in sigma)
        rows = _neighborhood(fan, sigma, others).rows(z)
        result = lp.strict_feasible(rows, fan.quotient(sigma).codim)
        if not result.feasible:
            return None
        nums, d = over_lcd(result.point)
        points.append((tuple(nums), d))
    return tuple(points)


def fraction_relax(point, rows) -> tuple:
    """fan._relax in Fractions, the point w given as Fractions: each int
    row (a, b, d), the program row (a / d).w + t <= b / d, that w does not
    meet strictly and whose a is not zero moves w along a to slack 1."""
    w = tuple(point)
    for a, b, d in rows:
        a, b = fractions(a, d), Fraction(b, d)
        aw, norm = dot(a, w), dot(a, a)
        if aw >= b and norm:
            w = tuple(x + (b - 1 - aw) / norm * y for x, y in zip(w, a))
    return w


def classify_af_report(tf: TropicalFan, d1, d2, aux=()) -> AFReport:
    """af_report with every distinct divisor decided by classify_convexity
    and every degree by its own mixed_degree call: the oracle of
    af_report's convexity routes."""
    fan, d = tf.fan, tf.fan.dimension
    for z in dict.fromkeys(map(tuple, (d1, d2, *aux))):
        convexity.classify_convexity(fan, z).require("input divisor is not convex")
    aux = tuple(aux)

    def degree(*divisors):
        return mixed_degree(fan, tf.weight, divisors)

    mixed, sq1, sq2 = degree(d1, d2, *aux), degree(d1, d1, *aux), degree(d2, d2, *aux)
    seq = tuple(degree(*[d1] * k, *[d2] * (d - k)) for k in range(d + 1))
    return AFReport(
        divisors=(tuple(d1), tuple(d2)),
        auxiliary=aux,
        af_gap=mixed * mixed - sq1 * sq2,
        sequence=seq,
        log_concave=is_log_concave(seq),
        unimodal=is_unimodal(seq),
    )


def classify_sample_strictly_convex(fan: MarkedFan, witness, rng: random.Random):
    """sample_strictly_convex with every draw proved by its own
    classify_convexity(strict=True) pass: the oracle of the route that
    tries `fan.regular` first."""
    if not witness:
        return ()
    scale = Fraction(rng.randint(1, 4))
    base = tuple(scale * v for v in witness)
    bump = tuple(Fraction(rng.randint(0, 12), 4) for _ in range(len(fan.rays)))
    eps = ONE
    for _ in range(14):
        candidate = tuple(b + eps * p for b, p in zip(base, bump))
        if convexity.classify_convexity(fan, candidate, strict=True).strictly_convex:
            return candidate
        eps /= 2
    raise InternalError("sampling failed to produce a strictly convex divisor")


def sequential_sample_check(tf: TropicalFan, witness, samples: int, seed: int) -> SampleCheckReport:
    """definition_sample_check sample by sample: each sample draws its aux
    divisors and chains their divisor actions, then draws its tops and takes
    their mixed degree, so each action forms its weight's mark sums anew.
    Draws come from `lorentzian.sample_strictly_convex`, looked up at each
    draw, so a patch of it reaches both paths: the oracle of the route that
    draws first and acts once per star."""
    fan = tf.fan
    if samples < 1:
        raise PreconditionError("sampling needs at least one sample")
    if witness is None:
        raise PreconditionError("sampling requires a quasiprojective fan")
    convexity.require_convex(fan, witness, True, "sampling requires a strictly convex witness")
    rng = random.Random(seed)
    records = []
    for tau in sorted(fan.all_cones()):
        if len(tau) > fan.dimension - 2:
            continue
        sd = star(fan, tau)
        d_star = sd.fan.dimension
        if d_star < 2:
            continue
        stf = star_weight(tf, tau, sd)
        star_witness = push_divisor_to_star(sd, witness)
        if not convexity.is_strictly_convex(sd.fan, star_witness):
            raise InternalError("pushed witness lost strict convexity on a star")
        p_counts = []
        tops_positive = True
        for _ in range(samples):
            aux = [lorentzian.sample_strictly_convex(sd.fan, star_witness, rng) for _ in range(d_star - 2)]
            current = stf.weight
            for z in aux:
                current = divisor_action(sd.fan, current, z)
            p_counts.append(linalg.inertia(quadratic_form(sd.fan, current)).p)
            tops = [lorentzian.sample_strictly_convex(sd.fan, star_witness, rng) for _ in range(d_star)]
            if mixed_degree(sd.fan, stf.weight, tops) <= 0:
                tops_positive = False
        records.append(StarSampleRecord(tau, tuple(p_counts), tops_positive))
    return SampleCheckReport(seed=seed, samples=samples, records=tuple(records))


def joint_program_rows(fan: MarkedFan):
    """The rows and dimension of the joint max-slack program that decides
    whether the fan has a strictly convex divisor in one piece: the oracle
    of the cut loop in `convexity.strictly_convex_witness`.

    The divisor is zero on `convexity.spanning_rays`, which factors out
    global linear functions, so its columns are the values on the other rays
    in index order; then comes one block of quotient-functional columns per
    cone with a nonempty neighborhood, in `all_cones` order, with one row
    per neighborhood ray.
    """
    pinned = set(convexity.spanning_rays(fan))
    unpinned = [i for i in range(len(fan.rays)) if i not in pinned]
    column = {i: k for k, i in enumerate(unpinned)}
    blocks = []
    dim = len(column)
    for tau in fan.all_cones():
        hood = fan.neighborhood(tau)
        if hood.rays:
            blocks.append((hood, dim))
            dim += fan.quotient(tau).codim

    rows = []
    for hood, base in blocks:
        for eta, image, coords, d in zip(hood.rays, hood.image_rows, hood.coord_rows, hood.dens):
            row = [0] * dim
            # phi(u_eta) - z_eta < 0 with phi = sum z_r psi_r + w.annihilators,
            # over the ray's denominator d
            for ray_idx, c in zip(hood.cone, coords):
                if ray_idx in column:
                    row[column[ray_idx]] += c
            row[base : base + len(image)] = image
            if eta in column:
                row[column[eta]] -= d
            rows.append((row, 0, d))
    return rows, dim


def strict_convexity_program(fan: MarkedFan) -> StrictFeasibility:
    """The joint program solved, through `convexity.strict_feasible` so that
    a test's patch sees it: absence comes with the exact optimum and its
    dual certificate."""
    return convexity.strict_feasible(*joint_program_rows(fan))


def joint_lp_witness(fan: MarkedFan) -> Optional[tuple]:
    """The joint program's strictly convex divisor, or None."""
    result = strict_convexity_program(fan)
    if not result.feasible:
        return None
    pinned = set(convexity.spanning_rays(fan))
    values = iter(result.point)
    return tuple(ZERO if i in pinned else next(values) for i in range(len(fan.rays)))


def pair_search_pinches(fan: MarkedFan):
    """The cones of codimension at least two whose star is disconnected, by
    a graph search on the maximal cones around each, two cones linked when
    they share a ray beyond the apex."""
    pinched = []
    for k in range(0, max(fan.dimension - 1, 0)):
        for tau in fan.cones(k):
            incident = fan.incident[tau]
            if len(incident) <= 1:
                continue
            adj = {i: set() for i in range(len(incident))}
            for i, j in itertools.combinations(range(len(incident)), 2):
                if set(incident[i]) & set(incident[j]) - set(tau):
                    adj[i].add(j)
                    adj[j].add(i)
            if len(_reached(adj, 0)) != len(incident):
                pinched.append(tau)
    return tuple(pinched)


def pair_search_complete(fan: MarkedFan) -> bool:
    """Every wall bounds two maximal cones and the dual graph, two maximal
    cones linked when they share d - 1 rays, is connected."""
    d = fan.dimension
    if d == 0:
        return fan.ambient_dim == 0
    if d != fan.ambient_dim:
        return False
    maximal = fan.maximal_cones
    wall_count = {}
    for c in maximal:
        for facet in itertools.combinations(c, d - 1):
            wall_count[facet] = wall_count.get(facet, 0) + 1
    if any(count != 2 for count in wall_count.values()):
        return False
    adj = {c: set() for c in maximal}
    for c1, c2 in itertools.combinations(maximal, 2):
        if len(set(c1) & set(c2)) == d - 1:
            adj[c1].add(c2)
            adj[c2].add(c1)
    return len(_reached(adj, maximal[0])) == len(maximal)


def _reached(adj, start):
    """The vertices a depth-first search reaches from start."""
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def greedy_spanning_rays(fan: MarkedFan):
    """Rays taken in index order whenever they raise the rank of those taken."""
    chosen = []
    for i in range(len(fan.rays)):
        if rank(mat([fan.rays[j] for j in chosen + [i]])) == len(chosen) + 1:
            chosen.append(i)
    return tuple(chosen)


def triangle_double_cover() -> MarkedFan:
    """The triangle's three rays listed twice, with six cones winding twice
    round the plane.  Cones on the same marks under different ray indices
    overlap, so this is not a fan; wall counts cannot tell."""
    rays = tuple(vec(u) for u in ((1, 0), (0, 1), (-1, -1))) * 2
    cones = ((0, 1), (1, 5), (3, 5), (3, 4), (2, 4), (0, 2))
    return MarkedFan(ambient_dim=2, rays=rays, maximal_cones=tuple(sorted(cones)))


# ---------------------------------------------------------------------------
# complete fans beyond the stock ones


def twisted_prism_times_line() -> MarkedFan:
    """The twisted prism times the line fan: complete in R^4, 16 cones."""
    return product_fan(fixtures.twisted_prism_fan().fan, fixtures.line_fan().fan)


def stellar_twisted_prism(seed: int) -> MarkedFan:
    """The twisted prism starred in turn at two nonzero int points of
    [-3, 3]^3 drawn from random.Random(seed); the fan is complete, so both
    lie in its support, and the result is complete too."""
    rng = random.Random(seed)
    fan = fixtures.twisted_prism_fan().fan
    for _ in range(2):
        v = [0, 0, 0]
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(3)]
        fan = stellar_subdivide(fan, vec(v)).fan
    return fan


def face_fan_points(rng: random.Random, count: int, d: int) -> list:
    """count int points uniform in [-12, 12]^d, then 12 e_i for each i and
    (-12, ..., -12), whose simplex holds the origin in its interior."""
    points = [tuple(rng.randint(-12, 12) for _ in range(d)) for _ in range(count)]
    points += [tuple(12 * (i == j) for j in range(d)) for i in range(d)]
    return points + [(-12,) * d]


def exact_facets(points, simplices) -> Optional[list]:
    """The facets that scipy's hull gives, as sorted point-index tuples, when
    each is exact: every other point and the origin lie strictly on one
    side of its hyperplane, by the sign of an exact determinant; else
    None."""
    origin = (0,) * len(points[0])
    facets = []
    for simplex in simplices:
        facet = tuple(sorted(int(i) for i in simplex))
        base = points[facet[0]]
        edges = [[x - y for x, y in zip(points[i], base)] for i in facet[1:]]
        others = [q for i, q in enumerate(points) if i not in facet] + [origin]
        dets = [fraction_det(edges + [[x - y for x, y in zip(q, base)]]) for q in others]
        if 0 in dets or len({v > 0 for v in dets}) != 1:
            return None
        facets.append(facet)
    return facets


def random_face_fan(seed: int, count: int = 12, d: int = 3) -> TropicalFan:
    """The face fan of the hull of face_fan_points drawn from
    random.Random(seed).  scipy.spatial.ConvexHull finds the facets in
    floats, so each is checked exactly (`exact_facets`), and a draw that
    fails the check is replaced by the generator's next draw, whatever
    lorfan would say of it.  The rays are the hull's vertices in point
    order, the maximal cones its facets, and a cone sigma has weight
    L / |det u_sigma|, L the lcm of the determinants, as the twisted prism
    has it.  The origin is interior, so the fan is complete and is the
    normal fan of the polar polytope."""
    from scipy.spatial import ConvexHull

    rng = random.Random(seed)
    facets = None
    while facets is None:
        points = face_fan_points(rng, count, d)
        facets = exact_facets(points, ConvexHull(points).simplices)
    vertices = sorted(set().union(*facets))
    index = {v: i for i, v in enumerate(vertices)}
    cones = tuple(sorted(tuple(index[v] for v in facet) for facet in facets))
    fan = MarkedFan(d, tuple(vec(points[v]) for v in vertices), cones)
    dets = {c: abs(fraction_det([fan.rays[i] for i in c])) for c in cones}
    scale = math.lcm(*(int(v) for v in dets.values()))
    return TropicalFan(fan, MinkowskiWeight(d, {c: Fraction(scale) / v for c, v in dets.items()}))


# the fixture set on which every fast route is compared with its oracle
STOCK_FANS = {
    "triangle": lambda: fixtures.triangle_fan().fan,
    "line": lambda: fixtures.line_fan().fan,
    "skeleton": lambda: fixtures.coordinate_skeleton_fan().fan,
    "triangle_x_line": lambda: fixtures.triangle_times_line().fan,
    "two_triangles": lambda: fixtures.two_disjoint_triangles().fan,
    "spindle": lambda: fixtures.spindle_fan().fan,
    "origin": lambda: fixtures.origin_fan(2).fan,
    "twisted_prism": lambda: fixtures.twisted_prism_fan().fan,
}
BERGMAN_FANS = {
    "M(K4)": lambda: bergman_fan(complete_graph_matroid(4)).fan,
    "Fano": lambda: bergman_fan(fano_matroid()).fan,
    "U(3,5)": lambda: bergman_fan(uniform_matroid(3, 5)).fan,
}
# the two largest fans of the benchmark ladder, for the oracles that stay cheap there
LARGE_BERGMAN_FANS = {
    "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6)).fan,
    "M(K5)": lambda: bergman_fan(complete_graph_matroid(5)).fan,
}


def random_fans():
    """The 40 seeded random_simplicial_fan draws, in R^2 and R^3 by turns."""
    return [random_fan(seed) for seed in range(40)]


def random_fan(seed: int) -> MarkedFan:
    """The seed-th of random_fans."""
    return random_simplicial_fan(random.Random(seed), 2 + seed % 2)


def random_simplicial_fan(rng: random.Random, n: int) -> MarkedFan:
    """A few random full-dimensional simplicial cones in R^n on small integer
    rays; they may overlap, so the result need not be a fan."""
    rays = []
    cones = set()
    count = rng.randint(2, 4)
    while len(cones) < count:
        cone = []
        while len(cone) < n:
            u = vec(rng.randint(-2, 2) for _ in range(n))
            if any(u) and rank(mat([rays[i] for i in cone] + [u])) == len(cone) + 1:
                if u not in rays:
                    rays.append(u)
                cone.append(rays.index(u))
        cones.add(tuple(sorted(cone)))
    return MarkedFan(ambient_dim=n, rays=tuple(rays), maximal_cones=tuple(sorted(cones)))


# the stock fixtures and small Bergman fans with their weights, and copies
# rescaled ray by ray whose marks leave the integers
TROPICAL_FANS = {
    "triangle": fixtures.triangle_fan,
    "line": fixtures.line_fan,
    "skeleton": fixtures.coordinate_skeleton_fan,
    "triangle_x_line": fixtures.triangle_times_line,
    "two_triangles": fixtures.two_disjoint_triangles,
    "spindle": fixtures.spindle_fan,
    "origin": lambda: fixtures.origin_fan(2),
    "twisted_prism": fixtures.twisted_prism_fan,
    "M(K4)": lambda: bergman_fan(complete_graph_matroid(4)),
    "Fano": lambda: bergman_fan(fano_matroid()),
    "U(3,5)": lambda: bergman_fan(uniform_matroid(3, 5)),
}


def rational_scale(rng, count):
    return [Fraction(rng.randint(1, 5), rng.randint(2, 5)) for _ in range(count)]


def mixed_scale(rng, count):
    return [rng.choice((1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3))) for _ in range(count)]


SCALES = {"rational": rational_scale, "mixed": mixed_scale}


# TROPICAL_FANS and U(4,6), the largest fan on which the transport and
# pullback oracles stay cheap
TROPICAL_LADDER = {**TROPICAL_FANS, "U(4,6)": lambda: bergman_fan(uniform_matroid(4, 6))}


def rescaled_tropical(name, kind):
    tf = TROPICAL_LADDER[name]()
    return rescale_marking(tf, SCALES[kind](random.Random(f"{name}/{kind}"), len(tf.fan.rays)))


def rescaled_random(seed, kind):
    fan = random_fan(seed)
    return rescale_fan(fan, SCALES[kind](random.Random(f"random-{seed}/{kind}"), len(fan.rays)))


# ---------------------------------------------------------------------------
# linear solves, the general two-phase simplex and the max-slack simplex over
# Fraction entries, the oracles for the quotient records and for the
# max-slack solver


def solve_linear(A, b):
    """One exact solution of Ax = b, or None when the system is inconsistent.

    Free variables are set to zero, so the returned solution is canonical.
    """
    if len(A) != len(b):
        raise DimensionError("matrix has %d rows, vector has %d entries" % (len(A), len(b)))
    if not A:
        return ()
    ncols = len(A[0])
    R, pivots = rref(mat(tuple(row) + (bi,) for row, bi in zip(A, b)))
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = R[i][ncols]
    return tuple(x)


OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# consecutive non-improving pivots tolerated before switching to Bland's rule
_STALL_LIMIT = 12


def _pivot(T, zrow, basis, row, col):
    """Pivot the tableau and the maintained reduced-cost row.

    Rows are mostly zero in the block-structured programs this package
    builds, so updates iterate over the pivot row's nonzero entries only.
    """
    prow = T[row]
    piv = prow[col]
    if piv != ONE:
        inv = ONE / piv
        T[row] = prow = [inv * v if v else v for v in prow]
    nz = [j for j, v in enumerate(prow) if v]
    for other in T:
        if other is prow:
            continue
        f = other[col]
        if f:
            for j in nz:
                other[j] -= f * prow[j]
    f = zrow[col]
    if f:
        for j in nz:
            zrow[j] -= f * prow[j]
    basis[row] = col


def _cost_row(T, basis, cost):
    """Reduced costs c - cB.B^-1.A plus the negated objective in the last slot."""
    zrow = list(cost) + [ZERO]
    for i, b in enumerate(basis):
        cb = cost[b]
        if cb:
            row = T[i]
            for j, v in enumerate(row):
                if v:
                    zrow[j] -= cb * v
    return zrow


def _run_phase(T, zrow, basis, ncols):
    """Minimize over the current tableau; entering columns drawn from range(ncols)."""
    rhs = len(zrow) - 1
    stall = 0
    last_obj = None
    while True:
        obj = zrow[rhs]
        if last_obj is not None and obj == last_obj:
            stall += 1
        else:
            stall = 0
        last_obj = obj
        use_bland = stall >= _STALL_LIMIT

        enter = None
        best = ZERO
        for j in range(ncols):
            rc = zrow[j]
            if rc < 0:
                if use_bland:
                    enter = j
                    break
                if rc < best:
                    best = rc
                    enter = j
        if enter is None:
            return OPTIMAL

        leave = None
        best_ratio = None
        for i in range(len(T)):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][rhs] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return UNBOUNDED
        _pivot(T, zrow, basis, leave, enter)


def _simplex_standard(A, b, c):
    """min c.x subject to Ax = b, x >= 0: (status, x, value, duals).

    On INFEASIBLE the duals are a Farkas witness: y.A <= 0 and y.b > 0.
    On OPTIMAL they satisfy y.A <= c and y.b = value.
    """
    m, n = len(A), len(c)
    flip = [bi < 0 for bi in b]
    T = [
        [-v if flip[i] else v for v in A[i]]
        + [ONE if k == i else ZERO for k in range(m)]
        + [-b[i] if flip[i] else b[i]]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    def duals(cost, zrow):
        # reduced cost on artificial j is cost[n+j] - y_j
        return [(-1 if flip[j] else 1) * (cost[n + j] - zrow[n + j]) for j in range(m)]

    cost1 = [ZERO] * n + [ONE] * m
    zrow = _cost_row(T, basis, cost1)
    if _run_phase(T, zrow, basis, n) != OPTIMAL:
        raise InternalError("phase one cannot be unbounded")
    if zrow[n + m] < 0:
        return INFEASIBLE, None, None, duals(cost1, zrow)
    # drive leftover artificials out of the basis; redundant rows keep them at zero
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if T[i][j] != 0), None)
            if col is not None:
                _pivot(T, zrow, basis, i, col)
    cost2 = list(c) + [ZERO] * m
    zrow = _cost_row(T, basis, cost2)
    if _run_phase(T, zrow, basis, n) == UNBOUNDED:
        return UNBOUNDED, None, None, None
    x = [ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][n + m]
    return OPTIMAL, x, dot(tuple(c), tuple(x)), duals(cost2, zrow)


@dataclass
class LpResult:
    status: str
    x: Optional[tuple]
    value: Optional[Fraction]
    eq_duals: Optional[tuple]
    le_duals: Optional[tuple]


def lp_max(objective, equalities, inequalities) -> LpResult:
    """max objective.x over free x with a.x = b equalities and a.x <= b rows,
    by the two-phase simplex on x = x+ - x- with one artificial per row."""
    nv = len(objective)
    for a, _ in list(equalities) + list(inequalities):
        if len(a) != nv:
            raise DimensionError("constraint row has wrong dimension")
    n_le = len(inequalities)
    rows, rhs = [], []
    for k, (a, bv) in enumerate(list(equalities) + list(inequalities)):
        slack = [ZERO] * n_le
        if k >= len(equalities):
            slack[k - len(equalities)] = ONE
        rows.append([*a] + [-v for v in a] + slack)
        rhs.append(bv)
    cost = [-v for v in objective] + [v for v in objective] + [ZERO] * n_le
    status, x, value, y = _simplex_standard(rows, rhs, cost)
    split = len(equalities)
    if status == INFEASIBLE:
        return LpResult(status, None, None, tuple(y[:split]), tuple(y[split:]))
    if status == UNBOUNDED:
        return LpResult(status, None, None, None, None)
    point = tuple(x[j] - x[nv + j] for j in range(nv))
    return LpResult(status, point, -value, tuple(y[:split]), tuple(y[split:]))


def linear_feasible(equalities, inequalities, dim):
    """Some exact x with a.x = b and a.x <= b throughout, or None."""
    if not equalities and not inequalities:
        return (ZERO,) * dim
    res = lp_max((ZERO,) * dim, equalities, inequalities)
    return res.x if res.status == OPTIMAL else None


def max_slack_oracle(rows, dim) -> Fraction:
    """The optimum of max t subject to a.x + t <= b on every row and t <= 1,
    by the two-phase simplex."""
    objective = (ZERO,) * dim + (ONE,)
    le = [(tuple(a) + (ONE,), bv) for a, bv in rows] + [(objective, ONE)]
    res = lp_max(objective, [], le)
    assert res.status == OPTIMAL
    return res.value


def _max_slack_phase(T, zrow, basis, nfree):
    """The max-slack solver's pivot loop over Fraction entries: columns below
    `nfree` are free, enter in either direction and never leave."""
    rhs = len(zrow) - 1
    stall = 0
    last_obj = None
    while True:
        obj = zrow[rhs]
        if last_obj is not None and obj == last_obj:
            stall += 1
        else:
            stall = 0
        last_obj = obj
        # the solver's own limit, read here so a test can set it for both
        use_bland = stall >= lp._STALL_LIMIT

        enter = None
        best = ZERO
        for j in range(rhs):
            rc = zrow[j]
            gain = -abs(rc) if j < nfree else rc
            if gain < 0:
                if use_bland:
                    enter = j
                    break
                if gain < best:
                    best = gain
                    enter = j
        if enter is None:
            return
        up = zrow[enter] < 0

        leave = None
        best_ratio = None
        for i in range(len(T)):
            if basis[i] < nfree:
                continue
            a = T[i][enter] if up else -T[i][enter]
            if a > 0:
                ratio = T[i][rhs] / a
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise InternalError("max-slack program cannot be unbounded")
        _pivot(T, zrow, basis, leave, enter)


def fraction_strict_feasible(rows, dim) -> StrictFeasibility:
    """lp.strict_feasible over a tableau of Fraction entries, with the same
    columns, the same pivot rules and the same duals; the point and the
    certificate are left for the caller to check."""
    m = len(rows)
    t0 = min([ONE, *(Fraction(bv) for _, bv in rows)])
    width = dim + m + 3
    T = []
    for i, (a, bv) in enumerate(rows):
        row = [*a, ONE] + [ZERO] * (m + 2)
        row[dim + 1 + i] = ONE
        row[-1] = bv - t0
        T.append(row)
    cap = [ZERO] * width
    cap[dim] = cap[dim + m + 1] = ONE
    cap[-1] = ONE - t0
    T.append(cap)
    basis = list(range(dim + 1, dim + m + 2))
    zrow = [ZERO] * width
    zrow[dim] = -ONE

    _max_slack_phase(T, zrow, basis, dim)

    t_star = t0 + zrow[-1]
    x = [ZERO] * dim
    for i, col in enumerate(basis):
        if col < dim:
            x[col] = T[i][-1]
    if t_star > 0:
        return StrictFeasibility(tuple(x), t_star, None)
    duals = zrow[dim + 1 : dim + m + 2]
    total = sum(duals, ZERO)
    cert = FeasibilityCertificate(tuple(v / total for v in duals[:m]), duals[m] / total)
    return StrictFeasibility(tuple(x), t_star, cert)


# ---------------------------------------------------------------------------
# the Fraction Schur complement, the characteristic polynomial and
# Descartes' rule: the oracles for inertia


def fraction_inertia(S) -> Inertia:
    """Inertia by symmetric elimination on Fractions: each step counts the
    sign of a nonzero diagonal pivot and replaces the rest of the matrix by
    its Schur complement; a zero diagonal with some nonzero A[i][j] first
    takes the congruence e_i += e_j."""
    if not is_symmetric(S):
        raise DimensionError("inertia requires a symmetric square matrix")
    A = [[Fraction(x) for x in row] for row in S]
    p = q = 0
    while A:
        m = len(A)
        k = next((i for i in range(m) if A[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in range(m) for j in range(m) if A[i][j] != 0), None)
            if pair is None:
                break
            k, j = pair
            A[k] = [x + y for x, y in zip(A[k], A[j])]
            for row in A:
                row[k] += row[j]
        inv = ONE / A[k][k]
        if inv > 0:
            p += 1
        else:
            q += 1
        pivot_row = A[k]
        rest = [i for i in range(m) if i != k]
        schur = []
        for i in rest:
            row = A[i]
            f = row[k] * inv
            schur.append([row[j] - f * pivot_row[j] for j in rest] if f else [row[j] for j in rest])
        A = schur
    return Inertia(p=p, q=q, r=len(S) - p - q)


def mat_mul(A, B):
    if A and B and len(A[0]) != len(B):
        raise DimensionError("matrix product shape mismatch")
    cols = list(zip(*B)) if B else []
    return tuple(tuple(dot(row, col) for col in cols) for row in A)


def char_poly(S):
    """Coefficients of det(tI - S), highest degree first (monic).

    Uses the Faddeev-LeVerrier recursion, which stays in exact rational
    arithmetic throughout.
    """
    n = len(S)
    if any(len(r) != n for r in S):
        raise DimensionError("characteristic polynomial of non-square matrix")
    coeffs = [ONE]
    M = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    for k in range(1, n + 1):
        AM = mat_mul(S, M)
        c = -sum((AM[i][i] for i in range(n)), ZERO) / k
        coeffs.append(c)
        M = tuple(
            tuple(AM[i][j] + (c if i == j else ZERO) for j in range(n))
            for i in range(n)
        )
    return tuple(coeffs)


def _sign_variations(coeffs) -> int:
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_inertia(S) -> Inertia:
    """Inertia of a symmetric rational matrix from its characteristic polynomial.

    Symmetric rational matrices are real-rooted, so Descartes' rule applied
    to the characteristic polynomial counts positive roots exactly; the zero
    count is the multiplicity of the root at the origin.
    """
    if not is_symmetric(S):
        raise DimensionError("inertia requires a symmetric square matrix")
    n = len(S)
    coeffs = char_poly(S)
    low_zero = 0
    while low_zero < n and coeffs[n - low_zero] == 0:
        low_zero += 1
    nonzero_part = coeffs[: n + 1 - low_zero]
    p = _sign_variations(nonzero_part)
    # Variations of p(-t) count the negative roots; their sum must close up.
    negated = [c if (len(nonzero_part) - 1 - i) % 2 == 0 else -c for i, c in enumerate(nonzero_part)]
    q = _sign_variations(negated)
    if p + q + low_zero != n:
        raise InternalError("Descartes counts do not exhaust the spectrum; input was not real-rooted")
    return Inertia(p=p, q=q, r=low_zero)


# ---------------------------------------------------------------------------
# balancing through the divisor action, the oracle for check_balancing


def zero_divisor_balancing(fan: MarkedFan, w: MinkowskiWeight):
    """check_balancing by the divisor action of the zero divisor at every cone
    of dimension degree-1: the action is undefined exactly where the weighted
    sum of all opposite marks, zero entries included, has no coordinates in
    the cone's mark basis."""
    if w.degree == 0:
        return ()
    failing = []
    for tau in fan.cones(w.degree - 1):
        total = [ZERO] * fan.ambient_dim
        for sigma, eta in fan.cofaces[tau]:
            for j, x in enumerate(fan.rays[eta]):
                total[j] += w[sigma] * x
        if cone_coordinates(fan, tau, tuple(total)) is None:
            failing.append(tau)
    return tuple(failing)


def record_check_balancing(fan: MarkedFan, w: MinkowskiWeight):
    """check_balancing with every span test read in the cone's quotient
    record, `fan.quotient(tau).in_span`, which raises PreconditionError on
    a cone of dependent marks: the oracle of the span tests at the origin,
    the rays and the 2-cones, which build no record of the cone."""
    k = w.degree
    if k == 0:
        return ()
    for sigma in fan.cones(k):
        w[sigma]
    failing = []
    for tau in fan.cones(k - 1):
        ws, _ = over_lcd([w[sigma] for sigma, _ in fan.cofaces[tau]])
        if not fan.quotient(tau).in_span(_mark_sum(fan, ws, tau)[0]):
            failing.append(tau)
    return tuple(failing)


# ---------------------------------------------------------------------------
# the quadratic form of a degree-two weight, one divisor action per ray


def indicator_pairing_form(fan: MarkedFan, w: MinkowskiWeight):
    """Matrix whose row i is the indicator of ray i acting on w, read at
    each ray: n full divisor actions, the oracle for `quadratic_form`."""
    nrays = len(fan.rays)
    acted = [divisor_action(fan, w, indicator_divisor(fan, i)) for i in range(nrays)]
    return tuple(tuple(acted[i][(j,)] for j in range(nrays)) for i in range(nrays))


# ---------------------------------------------------------------------------
# frozenset matroids: the oracle for the bitmask matroid layer


@dataclass(frozen=True)
class FrozensetMatroid:
    """Rank as max |S & B| over frozenset bases, closure by n + 1 rank
    calls, flats by closing every one-element extension."""

    n: int
    bases: frozenset

    def rank_of(self, subset) -> int:
        s = frozenset(subset)
        return max(len(s & b) for b in self.bases)

    def closure(self, subset) -> frozenset:
        s = frozenset(subset)
        r = self.rank_of(s)
        return frozenset(e for e in range(self.n) if self.rank_of(s | {e}) == r)

    def loops(self) -> frozenset:
        return self.closure(())

    def flats(self) -> tuple:
        seen = {self.closure(())}
        frontier = list(seen)
        while frontier:
            f = frontier.pop()
            for e in range(self.n):
                if e not in f:
                    g = self.closure(f | {e})
                    if g not in seen:
                        seen.add(g)
                        frontier.append(g)
        return tuple(sorted(seen, key=lambda f: (self.rank_of(f), sorted(f))))


def frozenset_matroid_from_bases(n: int, bases) -> FrozensetMatroid:
    """Pairwise exchange axiom over every (B1, B2, e), then the loop check."""
    base_set = frozenset(frozenset(b) for b in bases)
    if not base_set:
        raise PreconditionError("a matroid needs at least one basis")
    if len({len(b) for b in base_set}) != 1:
        raise PreconditionError("bases must all have the same cardinality")
    if any(not 0 <= e < n for b in base_set for e in b):
        raise PreconditionError("basis element out of range")
    for b1 in base_set:
        for b2 in base_set:
            for e in b1 - b2:
                if not any((b1 - {e}) | {f} in base_set for f in b2 - b1):
                    raise PreconditionError(f"exchange axiom fails for {sorted(b1)}, {sorted(b2)} at {e}")
    m = FrozensetMatroid(n=n, bases=base_set)
    if m.loops():
        raise PreconditionError(f"matroid has loops: {sorted(m.loops())}")
    return m


# ---------------------------------------------------------------------------
# basis scans: the oracles for the cocircuit record of the bitmask matroids


def swap_table_check(m: Matroid) -> None:
    """The exchange check with one scan of the bases per basis B1 and e in
    B1: every basis without e must meet {f : B1 - e + f is a basis}."""
    masks = m._basis_masks
    index = set(masks)
    for b1 in masks:
        for e in _elements(b1):
            rest = b1 & ~(1 << e)
            swaps = _mask(f for f in range(m.n) if rest | 1 << f in index)
            for b2 in masks:
                if not b2 >> e & 1 and not b2 & swaps:
                    raise PreconditionError(
                        f"exchange axiom fails for {list(_elements(b1))}, {list(_elements(b2))} at {e}"
                    )


def swap_table_matroid_from_bases(n: int, bases) -> Matroid:
    """`matroid_from_bases` with `swap_table_check` as its exchange check."""
    with mock.patch.object(matroids, "_check_exchange", swap_table_check):
        return matroids.matroid_from_bases(n, bases)


def closure_search_flats(m: Matroid) -> tuple:
    """(rank, mask) of every flat, ordered by (rank, sorted set): a search up
    from the loops that closes F + e by the basis scan `Matroid._closure`,
    one element per covering flat, and ranks each flat by `Matroid._rank`."""
    ground = (1 << m.n) - 1
    start = m._closure(0)
    seen = {start}
    frontier = [start]
    while frontier:
        f = frontier.pop()
        rest = ground & ~f
        while rest:
            g = m._closure(f | rest & -rest)
            rest &= ~g
            if g not in seen:
                seen.add(g)
                frontier.append(g)
    return tuple(sorted(((m._rank(f), f) for f in seen), key=lambda rf: (rf[0], _elements(rf[1]))))


# ---------------------------------------------------------------------------
# the Möbius function of the lattice of flats: the oracle for the mixed
# degrees of the matroid divisors alpha and beta


def reduced_characteristic_coefficients(m: Matroid) -> list:
    """The unsigned coefficients mu^0, ..., mu^(r-1) of the reduced
    characteristic polynomial chi(t) / (t - 1) of a loopless matroid of rank
    r, from its bases alone: the rank of every subset of the ground set is
    its largest meet with a basis, a flat is a subset that every further
    element raises in rank, and chi(t) = sum over flats F of
    mu(empty, F) t^(r - rank F), with the Möbius function summed up the
    lattice.  The signs of chi(t) / (t - 1) alternate; the remainder is 0."""
    n = m.n
    bases = [_mask(b) for b in m.bases]
    rank = [max((s & b).bit_count() for b in bases) for s in range(1 << n)]
    r = rank[-1]
    flats = sorted(
        (rank[s], s) for s in range(1 << n)
        if all(rank[s | 1 << e] > rank[s] for e in range(n) if not s >> e & 1)
    )
    assert flats[0] == (0, 0), "a loopless matroid's bottom flat is empty"
    mu = {}
    for _, f in flats:
        mu[f] = 1 if f == 0 else -sum(v for g, v in mu.items() if g & f == g)
    chi = [0] * (r + 1)  # chi[j] is the coefficient of t^j
    for k, f in flats:
        chi[r - k] += mu[f]
    reduced = [0] * r  # dividing by t - 1, from the top coefficient down
    carry = 0
    for j in range(r, 0, -1):
        carry += chi[j]
        reduced[j - 1] = carry
    assert carry + chi[0] == 0, "t = 1 is a root of the characteristic polynomial"
    coefficients = [reduced[r - 1 - k] for k in range(r)]
    assert all((-1) ** k * c > 0 for k, c in enumerate(coefficients))
    return [abs(c) for c in coefficients]


def bergman_ray_flats(fan: MarkedFan) -> list:
    """The proper flat of each ray of a Bergman fan, read off its mark: the
    indicator vector of F less its coordinate 0, without coordinate 0, has
    an entry -1 exactly when 0 lies in F."""
    flats = []
    for nums, d in fan.int_marks:
        assert d == 1
        if -1 in nums:
            flats.append(frozenset({0} | {j + 1 for j, x in enumerate(nums) if x == 0}))
        else:
            flats.append(frozenset(j + 1 for j, x in enumerate(nums) if x == 1))
    return flats
