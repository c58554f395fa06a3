import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lorfan.errors import PreconditionError
from lorfan.fan import validate
from lorfan.lorentzian import is_lorentzian
from lorfan.matroids import (
    Matroid,
    _check_exchange,
    bergman_fan,
    complete_graph_matroid,
    fano_matroid,
    graphic_matroid,
    matroid_from_bases,
    uniform_matroid,
)
from lorfan.weights import check_balancing, mixed_degrees

from helpers import (
    FrozensetMatroid,
    bergman_ray_flats,
    closure_search_flats,
    frozenset_matroid_from_bases,
    reduced_characteristic_coefficients,
    swap_table_check,
    swap_table_matroid_from_bases,
)


def spanning_trees_brute(k):
    """Independent oracle: spanning trees of the complete graph on k vertices
    via cycle detection on every edge subset."""
    edges = list(itertools.combinations(range(k), 2))
    trees = set()
    for subset in itertools.combinations(range(len(edges)), k - 1):
        seen = {}
        ok = True
        for ei in subset:
            u, v = edges[ei]
            ru = seen.setdefault(u, u)
            rv = seen.setdefault(v, v)
            while seen[ru] != ru:
                ru = seen[ru]
            while seen[rv] != rv:
                rv = seen[rv]
            if ru == rv:
                ok = False
                break
            seen[ru] = rv
        if ok:
            trees.add(frozenset(subset))
    return trees


def test_uniform_matroid_flats():
    m = uniform_matroid(2, 3)
    assert m.rank == 2
    rank1 = [f for f in m.proper_flats() if m.rank_of(f) == 1]
    assert sorted(sorted(f) for f in rank1) == [[0], [1], [2]]


def test_complete_graph_matroid_is_spanning_trees():
    m = complete_graph_matroid(4)
    assert m.rank == 3
    assert len(m.bases) == 16
    assert m.bases == frozenset(spanning_trees_brute(4))


def test_exchange_violation_rejected():
    with pytest.raises(PreconditionError, match=r"^exchange axiom fails for \[0, 1\], \[2, 3\] at 0$"):
        matroid_from_bases(4, [(0, 1), (2, 3)])


def test_loops_rejected():
    # element 2 is in no basis
    with pytest.raises(PreconditionError):
        matroid_from_bases(3, [(0, 1)])


def test_bergman_u23():
    tf = bergman_fan(uniform_matroid(2, 3))
    assert tf.fan.ambient_dim == 2
    assert set(tf.fan.rays) == {
        (Fraction(-1), Fraction(-1)),
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    assert tf.fan.dimension == 1
    assert check_balancing(tf.fan, tf.weight) == ()


def test_bergman_k4_structure():
    m = complete_graph_matroid(4)
    tf = bergman_fan(m)
    # 6 singleton flats plus 7 rank-two flats
    assert len(tf.fan.rays) == 13
    assert tf.fan.dimension == 2
    assert len(tf.fan.maximal_cones) == 18
    assert check_balancing(tf.fan, tf.weight) == ()
    assert validate(tf.fan).valid


def test_bergman_rank_one_origin_fan():
    tf = bergman_fan(uniform_matroid(1, 2))
    assert tf.fan.dimension == 0
    assert tf.fan.rays == ()
    assert is_lorentzian(tf).verdict


def test_bergman_fans_balanced_and_valid():
    for m in (uniform_matroid(2, 4), uniform_matroid(3, 4), fano_matroid()):
        tf = bergman_fan(m)
        assert check_balancing(tf.fan, tf.weight) == ()


def test_bergman_fans_lorentzian():
    for m in (
        uniform_matroid(2, 3),
        uniform_matroid(2, 4),
        uniform_matroid(3, 4),
        complete_graph_matroid(4),
        fano_matroid(),
    ):
        cert = is_lorentzian(bergman_fan(m))
        assert cert.verdict


def test_bergman_star_inertias_have_one_positive():
    tf = bergman_fan(complete_graph_matroid(4))
    cert = is_lorentzian(tf)
    for record in cert.star_records:
        assert record.inertia.p == 1


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 3)], "graphic matroids need a connected graph; this one has 2 components"),
        ([(0, 1), (1, 2), (0, 2), (3, 4), (5, 6)], "graphic matroids need a connected graph; this one has 3 components"),
        ([], "graphic matroids need a connected graph; this one has 0 components"),
        ([(0, 1), (1, 1)], r"matroid has 1 loops, the first 1: \[1\]"),
    ],
    ids=["two-components", "three-components", "no-edges", "self-loop"],
)
def test_graphic_matroid_refusals(edges, message):
    with pytest.raises(PreconditionError, match=message):
        graphic_matroid(edges)


def test_graphic_matroid_triangle_is_uniform():
    m = graphic_matroid([(0, 1), (1, 2), (0, 2)])
    assert m.bases == uniform_matroid(2, 3).bases


# ---------------------------------------------------------------------------
# the bitmask matroid layer against the frozenset oracle


def _gf2_rank(columns) -> int:
    """Rank over GF(2) of bit-vector columns, by an xor basis keyed on the top bit."""
    basis = {}
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


@st.composite
def base_families(draw):
    """(n, bases, is_matroid): the column matroid of a random 0/1 matrix over
    GF(2) (parallel elements and loops included), that matroid with one basis
    dropped, which the exchange check mostly refuses, or an arbitrary family
    of subsets, usually of one size, that is rarely a matroid."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        columns = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
        r = _gf2_rank(columns)
        bases = [c for c in itertools.combinations(range(n), r) if _gf2_rank([columns[i] for i in c]) == r]
        if len(bases) > 1 and draw(st.booleans()):
            del bases[draw(st.integers(0, len(bases) - 1))]
            return n, bases, False
        return n, bases, True
    if draw(st.booleans()):
        pool = list(itertools.combinations(range(n), draw(st.integers(0, n))))
    else:
        pool = [c for r in range(n + 1) for c in itertools.combinations(range(n), r)]
    return n, draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True)), False


def _accepts(build, n, bases) -> bool:
    try:
        build(n, bases)
    except PreconditionError:
        return False
    return True


@given(base_families())
@settings(max_examples=300, deadline=None)
def test_bitmask_matroids_match_the_frozenset_oracle(family):
    n, bases, is_matroid = family
    assert _accepts(matroid_from_bases, n, bases) == _accepts(frozenset_matroid_from_bases, n, bases)
    base_set = frozenset(frozenset(b) for b in bases)
    fast, slow = Matroid(n, base_set), FrozensetMatroid(n, base_set)
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            assert fast.rank_of(subset) == slow.rank_of(subset)
            assert fast.closure(subset) == slow.closure(subset)
    if is_matroid:
        assert fast.flats() == slow.flats()


def test_bitmask_matroids_match_the_oracle_on_the_named_matroids():
    for m in (uniform_matroid(3, 5), uniform_matroid(4, 6), fano_matroid(), complete_graph_matroid(5)):
        slow = frozenset_matroid_from_bases(m.n, m.bases)
        assert m.flats() == slow.flats()
        assert m.loops() == slow.loops() == frozenset()
        for f in m.flats():
            assert m.closure(f) == f
            assert m.rank_of(f) == slow.rank_of(f)


def test_bergman_fan_leaves_the_face_index_unbuilt():
    """The unit weight and its positivity check read the maximal cones, so
    building the Bergman fan of M(K5) lists no faces."""
    fan = bergman_fan(complete_graph_matroid(5)).fan
    assert "incident" not in vars(fan) and "_cones_by_dim" not in vars(fan)


def test_flats_are_computed_once_per_matroid():
    m = complete_graph_matroid(4)
    assert m._flats is m._flats
    assert len(m.flats()) == 15  # the empty set, 6 edges, 7 rank-two flats, the ground set


def test_loop_refusal_names_the_count_and_the_first_loops():
    with pytest.raises(PreconditionError, match=r"3 loops, the first 3: \[1, 3, 4\]"):
        matroid_from_bases(5, [(0,), (2,)])
    with pytest.raises(PreconditionError, match=r"10 loops, the first 5: \[2, 3, 4, 5, 6\]$"):
        matroid_from_bases(12, [(0, 1)])


def test_negative_ground_set_refused():
    with pytest.raises(PreconditionError):
        matroid_from_bases(-1, [()])


# ---------------------------------------------------------------------------
# the cocircuit record against the basis-scan oracles


def _refusal(call):
    try:
        call()
    except PreconditionError as exc:
        return str(exc)
    return None


def _check_cocircuits(m: Matroid):
    """flats() equals the closure search, and each cocircuit's complement is
    a flat of rank r - 1 in it."""
    oracle = closure_search_flats(m)
    assert m._flats == oracle
    ground = (1 << m.n) - 1
    ranks = {f: k for k, f in oracle}
    assert all(ranks.get(ground & ~c) == m.rank - 1 for c in m._cocircuits)


@given(base_families())
@settings(max_examples=300, deadline=None)
def test_cocircuit_record_matches_the_basis_scans(family):
    n, bases, is_matroid = family
    assert _refusal(lambda: matroid_from_bases(n, bases)) == _refusal(lambda: swap_table_matroid_from_bases(n, bases))
    base_set = frozenset(frozenset(b) for b in bases)
    if len({len(b) for b in base_set}) == 1:
        # the check alone, also past a loop refusal
        fast = _refusal(lambda: _check_exchange(Matroid(n, base_set)))
        assert fast == _refusal(lambda: swap_table_check(Matroid(n, base_set)))
        if is_matroid:
            assert fast is None
            _check_cocircuits(Matroid(n, base_set))


@pytest.mark.parametrize(
    "build, cocircuits",
    [
        (lambda: complete_graph_matroid(4), 7),
        (lambda: complete_graph_matroid(5), 15),
        (fano_matroid, 7),
        (lambda: uniform_matroid(4, 6), 20),
        (lambda: complete_graph_matroid(6), 31),
        (lambda: uniform_matroid(4, 7), 35),
    ],
    ids=["M(K4)", "M(K5)", "Fano", "U(4,6)", "M(K6)", "U(4,7)"],
)
def test_cocircuit_record_of_the_named_matroids(build, cocircuits):
    m = build()
    assert len(m._cocircuits) == cocircuits
    _check_cocircuits(m)


CHARACTERISTIC = {
    "U(3,5)": lambda: uniform_matroid(3, 5),
    "U(4,6)": lambda: uniform_matroid(4, 6),
    "M(K4)": lambda: complete_graph_matroid(4),
    "Fano": fano_matroid,
    "M(K5)": lambda: complete_graph_matroid(5),
}


@pytest.mark.parametrize("name", sorted(CHARACTERISTIC))
def test_alpha_beta_degrees_are_the_reduced_characteristic_polynomial(name):
    """On the Bergman fan of a loopless matroid of rank r, with alpha(F) =
    [e in F] and beta = 1 - alpha at the ray of each proper flat F,
    deg(alpha^(r-1-k) beta^k) is the k-th unsigned coefficient of the
    reduced characteristic polynomial (Huh and Katz, Math. Ann. 354, 2012;
    Adiprasito, Huh and Katz, Ann. of Math. 188, 2018), for every element
    e; here e = 0 and the last element, against the Möbius function of the
    lattice of flats."""
    m = CHARACTERISTIC[name]()
    tf = bergman_fan(m)
    mu = reduced_characteristic_coefficients(m)
    r = len(mu)
    assert tf.dimension == r - 1 and mu[0] == 1
    flats = bergman_ray_flats(tf.fan)
    for e in (0, m.n - 1):
        alpha = tuple(Fraction(e in f) for f in flats)
        beta = tuple(1 - a for a in alpha)
        sequences = [(0,) * (r - 1 - k) + (1,) * k for k in range(r)]
        assert mixed_degrees(tf.fan, tf.weight, [alpha, beta], sequences) == mu, (name, e)
