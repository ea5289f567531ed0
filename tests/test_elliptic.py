import random
from itertools import product

import pytest

from hodgegap import elliptic
from hodgegap.algebra import FiniteField, fq_sqrt, primes_upto
from hodgegap.curves import construction
from hodgegap.elliptic import (
    CurvePoint,
    EllipticCurve,
    add_points,
    count_points,
    find_curve,
    find_ordinary_with_trace_one,
    scalar_mul,
    torsion_point_of_exact_order,
    translation_is_fixed_point_free,
)

F5 = FiniteField(5)
F9 = FiniteField(3, 2)


def _count_by_pairs(p, a2, a4, a6):
    # oracle: walk all (x, y) in F_p x F_p and count solutions, plus infinity
    return 1 + sum(
        1
        for x, y in product(range(p), repeat=2)
        if (y * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
    )


def _discriminant(a2, a4, a6):
    # of x^3 + a2 x^2 + a4 x + a6: zero mod p exactly when it has a repeated root
    return (
        a2 * a2 * a4 * a4
        - 4 * a4**3
        - 4 * a2**3 * a6
        - 27 * a6 * a6
        + 18 * a2 * a4 * a6
    )


def test_count_examples():
    assert count_points(EllipticCurve(F5, 0, -1, 0)) == _count_by_pairs(5, 0, -1, 0) == 8
    assert count_points(EllipticCurve(F5, 0, 0, 1)) == _count_by_pairs(5, 0, 0, 1) == 6


@pytest.mark.parametrize("q", [5, 7, 9])
def test_count_points_matches_the_point_list_on_every_curve(q):
    # exhaustive: every (a2, a4, a6) over F_q, against the point list and,
    # over F_p, the pair scan; neither oracle runs the integer kernel.  A
    # singular cubic has q, q + 1 or q + 2 points, inside the Hasse bound, which
    # is what lets find_curve count a candidate before testing its singularity.
    field = F9 if q == 9 else FiniteField(q)
    nonsingular = 0
    for a2, a4, a6 in product(field, repeat=3):
        try:
            curve = EllipticCurve(field, a2, a4, a6)
        except ValueError:  # singular
            assert elliptic._count(field, a2, a4, a6) in (q, q + 1, q + 2)
            continue
        nonsingular += 1
        n = count_points(curve)
        assert n == len(list(curve.points()))
        if q != 9:
            assert n == _count_by_pairs(q, *(a.coords[0] for a in (a2, a4, a6)))
    # singular cubics (x - r)^2 (x - s): q choices of r times q of s
    assert nonsingular == q**3 - q * q


def test_f9_count_on_gaussian_integers_matches_fq_arithmetic():
    # oracle: the cubic evaluated over FqElement, as the count did before it
    # ran Horner's rule on integer pairs; all 729 coefficient triples,
    # singular cubics included
    roots = F9.square_roots
    for a2, a4, a6 in product(F9, repeat=3):
        naive = 1 + sum(len(roots.get(((x + a2) * x + a4) * x + a6, ())) for x in F9)
        assert elliptic._count(F9, a2, a4, a6) == naive, (a2, a4, a6)


def test_singular_input_rejected():
    with pytest.raises(ValueError):
        EllipticCurve(F5, 0, 0, 0)  # y^2 = x^3 has a cusp


def test_count_points_raises_past_the_hasse_bound():
    # a field of its own, so the false root counts reach no other test
    f5 = FiniteField(5)
    curve = EllipticCurve(f5, 0, -1, 0)
    f5.root_counts = (2,) * f5.q
    with pytest.raises(ArithmeticError, match="Hasse"):  # 2 points over every x
        count_points(curve)
    with pytest.raises(ArithmeticError, match="Hasse"):
        find_curve(f5, lambda n: True)


def test_count_points_builds_one_squares_table_per_field():
    # count_points reads one root-count tuple per field object, built from the
    # one square_roots table that points() and fq_sqrt read; each is built on
    # first use, kept on the field and then handed back as is.  An equal but
    # distinct field builds its own, of its own elements
    f7 = FiniteField(7)
    assert not {"square_roots", "root_counts"} & set(vars(f7))
    for b in range(1, 7):
        count_points(EllipticCurve(f7, 0, 0, b))
    assert len(list(EllipticCurve(f7, 0, 0, 1).points())) == 12
    assert fq_sqrt(f7.from_int(2)) == 3
    roots, counts = vars(f7)["square_roots"], vars(f7)["root_counts"]
    assert f7.square_roots is roots and f7.root_counts is counts
    other = FiniteField(7)
    assert count_points(EllipticCurve(other, 0, 0, 1)) == count_points(EllipticCurve(f7, 0, 0, 1))
    assert other.root_counts == counts
    assert other.root_counts is not counts
    other_roots = other.square_roots
    assert other_roots == roots
    assert all(y.field is other for ys in other_roots.values() for y in ys)


def _points_by_pairs(curve):
    # oracle: walk all (x, y) in F_q x F_q, infinity first, then x-major
    return [CurvePoint.infinity()] + [
        CurvePoint(x, y) for x in curve.field for y in curve.field if y * y == curve.rhs(x)
    ]


@pytest.mark.parametrize("q", [5, 7, 9])
def test_points_match_the_pair_scan(q):
    field = F9 if q == 9 else FiniteField(q)
    rng = random.Random(q)
    elements = list(field)
    tested = [construction(3).elliptic[0]] if q == 9 else []
    while len(tested) < 12:
        try:
            tested.append(EllipticCurve(field, *(rng.choice(elements) for _ in range(3))))
        except ValueError:  # singular
            continue
    for curve in tested:
        pts = list(curve.points())
        assert pts == _points_by_pairs(curve)
        assert len(pts) == count_points(curve)


def test_hasse_bound_over_f7():
    f7 = FiniteField(7)
    for a in range(7):
        for b in range(7):
            if (4 * a**3 + 27 * b**2) % 7 == 0:
                continue
            n = count_points(EllipticCurve(f7, 0, a, b))
            assert (8 - n) ** 2 <= 28


def test_trace_one_search_is_deterministic_p5():
    curve = find_ordinary_with_trace_one(5)
    # frozen via an independent integer enumeration: first lexicographic hit
    assert (curve.a4, curve.a6) == (F5.from_int(3), F5.from_int(2))
    assert count_points(curve) == 5


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23])
def test_trace_one_search(p):
    curve = find_ordinary_with_trace_one(p)
    assert count_points(curve) == p
    # prime order group: every non-identity point has exact order p
    pts = list(curve.points())
    assert len(pts) == p
    for q in pts[1:]:
        assert scalar_mul(curve, p, q).is_infinity
        assert not any(scalar_mul(curve, m, q).is_infinity for m in range(1, p))


def test_p3_curve():
    curve, pt = construction(3).elliptic
    n = count_points(curve)
    trace = curve.q + 1 - n
    assert n % 3 == 0
    assert trace % 3 != 0  # ordinary
    assert not pt.is_infinity
    assert scalar_mul(curve, 3, pt).is_infinity
    assert not scalar_mul(curve, 1, pt).is_infinity
    assert not scalar_mul(curve, 2, pt).is_infinity
    # frozen first hit of the coefficient scan
    f9 = curve.field
    assert (curve.a2, curve.a4, curve.a6) == (f9.one, f9.zero, f9.one)
    assert n == 12
    # (1, 0) has order 2, so "P != O and 4P = O" would not pin order 4
    with pytest.raises(ValueError, match="not prime"):
        torsion_point_of_exact_order(curve, 4)


def test_group_law_basics():
    curve = find_ordinary_with_trace_one(5)
    pts = list(curve.points())
    inf = CurvePoint.infinity()
    for q in pts:
        assert add_points(curve, q, inf) == q
        if not q.is_infinity:
            assert add_points(curve, q, CurvePoint(q.x, -q.y)).is_infinity
        assert scalar_mul(curve, count_points(curve), q).is_infinity
    with pytest.raises(ValueError):
        add_points(curve, CurvePoint(F5.from_int(0), F5.from_int(1)), inf)


def p3_elliptic_factor():
    return construction(3).elliptic


@pytest.mark.parametrize("maker", [lambda: find_ordinary_with_trace_one(7), p3_elliptic_factor])
def test_group_law_associativity(maker):
    made = maker()
    curve = made[0] if isinstance(made, tuple) else made
    pts = list(curve.points())
    rng = random.Random(1009)
    for _ in range(50):
        a, b, c = (rng.choice(pts) for _ in range(3))
        left = add_points(curve, add_points(curve, a, b), c)
        right = add_points(curve, a, add_points(curve, b, c))
        assert left == right


@pytest.mark.parametrize("maker", [lambda: find_ordinary_with_trace_one(7), p3_elliptic_factor])
def test_scalar_mul_is_iterated_addition(maker):
    made = maker()
    curve = made[0] if isinstance(made, tuple) else made
    for q in curve.points():
        expected = CurvePoint.infinity()
        for k in range(7):
            assert scalar_mul(curve, k, q) == expected
            expected = add_points(curve, expected, q)


def test_torsion_point_selection():
    curve = find_ordinary_with_trace_one(5)
    pt = torsion_point_of_exact_order(curve, 5)
    assert pt == next(q for q in curve.points() if not q.is_infinity)
    with pytest.raises(ValueError):
        torsion_point_of_exact_order(curve, 1)
    with pytest.raises(ValueError):
        torsion_point_of_exact_order(curve, 3)  # 3 does not divide 5


def test_translation_freeness():
    curve = find_ordinary_with_trace_one(7)
    pt = torsion_point_of_exact_order(curve, 7)
    assert translation_is_fixed_point_free(curve, pt)
    assert not translation_is_fixed_point_free(curve, CurvePoint.infinity())


def test_translation_rejects_a_point_off_the_curve():
    curve = find_ordinary_with_trace_one(7)
    pt = torsion_point_of_exact_order(curve, 7)
    off = CurvePoint(pt.x, pt.y + 1)
    assert not curve.contains(off)
    with pytest.raises(ValueError, match="not on the curve"):
        translation_is_fixed_point_free(curve, off)


def test_searches_exist_for_medium_primes():
    for p in primes_upto(43):
        if p < 5:
            continue
        assert count_points(find_ordinary_with_trace_one(p)) == p


def _first_trace_one_by_integers(p):
    # oracle: scan (a4, a6) in integer order, skipping 4 a4^3 + 27 a6^2 = 0,
    # and count each curve by walking F_p x F_p
    for a4 in range(p):
        for a6 in range(p):
            if (4 * a4**3 + 27 * a6**2) % p and _count_by_pairs(p, 0, a4, a6) == p:
                return a4, a6
    raise AssertionError(f"no trace-one curve over F_{p}")


@pytest.mark.parametrize("p", [p for p in primes_upto(61) if p >= 5])
def test_general_search_finds_the_short_weierstrass_hit(p):
    # find_curve scans a2 first; a2 = 0 covers every curve over F_p up to
    # isomorphism, so its first hit is the first short-model hit
    curve = find_ordinary_with_trace_one(p)
    assert curve.a2 == curve.field.zero
    assert (curve.a4.coords[0], curve.a6.coords[0]) == _first_trace_one_by_integers(p)


def test_find_curve_skips_singular_candidates_and_follows_the_test():
    # y^2 = x^3 (a2 = a4 = a6 = 0) is singular with q + 1 = 6 points: it passes
    # the test first, and the search must still skip it.  The hit is the first
    # candidate in (a2, a4, a6) order that is nonsingular and has 6 points, and
    # the test sees every candidate's count up to it, in that order.
    candidates = list(product(range(5), repeat=3))
    hit = next(
        i
        for i, (a2, a4, a6) in enumerate(candidates)
        if _discriminant(a2, a4, a6) % 5 and _count_by_pairs(5, a2, a4, a6) == 6
    )
    seen = []

    def ok(n):
        seen.append(n)
        return n == 6

    curve = find_curve(F5, ok)
    assert (curve.a2, curve.a4, curve.a6) == tuple(map(F5.from_int, candidates[hit]))
    assert seen == [_count_by_pairs(5, *c) for c in candidates[: hit + 1]]
    assert seen[0] == 6 and hit > 0
    with pytest.raises(RuntimeError, match="exhausted"):
        find_curve(F5, lambda n: False)
