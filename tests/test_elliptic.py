import random
from itertools import product

import pytest

from hodgegap.algebra import FiniteField, primes_upto
from hodgegap.elliptic import (
    CurvePoint,
    EllipticCurve,
    add_points,
    count_points,
    find_ordinary_with_trace_one,
    find_p3_curve,
    negate_point,
    scalar_mul,
    torsion_point_of_exact_order,
    translation_is_fixed_point_free,
)

F5 = FiniteField(5)


def _count_by_pairs(p, a4, a6):
    # oracle: walk all (x, y) in F_p x F_p and count solutions, plus infinity
    return 1 + sum(
        1 for x, y in product(range(p), repeat=2) if (y * y - x**3 - a4 * x - a6) % p == 0
    )


def test_count_examples():
    assert count_points(EllipticCurve(F5, 0, -1, 0)) == _count_by_pairs(5, -1, 0) == 8
    assert count_points(EllipticCurve(F5, 0, 0, 1)) == _count_by_pairs(5, 0, 1) == 6


def test_singular_input_rejected():
    with pytest.raises(ValueError):
        EllipticCurve(F5, 0, 0, 0)  # y^2 = x^3 has a cusp


def test_count_points_raises_past_the_hasse_bound(monkeypatch):
    curve = EllipticCurve(F5, 0, -1, 0)
    monkeypatch.setattr(curve, "rhs", lambda x: F5.one)  # 2 points over every x
    with pytest.raises(ArithmeticError, match="Hasse"):
        count_points(curve)


def test_count_points_builds_one_squares_table_per_field():
    from hodgegap import elliptic

    f7 = FiniteField(7)
    elliptic._square_counts.cache_clear()
    for b in range(1, 7):
        count_points(EllipticCurve(f7, 0, 0, b))
    count_points(EllipticCurve(FiniteField(7), 0, 0, 1))
    assert elliptic._square_counts.cache_info().misses == 1


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
    curve, pt = find_p3_curve()
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


def test_group_law_basics():
    curve = find_ordinary_with_trace_one(5)
    pts = list(curve.points())
    inf = CurvePoint.infinity()
    for q in pts:
        assert add_points(curve, q, inf) == q
        assert add_points(curve, q, negate_point(curve, q)).is_infinity
        assert scalar_mul(curve, count_points(curve), q).is_infinity
    with pytest.raises(ValueError):
        add_points(curve, CurvePoint(F5.from_int(0), F5.from_int(1)), inf)


@pytest.mark.parametrize("maker", [lambda: find_ordinary_with_trace_one(7), find_p3_curve])
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


def test_searches_exist_for_medium_primes():
    for p in primes_upto(43):
        if p < 5:
            continue
        assert count_points(find_ordinary_with_trace_one(p)) == p
