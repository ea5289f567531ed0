import inspect
import operator
import random
from itertools import product

import pytest

from hodgegap import elliptic
from hodgegap.algebra import FiniteField, Polynomial, discriminant_squarefree, fq_sqrt, primes_upto
from hodgegap.cli import build_report
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


def _search_counts(field):
    # the count find_curve hands its test for each (a2, a4, a6), in the
    # search's order: a test that passes nothing sees every candidate
    seen = []

    def ok(n):
        seen.append(n)
        return False

    with pytest.raises(RuntimeError, match="exhausted"):
        find_curve(field, ok)
    return seen


@pytest.mark.parametrize("q", [5, 7, 9, 11])
def test_count_points_matches_the_point_list_on_every_curve(q):
    # exhaustive: every (a2, a4, a6) over F_q, as the search counts it,
    # against the point list and, over F_p, the pair scan; neither oracle
    # reads a histogram.  A singular cubic has q, q + 1 or q + 2 points,
    # inside the Hasse bound, which is what lets find_curve count a
    # candidate before testing its singularity.
    field = F9 if q == 9 else FiniteField(q)
    searched = _search_counts(field)
    assert len(searched) == q**3
    nonsingular = 0
    for (a2, a4, a6), n in zip(product(field, repeat=3), searched):
        if q != 9:
            assert n == _count_by_pairs(q, *(a.coords[0] for a in (a2, a4, a6)))
        try:
            curve = EllipticCurve(field, a2, a4, a6)
        except ValueError:  # singular
            assert n in (q, q + 1, q + 2)
            continue
        nonsingular += 1
        assert count_points(curve) == n == len(list(curve.points()))
    # singular cubics (x - r)^2 (x - s): q choices of r times q of s
    assert nonsingular == q**3 - q * q


def test_f9_count_on_gaussian_integers_matches_fq_arithmetic():
    # oracle: the cubic evaluated over FqElement, with no histogram and no
    # integer pairs; all 729 coefficient triples, singular cubics included,
    # in the search's order
    roots = F9.square_roots
    naive = [
        1 + sum(len(roots.get((((x + a2) * x + a4) * x + a6).coords, ())) for x in F9)
        for a2, a4, a6 in product(F9, repeat=3)
    ]
    assert _search_counts(F9) == naive


def _translated_root_counts(field):
    # entry a6 is the number of square roots of each element, read from the
    # table, translated by a6 by FqElement addition: entry m counts the y
    # with y^2 = (the m-th element) + a6
    counts = [len(field.square_roots.get(x.coords, ())) for x in field]
    index = {x: m for m, x in enumerate(field)}
    return [tuple(counts[index[x + a6]] for x in field) for a6 in field]


def _row_by_dot_products(field, translated, a2, a4):
    # oracle: each a6's affine count as one dot product, per candidate, of the
    # cubic's histogram over FqElement arithmetic with the translated root
    # counts; no packed integer and no integer pairs
    index = {x: m for m, x in enumerate(field)}
    hist = [0] * field.q
    for x in field:
        hist[index[((x + a2) * x + a4) * x]] += 1
    return [sum(map(operator.mul, hist, shifted)) for shifted in translated]


@pytest.mark.parametrize("p, k", [(5, 1), (7, 1), (11, 1), (3, 2), (7, 2), (11, 2)])
def test_each_row_of_counts_is_one_dot_product_per_a6(p, k):
    # every (a2, a4) row, all q counts, against the oracle; over F_121 a
    # seeded sample of 300 rows, since all 14641 take about 9 s
    field = FiniteField(p, k)
    elements, translated = list(field), _translated_root_counts(field)
    rows = list(product(elements, repeat=2))
    if field.q == 121:
        rows = random.Random(121).sample(rows, 300)
    row_counts = elliptic._row_counter(field)
    for a2, a4 in rows:
        assert row_counts(a2, a4) == _row_by_dot_products(field, translated, a2, a4)


def test_a_row_in_four_byte_slots_matches_direct_dot_products():
    # 2q >= 2^16, so each slot takes 4 bytes; one row, no search, against
    # the histogram on integers dotted with the square-root counts rotated
    # by a6
    p = 32771
    assert 2 * p >= 1 << 16
    field = FiniteField(p)
    a2, a4 = field.from_int(2), field.from_int(5)
    row = elliptic._row_counter(field)(a2, a4)
    hist, counts = [0] * p, [len(field.square_roots.get((x, 0), ())) for x in range(p)]
    for x in range(p):
        hist[((x + 2) * x + 5) * x % p] += 1
    for a6 in (0, 1, 2, 1009, p - 1):
        assert row[a6] == sum(map(operator.mul, hist, counts[a6:] + counts[:a6]))
    # two square roots claimed for every element, on a field of its own:
    # each count reaches 2q, past 2 bytes, and the check reads it whole
    tampered = FiniteField(p)
    tampered.square_roots = {(x, 0): ((0, 0), (1, 0)) for x in range(p)}
    with pytest.raises(ArithmeticError, match=f"Hasse bound violated: {2 * p + 1} points"):
        elliptic._row_counter(tampered)(tampered.from_int(2), tampered.from_int(5))


def test_singular_input_rejected():
    with pytest.raises(ValueError):
        EllipticCurve(F5, 0, 0, 0)  # y^2 = x^3 has a cusp


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (11, 1), (3, 2)])
def test_the_discriminant_rejects_exactly_the_cubics_with_a_repeated_root(p, k):
    # oracle: gcd(f, f') over the field, with no closed form; characteristic
    # 3, where 18 and 27 vanish, included
    field = FiniteField(p, k)
    for a2, a4, a6 in product(field, repeat=3):
        squarefree = discriminant_squarefree(Polynomial(field, [a6, a4, a2, field.one]))
        try:
            EllipticCurve(field, a2, a4, a6)
        except ValueError:
            assert not squarefree
        else:
            assert squarefree


def test_find_curve_raises_past_the_hasse_bound():
    # a field of its own, so the false square roots reach no other test: two
    # claimed for every element put 2 points over every x.  The search's row
    # raises; count_points counts the listing, as tampered, and checks no bound
    f5 = FiniteField(5)
    curve = EllipticCurve(f5, 0, -1, 0)
    f5.square_roots = {(x, 0): ((0, 0), (1, 0)) for x in range(5)}
    assert count_points(curve) == len(list(curve.points())) == 11
    with pytest.raises(ArithmeticError, match="Hasse"):
        find_curve(f5, lambda n: True)


def test_count_points_builds_one_squares_table_per_field():
    # count_points, points(), the search's rows and fq_sqrt read the one
    # square_roots table per field object, built on first use, kept on the
    # field and then handed back as is; there is no second table.  An equal
    # but distinct field builds its own, and fq_sqrt hands back its elements
    f7 = FiniteField(7)
    assert "square_roots" not in vars(f7)
    for b in range(1, 7):
        count_points(EllipticCurve(f7, 0, 0, b))
    roots = vars(f7)["square_roots"]
    assert len(list(EllipticCurve(f7, 0, 0, 1).points())) == 12
    assert fq_sqrt(f7.from_int(2)) == (3, 4)
    elliptic._row_counter(f7)(f7.zero, f7.zero)
    assert f7.square_roots is roots and vars(f7)["square_roots"] is roots
    assert not hasattr(f7, "root_counts")
    other = FiniteField(7)
    assert count_points(EllipticCurve(other, 0, 0, 1)) == count_points(EllipticCurve(f7, 0, 0, 1))
    other_roots = other.square_roots
    assert other_roots == roots and other_roots is not roots
    assert all(y.field is other for y in fq_sqrt(other.from_int(2)))


def test_a_row_read_one_a6_off_fails_the_point_count(monkeypatch):
    # a search whose every a6 reads its neighbour's count picks a curve with
    # the wrong number of points; the report counts that curve's own listing,
    # so its point-count check fails.  At p = 5 every other check passes (at
    # p >= 7 the torsion search fails too), so the count is what catches it
    real = elliptic._row_counter

    def rotated(field):
        row_counts = real(field)
        return lambda a2, a4: (lambda row: row[1:] + row[:1])(row_counts(a2, a4))

    monkeypatch.setattr(elliptic, "_row_counter", rotated)
    failed = {r.id: r.witness for r in build_report(construction(5)).failed()}
    assert failed == {"elliptic.trace_one": "E[y^2 = x^3 + (0)x^2 + (3)x + (0) / GF(5)] with 10 points"}


def _points_by_pairs(curve):
    # oracle: walk all (x, y) in F_q x F_q, infinity first, then x-major
    return [CurvePoint.infinity()] + [
        CurvePoint(x, y) for x in curve.field for y in curve.field if y * y == curve.rhs_poly(x)
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
    assert off.y * off.y != curve.rhs_poly(off.x)
    with pytest.raises(ValueError, match="not on the curve"):
        translation_is_fixed_point_free(curve, off)


def _chord_tangent(curve, p1, p2):
    # oracle: the chord-tangent law on FqElement coordinates, with no
    # integer pairs and no check that the points lie on the curve
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    if p1.x == p2.x:
        if p1.y != p2.y or not p1.y:
            return CurvePoint.infinity()
        # tangent: (3x^2 + 2 a2 x + a4) / 2y, the 3 vanishing mod 3
        num = 3 * (p1.x * p1.x) + 2 * (curve.a2 * p1.x) + curve.a4
        lam = num * (2 * p1.y).inv()
    else:
        lam = (p2.y - p1.y) * (p2.x - p1.x).inv()
    x3 = lam * lam - curve.a2 - p1.x - p2.x
    y3 = lam * (p1.x - x3) - p1.y
    return CurvePoint(x3, y3)


def _seeded_curves(field, n, rng, a2s):
    # n nonsingular curves over field, a2 drawn from a2s, a4 and a6 from field
    elements = list(field)
    curves = []
    while len(curves) < n:
        try:
            curves.append(EllipticCurve(field, rng.choice(a2s), rng.choice(elements), rng.choice(elements)))
        except ValueError:  # singular
            continue
    return curves


def _law_curves(q):
    # four seeded nonsingular curves over F_q, or the report's own p = 3 curve
    if q == "report-p3":
        return [construction(3).elliptic[0]]
    field = F9 if q == 9 else FiniteField(q)
    return _seeded_curves(field, 4, random.Random(q), list(field))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, "report-p3"])  # p = 1 and 3 (mod 4)
def test_pair_law_matches_the_fq_chord_tangent(q):
    # every ordered pair of points, so doubling, Q + (-Q), Q + O and the
    # doubling of a point with y = 0 all occur, on curves with a2 != 0; then
    # k*Q for 0 <= k <= #E against the oracle's iterated sums
    curves = _law_curves(q)
    assert any(curve.a2 for curve in curves)
    two_torsion = 0
    for curve in curves:
        pts = _points_by_pairs(curve)
        two_torsion += sum(1 for pt in pts[1:] if not pt.y)
        for a, b in product(pts, repeat=2):
            assert add_points(curve, a, b) == _chord_tangent(curve, a, b)
        for pt in pts:
            expected = CurvePoint.infinity()
            for k in range(len(pts) + 1):
                assert scalar_mul(curve, k, pt) == expected
                expected = _chord_tangent(curve, expected, pt)
            assert expected == pt  # #E * Q = O, and one more Q
    assert two_torsion


@pytest.mark.parametrize("p", [p for p in primes_upto(83) if p % 4 == 3 and p >= 7])
def test_pair_law_matches_the_fq_chord_tangent_on_sampled_sums_over_fp2(p):
    # F_p[i] past F_9, where every ordered pair is too many: two seeded
    # curves with a2 != 0, and on each 200 seeded pairs of an affine Q and
    # any R, the sums Q + R, Q + Q and Q + (-Q)
    field = FiniteField(p, 2)
    rng = random.Random(p)
    for curve in _seeded_curves(field, 2, rng, list(field)[1:]):
        pts = list(curve.points())
        for _ in range(200):
            q, r = rng.choice(pts[1:]), rng.choice(pts)
            for a, b in ((q, r), (q, q), (q, CurvePoint(q.x, -q.y))):
                assert add_points(curve, a, b) == _chord_tangent(curve, a, b)


def _over(field, pt):
    # pt with the same integer coordinates, as elements of another field
    return CurvePoint(*(field.from_int(c.coords[0]) for c in pt))


def _fields_apart():
    # a point of an F_5 curve made over F_7, a point of an F_3 curve made
    # over F_9, and the F_5 point with its y over F_7: as integer pairs each
    # still lies on its curve, so only the field check can reject them
    f5_curve = find_ordinary_with_trace_one(5)
    f3_curve = EllipticCurve(FiniteField(3), 1, 0, 1)
    f5_pt, f3_pt = (list(curve.points())[1] for curve in (f5_curve, f3_curve))
    f7_pt = _over(FiniteField(7), f5_pt)
    mixed = CurvePoint(f5_pt.x, f7_pt.y)
    return [(f5_curve, f7_pt), (f3_curve, _over(F9, f3_pt)), (f5_curve, mixed)]


@pytest.mark.parametrize("curve, pt", _fields_apart(), ids=["F7-on-F5", "F9-on-F3", "mixed"])
def test_a_point_over_another_field_is_rejected_at_the_boundary(curve, pt):
    inf = CurvePoint.infinity()
    for call in (
        lambda: add_points(curve, pt, inf),
        lambda: add_points(curve, inf, pt),
        lambda: scalar_mul(curve, 0, pt),
        lambda: scalar_mul(curve, 2, pt),
        lambda: translation_is_fixed_point_free(curve, pt),
    ):
        with pytest.raises(ValueError, match="different field"):
            call()


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


# PR 34's three mutants of the pair law, each as edits of its source
_ADD_MUTANTS = {
    "conjugate-sign-in-slope": [(
        "(nu * du + nv * dv) * w % p, (nv * du - nu * dv) * w % p",
        "(nu * du - nv * dv) * w % p, (nv * du + nu * dv) * w % p",
    )],
    "no-a2-in-tangent": [
        (" + 2 * (b2 * r1 - c2 * s1) + b4", " + b4"),
        (" + 2 * (b2 * s1 + c2 * r1) + c4", " + c4"),
    ],
    "y3-i-part-negated": [(
        "(lu * (s1 - s3) + lv * (r1 - r3) - v1) % p",
        "-(lu * (s1 - s3) + lv * (r1 - r3) - v1) % p",
    )],
}


@pytest.mark.parametrize("name", _ADD_MUTANTS)
def test_the_p3_report_fails_a_wrong_group_law(name, monkeypatch):
    # the first and third mutants keep every sum Q + P that the torsion
    # search checks on the curve: only the translation check sees them, by a
    # sum off the curve.  The second breaks a doubling in the torsion search
    source = inspect.getsource(elliptic._add)
    for old, new in _ADD_MUTANTS[name]:
        assert source.count(old) == 1
        source = source.replace(old, new)
    namespace = dict(vars(elliptic))
    exec(source, namespace)
    monkeypatch.setattr(elliptic, "_add", namespace["_add"])
    failed = {r.id: r.witness for r in build_report(construction(3)).failed()}
    assert failed and all(cid.startswith("elliptic.") for cid in failed)
    assert None not in failed.values()
    if name != "no-a2-in-tangent":
        assert list(failed) == ["elliptic.translation_free"]
        assert failed["elliptic.translation_free"].endswith(", off the curve")


@pytest.mark.parametrize("law", ["identity", "constant"])
def test_a_wrong_law_fails_the_translation_check_at_its_first_bad_point(law, monkeypatch):
    # two laws whose sums all lie on the curve: Q + P = Q, a permutation
    # fixing every point, and Q + P = L, the last listed point, which first
    # repeats at the first affine point Q1 (O + P = L is neither O nor off
    # the curve); the torsion point is found before the law is patched
    c = construction(5)
    curve, pt = c.elliptic
    listing = list(elliptic._listing(curve.field, elliptic._coefficients(curve)))
    sums = {"identity": lambda coeffs, a, b: a, "constant": lambda coeffs, a, b: listing[-1]}
    monkeypatch.setattr(elliptic, "_add", sums[law])
    assert not translation_is_fixed_point_free(curve, pt)
    witness = {r.id: r.witness for r in build_report(c).failed()}["elliptic.translation_free"]
    first, last = (elliptic._to_point(curve.field, listing[i]) for i in (1, -1))
    expected = {"identity": f"O + {pt!r} = O", "constant": f"{first!r} + {pt!r} = {last!r} = O + {pt!r}"}
    assert witness == expected[law]


@pytest.mark.parametrize("counts, n", [((1, 0, 0, 0, 0), 1), ((2, 2, 2, 2, 0), 11)])
def test_a_row_past_the_hasse_bound_at_one_end_raises(counts, n):
    # a false square-root table on a field of its own, with counts[u] roots
    # of u: with the histogram (3, 1, 0, 0, 1) of x^3 - x over F_5, the
    # first gives the row 4, 2, 1, 1, 2 points (only its least is out of
    # bounds), the second 9, 11, 11, 9, 5 (only its greatest)
    f5 = FiniteField(5)
    f5.square_roots = {(u, 0): ((0, 0), (1, 0))[:c] for u, c in enumerate(counts) if c}
    with pytest.raises(ArithmeticError, match=f"Hasse bound violated: {n} points"):
        elliptic._row_counter(f5)(f5.zero, f5.from_int(-1))
