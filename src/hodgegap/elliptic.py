"""Elliptic curves over small finite fields, at exhaustive-search scale.

Curves are kept in the form y^2 = x^3 + a2*x^2 + a4*x + a6 (characteristic
never 2 here); the short Weierstrass case is a2 = 0, and the a2 term is what
makes characteristic 3 work.

Past the :class:`CurvePoint`s that the public functions take and return,
everything runs on integers: the pairs (u, v) that are the elements' own
coordinates, u + v*i with i^2 = -1 over F_9 = F_3[i], the one non-prime
field, and v = 0 over F_p.  One chord-tangent law on such pairs serves both
fields; the point listing (lazy, in O(q), each x reading the root pairs of
rhs(x) from the field's ``square_roots``), scalar multiples, the torsion
search, the translation check and :func:`count_points` run on it.

The one coefficient search, :func:`find_curve`, counts otherwise: it splits
the cubic at its constant term, one histogram of x^3 + a2*x^2 + a4*x by one
Horner step per x (plain ints over F_p, pairs over F_9), then, for all q
values of a6 at once, its correlation with the number of square roots of
each element over the additive group of the field, as one integer product
with small fixed-width slots (:func:`_row_counter`).  It scans
(a2, a4, a6) in the field's canonical order, so results are deterministic,
builds one row of counts per (a2, a4) and tests singularity only on a
candidate whose count passes.  So the report's point count, taken from the
chosen curve's own listing, checks the search's row against an independent
count.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Optional

from .algebra import (
    FiniteField,
    FqElement,
    Polynomial,
    is_prime,
    power,
)


class CurvePoint(NamedTuple):
    x: Optional[FqElement]
    y: Optional[FqElement]

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return "O" if self.is_infinity else f"({self.x}, {self.y})"


class EllipticCurve:
    def __init__(self, field: FiniteField, a2, a4, a6):
        if field.p == 2:
            raise ValueError("characteristic 2 is out of scope")
        self.field = field
        self.a2 = field.coerce(a2)
        self.a4 = field.coerce(a4)
        self.a6 = field.coerce(a6)
        a2, a4, a6 = self.a2, self.a4, self.a6
        # the cubic's discriminant, zero exactly when it has a repeated root
        disc = a2 * a2 * (a4 * a4 - 4 * a2 * a6) - 4 * a4 * a4 * a4 + (18 * a2 * a4 - 27 * a6) * a6
        if not disc:
            raise ValueError("singular curve: x^3 + a2 x^2 + a4 x + a6 has a repeated root")
        self.rhs_poly = Polynomial(field, [a6, a4, a2, field.one])

    @property
    def q(self) -> int:
        return self.field.q

    def points(self) -> Iterator[CurvePoint]:
        """All rational points, infinity first, then in field order on x, y:
        the pair listing as CurvePoints, a wrapper that the API and the tests
        call."""
        return (_to_point(self.field, pt) for pt in _listing(self.field, _coefficients(self)))

    def __repr__(self) -> str:
        return f"E[y^2 = x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6}) / GF({self.q})]"


# the byte order that memoryview.cast reads slots in: the machine's own
_ORDER = "little" if memoryview(b"\1\0").cast("H")[0] == 1 else "big"


def _pack(values: list, w: int) -> int:
    """values, each below 256, as one int with value i in the i-th slot of
    w bytes, in :data:`_ORDER`: the product of two such ints, written back at
    its full length, holds their convolution slot by slot while no slot
    overflows."""
    buf = bytearray(w * len(values))
    buf[(w - 1) * (_ORDER == "big") :: w] = values
    return int.from_bytes(buf, _ORDER)


def _cubic_histogram(field: FiniteField, a2: FqElement, a4: FqElement) -> list[int]:
    """Entry u + 3p*v is the number of x in the field with x^3 + a2 x^2 + a4 x
    equal to u + v*i, found by one Horner step per x on integers: plain ints
    over F_p, and over F_9 = F_3[i] the pair cubic :func:`_rhs` on
    Gaussian-integer pairs x = r + s*i, i^2 = -1.  The second coordinate's
    stride 3p is the layout of :func:`_row_counter`'s product."""
    p, q = field.p, field.q
    hist = [0] * (3 * (q - p) + p)
    if field.k == 1:
        b2, b4 = a2.coords[0], a4.coords[0]
        for x in range(p):
            hist[((x + b2) * x + b4) * x % p] += 1
    else:
        coeffs = (p, a2.coords, a4.coords, (0, 0))
        for m in range(q):
            u, v = _rhs(coeffs, (m % p, m // p))
            hist[u + 3 * p * v] += 1
    return hist


def _row_counter(field: FiniteField) -> Callable[[FqElement, FqElement], list[int]]:
    """The function from (a2, a4) to the affine point counts of
    y^2 = x^3 + a2 x^2 + a4 x + a6 for every a6, in the field's canonical
    order, singular or not, each checked against the Hasse bound (which a
    singular cubic, with q, q + 1 or q + 2 points, never crosses).

    With H the :func:`_cubic_histogram` and R[m] the number of square roots
    of the m-th element in canonical order, read from the field's
    ``square_roots``, the count at a6 = c is the correlation
    sum_m H[m] R[m + c] over the additive group (Z/p)^k, and one integer
    product (Kronecker substitution; Harvey, *J. Symb. Comput.* 44, 2009):
    H and R lie with the second coordinate at stride 3p, R doubled in each
    coordinate and reversed, and the count at c = c0 + c1*i is the
    product's slot top - (c0 + 3p*c1).  No slot exceeds 2q, so 2-byte slots
    serve while 2q < 2^16 and 4-byte slots above, and ``memoryview.cast``
    reads the q counts back."""
    p, q, s, table = field.p, field.q, 3 * field.p, field.square_roots
    counts = [len(table.get((m % p, m // p), ())) for m in range(q)]
    w, fmt = (2, "H") if 2 * q < 1 << 16 else (4, "I")
    grid = []
    for j in range(2 * q // p - 1):  # each coordinate of m + c is below 2p - 1
        row = counts[j % p * p : j % p * p + p]
        grid += row + row + [0] * p
    del grid[-p - 1 :]  # past the last entry that m + c reaches
    roots, top = _pack(grid[::-1], w), len(grid) - 1

    def row_counts(a2: FqElement, a4: FqElement) -> list[int]:
        hist = _cubic_histogram(field, a2, a4)
        product = (_pack(hist, w) * roots).to_bytes(w * (len(hist) + top), _ORDER)
        slots, found = memoryview(product).cast(fmt)[top::-1], []
        for v in range(0, s * q // p, s):
            found += slots[v : v + p]
        for n in min(found), max(found):
            if (q - n) ** 2 > 4 * q:
                raise ArithmeticError(f"Hasse bound violated: {n + 1} points over F_{q} (bug)")
        return found

    return row_counts


def count_points(curve: EllipticCurve) -> int:
    """Exact number of rational points, point at infinity included: the
    length of the curve's own point listing, which reads the square-root
    table but not the row counts that :func:`find_curve` chose the curve by,
    so a wrong row fails the report's count instead of passing it."""
    return sum(1 for _ in _listing(curve.field, _coefficients(curve)))


# The group law on integer pairs: an element's ``coords``, the pair (u, v) of
# integers in [0, p) with u + v*i the element, v = 0 over F_p (see
# ``algebra``), so one law serves both fields.  A point is None, the point at
# infinity, or (x, y), two pairs; a curve is its ``coeffs`` (p, a2, a4, a6),
# the coefficients as pairs.  FqElements appear only at the boundary: the
# CurvePoints given and returned.


def _coefficients(curve: EllipticCurve) -> tuple:
    """(p, a2, a4, a6): the characteristic and the coefficients' pairs."""
    return curve.field.p, curve.a2.coords, curve.a4.coords, curve.a6.coords


def _to_pairs(curve: EllipticCurve, pt: CurvePoint):
    """pt on pairs, unchecked against the curve; ValueError when a coordinate
    belongs to another field."""
    if pt.is_infinity:
        return None
    return curve.field.coerce(pt.x).coords, curve.field.coerce(pt.y).coords


def _to_point(field: FiniteField, pt) -> CurvePoint:
    """The :class:`CurvePoint` of pt, a point on pairs."""
    if pt is None:
        return CurvePoint.infinity()
    return CurvePoint(*(FqElement(field, w) for w in pt))


def _rhs(coeffs: tuple, x: tuple[int, int]) -> tuple[int, int]:
    """x^3 + a2 x^2 + a4 x + a6 at the pair x, by Horner."""
    p, (b2, c2), (b4, c4), (b6, c6) = coeffs
    r, s = x
    u, v = r + b2, s + c2
    u, v = u * r - v * s + b4, u * s + v * r + c4
    return (u * r - v * s + b6) % p, (u * s + v * r + c6) % p


def _checked(coeffs: tuple, pt):
    """pt, once y^2 = x^3 + a2 x^2 + a4 x + a6 holds at it (or it is None)."""
    if pt is not None:
        (u, v), p = pt[1], coeffs[0]
        if ((u * u - v * v) % p, 2 * u * v % p) != _rhs(coeffs, pt[0]):
            raise ValueError("point not on the curve")
    return pt


def _add(coeffs: tuple, pt1, pt2):
    """pt1 + pt2 by the chord-tangent law, on two points already known to lie
    on the curve, unchecked."""
    if pt1 is None:
        return pt2
    if pt2 is None:
        return pt1
    p, (b2, c2), (b4, c4), _ = coeffs
    (r1, s1), (u1, v1) = pt1
    (r2, s2), (u2, v2) = pt2
    if r1 == r2 and s1 == s2:
        if u1 != u2 or v1 != v2 or not (u1 or v1):
            return None
        # tangent: (3x^2 + 2 a2 x + a4) / 2y, the 3 vanishing mod 3
        nu = 3 * (r1 * r1 - s1 * s1) + 2 * (b2 * r1 - c2 * s1) + b4
        nv = 6 * r1 * s1 + 2 * (b2 * s1 + c2 * r1) + c4
        du, dv = 2 * u1, 2 * v1
    else:  # chord: (y2 - y1) / (x2 - x1)
        nu, nv, du, dv = u2 - u1, v2 - v1, r2 - r1, s2 - s1
    # the slope n / d = n * conj(d) / norm(d)
    w = pow(du * du + dv * dv, -1, p)
    lu, lv = (nu * du + nv * dv) * w % p, (nv * du - nu * dv) * w % p
    r3, s3 = (lu * lu - lv * lv - b2 - r1 - r2) % p, (2 * lu * lv - c2 - s1 - s2) % p
    return (r3, s3), (
        (lu * (r1 - r3) - lv * (s1 - s3) - u1) % p,
        (lu * (s1 - s3) + lv * (r1 - r3) - v1) % p,
    )


def _listing(field: FiniteField, coeffs: tuple) -> Iterator:
    """Every rational point on pairs, lazily, in :meth:`EllipticCurve.points`
    order: None, then x in the field's canonical order and, for each x, the
    root pairs of rhs(x) read from ``field.square_roots``."""
    yield None
    p, roots = field.p, field.square_roots
    for m in range(field.q):
        x = (m % p, m // p)
        for y in roots.get(_rhs(coeffs, x), ()):
            yield x, y


def _multiple(coeffs: tuple, k: int, pt):
    """k*pt, k >= 0, by :func:`~hodgegap.algebra.power` under :func:`_add`,
    each summand checked on the curve."""
    return power(pt, k, lambda a, b: _add(coeffs, _checked(coeffs, a), _checked(coeffs, b)), None)


def add_points(curve: EllipticCurve, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 = x^3 + a2 x^2 + a4 x + a6: both points
    checked on the curve, then the pair law.  A wrapper that the API and
    the tests call; the report's checks run on pairs."""
    coeffs = _coefficients(curve)
    pt1, pt2 = (_checked(coeffs, _to_pairs(curve, pt)) for pt in (p1, p2))
    return _to_point(curve.field, _add(coeffs, pt1, pt2))


def scalar_mul(curve: EllipticCurve, k: int, pt: CurvePoint) -> CurvePoint:
    """k*pt, k >= 0, by :func:`~hodgegap.algebra.power` under the pair law,
    each summand checked on the curve as :func:`add_points` checks its
    operands."""
    coeffs = _coefficients(curve)
    return _to_point(curve.field, _multiple(coeffs, k, _to_pairs(curve, pt)))


def find_curve(field: FiniteField, ok: Callable[[int], bool]) -> EllipticCurve:
    """The first nonsingular y^2 = x^3 + a2 x^2 + a4 x + a6 over ``field``, in
    lexicographic (a2, a4, a6) order, with ``ok(#points)``: the one
    coefficient search, which every elliptic factor comes from.  Each
    (a2, a4) row of counts comes from one integer product
    (:func:`_row_counter`), and ``ok`` sees them in a6's canonical order; only
    a candidate whose count passes is built as an :class:`EllipticCurve`,
    which rejects it if singular."""
    p, row_counts = field.p, _row_counter(field)
    for a2 in field:
        for a4 in field:
            for m, n in enumerate(row_counts(a2, a4)):
                if not ok(n + 1):
                    continue
                try:
                    return EllipticCurve(field, a2, a4, FqElement(field, (m % p, m // p)))
                except ValueError:  # singular
                    continue
    raise RuntimeError(f"no curve over {field} passes the test: search exhausted")


def find_ordinary_with_trace_one(p: int) -> EllipticCurve:
    """The first curve over F_p with exactly p rational points.  Every curve
    over F_p, p >= 5, has a short model and a trace-one curve exists, so the
    hit has a2 = 0: it is the least y^2 = x^3 + Ax + B in (A, B) order.  Trace
    p + 1 - p = 1 is prime to p, so the curve is ordinary, and a group of
    prime order p is Z/p.  Only the benchmark and the tests call it; a report
    takes the same curve from ``curves.construction(p).elliptic``."""
    if not is_prime(p) or p < 5:
        raise ValueError(f"needs a prime p >= 5, got {p}")
    return find_curve(FiniteField(p), lambda n: n == p)


def torsion_point_of_exact_order(curve: EllipticCurve, ell: int) -> CurvePoint:
    """First rational point (in enumeration order) of exact order ell, for
    ell prime: a point P != O with ell*P = O has order ell.  The listing is
    lazy, so the search stops at its first hit."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    coeffs = _coefficients(curve)
    for pt in _listing(curve.field, coeffs):
        if pt is not None and _multiple(coeffs, ell, pt) is None:
            return _to_point(curve.field, pt)
    raise ValueError(f"no rational point of exact order {ell}")


def translation_failure(curve: EllipticCurve, pt: CurvePoint) -> Optional[str]:
    """Why Q -> Q + P is not a fixed-point-free permutation of the rational
    points, or None when it is, checked exhaustively: no sum equals its Q,
    and the sums are exactly the point listing, so each lies on the curve
    and no two Q share one.  P = infinity, whose translation is the
    identity, fails it: replacing the report's point by O is the control
    that fails the check.  Given a correct group law it holds for every
    P != O; a law that sends a sum off the curve, or two Q to one sum,
    fails it.  P is checked on the curve once; each Q comes from the point
    listing, all on pairs.  Only a failure reads its witness from the same
    sums, as :class:`CurvePoint`s: the first Q in listing order whose sum is
    Q itself, is no listed point, or is the sum of an earlier Q."""
    coeffs = _coefficients(curve)
    by = _checked(coeffs, _to_pairs(curve, pt))
    listing = list(_listing(curve.field, coeffs))
    sums = [_add(coeffs, q, by) for q in listing]
    listed = set(listing)
    if set(sums) == listed and not any(q == total for q, total in zip(listing, sums)):
        return None
    earlier = {}
    for q, total in zip(listing, sums):
        q_pt, sum_pt = _to_point(curve.field, q), _to_point(curve.field, total)
        if total == q:
            return f"{q_pt!r} + {pt!r} = {q_pt!r}"
        if total not in listed:
            return f"{q_pt!r} + {pt!r} = {sum_pt!r}, off the curve"
        if total in earlier:
            return f"{q_pt!r} + {pt!r} = {sum_pt!r} = {earlier[total]!r} + {pt!r}"
        earlier[total] = q_pt


def translation_is_fixed_point_free(curve: EllipticCurve, pt: CurvePoint) -> bool:
    """Whether :func:`translation_failure` finds no failure: the benchmark
    and CI call it."""
    return translation_failure(curve, pt) is None
