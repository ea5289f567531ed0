"""Elliptic curves over small finite fields, at exhaustive-search scale.

Curves are kept in the form y^2 = x^3 + a2*x^2 + a4*x + a6 (characteristic
never 2 here); the short Weierstrass case is a2 = 0, and the a2 term is what
makes characteristic 3 work.  Points are listed in O(q), each x reading the
roots of rhs(x) from the field's ``square_roots``.  A count splits the cubic
at its constant term: one histogram of x^3 + a2*x^2 + a4*x over the field's
canonical order, by one Horner step per x on integers (plain ints over a
prime field; over F_9 = F_3[i], the one non-prime field, Gaussian-integer
pairs x = r + s*i with i^2 = -1, the value u + v*i at index
(u mod 3) + 3(v mod 3)), then one C-level dot product of that histogram
with the field's ``root_counts`` translated by a6, a rotation over F_p.  The
one coefficient search, :func:`find_curve`, scans (a2, a4, a6) in the
field's canonical order, so results are deterministic; it builds one
histogram per (a2, a4), counts each a6 from it, and tests singularity only
on a candidate whose count passes.
"""

from __future__ import annotations

import functools
import operator
from typing import Callable, Iterator, NamedTuple, Optional

from .algebra import (
    FiniteField,
    FqElement,
    Polynomial,
    discriminant_squarefree,
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
        rhs = Polynomial(field, [self.a6, self.a4, self.a2, field.one])
        if not discriminant_squarefree(rhs):
            raise ValueError("singular curve: x^3 + a2 x^2 + a4 x + a6 has a repeated root")
        self.rhs_poly = rhs

    @property
    def q(self) -> int:
        return self.field.q

    def rhs(self, x: FqElement) -> FqElement:
        return self.rhs_poly(x)

    def contains(self, pt: CurvePoint) -> bool:
        if pt.is_infinity:
            return True
        return pt.y * pt.y == self.rhs(pt.x)

    def points(self) -> Iterator[CurvePoint]:
        """All rational points, infinity first, then in field order on x, y."""
        yield CurvePoint.infinity()
        roots = self.field.square_roots
        for x in self.field:
            for y in roots.get(self.rhs(x), ()):
                yield CurvePoint(x, y)

    def __repr__(self) -> str:
        return f"E[y^2 = x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6}) / GF({self.q})]"


def _cubic_histogram(field: FiniteField, a2: FqElement, a4: FqElement) -> list[int]:
    """Entry m is the number of x in the field with x^3 + a2 x^2 + a4 x equal
    to the m-th element in canonical order, found by one Horner step per x
    on integers: plain ints over F_p, and over F_9 = F_3[i] Gaussian-integer
    pairs x = r + s*i, i^2 = -1, whose value u + v*i has index
    (u mod 3) + 3(v mod 3)."""
    p, hist = field.p, [0] * field.q
    if field.k == 1:
        b2, b4 = a2.coords[0], a4.coords[0]
        for x in range(p):
            hist[((x + b2) * x + b4) * x % p] += 1
    else:
        (b2, c2), (b4, c4) = a2.coords, a4.coords
        for r in range(p):
            for s in range(p):
                u, v = r + b2, s + c2
                u, v = u * r - v * s + b4, u * s + v * r + c4
                u, v = u * r - v * s, u * s + v * r
                hist[u % p + p * (v % p)] += 1
    return hist


def _translated_root_counts(field: FiniteField, a6: FqElement) -> tuple[int, ...]:
    """Entry m is the number of y with y^2 = the m-th element plus a6: the
    field's ``root_counts`` rotated by a6 over F_p, and re-indexed by the
    translation over F_9."""
    p, counts = field.p, field.root_counts
    if field.k == 1:
        b6 = a6.coords[0]
        return counts[b6:] + counts[:b6]
    b6, c6 = a6.coords
    return tuple(counts[(m + b6) % p + p * ((m // p + c6) % p)] for m in range(field.q))


def _count(field: FiniteField, hist: list[int], a6: FqElement) -> int:
    """Rational points of y^2 = x^3 + a2 x^2 + a4 x + a6, point at infinity
    included, singular or not, from the :func:`_cubic_histogram` of its a2
    and a4; raises past the Hasse bound, which a singular cubic (q, q + 1 or
    q + 2 points) never crosses."""
    n = 1 + sum(map(operator.mul, hist, _translated_root_counts(field, a6)))
    q = field.q
    if (q + 1 - n) ** 2 > 4 * q:
        raise ArithmeticError(f"Hasse bound violated: {n} points over F_{q} (bug)")
    return n


def count_points(curve: EllipticCurve) -> int:
    """Exact number of rational points, point at infinity included."""
    field = curve.field
    return _count(field, _cubic_histogram(field, curve.a2, curve.a4), curve.a6)


def add_points(curve: EllipticCurve, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 = x^3 + a2 x^2 + a4 x + a6."""
    if not (curve.contains(p1) and curve.contains(p2)):
        raise ValueError("point not on the curve")
    return _chord_tangent(curve, p1, p2)


def _chord_tangent(curve: EllipticCurve, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """The group law of :func:`add_points` on two points already known to
    lie on ``curve``, unchecked."""
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


def scalar_mul(curve: EllipticCurve, k: int, pt: CurvePoint) -> CurvePoint:
    """k*pt, k >= 0, by :func:`~hodgegap.algebra.power` under
    :func:`add_points`."""
    return power(pt, k, functools.partial(add_points, curve), CurvePoint.infinity())


def find_curve(field: FiniteField, ok: Callable[[int], bool]) -> EllipticCurve:
    """The first nonsingular y^2 = x^3 + a2 x^2 + a4 x + a6 over ``field``, in
    lexicographic (a2, a4, a6) order, with ``ok(#points)``: the one
    coefficient search, which every elliptic factor comes from.  Each
    candidate is counted from its coefficients first (on integers over
    F_p, on Gaussian-integer pairs over F_9); only one whose count passes
    ``ok`` is built as an :class:`EllipticCurve`, which rejects it if
    singular."""
    for a2 in field:
        for a4 in field:
            hist = _cubic_histogram(field, a2, a4)
            for a6 in field:
                if not ok(_count(field, hist, a6)):
                    continue
                try:
                    return EllipticCurve(field, a2, a4, a6)
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
    ell prime: a point P != O with ell*P = O has order ell."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    for pt in curve.points():
        if not pt.is_infinity and scalar_mul(curve, ell, pt).is_infinity:
            return pt
    raise ValueError(f"no rational point of exact order {ell}")


def translation_is_fixed_point_free(curve: EllipticCurve, pt: CurvePoint) -> bool:
    """Q + P != Q for every rational Q, checked exhaustively.  False for
    P = infinity, whose translation is the identity: replacing the report's
    point by O is the control that fails the check.  Given a correct group
    law it holds for every P != O.  P is checked on the curve once; each Q
    comes from ``curve.points()`` and is added unchecked."""
    if not curve.contains(pt):
        raise ValueError("point not on the curve")
    if pt.is_infinity:
        return False
    return all(_chord_tangent(curve, q, pt) != q for q in curve.points())
