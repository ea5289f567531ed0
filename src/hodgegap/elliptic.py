"""Elliptic curves over small finite fields, at exhaustive-search scale.

Curves are kept in the form y^2 = x^3 + a2*x^2 + a4*x + a6 (characteristic
never 2 here); the short Weierstrass case is a2 = 0, and the a2 term is what
makes characteristic 3 work.  Point counting is naive and the searches scan
coefficients in the field's canonical order, so results are deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Optional

from .algebra import FiniteField, FqElement, Polynomial, discriminant_squarefree, is_prime


@dataclass(frozen=True)
class CurvePoint:
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
        if not discriminant_squarefree(rhs)[0]:
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
        for x in self.field:
            target = self.rhs(x)
            for y in self.field:
                if y * y == target:
                    yield CurvePoint(x, y)

    def __repr__(self) -> str:
        return f"E[y^2 = x^3 + ({self.a2})x^2 + ({self.a4})x + ({self.a6}) / GF({self.q})]"


@functools.cache
def _square_counts(field: FiniteField) -> dict[FqElement, int]:
    """How many y in the field have y^2 = s, for each square s; built once
    per field and only read."""
    counts: dict[FqElement, int] = {}
    for y in field:
        s = y * y
        counts[s] = counts.get(s, 0) + 1
    return counts


def count_points(curve: EllipticCurve) -> int:
    """Exact number of rational points, point at infinity included."""
    sq_count = _square_counts(curve.field)
    n = 1 + sum(sq_count.get(curve.rhs(x), 0) for x in curve.field)
    q = curve.q
    if (q + 1 - n) ** 2 > 4 * q:
        raise ArithmeticError(f"Hasse bound violated: {n} points over F_{q} (bug)")
    return n


def add_points(curve: EllipticCurve, p1: CurvePoint, p2: CurvePoint) -> CurvePoint:
    """Chord-tangent addition on y^2 = x^3 + a2 x^2 + a4 x + a6."""
    if not (curve.contains(p1) and curve.contains(p2)):
        raise ValueError("point not on the curve")
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


def negate_point(curve: EllipticCurve, pt: CurvePoint) -> CurvePoint:
    if pt.is_infinity:
        return pt
    return CurvePoint(pt.x, -pt.y)


def scalar_mul(curve: EllipticCurve, k: int, pt: CurvePoint) -> CurvePoint:
    if k < 0:
        return scalar_mul(curve, -k, negate_point(curve, pt))
    acc = CurvePoint.infinity()
    base = pt
    while k:
        if k & 1:
            acc = add_points(curve, acc, base)
        base = add_points(curve, base, base)
        k >>= 1
    return acc


def find_ordinary_with_trace_one(p: int) -> EllipticCurve:
    """The lexicographically least y^2 = x^3 + Ax + B over F_p with exactly p
    rational points.  Trace p + 1 - p = 1 is prime to p, so the curve is
    ordinary, and a group of prime order p is Z/p."""
    if not is_prime(p) or p < 5:
        raise ValueError("needs a prime p >= 5 (use find_p3_curve for p = 3)")
    field = FiniteField(p)
    for a in field:
        for b in field:
            disc = 4 * (a * a * a) + 27 * (b * b)
            if not disc:
                continue
            curve = EllipticCurve(field, field.zero, a, b)
            if count_points(curve) == p:
                return curve
    raise RuntimeError(f"no trace-one curve over F_{p}: search exhausted (bug)")


def find_p3_curve() -> tuple[EllipticCurve, CurvePoint]:
    """An ordinary elliptic curve over F_9 whose group order is divisible by 3,
    with a rational point of exact order 3.  First hit in lexicographic
    (a2, a4, a6) order; ordinarity is certified by trace != 0 mod 3."""
    field = FiniteField(3, modulus=(1, 0))
    for a2 in field:
        for a4 in field:
            for a6 in field:
                try:
                    curve = EllipticCurve(field, a2, a4, a6)
                except ValueError:  # singular
                    continue
                n = count_points(curve)
                trace = field.q + 1 - n
                if n % 3 == 0 and trace % 3 != 0:
                    return curve, torsion_point_of_exact_order(curve, 3)
    raise RuntimeError("no ordinary curve with 3-torsion over F_9: search exhausted (bug)")


def torsion_point_of_exact_order(curve: EllipticCurve, ell: int) -> CurvePoint:
    """First rational point (in enumeration order) of exact order ell."""
    for pt in curve.points():
        if pt.is_infinity:
            continue
        if not scalar_mul(curve, ell, pt).is_infinity:
            continue
        if all(not scalar_mul(curve, m, pt).is_infinity for m in range(1, ell)):
            return pt
    raise ValueError(f"no rational point of exact order {ell}")


def translation_is_fixed_point_free(curve: EllipticCurve, pt: CurvePoint) -> bool:
    """Q + P != Q for every rational Q, checked exhaustively.  False for
    P = infinity, whose translation is the identity.  Given a correct group
    law this follows from P != O, so it is a consistency check: no
    perturbation control makes the report's check fail."""
    if pt.is_infinity:
        return False
    return all(add_points(curve, q, pt) != q for q in curve.points())
