"""Character bookkeeping for the order-p action on holomorphic forms.

The generator acts on the 1-forms x^(k-1) dx/y of a hyperelliptic curve
through the character exponent a*k mod p (when it scales x by zeta^a and
fixes y), and on the invariant 1-form of the elliptic factor with exponent 0.
Counting invariant wedge products of one form per factor is then pure
modular arithmetic on weight multisets, which is how the two quotient
threefolds get their h^{3,0}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import curves  # a module, not its names: curves imports this module too
from .algebra import primes_upto


@dataclass(frozen=True)
class WeightMultiset:
    """Multiset of character exponents mod p, one per basis 1-form."""

    p: int
    weights: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(sorted(w % self.p for w in self.weights)))


@dataclass(frozen=True)
class DiagonalAction:
    """Exponents (a1, a2, a3): the generator acts on factor j through the
    a_j-th power of the base automorphism (a3 belongs to the translation
    factor, which has weight 0 on forms)."""

    p: int
    exponents: tuple[int, int, int]

    def __post_init__(self):
        a1 = self.exponents[0]
        if a1 != 0 and math.gcd(a1, self.p) != 1:
            raise ValueError("first exponent must be prime to p when nonzero")


def form_weights(p: int, multiplier: int, g: int) -> WeightMultiset:
    """Weights {a*k mod p : k = 1..g} of x^(k-1) dx/y under x -> zeta^a x."""
    if multiplier % p == 0:
        raise ValueError("multiplier must be prime to p")
    return WeightMultiset(p, tuple((multiplier * k) % p for k in range(1, g + 1)))


def invariant_pair_witnesses(
    w1: WeightMultiset, w2: WeightMultiset, action: DiagonalAction
) -> list[tuple[int, int]]:
    """The pairs (x, y), with multiplicity, whose twisted weights cancel:
    a1*x + a2*y + 0 == 0 mod p, listed x-major in weight order.  Their number
    is the dimension of the invariant 3-forms on curve x curve x elliptic
    under the diagonal generator.  w2 is indexed by a2*y mod p, so the cost is
    O(#w1 + #w2 + #pairs)."""
    if w1.p != w2.p or w1.p != action.p:
        raise ValueError("mismatched moduli")
    p = action.p
    a1, a2, _ = action.exponents
    by_twisted: dict[int, list[int]] = {}
    for y in w2.weights:
        by_twisted.setdefault((a2 * y) % p, []).append(y)
    return [(x, y) for x in w1.weights for y in by_twisted.get((-a1 * x) % p, ())]


def witness_form_weight(p: int, w: WeightMultiset, twist: int) -> int:
    """The weight mod p of x1 dx1/y1 ^ x2^((p-3)/2) dx2/y2 ^ omega under the
    (1, twist, .) action, zero when the form is invariant.  w is
    :func:`form_weights` with multiplier 1, so the k-th basis form
    x^(k-1) dx/y has weight w.weights[k-1]; the two wedge factors are the
    forms k = 2 and k = (p-1)/2, both genuine members of the basis only when
    p >= 5.  The weight is 2 + twist*(p-1)/2 mod p, zero for twist = 4 mod p
    alone."""
    if p < 5:
        raise ValueError("the explicit invariant 3-form needs p >= 5")
    k1, k2 = 2, (p - 1) // 2
    return (w.weights[k1 - 1] + twist * w.weights[k2 - 1]) % p


def hodge30_witnesses(p: int, w: WeightMultiset, twist: int) -> tuple[list, list]:
    """The invariant pairs of the (sigma, sigma, tau_P) and the
    (sigma, sigma^twist, tau_P) quotients on the form weights w; their
    lengths are hX and hY."""
    untwisted = invariant_pair_witnesses(w, w, DiagonalAction(p, (1, 1, 1)))
    twisted = invariant_pair_witnesses(w, w, DiagonalAction(p, (1, twist, 1)))
    if p >= 5 and untwisted:
        raise ArithmeticError("invariant 3-form appeared for the untwisted action (bug)")
    if not twisted:
        raise ArithmeticError("twisted action lost all invariant 3-forms (bug)")
    return untwisted, twisted


def hodge30_pair(p: int) -> tuple[int, int]:
    """(hX, hY), the numbers of :func:`hodge30_witnesses`; genus and twist
    (4, or 2 when p = 3) come from :func:`curves.construction`, which also
    rejects a p that is not an odd prime."""
    c = curves.construction(p)
    untwisted, twisted = hodge30_witnesses(p, form_weights(p, 1, c.genus), c.twist)
    return len(untwisted), len(twisted)


def hy_interval_count(p: int) -> int:
    """Closed-form count of j in [1, (p-1)/2] with -4j mod p again in
    [1, (p-1)/2]: two integer intervals, independent of the pair
    enumeration above, and the oracle :func:`discrepancy_series` checks
    every hY against."""
    lo1, hi1 = -((p + 1) // -8), (p - 1) // 4  # ceil((p+1)/8) .. floor((p-1)/4)
    lo2, hi2 = -((3 * p + 1) // -8), (p - 1) // 2
    return max(hi1 - lo1 + 1, 0) + max(hi2 - lo2 + 1, 0)


@dataclass(frozen=True)
class DiscrepancyRow:
    p: int
    h_x: int
    h_y: int
    gap: int


def discrepancy_series(p_max: int) -> list[DiscrepancyRow]:
    """Rows (p, hX, hY, hY - hX) for every prime 5 <= p <= p_max, the hY of
    each cross-checked against the interval count."""
    if p_max < 5:
        raise ValueError("p_max must be at least 5")
    rows = []
    for p in primes_upto(p_max):
        if p < 5:
            continue
        h_x, h_y = hodge30_pair(p)
        if h_y != hy_interval_count(p):
            raise AssertionError(f"enumeration and interval count disagree at p = {p}")
        rows.append(DiscrepancyRow(p, h_x, h_y, h_y - h_x))
    return rows


def least_squares_slope(points: list[tuple[int, int]]) -> float:
    """Slope of the least-squares line through integer points, exact until
    the final float conversion."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return float(Fraction(n * sxy - sx * sy, n * sxx - sx * sx))
