"""Character bookkeeping for the order-p action on holomorphic forms.

The generator acts on the 1-forms x^(k-1) dx/y of a hyperelliptic curve
through the character exponent a*k mod p (when it scales x by zeta^a and
fixes y), and on the invariant 1-form of the elliptic factor with exponent 0.
Both curve factors carry the same weights w, so under (sigma, sigma^t, tau_P)
an invariant 3-form is a pair (x, y) in w x w with x + t*y = 0 mod p: t = 1
counts X's h^{3,0}, the construction's twist counts Y's.  The module needs
no other part of the package; ``curves`` reads the per-prime genus and twist
and counts the pairs with :func:`invariant_pair_witnesses`.
"""

from __future__ import annotations

from typing import NamedTuple


class WeightMultiset(NamedTuple):
    """Multiset of character exponents mod p, one per basis 1-form, reduced
    mod p and sorted by :func:`form_weights`, its one constructor."""

    p: int
    weights: tuple[int, ...]


def form_weights(p: int, multiplier: int, g: int) -> WeightMultiset:
    """Weights {a*k mod p : k = 1..g} of x^(k-1) dx/y under x -> zeta^a x,
    sorted, so two multisets are equal exactly when their tuples are."""
    if multiplier % p == 0:
        raise ValueError("multiplier must be prime to p")
    return WeightMultiset(p, tuple(sorted((multiplier * k) % p for k in range(1, g + 1))))


def invariant_pair_witnesses(w: WeightMultiset, twist: int) -> list[tuple[int, int]]:
    """The pairs (x, y) in w x w, with multiplicity, with x + twist*y = 0
    mod w.p, listed x-major in weight order: the invariant 3-forms under
    (sigma, sigma^twist, tau_P).  w is indexed by twist*y mod p, so the cost
    is O(#w + #pairs)."""
    by_twisted: dict[int, list[int]] = {}
    for y in w.weights:
        by_twisted.setdefault((twist * y) % w.p, []).append(y)
    return [(x, y) for x in w.weights for y in by_twisted.get(-x % w.p, ())]


def witness_form_weight(w: WeightMultiset, twist: int) -> int:
    """The weight mod p = w.p of x1 dx1/y1 ^ x2^((p-3)/2) dx2/y2 ^ omega
    under the (1, twist, .) action, zero when the form is invariant.  w is
    :func:`form_weights` with multiplier 1, so the k-th basis form
    x^(k-1) dx/y has weight w.weights[k-1]; the two wedge factors are the
    forms k = 2 and k = (p-1)/2, both genuine members of the basis only when
    p >= 5.  The weight is 2 + twist*(p-1)/2 mod p, zero for twist = 4 mod p
    alone."""
    p = w.p
    if p < 5:
        raise ValueError("the explicit invariant 3-form needs p >= 5")
    k1, k2 = 2, (p - 1) // 2
    return (w.weights[k1 - 1] + twist * w.weights[k2 - 1]) % p


def hy_interval_count(p: int) -> int:
    """Closed-form count of j in [1, (p-1)/2] with -4j mod p again in
    [1, (p-1)/2]: two integer intervals, independent of the pair
    enumeration above, and the oracle ``curves.discrepancy_series`` checks
    every hY against."""
    lo1, hi1 = -((p + 1) // -8), (p - 1) // 4  # ceil((p+1)/8) .. floor((p-1)/4)
    lo2, hi2 = -((3 * p + 1) // -8), (p - 1) // 2
    return (hi1 - lo1 + 1) + (hi2 - lo2 + 1)


def least_squares_slope(points: list[tuple[int, int]]) -> float:
    """Slope of the least-squares line through integer points, exact until
    the final division: int / int is correctly rounded, so this is
    ``float(Fraction(num, den))`` without the fractions module."""
    n = len(points)
    if n < 2:
        raise ValueError("need at least two points to fit a line")
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)
