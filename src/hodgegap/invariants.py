"""Character bookkeeping for the order-p action on holomorphic forms.

The generator acts on the 1-forms x^(k-1) dx/y of a hyperelliptic curve
through the character exponent a*k mod p (when it scales x by zeta^a and
fixes y), and on the invariant 1-form of the elliptic factor with exponent 0.
Both curve factors carry the same weights w, so under (sigma, sigma^t, tau_P)
an invariant 3-form is a pair (x, y) in w x w with x + t*y = 0 mod p: t = 1
counts X's h^{3,0}, the construction's twist counts Y's.
"""

from __future__ import annotations

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


def form_weights(p: int, multiplier: int, g: int) -> WeightMultiset:
    """Weights {a*k mod p : k = 1..g} of x^(k-1) dx/y under x -> zeta^a x."""
    if multiplier % p == 0:
        raise ValueError("multiplier must be prime to p")
    return WeightMultiset(p, tuple((multiplier * k) % p for k in range(1, g + 1)))


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


def hodge30_witnesses(w: WeightMultiset, twist: int) -> tuple[list, list]:
    """The invariant pairs of the (sigma, sigma, tau_P) and the
    (sigma, sigma^twist, tau_P) quotients on the form weights w; their
    lengths are hX and hY."""
    return invariant_pair_witnesses(w, 1), invariant_pair_witnesses(w, twist)


def hodge30_pair(p: int) -> tuple[int, int]:
    """(hX, hY), the numbers of :func:`hodge30_witnesses`; genus and twist
    (4, or 2 when p = 3) come from :func:`curves.construction`, which also
    rejects a p that is not an odd prime.  The table reads this, not
    ``Construction.hodge``, whose cache would keep every prime's pair lists:
    that raised ``table --max 1000`` peak RSS from 17.0 to 18.5 MB."""
    c = curves.construction(p)
    untwisted, twisted = hodge30_witnesses(form_weights(p, 1, c.genus), c.twist)
    return len(untwisted), len(twisted)


def hy_interval_count(p: int) -> int:
    """Closed-form count of j in [1, (p-1)/2] with -4j mod p again in
    [1, (p-1)/2]: two integer intervals, independent of the pair
    enumeration above, and the oracle :func:`discrepancy_series` checks
    every hY against."""
    lo1, hi1 = -((p + 1) // -8), (p - 1) // 4  # ceil((p+1)/8) .. floor((p-1)/4)
    lo2, hi2 = -((3 * p + 1) // -8), (p - 1) // 2
    return (hi1 - lo1 + 1) + (hi2 - lo2 + 1)


@dataclass(frozen=True)
class DiscrepancyRow:
    p: int
    h_x: int
    h_y: int
    gap: int


def discrepancy_series(p_max: int) -> list[DiscrepancyRow]:
    """Rows (p, hX, hY, hY - hX) for every prime 5 <= p <= p_max, each hX
    checked to vanish and each hY cross-checked against the interval count."""
    if p_max < 5:
        raise ValueError("p_max must be at least 5")
    rows = []
    for p in primes_upto(p_max):
        if p < 5:
            continue
        h_x, h_y = hodge30_pair(p)
        if h_x != 0:
            raise AssertionError(f"invariant 3-form for the untwisted action at p = {p}")
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
