"""Exact arithmetic in the cyclotomic fields Q(zeta_p), p prime, and Q(zeta_12),
and in their rings of integers: the only two engines the construction uses.

An element is stored in the power basis ``1, z, ..., z^(phi(n)-1)`` (z a fixed
primitive n-th root of unity) as a tuple of integer coordinates over a single
positive denominator.  Invariants kept by every constructor:

  * coordinates are the canonical representative modulo the n-th cyclotomic
    polynomial;
  * gcd(den, content of the coordinates) = 1, den >= 1;
  * den == 1 exactly when the element is an algebraic integer, because the
    power basis is an integral basis for Z[zeta_n].

Arithmetic never leaves the integers.  The inverse is the Galois-norm one:
a^{-1} = prod_{k in (Z/n)^*, k != 1} sigma_k(a) / N(a), where sigma_k sends
z to z^k, which only re-indexes coordinates modulo n (Washington,
*Introduction to Cyclotomic Fields*, ch. 2).

On top of the field arithmetic this module provides the local data at the
ramified prime above p: the uniformizer pi (zeta_p - 1, or zeta_12^4 - 1 for
the p = 3 engine inside Q(zeta_12)), exact pi-adic valuations and the residue
map onto F_p resp. F_9.  Every division by pi multiplies by cached powers of
one inverse of pi, checked when the engine is built (:meth:`PiSpec.over_pi`).
Valuations are computed by repeated exact division by pi, which is correct
here because a single prime sits above p, so an element is divisible by pi in
the ring of integers iff its valuation is positive.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence, Union

from .algebra import FiniteField, FqElement, Polynomial, field_pow, is_prime


def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, lowest degree first, for a prime n or n = 12:
    Phi_p = 1 + z + ... + z^(p-1) and Phi_12 = 1 - z^2 + z^4."""
    if n == 12:
        return (1, 0, -1, 0, 1)
    if not is_prime(n):
        raise ValueError(f"conductor {n} not supported (need a prime or 12)")
    return (1,) * n


@functools.lru_cache(maxsize=None)
def cyclotomic_field(n: int) -> "CyclotomicField":
    return CyclotomicField(n)


class CyclotomicField:
    """Q(zeta_n) with elements in the power basis; obtain via cyclotomic_field."""

    def __init__(self, n: int):
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = len(self.modulus) - 1  # phi(n)
        self.zero = CycloElement(self, (0,) * self.degree, 1)
        self.one = self.element([1])
        self.zeta = self.element([0, 1])

    def element(self, coords: Sequence[int], den: int = 1) -> "CycloElement":
        """Canonical element from raw integer coordinates over ``den``."""
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        reduced = self._reduce(coords)
        return CycloElement(self, tuple(reduced), den)

    def from_int(self, a: int) -> "CycloElement":
        return CycloElement(self, (a,) + (0,) * (self.degree - 1), 1)

    def coerce(self, x) -> "CycloElement":
        if isinstance(x, CycloElement):
            if x.field != self:
                raise ValueError("element belongs to a different cyclotomic field")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta_{self.n})")

    def _reduce(self, coords: Sequence[int]) -> list[int]:
        # fold modulo z^n - 1 first (a multiple of Phi_n), so that only the
        # n - phi(n) top coordinates need the division by Phi_n
        n, d = self.n, self.degree
        c = list(coords[:n])
        c += [0] * (n - len(c))
        for i in range(n, len(coords)):
            c[i % n] += coords[i]
        mod = self.modulus
        for i in range(n - 1, d - 1, -1):
            t = c[i]
            if t:
                for j in range(d):
                    c[i - d + j] -= t * mod[j]
        return c[:d]

    def _mul(self, a: Sequence[int], b: Sequence[int]) -> list[int]:
        """Reduced product of two integer coordinate vectors.  The outer loop
        runs over the operand with more zero coordinates and skips them, so
        a sparse factor (pi, zeta^k, a conjugate) costs its nonzero count
        times the other's length, in either argument order."""
        if b.count(0) > a.count(0):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduce(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclotomicField) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.n))

    def __repr__(self) -> str:
        return f"Q(zeta_{self.n})"


class CycloElement:
    __slots__ = ("field", "num", "den")

    def __init__(self, field: CyclotomicField, num: tuple[int, ...], den: int):
        # num must already be reduced mod the cyclotomic polynomial
        if den < 0:
            num, den = tuple(-c for c in num), -den
        g = den
        for c in num:
            g = math.gcd(g, c)
            if g == 1:
                break
        if g > 1:
            num = tuple(c // g for c in num)
            den //= g
        if not any(num):
            den = 1
        self.field = field
        self.num = num
        self.den = den

    # -- ring/field structure ------------------------------------------------

    def _co(self, other) -> "CycloElement":
        return self.field.coerce(other)

    def __add__(self, other):
        o = self._co(other)
        da, db = self.den, o.den
        g = math.gcd(da, db)
        la, lb = db // g, da // g
        return CycloElement(
            self.field,
            tuple(a * la + b * lb for a, b in zip(self.num, o.num)),
            da * la,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._co(other))

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        return CycloElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._co(other)
        return CycloElement(
            self.field, tuple(self.field._mul(self.num, o.num)), self.den * o.den
        )

    __rmul__ = __mul__

    def inv(self) -> "CycloElement":
        """Field inverse through the norm, in integer arithmetic only.

        With a = num/den and sigma_k: z -> z^k the Galois automorphisms,
        c = prod_{k in (Z/n)^*, k != 1} sigma_k(num) is an algebraic integer
        and num * c = N(num), the norm, a nonzero rational integer; so
        a^{-1} = den * c / N(num).  Applying sigma_k only re-indexes the
        coordinates (i -> i*k mod n) before reducing modulo Phi_n.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        n = field.n
        acc = [1]
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                conj = [0] * n
                for i, c in enumerate(self.num):
                    conj[i * k % n] += c
                acc = field._mul(acc, field._reduce(conj))
        norm = field._mul(self.num, acc)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError(f"conjugate product of {self} is not a nonzero rational")
        return CycloElement(field, tuple(c * self.den for c in acc), norm[0])

    def __truediv__(self, other):
        return self * self._co(other).inv()

    def __rtruediv__(self, other):
        return self._co(other) * self.inv()

    __pow__ = field_pow

    # -- predicates ------------------------------------------------------------

    @property
    def is_integral(self) -> bool:
        """True iff the element lies in Z[zeta_n] (reduced denominator is 1)."""
        return self.den == 1

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, CycloElement):
            return NotImplemented
        return (
            self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.field, self.num, self.den))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        if not any(self.num):
            return "0"
        parts = []
        for k, c in enumerate(self.num):
            if c == 0:
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                parts.append(str(c))
            elif abs(c) == 1:
                parts.append(("-" if c < 0 else "") + mono)
            else:
                parts.append(f"{c}*{mono}")
        body = " + ".join(parts).replace("+ -", "- ")
        if self.den == 1:
            return body
        return f"({body})/{self.den}"


def try_divide_exact(
    z: CycloElement, w: CycloElement, integral: bool = False
) -> Optional[CycloElement]:
    """z/w, or None when ``integral`` is set and the quotient leaves Z[zeta_n].
    The report never calls it; the benchmark's inexact-division control does."""
    if not w:
        raise ZeroDivisionError("division by zero")
    q = z * w.inv()
    if integral and not q.is_integral:
        return None
    return q


class PiSpec:
    """Local data at the unique ramified prime above p.

    ``pi`` generates the maximal ideal, ``e`` is its ramification index
    (the pi-valuation of p) and ``residue_field`` the quotient modulo pi.
    Built by :meth:`for_prime` (n = p, residue field F_p, zeta -> 1) or
    :meth:`p3` (n = 12, pi = omega - 1 with omega = zeta^4, residue field
    F_9 = F_3[t]/(t^2+1), the square root of -1 mapping to t).
    """

    def __init__(
        self,
        field: CyclotomicField,
        pi: CycloElement,
        p: int,
        e: int,
        residue_field: FiniteField,
        zeta_image: FqElement,
    ):
        self.field = field
        self.n = field.n
        self.pi = pi
        self.p = p
        self.e = e
        self.residue_field = residue_field
        self.zeta_image = zeta_image
        self.pi_inv = pi.inv()
        if pi * self.pi_inv != field.one:
            raise ArithmeticError("cached inverse of pi does not satisfy pi * pi_inv == 1")
        self._pi_inv_powers = [field.one, self.pi_inv]
        # the image of zeta must kill both Phi_n and pi
        if Polynomial(residue_field, field.modulus)(zeta_image) or self.residue(pi):
            raise ValueError("residue data inconsistent with the uniformizer")

    @classmethod
    @functools.lru_cache(maxsize=None)
    def for_prime(cls, p: int) -> "PiSpec":
        """The ring Z_p[zeta_p] with uniformizer zeta_p - 1, residue field F_p."""
        if not is_prime(p) or p < 3:
            raise ValueError(f"need an odd prime, got {p}")
        k = cyclotomic_field(p)
        pi = k.zeta - 1
        fp = FiniteField(p)
        return cls(k, pi, p, p - 1, fp, fp.one)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def p3(cls) -> "PiSpec":
        """Z_3[omega, i] realized inside Q(zeta_12); pi = omega - 1, residue F_9."""
        k = cyclotomic_field(12)
        omega = k.zeta**4
        f9 = FiniteField(3, modulus=(1, 0))  # t^2 + 1
        t = f9.gen()
        # zeta_12 = omega * i^{-1} reduces to 1 * t^{-1} = -t
        return cls(k, omega - 1, 3, 2, f9, -t)

    # -- local arithmetic -----------------------------------------------------

    def over_pi(self, z, k: int = 1) -> CycloElement:
        """z / pi^k for k >= 0, by the cached powers of the checked ``pi_inv``."""
        if k < 0:
            raise ValueError("over_pi needs k >= 0")
        powers = self._pi_inv_powers
        while len(powers) <= k:
            powers.append(powers[-1] * self.pi_inv)
        return self.field.coerce(z) * powers[k]

    def valuation(self, z: CycloElement) -> Union[int, float]:
        """Exact pi-adic valuation; +inf for zero.

        Clears the denominator first (each factor p in it costs e), then
        divides the integral part by pi until the quotient leaves Z[zeta_n].
        The report never calls it; the benchmark's valuation items do.
        """
        z = self.field.coerce(z)
        if not z:
            return math.inf
        v = 0
        den = z.den
        while den % self.p == 0:
            den //= self.p
            v -= self.e
        cur = self.field.element(z.num)
        while True:
            nxt = self.over_pi(cur)
            if not nxt.is_integral:
                return v
            v += 1
            cur = nxt

    def residue(self, z: CycloElement) -> FqElement:
        """Image in the residue field; defined on the valuation ring only."""
        z = self.field.coerce(z)
        if z.den % self.p == 0:
            raise ValueError("element has negative valuation at pi")
        return Polynomial(self.residue_field, z.num)(self.zeta_image) / z.den

    def __repr__(self) -> str:
        return f"PiSpec(n={self.n}, p={self.p}, e={self.e})"
