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
*Introduction to Cyclotomic Fields*, ch. 2).  For n = p the group is cyclic,
and the product over its p - 2 non-trivial elements is built by an addition
chain on the powers of a generator g (Itoh & Tsujii, *Inf. Comput.* 78,
1988): with Q_r = prod_{i=1..r} sigma_{g^i}(a), Q_{2r} = Q_r *
sigma_{g^r}(Q_r) and Q_{r+1} = Q_r * sigma_{g^{r+1}}(a), at most
2 log2(p - 2) dense products in place of p - 3.

On top of the field arithmetic this module provides the local data at a
ramified prime, :class:`PiSpec`: a uniformizer pi, exact pi-adic valuations
and the residue map onto the residue field, the package's one reduction of
Z[zeta_n] into a finite field (:func:`residue_map`).  It can build the engine
for n = p itself (pi = zeta_p - 1, residue field F_p) and holds no p = 3 data:
a report's engine, at p = 3 (pi = zeta_12^4 - 1, residue field F_9) as at
p >= 5, is built by ``curves.Construction.spec`` from the residue field and
the image of zeta that the construction holds.
:class:`SplitPrime` reduces into all phi(n) embeddings into F_l, for a prime
l that splits completely, by integer dot products with tables built once,
and goes back by interpolation and rational reconstruction.
Every division by pi is one step, :meth:`PiSpec._divide_once`: for
pi = zeta_p - 1 a prefix-sum pass in O(p) (synthetic division by a linear
factor, Knuth, TAOCP vol. 2, 4.6.1, folded by Phi_p), which also gives
1/pi itself; for any other uniformizer, such as n = 12's, a product with the
inverse of pi.  Either 1/pi is checked when the engine is built.  Valuations
are computed by repeated exact division by pi, which is correct here because
a single prime sits above p, so an element is divisible by pi in the ring of
integers iff its valuation is positive.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Optional, Sequence, Union

from .algebra import FiniteField, FqElement, element_of_order, field_pow, is_prime
from .algebra import rational_reconstruction


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
        # a generator of the Galois group (Z/n)^*, cyclic for a prime n; the
        # group {1, 5, 7, 11} of n = 12 has none
        self.generator = None if n == 12 else element_of_order(n - 1, n)
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
            if x.field is not self and x.field != self:
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
        times the other's length, in either argument order.  The product is
        sized to that operand's last nonzero coordinate, so a product by a
        rational or by pi has nothing to fold modulo z^n - 1."""
        if b.count(0) > a.count(0):
            a, b = b, a
        top = len(a)
        while top and not a[top - 1]:
            top -= 1
        out = [0] * (top + len(b) - 1)
        for i, x in enumerate(a[:top]):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return self._reduce(out)

    def _conjugate(self, a: Sequence[int], k: int) -> list[int]:
        """sigma_k(a) for k prime to n: z -> z^k re-indexes coordinate i to
        i*k mod n, then reduces."""
        n = self.n
        out = [0] * n
        for i, c in enumerate(a):
            out[i * k % n] = c
        return self._reduce(out)

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, CyclotomicField) and other.n == self.n)

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.n))

    def __repr__(self) -> str:
        return f"Q(zeta_{self.n})"


def _termwise(op):
    """``+`` or ``-`` of cyclotomic elements, for op = operator.add or
    operator.sub: the coordinates combine over the least common denominator,
    into one new element."""

    def combine(self, other):
        o = self._co(other)
        da, db = self.den, o.den
        if da == db:
            return CycloElement(self.field, tuple(map(op, self.num, o.num)), da)
        g = math.gcd(da, db)
        la, lb = db // g, da // g
        return CycloElement(
            self.field, tuple([op(a * la, b * lb) for a, b in zip(self.num, o.num)]), da * la
        )

    return combine


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
        if other.__class__ is CycloElement and other.field is self.field:
            return other
        return self.field.coerce(other)

    __add__ = __radd__ = _termwise(operator.add)
    __sub__ = _termwise(operator.sub)

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        return CycloElement(self.field, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        if isinstance(other, int):  # a rational integer scales the coordinates
            # cross-cancelled (Knuth, TAOCP 4.5.1): for b = other and
            # g = gcd(b, den), num*(b/g) / (den/g) is canonical already, so
            # no gcd pass; b = 0 gives g = den, so the zero 0/1
            g = math.gcd(other, self.den)
            out = object.__new__(CycloElement)
            out.field, out.den = self.field, self.den // g
            out.num = tuple(other // g * c for c in self.num)
            return out
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

        For n = p, with g the field's generator of (Z/p)^* and
        Q_r = prod_{i=1..r} sigma_{g^i}(num), c = Q_{p-2} comes from the
        addition chain Q_{2r} = Q_r * sigma_{g^r}(Q_r) and
        Q_{r+1} = Q_r * sigma_{g^{r+1}}(num) along the bits of p - 2 (Itoh &
        Tsujii, *Inf. Comput.* 78, 1988): at most 2 log2(p - 2) dense
        products where the conjugate-by-conjugate product takes p - 3.  For
        n = 12 the group {1, 5, 7, 11} has no generator and c is the two
        products of the three conjugates.  The norm is checked to be a
        nonzero rational, or ArithmeticError is raised.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        a = self.num
        g = field.generator
        if g is None:
            acc = field._mul(field._conjugate(a, 5), field._conjugate(a, 7))
            acc = field._mul(acc, field._conjugate(a, 11))
        else:
            n = field.n
            acc, h = field._conjugate(a, g), g  # Q_r and g^r for r = 1
            for bit in bin(n - 2)[3:]:
                acc = field._mul(acc, field._conjugate(acc, h))  # r -> 2r
                h = h * h % n
                if bit == "1":  # r -> r + 1
                    h = h * g % n
                    acc = field._mul(acc, field._conjugate(a, h))
        norm = field._mul(a, acc)
        if not norm[0] or any(norm[1:]):
            raise ArithmeticError(f"conjugate product of {self} is not a nonzero rational")
        return CycloElement(field, tuple(c * self.den for c in acc), norm[0])

    def __truediv__(self, other):
        return self * self._co(other).inv()

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


def _checked_columns(field: CyclotomicField, p: int, columns: list, image, where: str) -> list:
    """``columns``, each the images mod p of 1, z, ..., z^(phi(n)) under a
    map sending zeta_n to ``image`` in ``where``, unless one does not make
    Phi_n vanish mod p: then ValueError."""
    if any(sum(map(operator.mul, field.modulus, col)) % p for col in columns):
        raise ValueError(f"{image} is not a root of Phi_{field.n} in {where}")
    return columns


def _residues(field: CyclotomicField, z, columns: list, p: int) -> list[int]:
    """The residues of z = num/den by the checked ``columns``: num/den
    reduced mod p, then one dot product per column (stopping at num's
    phi(n) coordinates), mod p; ValueError when p divides den."""
    z = field.coerce(z)
    if z.den % p == 0:
        raise ValueError(f"{p} divides the denominator")
    d = pow(z.den, -1, p)
    num = [c * d % p for c in z.num]
    return [sum(map(operator.mul, num, c)) % p for c in columns]


def residue_map(field: CyclotomicField, residue_field: FiniteField, zeta_image: FqElement):
    """The map into F_q sending zeta_n to ``zeta_image``, the one reduction of
    Z[zeta_n] into a finite field, which :class:`SplitPrime` shares: the
    checked images of 1, z, ..., z^(phi(n)) give a column per coordinate of
    F_q, with v = 0 over F_p (no second column), and z its :func:`_residues`.
    ValueError when p divides den; for :class:`PiSpec`'s residue, with one
    prime above p, that means v_pi < 0 for a canonical element."""
    powers = [residue_field.one]  # each product coerces zeta_image into F_q
    for _ in range(field.degree):
        powers.append(powers[-1] * zeta_image)
    p, pad = residue_field.p, (0,) * (2 - residue_field.k)
    columns = _checked_columns(
        field, p, [tuple(x.coords[j] for x in powers) for j in range(residue_field.k)],
        zeta_image, repr(residue_field))

    def residue(z) -> FqElement:
        return FqElement(residue_field, (*_residues(field, z, columns, p), *pad))

    return residue


class SplitPrime:
    """Q(zeta_n) at a prime l = 1 (mod n), where Phi_n has the phi(n) roots
    w^i, i in (Z/n)^*, for w of exact order n in F_l: the coefficient ring of
    the vectors of residues in all embeddings zeta -> w^i at once, where a
    product costs phi(n) products mod l.  One power table of w gives its
    integer tables: per embedding, the checked images of 1, z, ...,
    z^(phi(n)), so an element reduces by its :func:`_residues` (ValueError
    when l divides its denominator), and the rows of :meth:`lift`.  The
    elements carry what ``algebra.poly_gcd`` needs: ``-``, ``*`` and ``inv``,
    which raises ZeroDivisionError on a vector with a zero entry."""

    def __init__(self, field: CyclotomicField, ell: int):
        n, d, w = field.n, field.degree, element_of_order(field.n, ell)
        self.field, self.ell = field, ell
        self.units = [i for i in range(1, n) if math.gcd(i, n) == 1]
        powers = [pow(w, j, ell) for j in range(n)]
        self._columns = _checked_columns(
            field, ell, [tuple([powers[i * j % n] for j in range(d + 1)]) for i in self.units],
            w, f"GF({ell})")
        # lift's inverse-DFT rows: unit i's w^(-ij)/n, j < n, reduced mod Phi_n
        # and stored by coordinate, not reduced mod l (lift's reconstruction is)
        scale = pow(n, -1, ell)
        rows = [field._reduce([powers[-i * j % n] * scale for j in range(n)]) for i in self.units]
        self._rows = list(zip(*rows))
        self.zero, self.one = self.coerce(0), self.coerce(1)

    def coerce(self, x) -> "SplitResidues":
        if isinstance(x, SplitResidues):
            return x
        if isinstance(x, int):
            return SplitResidues(self, (x % self.ell,) * len(self.units))
        return SplitResidues(self, tuple(_residues(self.field, x, self._columns, self.ell)))

    def lift(self, x: "SplitResidues") -> CycloElement:
        """The element with the residues x whose coordinates are fractions
        r/s with |r|, s <= sqrt(l/2); ValueError when one has no such
        fraction.  The inverse DFT over the n-th roots of unity of x, set to
        0 at the non-primitive ones, is a polynomial b of degree < n that
        takes x's values at the primitive ones; so does b mod Phi_n, whose
        coordinates, a dot product of x with a row each, are therefore the
        element's mod l, each rationally reconstructed
        (:func:`~hodgegap.algebra.rational_reconstruction`)."""
        ell = self.ell
        fractions = [rational_reconstruction(sum(map(operator.mul, x.values, row)), ell)
                     for row in self._rows]
        if None in fractions:
            raise ValueError(f"a coordinate is out of reach mod {ell}")
        den = math.lcm(*(s for _, s in fractions))
        return self.field.element([r * (den // s) for r, s in fractions], den)


class SplitResidues:
    """An element of a :class:`SplitPrime`: its residues mod l, in the order
    of the ring's ``units``."""

    __slots__ = ("ring", "values")

    def __init__(self, ring: SplitPrime, values: tuple[int, ...]):
        self.ring, self.values = ring, values

    def _zip(self, other, op) -> "SplitResidues":
        o = other if other.__class__ is SplitResidues else self.ring.coerce(other)
        ell = self.ring.ell
        return SplitResidues(self.ring, tuple([c % ell for c in map(op, self.values, o.values)]))

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __mul__(self, other):
        return self._zip(other, operator.mul)

    def inv(self) -> "SplitResidues":
        if not all(self.values):
            raise ZeroDivisionError("residue 0 in some embedding")
        return SplitResidues(self.ring, tuple([pow(a, -1, self.ring.ell) for a in self.values]))

    def __bool__(self) -> bool:
        return any(self.values)

    def __eq__(self, other) -> bool:
        same = isinstance(other, SplitResidues) and other.ring is self.ring
        return same and other.values == self.values


class PiSpec:
    """Local data at the unique ramified prime above p.

    ``pi`` generates the maximal ideal, ``residue_field`` is the quotient
    modulo pi, into which ``zeta_image`` carries zeta_n.  p and e, the
    ramification index (the pi-valuation of p), are read off the residue
    field: p is its characteristic, and e = phi(n)/k for F_{p^k}, since a
    single prime sits above p.  ``residue`` is :func:`residue_map` on this
    data, checked to send pi to 0.  :meth:`for_prime` builds the engine for
    n = p (residue field F_p, zeta -> 1); a report's engine, over Q(zeta_12)
    and F_9 at p = 3, is built by ``curves.Construction.spec`` from its own
    residue field and image of zeta.
    """

    def __init__(
        self,
        field: CyclotomicField,
        pi: CycloElement,
        residue_field: FiniteField,
        zeta_image: FqElement,
    ):
        self.field = field
        self.n = field.n
        self.pi = pi
        self.p = residue_field.p
        self.e = field.degree // residue_field.k
        self.residue_field = residue_field
        self.zeta_image = zeta_image
        # the prefix sum of _divide_once divides by zeta_p - 1 and by no other
        # pi; it also gives 1/pi, which any other pi takes from inv
        self._prefix_step = self.n == self.p and pi == field.zeta - 1
        self.pi_inv = self._divide_once(field.one) if self._prefix_step else pi.inv()
        if pi * self.pi_inv != field.one:
            raise ArithmeticError("cached inverse of pi does not satisfy pi * pi_inv == 1")
        self._pi_inv_powers = [field.one, self.pi_inv]
        self.residue = residue_map(field, residue_field, zeta_image)
        if self.residue(pi):
            raise ValueError("residue data inconsistent with the uniformizer")

    @classmethod
    def for_prime(cls, p: int) -> "PiSpec":
        """The ring Z_p[zeta_p] with uniformizer zeta_p - 1, residue field F_p."""
        if not is_prime(p) or p < 3:
            raise ValueError(f"need an odd prime, got {p}")
        k = cyclotomic_field(p)
        pi = k.zeta - 1
        fp = FiniteField(p)
        return cls(k, pi, fp, fp.one)

    # -- local arithmetic -----------------------------------------------------

    def _divide_once(self, z: CycloElement) -> CycloElement:
        """z / pi, the one division step.

        For pi = zeta_p - 1 and z = a/den: pi q = z in Q[z]/Phi_p for
        q_i = ((i + 1) S - p (a_0 + ... + a_i)) / (p den), with
        S = a_0 + ... + a_(p-2), one prefix-sum pass that ``CycloElement``
        normalises.  Any other uniformizer, such as the n = 12 engine's,
        multiplies by the checked ``pi_inv``.
        """
        if not self._prefix_step:
            return z * self.pi_inv
        p, a = self.p, z.num
        s = sum(a)
        return CycloElement(
            self.field,
            tuple((i + 1) * s - p * t for i, t in enumerate(itertools.accumulate(a))),
            p * z.den,
        )

    def over_pi(self, z, k: int) -> CycloElement:
        """z / pi^k for k >= 0, by cached powers of 1/pi, each power one
        :meth:`_divide_once` of the last (the step of a pi other than
        zeta_p - 1 is still the dense product with ``pi_inv``); an integer
        z, such as the family's binom(p, i), only scales the cached power."""
        if k < 0:
            raise ValueError("over_pi needs k >= 0")
        powers = self._pi_inv_powers
        while len(powers) <= k:
            powers.append(self._divide_once(powers[-1]))
        return powers[k] * z

    def valuation(self, z: CycloElement) -> Union[int, float]:
        """Exact pi-adic valuation; +inf for zero.

        Clears the denominator first (each factor p in it costs e), then
        divides the integral part by pi, one :meth:`_divide_once` at a time,
        until the quotient leaves Z[zeta_n].
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
            nxt = self._divide_once(cur)
            if not nxt.is_integral:
                return v
            v += 1
            cur = nxt

    def __repr__(self) -> str:
        return f"PiSpec(n={self.n}, p={self.p}, e={self.e})"
