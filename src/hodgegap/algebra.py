"""Shared exact-arithmetic kit: finite fields F_p and F_p[i], dense univariate
polynomials over an arbitrary coefficient field, and exact kernels of sparse
integer matrices (rows as ``{column: entry}`` dicts of their nonzeros), by
one row-echelon insertion over F_l, whose ranks mod several primes also give
the kernel over Q.

Everything is immutable and pure; no floats appear anywhere in this module.
A "coefficient field" is any object exposing ``zero``, ``one`` and
``coerce(x)``, whose elements overload ``+ - *`` and provide ``inv()``.
The reflected operators, such as ``1 - x``, belong to that protocol, as
does ``/`` on the cyclotomic elements: the package's own code reaches few
of them, and the tests write them throughout.
Both :class:`FiniteField` here and the cyclotomic fields elsewhere qualify.
:func:`poly_gcd` also runs over ``cyclotomic.SplitPrime``, at the second
prime of ``curves.modular_squarefree``: a product of fields whose ``inv``
raises ZeroDivisionError on a non-unit.

An :class:`FqElement` is the pair (u, v) = u + v*t of its coordinates over
every field, F_p being the slice v = 0, which + - * and the inverse conj/norm
keep (the norm of (u, 0) is u^2): one formula per operation.  Reduction mod p
happens where the coordinates are computed: in ``from_int``, in each field
operation and in ``cyclotomic.residue_map``; the constructor stores them as
given.  A field check between elements tests the identity of their field
objects first; elements over equal but distinct field objects still combine,
compare and hash alike.
The one square-root table, :attr:`FiniteField.square_roots`, is a cached
property of its field object, keyed and valued by those coordinate pairs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator, Optional


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes_upto(bound: int) -> list[int]:
    return [n for n in range(2, bound + 1) if is_prime(n)]


def power(x, k: int, mul, one):
    """x^k for k >= 0 under an associative ``mul`` with identity ``one``, by
    binary square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3): the one such
    loop, which every power in the package runs, and the one place that
    rejects a negative k."""
    if k < 0:
        raise ValueError(f"negative exponent {k}")
    acc = one
    while k:
        if k & 1:
            acc = mul(acc, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return acc


def element_of_order(n: int, ell: int) -> int:
    """The first x^((l - 1)/n), x = 1, 2, ..., of exact order n in F_l, for a
    prime l and n | l - 1: its n/r-th power is not 1 for any prime r | n.
    With n = l - 1 this is the least primitive root mod l.  The one search
    for such an element in the package."""
    if (ell - 1) % n:
        raise ValueError(f"{n} does not divide {ell} - 1")
    rs = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    for x in range(1, ell):
        w = pow(x, (ell - 1) // n, ell)
        if all(pow(w, n // r, ell) != 1 for r in rs):
            return w
    raise ArithmeticError(f"F_{ell} has no element of order {n}")


def field_pow(x, k: int):
    """x**k, k >= 0, for an element of any coefficient field: the
    ``__pow__`` of :class:`FqElement` and of the cyclotomic elements."""
    return power(x, k, operator.mul, x.field.one)


class FiniteField:
    """F_p for a prime p, or for k = 2 the field F_p[i] = F_p[t]/(t^2 + 1),
    which is one exactly when p = 3 (mod 4): the package's one extension
    field is F_9 = F_3[i].

    Elements are :class:`FqElement` values, each the pair (u, v) = u + v*t
    of its coordinates in the basis ``1, t``, with v = 0 over F_p.  The
    field object doubles as the ring tag carried by polynomials and curve
    models.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k != 1 and (k != 2 or p % 4 != 3):
            raise ValueError(f"need k = 1, or k = 2 with p = 3 (mod 4); got p = {p}, k = {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self.zero = FqElement(self, (0, 0))
        self.one = FqElement(self, (1, 0))

    def from_int(self, a: int) -> "FqElement":
        return FqElement(self, (a % self.p, 0))

    def coerce(self, x) -> "FqElement":
        if isinstance(x, FqElement):
            if x.field is not self and x.field != self:
                raise ValueError("element belongs to a different field")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise TypeError(f"cannot coerce {x!r} into GF({self.q})")

    def gen(self) -> "FqElement":
        """The generator t = i of the quadratic extension, t^2 = -1."""
        if self.k != 2:
            raise ValueError("prime field has no extension generator")
        return FqElement(self, (0, 1))

    def __iter__(self) -> Iterator["FqElement"]:
        # canonical enumeration: 0, 1, ..., p-1, t, 1+t, ...
        p = self.p
        for m in range(self.q):
            yield FqElement(self, (m % p, m // p))

    @functools.cached_property
    def square_roots(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """The pair (u, v) of each square mapped to the pairs of every y with
        y^2 = u + v*t, in the field's canonical order: the one place that
        finds square roots, built once per field object in one pass over
        y = r + s*t, r = m % p and s = m // p for m < q, on plain integers
        (y^2 = (r^2 - s^2) + 2rs*t, as t^2 = -1), and only read."""
        p, roots = self.p, {}
        for m in range(self.q):
            r, s = m % p, m // p
            key = ((r * r - s * s) % p, 2 * r * s % p)
            roots[key] = roots.get(key, ()) + ((r, s),)
        return roots

    def __eq__(self, other) -> bool:
        """Identity first, then by value: a field object built apart, with
        the same p and k, is the same field, and a test pins that."""
        return other is self or (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.k == self.k
        )

    def __hash__(self) -> int:
        return hash(("FiniteField", self.p, self.k))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q})=GF({self.p})[t]/(t^2+1)"


class FqElement:
    """An element u + v*t of a :class:`FiniteField`: ``coords`` is the pair
    (u, v) of integers in [0, p), with v = 0 over F_p, which its caller has
    reduced: the constructor stores them as given."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def __add__(self, other):
        if other.__class__ is not FqElement or other.field is not self.field:
            other = self.field.coerce(other)
        (a0, a1), (b0, b1), p = self.coords, other.coords, self.field.p
        return FqElement(self.field, ((a0 + b0) % p, (a1 + b1) % p))

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not FqElement or other.field is not self.field:
            other = self.field.coerce(other)
        (a0, a1), (b0, b1), p = self.coords, other.coords, self.field.p
        return FqElement(self.field, ((a0 - b0) % p, (a1 - b1) % p))

    def __rsub__(self, other):
        return self.field.coerce(other) - self

    def __neg__(self):
        (a0, a1), p = self.coords, self.field.p
        return FqElement(self.field, (-a0 % p, -a1 % p))

    def __mul__(self, other):
        if other.__class__ is not FqElement or other.field is not self.field:
            other = self.field.coerce(other)
        (a0, a1), (b0, b1), p = self.coords, other.coords, self.field.p
        if a1 | b1:
            return FqElement(self.field, ((a0 * b0 - a1 * b1) % p, (a0 * b1 + a1 * b0) % p))
        return FqElement(self.field, (a0 * b0 % p, 0))  # both in F_p: no v-products

    __rmul__ = __mul__

    def inv(self) -> "FqElement":
        # 1/u when v = 0, else the conjugate over F_p divided by the norm
        (a0, a1), p = self.coords, self.field.p
        if not a1:
            if not a0:
                raise ZeroDivisionError("inverse of zero field element")
            return FqElement(self.field, (pow(a0, -1, p), 0))
        ninv = pow(a0 * a0 + a1 * a1, -1, p)
        return FqElement(self.field, (a0 * ninv % p, -a1 * ninv % p))

    __pow__ = field_pow

    def __bool__(self) -> bool:
        return any(self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.field.from_int(other)
        if not isinstance(other, FqElement):
            return NotImplemented
        same = other.field is self.field or other.field == self.field
        return same and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.field, self.coords))

    def __repr__(self) -> str:
        return str(self)

    def __str__(self) -> str:
        a0, a1 = self.coords
        if a1 == 0:
            return str(a0)
        t = "t" if a1 == 1 else f"{a1}t"
        return t if a0 == 0 else f"{t}+{a0}"


def fq_sqrt(a: FqElement) -> tuple[FqElement, ...]:
    """Every root of ``a`` in the field's canonical order, read from
    :attr:`FiniteField.square_roots`; () when ``a`` is not a square."""
    return tuple(FqElement(a.field, y) for y in a.field.square_roots.get(a.coords, ()))


# ---------------------------------------------------------------------------
# polynomials over a coefficient field


class Polynomial:
    """Dense univariate polynomial, coefficients stored lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs=()):
        cs = [ring.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.ring = ring
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else self.ring.zero

    def _check(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials over different coefficient rings")
            return other
        return Polynomial(self.ring, (other,))

    def __add__(self, other):
        o = self._check(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            self.ring, [self.coeff(i) + o.coeff(i) for i in range(n)]
        )

    def __sub__(self, other):
        o = self._check(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return Polynomial(
            self.ring, [self.coeff(i) - o.coeff(i) for i in range(n)]
        )

    def __mul__(self, other):
        o = self._check(other)
        out = [self.ring.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.ring, out)

    def __pow__(self, k: int) -> "Polynomial":
        return power(self, k, operator.mul, Polynomial(self.ring, (self.ring.one,)))

    def scale(self, c) -> "Polynomial":
        """c * self; a zero coefficient stays the ring's zero, unmultiplied."""
        c, zero = self.ring.coerce(c), self.ring.zero
        return Polynomial(self.ring, [c * a if a else zero for a in self.coeffs])

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(alpha*u + beta) for a linear ``inner`` = alpha*u + beta.  With
        beta = 0, coefficient k is scaled by alpha^k (:func:`_scale_powers`).
        Otherwise f(alpha*u + beta) = F((alpha/beta)*u + 1) for F(u) =
        f(beta*u): self is scaled by the powers of beta unless beta = 1, then
        one binomial chain (:func:`_binomial_chain`) runs, a sparse times
        dense product per step when the outer and alpha are sparse, as pi
        is.  A passing report never has beta outside {0, 1}; a map that
        translates by another beta, such as the tests' perturbation
        ``sigma-translation-2``, needs the scaling by beta.  An inner of
        degree > 1 raises ValueError."""
        inner = self._check(inner)
        if inner.degree > 1:
            raise ValueError(f"compose needs an inner of degree <= 1, got {inner.degree}")
        beta, alpha = inner.coeff(0), inner.coeff(1)
        a = self.coeffs
        if not beta:
            return Polynomial(self.ring, _scale_powers(a, alpha))
        if beta != self.ring.one:
            a = _scale_powers(a, beta)
            alpha = alpha * beta.inv()
        return Polynomial(self.ring, _binomial_chain(self.ring, a, alpha))

    def __call__(self, x):
        x = self.ring.coerce(x)
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        """f', coefficient k times the int k by the ring's integer product."""
        return Polynomial(
            self.ring,
            [c * k for k, c in enumerate(self.coeffs)][1:],
        )

    def monic(self) -> "Polynomial":
        """self over its leading coefficient; self when that is already one
        (or self is zero), with no inverse and no product."""
        if self.is_zero() or self.leading() == self.ring.one:
            return self
        return self.scale(self.leading().inv())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Polynomial[{self.render()}]"

    def render(self, var: str = "u") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if not c:
                continue
            mono = "1" if k == 0 else (var if k == 1 else f"{var}^{k}")
            cs = str(c)
            if k == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts)


def _binomial_chain(ring, coeffs, alpha) -> list:
    """The coefficients of sum_k c_k (alpha*u + 1)^k, the composing step of
    :meth:`Polynomial.compose`: for each nonzero c_k, binom(k, j) c_k alpha^j
    is added to coefficient j, with one running product c_k alpha^j and
    binom(k, j + 1) = binom(k, j) (k - j) / (j + 1)."""
    out = [ring.zero] * len(coeffs)
    for k, c in enumerate(coeffs):
        if not c:
            continue
        b = 1
        for j in range(k):
            out[j] = out[j] + c * b
            c = c * alpha
            b = b * (k - j) // (j + 1)
        out[k] = out[k] + c
    return out


def _scale_powers(coeffs, r) -> list:
    """[c_k * r^k], the scaling step of :meth:`Polynomial.compose`, with
    one running power of r, which advances past a zero c_k; a zero c_k
    stays as it is, unmultiplied."""
    out = list(coeffs[:1])
    rk = None
    for c in coeffs[1:]:
        rk = r if rk is None else rk * r
        out.append(c * rk if c else c)
    return out


def _monic_remainder(num: Polynomial, den: Polynomial) -> Polynomial:
    """num mod den for a monic den, the step of :func:`poly_gcd`: no quotient
    is kept, and no inverse is taken.  Entry i + d, which the step cancels,
    is never read again, so den's leading 1 is not multiplied in."""
    rem = list(num.coeffs)
    d = den.degree
    low = den.coeffs[:d]
    for i in range(len(rem) - 1 - d, -1, -1):
        c = rem[i + d]
        if c:
            for j, b in enumerate(low):
                rem[i + j] = rem[i + j] - c * b
    return Polynomial(num.ring, rem[:d])


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd by the monic Euclidean algorithm (field coefficients): each
    remainder is made monic before it divides (von zur Gathen & Gerhard,
    *Modern Computer Algebra*, 3.2 and ch. 6).  That costs one inverse per
    step, which the division by a non-monic remainder paid anyway, keeps
    the coefficients from swelling between steps, and leaves every divisor
    monic, so each step is one :func:`_monic_remainder`.  poly_gcd(f, 0) is
    f.monic(), and poly_gcd(0, 0) is 0."""
    if f.ring != g.ring:
        raise ValueError("polynomials over different coefficient rings")
    a, b = f, g.monic()
    while not b.is_zero():
        a, b = b, _monic_remainder(a, b).monic()
    return a.monic()


def rational_reconstruction(a: int, m: int) -> Optional[tuple[int, int]]:
    """For a prime m, the one (r, s) with r = a*s (mod m), |r| <= B and
    0 < s <= B for B = isqrt(m // 2), in lowest terms, or None when there is
    none: Wang's half extended Euclid, stopped at the first remainder <= B
    (von zur Gathen & Gerhard, *Modern Computer Algebra*, 5.10).  Each
    remainder is r = sigma*m + s*a with gcd(sigma, s) = 1, so a prime m
    leaves r and s coprime with no gcd taken."""
    bound = math.isqrt(m // 2)
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if s1 <= bound else None


def discriminant_squarefree(f: Polynomial) -> bool:
    """Whether f is squarefree: gcd(f, f') is a nonzero constant.  Constant
    input is an error since the question is vacuous there."""
    if f.degree < 1:
        raise ValueError("squarefreeness needs a nonconstant polynomial")
    return poly_gcd(f, f.derivative()).degree == 0


# ---------------------------------------------------------------------------
# exact linear algebra


def kernel_dim_mod_p(rows, p: int, cols: int) -> int:
    """dim over F_p, p prime, of the kernel of a sparse integer matrix with
    ``cols`` columns: each row a ``{column: entry}`` dict of its nonzeros;
    an entry outside columns 0..cols-1 raises ValueError.

    Row-echelon insertion: the rows, shortest first, are reduced mod p and
    swept left to right from their leading column.  At a column that holds a
    stored pivot row, that row is subtracted, with fill-in (always to the
    right of the sweep); at the first column that holds none, the row is
    stored there, scaled to a leading 1 that is not kept.  The rank is the
    number of stored rows.  Shortest first, the p - 2 bidiagonal rows of
    g - 1 are each stored at their leading column, and its one dense row
    meets stored rows of one entry each: O(p) in all."""
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        r = {}
        for j, x in row.items():
            if not 0 <= j < cols:
                raise ValueError(f"entry in column {j} of a matrix with {cols} columns")
            if x % p:
                r[j] = x % p
        for col in range(min(r, default=cols), cols):
            if col not in r:
                continue
            f = r.pop(col)
            top = pivots.get(col)
            if top is None:
                inv = pow(f, -1, p)
                pivots[col] = {j: x * inv % p for j, x in r.items()}
                break
            for j, t in top.items():
                x = (r.get(j, 0) - f * t) % p
                if x:
                    r[j] = x
                elif j in r:
                    del r[j]
    return cols - len(pivots)


def kernel_dim_rational(rows, cols: int) -> int:
    """dim over Q of the kernel of a sparse integer matrix with ``cols``
    columns (rows as in :func:`kernel_dim_mod_p`), from its ranks mod primes
    by that one elimination.

    Reduction mod a prime l can only lower the rank, so the largest rank r
    seen is at most the rank over Q, and equals it once r is as large as
    the shape allows.  Otherwise every (r + 1)-minor is divisible by each
    prime tried, and by Hadamard's inequality none exceeds the product of
    the r + 1 largest row norms: once the product of the primes exceeds that
    bound, every such minor is 0 and the rank over Q is r (von zur Gathen &
    Gerhard, *Modern Computer Algebra*, 5.5 and Theorem 16.6).  The first
    prime is 2^61 - 1, not the characteristic the caller cares about: mod p
    the norm element lies in the kernel of g - 1, while mod 2^61 - 1 g - 1
    has full rank, so the report stops at that prime with no norm computed.
    The primes after it are those above 2^20, the bound of the split primes
    in ``curves``: :func:`is_prime` finds each by a few hundred divisions.
    """
    most, rank, modulus, norms = min(len(rows), cols), 0, 1, None
    for ell in itertools.chain([2**61 - 1], filter(is_prime, itertools.count(2**20 + 1))):
        rank = max(rank, cols - kernel_dim_mod_p(rows, ell, cols))
        modulus *= ell
        if rank == most:
            return cols - rank
        if norms is None:  # squared, against modulus^2
            norms = sorted((sum(x * x for x in row.values()) for row in rows), reverse=True)
        if modulus * modulus > math.prod(norms[: rank + 1]):
            return cols - rank
