"""Shared exact-arithmetic kit: finite fields F_p and F_p[i], dense univariate
polynomials over an arbitrary coefficient field, and small exact matrix kernels.

Everything is immutable and pure; no floats appear anywhere in this module.
A "coefficient field" is any object exposing ``zero``, ``one`` and
``coerce(x)``, whose elements overload ``+ - *`` and provide ``inv()``.
Both :class:`FiniteField` here and the cyclotomic fields elsewhere qualify.
:func:`poly_gcd` also runs over ``cyclotomic.SplitPrime``, at the second
prime of ``curves.modular_squarefree``: a product of fields whose ``inv``
raises ZeroDivisionError on a non-unit.

Reduction mod p happens where an :class:`FqElement`'s coordinates are
computed: in ``from_int``, in each field operation and in
``cyclotomic.residue_map``; the constructor stores them as given.  A field check
between elements tests the identity of their field objects first; elements
over equal but distinct field objects still combine, compare and hash alike.
A per-field table (:attr:`FiniteField.square_roots`,
:attr:`FiniteField.root_counts`) is a cached property of its field object,
so the elements it holds are that object's.
"""

from __future__ import annotations

import functools
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

    Elements are :class:`FqElement` values with coordinates in the basis
    ``1, t``.  The field object doubles as the ring tag carried by
    polynomials and curve models.
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if k != 1 and (k != 2 or p % 4 != 3):
            raise ValueError(f"need k = 1, or k = 2 with p = 3 (mod 4); got p = {p}, k = {k}")
        self.p = p
        self.k = k
        self.q = p**k
        self._hash = hash(("FiniteField", p, k))
        self.zero = FqElement(self, (0,) * k)
        self.one = FqElement(self, (1,) + (0,) * (k - 1))

    def from_int(self, a: int) -> "FqElement":
        return FqElement(self, (a % self.p,) + (0,) * (self.k - 1))

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
            yield FqElement(self, (m,) if self.k == 1 else (m % p, m // p))

    @functools.cached_property
    def square_roots(self) -> dict["FqElement", tuple["FqElement", ...]]:
        """Each square s of the field mapped to every y with y^2 = s, in the
        field's canonical order: the one place that finds square roots, built
        in one pass over the field, once per field object, and only read."""
        roots: dict[FqElement, tuple[FqElement, ...]] = {}
        for y in self:
            s = y * y
            roots[s] = roots.get(s, ()) + (y,)
        return roots

    @functools.cached_property
    def root_counts(self) -> tuple[int, ...]:
        """Entry m is the number of y with y^2 = the m-th element in canonical
        order (the integer m over a prime field), read from
        :attr:`square_roots`."""
        roots = self.square_roots
        return tuple(len(roots.get(s, ())) for s in self)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.k == self.k
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.q})=GF({self.p})[t]/(t^2+1)"


class FqElement:
    """An element of a :class:`FiniteField`: its coordinates in the basis
    ``1, t``, a tuple of integers each in [0, p), which its caller has
    reduced: the constructor stores them as given."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple[int, ...]):
        self.field = field
        self.coords = coords

    def _co(self, other) -> "FqElement":
        if other.__class__ is FqElement and other.field is self.field:
            return other
        return self.field.coerce(other)

    def __add__(self, other):
        o = self._co(other)
        f = self.field
        if f.k == 1:
            return FqElement(f, ((self.coords[0] + o.coords[0]) % f.p,))
        return FqElement(f, tuple([(a + b) % f.p for a, b in zip(self.coords, o.coords)]))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        f = self.field
        if f.k == 1:
            return FqElement(f, ((self.coords[0] - o.coords[0]) % f.p,))
        return FqElement(f, tuple([(a - b) % f.p for a, b in zip(self.coords, o.coords)]))

    def __rsub__(self, other):
        return self._co(other) - self

    def __neg__(self):
        return FqElement(self.field, tuple([-a % self.field.p for a in self.coords]))

    def __mul__(self, other):
        o = self._co(other)
        f = self.field
        if f.k == 1:
            return FqElement(f, (self.coords[0] * o.coords[0] % f.p,))
        a0, a1 = self.coords
        b0, b1 = o.coords
        return FqElement(f, ((a0 * b0 - a1 * b1) % f.p, (a0 * b1 + a1 * b0) % f.p))

    __rmul__ = __mul__

    def inv(self) -> "FqElement":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        if f.k == 1:
            return FqElement(f, (pow(self.coords[0], -1, f.p),))
        # conjugate over F_p divided by the norm, both exact
        a0, a1 = self.coords
        ninv = pow(a0 * a0 + a1 * a1, -1, f.p)
        return FqElement(f, (a0 * ninv % f.p, -a1 * ninv % f.p))

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
        if self.field.k == 1:
            return str(self.coords[0])
        a0, a1 = self.coords
        if a1 == 0:
            return str(a0)
        t = "t" if a1 == 1 else f"{a1}t"
        return t if a0 == 0 else f"{t}+{a0}"


def fq_sqrt(a: FqElement) -> Optional[FqElement]:
    """First root of ``a`` in the field's canonical order, looked up in
    :attr:`FiniteField.square_roots`; None when ``a`` is not a square."""
    roots = a.field.square_roots.get(a)
    return roots[0] if roots else None


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
        c = self.ring.coerce(c)
        return Polynomial(self.ring, [c * a for a in self.coeffs])

    def compose(self, inner: "Polynomial") -> "Polynomial":
        """self(alpha*u + beta) for a linear ``inner`` = alpha*u + beta.  With
        beta = 0, coefficient k is scaled by alpha^k (:func:`_scale_powers`).
        Otherwise f(alpha*u + beta) = F((alpha/beta)*u + 1) for F(u) =
        f(beta*u): self is scaled by the powers of beta unless beta = 1, then
        one binomial chain (:func:`_binomial_chain`) runs, a sparse times
        dense product per step when the outer and alpha are sparse, as pi
        is.  An inner of degree > 1 raises ValueError."""
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
        return Polynomial(
            self.ring,
            [self.ring.coerce(k) * c for k, c in enumerate(self.coeffs)][1:],
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

    def __hash__(self) -> int:
        return hash((self.ring, self.coeffs))

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
    one running power of r."""
    out = list(coeffs[:1])
    rk = None
    for c in coeffs[1:]:
        rk = r if rk is None else rk * r
        out.append(c * rk)
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


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of an integer matrix, by forward elimination on its
    entries reduced mod p: each row below the pivot becomes piv*row - f*top,
    a unit multiple plus a row combination, so the row space is kept."""
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        piv = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            if f:
                a[i] = [(piv * x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
        if rank == len(a):
            break
    return rank


def kernel_dim_mod_p(rows, p: int) -> int:
    """dim over F_p of the kernel of an integer matrix."""
    return (len(rows[0]) if rows else 0) - rank_mod_p(rows, p)


# 2^61 - 1, a Mersenne prime: the modulus of kernel_dim_rational's certificate
_M61 = 2**61 - 1


def kernel_dim_rational(entries) -> int:
    """dim over Q of the kernel of an integer matrix.

    First a one-sided certificate: reducing an integer matrix mod a prime l
    can only lower its rank, so a zero kernel mod l = 2^61 - 1 proves a zero
    kernel over Q, and 0 is returned at once.  l is a fixed large prime, not
    the characteristic the caller cares about: mod p the matrix of g - 1 has
    the norm element in its kernel and would never certify.  Otherwise the
    exact answer comes from :func:`_bareiss_kernel_dim`.
    """
    if kernel_dim_mod_p(entries, _M61) == 0:
        return 0
    return _bareiss_kernel_dim(entries)


def _bareiss_kernel_dim(entries) -> int:
    """dim over Q of the kernel of an integer matrix, by fraction-free
    (Bareiss) elimination, the fallback of :func:`kernel_dim_rational`.

    After each pivot, every entry below it is a minor of the input, so the
    division by the previous pivot is exact (Sylvester's identity) and the
    entries stay integers of bounded size.
    """
    a = [list(row) for row in entries]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, rows) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        piv = top[col]
        for i in range(rank + 1, rows):
            f = a[i][col]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        rank += 1
        if rank == rows:
            break
    return cols - rank
