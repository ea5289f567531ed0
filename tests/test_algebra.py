import itertools
import random

import pytest

from hodgegap import algebra
from hodgegap.algebra import (
    FiniteField,
    FqElement,
    Polynomial,
    discriminant_squarefree,
    element_of_order,
    fq_sqrt,
    is_prime,
    kernel_dim_mod_p,
    kernel_dim_rational,
    poly_divmod,
    poly_gcd,
    rank_mod_p,
    square_roots,
)
from hodgegap.cyclotomic import cyclotomic_field
from hodgegap.modularrep import g_minus_one

F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, modulus=(1, 0))
K5 = cyclotomic_field(5)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_field_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(5, modulus=(4, 0))  # t^2 + 4 = t^2 - 1 splits mod 5


def test_f9_arithmetic():
    t = F9.gen()
    assert t * t == -F9.one
    assert (t + 1) * (t + 1) == 2 * t
    for a in F9:
        if a:
            assert a * a.inv() == F9.one
    assert len(list(F9)) == 9


def test_poly_compose():
    u = Polynomial(F7, [0, 1])
    f = u * u
    assert f.compose(u + 1) == u * u + u.scale(2) + 1
    quintic = Polynomial(F5, [0, -1, 0, 0, 0, 1])  # u^5 - u
    identity = Polynomial(F5, [0, 1])
    assert quintic.compose(identity) == quintic
    for linear in (identity, Polynomial(F5, [3, 2]), Polynomial(F5, [4])):
        assert identity.compose(linear) == linear
    with pytest.raises(ValueError, match="degree <= 1"):
        identity.compose(quintic)


def _horner_compose(f, inner):
    """f(inner(u)) by Horner's rule, for an inner of any degree: the oracle
    of the Taylor-shift ``compose``."""
    acc = Polynomial(f.ring)
    for c in reversed(f.coeffs):
        acc = acc * inner + Polynomial(f.ring, (c,))
    return acc


K12 = cyclotomic_field(12)
# per ring: (a root of unity or uniformiser, a non-unit or non-one, a dense element)
COMPOSE_RINGS = {
    "F7": (F7, F7.from_int(3), F7.from_int(2), F7.from_int(5)),
    "F9": (F9, F9.gen(), F9.from_int(2), F9.gen() * 2 + 1),
    "Q(zeta_5)": (K5, K5.zeta - 1, K5.from_int(2), K5.element([3, -1, 2, 5], 7)),
    "Q(zeta_12)": (K12, K12.zeta**4 - 1, K12.from_int(2), K12.element([-2, 5, 1, 3], 4)),
}


@pytest.mark.parametrize("name", COMPOSE_RINGS)
def test_compose_is_horner_for_every_linear_inner(name):
    ring, special, non_one, dense = COMPOSE_RINGS[name]
    fs = [
        Polynomial(ring),
        Polynomial(ring, [dense]),
        Polynomial(ring, [1, dense, 0, special, -1, non_one, dense * dense]),
    ]
    for f, beta, alpha in itertools.product(
        fs, (ring.zero, ring.one, non_one, special, dense), (ring.zero, ring.one, special, dense)
    ):
        inner = Polynomial(ring, [beta, alpha])  # alpha = 0: constant or zero inner
        assert f.compose(inner) == _horner_compose(f, inner), (f, beta, alpha)
    quadratic = Polynomial(ring, [0, 1, 1])
    with pytest.raises(ValueError, match="degree <= 1"):
        fs[2].compose(quadratic)


def test_frobenius_freshman_dream():
    u_plus_1 = Polynomial(F5, [1, 1])
    assert u_plus_1**5 == Polynomial(F5, [1, 0, 0, 0, 0, 1])


@pytest.mark.parametrize(
    "f",
    [Polynomial(F5, [2, 1, 0, 3]), Polynomial(K5, [K5.zeta + 2, 1, K5.zeta**3])],
    ids=["F5", "Q(zeta_5)"],
)
def test_polynomial_power_is_repeated_multiplication(f):
    expected = Polynomial(f.ring, [1])
    for k in range(7):
        assert f**k == expected
        expected = expected * f
    with pytest.raises(ValueError, match="negative"):
        f**-1


def test_ring_mismatch_is_rejected():
    with pytest.raises(ValueError):
        Polynomial(F5, [1, 1]) + Polynomial(F7, [1, 1])
    with pytest.raises(ValueError):
        F5.coerce(F7.one)


def test_squarefree_decisions():
    quintic = Polynomial(F5, [0, -1, 0, 0, 0, 1])  # derivative is -1 in F_5
    ok, g = discriminant_squarefree(quintic)
    assert ok and g.degree == 0

    u_sq = Polynomial(K5, [0, 0, 1])
    ok, g = discriminant_squarefree(u_sq)
    assert not ok and g.degree >= 1

    for p in (3, 5, 7, 11, 13):
        fp = FiniteField(p)
        coeffs = [0] * (p + 1)
        coeffs[1], coeffs[p] = -1, 1
        assert discriminant_squarefree(Polynomial(fp, coeffs))[0]

    with pytest.raises(ValueError):
        discriminant_squarefree(Polynomial(F5, [3]))


def _all_monic_of_degree(field, d):
    for tail in itertools.product(field, repeat=d):
        yield Polynomial(field, list(tail) + [field.one])


def _naive_monic_gcd(f, g):
    # try every monic divisor, largest common degree wins
    field = f.ring
    best = Polynomial(field, [field.one])
    for d in range(1, min(f.degree, g.degree) + 1):
        for cand in _all_monic_of_degree(field, d):
            if poly_divmod(f, cand)[1].is_zero() and poly_divmod(g, cand)[1].is_zero():
                best = cand
    return best


@pytest.mark.parametrize("field", [F5, F7])
def test_gcd_against_divisor_enumeration(field):
    rng = random.Random(field.p)
    for _ in range(50):
        f = Polynomial(field, [rng.randrange(field.p) for _ in range(rng.randint(2, 5))])
        g = Polynomial(field, [rng.randrange(field.p) for _ in range(rng.randint(2, 5))])
        if f.is_zero() or g.is_zero() or f.degree < 1 or g.degree < 1:
            continue
        assert poly_gcd(f, g) == _naive_monic_gcd(f, g)


@pytest.mark.parametrize("field", [F7, K5])
def test_gcd_with_a_zero_argument(field):
    f = Polynomial(field, [2, 0, 3, 5])
    zero = Polynomial(field)
    assert poly_gcd(f, zero) == poly_gcd(zero, f) == f.monic()
    assert f.monic().leading() == field.one
    assert poly_gcd(zero, zero).is_zero()


@pytest.mark.parametrize("field", [F7, K5])
def test_euclid_divides_by_monic_remainders_only(monkeypatch, field):
    divisors = []
    divmod_ = algebra.poly_divmod

    def recording(num, den):
        divisors.append(den)
        return divmod_(num, den)

    monkeypatch.setattr(algebra, "poly_divmod", recording)
    rng = random.Random(5)
    for _ in range(20):
        f = Polynomial(field, [rng.randint(-3, 3) for _ in range(rng.randint(3, 7))])
        g = Polynomial(field, [rng.randint(-3, 3) for _ in range(rng.randint(2, 6))])
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert divmod_(f, d)[1].is_zero() and divmod_(g, d)[1].is_zero()
    assert divisors and all(den.leading() == field.one for den in divisors)


def test_a_monic_divisor_takes_no_inverse(monkeypatch):
    inverses = []
    inv = FqElement.inv

    def counting(self):
        inverses.append(self)
        return inv(self)

    monkeypatch.setattr(FqElement, "inv", counting)
    f = Polynomial(F7, [3, 1, 4, 1, 5])
    g = Polynomial(F7, [2, 6, 1])
    assert g.monic() is g
    q, r = poly_divmod(f, g)
    assert q * g + r == f and r.degree < g.degree
    assert inverses == []
    poly_divmod(f, g.scale(3))
    assert len(inverses) == 1


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13, 31, 61, 101])
def test_element_of_order_has_exact_order(ell):
    for n in range(1, ell):
        if (ell - 1) % n:
            with pytest.raises(ValueError):
                element_of_order(n, ell)
            continue
        w = element_of_order(n, ell)
        assert [k for k in range(1, n + 1) if pow(w, k, ell) == 1] == [n]
    # n = l - 1: the least primitive root
    g = element_of_order(ell - 1, ell)
    assert all(len({pow(x, k, ell) for k in range(ell - 1)}) < ell - 1 for x in range(1, g))


def test_kernel_dims():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_dim_mod_p(ident, 5) == 0
    zero = ((0,) * 3,) * 3
    assert kernel_dim_mod_p(zero, 5) == 3
    # entries need not be reduced: -4 = 6 = 1 and 10 = -5 = 0 mod 5
    assert kernel_dim_mod_p(((-4, 10, 0), (0, 6, -5), (0, 0, -9)), 5) == 0
    assert kernel_dim_mod_p(((10, -5, 15), (-5, 0, 25)), 5) == 3
    assert kernel_dim_mod_p(((1, 2, 3), (-4, 12, -2)), 5) == 2  # row 2 = row 1 mod 5
    assert kernel_dim_mod_p(((1, 2, 3), (-4, 12, -1)), 5) == 1

    # (generator - 1) on the augmentation ideal for p = 5: one invariant line
    assert kernel_dim_mod_p(g_minus_one(5), 5) == 1


def test_rank_nullity_on_random_matrices():
    rng = random.Random(505)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = tuple(tuple(rng.randrange(5) for _ in range(cols)) for _ in range(rows))
        assert kernel_dim_mod_p(m, 5) + rank_mod_p(m, 5) == cols
    # the sum above holds by definition; the kernel's size is the real check:
    # oracle, every x in F_5^cols with m x = 0 (at most 5^4 = 625 of them);
    # the entries range over -12..12, so most are negative or unreduced
    rng = random.Random(506)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = tuple(tuple(rng.randint(-12, 12) for _ in range(cols)) for _ in range(rows))
        kernel = sum(
            1
            for x in itertools.product(range(5), repeat=cols)
            if all(sum(a * b for a, b in zip(row, x)) % 5 == 0 for row in entries)
        )
        assert 5 ** kernel_dim_mod_p(entries, 5) == kernel


def test_rational_kernel():
    assert kernel_dim_rational([[1, 0], [0, 1]]) == 0
    assert kernel_dim_rational([[0, 0], [0, 0]]) == 2
    assert kernel_dim_rational([[1, 2], [2, 4]]) == 1
    # L = [I_k; random] and R = [I_k | random] make L*R of rank exactly k;
    # shuffled rows and columns move the pivots off the diagonal
    rng = random.Random(2024)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(0, min(rows, cols))
        left = [[int(i == j) for j in range(k)] for i in range(k)]
        left += [[rng.randint(-9, 9) for _ in range(k)] for _ in range(rows - k)]
        right = [[int(i == j) for j in range(k)] + [rng.randint(-9, 9) for _ in range(cols - k)] for i in range(k)]
        m = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)] for i in range(rows)]
        rng.shuffle(m)
        perm = rng.sample(range(cols), cols)
        m = [[row[j] for j in perm] for row in m]
        assert kernel_dim_rational(m) == cols - k


def test_sqrt_examples():
    assert fq_sqrt(F5.from_int(4)) == 2  # smaller of the two lifts comes first
    assert fq_sqrt(F5.from_int(2)) is None
    t = F9.gen()
    r = fq_sqrt(F9.from_int(2))
    assert r in (t, 2 * t)
    assert r == t  # canonical enumeration order


@pytest.mark.parametrize("field", [F5, F7, F9])
def test_sqrt_squares_back(field):
    for a in field:
        r = fq_sqrt(a)
        if r is not None:
            assert r * r == a
    # every square has a root
    for a in field:
        assert fq_sqrt(a * a) is not None


@pytest.mark.parametrize("field", [F5, F7, F9])
def test_square_roots_table_against_a_scan(field):
    # oracle: every y whose square is s, in the field's canonical order
    table = square_roots(field)
    for s in field:
        roots = tuple(y for y in field if y * y == s)
        assert table.get(s, ()) == roots
        assert fq_sqrt(s) == (roots[0] if roots else None)
    assert sum(len(roots) for roots in table.values()) == field.q


def test_power_is_repeated_multiplication():
    for x in (F7.from_int(3), F9.gen() + 1, K5.zeta + 2):
        for k in range(-4, 7):
            factor = x if k >= 0 else x.inv()
            expected = x.field.one
            for _ in range(abs(k)):
                expected = expected * factor
            assert x**k == expected
