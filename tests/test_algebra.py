import itertools
import math
import random

import pytest
from conftest import compose_paths, distinct_field_comparisons, recorded

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
    poly_gcd,
    primes_upto,
    rational_reconstruction,
)
from hodgegap.curves import AffineCurveMap, construction, map_power
from hodgegap.cyclotomic import CyclotomicField, SplitPrime, cyclotomic_field
from hodgegap.modularrep import g_minus_one

F5 = FiniteField(5)
F7 = FiniteField(7)
F9 = FiniteField(3, 2)
K5 = cyclotomic_field(5)


def test_derivative_multiplies_by_the_int_k_as_by_the_coerced_k():
    # coefficient k times the int k, by each ring's own integer product,
    # equals the product with k coerced into the ring, zeros (k = 0 mod p)
    # included
    split = SplitPrime(K5, 11)
    rng = random.Random(40)
    elements = {
        F7: list(F7), F9: list(F9),
        K5: [K5.element([rng.randint(-9, 9) for _ in range(4)], rng.randint(1, 5))
             for _ in range(9)],
        split: [split.coerce(K5.element([rng.randint(-9, 9) for _ in range(4)]))
                for _ in range(9)],
    }
    for ring, pool in elements.items():
        for _ in range(5):
            f = Polynomial(ring, [rng.choice(pool) for _ in range(12)] + [ring.one])
            expected = [ring.coerce(k) * c for k, c in enumerate(f.coeffs)][1:]
            assert f.derivative() == Polynomial(ring, expected)
            assert (f.derivative().degree == 11) is bool(ring.coerce(12))  # 12 = 0 in F_9


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rational_reconstruction_against_every_fraction_within_reach():
    # mod m = 2003 every residue is the image of at most one r/s with
    # |r|, s <= 31 = isqrt(m // 2) in lowest terms: that fraction comes back,
    # and None for every residue that no such fraction reaches
    m = 2003
    bound = math.isqrt(m // 2)
    within = [(r, s) for s in range(1, bound + 1) for r in range(-bound, bound + 1)
              if math.gcd(r, s) == 1]
    images = {r * pow(s, -1, m) % m: (r, s) for r, s in within}
    assert len(images) == len(within) < m
    for a in range(m):
        assert rational_reconstruction(a, m) == images.get(a)
    assert rational_reconstruction(-5 * m + 7, m) == (7, 1)


def test_field_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(5, 2)  # t^2 + 1 = (t - 2)(t + 2) splits mod 5
    with pytest.raises(ValueError):
        FiniteField(7, 3)  # only F_p and F_p[i]


def test_f9_arithmetic():
    t = F9.gen()
    assert t * t == -F9.one
    assert (t + 1) * (t + 1) == 2 * t
    for a in F9:
        if a:
            assert a * a.inv() == F9.one
    assert len(list(F9)) == 9


def _raw_mul(a, b):
    """The product of two coordinate pairs, unreduced mod p (t^2 = -1)."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


# F_5 and F_61 are = 1 (mod 4), where Z[i]/(p) is not a field, F_7 = 3 (mod 4)
@pytest.mark.parametrize("field", [F5, FiniteField(61), F9, F7])
def test_every_result_is_canonical_and_matches_the_raw_integers_mod_p(field):
    # the constructor stores coordinates as given, so each operation must
    # reduce its own; oracle: the raw integer pairs, reduced here.  Every
    # element is a pair (u, v), and over F_p every result keeps v = 0
    p = field.p
    rng = random.Random(field.q)

    def reduced(raw):
        return FqElement(field, tuple(c % p for c in raw))

    def raw_element():
        raw = (rng.randint(-3 * p, 3 * p), rng.randint(-3 * p, 3 * p) if field.k == 2 else 0)
        return reduced(raw), raw

    def raw_int():
        n = rng.choice([rng.randint(-3 * p, -1), rng.randint(p, 3 * p), rng.randrange(p)])
        return n, (n, 0)

    def canonical(z):
        assert type(z) is FqElement and z.field is field
        u, v = z.coords
        assert 0 <= u < p and 0 <= v < p and (v == 0 or field.k == 2)

    def check(result, raw):
        canonical(result)
        expected = reduced(raw)
        assert result == expected and result.coords == expected.coords
        assert hash(result) == hash(expected)

    for _ in range(300):
        x, a = raw_element()
        y, b = raw_element() if rng.random() < 0.5 else raw_int()
        neg_b = tuple(-c for c in b)
        check(x + y, tuple(map(sum, zip(a, b))))
        check(y + x, tuple(map(sum, zip(b, a))))
        check(x - y, tuple(map(sum, zip(a, neg_b))))
        check(y - x, tuple(bi - ai for ai, bi in zip(a, b)))
        check(x * y, _raw_mul(a, b))
        check(y * x, _raw_mul(b, a))
        check(-x, tuple(-c for c in a))
        check(field.from_int(b[0]), (b[0], 0))
        e = rng.randrange(6)
        acc = (1, 0)
        for _ in range(e):
            acc = _raw_mul(acc, a)
        check(x**e, acc)
        if x:
            # the inverse's oracle: the one y in the field with x*y = 1,
            # its coordinates shifted by random multiples of p
            inv = next(z for z in field if x * z == field.one)
            check(x.inv(), tuple(c + p * rng.randint(-3, 3) for c in inv.coords))
    for m, z in enumerate(field):
        check(z, (m % p, m // p))
    check(field.zero, (0, 0))
    check(field.one, (1, 0))
    # the square-root table holds coordinate pairs, each canonical
    for s, ys in field.square_roots.items():
        canonical(FqElement(field, s))
        for y in (FqElement(field, c) for c in ys):
            canonical(y)
            assert (y * y).coords == s


def test_equal_fields_are_one_field_for_arithmetic_and_hashing(monkeypatch):
    # the identity check is only a shortcut: elements over two distinct but
    # equal field objects add, compare and hash as over one
    compared = distinct_field_comparisons(monkeypatch)
    f, g = FiniteField(7), FiniteField(7)
    assert f is not g and f == g and hash(f) == hash(g)
    x, y = f.from_int(3), g.from_int(4)
    assert x + y == f.zero and y + x == g.zero and x * y == f.from_int(5)
    assert x == g.from_int(3) and hash(x) == hash(g.from_int(3))
    assert f.coerce(y) is y
    assert compared  # every one of them took the comparison by value
    # a field hashes as its parameters, and an element as its field and its
    # coordinate pair, which over F_p is (u, 0)
    assert x.coords == (3, 0)
    assert hash(f) == hash(("FiniteField", 7, 1))
    assert hash(F9) == hash(("FiniteField", 3, 2))
    for z in [*F9, x, y]:
        assert hash(z) == hash((z.field, z.coords))
    k, k2 = CyclotomicField(5), cyclotomic_field(5)
    assert k is not k2 and k == k2 and hash(k) == hash(k2)
    z, z2 = k.zeta + 2, k2.zeta + 2
    assert z == z2 and hash(z) == hash(z2)
    assert z + z2 == 2 * z2 and z2 * z == z * z2 and z - z2 == k.zero
    assert k2.coerce(z) is z
    for w in (z, z2 / 3, k.zero, k2.one):
        assert hash(w) == hash((w.field, w.num, w.den))


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
    of ``compose``."""
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


def _sparse_outers(ring, special, non_one, dense):
    """Outers with few nonzero coefficients: 1, the monomials c u^3 and
    c u^7, the binomial u^6 + c, and nine coefficients with three or four
    nonzero."""
    z = ring.zero
    return [
        Polynomial(ring, [ring.one]),
        Polynomial(ring, [z, z, z, dense]),
        Polynomial(ring, [z] * 7 + [special]),
        Polynomial(ring, [non_one] + [z] * 5 + [ring.one]),
        Polynomial(ring, [dense, z, z, special, z, z, z, z, non_one]),
        Polynomial(ring, [dense, z, z, special, z, dense, z, z, non_one]),
    ]


@pytest.mark.parametrize("name", COMPOSE_RINGS)
def test_compose_of_a_sparse_outer_is_horner(name):
    ring, special, non_one, dense = COMPOSE_RINGS[name]
    for f, beta, alpha in itertools.product(
        _sparse_outers(ring, special, non_one, dense),
        (ring.zero, ring.one, non_one, dense),
        (ring.zero, ring.one, special, dense),
    ):
        inner = Polynomial(ring, [beta, alpha])
        assert f.compose(inner) == _horner_compose(f, inner), (f, beta, alpha)


@pytest.mark.parametrize("name", COMPOSE_RINGS)
def test_compose_chooses_its_path_from_beta_alone(monkeypatch, name):
    # beta = 0 scales by the powers of alpha; beta = 1 takes the chain, and
    # any other beta scales by its powers first, whatever the outer
    ring, special, non_one, dense = COMPOSE_RINGS[name]
    taken = compose_paths(monkeypatch)
    outers = _sparse_outers(ring, special, non_one, dense)
    outers.append(Polynomial(ring, [1, dense, 0, special, -1, non_one, dense * dense]))
    for f, (beta, path) in itertools.product(
        outers,
        [
            (ring.one, ["chain"]),
            (ring.zero, ["scale"]),
            (non_one, ["scale", "chain"]),
            (special, ["scale", "chain"]),
            (dense, ["scale", "chain"]),
        ],
    ):
        taken.clear()
        f.compose(Polynomial(ring, [beta, special]))
        assert [name for name, _ in taken] == path, (f, beta)


@pytest.mark.parametrize("p", [3, 5, 13])
def test_compose_of_the_dense_family_is_horner(monkeypatch, p):
    # the outer a failing report composes: the family f, of degree p (9 at
    # p = 3) with over two thirds of its coefficients nonzero, under sigma
    # (the chain), sigma^2 and sigma-translation-2's map (scaling by beta,
    # then the chain) and u -> zeta_p*u (scaling alone)
    c = construction(p)
    f, s, k = c.family.f, c.sigma, c.spec.field
    assert 3 * sum(map(bool, f.coeffs)) > 2 * len(f.coeffs)
    taken = compose_paths(monkeypatch)
    for m, path in [
        (s, ["chain"]),
        (map_power(s, 2), ["scale", "chain"]),
        (AffineCurveMap(s.alpha, k.from_int(2), s.gamma), ["scale", "chain"]),
        (AffineCurveMap(s.alpha, k.zero, s.gamma), ["scale"]),
    ]:
        taken.clear()
        inner = Polynomial(k, [m.beta, m.alpha])
        assert f.compose(inner) == _horner_compose(f, inner), (p, m)
        assert [name for name, _ in taken] == path, (p, m)


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
    assert discriminant_squarefree(quintic) is True
    assert poly_gcd(quintic, quintic.derivative()).degree == 0

    u_sq = Polynomial(K5, [0, 0, 1])
    assert discriminant_squarefree(u_sq) is False
    assert poly_gcd(u_sq, u_sq.derivative()).degree >= 1

    for p in (3, 5, 7, 11, 13):
        fp = FiniteField(p)
        coeffs = [0] * (p + 1)
        coeffs[1], coeffs[p] = -1, 1
        assert discriminant_squarefree(Polynomial(fp, coeffs))

    with pytest.raises(ValueError):
        discriminant_squarefree(Polynomial(F5, [3]))


def _all_monic_of_degree(field, d):
    for tail in itertools.product(field, repeat=d):
        yield Polynomial(field, list(tail) + [field.one])


def _naive_monic_gcd(f, g):
    # try every monic divisor, largest common degree wins; d divides f
    # exactly when gcd(f, d) is d itself
    field = f.ring
    best = Polynomial(field, [field.one])
    for d in range(1, min(f.degree, g.degree) + 1):
        for cand in _all_monic_of_degree(field, d):
            if poly_gcd(f, cand) == cand and poly_gcd(g, cand) == cand:
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
    remainder = algebra._monic_remainder
    divisions = recorded(monkeypatch, algebra, "_monic_remainder")
    rng = random.Random(5)
    for _ in range(20):
        f = Polynomial(field, [rng.randint(-3, 3) for _ in range(rng.randint(3, 7))])
        g = Polynomial(field, [rng.randint(-3, 3) for _ in range(rng.randint(2, 6))])
        if f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(f, g)
        assert remainder(f, d).is_zero() and remainder(g, d).is_zero()
    assert divisions and all(den.leading() == field.one for _, den in divisions)


def test_a_monic_divisor_takes_no_inverse(monkeypatch):
    inverses = recorded(monkeypatch, FqElement, "inv")
    f = Polynomial(F7, [3, 1, 4, 1, 5])
    g = Polynomial(F7, [2, 6, 1])
    assert g.monic() is g
    r = algebra._monic_remainder(f, g)
    assert inverses == []
    assert r.degree < g.degree and poly_gcd(f - r, g) == g


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


def _sparse(m):
    """The rows of a dense integer matrix as {column: entry} dicts of their
    nonzeros, the input of the kernels."""
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def _kernel_size_mod_5(m, cols):
    # oracle: every x in F_5^cols with m x = 0, over the dense rows
    return sum(
        1
        for x in itertools.product(range(5), repeat=cols)
        if all(sum(a * b for a, b in zip(row, x)) % 5 == 0 for row in m)
    )


M61 = 2**61 - 1
# the first two primes above 2^20: the second and third that
# kernel_dim_rational tries
L2, L3 = itertools.islice(filter(is_prime, itertools.count(2**20 + 1)), 2)


def _bareiss_kernel_dim(entries, cols):
    """Oracle: dim over Q of the kernel of a dense integer matrix with
    ``cols`` columns, by fraction-free (Bareiss) elimination, an algorithm
    apart from the kernels' row-echelon insertion.  After each pivot, every
    entry below it is a minor of the input, so the division by the previous
    pivot is exact (Sylvester's identity)."""
    a = [list(row) for row in entries]
    rank, prev = 0, 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        top = a[rank]
        piv = top[col]
        for i in range(rank + 1, len(a)):
            f = a[i][col]
            a[i] = [(piv * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = piv
        rank += 1
    return cols - rank

# rows x0 + x1, x0 + x2 and x2 - x1 over 3 columns
FILL_IN = [{0: 1, 1: 1}, {0: 1, 2: 1}, {1: -1, 2: 1}]


def test_kernel_dims():
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_dim_mod_p(_sparse(ident), 5, 3) == 0
    zero = ((0,) * 3,) * 3
    assert kernel_dim_mod_p(_sparse(zero), 5, 3) == 3
    # entries need not be reduced: -4 = 6 = 1 and 10 = -5 = 0 mod 5
    assert kernel_dim_mod_p(_sparse(((-4, 10, 0), (0, 6, -5), (0, 0, -9))), 5, 3) == 0
    assert kernel_dim_mod_p(_sparse(((10, -5, 15), (-5, 0, 25))), 5, 3) == 3
    assert kernel_dim_mod_p(_sparse(((1, 2, 3), (-4, 12, -2))), 5, 3) == 2  # row 2 = row 1 mod 5
    assert kernel_dim_mod_p(_sparse(((1, 2, 3), (-4, 12, -1))), 5, 3) == 1
    # fill-in: the second row less the first gains an entry in column 1,
    # where the third row's pivot cancels it; the kernel is spanned by (1, -1, -1)
    assert kernel_dim_mod_p(FILL_IN, 5, 3) == kernel_dim_mod_p(FILL_IN, M61, 3) == 1

    # (generator - 1) on the augmentation ideal for p = 5: one invariant line
    assert kernel_dim_mod_p(g_minus_one(5), 5, 4) == 1


def test_a_matrix_with_no_rows_has_every_column_in_its_kernel():
    assert kernel_dim_mod_p([], 5, 3) == 3
    assert kernel_dim_rational([], 3) == 3
    assert kernel_dim_mod_p([{}, {}], 5, 3) == kernel_dim_rational([{}, {}], 3) == 3
    assert kernel_dim_mod_p([], 5, 0) == kernel_dim_rational([], 0) == 0


@pytest.mark.parametrize("column", [3, -1])
def test_an_entry_outside_the_columns_is_rejected(column):
    rows = [{0: 1}, {column: 2}]
    with pytest.raises(ValueError, match="column"):
        kernel_dim_mod_p(rows, 5, 3)
    with pytest.raises(ValueError, match="column"):
        kernel_dim_rational(rows, 3)


def test_rank_nullity_on_random_matrices():
    rng = random.Random(505)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        dense = tuple(tuple(rng.randrange(5) for _ in range(cols)) for _ in range(rows))
        m, transpose = _sparse(dense), _sparse(zip(*dense))
        # row rank equals column rank, mod 5 and mod 2^61 - 1
        for l in (5, M61):
            assert cols - kernel_dim_mod_p(m, l, cols) == rows - kernel_dim_mod_p(transpose, l, rows)
    # the kernel's size, against the brute-force oracle (at most 5^4 = 625
    # vectors); the entries range over -12..12, so most are negative or
    # unreduced
    rng = random.Random(506)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        entries = tuple(tuple(rng.randint(-12, 12) for _ in range(cols)) for _ in range(rows))
        assert 5 ** kernel_dim_mod_p(_sparse(entries), 5, cols) == _kernel_size_mod_5(entries, cols)


def _structured_matrices():
    """200 seeded dense integer matrices of at most 4 columns whose rows are
    drawn from the shapes that steer the sparse pivot choice: empty rows,
    duplicates and multiples of an earlier row, one dense row (every entry
    nonzero), and rows of one or two entries."""
    rng = random.Random(507)
    for _ in range(200):
        cols = rng.randint(1, 4)
        m = []
        for _ in range(rng.randint(1, 6)):
            shape = rng.choice(["empty", "copy", "dense", "short"]) if m else "dense"
            if shape == "empty":
                row = [0] * cols
            elif shape == "copy":
                row = [rng.choice([1, -1, 5, 2]) * x for x in rng.choice(m)]
            elif shape == "dense":
                row = [rng.choice([-7, -3, -1, 1, 2, 4, 6]) for _ in range(cols)]
            else:
                row = [0] * cols
                for j in rng.sample(range(cols), min(cols, rng.randint(1, 2))):
                    row[j] = rng.randint(-12, 12)
            m.append(row)
        rng.shuffle(m)
        yield m, cols


def test_sparse_rank_agrees_with_bareiss_and_the_f5_oracle():
    dense_rows = 0
    for m, cols in _structured_matrices():
        dense_rows += any(all(row) and cols > 1 for row in m)
        # the order of the rows sets the cost only, never the answer
        for rows in (_sparse(m), _sparse(m[::-1])):
            assert 5 ** kernel_dim_mod_p(rows, 5, cols) == _kernel_size_mod_5(m, cols), m
            assert kernel_dim_mod_p(rows, M61, cols) == _bareiss_kernel_dim(m, cols), m
            assert kernel_dim_rational(rows, cols) == _bareiss_kernel_dim(m, cols), m
    assert dense_rows > 100


def _rank_k_products():
    """300 seeded integer matrices L*R of known rank k, with their kernel
    dimension over Q: L = [I_k; random] and R = [I_k | random] make L*R of
    rank exactly k, and shuffled rows and columns move the pivots off the
    diagonal."""
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
        yield [[row[j] for j in perm] for row in m], cols - k


def test_rational_kernel():
    assert kernel_dim_rational(_sparse([[1, 0], [0, 1]]), 2) == 0
    assert kernel_dim_rational(_sparse([[0, 0], [0, 0]]), 2) == 2
    assert kernel_dim_rational(_sparse([[1, 2], [2, 4]]), 2) == 1
    assert kernel_dim_rational(FILL_IN, 3) == 1
    for m, kernel in _rank_k_products():
        assert kernel_dim_rational(_sparse(m), len(m[0])) == kernel


def test_certificate_mod_m61_agrees_with_bareiss():
    # the entries and minors here are far below l, so the rank mod l is the
    # rank over Q, and the certificate fires exactly when the kernel is zero
    cases = [(_sparse(m), m, kernel) for m, kernel in _rank_k_products()]
    for p in primes_upto(61)[1:]:
        rows = g_minus_one(p)
        cases.append((rows, [[row.get(j, 0) for j in range(p - 1)] for row in rows], 0))
    assert any(kernel == 0 for *_, kernel in cases) and any(kernel for *_, kernel in cases)
    for rows, m, kernel in cases:
        cols = len(m[0])
        assert kernel_dim_mod_p(rows, M61, cols) == _bareiss_kernel_dim(m, cols) == kernel


def _dependent_matrices():
    """1,000 seeded dense integer matrices of 0-8 rows and columns, entries up
    to 10^20 in size, a third of them with rows forced dependent: a random
    combination of the others replaces some rows."""
    rng = random.Random(1000)
    for n in range(1000):
        rows, cols = rng.randint(0, 8), rng.randint(0, 8)
        size = 10 ** rng.choice([1, 3, 20])
        m = [[rng.randint(-size, size) for _ in range(cols)] for _ in range(rows)]
        if n % 3 == 0 and rows > 1:
            for i in rng.sample(range(rows), rng.randint(1, rows - 1)):
                weights = [rng.randint(-3, 3) for _ in range(rows)]
                m[i] = [sum(w * row[j] for w, row in zip(weights, m) if row is not m[i])
                        for j in range(cols)]
        yield m, cols


def test_rational_kernel_agrees_with_bareiss_on_large_entries():
    kernels = set()
    for m, cols in _dependent_matrices():
        kernel = _bareiss_kernel_dim(m, cols)
        assert kernel_dim_rational(_sparse(m), cols) == kernel, m
        kernels.add(kernel - max(cols - len(m), 0))
    assert {0, 1, 2} <= kernels  # kernels past the shape's own, of several sizes


@pytest.mark.parametrize(
    "m, kernel, primes",
    [([[M61]], 0, [M61, L2]),
     ([[1, 2], [2, 4]], 1, [M61]),
     ([[0, 0], [0, 0]], 2, [M61]),
     ([[3, M61 + 6], [1, 2]], 0, [M61, L2]),
     ([[M61, 0], [0, M61 * L2]], 0, [M61, L2, L3]),
     ([[M61 * L2]], 0, [M61, L2, L3]),
     ([[3, M61 * L2 + 6], [1, 2]], 0, [M61, L2, L3])],
    ids=["l", "rank-one", "zero", "singular-mod-l", "diag-l-l*l2", "l*l2", "singular-mod-l-l2"],
)
def test_rational_kernel_takes_primes_until_the_rank_is_certain(monkeypatch, m, kernel, primes):
    # [[l]] and [[3, l + 6], [1, 2]] have kernel 1 mod l and 0 over Q, and
    # the last three are singular mod l and l2 as well.  The rank-one and
    # zero matrices stop at l: l^2 exceeds the product of the squared row
    # norms (20 * 5, and 0) that bounds the minors one size past the rank
    calls = recorded(monkeypatch, algebra, "kernel_dim_mod_p")
    cols = len(m[0])
    assert kernel_dim_rational(_sparse(m), cols) == kernel == _bareiss_kernel_dim(m, cols)
    assert [ell for _, ell, _ in calls] == primes
    assert kernel_dim_mod_p(_sparse(m), M61, cols) > 0


def test_rational_kernel_certified_takes_one_prime(monkeypatch):
    calls = recorded(monkeypatch, algebra, "kernel_dim_mod_p")
    assert kernel_dim_rational(_sparse([[1, 0], [0, 1]]), 2) == 0
    assert kernel_dim_rational(_sparse([[2, 1], [M61, 3]]), 2) == 0  # det 6 - l, a unit mod l
    assert kernel_dim_rational([], 0) == 0
    assert [ell for _, ell, _ in calls] == [M61] * 3


def test_sqrt_examples():
    assert fq_sqrt(F5.from_int(4)) == (2, 3)  # smaller of the two lifts comes first
    assert fq_sqrt(F5.from_int(2)) == ()
    t = F9.gen()
    assert fq_sqrt(F9.from_int(2)) == (t, 2 * t)  # canonical enumeration order
    # the table itself, on coordinate pairs: v = 0 over F_p
    assert F5.square_roots[4, 0] == ((2, 0), (3, 0))
    assert (2, 0) not in F5.square_roots
    assert F9.square_roots[2, 0] == ((0, 1), (0, 2))


@pytest.mark.parametrize("field", [F5, F7, F9])
def test_sqrt_squares_back(field):
    for a in field:
        for r in fq_sqrt(a):
            assert r * r == a
    # every square has a root
    for a in field:
        assert fq_sqrt(a * a)


@pytest.mark.parametrize("field", [F5, F7, F9])
def test_square_roots_table_against_a_scan(field):
    # oracle: every y whose square is s, in the field's canonical order
    # by FqElement arithmetic; the table holds their coordinate pairs and
    # fq_sqrt hands back the elements themselves
    table = field.square_roots
    for s in field:
        roots = tuple(y for y in field if y * y == s)
        assert table.get(s.coords, ()) == tuple(y.coords for y in roots)
        found = fq_sqrt(s)
        assert found == roots and all(y.field is field for y in found)
    assert sum(len(roots) for roots in table.values()) == field.q


def test_power_is_repeated_multiplication():
    for x in (F7.from_int(3), F9.gen() + 1, K5.zeta + 2):
        expected = x.field.one
        for k in range(7):
            assert x**k == expected
            expected = expected * x
