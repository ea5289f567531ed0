import math
import random

import pytest
from conftest import recorded

from hodgegap.algebra import FiniteField, Polynomial, element_of_order, is_prime
from hodgegap.curves import construction
from hodgegap.cyclotomic import (
    CycloElement,
    CyclotomicField,
    PiSpec,
    SplitPrime,
    cyclotomic_field,
    cyclotomic_polynomial,
    residue_map,
    try_divide_exact,
)


K5 = cyclotomic_field(5)
SPEC5 = PiSpec.for_prime(5)
SPEC12 = construction(3).spec


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7


def test_canonicalize_relations():
    # zeta^4 = -(1 + zeta + zeta^2 + zeta^3) from Phi_5
    assert K5.element([0, 0, 0, 0, 1]) == K5.element([-1, -1, -1, -1])
    # zeta has order n
    assert K5.element([0, 0, 0, 0, 0, 1]) == 1
    # Phi_12 = x^4 - x^2 + 1, so zeta^4 = zeta^2 - 1
    assert cyclotomic_field(12).element([0, 0, 0, 0, 1]) == cyclotomic_field(12).element([-1, 0, 1])


def test_canonicalize_rejects_degenerate_conductor():
    for n in (0, 1, -3):
        with pytest.raises(ValueError):
            cyclotomic_field(n).element([1])


@pytest.mark.parametrize("n", [4, 6, 9, 15, 20])
def test_only_a_prime_or_12_is_a_conductor(n):
    with pytest.raises(ValueError, match="a prime or 12"):
        cyclotomic_field(n)


def test_canonicalize_idempotent_on_random_inputs():
    rng = random.Random(11)
    for n in (5, 7, 12):
        k = cyclotomic_field(n)
        for _ in range(60):
            raw = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2 * k.degree + 1))]
            once = k.element(raw)
            again = k.element(list(once.num))
            assert again * once.den == k.element(list(once.num))
            assert k.element(list(once.num), once.den) == once


def test_field_inverse():
    pi = SPEC5.pi
    assert pi * pi.inv() == 1
    omega = SPEC12.field.zeta ** 4
    sq = (omega - 1) ** 2
    assert sq * sq.inv() == 1
    with pytest.raises(ZeroDivisionError):
        K5.zero.inv()


def _schoolbook_product(a, b, n):
    # oracle: the full convolution of two coordinate lists, then long division
    # by the monic Phi_n, both written out here and not taken from the field
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    mod = cyclotomic_polynomial(n)
    d = len(mod) - 1
    for top in range(len(out) - 1, d - 1, -1):
        t = out[top]
        for j, m in enumerate(mod):
            out[top - d + j] -= t * m
    return tuple(out[:d])


@pytest.mark.parametrize("n", [5, 12, 61])
def test_sparse_times_dense_in_either_order_is_the_schoolbook_product(n):
    k = cyclotomic_field(n)
    pi = k.zeta ** (4 if n == 12 else 1) - 1
    rng = random.Random(n)
    dense = k.element([rng.choice((-1, 1)) * rng.randint(1, 10**6) for _ in range(k.degree)], 7)
    for sparse in (k.one, pi, k.zeta ** (k.degree - 1)):
        assert sparse.num.count(0) > dense.num.count(0)
        expected = CycloElement(k, _schoolbook_product(sparse.num, dense.num, n), 7)
        assert sparse * dense == expected
        assert dense * sparse == expected


def test_unit_times_pi_power_is_five():
    # oracle: 5 = Phi_5(1) = prod_{i=1..4} (1 - zeta^i), expanded exactly
    z = K5.zeta
    prod = K5.one
    for i in range(1, 5):
        prod = prod * (K5.one - z**i)
    assert prod == 5

    # the same identity split as pi^4 times a unit: u = prod_{i=2..4}(1 + ... + zeta^{i-1})
    unit = K5.one
    for i in range(2, 5):
        unit = unit * K5.element([1] * i)
    assert SPEC5.pi**4 * unit == 5


def test_inverse_of_random_nonzero_elements():
    rng = random.Random(23)
    done = 0
    while done < 100:
        coords = [rng.randint(-9, 9) for _ in range(K5.degree)]
        den = rng.randint(1, 20)
        a = K5.element(coords, den)
        if not a:
            continue
        assert a * a.inv() == 1
        done += 1


@pytest.mark.parametrize("n", [5, 12, 17, 23])
def test_inverse_of_wide_random_elements(n):
    # a * a.inv() == 1 is a complete certificate: inverses in a field are unique
    k = cyclotomic_field(n)
    rng = random.Random(n)
    done = 0
    while done < 12:
        coords = [rng.choice((0, rng.randint(-(2**64), 2**64))) for _ in range(k.degree)]
        a = k.element(coords, rng.randint(2, 2**64))
        if a.den == 1:
            continue
        assert a * a.inv() == 1
        done += 1


def _inverse_by_the_conjugate_loop(a):
    # oracle: the product of the conjugates sigma_k(num), k != 1 in (Z/n)^*,
    # one dense product at a time, over the norm num times that product
    n = a.field.n
    acc = (1,)
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            conj = [0] * n
            for i, c in enumerate(a.num):
                conj[i * k % n] += c
            acc = _schoolbook_product(acc, conj, n)
    norm = _schoolbook_product(a.num, acc, n)
    assert norm[0] and not any(norm[1:])
    return CycloElement(a.field, tuple(c * a.den for c in acc), norm[0])


def _inverse_inputs(n):
    """pi^e for e <= n (a sample of them at n = 61), wide random elements
    over large denominators, and units: zeta^j and the cyclotomic units
    1 + z + ... + z^(k-1), k prime to n."""
    k = cyclotomic_field(n)
    pi = k.zeta ** (4 if n == 12 else 1) - 1
    small = n < 61
    inputs = [("pi^%d" % e, pi**e) for e in (range(n + 1) if small else (1, 2, 30, 61))]
    rng = random.Random(n)
    while len(inputs) < (n + 5 if small else 6):
        coords = [rng.randint(-(2**64), 2**64) * rng.randint(0, 1) for _ in range(k.degree)]
        if any(coords):
            inputs.append(("wide", k.element(coords, rng.randint(2, 2**64))))
    units = [j for j in range(2, n) if math.gcd(j, n) == 1]
    inputs += [("zeta^%d" % j, k.zeta**j) for j in (1, n - 1)]
    inputs += [("unit %d" % j, k.element([1] * j)) for j in (units if small else (2, 30, 60))]
    return inputs


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 17, 61, 12])
def test_inverse_equals_the_conjugate_by_conjugate_product(n):
    for name, a in _inverse_inputs(n):
        inverse = a.inv()
        expected = _inverse_by_the_conjugate_loop(a)
        assert (inverse.num, inverse.den) == (expected.num, expected.den), name
        if name.startswith(("zeta", "unit")):
            assert inverse.is_integral, name


@pytest.mark.parametrize("n", [61, 211])
def test_inverse_takes_logarithmically_many_products(monkeypatch, n):
    k = cyclotomic_field(n)
    calls = recorded(monkeypatch, CyclotomicField, "_mul")
    rng = random.Random(n)
    a = k.element([rng.randint(-9, 9) for _ in range(k.degree)])
    inverse = a.inv()
    assert 0 < len(calls) <= 2 * math.ceil(math.log2(n - 2)) + 1
    assert a * inverse == 1


@pytest.mark.parametrize("n", [5, 17, 12])
def test_inverse_raises_when_the_conjugate_product_is_not_rational(monkeypatch, n):
    a = cyclotomic_field(n).element([3, -1, 0, 2], 7)
    reduce = CyclotomicField._reduce

    def broken(self, coords):
        out = reduce(self, coords)
        out[1] = 1
        return out

    monkeypatch.setattr(CyclotomicField, "_reduce", broken)
    with pytest.raises(ArithmeticError, match="not a nonzero rational"):
        a.inv()


@pytest.mark.parametrize("n", [5, 12, 13])
def test_integer_scaling_equals_the_product_with_the_integer_element(n):
    k = cyclotomic_field(n)
    rng = random.Random(n)
    for _ in range(20):
        z = k.element([rng.randint(-30, 30) for _ in range(k.degree)], rng.randint(1, 40))
        m = rng.choice((0, 1, -1, rng.randint(-100, 100)))
        assert z * m == m * z == z * k.from_int(m)


@pytest.mark.parametrize("n", [5, 12, 13])
def test_cross_cancelled_scaling_is_the_constructors_canonical_form(n):
    # z * b skips the constructor's gcd pass; the oracle hands the same
    # num * b over den to the constructor, which cancels it.  Denominators 1
    # and p^k (p = 3 for n = 12), and b = 0, +-1, +-p, a b sharing a factor
    # with den and one prime to it
    k = cyclotomic_field(n)
    p = 3 if n == 12 else n
    rng = random.Random(n)
    for den in (1, p, p**3):
        for _ in range(4):
            num = [1 + p * rng.randint(-10, 10)] + [rng.randint(-30, 30) for _ in range(k.degree - 1)]
            z = k.element(num, den)
            assert z.den == den
            for b in (0, 1, -1, p, -p, 6 * p**2, -(p**4), p + 1):
                canonical = CycloElement(k, tuple(b * c for c in z.num), z.den)
                for scaled in (z * b, b * z):
                    assert (scaled.field, scaled.num, scaled.den) == (k, canonical.num, canonical.den)


def _valuation_by_division(z, spec):
    # independent oracle: strip the denominator, then divide by pi until it fails
    v = 0
    den = z.den
    while den % spec.p == 0:
        den //= spec.p
        v -= spec.e
    cur = spec.field.element(z.num)
    while True:
        nxt = try_divide_exact(cur, spec.pi, integral=True)
        if nxt is None:
            return v
        v += 1
        cur = nxt


def test_valuation_examples():
    assert SPEC5.valuation(SPEC5.pi) == 1
    five = K5.from_int(5)
    assert _valuation_by_division(five, SPEC5) == 4
    assert SPEC5.valuation(five) == 4
    # v(10) = v(2) + v(5) = 0 + 4
    assert SPEC5.valuation(K5.from_int(2)) == 0
    assert SPEC5.valuation(K5.from_int(10)) == 4
    assert SPEC5.valuation(K5.zero) == math.inf


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_valuation_of_p_is_ramification_index(p):
    # e is derived, phi(n) over the residue degree; p = 3 is the Z_3[zeta_3]
    # engine that test_curves' wrong-residue-field control builds
    spec = PiSpec.for_prime(p)
    assert spec.valuation(spec.field.from_int(p)) == p - 1 == spec.e


def test_valuation_of_three_in_conductor_twelve():
    assert SPEC12.valuation(SPEC12.field.from_int(3)) == 2 == SPEC12.e


def test_valuation_additive_on_random_pairs():
    rng = random.Random(47)
    pairs = 0
    while pairs < 200:
        a = K5.element([rng.randint(-9, 9) for _ in range(4)])
        b = K5.element([rng.randint(-9, 9) for _ in range(4)])
        if not a or not b:
            continue
        assert SPEC5.valuation(a * b) == SPEC5.valuation(a) + SPEC5.valuation(b)
        pairs += 1


def test_residue_examples():
    assert SPEC5.residue(K5.zeta) == 1
    # Wilson: 5/pi^4 = prod (1-zeta^i)/(1-zeta) = 4! = -1 mod pi
    q = try_divide_exact(K5.from_int(5), SPEC5.pi**4, integral=True)
    assert q is not None
    assert SPEC5.residue(q) == math.factorial(4) % 5 == 4
    # v(10/pi^2) = 2 > 0, so the residue vanishes
    assert SPEC5.residue(K5.from_int(10) / SPEC5.pi**2) == 0


def test_residue_rejects_negative_valuation():
    with pytest.raises(ValueError):
        SPEC5.residue(K5.from_int(2) / SPEC5.pi)


def test_residue_is_a_ring_homomorphism():
    rng = random.Random(301)
    for spec in (SPEC5, SPEC12):
        k = spec.field
        for _ in range(60):
            a = k.element([rng.randint(-9, 9) for _ in range(k.degree)])
            b = k.element([rng.randint(-9, 9) for _ in range(k.degree)])
            assert spec.residue(a + b) == spec.residue(a) + spec.residue(b)
            assert spec.residue(a * b) == spec.residue(a) * spec.residue(b)


def _certificate_prime(n):
    """The least prime l = 1 (mod 2n) above 2^20: the second prime of
    ``curves.modular_squarefree``."""
    return next(m for m in range(2 * n + 1, 2**21, 2 * n) if m > 2**20 and is_prime(m))


@pytest.mark.parametrize("n", [5, 12, 13])
def test_split_prime_reduces_in_every_embedding_and_lifts_back(n):
    # at the least prime l = 1 (mod 2n) above 2^20 the residues of an element
    # are its values at w^i, i in (Z/n)^*, each computed here by a direct
    # sum; differences and products map to differences and products, and an
    # element whose coordinates are small fractions lifts back to itself
    k = cyclotomic_field(n)
    ell = _certificate_prime(n)
    split = SplitPrime(k, ell)
    w = element_of_order(n, ell)
    assert split.units == [i for i in range(1, n) if math.gcd(i, n) == 1]
    rng = random.Random(n)
    for _ in range(20):
        a, b = (k.element([rng.randint(-9, 9) for _ in range(k.degree)], rng.randint(1, 20))
                for _ in range(2))
        ra, rb = split.coerce(a), split.coerce(b)
        values = [sum(c * pow(w, i * j, ell) for j, c in enumerate(a.num)) * pow(a.den, -1, ell)
                  % ell for i in split.units]
        assert ra.values == tuple(values)
        assert split.coerce(a * b) == ra * rb
        assert split.coerce(a - b) == ra - rb
        assert split.lift(ra) == a
        if a:
            assert ra * ra.inv() == split.one
    assert split.lift(split.coerce(7)) == k.from_int(7) and split.coerce(7) == split.one * 7
    assert split.coerce(ell + 7) == split.coerce(7)
    assert split.coerce(-1).values == (ell - 1,) * k.degree
    with pytest.raises(ValueError):
        split.coerce(k.element([1], ell))
    with pytest.raises(ZeroDivisionError):  # zeta - w is 0 in the embedding zeta -> w only
        split.coerce(k.zeta - w).inv()
    assert sum(v == 0 for v in split.coerce(k.zeta - w).values) == 1


@pytest.mark.parametrize("n", [5, 12, 13, 61])
def test_split_prime_residues_are_the_residue_map_of_each_embedding(n):
    # embedding i of coerce, read off the integer tables, is residue_map at
    # zeta -> w^i, on elements with large coordinates and a denominator; both
    # raise when l divides the denominator
    k, ell = cyclotomic_field(n), _certificate_prime(n)
    split, fl, w = SplitPrime(k, ell), FiniteField(ell), element_of_order(n, ell)
    maps = [residue_map(k, fl, fl.from_int(pow(w, i, ell))) for i in split.units]
    rng = random.Random(40 * n)
    for _ in range(12):
        den = rng.randint(1, 10**6)  # below l, so prime to it
        x = k.element([rng.randint(-10**30, 10**30) for _ in range(k.degree)], den)
        assert split.coerce(x).values == tuple(r(x).coords[0] for r in maps)
    assert split.coerce(k.zeta).values == tuple(pow(w, i, ell) for i in split.units)
    bad = k.element([rng.randint(1, 99) for _ in range(k.degree)], 3 * ell)
    for reduce in (split.coerce, maps[0], maps[-1]):
        with pytest.raises(ValueError, match=f"^{ell} divides the denominator$"):
            reduce(bad)


@pytest.mark.parametrize("n", [5, 12, 13, 61])
def test_split_prime_lift_inverts_coerce_on_small_fractions(n):
    # coordinates r/s with |r|, s <= isqrt(l // 2), each over its own s, are
    # within rational reconstruction's reach and come back exactly
    k, ell = cyclotomic_field(n), _certificate_prime(n)
    split, bound = SplitPrime(k, ell), math.isqrt(ell // 2)
    rng = random.Random(n)
    for _ in range(10):
        x = k.zero
        for j in range(k.degree):
            x += k.element([0] * j + [rng.randint(-bound, bound)], rng.randint(1, bound))
        assert split.lift(split.coerce(x)) == x
    assert split.lift(split.coerce(k.zeta)) == k.zeta
    assert split.lift(split.zero) == k.zero


def _schoolbook(k, a, b):
    """a*b reduced, by the full (len(a) + len(b) - 1)-long schoolbook product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return k._reduce(out)


@pytest.mark.parametrize("n", [5, 12, 13])
def test_product_sized_to_the_sparse_operand_is_the_schoolbook_product(n):
    # zero, rationals, zeta^k and pi against each other and against dense
    # seeded elements, in both argument orders
    k = cyclotomic_field(n)
    rng = random.Random(n)
    sparse = [k.zero, k.from_int(-7), k.one / 3, k.zeta - 1, 2 * (k.zeta - 1)]
    sparse += [k.zeta**e for e in range(1, n)]
    dense = [k.element([rng.randint(-99, 99) for _ in range(k.degree)], rng.randint(1, 9))
             for _ in range(6)]
    for a in sparse + dense:
        for b in sparse + dense:
            assert k._mul(a.num, b.num) == _schoolbook(k, a.num, b.num)
            assert a * b == k.element(_schoolbook(k, a.num, b.num), a.den * b.den)


@pytest.mark.parametrize("n", [5, 12])
def test_difference_is_the_sum_with_the_negative(n):
    k = cyclotomic_field(n)
    rng = random.Random(n)
    for _ in range(40):
        a, b = (k.element([rng.randint(-9, 9) for _ in range(k.degree)], rng.randint(1, 12))
                for _ in range(2))
        assert a - b == a + (-b)
        assert a - a == k.zero and (a - 3) == a + (-3) and 3 - a == -(a - 3)
    same = k.element([1, 2], 6) - k.element([1, -4], 6)  # equal denominators, cancelled
    assert (same.num[:2], same.den) == ((0, 1), 1)


def test_residue_kernel_is_pi():
    assert not SPEC5.residue(SPEC5.pi)
    assert not SPEC12.residue(SPEC12.pi)
    # conductor 12: i = zeta^3 goes to t with t^2 = -1
    i = SPEC12.field.zeta ** 3
    t = SPEC12.residue(i)
    assert t * t == -SPEC12.residue_field.one


def _split_prime(n):
    """The least prime l = 1 (mod n) with l > 2n: the first prime of
    ``curves.modular_squarefree`` on a family of degree n."""
    ell = 2 * n + 1
    while ell % n != 1 or not is_prime(ell):
        ell += 1
    return ell


def _residue_cases():
    """name -> (n, F_q, image of zeta, the engine whose residue map this is)."""
    cases = {f"n{n}-F{n}": (n, FiniteField(n), 1, PiSpec.for_prime(n)) for n in (5, 13, 61)}
    cases["n12-F9"] = (12, SPEC12.residue_field, -SPEC12.residue_field.gen(), SPEC12)
    for n in (5, 13):
        ell = _split_prime(n)
        cases[f"n{n}-F{ell}"] = (n, FiniteField(ell), element_of_order(n, ell), None)
    return cases


RESIDUE_CASES = _residue_cases()


@pytest.mark.parametrize("name", RESIDUE_CASES)
def test_residue_map_agrees_with_horner_evaluation(name):
    # the oracle evaluates the coordinate polynomial at the image of zeta over
    # F_q, then multiplies by the inverse of the denominator
    n, fq, image, spec = RESIDUE_CASES[name]
    k = cyclotomic_field(n)
    image = fq.coerce(image)
    maps = [residue_map(k, fq, image)] + ([spec.residue] if spec else [])
    rng = random.Random(n * fq.q)
    for _ in range(40):
        den = rng.choice([d for d in range(1, 60) if d % fq.p])
        z = k.element([rng.randint(-10**6, 10**6) for _ in range(k.degree)], den)
        expected = Polynomial(fq, z.num)(image) * fq.from_int(z.den).inv()
        assert [residue(z) for residue in maps] == [expected] * len(maps)
    assert [residue(k.zeta) for residue in maps] == [image] * len(maps)


def test_try_divide_exact():
    pi = SPEC5.pi
    ten = K5.from_int(10)
    q = try_divide_exact(ten, pi * pi, integral=True)
    assert q is not None and q.den == 1
    assert q * pi * pi == 10
    assert try_divide_exact(K5.from_int(2), pi, integral=True) is None
    z = K5.element([3, -1, 0, 2], 7)
    assert try_divide_exact(z, K5.one) == z
    with pytest.raises(ZeroDivisionError):
        try_divide_exact(z, K5.zero)


def test_integrality_flag_matches_denominator():
    pi = SPEC5.pi
    assert (K5.from_int(5) / pi**4).is_integral  # a unit
    assert not (K5.one / pi).is_integral


def _pi_doubled(p):
    """The n = p engine with uniformizer 2*(zeta - 1), which is not
    zeta - 1: the division step must take the product with ``pi_inv``, not
    the prefix sum."""
    s = PiSpec.for_prime(p)
    return PiSpec(s.field, 2 * s.pi, s.residue_field, s.zeta_image)


@pytest.mark.parametrize(
    "spec",
    [SPEC12, SPEC5, PiSpec.for_prime(13), PiSpec.for_prime(61), _pi_doubled(5)],
    ids=["n12", "p5", "p13", "p61", "p5-pi-doubled"],
)
def test_over_pi_undoes_multiplication_by_pi_powers(spec):
    rng = random.Random(spec.n)
    k = spec.field
    for e in range(spec.p + 2):
        z = k.element([rng.randint(-20, 20) for _ in range(k.degree)], rng.randint(1, 6))
        q = spec.over_pi(z, e)
        assert spec.pi**e * q == z
        assert q == try_divide_exact(z, spec.pi**e)
    with pytest.raises(ValueError):
        spec.over_pi(k.one, -1)


@pytest.mark.parametrize(
    "spec",
    [SPEC5, PiSpec.for_prime(13), PiSpec.for_prime(61), _pi_doubled(7)],
    ids=["p5", "p13", "p61", "p7-pi-doubled"],
)
def test_division_step_equals_the_product_with_the_inverse_of_pi(spec):
    # the prefix-sum step against the dense product it replaced, with 1/pi
    # from inv: an n = p engine's pi_inv is itself a step
    rng = random.Random(spec.n)
    k = spec.field
    pi_inv = spec.pi.inv()
    for _ in range(20):
        z = k.element([rng.randint(-50, 50) for _ in range(k.degree)], rng.randint(1, 3 * spec.p))
        assert spec._divide_once(z) == z * pi_inv
    assert spec._divide_once(k.zero) == k.zero


@pytest.mark.parametrize(
    "spec", [SPEC12, SPEC5, PiSpec.for_prime(13), _pi_doubled(5)], ids=["n12", "p5", "p13", "p5-pi-doubled"]
)
def test_valuation_agrees_with_repeated_exact_division(spec):
    rng = random.Random(spec.n + 1)
    k = spec.field
    for e in range(spec.p + 3):
        unit = k.zero
        while not spec.residue(unit):
            unit = k.element([rng.randint(-9, 9) for _ in range(k.degree)])
        z = spec.pi**e * unit
        assert spec.valuation(z) == _valuation_by_division(z, spec) == e
        # a denominator prime to p leaves the valuation alone; p in it costs e
        assert spec.valuation(z / 7) == e
        assert spec.valuation(z / spec.p) == _valuation_by_division(z / spec.p, spec) == e - spec.e


def test_pispec_rejects_a_wrong_inverse_of_pi(monkeypatch):
    # the engines that invert pi (n = 12, and a pi other than zeta_p - 1)
    # check inv; an n = p engine takes 1/pi from its prefix step and checks that
    k, f5 = cyclotomic_field(5), FiniteField(5)
    inverting = [
        lambda: PiSpec(SPEC12.field, SPEC12.pi, SPEC12.residue_field, SPEC12.zeta_image),
        lambda: _pi_doubled(5),
    ]
    for build in inverting:
        build()
    PiSpec(k, k.zeta - 1, f5, f5.one)
    with monkeypatch.context() as m:
        m.setattr(CycloElement, "inv", lambda self: self.field.one)
        for build in inverting:
            with pytest.raises(ArithmeticError):
                build()
        PiSpec(k, k.zeta - 1, f5, f5.one)  # takes no inv
    step = PiSpec._divide_once
    monkeypatch.setattr(PiSpec, "_divide_once", lambda self, z: step(self, z) + 1)
    with pytest.raises(ArithmeticError):
        PiSpec(k, k.zeta - 1, f5, f5.one)
