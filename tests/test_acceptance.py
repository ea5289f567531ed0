"""Acceptance gate: the headline claims of the package, one test each,
printing a pass/fail line (visible under ``pytest -s`` or in captured
output).  Every comparison is exact integer equality; the only tolerances
anywhere are the slope band [0.2, 0.3] and the wall-clock budgets."""

import json
import random
import time
from functools import lru_cache

from hodgegap.algebra import kernel_dim_mod_p, kernel_dim_rational, primes_upto
from hodgegap.cli import main
from hodgegap.curves import (
    affine_fixed_points,
    chart_transition_check,
    conjugacy_check,
    construction,
    default_spec,
    hyperelliptic_family,
    map_order,
    map_preserves_curve,
    reduce_model,
    substitution_check,
)
from hodgegap.cyclotomic import cyclotomic_field
from hodgegap.elliptic import (
    count_points,
    find_ordinary_with_trace_one,
    scalar_mul,
    torsion_point_of_exact_order,
    translation_is_fixed_point_free,
    add_points,
)
from hodgegap.invariants import (
    form_weights,
    hy_interval_count,
    invariant_pair_witnesses,
    least_squares_slope,
)
from hodgegap.modularrep import g_minus_one, h1_de_rham_report

SHIPPED = (3, 5, 7, 11, 13)


@lru_cache(maxsize=None)
def _family(p):
    return hyperelliptic_family(p, default_spec(p))


def _verdict(name, ok, elapsed):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert ok, name


def test_criterion_1_headline_hodge_numbers(capsys):
    t0 = time.perf_counter()
    code = main(["verify", "--p", "3", "--format", "json", "--no-banner"])
    payload = json.loads(capsys.readouterr().out)
    ok = code == 0 and payload["summary"]["hX"] == 5 and payload["summary"]["hY"] == 6
    for p in primes_upto(97):
        if p < 5:
            continue
        h_x, h_y = construction(p).hodge
        ok = ok and h_x == 0 and h_y >= 1
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 1: hX/hY = 5/6 at p=3; hX=0, hY>=1 for 5<=p<=97", ok, elapsed)
    assert elapsed < 5.0


def test_criterion_2_reduction_identity(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in SHIPPED:
        spec = default_spec(p)
        red = reduce_model(_family(p), spec)
        ok = ok and red.f == construction(p).target
        # the linear coefficient is the Wilson residue -1
        ok = ok and red.f.coeff(1) == -spec.residue_field.one
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 2: reduction is v^2 = u^p - u (u^9 - u at p=3)", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_3_actions_and_conjugacy(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in SHIPPED:
        spec = default_spec(p)
        fam = _family(p)
        red = reduce_model(fam, spec)
        c = construction(p)
        sigma, sigma0, tau = c.sigma, c.sigma0, c.tau
        k = 2 if p == 3 else 4
        ok = ok and map_preserves_curve(fam, sigma)
        ok = ok and map_order(sigma) == p
        ok = ok and map_preserves_curve(red, tau)
        ok = ok and conjugacy_check(tau, sigma0, k)
        ok = ok and affine_fixed_points(sigma0, red) == []
        if p == 3:
            curve, pt = construction(3).elliptic
        else:
            curve = find_ordinary_with_trace_one(p)
            pt = torsion_point_of_exact_order(curve, p)
        ok = ok and translation_is_fixed_point_free(curve, pt)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 3: tau conjugates sigma to sigma^4 (sigma^2 at p=3); freeness", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_4_substitution_and_chart_identities(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1234)
    ok = substitution_check(3, default_spec(3), _family(3))
    for p in (5, 7, 11, 13):
        ok = ok and substitution_check(p, default_spec(p), _family(p))
        ok = ok and chart_transition_check(p, default_spec(p), _family(p))
    # soundness controls: a single perturbed coefficient must break each identity
    from hodgegap.algebra import Polynomial
    from hodgegap.curves import HyperellipticModel

    def perturb(fam, idx, delta):
        coeffs = list(fam.f.coeffs)
        coeffs[idx] = coeffs[idx] + fam.f.ring.from_int(delta)
        return HyperellipticModel(Polynomial(fam.f.ring, coeffs))

    for p in (5, 7, 11, 13):
        spec = default_spec(p)
        fam = _family(p)
        for _ in range(3):
            idx = rng.randint(0, fam.f.degree)
            bad = perturb(fam, idx, rng.randint(1, 3))
            ok = ok and not substitution_check(p, spec, model=bad)
            ok = ok and not chart_transition_check(p, spec, model=bad)
    fam3 = _family(3)
    for _ in range(3):
        bad = perturb(fam3, rng.randint(0, 9), rng.randint(1, 2))
        ok = ok and not substitution_check(3, default_spec(3), model=bad)
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 4: substitution/chart identities hold, perturbations fail", ok, elapsed)
    assert elapsed < 2.0


def test_criterion_5_trace_one_instances(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in primes_upto(97):
        if p < 5:
            continue
        curve = find_ordinary_with_trace_one(p)
        ok = ok and count_points(curve) == p
        # group of prime order: p*Q = O and Q != O pin exact order p
        for q in curve.points():
            if q.is_infinity:
                continue
            ok = ok and scalar_mul(curve, p, q).is_infinity
    curve9, pt9 = construction(3).elliptic
    n9 = count_points(curve9)
    ok = ok and n9 % 3 == 0 and (curve9.q + 1 - n9) % 3 != 0
    ok = ok and scalar_mul(curve9, 3, pt9).is_infinity and not pt9.is_infinity
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 5: trace-one curves exist for every 5<=p<=97, plus F_9", ok, elapsed)
    assert elapsed < 30.0


def test_criterion_6_de_rham_numbers(capsys):
    t0 = time.perf_counter()
    ok = True
    for p in primes_upto(50):
        if p < 3:
            continue
        rep = h1_de_rham_report(p)
        ok = ok and (rep.h1_special, rep.h1_generic, rep.torsion_dim) == (4, 2, 2)
        m = g_minus_one(p)
        ok = ok and kernel_dim_mod_p(m, p, p - 1) == 1 and kernel_dim_rational(m, p - 1) == 0
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 6: h1 report {4, 2, 2} for every prime 3<=p<=50", ok, elapsed)


def test_criterion_7_linear_growth(capsys):
    t0 = time.perf_counter()
    ok = True
    pairs = []
    for p in primes_upto(500):
        if p < 5:
            continue
        h_y = construction(p).hodge[1]
        ok = ok and h_y == hy_interval_count(p)
        pairs.append((p, h_y))
    slope = least_squares_slope(pairs)
    ok = ok and 0.2 <= slope <= 0.3
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict(f"criterion 7: interval oracle matches to 500, slope {slope:.6f} in [0.2, 0.3]", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_8_property_suites(capsys):
    t0 = time.perf_counter()
    ok = True
    k5 = cyclotomic_field(5)
    spec5 = default_spec(5)

    rng = random.Random(8001)
    done = 0
    while done < 50:  # valuation additivity
        a = k5.element([rng.randint(-9, 9) for _ in range(4)])
        b = k5.element([rng.randint(-9, 9) for _ in range(4)])
        if not a or not b:
            continue
        ok = ok and spec5.valuation(a * b) == spec5.valuation(a) + spec5.valuation(b)
        done += 1

    rng = random.Random(8002)
    for _ in range(50):  # residue map is a ring homomorphism
        a = k5.element([rng.randint(-9, 9) for _ in range(4)])
        b = k5.element([rng.randint(-9, 9) for _ in range(4)])
        ok = ok and spec5.residue(a + b) == spec5.residue(a) + spec5.residue(b)
        ok = ok and spec5.residue(a * b) == spec5.residue(a) * spec5.residue(b)

    rng = random.Random(8003)
    curve = find_ordinary_with_trace_one(7)
    pts = list(curve.points())
    for _ in range(50):  # associativity of the group law
        a, b, c = (rng.choice(pts) for _ in range(3))
        ok = ok and add_points(curve, add_points(curve, a, b), c) == add_points(
            curve, a, add_points(curve, b, c)
        )

    rng = random.Random(8004)
    for _ in range(50):  # canonicalization is idempotent
        raw = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        den = rng.choice([1, -1]) * rng.randint(1, 12)
        once = k5.element(raw, den)
        ok = ok and k5.element(list(once.num), once.den) == once
        ok = ok and once * den == k5.element(raw)

    rng = random.Random(8005)
    for _ in range(50):  # invariant count is blind to the choice of generator
        p = rng.choice([5, 7, 11, 13])
        g = (p - 1) // 2
        c = rng.randint(1, p - 1)
        base = len(invariant_pair_witnesses(form_weights(p, 1, g), 4))
        scaled = len(invariant_pair_witnesses(form_weights(p, c, g), 4))
        ok = ok and base == scaled

    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        _verdict("criterion 8: five property suites, 50 seeded instances each", ok, elapsed)
