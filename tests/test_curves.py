import gc
import random
import weakref

import pytest
from conftest import compose_paths, replaced

from hodgegap.algebra import (
    FiniteField,
    Polynomial,
    discriminant_squarefree,
    element_of_order,
    poly_gcd,
    primes_upto,
)
from hodgegap.cli import build_report
from hodgegap.curves import (
    AffineCurveMap,
    HyperellipticModel,
    affine_fixed_points,
    chart_transition_check,
    conjugacy_check,
    construction,
    default_spec,
    genus,
    has_prime_order,
    hyperelliptic_family,
    identity_map,
    is_relatively_smooth,
    map_compose,
    map_inverse,
    map_order,
    map_power,
    map_preserves_curve,
    reduce_model,
    split_prime_certificate,
    substitution_check,
    x_multiplier,
    xy_model,
)
from hodgegap.cyclotomic import PiSpec, cyclotomic_field

SUPPORTED = (3, 5, 7, 11, 13)


def _family(p):
    return hyperelliptic_family(p, default_spec(p))


def test_family_rejects_two_and_composites():
    with pytest.raises(ValueError):
        construction(2)
    with pytest.raises(ValueError):
        construction(9)


@pytest.mark.parametrize("p", [3, 13])
def test_a_construction_is_fresh_and_freed(p):
    # nothing outside the caller keeps a construction or what it built
    assert construction(p) is not construction(p)
    c = construction(p)
    assert not build_report(c).failed()
    refs = [weakref.ref(c), weakref.ref(c.spec), weakref.ref(c.family)]
    del c
    gc.collect()
    assert [r() for r in refs] == [None, None, None]


def test_family_rejects_an_engine_with_the_wrong_residue_field():
    # the p = 3 construction lives over F_9; Z_3[zeta_3] has residue field
    # F_3, so its family is the cubic g, not g^3 + g, and the report says so
    # in exactly the checks that see the degree or the residue field
    c = replaced(construction(3), engine=lambda: PiSpec.for_prime(3))
    assert c.family.f.degree == 3
    failed = {r.id for r in build_report(c).failed()}
    assert failed == {
        "curve.genus",
        "curve.reduction",
        "action.sigma_reduction",
        "conj.tau_sigma2",
        "action.sigma_fixed_points",
    }


def test_family_coefficients_p5():
    spec = PiSpec.for_prime(5)
    f = _family(5).f
    assert f.degree == 5
    assert f.coeff(5) == 1
    assert f.coeff(4) == spec.field.from_int(5) * spec.pi.inv()
    assert f.coeff(1) == spec.field.from_int(5) * (spec.pi**4).inv()
    assert f.coeff(0) == 0
    assert all(c.is_integral for c in f.coeffs)


def test_family_rejects_a_non_integral_coefficient():
    # 2*pi generates no prime ideal: binom(5,1)/(2*pi) has denominator 2
    k = cyclotomic_field(5)
    f5 = FiniteField(5)
    wide = PiSpec(k, 2 * (k.zeta - 1), f5, f5.one)
    with pytest.raises(ArithmeticError):
        hyperelliptic_family(5, wide)


def test_family_coefficients_integral_p7():
    f = _family(7).f
    assert f.degree == 7
    assert all(c.is_integral for c in f.coeffs)


def test_family_p3_expands_the_composite():
    spec = construction(3).spec
    k = spec.field
    omega = k.zeta**4
    u = Polynomial(k, [k.zero, k.one])
    g = u**3 + (u * u).scale(omega**2 - 1) - u.scale(omega**2)
    assert _family(3).f == g**3 + g
    assert _family(3).f.degree == 9


@pytest.mark.parametrize("p,expected", [(3, 4), (5, 2), (7, 3), (11, 5), (13, 6)])
def test_genus(p, expected):
    assert genus(_family(p)) == expected


def test_genus_of_cubic_is_one():
    f5 = FiniteField(5)
    cubic = HyperellipticModel(Polynomial(f5, [0, -1, 0, 1]))
    assert genus(cubic) == 1


def test_genus_rejects_singular_model():
    f5 = FiniteField(5)
    with pytest.raises(ValueError):
        genus(HyperellipticModel(Polynomial(f5, [0, 0, 1])))


@pytest.mark.parametrize("p", SUPPORTED)
def test_reduction_identity(p):
    spec = default_spec(p)
    assert reduce_model(_family(p), spec).f == construction(p).target


def test_reduction_hits_wilson_linear_coefficient():
    spec = PiSpec.for_prime(5)
    red = reduce_model(_family(5), spec)
    assert red.f.coeff(1) == -spec.residue_field.one


def test_reduction_rejects_non_integral_coefficients():
    spec = PiSpec.for_prime(5)
    k = spec.field
    bad = HyperellipticModel(Polynomial(k, [k.one / spec.pi, k.zero, k.one]))
    with pytest.raises(ValueError):
        reduce_model(bad, spec)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_substitution_identity(p):
    assert substitution_check(p, default_spec(p), _family(p))


def test_substitution_identity_p3():
    spec = default_spec(3)
    assert substitution_check(3, spec, _family(3))
    # dropping the +1 offset breaks the constant term
    k = spec.field
    x_without_offset = Polynomial(k, [k.zero, spec.pi])
    assert xy_model(3, spec).f.compose(x_without_offset) != _family(3).f


@pytest.mark.parametrize("p, path", [(3, "shift"), (5, "chain"), (7, "chain"), (61, "chain")])
def test_substitution_takes_the_chain_from_p5(monkeypatch, p, path):
    # h has 2 nonzero coefficients of p + 1, on the chain's side of compose's
    # rule from p = 5; at p = 3, h^3 + h has 4 of 10
    taken = compose_paths(monkeypatch)
    c = construction(p)
    assert substitution_check(p, c.spec, c.family)
    assert [name for name, _ in taken] == [path]


def _perturbed(model, index, delta):
    coeffs = list(model.f.coeffs)
    while len(coeffs) <= index:
        coeffs.append(model.f.ring.zero)
    coeffs[index] = coeffs[index] + model.f.ring.from_int(delta)
    return HyperellipticModel(Polynomial(model.f.ring, coeffs))


def test_substitution_rejects_perturbations():
    rng = random.Random(77)
    for p in (5, 7, 11, 13):
        spec = default_spec(p)
        fam = hyperelliptic_family(p, spec)
        assert not substitution_check(p, spec, model=_perturbed(fam, 0, 1))
        for _ in range(10):
            idx = rng.randint(0, fam.f.degree)
            delta = rng.randint(1, 4)
            assert not substitution_check(p, spec, model=_perturbed(fam, idx, delta))


def test_substitution_p3_rejects_perturbations():
    rng = random.Random(78)
    spec = construction(3).spec
    fam = hyperelliptic_family(3, spec)
    for _ in range(10):
        idx = rng.randint(0, fam.f.degree)
        assert not substitution_check(3, spec, model=_perturbed(fam, idx, rng.randint(1, 4)))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_chart_transition(p):
    assert chart_transition_check(p, default_spec(p), _family(p))


def test_chart_transition_rejects_perturbations():
    rng = random.Random(79)
    for p in (5, 7, 11, 13):
        spec = default_spec(p)
        fam = hyperelliptic_family(p, spec)
        for _ in range(10):
            idx = rng.randint(0, fam.f.degree)
            assert not chart_transition_check(p, spec, model=_perturbed(fam, idx, rng.randint(1, 4)))


@pytest.mark.parametrize("p", SUPPORTED)
def test_relative_smoothness(p):
    assert is_relatively_smooth(_family(p), default_spec(p))


def test_smoothness_rejects_degenerate_models():
    # even degree (u^2) and the zero polynomial, over Q(zeta_5)
    spec = default_spec(5)
    k = spec.field
    assert not is_relatively_smooth(HyperellipticModel(Polynomial(k, [0, 0, 1])), spec)
    assert not is_relatively_smooth(HyperellipticModel(Polynomial(k, [])), spec)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_smoothness_rejects_even_degree_alone(p):
    # control: f * (pi*u - 1) has degree p + 1, integral coefficients and
    # squarefree fibres (pi*u - 1 is a unit mod pi), so only the odd-degree
    # clause rejects it
    spec = default_spec(p)
    k = spec.field
    model = HyperellipticModel(_family(p).f * Polynomial(k, [-k.one, spec.pi]))
    assert model.f.degree == p + 1
    assert all(c.is_integral for c in model.f.coeffs)
    assert model.squarefree and reduce_model(model, spec).squarefree
    assert not is_relatively_smooth(model, spec)


def _squared_root_control(p):
    # f * (u - 2)^2 keeps odd degree and integral coefficients
    f = _family(p).f
    k = f.ring
    linear = Polynomial(k, [k.from_int(-2), k.one])
    return HyperellipticModel(f * linear * linear)


def _count_verdicts(monkeypatch):
    """Lists of the polynomials that the split-prime certificate and the
    exact gcd are called on, filled as the calls happen."""
    from hodgegap import curves

    certified, exact = [], []
    real_certificate, real_gcd = curves.split_prime_certificate, curves.discriminant_squarefree

    def counting_certificate(f):
        certified.append(f)
        return real_certificate(f)

    def counting_gcd(f):
        exact.append(f)
        return real_gcd(f)

    monkeypatch.setattr(curves, "split_prime_certificate", counting_certificate)
    monkeypatch.setattr(curves, "discriminant_squarefree", counting_gcd)
    return certified, exact


def test_generic_squarefree_test_runs_once_per_model(monkeypatch):
    # one verdict per model: the family is settled by one certificate and no
    # exact gcd over Q(zeta_5); the singular control pays one of each
    spec = default_spec(5)
    model = hyperelliptic_family(5, spec)
    singular = _squared_root_control(5)
    certified, exact = _count_verdicts(monkeypatch)
    assert is_relatively_smooth(model, spec)
    assert genus(model) == 2
    assert sum(f is model.f for f in certified) == 1
    assert sum(f is model.f for f in exact) == 0
    assert not is_relatively_smooth(singular, spec)
    with pytest.raises(ValueError, match="singular"):
        genus(singular)
    assert sum(f is singular.f for f in certified) == 1
    assert sum(f is singular.f for f in exact) == 1


@pytest.mark.parametrize("p", [3] + primes_upto(61)[2:])
def test_split_prime_certificate_agrees_with_the_exact_gcd(p):
    f = _family(p).f
    assert split_prime_certificate(f) is discriminant_squarefree(f) is True


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_split_prime_certificate_never_certifies_a_square_factor(p):
    assert not split_prime_certificate(_squared_root_control(p).f)


K5 = cyclotomic_field(5)


@pytest.mark.parametrize(
    "lead, constant",
    [
        (K5.one, K5.element([1], 11)),
        (K5.from_int(11), K5.one),
        (11 * K5.zeta**2, K5.one),
        (K5.zeta - element_of_order(5, 11), K5.one),
    ],
    ids=["denominator-11", "leading-11", "leading-11-zeta^2", "leading-zeta-minus-w"],
)
def test_split_prime_certificate_declines_when_the_prime_divides(monkeypatch, lead, constant):
    # lead*u^3 + u + constant is squarefree (its discriminant
    # -4*lead - 27*lead^2*constant^2 is not 0) and of degree 3, so l = 11, the
    # least prime = 1 (mod 5) above 6.  l divides a denominator, or the
    # leading coefficient reduces to 0 (zeta - w lies in the prime above 11
    # that zeta -> w picks, though 11 does not divide it): the certificate
    # declines, and the exact gcd gives the verdict
    model = HyperellipticModel(Polynomial(K5, [constant, K5.one, K5.zero, lead]))
    certified, exact = _count_verdicts(monkeypatch)
    assert model.squarefree
    assert [f is model.f for f in certified] == [True]
    assert [f is model.f for f in exact] == [True]


@pytest.mark.parametrize("p", [3] + primes_upto(23)[2:])
def test_exact_gcd_of_the_square_control_is_the_squared_factor(p):
    # f * (u - 2)^2 with f squarefree and f(2) != 0: the gcd with the
    # derivative is u - 2 exactly, reached by the monic Euclidean algorithm
    f = _squared_root_control(p).f
    k = f.ring
    assert _family(p).f(k.from_int(2))
    assert discriminant_squarefree(f) is False
    assert poly_gcd(f, f.derivative()) == Polynomial(k, [k.from_int(-2), k.one])


@pytest.mark.parametrize("p", [19, 23, 29])
def test_repeated_root_is_rejected_beyond_the_shipped_primes(p):
    spec = default_spec(p)
    model = _squared_root_control(p)
    assert not is_relatively_smooth(model, spec)
    with pytest.raises(ValueError, match="singular"):
        genus(model)


@pytest.mark.parametrize("p", SUPPORTED)
def test_sigma_preserves_family_on_both_fibres(p):
    spec = default_spec(p)
    fam = hyperelliptic_family(p, spec)
    c = construction(p)
    assert map_preserves_curve(fam, c.sigma)
    assert map_preserves_curve(reduce_model(fam, spec), c.sigma0)


def test_tau_preserves_special_fibre():
    spec = PiSpec.for_prime(5)
    red = reduce_model(_family(5), spec)
    assert map_preserves_curve(red, construction(5).tau)
    # doubling u alone scales u^5 - u inhomogeneously
    f5 = spec.residue_field
    bad = AffineCurveMap(f5.from_int(2), f5.zero, f5.one)
    assert not map_preserves_curve(red, bad)


@pytest.mark.parametrize("p", [5, 7])
def test_maps_with_general_beta_preserve_and_perturbations_fail(p):
    # the report's maps have beta in {0, 1}; sigma^k and tau*sigma0 do not
    c = construction(p)
    zeta = c.sigma.alpha
    for k in range(2, p):
        m = map_power(c.sigma, k)
        assert m.beta == sum((zeta**i for i in range(k)), c.spec.field.zero)
        assert map_preserves_curve(c.family, m)
        assert not map_preserves_curve(c.family, replaced(m, beta=m.beta * 2))
    fq = c.residue_field
    m = map_compose(c.tau, c.sigma0)
    assert (m.alpha, m.beta) == (fq.from_int(4), fq.from_int(4))
    assert map_preserves_curve(c.reduced, m)
    # 2u + 4 with gamma^2 = 4 scales u^p - u by 2, not 4
    assert not map_preserves_curve(c.reduced, replaced(m, alpha=fq.from_int(2)))


@pytest.mark.parametrize("p", SUPPORTED)
def test_sigma_has_order_p(p):
    c = construction(p)
    assert map_order(c.sigma) == p
    assert map_order(c.sigma0) == p


def test_map_group_basics():
    spec = PiSpec.for_prime(5)
    sigma = construction(5).sigma
    assert map_order(identity_map(spec.field)) == 1
    assert map_compose(sigma, map_inverse(sigma)).is_identity()
    assert map_compose(map_inverse(sigma), sigma).is_identity()
    assert map_power(sigma, 5).is_identity()
    with pytest.raises(RuntimeError):
        map_order(AffineCurveMap(spec.field.from_int(2), spec.field.zero, spec.field.one), bound=16)


def test_apply_adds_beta():
    # sigma0 = (1, 1, 1) moves every point of F_7 x F_7 one step up in u
    f7 = FiniteField(7)
    sigma0 = AffineCurveMap(f7.one, f7.one, f7.one)
    for u in f7:
        for v in f7:
            assert sigma0.apply(u, v) == (u + 1, v)


def test_map_power_matches_iterated_composition():
    f7 = FiniteField(7)
    m = AffineCurveMap(f7.from_int(3), f7.from_int(5), f7.from_int(6))
    acc = identity_map(f7)
    for k in range(20):
        assert map_power(m, k) == acc
        acc = map_compose(m, acc)


def test_prime_order_check_past_the_scan_bound():
    c = construction(521)
    spec, sigma, sigma0 = c.spec, c.sigma, c.sigma0
    with pytest.raises(RuntimeError):
        map_order(sigma0)  # the linear scan stops at 512
    assert has_prime_order(sigma, 521)
    assert has_prime_order(sigma0, 521)
    # controls: the identity, and sigma with v -> -v, of order 2p
    assert not has_prime_order(identity_map(spec.field), 521)
    assert not has_prime_order(AffineCurveMap(sigma.alpha, sigma.beta, -spec.field.one), 521)
    with pytest.raises(ValueError):
        has_prime_order(sigma0, 9)


@pytest.mark.parametrize("p", SUPPORTED)
def test_x_multiplier_reads_the_power_of_sigma(p):
    c = construction(p)
    k = c.spec.field
    for a in range(p):
        assert x_multiplier(map_power(c.sigma, a), c.spec) == a
    # controls: a translation in x, and a map that scales y
    with pytest.raises(ValueError, match="not x -> zeta_p"):
        x_multiplier(AffineCurveMap(c.sigma.alpha, k.from_int(2), k.one), c.spec)
    with pytest.raises(ValueError, match="not x -> zeta_p"):
        x_multiplier(AffineCurveMap(c.sigma.alpha, k.one, -k.one), c.spec)
    # x -> -x has no translation but is no power of zeta_p
    with pytest.raises(ValueError, match="is not a power of zeta"):
        x_multiplier(AffineCurveMap(-k.one, -2 * c.spec.pi.inv(), k.one), c.spec)


@pytest.mark.parametrize("p,k", [(5, 4), (7, 4), (11, 4), (13, 4), (3, 2)])
def test_tau_conjugates_sigma(p, k):
    c = construction(p)
    assert conjugacy_check(c.tau, c.sigma0, k)


def test_conjugacy_identity_case():
    spec = PiSpec.for_prime(5)
    sigma = construction(5).sigma0
    assert conjugacy_check(identity_map(spec.residue_field), sigma, 1)


def test_tau_p3_is_the_derived_square_root():
    tau = construction(3).tau
    assert tau.alpha == 2
    assert tau.gamma * tau.gamma == 2


def test_tau_reads_the_twist_of_its_own_construction():
    tau = replaced(construction(7), twist=2).tau
    assert tau.alpha == 2
    assert tau.gamma * tau.gamma == 2
    assert construction(7).tau.alpha == 4


@pytest.mark.parametrize("p", SUPPORTED)
def test_sigma_fixed_points_only_at_infinity(p):
    spec = default_spec(p)
    red = reduce_model(_family(p), spec)
    assert affine_fixed_points(construction(p).sigma0, red) == []


def test_tau_fixed_points_p5():
    spec = PiSpec.for_prime(5)
    red = reduce_model(_family(5), spec)
    pts = affine_fixed_points(construction(5).tau, red)
    f5 = spec.residue_field
    assert pts == [(f5.zero, f5.zero)]


def test_identity_fixes_every_point():
    spec = PiSpec.for_prime(5)
    red = reduce_model(_family(5), spec)
    pts = affine_fixed_points(identity_map(spec.residue_field), red)
    # v^2 = u^5 - u has every u rational with v = 0, plus nothing else mod 5
    assert len(pts) == sum(
        1 for u in spec.residue_field for v in spec.residue_field if v * v == red.f(u)
    )


def _fixed_by_pairs(m, model):
    # oracle: walk all (u, v) in F_q x F_q
    fq = m.ring
    return [(u, v) for u in fq for v in fq if v * v == model.f(u) and m.apply(u, v) == (u, v)]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_fixed_points_match_the_pair_scan(p):
    # F_9, F_5 and F_7: sigma, tau, the identity and (u, -v) on the special
    # fibre, whose points all have v = 0, and on seeded curves with v != 0
    spec = default_spec(p)
    fq = spec.residue_field
    rng = random.Random(p)
    elements = list(fq)
    models = [reduce_model(_family(p), spec)] + [
        HyperellipticModel(Polynomial(fq, [rng.choice(elements) for _ in range(5)] + [1]))
        for _ in range(4)
    ]
    c = construction(p)
    maps = [
        c.sigma0,
        c.tau,
        identity_map(fq),
        AffineCurveMap(fq.one, fq.zero, -fq.one),
    ]
    for model in models:
        for m in maps:
            assert affine_fixed_points(m, model) == _fixed_by_pairs(m, model)
    assert affine_fixed_points(c.tau, models[0]) == [(fq.zero, fq.zero)]
