import gc
import itertools
import random
import weakref

import pytest
from conftest import compose_paths, replaced

from hodgegap.algebra import (
    FiniteField,
    Polynomial,
    _monic_remainder,
    discriminant_squarefree,
    element_of_order,
    is_prime,
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
    modular_squarefree,
    reduce_model,
    smoothness_failure,
    substitution_check,
    x_map,
    x_multiplier,
    xy_model,
)
from hodgegap.cyclotomic import PiSpec, SplitPrime, cyclotomic_field

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


def test_construction_reads_p_off_its_residue_field():
    # p is no constructor argument, so it cannot disagree with F_q
    c = construction(3)
    assert (c.p, c.q) == (c.residue_field.p, 9) == (3, 9)
    with pytest.raises(TypeError, match="no parameter"):
        replaced(c, p=5)


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


@pytest.mark.parametrize("p", [3, 5, 7, 61])
def test_substitution_takes_the_chain_alone(monkeypatch, p):
    # the pull-back along pi*u + 1 has beta = 1: one chain, no scaling
    taken = compose_paths(monkeypatch)
    c = construction(p)
    assert substitution_check(p, c.spec, c.family)
    assert [name for name, _ in taken] == ["chain"]


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
    """Lists of the polynomials that modular_squarefree and the exact gcd are
    called on, filled as the calls happen."""
    from hodgegap import curves

    calls = []
    for name in ("modular_squarefree", "discriminant_squarefree"):
        called, real = [], getattr(curves, name)

        def counting(f, _called=called, _real=real):
            _called.append(f)
            return _real(f)

        monkeypatch.setattr(curves, name, counting)
        calls.append(called)
    return calls


def _tried_divisors(monkeypatch):
    """The lifted gcds that modular_squarefree divides f and f' by, filled as
    the divisions happen (it is the only caller of _monic_remainder in
    curves)."""
    from hodgegap import curves

    tried, real = [], curves._monic_remainder

    def recording(num, den):
        tried.append(den)
        return real(num, den)

    monkeypatch.setattr(curves, "_monic_remainder", recording)
    return tried


def test_generic_squarefree_test_runs_once_per_model(monkeypatch):
    # one verdict per model: the family is settled by modular_squarefree
    # alone over Q(zeta_5), at its first prime; the singular control by
    # modular_squarefree at its second prime, with no exact gcd
    spec = default_spec(5)
    model = hyperelliptic_family(5, spec)
    singular = _squared_root_control(5)
    verdicts, exact = _count_verdicts(monkeypatch)
    assert is_relatively_smooth(model, spec)
    assert genus(model) == 2
    assert sum(f is model.f for f in verdicts) == 1
    assert sum(f is model.f for f in exact) == 0
    assert not is_relatively_smooth(singular, spec)
    with pytest.raises(ValueError, match="singular"):
        genus(singular)
    assert sum(f is singular.f for f in verdicts) == 1
    assert sum(f is singular.f for f in exact) == 0
    assert modular_squarefree(model.f) is True
    assert modular_squarefree(singular.f) is False


@pytest.mark.parametrize("p", [3] + primes_upto(61)[2:])
def test_split_prime_certificate_agrees_with_the_exact_gcd(p):
    # modular_squarefree's True, the split-prime certificate at its first prime
    f = _family(p).f
    assert modular_squarefree(f) is discriminant_squarefree(f) is True


@pytest.mark.parametrize("p", [11, 13, 17, 19, 23])
def test_split_prime_certificate_never_certifies_a_square_factor(p):
    assert modular_squarefree(_squared_root_control(p).f) is False


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
def test_split_prime_certificate_settles_at_the_second_prime_when_the_first_divides(
    monkeypatch, lead, constant
):
    # lead*u^3 + u + constant is squarefree (its discriminant
    # -4*lead - 27*lead^2*constant^2 is not 0) and of degree 3, so
    # modular_squarefree's first prime is 11, the least prime = 1 (mod 5)
    # above 6.  11 divides a denominator, or the leading coefficient reduces
    # to 0 (zeta - w lies in the prime above 11 that zeta -> w picks, though
    # 11 does not divide it): the first prime shows nothing, and at the
    # second f keeps its degree and its gcd with f' is constant, which proves
    # f squarefree with no exact gcd
    model = HyperellipticModel(Polynomial(K5, [constant, K5.one, K5.zero, lead]))
    verdicts, exact = _count_verdicts(monkeypatch)
    assert model.squarefree
    assert [f is model.f for f in verdicts] == [True]
    assert exact == []
    assert modular_squarefree(model.f) is True


@pytest.mark.parametrize("p", [5, 7])
def test_an_unlucky_first_prime_is_settled_at_the_second(monkeypatch, p):
    # the family with its leading coefficient times pi is squarefree and keeps
    # its degree mod the first prime (11 at p = 5, 29 at p = 7), where it has a
    # repeated root; at the second prime its gcd with f' is constant, so the
    # verdict is True with no exact gcd (which at p = 29 runs for minutes)
    model = HyperellipticModel(_leading_times_pi(_family(p).f, default_spec(p).pi))
    verdicts, exact = _count_verdicts(monkeypatch)
    assert model.squarefree
    assert [f is model.f for f in verdicts] == [True]
    # the one gcd taken by discriminant_squarefree is the first prime's
    [reduced] = exact
    assert (reduced.ring, reduced.degree) == (FiniteField({5: 11, 7: 29}[p]), p)
    assert not discriminant_squarefree(reduced)


@pytest.mark.parametrize("p", [3] + primes_upto(23)[2:])
def test_exact_gcd_of_the_square_control_is_the_squared_factor(p):
    # f * (u - 2)^2 with f squarefree and f(2) != 0: the gcd with the
    # derivative is u - 2 exactly, reached by the monic Euclidean algorithm
    f = _squared_root_control(p).f
    k = f.ring
    assert _family(p).f(k.from_int(2))
    assert discriminant_squarefree(f) is False
    assert poly_gcd(f, f.derivative()) == Polynomial(k, [k.from_int(-2), k.one])


@pytest.mark.parametrize("step, bound", [(5, 6), (12, 18), (13, 38), (10, 2**20), (24, 2**20)])
def test_least_prime_is_the_first_of_a_search_one_by_one(step, bound):
    from hodgegap.curves import _least_prime

    expected = next(ell for ell in itertools.count(bound + 1) if ell % step == 1 and is_prime(ell))
    assert _least_prime(step, bound) == expected


def _linear(k, root):
    return Polynomial(k, [-k.coerce(root), k.one])


def _leading_times_pi(f, pi):
    *rest, lead = f.coeffs
    return Polynomial(f.ring, [*rest, pi * lead])


def _certificate_prime(n):
    # modular_squarefree's second prime: the least prime = 1 (mod 2n) above
    # 2^20, searched one by one
    return next(ell for ell in itertools.count(2**20 + 1) if ell % (2 * n) == 1 and is_prime(ell))


def _divides_f_and_its_derivative(h, f):
    return _monic_remainder(f, h).is_zero() and _monic_remainder(f.derivative(), h).is_zero()


@pytest.mark.parametrize("n", [5, 12, 13])
def test_common_factor_certificate_agrees_with_the_exact_gcd(monkeypatch, n):
    # seeded squarefree f of degree 3 and f*h^2 for a monic h of degree 1 or 2
    # with non-integral coordinates: f is never shown singular, and for f*h^2
    # modular_squarefree's False rests on poly_gcd(f*h^2, its derivative) = h,
    # which divides both exactly
    k = cyclotomic_field(n)
    rng = random.Random(n)
    tried = _tried_divisors(monkeypatch)

    def element(den):
        return k.element([rng.randint(-4, 4) for _ in range(k.degree)], den)

    for _ in range(3):
        f = Polynomial(k, [element(rng.randint(1, 6)) for _ in range(3)] + [element(1) or k.one])
        low = [element(rng.choice([2, 3, 5])) for _ in range(rng.randint(1, 2))]
        h = Polynomial(k, low + [k.one])
        assert not all(c.is_integral for c in h.coeffs)
        assert discriminant_squarefree(f) and poly_gcd(f, h).degree == 0
        assert modular_squarefree(f) is not False
        assert HyperellipticModel(f).squarefree
        singular = f * h * h
        tried.clear()
        assert modular_squarefree(singular) is False
        assert tried == [h, h] and h == poly_gcd(singular, singular.derivative())
        assert _divides_f_and_its_derivative(h, singular)
        assert not HyperellipticModel(singular).squarefree
        assert not discriminant_squarefree(singular)


@pytest.mark.parametrize("p", [3] + primes_upto(23)[2:])
def test_common_factor_of_the_square_control_is_u_minus_2(monkeypatch, p):
    # u - 2 is poly_gcd(f, f'), see test_exact_gcd_of_the_square_control_is_the_squared_factor:
    # modular_squarefree's False divides f and f' by it, and nothing else
    f = _squared_root_control(p).f
    tried = _tried_divisors(monkeypatch)
    assert modular_squarefree(f) is False
    assert tried == [_linear(f.ring, 2)] * 2
    assert _divides_f_and_its_derivative(tried[0], f)


def _beyond_reach(k):
    # a root with the coordinate 10^6 + 3, out of rational reconstruction's
    # reach mod l: its residues lift to nothing or to another element
    root = k.element([10**6 + 3, 1])
    split = SplitPrime(k, _certificate_prime(k.n))
    try:
        assert split.lift(split.coerce(root)) != root
    except ValueError:
        pass
    return root


DECLINES = {
    # l divides every denominator of (u - 2)^2 (u + 1/l)
    "denominator-l": lambda k: _linear(k, 2) ** 2
    * _linear(k, k.element([-1], _certificate_prime(k.n))),
    # the lead zeta - w vanishes in the embedding zeta -> w only
    "lead-zeta-minus-w": lambda k: (_linear(k, 2) ** 2 * _linear(k, -1)).scale(
        k.zeta - element_of_order(k.n, _certificate_prime(k.n))
    ),
    "beyond-reach": lambda k: _linear(k, _beyond_reach(k)) ** 2 * _linear(k, -1),
}


@pytest.mark.parametrize("n", [5, 12])
@pytest.mark.parametrize("case", DECLINES)
def test_common_factor_certificate_declines_to_the_exact_gcd_once(monkeypatch, case, n):
    # each case defeats modular_squarefree's second prime l on a singular f
    f = DECLINES[case](cyclotomic_field(n))
    assert modular_squarefree(f) is None
    model = HyperellipticModel(f)
    verdicts, exact = _count_verdicts(monkeypatch)
    assert model.squarefree is False
    # the first prime runs its own exact gcd over F_l, hence the filter
    assert [g is f for g in verdicts] == [True]
    assert sum(g is f for g in exact) == 1


def test_a_wrong_lift_is_caught_by_the_exact_division(monkeypatch):
    # a lift that moves the root of u - 2 to 1 gives u - 1, which does not
    # divide the square control: modular_squarefree shows nothing
    f = _squared_root_control(5).f
    real = SplitPrime.lift
    monkeypatch.setattr(SplitPrime, "lift", lambda self, x: real(self, x) + int(x != self.one))
    assert modular_squarefree(f) is None
    assert not HyperellipticModel(f).squarefree


@pytest.mark.parametrize("root", [0, 1], ids=["divides-f-only", "divides-f'-only"])
def test_a_factor_of_one_side_is_no_certificate(monkeypatch, root):
    # f = 11u^3 - 33u = 11u(u^2 - 3) is squarefree, its lead vanishes at the
    # first prime 11, and f' = 33(u - 1)(u + 1): a candidate u that divides f
    # alone, or u - 1 that divides f' alone, proves nothing at the second
    # prime, and modular_squarefree shows nothing
    from hodgegap import curves

    f = Polynomial(K5, [0, -33, 0, 11])
    monkeypatch.setattr(curves, "poly_gcd", lambda a, b: Polynomial(a.ring, [-root, 1]))
    assert modular_squarefree(f) is None
    assert HyperellipticModel(f).squarefree


def test_smoothness_failure_names_the_condition():
    spec = default_spec(5)
    k, pi = spec.field, spec.pi
    square = _linear(k, 2) ** 2 * _linear(k, -1)
    lifted = square + Polynomial(k, [0, pi])  # squarefree, with the same reduction
    assert discriminant_squarefree(lifted)
    cases = {
        "f has degree 2, not odd and positive": Polynomial(k, [0, 0, 1]),
        "f has degree -1, not odd and positive": Polynomial(k, []),
        "the u^1 coefficient is not integral": Polynomial(k, [1, k.one / 3, 0, 1]),
        "f has a repeated factor on the generic fibre": square,
        # f mod pi drops from u^5 - u to -u
        "f mod pi has degree 1, not 5: the second chart is singular at s = 0 on "
        "the special fibre": _leading_times_pi(_family(5).f, pi),
        "f mod pi has a repeated factor on the special fibre": lifted,
        None: _family(5).f,
    }
    for witness, f in cases.items():
        model = HyperellipticModel(f)
        assert smoothness_failure(model, reduce_model(model, spec)) == witness
        assert is_relatively_smooth(model, spec) is (witness is None)
    # 5 divides a denominator: f does not reduce, and the model is rejected
    # without a raise
    model = HyperellipticModel(Polynomial(k, [1, k.one / 5, 0, 1]))
    with pytest.raises(ValueError, match="divides the denominator"):
        reduce_model(model, spec)
    assert is_relatively_smooth(model, spec) is False


@pytest.mark.parametrize("p", [19, 23, 29, 37, 61])
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
    # F_9, F_5 and F_7: sigma, tau, the identity, (u, -v) and 2u + 1, which
    # fixes u = -1 alone, on the special fibre, whose points all have v = 0,
    # and on seeded curves and u^5 - u + 1 (f(-1) = 1) with v != 0
    spec = default_spec(p)
    fq = spec.residue_field
    rng = random.Random(p)
    elements = list(fq)
    models = [reduce_model(_family(p), spec)] + [
        HyperellipticModel(Polynomial(fq, [rng.choice(elements) for _ in range(5)] + [1]))
        for _ in range(4)
    ] + [HyperellipticModel(Polynomial(fq, [1, -1, 0, 0, 0, 1]))]
    c = construction(p)
    single = AffineCurveMap(fq.from_int(2), fq.one, fq.one)
    maps = [
        c.sigma0,
        c.tau,
        identity_map(fq),
        AffineCurveMap(fq.one, fq.zero, -fq.one),
        single,
        replaced(single, gamma=-fq.one),
    ]
    for model in models:
        for m in maps:
            assert affine_fixed_points(m, model) == _fixed_by_pairs(m, model)
    assert affine_fixed_points(c.tau, models[0]) == [(fq.zero, fq.zero)]
    assert affine_fixed_points(single, models[0]) == [(-fq.one, fq.zero)]
    assert sorted(v == 1 or v == -1 for _, v in affine_fixed_points(single, models[-1])) == [True, True]
    assert affine_fixed_points(replaced(single, gamma=-fq.one), models[-1]) == []


@pytest.mark.parametrize("p", [3, 5, 13])
def test_fixed_points_evaluate_f_once_or_not_at_all(monkeypatch, p):
    # sigma0 = u + 1 moves every u; tau = t*u fixes u = 0 alone
    c = construction(p)
    red = c.reduced
    evaluated, real = [], Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda f, x: evaluated.append(x) or real(f, x))
    assert affine_fixed_points(c.sigma0, red) == []
    assert evaluated == []
    assert affine_fixed_points(c.tau, red) == [(red.f.ring.zero,) * 2]
    assert evaluated == [red.f.ring.zero]


def test_fixed_points_reject_a_map_over_another_field():
    # sigma0 over F_9 moves every u, so no evaluation of f would see F_3
    f3 = FiniteField(3)
    model = HyperellipticModel(Polynomial(f3, [0, -1, 0, 1]))
    with pytest.raises(ValueError, match="over"):
        affine_fixed_points(construction(3).sigma0, model)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_a_map_preserves_the_family_exactly_when_its_x_map_preserves_the_xy_model(p):
    # f = h(pi*u + 1), so composing with pi*u + 1 carries one identity to the
    # other: sigma^k, translations, sigma-translation-2 and gamma = -1 or 2
    c = construction(p)
    assert c.substitution
    k, s = c.spec.field, c.sigma
    maps = [map_power(s, j) for j in range(p)] + [
        AffineCurveMap(k.one, k.from_int(b), k.one) for b in (1, 2, -1)
    ] + [
        AffineCurveMap(s.alpha, k.from_int(2), s.gamma),
        replaced(s, gamma=-k.one),
        replaced(s, gamma=k.from_int(2)),
    ]
    verdicts = [
        (map_preserves_curve(c.xy, x_map(m, c.spec)), map_preserves_curve(c.family, m))
        for m in maps
    ]
    assert [x for x, _ in verdicts] == [f for _, f in verdicts]
    assert [x for x, _ in verdicts] == [True] * p + [False] * 4 + [True, False]
