"""Every check of the report can fail: each named change of a construction
fails exactly the listed checks and leaves the others passing.

A change is a copy of the construction with one constructor argument
replaced (``conftest.replaced``), or a cached object, the engine ``spec``
among them, put into a fresh copy's ``__dict__`` before its first read
(``conftest._with``); both reach the report through ``build_report(c)``
alone.
"""

import itertools

import pytest
from conftest import _with, recorded, replaced

from hodgegap import elliptic
from hodgegap.algebra import Polynomial
from hodgegap.cli import CHECKS, build_report
from hodgegap.curves import (
    AffineCurveMap,
    HyperellipticModel,
    construction,
    identity_map,
    map_power,
)
from hodgegap.cyclotomic import PiSpec
from hodgegap.elliptic import CurvePoint, EllipticCurve, find_curve
from hodgegap.modularrep import H1Report

PRIMES = (3, 5, 7, 13)


def _with_f(c, change):
    """A copy of c whose family is v^2 = change(f, engine field)."""
    return _with(c, family=HyperellipticModel(change(c.family.f, c.spec.field)))


def _square_factor(f, k):
    linear = Polynomial(k, [k.from_int(-2), k.one])
    return f * linear * linear


def _leading_times_pi(c):
    """A copy of c whose family has its leading coefficient times pi: f mod pi
    drops to degree 1, and the second chart is singular at s = 0 there."""
    *rest, lead = c.family.f.coeffs
    return _with(c, family=HyperellipticModel(Polynomial(c.spec.field, [*rest, c.spec.pi * lead])))


def _twice_pi(c):
    """An engine whose uniformizer is 2*pi: binom(p, 1)/(2*pi) is not integral,
    so the family does not build."""
    s = c.spec
    return _with(c, spec=PiSpec(s.field, 2 * s.pi, s.residue_field, s.zeta_image))


def _miscounted_curve(c):
    """The first curve that fails the point-count test, with its first point
    P != O; at p = 3, 5, 7 and 13 that point has no order p."""
    curve = find_curve(c.residue_field, lambda n: not c.point_count_ok(n))
    return _with(c, elliptic=(curve, next(itertools.islice(curve.points(), 1, None))))


# The reduction, substitution, genus and smoothness checks all read f; the
# p = 3 report skips curve.chart2 and hodge.witness and twists by sigma^2.
F_CHECKS = {"curve.genus", "curve.smoothness", "curve.reduction", "curve.substitution"}
FAMILY_P3 = F_CHECKS | {
    "curve.integrality",
    "action.sigma_preserves",
    "action.sigma_reduction",
    "conj.tau_sigma2",
    "action.sigma_fixed_points",
}
FAMILY = FAMILY_P3 - {"conj.tau_sigma2"} | {"curve.chart2", "conj.tau_sigma4"}
# f keeps its degree and stays squarefree, so the genus holds; f mod pi is
# -u, which tau still preserves and on which sigma0 fixes no point
LEADING = F_CHECKS - {"curve.genus"} | {"action.sigma_preserves", "action.sigma_reduction"}

# name -> (change, {p: failing ids}), the key None for every other p; a
# value that depends on p is a function of p
PERTURBATIONS = {
    "twist-3": (
        lambda c: replaced(c, twist=3),
        {
            3: {"conj.tau_sigma3", "hodge.h30.pair"},  # t = 0 in F_9: no tau
            # where 3 is a square mod p (3 = 4^2 mod 13), tau exists and
            # conjugates sigma to sigma^3; mod 5 and 7 it is not
            None: lambda p: {"hodge.witness"} if pow(3, (p - 1) // 2, p) == 1
            else {"conj.tau_sigma3", "hodge.witness"},
        },
    ),
    "twist-1-Y-is-X": (
        lambda c: replaced(c, twist=1),
        {3: {"hodge.h30.pair"}, None: {"hodge.h30.pair", "hodge.witness"}},
    ),
    "sigma-squared": (
        lambda c: _with(c, sigma=map_power(c.sigma, 2)),
        {None: {"action.sigma_reduction", "forms.weights"}},
    ),
    "sigma-to-the-p-the-identity": (
        lambda c: _with(c, sigma=map_power(c.sigma, c.p)),
        {None: {"action.sigma_reduction", "action.sigma_order", "forms.weights"}},
    ),
    "sigma-translation-2": (
        lambda c: _with(
            c, sigma=AffineCurveMap(c.sigma.alpha, c.spec.field.from_int(2), c.sigma.gamma)
        ),
        {None: {"action.sigma_preserves", "action.sigma_reduction", "forms.weights"}},
    ),
    "f-times-(u-2)^2": (
        lambda c: _with_f(c, _square_factor),
        {
            3: F_CHECKS | {"action.sigma_preserves", "action.sigma_reduction", "conj.tau_sigma2"},
            None: F_CHECKS
            | {"curve.chart2", "action.sigma_preserves", "action.sigma_reduction", "conj.tau_sigma4"},
        },
    ),
    "f-plus-half": (
        lambda c: _with_f(c, lambda f, k: f + Polynomial(k, [k.one / 2])),
        {
            3: F_CHECKS - {"curve.genus"} | {"curve.integrality", "conj.tau_sigma2"},
            None: F_CHECKS - {"curve.genus"}
            | {"curve.integrality", "curve.chart2", "conj.tau_sigma4"},
        },
    ),
    "leading-coefficient-times-pi": (  # f mod pi loses its degree
        _leading_times_pi,
        {3: LEADING, None: LEADING | {"curve.chart2"}},
    ),
    "pi-doubled": (  # sigma is zeta*u + 1 in x = 2*pi*u + 1: a translation
        _twice_pi,
        {3: FAMILY_P3 | {"forms.weights"}, None: FAMILY | {"forms.weights"}},
    ),
    "P-is-O": (
        lambda c: _with(c, elliptic=(c.elliptic[0], CurvePoint.infinity())),
        {None: {"elliptic.torsion_point", "elliptic.translation_free"}},
    ),
    "a-curve-failing-point_count_ok": (
        _miscounted_curve,
        {
            3: {"elliptic.ordinary_with_torsion", "elliptic.torsion_point"},
            None: {"elliptic.trace_one", "elliptic.torsion_point"},
        },
    ),
    "H1Report(4,4,0)": (
        lambda c: _with(c, h1=H1Report(4, 4, 0)),
        {None: {"derham.h1"}},
    ),
    "sigma0-identity": (
        lambda c: _with(c, sigma0=identity_map(c.residue_field)),
        {None: {"action.sigma_reduction", "action.sigma_fixed_points"}},
    ),
}


def _failing(name, p):
    table = PERTURBATIONS[name][1]
    ids = table.get(p, table[None])
    return ids(p) if callable(ids) else ids


@pytest.mark.parametrize("name, p", itertools.product(PERTURBATIONS, PRIMES))
def test_a_perturbation_fails_exactly_its_checks(name, p):
    report = build_report(PERTURBATIONS[name][0](construction(p)))
    assert {r.id for r in report.failed()} == _failing(name, p)
    assert report.summary is None


@pytest.mark.parametrize("name, p", itertools.product(PERTURBATIONS, PRIMES))
def test_no_failing_check_carries_its_pass_witness(name, p):
    clean = {r.id: r.witness for r in build_report(construction(p)).checks}
    report = build_report(PERTURBATIONS[name][0](construction(p)))
    carried = [
        r.id
        for r in report.failed()
        if clean.get(r.id) is not None and r.witness == clean[r.id]
    ]
    assert carried == []


@pytest.mark.parametrize("p", PRIMES)
def test_every_check_has_a_perturbation_that_fails_it(p):
    c = construction(p)
    clean = build_report(c)
    assert not clean.failed()
    ids = [template.format(c=c) for template, _, _ in CHECKS]
    assert set(c.skips) <= set(ids)
    run = [cid for cid in ids if cid not in c.skips]
    assert run == [r.id for r in clean.checks if r.status != "skipped"]
    falsified = set().union(*(_failing(name, p) for name in PERTURBATIONS))
    assert set(run) <= falsified


@pytest.mark.parametrize("p", PRIMES)
def test_a_smoothness_failure_names_its_condition(p):
    # the square factor fails on the generic fibre, the half on integrality,
    # pi times the leading coefficient on the degree of f mod pi
    witnesses = {
        name: {r.id: r for r in build_report(PERTURBATIONS[name][0](construction(p))).checks}[
            "curve.smoothness"
        ].witness
        for name in ("f-times-(u-2)^2", "f-plus-half", "leading-coefficient-times-pi")
    }
    degree = construction(p).family.f.degree
    assert witnesses == {
        "f-times-(u-2)^2": "f has a repeated factor on the generic fibre",
        "f-plus-half": "the u^0 coefficient is not integral",
        "leading-coefficient-times-pi": f"f mod pi has degree 1, not {degree}: the second "
        "chart is singular at s = 0 on the special fibre",
    }


# the rows that fail the sigma reduction, and the witness each names: the
# first of alpha, beta, gamma whose residue is not sigma0's, else the
# preservation; pi-doubled fails to build the family, and names that error
SIGMA_REDUCTION_WITNESSES = {
    "sigma-squared": "beta reduces to 2, not 1",
    "sigma-to-the-p-the-identity": "beta reduces to 0, not 1",
    "sigma-translation-2": "beta reduces to 2, not 1",
    "f-times-(u-2)^2": "u -> u + 1 does not preserve the reduced curve",
    "leading-coefficient-times-pi": "u -> u + 1 does not preserve the reduced curve",
    "pi-doubled": None,
    "sigma0-identity": "beta reduces to 1, not 0",
}


@pytest.mark.parametrize(
    "name, p",
    [(name, p) for name, p in itertools.product(PERTURBATIONS, PRIMES)
     if "action.sigma_reduction" in _failing(name, p)],
)
def test_a_failed_sigma_reduction_names_what_failed(name, p):
    checks = {r.id: r for r in build_report(PERTURBATIONS[name][0](construction(p))).checks}
    check = checks["action.sigma_reduction"]
    assert check.status == "fail" and check.witness is not None
    expected = SIGMA_REDUCTION_WITNESSES[name]
    if expected is None:
        assert set(check.witness) == {"error", "detail"}
    else:
        assert check.witness == expected


@pytest.mark.parametrize("p", PRIMES)
def test_a_fixed_translation_names_its_first_fixed_point(p, monkeypatch):
    # P = O: the translation is the identity, so the first point of the
    # listing, O itself, is fixed.  A passing report builds no CurvePoint
    # for the witness: past its elliptic factor, the one it builds is the
    # torsion check's p*P = O
    checks = {r.id: r for r in build_report(PERTURBATIONS["P-is-O"][0](construction(p))).checks}
    assert checks["elliptic.translation_free"].status == "fail"
    assert checks["elliptic.translation_free"].witness == "O + O = O"
    c = construction(p)
    curve, _ = c.elliptic
    listed = recorded(monkeypatch, EllipticCurve, "points")
    built = recorded(monkeypatch, elliptic, "_to_point")
    checks = {r.id: r for r in build_report(c).checks}
    assert checks["elliptic.translation_free"].status == "pass"
    assert checks["elliptic.translation_free"].witness is None
    assert listed == [] and built == [(curve.field, None)]


def test_an_unbuildable_tau_fails_its_checks_and_not_the_report():
    # 3 is no square mod 7, so tau = (3u, sqrt(3)v) does not exist
    checks = {r.id: r for r in build_report(replaced(construction(7), twist=3)).checks}
    conj = checks["conj.tau_sigma3"]
    assert conj.statement.startswith("tau = (3u, sqrt(3)v) is an automorphism")
    assert conj.status == "fail"
    assert conj.witness == {"error": "ArithmeticError", "detail": "3 must be a square in F_7"}
    assert checks["hodge.witness"].status == "fail"
    assert checks["hodge.witness"].witness == "weights 2 + 3*(p-1)/2 = 4 mod p"


@pytest.mark.parametrize("p", [5, 7, 13])
def test_twist_1_fails_the_counts_and_not_as_an_error(p):
    checks = {r.id: r for r in build_report(replaced(construction(p), twist=1)).checks}
    assert checks["hodge.h30.pair"].status == "fail"
    assert checks["hodge.h30.pair"].witness == {"hX": 0, "hY": 0, "hY_pairs": []}


def test_the_p3_skip_reason_states_the_construction_twist():
    for twist in (2, 1):
        checks = {r.id: r for r in build_report(replaced(construction(3), twist=twist)).checks}
        assert checks["hodge.witness"].status == "skipped"
        assert checks["hodge.witness"].witness.endswith(f"the twisted exponent is {twist}")
