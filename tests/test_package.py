"""Package-wide properties: the modules import one another without a cycle,
only ``cyclotomic`` reads an element's coordinates, and every
input-validation raise is reached and stays a raise (an assert would vanish
under ``python -O``)."""

import ast
import operator
from pathlib import Path

import pytest

import hodgegap
from hodgegap.algebra import FiniteField, Polynomial, element_of_order, poly_gcd, power
from hodgegap.curves import (
    HyperellipticModel,
    affine_fixed_points,
    chart_transition_check,
    construction,
    hyperelliptic_family,
    identity_map,
    map_power,
    xy_model,
)
from hodgegap.cyclotomic import PiSpec, SplitPrime, cyclotomic_field
from hodgegap.elliptic import (
    CurvePoint,
    EllipticCurve,
    find_ordinary_with_trace_one,
    scalar_mul,
)

PACKAGE = Path(hodgegap.__file__).parent


def _relative_imports(path: Path) -> set[str]:
    """The package modules path imports: ``from .m import x`` names m, and
    ``from . import x`` names x when it is a module, the package otherwise."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(
                    a.name if (PACKAGE / f"{a.name}.py").is_file() else "__init__"
                    for a in node.names
                )
    return found


def _import_graph() -> dict[str, set[str]]:
    return {path.stem: _relative_imports(path) for path in PACKAGE.glob("*.py")}


def _cycle(graph: dict[str, set[str]]):
    """One import cycle as a list of modules, or None."""
    state: dict[str, str] = {}

    def visit(node, path):
        state[node] = "open"
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state:
                found = visit(nxt, path + [nxt])
                if found:
                    return found
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            found = visit(start, [start])
            if found:
                return found
    return None


def test_package_imports_form_no_cycle():
    graph = _import_graph()
    assert {"cli", "curves", "invariants"} <= set(graph)
    assert _cycle(graph) is None, " -> ".join(_cycle(graph))


def test_the_cycle_search_finds_a_cycle():
    assert _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_invariants_needs_only_algebra():
    assert _import_graph()["invariants"] <= {"algebra"}


def _num_reads(path: Path) -> list[int]:
    """The lines of path that read an attribute named ``num``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "num"
    )


def test_only_cyclotomic_reads_an_elements_coordinates():
    # the power-basis-over-one-denominator format stays inside cyclotomic:
    # every reduction into a finite field, residue_map's and SplitPrime's,
    # goes through its dot products
    reads = {
        path.name: _num_reads(path)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cyclotomic.py"
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}
    assert _num_reads(PACKAGE / "cyclotomic.py")


F5 = FiniteField(5)
K5 = cyclotomic_field(5)


# (raise, a call that must reach it, the exception type, its message)
RAISES = {
    "algebra.coerce-different-field": (
        lambda: F5.coerce(FiniteField(7).one), ValueError, "different field"),
    "algebra.coerce-non-int": (
        lambda: F5.coerce(1.5), TypeError, "cannot coerce"),
    "algebra.gen-prime-field": (
        lambda: F5.gen(), ValueError, "no extension generator"),
    "algebra.inv-zero": (
        lambda: F5.zero.inv(), ZeroDivisionError, "inverse of zero"),
    "algebra.leading-zero": (
        lambda: Polynomial(F5).leading(), ValueError, "no leading coefficient"),
    "algebra.gcd-rings": (
        lambda: poly_gcd(Polynomial(F5, [1, 1]), Polynomial(FiniteField(7), [1, 1])),
        ValueError, "different coefficient rings"),
    # k < 0 is rejected by power alone, for every power in the package
    "algebra.power-negative": (
        lambda: power(2, -1, operator.mul, 1), ValueError, "negative"),
    "algebra.fq-pow-negative": (
        lambda: F5.from_int(2) ** -1, ValueError, "negative"),
    "algebra.poly-pow-negative": (
        lambda: Polynomial(F5, [1, 1]) ** -1, ValueError, "negative"),
    "cyclotomic.element-den-zero": (
        lambda: K5.element([1], den=0), ZeroDivisionError, "zero denominator"),
    "cyclotomic.coerce-other-field": (
        lambda: K5.coerce(cyclotomic_field(7).one), ValueError, "different cyclotomic field"),
    "cyclotomic.coerce-non-int": (
        lambda: K5.coerce(1.5), TypeError, "cannot coerce"),
    "cyclotomic.pow-negative": (
        lambda: K5.zeta ** -1, ValueError, "negative"),
    "cyclotomic.pispec-inconsistent": (
        # 1 + 2 + 4 + 8 + 16 = 31 = 1 mod 5: 2 is no root of Phi_5 in F_5,
        # which the residue map rejects as it is built
        lambda: PiSpec(K5, K5.zeta - 1, F5, F5.from_int(2)),
        ValueError, "not a root of Phi_5"),
    "cyclotomic.pispec-pi-not-killed": (
        # zeta + 1 is a unit: its residue is 2, not 0
        lambda: PiSpec(K5, K5.zeta + 1, F5, F5.one),
        ValueError, "inconsistent with the uniformizer"),
    # the residue map states the fact, for PiSpec (v_pi < 0) and SplitPrime alike
    "cyclotomic.residue-denominator": (
        lambda: PiSpec.for_prime(5).residue(K5.one / 5),
        ValueError, "^5 divides the denominator$"),
    "cyclotomic.split-denominator": (
        lambda: SplitPrime(K5, 11).coerce(K5.one / 11),
        ValueError, "^11 divides the denominator$"),
    "cyclotomic.split-residue-zero": (
        # zeta - w is 0 in the embedding zeta -> w of Q(zeta_5) into F_11
        lambda: SplitPrime(K5, 11).coerce(K5.zeta - element_of_order(5, 11)).inv(),
        ZeroDivisionError, "residue 0 in some embedding"),
    "cyclotomic.for-prime-two": (
        lambda: PiSpec.for_prime(2), ValueError, "odd prime"),
    "cyclotomic.for-prime-composite": (
        lambda: PiSpec.for_prime(9), ValueError, "odd prime"),
    "curves.family-engine-elsewhere": (
        lambda: hyperelliptic_family(5, PiSpec.for_prime(7)),
        ValueError, "engine is local at 7"),
    "curves.xy-engine-elsewhere": (
        lambda: xy_model(5, PiSpec.for_prime(7)),
        ValueError, "engine is local at 7"),
    "curves.chart2-at-three": (
        lambda: chart_transition_check(3, construction(3).spec, construction(3).family),
        ValueError, "starts at p = 5"),
    "curves.fixed-points-infinite-ring": (
        lambda: affine_fixed_points(identity_map(K5), HyperellipticModel(Polynomial(K5, [0, 1]))),
        ValueError, "finite coefficient field"),
    "curves.map-power-negative": (
        lambda: map_power(identity_map(F5), -1), ValueError, "negative"),
    "elliptic.characteristic-two": (
        lambda: EllipticCurve(FiniteField(2), 0, 0, 1), ValueError, "characteristic 2"),
    "elliptic.trace-one-at-three": (
        lambda: find_ordinary_with_trace_one(3), ValueError, "p >= 5"),
    "elliptic.scalar-mul-negative": (
        lambda: scalar_mul(find_ordinary_with_trace_one(5), -1, CurvePoint.infinity()),
        ValueError, "negative"),
}


@pytest.mark.parametrize("name", RAISES)
def test_input_validation_raises(name):
    call, exc, message = RAISES[name]
    with pytest.raises(exc, match=message):
        call()
