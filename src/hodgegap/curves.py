"""The ramified hyperelliptic family and its symmetries.

For an odd prime p >= 5 the family over Z_p[zeta_p] is

    v^2 = f(u),   f(u) = sum_{i=0}^{p-1} binom(p,i)/pi^i * u^(p-i),

with uniformizer pi = zeta_p - 1; its reduction mod pi is v^2 = u^p - u, and
after the substitution x = pi*u + 1, y = v the generic fibre becomes
pi^p y^2 = x^p - 1.  For p = 3 the same sum g, taken over Z_3[omega, i]
(inside Q(zeta_12), pi = omega - 1), is g = u^3 + (omega^2-1)u^2 - omega^2 u,
and the degree-9 family is v^2 = g^3 + g, reducing to v^2 = u^9 - u.
:func:`construction` is the root of the per-prime data and the one place
that tells p = 3 apart.  Its :class:`Construction` holds the residue field
F_q (F_p, or F_9 at p = 3, from which it also builds the p = 3 engine), the
twist exponent and one point-count test per prime, and it builds and keeps
the objects a report checks: the engine, the family and its reduction, the
reduction target u^q - u, sigma on both fibres, tau, the elliptic factor
(the first curve over F_q that passes the test), the form weights, the
invariant pairs and the h1 report.  Each call makes a fresh construction,
freed with its caller's last reference.  The functions below take the data
they use as arguments, with no defaults, and never look the construction up
again: the family builders read q off the engine they are given, so a
changed construction reaches every check.  Only :func:`discrepancy_series`,
one construction per row, and ``default_spec`` call :func:`construction`.

Curve automorphisms are restricted to the affine shape
(u, v) -> (alpha*u + beta, gamma*v), which covers the order-p action
sigma(u) = zeta*u + 1, sigma(v) = v and the conjugating maps used on the
special fibre.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Mapping, NamedTuple

from .algebra import (
    FiniteField,
    Polynomial,
    discriminant_squarefree,
    element_of_order,
    fq_sqrt,
    is_prime,
    power,
    primes_upto,
    square_roots,
)
from .cyclotomic import CyclotomicField, PiSpec, cyclotomic_field
from .elliptic import find_curve, torsion_point_of_exact_order
from .invariants import (
    WeightMultiset,
    form_weights,
    hy_interval_count,
    invariant_pair_witnesses,
)
from .modularrep import H1Report, h1_de_rham_report


class HyperellipticModel:
    """A curve v^2 = f(u); only odd-degree f is produced here, so there is a
    single point at infinity."""

    def __init__(self, f: Polynomial):
        self.f = f

    @functools.cached_property
    def squarefree(self) -> bool:
        """Whether f has no repeated root: :func:`split_prime_certificate`
        first, then the exact gcd of f and f' when it does not certify.  No
        caller rebinds f, so this verdict is reached once per model."""
        return split_prime_certificate(self.f) or discriminant_squarefree(self.f)


def split_prime_certificate(f: Polynomial) -> bool:
    """True only if f, over Q(zeta_n), is squarefree, shown at one prime.

    l is the least prime with l = 1 (mod n) and l > 2 deg f, and zeta goes to
    an element w of exact order n in F_l, a root of Phi_n there.  If l divides
    no denominator and the leading coefficient survives, reduction commutes
    with the resultant of f and f' (f' keeps its degree, as l > deg f); a
    repeated factor over Q(zeta_n) makes that resultant 0, so a squarefree
    reduction proves f squarefree (von zur Gathen & Gerhard, *Modern Computer
    Algebra*, ch. 6).  False means "not shown", never "not squarefree": f over
    another ring, a denominator or leading coefficient that l divides, or a
    reduction with a repeated root.  One l is tried, so a singular input pays
    one small gcd over F_l before the exact one.
    """
    k = f.ring
    if not isinstance(k, CyclotomicField) or f.degree < 1:
        return False
    n = k.n
    ell = 2 * f.degree + 1
    while ell % n != 1 or not is_prime(ell):
        ell += 1
    w = element_of_order(n, ell)
    w_powers = [pow(w, i, ell) for i in range(k.degree)]
    reduced = []
    for c in f.coeffs:
        if c.den % ell == 0:
            return False
        reduced.append(sum(map(operator.mul, c.num, w_powers)) * pow(c.den, -1, ell))
    if reduced[-1] % ell == 0:
        return False
    return discriminant_squarefree(Polynomial(FiniteField(ell), reduced))


class AffineCurveMap:
    """The map (u, v) -> (alpha*u + beta, gamma*v); alpha, gamma units."""

    def __init__(self, alpha, beta, gamma):
        if not alpha or not gamma:
            raise ValueError("alpha and gamma must be invertible")
        self.alpha, self.beta, self.gamma = alpha, beta, gamma

    def __eq__(self, other):
        if not isinstance(other, AffineCurveMap):
            return NotImplemented
        return (self.alpha, self.beta, self.gamma) == (other.alpha, other.beta, other.gamma)

    @property
    def ring(self):
        return self.alpha.field

    def apply(self, u, v):
        return self.alpha * u + self.beta, self.gamma * v

    def is_identity(self) -> bool:
        return self.alpha == 1 and not self.beta and self.gamma == 1


class Construction:
    """The data that differ at p = 3 (degree 9 over Q(zeta_12), its own twist
    exponent, an elliptic factor over F_9), and the objects a report builds
    from them: each built on first use and kept, so a report builds it once
    and a failure to build it fails only the checks that read it.  Equality
    is identity: :func:`construction` makes a fresh one per call."""

    def __init__(
        self,
        p: int,
        residue_field: FiniteField,  # the special fibre is v^2 = u^q - u over F_q
        twist: int,  # Y is the quotient by (sigma, sigma^twist, tau_P)
        engine: Callable[[], PiSpec],
        point_count_ok: Callable[[int], bool],  # on #E(F_q), picks the elliptic factor
        hodge_ok: Callable[[int, int], bool],
        xy_text: str,
        elliptic_check: tuple[str, str],  # (id, statement)
        hodge_text: str,  # the claim on hX and hY; {twisted} is Y's generator
        skips: Mapping[str, tuple[str, str]],  # check id -> (statement, reason with {twist})
    ):
        self.p = p
        self.residue_field = residue_field
        self.twist = twist
        self.engine = engine
        self.point_count_ok = point_count_ok
        self.hodge_ok = hodge_ok
        self.xy_text = xy_text
        self.elliptic_check = elliptic_check
        self.hodge_text = hodge_text
        self.skips = skips

    @property
    def q(self) -> int:
        return self.residue_field.q

    @property
    def genus(self) -> int:
        return (self.q - 1) // 2

    @functools.cached_property
    def spec(self) -> PiSpec:
        return self.engine()

    @functools.cached_property
    def family(self) -> HyperellipticModel:
        return hyperelliptic_family(self.p, self.spec)

    @functools.cached_property
    def reduced(self) -> HyperellipticModel:
        return reduce_model(self.family, self.spec)

    @functools.cached_property
    def target(self) -> Polynomial:
        """u^q - u over F_q, the reduction the family must have."""
        fq = self.residue_field
        return Polynomial(fq, [fq.zero, -fq.one] + [fq.zero] * (self.q - 2) + [fq.one])

    @functools.cached_property
    def sigma(self) -> AffineCurveMap:
        """sigma(u) = zeta_p*u + 1, sigma(v) = v over the ramified base."""
        k = self.spec.field
        return AffineCurveMap(k.zeta ** (self.spec.n // self.p), k.one, k.one)

    @functools.cached_property
    def sigma0(self) -> AffineCurveMap:
        """The special fibre of sigma: u -> u + 1, v -> v."""
        fq = self.residue_field
        return AffineCurveMap(fq.one, fq.one, fq.one)

    @functools.cached_property
    def tau(self) -> AffineCurveMap:
        """The automorphism (t*u, sqrt(t)*v) of v^2 = u^q - u, with t the
        twist exponent: it conjugates u -> u + 1 to u -> u + t.

        For p >= 5 this is (4u, 2v).  For p = 3 it is (2u, i*v) over F_9, where
        i = sqrt(2) = sqrt(-1); t^q = t shows it preserves u^q - u.
        """
        fq = self.residue_field
        t = fq.from_int(self.twist)
        root = fq_sqrt(t)
        if root is None:
            raise ArithmeticError(f"{t} must be a square in F_{fq.q}")
        return AffineCurveMap(t, fq.zero, root)

    @functools.cached_property
    def elliptic(self) -> tuple:
        """(the first curve over F_q that passes point_count_ok, its first
        rational point of exact order p)."""
        curve = find_curve(self.residue_field, self.point_count_ok)
        return curve, torsion_point_of_exact_order(curve, self.p)

    @functools.cached_property
    def weights(self) -> WeightMultiset:
        """The weights of x^(k-1) dx/y under x -> zeta_p x, the map sigma must
        be in x = pi*u + 1 (the report checks it with :func:`x_multiplier`)."""
        return form_weights(self.p, 1, self.genus)

    @functools.cached_property
    def hodge_pairs(self) -> tuple[list, list]:
        """The invariant pairs of the (sigma, sigma, tau_P) and the
        (sigma, sigma^twist, tau_P) quotients; hX and hY are their lengths."""
        w = self.weights
        return invariant_pair_witnesses(w, 1), invariant_pair_witnesses(w, self.twist)

    @property
    def hodge(self) -> tuple[int, int]:
        return len(self.hodge_pairs[0]), len(self.hodge_pairs[1])

    @functools.cached_property
    def h1(self) -> H1Report:
        return h1_de_rham_report(self.p)


def construction(p: int) -> Construction:
    """The construction at the odd prime p; nothing costly is built here."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if p == 3:
        f9 = FiniteField(3, modulus=(1, 0))  # F_9 = F_3[i]

        def engine() -> PiSpec:
            """Z_3[omega, i] inside Q(zeta_12): pi = omega - 1 with omega = zeta^4,
            e = 4/2 = 2, and zeta = omega * i^{-1} reduces to 1 * i^{-1} = -i in F_9."""
            k = cyclotomic_field(12)
            return PiSpec(k, k.zeta**4 - 1, f9, -f9.gen())

        return Construction(
            p,
            residue_field=f9,
            twist=2,
            engine=engine,
            # q + 1 = 10 = 1 mod 3, so 3 | n forces trace 10 - n = 1 mod 3: ordinary
            point_count_ok=lambda n: n % 3 == 0,
            hodge_ok=lambda h_x, h_y: (h_x, h_y) == (5, 6),
            xy_text="y^2 = (x^3-1)^3/pi^9 + (x^3-1)/pi^3",
            elliptic_check=(
                "elliptic.ordinary_with_torsion",
                "an ordinary elliptic curve over F_9 with a rational point of "
                "exact order 3 exists",
            ),
            hodge_text="5 for the (sigma, sigma, tau_P) quotient and 6 for {twisted}",
            skips={
                "curve.chart2": (
                    "second affine chart in closed form",
                    "no closed-form second chart at p = 3; smoothness already "
                    "covers the point at infinity",
                ),
                "hodge.witness": (
                    "explicit invariant 3-form in closed form",
                    "the closed-form witness x1 dx1/y1 ^ x2^((p-3)/2) dx2/y2 ^ "
                    "omega needs p >= 5; at p = 3 the twisted exponent is {twist}",
                ),
            },
        )
    return Construction(
        p,
        residue_field=FiniteField(p),
        twist=4,
        engine=functools.partial(PiSpec.for_prime, p),
        point_count_ok=lambda n: n == p,
        hodge_ok=lambda h_x, h_y: h_x == 0 and h_y >= 1,
        xy_text="pi^p y^2 = x^p - 1",
        elliptic_check=(
            "elliptic.trace_one",
            f"an ordinary elliptic curve over F_{p} with exactly {p} rational "
            "points exists (Weil polynomial x^2 - x + p), so its group is Z/p",
        ),
        hodge_text="none for the (sigma, sigma, tau_P) quotient, at least one "
        "for {twisted}",
        skips={},
    )


def default_spec(p: int) -> PiSpec:
    """The arithmetic engine for prime p: n = 12 when p = 3, n = p otherwise.
    The library reads ``construction(p).spec``; this name stays because
    ``perfbench/worker.py`` calls it to build the family."""
    return construction(p).spec


class DiscrepancyRow(NamedTuple):
    p: int
    h_x: int
    h_y: int
    gap: int


def discrepancy_series(p_max: int) -> list[DiscrepancyRow]:
    """Rows (p, hX, hY, hY - hX) for every prime 5 <= p <= p_max, each hX
    checked to vanish and each hY cross-checked against the interval count."""
    if p_max < 5:
        raise ValueError("p_max must be at least 5")
    rows = []
    for p in primes_upto(p_max):
        if p < 5:
            continue
        h_x, h_y = construction(p).hodge
        if h_x != 0:
            raise AssertionError(f"invariant 3-form for the untwisted action at p = {p}")
        if h_y != hy_interval_count(p):
            raise AssertionError(f"enumeration and interval count disagree at p = {p}")
        rows.append(DiscrepancyRow(p, h_x, h_y, h_y - h_x))
    return rows


def hyperelliptic_family(p: int, spec: PiSpec) -> HyperellipticModel:
    """The family v^2 = f(u) over the ramified base: f = g, or g^3 + g when
    the engine's residue field F_q is larger than F_p (q = 9, p = 3), with
    g = sum binom(p,i)/pi^i u^(p-i) and every coefficient of g verified
    integral.  An engine with the wrong residue field builds the wrong
    family, and the report's genus and reduction checks fail on it."""
    if spec.p != p:
        raise ValueError(f"engine is local at {spec.p}, not {p}")
    k = spec.field
    coeffs = [k.zero] * (p + 1)
    for i in range(p):
        c = spec.over_pi(math.comb(p, i), i)
        if not c.is_integral:
            raise ArithmeticError(f"binom({p},{i})/pi^{i} is not integral")
        coeffs[p - i] = c
    g = Polynomial(k, coeffs)
    return HyperellipticModel(g**p + g if spec.residue_field.q > p else g)


def genus(model: HyperellipticModel) -> int:
    """floor((deg f - 1)/2); demands squarefree f."""
    if not model.squarefree:
        raise ValueError("genus of a singular model")
    return (model.f.degree - 1) // 2


def reduce_model(model: HyperellipticModel, spec: PiSpec) -> HyperellipticModel:
    """Coefficient-wise reduction mod pi (every coefficient must be integral)."""
    fq = spec.residue_field
    return HyperellipticModel(Polynomial(fq, [spec.residue(c) for c in model.f.coeffs]))


def xy_model(p: int, spec: PiSpec) -> HyperellipticModel:
    """The generic fibre in xy-coordinates: y^2 = h, or h^3 + h when q = 9,
    with h = (x^p - 1)/pi^p."""
    if spec.p != p:
        raise ValueError(f"engine is local at {spec.p}, not {p}")
    k = spec.field
    scale = spec.over_pi(1, p)
    coeffs = [k.zero] * (p + 1)
    coeffs[0] = -scale
    coeffs[p] = scale
    h = Polynomial(k, coeffs)
    return HyperellipticModel(h**p + h if spec.residue_field.q > p else h)


def substitution_check(p: int, spec: PiSpec, model: HyperellipticModel) -> bool:
    """Does x = pi*u + 1 pull the xy-model back to v^2 = f(u)?  Exact
    polynomial identity over the engine's field: h(pi*u + 1) == g(u) for
    h = (x^p - 1)/pi^p, hence also h^3 + h == g^3 + g at p = 3."""
    k = spec.field
    x_of_u = Polynomial(k, [k.one, spec.pi])
    return xy_model(p, spec).f.compose(x_of_u) == model.f


def second_chart_closed_form(p: int, spec: PiSpec) -> Polynomial:
    """sum_{i=0}^{p-1} binom(p,i)/pi^i * s^(i+1), the other affine chart: the
    closed form that :func:`chart_transition_check` holds the flipped f against."""
    k = spec.field
    coeffs = [k.zero] * (p + 1)
    for i in range(p):
        coeffs[i + 1] = spec.over_pi(math.comb(p, i), i)
    return Polynomial(k, coeffs)


def second_chart_polynomial(model: HyperellipticModel) -> Polynomial:
    """s^(d+1) * f(1/s), the other chart under u = 1/s, v = t/s^((d+1)/2) for
    f of odd degree d: f reversed, one degree up."""
    f = model.f
    return Polynomial(f.ring, [f.ring.zero, *reversed(f.coeffs)])


def chart_transition_check(p: int, spec: PiSpec, model: HyperellipticModel) -> bool:
    """u = 1/s, v = t/s^((p+1)/2) must carry v^2 = f(u) onto the chart
    polynomial above, exactly."""
    if p < 5:
        raise ValueError("the explicit second-chart formula starts at p = 5")
    return second_chart_polynomial(model) == second_chart_closed_form(p, spec)


def is_relatively_smooth(model: HyperellipticModel, spec: PiSpec) -> bool:
    """Smoothness of v^2 = f(u) over the engine's ring of integers, on both
    charts and both fibres: odd degree, integral coefficients, f squarefree,
    and f mod pi squarefree."""
    f = model.f
    if f.degree < 1 or f.degree % 2 == 0:
        return False
    if not all(c.is_integral for c in f.coeffs):
        return False
    return model.squarefree and reduce_model(model, spec).squarefree


# ---------------------------------------------------------------------------
# curve maps


def identity_map(ring) -> AffineCurveMap:
    return AffineCurveMap(ring.one, ring.zero, ring.one)


def map_compose(outer: AffineCurveMap, inner: AffineCurveMap) -> AffineCurveMap:
    """outer after inner."""
    return AffineCurveMap(
        outer.alpha * inner.alpha,
        outer.alpha * inner.beta + outer.beta,
        outer.gamma * inner.gamma,
    )


def map_inverse(m: AffineCurveMap) -> AffineCurveMap:
    ai = m.alpha.inv()
    return AffineCurveMap(ai, -(ai * m.beta), m.gamma.inv())


def map_power(m: AffineCurveMap, k: int) -> AffineCurveMap:
    """m^k, k >= 0, by :func:`~hodgegap.algebra.power` under composition."""
    return power(m, k, map_compose, identity_map(m.ring))


def has_prime_order(m: AffineCurveMap, p: int) -> bool:
    """Exact order p, for p prime: m is not the identity and m^p is."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return not m.is_identity() and map_power(m, p).is_identity()


def map_order(m: AffineCurveMap, bound: int = 512) -> int:
    """Order by iterated composition up to ``bound``: the tests' oracle,
    independent of :func:`map_power`.  Reports use :func:`has_prime_order`."""
    acc = m
    for k in range(1, bound + 1):
        if acc.is_identity():
            return k
        acc = map_compose(m, acc)
    raise RuntimeError(f"order exceeds bound {bound}")


def map_preserves_curve(model: HyperellipticModel, m: AffineCurveMap) -> bool:
    """gamma^2 * f(u) == f(alpha*u + beta), the condition for (u,v) ->
    (alpha*u+beta, gamma*v) to be an automorphism of v^2 = f(u)."""
    f = model.f
    ring = f.ring
    moved = f.compose(Polynomial(ring, [m.beta, m.alpha]))
    return f.scale(m.gamma * m.gamma) == moved


def conjugacy_check(
    tau: AffineCurveMap, sigma: AffineCurveMap, k: int
) -> bool:
    """tau o sigma o tau^{-1} == sigma^k, as exact affine maps."""
    lhs = map_compose(tau, map_compose(sigma, map_inverse(tau)))
    return lhs == map_power(sigma, k)


def x_multiplier(m: AffineCurveMap, spec: PiSpec) -> int:
    """The a with m = (x -> zeta_p^a x, y -> y) in the generic fibre's
    coordinate x = pi*u + 1, where zeta_p = pi + 1: in x the map
    u -> alpha*u + beta is x -> alpha*x + (1 - alpha + pi*beta), so m is of
    that shape when this translation is 0, gamma = 1 and alpha is a power of
    zeta_p.  The 1-form x^(k-1) dx/y then has weight a*k mod p.  Raises
    ValueError for a map of any other shape."""
    if m.gamma != 1 or 1 - m.alpha + spec.pi * m.beta:
        raise ValueError("the map is not x -> zeta_p^a x, y -> y in x = pi*u + 1")
    zeta, power = spec.pi + 1, spec.field.one
    for a in range(spec.p):
        if power == m.alpha:
            return a
        power *= zeta
    raise ValueError(f"{m.alpha} is not a power of zeta_{spec.p}")


def affine_fixed_points(m: AffineCurveMap, model: HyperellipticModel) -> list[tuple]:
    """All affine points of v^2 = f(u) fixed by the map, u-major: each u reads
    the roots of f(u) from :func:`square_roots`.  Maps of this shape always
    fix the single point at infinity, so it is not listed."""
    fq = m.ring
    if not isinstance(fq, FiniteField):
        raise ValueError("fixed-point search needs a finite coefficient field")
    roots = square_roots(fq)
    return [(u, v) for u in fq for v in roots.get(model.f(u), ()) if m.apply(u, v) == (u, v)]
