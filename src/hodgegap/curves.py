"""The ramified hyperelliptic family and its symmetries.

For an odd prime p >= 5 the family over Z_p[zeta_p] is

    v^2 = f(u),   f(u) = sum_{i=0}^{p-1} binom(p,i)/pi^i * u^(p-i),

with uniformizer pi = zeta_p - 1; its reduction mod pi is v^2 = u^p - u, and
after the substitution x = pi*u + 1, y = v the generic fibre becomes
pi^p y^2 = x^p - 1.  For p = 3 the same sum g, taken over Z_3[omega, i]
(inside Q(zeta_12), pi = omega - 1), is g = u^3 + (omega^2-1)u^2 - omega^2 u,
and the degree-9 family is v^2 = g^3 + g, reducing to v^2 = u^9 - u.
:func:`construction` is the root of the per-prime data and the one place
that tells p = 3 apart, in data only.  Its :class:`Construction` holds the
residue field F_q (F_p, or F_9 = F_3[i] at p = 3) and the image of zeta_n
in it (1, or -i), from which its ``spec`` builds the engine by one formula,
so that every object of a report over F_q shares one field object; the twist
exponent and one point-count test per prime, and it builds and keeps the
objects a report checks: the engine, the family and its reduction, the xy
model and the verdict that it pulls back to the family, the reduction
target u^q - u, sigma on both fibres, tau, the elliptic factor
(the first curve over F_q that passes the test), the form weights, the
invariant pairs and the h1 report.  Each call makes a fresh construction,
freed with its caller's last reference.  The functions below take the data
they use as arguments, with no defaults, and never look the construction up
again: the family builders read q off the engine they are given, so a
changed construction reaches every check.  Only :func:`discrepancy_series`,
one construction per row, and ``default_spec`` call :func:`construction`.
Every reduction into a finite field goes through ``cyclotomic.residue_map``;
this module never reads the coordinates of a cyclotomic element.

Curve automorphisms are restricted to the affine shape
(u, v) -> (alpha*u + beta, gamma*v), which covers the order-p action
sigma(u) = zeta*u + 1, sigma(v) = v and the conjugating maps used on the
special fibre.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Mapping, NamedTuple, Optional

from .algebra import (
    FiniteField,
    FqElement,
    Polynomial,
    _monic_remainder,
    discriminant_squarefree,
    element_of_order,
    fq_sqrt,
    is_prime,
    poly_gcd,
    power,
    primes_upto,
)
from .cyclotomic import CyclotomicField, PiSpec, SplitPrime, cyclotomic_field, residue_map
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
        """Whether f has no repeated root: the verdict of
        :func:`modular_squarefree`, and the exact gcd of f and f' only when it
        is None.  No caller rebinds f, so this verdict is reached once per
        model."""
        verdict = modular_squarefree(self.f)
        return discriminant_squarefree(self.f) if verdict is None else verdict


def modular_squarefree(f: Polynomial) -> Optional[bool]:
    """Whether f over Q(zeta_n) is squarefree, shown modulo two primes that
    split completely, or None for "not shown".

    True: at l1, the least prime = 1 (mod n) above 2 deg f, with zeta -> w
    of exact order n in F_l (:func:`~hodgegap.cyclotomic.residue_map`), f
    keeps its degree and is squarefree.  Reduction then commutes with the
    resultant of f and f' (l > deg f), which a repeated factor over
    Q(zeta_n) makes 0 (von zur Gathen & Gerhard, *Modern Computer Algebra*,
    ch. 6).  Or, at l2 below, in every embedding, f keeps its degree and its
    gcd with f' is constant: the same argument at l2, whatever l1 showed (a
    repeated root, a lost degree or a denominator).

    False: a modular gcd proved by trial division (Langemyr & McCallum,
    *J. Symb. Comput.* 8, 1989; Encarnacion, *J. Symb. Comput.* 20, 1995).
    At l2, the least prime = 1 (mod 2n) above 2^20, f and f' reduce in all
    phi(n) embeddings at once (:class:`~hodgegap.cyclotomic.SplitPrime`),
    and their :func:`poly_gcd` lifts back by interpolation and rational
    reconstruction (ibid., 5.10) to a nonconstant h that leaves remainder 0
    on f and on f'.

    None otherwise: f is constant or over another ring, l divides a
    denominator, a leading coefficient reduces to 0 (at l2, in some
    embeddings only), or at l2 the gcd is out of reconstruction's reach,
    leaves a remainder, or is constant after f lost its degree there.
    """
    k = f.ring
    if not isinstance(k, CyclotomicField) or f.degree < 1:
        return None
    ell = _least_prime(k.n, 2 * f.degree)
    fl = FiniteField(ell)
    residue = residue_map(k, fl, fl.from_int(element_of_order(k.n, ell)))
    try:
        reduced = Polynomial(fl, map(residue, f.coeffs))
        if reduced.degree == f.degree and discriminant_squarefree(reduced):
            return True
    except ValueError:  # l1 divides a denominator
        pass
    ring = SplitPrime(k, _least_prime(2 * k.n, 2**20))
    try:
        reduced = Polynomial(ring, f.coeffs)
        h = Polynomial(k, [ring.lift(c) for c in poly_gcd(reduced, reduced.derivative()).coeffs])
    except (ValueError, ZeroDivisionError):
        return None
    if h.degree < 1:
        return True if reduced.degree == f.degree else None
    if _monic_remainder(f, h).coeffs or _monic_remainder(f.derivative(), h).coeffs:
        return None
    return False


def _least_prime(step: int, bound: int) -> int:
    """The least prime l > bound with l = 1 (mod step)."""
    ell = bound + 1 + -bound % step
    while not is_prime(ell):
        ell += step
    return ell


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
    """The data that differ at p = 3 (F_9 and the image -i of zeta_12 in it,
    hence degree 9 over Q(zeta_12); its own twist exponent; an elliptic
    factor over F_9), and the objects a report builds from them: each built
    on first use and kept, so a report builds it once and a failure to build
    it fails only the checks that read it.  Equality is identity:
    :func:`construction` makes a fresh one per call."""

    def __init__(
        self,
        residue_field: FiniteField,  # the special fibre is v^2 = u^q - u over F_q
        twist: int,  # Y is the quotient by (sigma, sigma^twist, tau_P)
        zeta_image: FqElement,  # zeta_n mod pi, in F_q: it fixes the engine
        point_count_ok: Callable[[int], bool],  # on #E(F_q), picks the elliptic factor
        hodge_ok: Callable[[int, int], bool],
        xy_text: str,
        elliptic_check: tuple[str, str],  # (id, statement)
        hodge_text: str,  # the claim on hX and hY; {twisted} is Y's generator
        skips: Mapping[str, tuple[str, str]],  # check id -> (statement, reason with {twist})
    ):
        self.residue_field = residue_field
        self.twist = twist
        self.zeta_image = zeta_image
        self.point_count_ok = point_count_ok
        self.hodge_ok = hodge_ok
        self.xy_text = xy_text
        self.elliptic_check = elliptic_check
        self.hodge_text = hodge_text
        self.skips = skips

    @property
    def p(self) -> int:
        return self.residue_field.p

    @property
    def q(self) -> int:
        return self.residue_field.q

    @property
    def genus(self) -> int:
        return (self.q - 1) // 2

    @functools.cached_property
    def spec(self) -> PiSpec:
        """The engine, the one place that builds it: zeta_n -> zeta_image of
        order m in F_q, so n = p*m, and pi = zeta_n^m - 1 = zeta_p - 1."""
        m = next(m for m in range(1, self.q) if self.zeta_image**m == 1)
        k = cyclotomic_field(self.p * m)
        return PiSpec(k, k.zeta**m - 1, self.residue_field, self.zeta_image)

    @functools.cached_property
    def family(self) -> HyperellipticModel:
        return hyperelliptic_family(self.p, self.spec)

    @functools.cached_property
    def reduced(self) -> HyperellipticModel:
        return reduce_model(self.family, self.spec)

    @functools.cached_property
    def xy(self) -> HyperellipticModel:
        return xy_model(self.p, self.spec)

    @functools.cached_property
    def substitution(self) -> bool:
        """Whether x = pi*u + 1 pulls the xy model back to the family, the
        verdict of ``curve.substitution``; ``action.sigma_preserves`` checks
        sigma on the xy model only when it is True."""
        return _pull_back(self.xy, self.spec) == self.family.f

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
        roots = fq_sqrt(t)
        if not roots:
            raise ArithmeticError(f"{t} must be a square in F_{fq.q}")
        return AffineCurveMap(t, fq.zero, roots[0])

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
    """The construction at the odd prime p; nothing costly is built here.
    The engine is data: F_p with zeta_p -> 1, or F_9 = F_3[i] with
    zeta_12 -> -i at p = 3, which ``Construction.spec`` turns into one."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime, got {p}")
    if p == 3:
        f9 = FiniteField(3, 2)  # F_9 = F_3[i]
        return Construction(
            residue_field=f9,
            twist=2,
            # Z_3[omega, i] inside Q(zeta_12), omega = zeta^4 = 1 mod pi, so
            # zeta = omega * i^{-1} reduces to -i: n = 12, pi = omega - 1
            zeta_image=-f9.gen(),
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
    fp = FiniteField(p)
    return Construction(
        residue_field=fp,
        twist=4,
        zeta_image=fp.one,  # ``PiSpec.for_prime(p)``'s engine: n = p, pi = zeta_p - 1
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


def _pull_back(xy: HyperellipticModel, spec: PiSpec) -> Polynomial:
    """h(pi*u + 1) for the xy model y^2 = h(x), over the engine's field."""
    k = spec.field
    return xy.f.compose(Polynomial(k, [k.one, spec.pi]))


def substitution_check(p: int, spec: PiSpec, model: HyperellipticModel) -> bool:
    """Does x = pi*u + 1 pull the xy-model back to v^2 = f(u)?  Exact
    polynomial identity over the engine's field: h(pi*u + 1) == g(u) for
    h = (x^p - 1)/pi^p, hence also h^3 + h == g^3 + g at p = 3.  The report
    reads the same identity as ``Construction.substitution``; only
    ``perfbench/worker.py``'s reject ``shift`` items and the tests call
    this."""
    return _pull_back(xy_model(p, spec), spec) == model.f


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


def smoothness_failure(model: HyperellipticModel, reduced: HyperellipticModel) -> Optional[str]:
    """The first condition for v^2 = f(u) to be smooth over the engine's ring
    of integers, on both charts and both fibres, that fails, or None, given
    its reduction mod pi: odd degree, integral coefficients, f squarefree,
    f mod pi of the same degree (else the second chart is singular at s = 0
    on the special fibre), and f mod pi squarefree."""
    f = model.f
    if f.degree < 1 or f.degree % 2 == 0:
        return f"f has degree {f.degree}, not odd and positive"
    for k, c in enumerate(f.coeffs):
        if not c.is_integral:
            return f"the u^{k} coefficient is not integral"
    if not model.squarefree:
        return "f has a repeated factor on the generic fibre"
    if reduced.f.degree != f.degree:
        return (f"f mod pi has degree {reduced.f.degree}, not {f.degree}: the second "
                "chart is singular at s = 0 on the special fibre")
    if not reduced.squarefree:
        return "f mod pi has a repeated factor on the special fibre"
    return None


def is_relatively_smooth(model: HyperellipticModel, spec: PiSpec) -> bool:
    """Whether v^2 = f(u) is smooth: f reduces mod pi and
    :func:`smoothness_failure` finds no failed condition.  The report reads
    the condition on its construction's reduction; the benchmark's square
    items and the tests call this."""
    try:
        reduced = reduce_model(model, spec)
    except ValueError:  # p divides a denominator
        return False
    return smoothness_failure(model, reduced) is None


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
    (alpha*u+beta, gamma*v) to be an automorphism of v^2 = f(u).

    Composing with A(u) = pi*u + 1 is a ring automorphism of K[u], so when
    f = h(A) for the xy model h (``Construction.substitution``), m preserves
    v^2 = f(u) exactly when :func:`x_map` of m preserves y^2 = h(x).  The
    report checks sigma that way, where x_map(sigma) is x -> zeta*x and h is
    sparse, and checks f itself when the substitution does not hold."""
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


def x_map(m: AffineCurveMap, spec: PiSpec) -> AffineCurveMap:
    """m in the generic fibre's coordinate x = pi*u + 1: u -> alpha*u + beta
    is x -> alpha*x + (1 - alpha + pi*beta), and v = y keeps gamma."""
    return AffineCurveMap(m.alpha, 1 - m.alpha + spec.pi * m.beta, m.gamma)


def x_multiplier(m: AffineCurveMap, spec: PiSpec) -> int:
    """The a with m = (x -> zeta_p^a x, y -> y) in the generic fibre's
    coordinate x = pi*u + 1, where zeta_p = pi + 1: m is of that shape when
    the translation of :func:`x_map` is 0, gamma = 1 and alpha is a power of
    zeta_p.  The 1-form x^(k-1) dx/y then has weight a*k mod p.  Raises
    ValueError for a map of any other shape."""
    mx = x_map(m, spec)
    if mx.gamma != 1 or mx.beta:
        raise ValueError("the map is not x -> zeta_p^a x, y -> y in x = pi*u + 1")
    zeta, power = spec.pi + 1, spec.field.one
    for a in range(spec.p):
        if power == m.alpha:
            return a
        power *= zeta
    raise ValueError(f"{m.alpha} is not a power of zeta_{spec.p}")


def affine_fixed_points(m: AffineCurveMap, model: HyperellipticModel) -> list[tuple]:
    """All affine points of v^2 = f(u) fixed by the map, u-major, solved
    rather than scanned: alpha*u + beta = u leaves the one u = beta/(1 - alpha)
    when alpha != 1, no u when alpha = 1 and beta != 0, and every u for the
    identity on u; each u left reads the roots of f(u) from :func:`fq_sqrt`
    and keeps the v with gamma*v = v (v = 0 unless gamma = 1).  So f is
    evaluated once, or not at all, unless the map fixes u.  A passing
    report's map moves every u; the identity on u is the tests'
    perturbation ``sigma0-identity``.  The scan of every (u, v) is the
    tests' oracle.  Maps of this shape always fix the single point at
    infinity, so it is not listed."""
    fq = m.ring
    if not isinstance(fq, FiniteField):
        raise ValueError("fixed-point search needs a finite coefficient field")
    if model.f.ring != fq:
        raise ValueError(f"the map is over {fq}, the curve over {model.f.ring}")
    if m.alpha != 1:
        us = [m.beta * (1 - m.alpha).inv()]
    elif m.beta:
        return []
    else:
        us = fq
    return [(u, v) for u in us for v in fq_sqrt(model.f(u)) if m.apply(u, v) == (u, v)]
