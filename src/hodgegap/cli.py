"""Command-line front end: run every identity check for one prime and emit a
pass/fail report (text or JSON), tabulate the h^{3,0} discrepancy growth, or
print the exact curve coefficients."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, astuple, dataclass, field
from datetime import datetime, timezone
from typing import Optional

from . import __version__
from .algebra import is_prime
from .curves import (
    Construction,
    affine_fixed_points,
    chart_transition_check,
    conjugacy_check,
    construction,
    genus,
    has_prime_order,
    hyperelliptic_family,
    is_relatively_smooth,
    map_preserves_curve,
    second_chart_polynomial,
    substitution_check,
    x_multiplier,
)
from .elliptic import count_points, translation_is_fixed_point_free
from .invariants import (
    discrepancy_series,
    form_weights,
    least_squares_slope,
    witness_form_weight,
)

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


@dataclass
class CheckResult:
    id: str
    statement: str
    status: str
    witness: object = None


@dataclass
class VerificationReport:
    p: int
    checks: list[CheckResult] = field(default_factory=list)
    summary: Optional[dict] = None

    def add(self, check: CheckResult) -> None:
        """Append a check; ids are unique within a report."""
        if any(c.id == check.id for c in self.checks):
            raise ValueError(f"duplicate check id {check.id}")
        self.checks.append(check)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self) -> dict:
        """The JSON schema: the dataclass fields, in declaration order."""
        return asdict(self)


def build_report(c: Construction) -> VerificationReport:
    """Run the full check sequence on one construction.  Every per-prime datum
    and shared object comes from it; its objects are built lazily and once,
    and each is read inside the checks that use it, so a failure to build one
    fails only those checks."""
    p = c.p
    report = VerificationReport(p)

    def record(cid: str, statement: str, fn) -> None:
        if cid in c.skips:
            statement, reason = c.skips[cid]
            report.add(CheckResult(cid, statement, SKIPPED, reason))
            return
        try:
            ok, witness = fn()
            status = PASS if ok else FAIL
        except Exception as exc:  # a failing check must not kill the report
            status, witness = FAIL, {"error": type(exc).__name__, "detail": str(exc)}
        report.add(CheckResult(cid, statement, status, witness))

    g = c.genus

    def _genus():
        found = genus(c.family)
        return found == g, found

    record(
        "curve.integrality",
        "every coefficient of v^2 = f(u) lies in the ring of integers",
        lambda: (
            all(x.is_integral for x in c.family.f.coeffs),
            f"{len(c.family.f.coeffs)} power-basis coefficients, denominator 1",
        ),
    )
    record("curve.genus", f"the family has genus {g}", _genus)
    record(
        "curve.smoothness",
        "f is squarefree on both fibres and of odd degree, so the model is "
        "smooth on both charts",
        lambda: (is_relatively_smooth(c.family, c.spec), None),
    )

    record(
        "curve.reduction",
        f"reduction mod pi is v^2 = {c.target.render()}",
        lambda: (c.reduced.f == c.target, c.reduced.f.render()),
    )
    record(
        "curve.substitution",
        f"x = pi*u + 1, y = v turns {c.xy_text} into v^2 = f(u)",
        lambda: (substitution_check(p, c.spec, c.family), "exact polynomial identity"),
    )
    record(
        "curve.chart2",
        "u = 1/s, v = t/s^((p+1)/2) lands on the second chart "
        "v^2 = sum binom(p,i)/pi^i s^(i+1)",
        lambda: (chart_transition_check(p, c.spec, c.family), "exact polynomial identity"),
    )

    record(
        "action.sigma_preserves",
        "sigma(u) = zeta*u + 1, sigma(v) = v is an automorphism of the family",
        lambda: (map_preserves_curve(c.family, c.sigma), None),
    )

    def _sigma_reduction():
        s, s0 = c.sigma, c.sigma0
        reduced = tuple(map(c.spec.residue, (s.alpha, s.beta, s.gamma)))
        ok = reduced == (s0.alpha, s0.beta, s0.gamma) and map_preserves_curve(c.reduced, s0)
        return ok, None

    record(
        "action.sigma_reduction",
        "on the special fibre sigma becomes u -> u + 1, v -> v, and it "
        "preserves the reduced curve",
        _sigma_reduction,
    )

    def _sigma_order():
        ok = has_prime_order(c.sigma, p)
        return ok, p if ok else "sigma is the identity or sigma^p is not"

    record("action.sigma_order", f"sigma has exact order {p}", _sigma_order)

    try:
        tau = f"({c.tau.alpha}u, {c.tau.gamma}v)"
    except (ArithmeticError, ValueError):  # the check below records why
        tau = f"({c.twist}u, sqrt({c.twist})v)"
    record(
        f"conj.tau_sigma{c.twist}",
        f"tau = {tau} is an automorphism of the special fibre conjugating "
        f"sigma to sigma^{c.twist}",
        lambda: (
            map_preserves_curve(c.reduced, c.tau)
            and conjugacy_check(c.tau, c.sigma0, c.twist),
            None,
        ),
    )
    record(
        "action.sigma_fixed_points",
        "sigma fixes no affine point of the special fibre, only the point "
        "at infinity",
        lambda: (
            affine_fixed_points(c.sigma0, c.reduced) == [],
            "fixed locus = {infinity}",
        ),
    )

    def _point_count():
        curve = c.elliptic[0]
        n = count_points(curve)
        return c.point_count_ok(curve, n), f"{curve!r} with {n} points"

    record(*c.elliptic_check, _point_count)
    record(
        "elliptic.torsion_point",
        f"the curve carries a rational point of exact order {p}",
        lambda: (not c.elliptic[1].is_infinity, repr(c.elliptic[1])),
    )
    record(
        "elliptic.translation_free",
        "translation by that point fixes no rational point, so the diagonal "
        "action on C x C x E is fixed point free",
        lambda: (translation_is_fixed_point_free(*c.elliptic), None),
    )

    def _weights():
        found = form_weights(p, x_multiplier(c.sigma, c.spec), g)
        return found == c.weights, list(found.weights)

    record(
        "forms.weights",
        "sigma acts on the holomorphic 1-forms x^(k-1)dx/y with character "
        f"exponents {list(c.weights.weights)}",
        _weights,
    )

    def _hodge_ok():
        h_x, h_y = c.hodge
        pairs = [list(t) for t in c.hodge_pairs[1]]
        return c.hodge_ok(h_x, h_y), {"hX": h_x, "hY": h_y, "hY_pairs": pairs}

    twisted = f"(sigma, sigma^{c.twist}, tau_P)"  # Y's generator

    def _witness():
        t = c.twist
        weight = witness_form_weight(p, c.weights, t)
        total = f"{(2 + t * (p - 1) // 2) // p}p = 0" if weight == 0 else weight
        return weight == 0, f"weights 2 + {t}*(p-1)/2 = {total} mod p"

    record(
        "hodge.h30.pair",
        "invariant 3-forms: " + c.hodge_text.format(twisted=twisted),
        _hodge_ok,
    )
    record(
        "hodge.witness",
        f"x1 dx1/y1 ^ x2^((p-3)/2) dx2/y2 ^ omega is invariant under {twisted}",
        _witness,
    )

    def _h1() -> dict:
        return dict(zip(("h1Special", "h1Generic", "torsionDim"), astuple(c.h1)))

    record(
        "derham.h1",
        "first de Rham numbers are 4 (special fibre) and 2 (generic fibre), "
        "so the middle crystalline cohomology has 2-dimensional p-torsion",
        lambda: (astuple(c.h1) == (4, 2, 2), _h1()),
    )

    if not report.failed():
        h_x, h_y = c.hodge
        report.summary = {"hX": h_x, "hY": h_y, **_h1()}
    return report


def render_text(report: VerificationReport, conductor: int) -> str:
    lines = [f"verification for p = {report.p} (engine: Q(zeta_{conductor}))"]
    for c in report.checks:
        lines.append(f"  [{c.status:<7}] {c.id:<28} {c.statement}")
        if c.witness is not None:
            lines.append(f"            {'':<28} witness: {c.witness}")
    if report.summary is not None:
        lines.append("summary: " + " ".join(f"{k}={v}" for k, v in report.summary.items()))
    n_fail = len(report.failed())
    n_skip = sum(1 for c in report.checks if c.status == SKIPPED)
    n_pass = len(report.checks) - n_fail - n_skip
    verdict = "PASS" if n_fail == 0 else "FAIL"
    lines.append(
        f"result: {verdict} ({len(report.checks)} checks: {n_pass} pass, "
        f"{n_fail} fail, {n_skip} skipped)"
    )
    return "\n".join(lines)


def _banner(out) -> None:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    print(f"# hodgegap {__version__} ({stamp})", file=out)


def cmd_verify(args, out) -> int:
    if not args.no_banner:
        _banner(out)
    c = construction(args.p)
    report = build_report(c)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(render_text(report, c.spec.n), file=out)
    return 0 if not report.failed() else 1


def cmd_table(args, out) -> int:
    if not args.no_banner:
        _banner(out)
    rows = discrepancy_series(args.max)
    slope = least_squares_slope([(r.p, r.h_y) for r in rows])
    if args.format == "json":
        payload = {
            "rows": [
                {"p": r.p, "hX": r.h_x, "hY": r.h_y, "gap": r.gap} for r in rows
            ],
            "slope": round(slope, 6),
        }
        print(json.dumps(payload, indent=2), file=out)
    else:
        print("p\thX\thY\tgap", file=out)
        for r in rows:
            print(f"{r.p}\t{r.h_x}\t{r.h_y}\t{r.gap}", file=out)
        print(f"# slope = {slope:.6f}", file=out)
    return 0


def cmd_curve(args, out) -> int:
    p = args.p
    if not args.no_banner:
        _banner(out)
    spec = construction(p).spec
    family = hyperelliptic_family(p, spec)
    if args.chart == 1:
        poly, var = family.f, "u"
        head = "v^2 ="
    else:
        poly, var = second_chart_polynomial(family), "s"
        head = "t^2 ="
    print(
        f"chart {args.chart} of the p = {p} family over Z[zeta_{spec.n}] "
        f"(z = zeta_{spec.n}, pi = {spec.pi})",
        file=out,
    )
    print(f"{head} {poly.render(var)}", file=out)
    print("coefficients (degree: element):", file=out)
    for k in range(poly.degree, -1, -1):
        print(f"  {var}^{k}: {poly.coeff(k)}", file=out)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgegap",
        description="exact verification of the two-liftings Hodge-number gap",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run every check for one odd prime")
    pv.add_argument("--p", type=int, required=True, help="odd prime")
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--no-banner", action="store_true")

    pt = sub.add_parser("table", help="tabulate hX, hY and their gap by prime")
    pt.add_argument("--max", type=int, required=True, help="largest prime included")
    pt.add_argument("--format", choices=["tsv", "json"], default="tsv")
    pt.add_argument("--no-banner", action="store_true")

    pc = sub.add_parser("curve", help="print exact curve coefficients")
    pc.add_argument("--p", type=int, required=True, help="odd prime")
    pc.add_argument("--chart", type=int, choices=[1, 2], default=1)
    pc.add_argument("--no-banner", action="store_true")

    args = parser.parse_args(argv)
    out = sys.stdout
    if args.command == "table" and args.max < 7:
        print(
            "invalid input: --max must be at least 7 (the slope needs two primes)",
            file=sys.stderr,
        )
        return 2
    if args.command != "table" and (args.p < 3 or not is_prime(args.p)):
        print(
            "p = 2 is not supported: the construction needs odd characteristic "
            "(a characteristic-2 analogue over Suzuki-type curves is an open "
            "problem)" if args.p == 2 else f"invalid input: {args.p} is not an odd prime",
            file=sys.stderr,
        )
        return 2
    if args.command == "verify":
        return cmd_verify(args, out)
    if args.command == "table":
        return cmd_table(args, out)
    return cmd_curve(args, out)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # the reader closed the pipe (``| head``, which needs no message) or
        # the write failed (a full disk): point stdout at devnull so the flush
        # at interpreter exit cannot raise again, and exit non-zero
        if not isinstance(exc, BrokenPipeError):
            print(f"hodgegap: cannot write output: {exc.strerror}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
