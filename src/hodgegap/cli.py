"""Command-line front end: run every identity check for one prime and emit a
pass/fail report (text or JSON), tabulate the h^{3,0} discrepancy growth, or
print the exact curve coefficients.  :data:`CHECKS` is the one list of the
report's checks: each row is written once there, and :func:`build_report`
runs the rows in order."""

from __future__ import annotations

import json
import os
import sys
import time
from typing import NamedTuple, Optional

from . import __version__
from .algebra import is_prime
from .curves import (
    Construction,
    affine_fixed_points,
    chart_transition_check,
    conjugacy_check,
    construction,
    discrepancy_series,
    genus,
    has_prime_order,
    hyperelliptic_family,  # unused: perfbench's wrapper test reads cli.hyperelliptic_family
    map_preserves_curve,
    second_chart_polynomial,
    smoothness_failure,
    x_map,
    x_multiplier,
)
from .elliptic import count_points, scalar_mul, translation_is_fixed_point_free
from .invariants import form_weights, least_squares_slope, witness_form_weight

PASS, FAIL, SKIPPED = "pass", "fail", "skipped"


class CheckResult(NamedTuple):
    id: str
    statement: str
    status: str
    witness: object = None


class VerificationReport:
    def __init__(self, p: int):
        self.p = p
        self.checks: list[CheckResult] = []
        self.summary: Optional[dict] = None

    def add(self, check: CheckResult) -> None:
        """Append a check; ids are unique within a report."""
        if any(c.id == check.id for c in self.checks):
            raise ValueError(f"duplicate check id {check.id}")
        self.checks.append(check)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if c.status == FAIL]

    def to_dict(self) -> dict:
        """The JSON schema: p, then each check's fields in declaration order,
        then the summary."""
        checks = [c._asdict() for c in self.checks]
        return {"p": self.p, "checks": checks, "summary": self.summary}


# The runs and statement parts of the CHECKS rows below that need more than a
# lambda.
def _integrality(c):
    for k, x in enumerate(c.family.f.coeffs):
        if not x.is_integral:
            return False, f"the u^{k} coefficient has denominator {x.den}"
    return True, f"{len(c.family.f.coeffs)} power-basis coefficients, denominator 1"


def _genus(c):
    found = genus(c.family)
    return found == c.genus, found


def _smoothness(c):
    failure = smoothness_failure(c.family, c.reduced)
    return failure is None, failure


def _polynomial_identity(ok: bool):
    return ok, "exact polynomial identity" if ok else None


def _sigma_preserves(c):
    # on the sparse xy model, where sigma is x -> zeta*x, once the
    # substitution has proved f = h(pi*u + 1); on f itself otherwise
    if c.substitution:
        return map_preserves_curve(c.xy, x_map(c.sigma, c.spec)), None
    return map_preserves_curve(c.family, c.sigma), None


def _sigma_reduction(c):
    s, s0 = c.sigma, c.sigma0
    reduced = tuple(map(c.spec.residue, (s.alpha, s.beta, s.gamma)))
    ok = reduced == (s0.alpha, s0.beta, s0.gamma) and map_preserves_curve(c.reduced, s0)
    return ok, None


def _tau(c) -> str:
    try:
        return f"({c.tau.alpha}u, {c.tau.gamma}v)"
    except (ArithmeticError, ValueError):  # the conj check records why
        return f"({c.twist}u, sqrt({c.twist})v)"


def _fixed_points(c):
    found = affine_fixed_points(c.sigma0, c.reduced)
    return not found, list(map(str, found)) if found else "fixed locus = {infinity}"


def _point_count(c):
    curve = c.elliptic[0]
    n = count_points(curve)
    return c.point_count_ok(n), f"{curve!r} with {n} points"


def _torsion_point(c):
    curve, pt = c.elliptic
    return not pt.is_infinity and scalar_mul(curve, c.p, pt).is_infinity, repr(pt)


def _weights(c):
    found = form_weights(c.p, x_multiplier(c.sigma, c.spec), c.genus)
    return found == c.weights, list(found.weights)


def _twisted(c) -> str:
    return f"(sigma, sigma^{c.twist}, tau_P)"  # Y's generator


def _hodge(c) -> dict:
    return dict(zip(("hX", "hY"), c.hodge))


def _witness(c):
    p, t = c.p, c.twist
    weight = witness_form_weight(c.weights, t)
    total = f"{(2 + t * (p - 1) // 2) // p}p = 0" if weight == 0 else weight
    return weight == 0, f"weights 2 + {t}*(p-1)/2 = {total} mod p"


def _h1(c) -> dict:
    return dict(zip(("h1Special", "h1Generic", "torsionDim"), c.h1))


# The one list of checks, in report order: (id, statement, run).  An id is a
# str.format template over the construction c, a statement is a function of c
# and run(c) returns (ok, witness).  A run looks names up in this module when
# it is called, so a name patched here reaches it.
CHECKS = (
    ("curve.integrality",
     lambda c: "every coefficient of v^2 = f(u) lies in the ring of integers",
     _integrality),
    ("curve.genus", lambda c: f"the family has genus {c.genus}", _genus),
    ("curve.smoothness",
     lambda c: "f is squarefree on both fibres and of odd degree, so the model is "
               "smooth on both charts",
     _smoothness),
    ("curve.reduction",
     lambda c: f"reduction mod pi is v^2 = {c.target.render()}",
     lambda c: (c.reduced.f == c.target, c.reduced.f.render())),
    ("curve.substitution",
     lambda c: f"x = pi*u + 1, y = v turns {c.xy_text} into v^2 = f(u)",
     lambda c: _polynomial_identity(c.substitution)),
    ("curve.chart2",
     lambda c: "u = 1/s, v = t/s^((p+1)/2) lands on the second chart "
               "v^2 = sum binom(p,i)/pi^i s^(i+1)",
     lambda c: _polynomial_identity(chart_transition_check(c.p, c.spec, c.family))),
    ("action.sigma_preserves",
     lambda c: "sigma(u) = zeta*u + 1, sigma(v) = v is an automorphism of the family",
     _sigma_preserves),
    ("action.sigma_reduction",
     lambda c: "on the special fibre sigma becomes u -> u + 1, v -> v, and it "
               "preserves the reduced curve",
     _sigma_reduction),
    ("action.sigma_order",
     lambda c: f"sigma has exact order {c.p}",
     lambda c: (True, c.p) if has_prime_order(c.sigma, c.p)
               else (False, "sigma is the identity or sigma^p is not")),
    ("conj.tau_sigma{c.twist}",
     lambda c: f"tau = {_tau(c)} is an automorphism of the special fibre "
               f"conjugating sigma to sigma^{c.twist}",
     lambda c: (map_preserves_curve(c.reduced, c.tau)
                and conjugacy_check(c.tau, c.sigma0, c.twist), None)),
    ("action.sigma_fixed_points",
     lambda c: "sigma fixes no affine point of the special fibre, only the point "
               "at infinity",
     _fixed_points),
    ("{c.elliptic_check[0]}", lambda c: c.elliptic_check[1], _point_count),
    ("elliptic.torsion_point",
     lambda c: f"the curve carries a rational point of exact order {c.p}",
     _torsion_point),
    ("elliptic.translation_free",
     lambda c: "translation by that point fixes no rational point, so the diagonal "
               "action on C x C x E is fixed point free",
     lambda c: (translation_is_fixed_point_free(*c.elliptic), None)),
    ("forms.weights",
     lambda c: "sigma acts on the holomorphic 1-forms x^(k-1)dx/y with character "
               f"exponents {list(c.weights.weights)}",
     _weights),
    ("hodge.h30.pair",
     lambda c: "invariant 3-forms: " + c.hodge_text.format(twisted=_twisted(c)),
     lambda c: (c.hodge_ok(*c.hodge),
                {**_hodge(c), "hY_pairs": [list(t) for t in c.hodge_pairs[1]]})),
    ("hodge.witness",
     lambda c: "x1 dx1/y1 ^ x2^((p-3)/2) dx2/y2 ^ omega is invariant under "
               + _twisted(c),
     _witness),
    ("derham.h1",
     lambda c: "first de Rham numbers are 4 (special fibre) and 2 (generic fibre), "
               "so the middle crystalline cohomology has 2-dimensional p-torsion",
     lambda c: (c.h1 == (4, 2, 2), _h1(c))),
)


def build_report(c: Construction) -> VerificationReport:
    """Run :data:`CHECKS`, the one list of checks, in order on one construction.
    Every per-prime datum and shared object comes from it; its objects are
    built lazily and once, and each is read inside the checks that use it, so
    a failure to build one fails only those checks."""
    report = VerificationReport(c.p)
    for template, statement, run in CHECKS:
        cid = template.format(c=c)
        if cid in c.skips:
            text, reason = c.skips[cid]
            report.add(CheckResult(cid, text, SKIPPED, reason.format(twist=c.twist)))
            continue
        try:
            ok, witness = run(c)
            status = PASS if ok else FAIL
        except Exception as exc:  # a failing check must not kill the report
            status, witness = FAIL, {"error": type(exc).__name__, "detail": str(exc)}
        report.add(CheckResult(cid, statement(c), status, witness))
    if not report.failed():
        report.summary = {**_hodge(c), **_h1(c)}
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
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())
    print(f"# hodgegap {__version__} ({stamp})", file=out)


def cmd_verify(args, out) -> int:
    c = construction(args["p"])
    report = build_report(c)
    if args["format"] == "json":
        print(json.dumps(report.to_dict(), indent=2), file=out)
    else:
        print(render_text(report, c.spec.n), file=out)
    return 0 if not report.failed() else 1


def cmd_table(args, out) -> int:
    rows = discrepancy_series(args["max"])
    slope = least_squares_slope([(r.p, r.h_y) for r in rows])
    if args["format"] == "json":
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
    p = args["p"]
    c = construction(p)
    if args["chart"] == 1:
        poly, var = c.family.f, "u"
        head = "v^2 ="
    else:
        poly, var = second_chart_polynomial(c.family), "s"
        head = "t^2 ="
    print(
        f"chart {args['chart']} of the p = {p} family over Z[zeta_{c.spec.n}] "
        f"(z = zeta_{c.spec.n}, pi = {c.spec.pi})",
        file=out,
    )
    print(f"{head} {poly.render(var)}", file=out)
    print("coefficients (degree: element):", file=out)
    for k in range(poly.degree, -1, -1):
        print(f"  {var}^{k}: {poly.coeff(k)}", file=out)
    return 0


REQUIRED = object()  # the default of a flag that must be given
SWITCH = (None, None, False)  # a flag that takes no value and stores True
HELP = {"-h": SWITCH, "--help": SWITCH}

# The command-line grammar: each command's help line and its flags, each flag
# as (type, choices, default), the choices checked on the converted value.
# parse_args reads a command line by it as argparse read the same parsers.
COMMANDS = {
    "verify": ("run every check for one odd prime", {
        "--p": (int, None, REQUIRED),
        "--format": (str, ("text", "json"), "text"),
        "--no-banner": SWITCH,
    }),
    "table": ("tabulate hX, hY and their gap by prime", {
        "--max": (int, None, REQUIRED),
        "--format": (str, ("tsv", "json"), "tsv"),
        "--no-banner": SWITCH,
    }),
    "curve": ("print exact curve coefficients", {
        "--p": (int, None, REQUIRED),
        "--chart": (int, (1, 2), 1),
        "--no-banner": SWITCH,
    }),
}
# The flags in scope before the command (None) and after each command.
FLAGS = {None: HELP, **{name: {**HELP, **flags} for name, (_, flags) in COMMANDS.items()}}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _usage(command: str, text: str, flags: dict) -> str:
    parts = []
    for flag, (kind, choices, default) in flags.items():
        value = "{" + ",".join(map(str, choices)) + "}" if choices else _dest(flag).upper()
        shown = flag if kind is None else f"{flag} {value}"
        parts.append(shown if default is REQUIRED else f"[{shown}]")
    return f"usage: hodgegap {command} [-h] {' '.join(parts)}\n\n{text}"


# What -h/--help prints, and what follows the message of an invalid command
# line: the usage of each command, and of the program under None.
USAGE = {name: _usage(name, *spec) for name, spec in COMMANDS.items()}
USAGE[None] = "\n".join([
    f"usage: hodgegap [-h] {{{','.join(COMMANDS)}}} ...", "",
    "exact verification of the two-liftings Hodge-number gap", "",
    *(f"  {name:<7} {text}" for name, (text, _) in COMMANDS.items()),
])


class UsageExit(Exception):
    """A command line that runs no command.  Its args are the command in
    scope (None before one) and what is wrong with the line, or None when -h
    or --help asked for the usage."""


def _classify(token: str, command: Optional[str]) -> tuple:
    """How argparse reads ``token`` among the flags of ``command``: (flag, the
    value after "=" or None) when it names a flag, in full or by a prefix of
    that flag alone; ("", None) when it is another option; (None, None) when
    it is a value: no leading dash, or "-", a negative number (-5, -.5, -1.5)
    or a string with a space.  Raises :class:`UsageExit` on a prefix of two
    flags."""
    flags = FLAGS[command]
    name, eq, value = token.partition("=")
    hits = [token] if token in flags else [name] if eq and name in flags else [
        f for f in flags if name.startswith("--") and f.startswith(name)]
    if len(hits) > 1:
        raise UsageExit(command, f"ambiguous option {name} ({', '.join(hits)})")
    if hits:
        return hits[0], value if eq else None
    negative = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    option = token[:1] == "-" and token != "-" and not negative and " " not in token
    return ("", None) if option else (None, None)


def parse_args(argv) -> dict:
    """The fields of ``argv`` by :data:`COMMANDS`, as argparse read it:
    ``{"command": name, dest: value, ...}``, one dest for each flag of the
    command (its name without the dashes, "-" as "_").  A flag's value follows
    it, as the next token or after "="; of repeated flags the last wins.  An
    unknown option, a value that no flag takes and a missing required flag are
    reported once the parse is over, so a later -h or --help (or a prefix of
    it) still prints the usage; so is "--", after which argparse reads every
    token as a value.  Raises :class:`UsageExit`."""
    argv = list(argv)
    stray = "--" if "--" in argv else None
    tokens = argv[: argv.index("--")] if stray else argv
    command, flag, fields, problem = None, None, {"command": None}, None
    pending = iter(enumerate(tokens))
    for i, token in pending:
        flag, value = _classify(token, command)
        if flag is None and command is None and token in COMMANDS:
            command, (_, own) = token, COMMANDS[token]
            for later in tokens[i + 1:]:  # an ambiguous prefix fails before any flag acts
                _classify(later, command)
            fields = {"command": command, **{_dest(f): spec[2] for f, spec in own.items()}}
        elif flag is None and command is None:
            problem = f"invalid command {token!r} (choose from {', '.join(COMMANDS)})"
        elif not flag:  # another option, or a value that no flag takes
            stray = token if stray is None else stray
        else:
            kind, choices, _ = FLAGS[command][flag]
            if kind is None:  # a switch
                problem = value is not None and f"{flag} takes no value"
                value = True
            elif value is None:
                value = next(pending, (i, None))[1]
                if value is None or _classify(value, command)[0] is not None:
                    problem = f"{flag} expects a value"
            if kind is not None and not problem:
                try:
                    value = kind(value)
                except ValueError:
                    problem = f"invalid {flag} value {value!r}"
                if choices and value not in choices:
                    problem = f"invalid {flag} value {value!r}"
            fields[_dest(flag)] = value
        if problem or flag in HELP:
            break
    else:
        missing = [dest for dest, default in fields.items() if default is REQUIRED]
        problem = ("a command is required" if command is None
                   else f"unrecognized argument {stray!r}" if stray is not None
                   else missing and f"--{missing[0]} is required")
    if problem or flag in HELP:
        raise UsageExit(command, problem or None)
    return fields


def _input_error(args: dict) -> Optional[str]:
    """Why a parsed command line names no input its command can run, or None."""
    if args["command"] == "table":
        return "invalid input: --max must be at least 7 (the slope needs two primes)" if (
            args["max"] < 7) else None
    if args["p"] == 2:
        return ("p = 2 is not supported: the construction needs odd characteristic "
                "(a characteristic-2 analogue over Suzuki-type curves is an open problem)")
    return None if is_prime(args["p"]) else f"invalid input: {args['p']} is not an odd prime"


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None) and
    return its exit status: 0, 1 when a check fails, 2 on invalid input, with
    the message on stderr; -h or --help prints the usage on stdout, status 0."""
    out = sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        status, text = 2, _input_error(args)
    except UsageExit as exc:  # -h/--help, or a command line argparse would reject
        usage, problem = USAGE[exc.args[0]], exc.args[1]
        status, text = (2, f"hodgegap: error: {problem}\n{usage}") if problem else (0, usage)
    if text is not None:
        print(text, file=sys.stderr if status else out)
        return status
    if not args["no_banner"]:
        _banner(out)
    if args["command"] == "verify":
        return cmd_verify(args, out)
    if args["command"] == "table":
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
