"""Run one benchmark item in a fresh interpreter and print one JSON record.

Usage: python3 worker.py ITEM_JSON TRACE

``run.py`` starts one worker per item, with ``PYTHONPATH`` naming the
checkout's ``src``, so that every item pays what a CLI user pays: a cold
interpreter, a cold ``import hodgegap.cli`` and cold package caches.  The
worker stamps ``CLOCK_MONOTONIC`` as soon as that import is done (the parent
stamped the spawn on the same clock), times the item's call, and prints
``{"ready", "call_s", "ref_s", "output", "error", "rss_kb", "module",
"spans"}``.  ``ref_s`` holds the times of a fixed computation that does not
touch the package, run just before and just after the call: they measure how
fast the host is at that moment (see ``run.py``).

Item kinds (built by ``workloads.py``):

* ``cli``: ``hodgegap.cli.main(argv)``; the output is the exit code and the
  bytes written to stdout.
* ``ff``: the finite-field checks of one prime (trace-one curve, its p-torsion
  point, fixed-point-free translation, first de Rham numbers).
* ``shift``, ``square``, ``valuation``: near-miss inputs that the package must
  reject (see ``workloads.py``).
"""

from __future__ import annotations

import sys
import time


def main() -> int:
    import hodgegap.cli  # noqa: F401  (the set-up being timed)

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    import json

    item = json.loads(sys.argv[1])
    record = execute(item, trace=sys.argv[2] == "1")
    record["ready"] = ready
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


def execute(item: dict, trace: bool) -> dict:
    """Call (timed, traced when asked) one item."""
    import resource

    import hodgegap

    call = RUNNERS[item["kind"]]
    if item["kind"] == "valuation":
        item = _with_elements(item)  # the inputs, built before the timer
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer(item["id"])
        tracer.install()
    error = None
    output = None
    ref_before = reference_s()
    start = time.perf_counter()
    try:
        output = call(item)
    except Exception as exc:  # recorded and counted as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    finally:
        call_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return {
        "call_s": call_s,
        "ref_s": [ref_before, reference_s()],
        "output": output,
        "error": error,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": hodgegap.__file__,
        "spans": tracer.spans if tracer else [],
    }


def reference_s() -> float:
    """Time of a fixed pure-Python computation: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


# -- runners: call(item) -> JSON value, timed ----------------------------------


def _cli(item):
    import contextlib
    import io

    from hodgegap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(item["argv"])
    return {"rc": rc, "text": buf.getvalue()}


def _ff(item):
    from hodgegap import elliptic, modularrep

    p = item["p"]
    curve = elliptic.find_ordinary_with_trace_one(p)
    pt = elliptic.torsion_point_of_exact_order(curve, p)
    free = elliptic.translation_is_fixed_point_free(curve, pt)
    h1 = modularrep.h1_de_rham_report(p)
    return {
        "a": [curve.a2.coords[0], curve.a4.coords[0], curve.a6.coords[0]],
        "point": None if pt.is_infinity else [pt.x.coords[0], pt.y.coords[0]],
        "free": free,
        "h1": [h1.h1_special, h1.h1_generic, h1.torsion_dim],
    }


def _family(p):
    from hodgegap import curves

    spec = curves.default_spec(p)
    return spec, curves.hyperelliptic_family(p, spec)


def _shift(item):
    from hodgegap import curves
    from hodgegap.algebra import Polynomial

    p = item["p"]
    spec, family = _family(p)
    coeffs = list(family.f.coeffs)
    coeffs[item["index"]] = coeffs[item["index"]] + item["delta"]
    model = curves.HyperellipticModel(Polynomial(spec.field, coeffs))
    return [
        curves.substitution_check(p, spec, model),
        curves.chart_transition_check(p, spec, model),
    ]


def _square(item):
    from hodgegap import curves
    from hodgegap.algebra import Polynomial

    spec, family = _family(item["p"])
    k = spec.field
    linear = Polynomial(k, [k.from_int(-item["root"]), k.one])
    model = curves.HyperellipticModel(family.f * linear * linear)
    smooth = curves.is_relatively_smooth(model, spec)
    try:
        curves.genus(model)
        raised = None
    except ValueError:
        raised = "ValueError"
    return [smooth, raised]


def _with_elements(item):
    from hodgegap.cyclotomic import cyclotomic_field

    k = cyclotomic_field(item["p"])
    return dict(item, z=k.element(item["z"]), w=k.element(item["w"]))


def _valuation(item):
    from hodgegap.cyclotomic import PiSpec, try_divide_exact

    v = PiSpec.for_prime(item["p"]).valuation(item["z"])
    q = try_divide_exact(item["z"], item["w"], integral=True)
    return [v, None if q is None else str(q)]


RUNNERS = {"cli": _cli, "ff": _ff, "shift": _shift, "square": _square, "valuation": _valuation}


if __name__ == "__main__":
    sys.exit(main())
