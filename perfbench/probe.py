"""One-shot scaling probe of ``verify`` (not a workload, not gated).

Usage, from the root of a checkout:

    python3 perfbench/probe.py

Runs ``verify --p P --format json --no-banner`` once for each P in 13, 31,
37, 43, 61, each in a fresh worker as ``run.py`` does, and prints the call
times with the growth exponent b of a least-squares fit time ~ p^b in
log-log space.  Outputs with
a golden digest (``golden.json``) are checked against it.  The figures
recorded at the seed commit are in ``meta.json``; at p = 61 one call takes
minutes, which is why this is not part of any workload.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from oracles import GOLDEN, digest
from run import Runner, monotonic
from workloads import verify_argv

PRIMES = (13, 31, 37, 43, 61)


def fit_exponent(points: list[tuple[int, float]]) -> float:
    xs = [math.log(p) for p, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    runner = Runner(Path.cwd() / "src", monotonic() + 3600.0)
    runner.warm_up()
    rows = []
    for p in PRIMES:
        rec = runner.run({"kind": "cli", "argv": verify_argv(p), "id": f"probe.{p}"}, trace=False)
        if rec.get("error") or rec["output"]["rc"] != 0:
            print(f"p = {p}: failed: {rec.get('error') or rec['output']['rc']}", file=sys.stderr)
            return 1
        golden = GOLDEN.get(" ".join(verify_argv(p)))
        if golden and digest(rec["output"]["text"]) != golden:
            print(f"p = {p}: output bytes differ from the seed commit", file=sys.stderr)
            return 1
        rows.append({"p": p, "call_s": round(rec["call_s"], 3), "peak_rss_mb": round(rec["rss_kb"] / 1024, 1)})
        print(f"p = {p:>3}: {rec['call_s']:9.3f} s", flush=True)
    exponent = fit_exponent([(r["p"], r["call_s"]) for r in rows])
    print(json.dumps({"rows": rows, "exponent": round(exponent, 2), "date": time.strftime("%Y-%m-%d")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
