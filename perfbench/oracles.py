"""Correctness checks on the items' outputs, run after the timed passes.

Two kinds of oracle:

* golden SHA-256 digests (``golden.json``) of every ``verify`` output of the
  ``verify`` workload and of the probe's primes up to 37, and of the
  ``table --max 1000`` output, recorded at the seed commit; changed bytes
  are a failure;
* the paper's values, recomputed with the benchmark's own naive code:
  hX = 0 and hY = #{j <= (p-1)/2 : -4j mod p <= (p-1)/2} (5 and 6 at p = 3),
  a trace-one curve with exactly p points by a naive count, first de Rham
  numbers {4, 2, 2}, and a fitted slope in [0.2, 0.3].

Each near-miss item of ``reject`` must be rejected; a control that accepts
is a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())["sha256"]

ELLIPTIC_WITNESS = re.compile(
    r"E\[y\^2 = x\^3 \+ \((\d+)\)x\^2 \+ \((\d+)\)x \+ \((\d+)\) / GF\((\d+)\)\] with (\d+) points"
)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def hy_count(p: int) -> int:
    g = (p - 1) // 2
    return sum(1 for j in range(1, g + 1) if 1 <= (-4 * j) % p <= g)


def naive_points(q: int, a2: int, a4: int, a6: int) -> int:
    """Points of y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q, q = p or 9 (integer
    coefficients; F_9 = F_3[t]/(t^2 + 1) with elements (c0, c1))."""
    if q != 9:
        return 1 + sum(
            1
            for x in range(q)
            for y in range(q)
            if (y * y - (x**3 + a2 * x * x + a4 * x + a6)) % q == 0
        )

    def mul(u, v):
        return ((u[0] * v[0] - u[1] * v[1]) % 3, (u[0] * v[1] + u[1] * v[0]) % 3)

    elems = [(c0, c1) for c1 in range(3) for c0 in range(3)]
    n = 1
    for x in elems:
        x2 = mul(x, x)
        x3 = mul(x2, x)
        rhs = tuple((x3[i] + a2 * x2[i] + a4 * x[i] + (a6 if i == 0 else 0)) % 3 for i in range(2))
        n += sum(1 for y in elems if mul(y, y) == rhs)
    return n


def check(item: dict, record: dict, golden: dict = GOLDEN) -> str | None:
    """None when the item's output is right, else the reason it is wrong."""
    if record.get("error"):
        return f"unexpected exception: {record['error']}"
    out = record["output"]
    kind = item["kind"]
    if kind == "cli":
        return _check_cli(item["argv"], out, golden)
    if kind == "ff":
        return _check_ff(item["p"], out)
    if kind == "shift":
        return None if out == [False, False] else f"perturbed family accepted: {out}"
    if kind == "square":
        return None if out == [False, "ValueError"] else f"repeated root accepted: {out}"
    if kind == "valuation":
        return None if out == [item["k"], None] else f"expected [{item['k']}, None], got {out}"
    return f"unknown item kind {kind!r}"


def _check_cli(argv: list[str], out: dict, golden: dict) -> str | None:
    key = " ".join(argv)
    if out["rc"] != 0:
        return f"{key}: exit code {out['rc']}"
    if digest(out["text"]) != golden.get(key):
        return f"{key}: output bytes differ from the seed commit"
    if argv[0] == "table":
        return _check_table(out["text"])
    return _check_report(json.loads(out["text"]))


def _check_report(report: dict) -> str | None:
    p = report["p"]
    if any(c["status"] == "fail" for c in report["checks"]):
        return f"p = {p}: a check failed"
    s = report["summary"]
    want = (5, 6) if p == 3 else (0, hy_count(p))
    if (s["hX"], s["hY"]) != want:
        return f"p = {p}: (hX, hY) = ({s['hX']}, {s['hY']}), expected {want}"
    if (s["h1Special"], s["h1Generic"], s["torsionDim"]) != (4, 2, 2):
        return f"p = {p}: de Rham numbers are not {{4, 2, 2}}"
    curve_check = "elliptic.ordinary_with_torsion" if p == 3 else "elliptic.trace_one"
    witness = next(c["witness"] for c in report["checks"] if c["id"] == curve_check)
    m = ELLIPTIC_WITNESS.fullmatch(witness)
    if m is None:
        return f"p = {p}: unreadable elliptic witness {witness!r}"
    a2, a4, a6, q, n = map(int, m.groups())
    count = naive_points(q, a2, a4, a6)
    if count != n or (p > 3 and count != p) or (p == 3 and (count % 3 or (q + 1 - count) % 3 == 0)):
        return f"p = {p}: the curve found has {count} points by a naive count"
    return None


def _check_table(text: str) -> str | None:
    lines = text.splitlines()
    slope = float(lines[-1].removeprefix("# slope = "))
    if not 0.2 <= slope <= 0.3:
        return f"table: slope {slope} outside [0.2, 0.3]"
    for row in lines[1:-1]:
        p, h_x, h_y, gap = map(int, row.split("\t"))
        if (h_x, h_y, gap) != (0, hy_count(p), hy_count(p)):
            return f"table: row {row!r} disagrees with the interval count"
    return None


def _check_ff(p: int, out: dict) -> str | None:
    a2, a4, a6 = out["a"]
    if naive_points(p, a2, a4, a6) != p:
        return f"ff p = {p}: the curve found does not have {p} points"
    if out["point"] is None:
        return f"ff p = {p}: torsion point is the identity"
    x, y = out["point"]
    if (y * y - (x**3 + a2 * x * x + a4 * x + a6)) % p:
        return f"ff p = {p}: torsion point is not on the curve"
    if out["free"] is not True:
        return f"ff p = {p}: translation has a fixed point"
    if out["h1"] != [4, 2, 2]:
        return f"ff p = {p}: de Rham numbers {out['h1']}"
    return None
