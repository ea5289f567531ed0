"""The three workloads: which items one pass runs, in which order.

Everything here is a pure function of (workload, seed, pass number): the seed
fixes the item order of every pass and the near-miss inputs of ``reject``.
The package is not imported; it receives only the generated inputs.

* ``verify``: ``verify --p P --format json --no-banner`` for the shipped
  primes 3..13, where fixed per-report costs (argparse, rendering, JSON, the
  F_9 curve search at p = 3) are a large share, and for 17 and 23, where the
  cyclotomic arithmetic (``CycloElement.inv`` over ``Fraction``) dominates.
* ``range``: ``table --max 1000`` plus the finite-field checks for every prime
  5 <= p <= 61.  No cyclotomic or curves work at all: the control for
  cyclotomic changes and the mechanism workload for the elliptic search and
  the exact kernels.
* ``reject``: near-miss inputs that every check must reject, exercising the
  fail paths (inexact division, a non-trivial gcd, an early mismatch).
"""

from __future__ import annotations

import random

# Every item has to repeat several times within one run: the host's speed
# drifts by tens of percent over seconds to minutes, and the times are medians
# over the repeats, which needs items far shorter than the run.  So
# verify stops at 23 (it takes 1-2 s at 29-31 and 4-8 s at 37), reject at 17
# (the square control takes 2-9 s at 19-23) and the table at 1000 (1-3 s at
# 2000, growing about N^3); probe.py covers larger p.  Every workload has an
# odd number of items (7, 17, 9), so that item_s.p50 falls among the repeats
# of one item, not in the gap between two.
VERIFY_PRIMES = (3, 5, 7, 11, 13, 17, 23)
TABLE_MAX = 1000
FF_PRIMES = tuple(p for p in range(5, 62) if all(p % d for d in range(2, p)))
REJECT_PRIMES = (11, 13, 17)
# The root a of the square factor (u - a)^2.  The gcd's cost depends strongly
# on a (at p = 19 it ranges from 0.03 s to 3.3 s over |a| <= 3), so it is
# fixed; the seed varies the shifted coefficient and the shift, the valuation k
# and the unit, whose costs vary far less.
SQUARE_ROOT = 2
WORKLOADS = ("verify", "range", "reject")
# Seconds of --seconds per pass: a run makes --seconds // PASS_SECONDS passes
# (8 of verify, 3 of range, 12 of reject at --seconds 40).  The count is fixed,
# not "as many as fit", so that every run of a workload pools the same number
# of samples and item_s.tail always falls at the same place among the items'
# repeats, chosen inside a cluster of repeats rather than at its edge, where
# the tail would be a maximum and far noisier.
PASS_SECONDS = {"verify": 5, "range": 13, "reject": 3.3}


def verify_argv(p: int) -> list[str]:
    return ["verify", "--p", str(p), "--format", "json", "--no-banner"]


TABLE_ARGV = ["table", "--max", str(TABLE_MAX), "--no-banner"]


def passes(workload: str, seconds: int) -> int:
    """How many passes a run of ``seconds`` makes (at least one)."""
    return max(1, int(seconds // PASS_SECONDS[workload]))


def pass_items(workload: str, seed: int, n: int) -> list[dict]:
    """The items of pass ``n`` of a run, in their seeded order.

    An item's ``id`` names its place in the workload, the same in every pass.
    ``reject`` draws fresh near-miss inputs for every pass: their cost varies
    by about 20% with the shifted coefficient, and a run that pools many
    draws does not hang on one of them.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}/{n}")
    out = _items(workload, rng)
    for i, item in enumerate(out):
        item["id"] = str(i)
    rng.shuffle(out)
    return out


def _items(workload: str, rng: random.Random) -> list[dict]:
    if workload == "verify":
        return [{"kind": "cli", "argv": verify_argv(p)} for p in VERIFY_PRIMES]
    if workload == "range":
        return [{"kind": "cli", "argv": TABLE_ARGV}] + [{"kind": "ff", "p": p} for p in FF_PRIMES]
    out = []
    for p in REJECT_PRIMES:
        k = rng.randint(p - 2, p + 2)
        out += [
            {"kind": "shift", "p": p, "index": rng.randrange(p), "delta": rng.choice((-2, -1, 1, 2))},
            {"kind": "square", "p": p, "root": SQUARE_ROOT},
            {
                "kind": "valuation",
                "p": p,
                "k": k,
                "z": pi_power_times(p, k, unit_coords(p, rng)),
                "w": pi_power_times(p, k + 1, [1]),
            },
        ]
    return out


# -- integer arithmetic in Z[z]/(Phi_p), independent of the package ------------


def unit_coords(p: int, rng: random.Random) -> list[int]:
    """Random power-basis coordinates of a pi-adic unit of Z[zeta_p].

    With zeta -> 1 the residue is the coordinate sum mod p, so a non-zero sum
    makes the element a unit.
    """
    coords = [rng.randint(-9, 9) for _ in range(p - 1)]
    if sum(coords) % p == 0:
        coords[0] += 1
    return coords


def pi_power_times(p: int, k: int, coords: list[int]) -> list[int]:
    """Coordinates of (zeta - 1)^k * sum(coords[i] zeta^i), reduced mod Phi_p."""
    acc = list(coords) + [0] * (p - 1 - len(coords))
    for _ in range(k):
        shifted = [0] + acc  # multiply by zeta
        acc = [shifted[i] - (acc[i] if i < len(acc) else 0) for i in range(len(shifted))]
        top = acc.pop()  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        acc = [c - top for c in acc]
    return acc
