"""The hodgegap benchmark: one workload, one seed, one line of JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  Each item runs in a fresh worker
interpreter (``worker.py``), one worker at a time, as a CLI user runs
``hodgegap``; the package's ``lru_cache``s therefore start cold for every
item, and a cache kept across items cannot pass for a speed-up.  A run
repeats passes over the workload's items (``workloads.py``), each in a new
seeded order; it makes ``S // PASS_SECONDS[workload]`` passes, so that a run
takes at most about ``S`` seconds on a 2-vCPU virtual machine and every run
of a workload pools the same number of samples.  Every output is then checked
(``oracles.py``), outside the timed region.

The host's speed drifts by up to 2x over minutes, for every process on it
alike (a virtual machine whose neighbours come and go).  So each worker also
times a fixed computation that does not touch the package just before and
just after its call (``ref_s``, see ``worker.py``), and every time it yields
is divided by its *slowdown*: the mean of those two reference times over
``REFERENCE_S``, their median on a quiet host.  A change to the package moves
the times and not the slowdown; the host moves both.  The times are then
medians over the repeats of a run:

* ``setup_s``: median, over every worker of the run, of the time from
  spawning the worker until ``import hodgegap.cli`` is done;
* ``wall_s``: one pass over all the items, spawns included (the sum over
  items of each item's median worker lifetime, less its reference times);
* ``item_s.p50`` / ``item_s.tail``: over the call times of every repeat of
  every item, the median and the highest percentile with at least ten
  samples beyond it (the maximum when there are fewer than 21 samples); the
  sample count is printed;
* ``peak_rss_mb``: the largest peak resident memory of any worker.

``failed_share`` (failed over attempted operations) is printed with them and
is what the result's ``attempted``/``failed`` fields carry.

With ``--trace 1`` passes alternate untraced and traced (``tracing.py``),
at least one of each; it reports the per-layer metrics, averaged per traced
pass, and ``trace.overhead_s``, the traced minus the untraced ``wall_s``.
Span times are elapsed times, not divided by the slowdown.
The spans are written to ``.perfbench/`` when the run ends.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Without a ``src/hodgegap`` to measure, it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
import workloads

WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170.0  # every run must end within 180 s
# Median of worker.reference_s() on a quiet 2-vCPU virtual machine (Python
# 3.11), so that the reported times are seconds on such a host.
REFERENCE_S = 0.0075


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns one worker per item against the checkout's ``src``."""

    def __init__(self, src: Path, deadline: float):
        self.src = src
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.deadline = deadline

    def warm_up(self) -> None:
        """Compile the package once, so that no timed import pays for it."""
        subprocess.run(
            [sys.executable, "-c", "import hodgegap.cli"], env=self.env, check=True, timeout=60
        )

    def run(self, item: dict, trace: bool) -> dict:
        spawned = monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), json.dumps(item), "1" if trace else "0"],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            return {"error": "worker timed out"}
        exited = monotonic()
        try:
            record = json.loads(proc.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return {"error": f"worker failed: {tail[0]}"}
        record["spawned"], record["worker_s"] = spawned, exited - spawned
        if not Path(record["module"]).resolve().is_relative_to(self.src.resolve()):
            record["error"] = f"hodgegap imported from {record['module']}, not from the checkout"
        return record


def tail_index(n: int) -> int:
    """Index, in ascending order, of the highest sample with ten beyond it."""
    return n - 11 if n >= 21 else n - 1


def pass_s(results: list[tuple[dict, dict]]) -> float:
    """One pass: the sum over items of each one's median worker lifetime,
    less the reference computations it ran, divided by its slowdown."""
    lifetimes: dict[str, list[float]] = {}
    for item, rec in results:
        if "worker_s" in rec:
            lifetimes.setdefault(item["id"], []).append((rec["worker_s"] - sum(rec["ref_s"])) / slowdown(rec))
    return sum(statistics.median(v) for v in lifetimes.values())


def slowdown(rec: dict) -> float:
    """How much slower the host ran during one worker's call than when quiet."""
    return sum(rec["ref_s"]) / len(rec["ref_s"]) / REFERENCE_S


def end_to_end(results: list[tuple[dict, dict]]) -> dict[str, tuple[float, str]]:
    timed = [rec for _, rec in results if "call_s" in rec]
    calls = sorted(r["call_s"] / slowdown(r) for r in timed)
    return {
        "setup_s": (statistics.median((r["ready"] - r["spawned"]) / slowdown(r) for r in timed), "s"),
        "wall_s": (pass_s(results), "s"),
        "item_s.p50": (statistics.median(calls), "s"),
        "item_s.tail": (calls[tail_index(len(calls))], "s"),
        "peak_rss_mb": (max(r["rss_kb"] for r in timed) / 1024, "MB"),
    }


def failures(results: list[tuple[dict, dict]], golden: dict = oracles.GOLDEN) -> list[str]:
    """One line per item whose output is wrong (see ``oracles.check``)."""
    out = []
    for item, rec in results:
        try:
            reason = oracles.check(item, rec, golden)
        except (KeyError, ValueError, TypeError, StopIteration) as exc:
            reason = f"malformed output: {type(exc).__name__}: {exc}"
        if reason:
            out.append(f"item {item['id']} ({item['kind']}): {reason}")
    return out


def write_spans(root: Path, workload: str, seed: int, traced: list[tuple[dict, dict]]) -> Path:
    out = root / ".perfbench" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    payload = {
        "fields": tracing.SPAN_FIELDS,
        "items": [{"item": item, "spans": rec.get("spans", [])} for item, rec in traced],
    }
    out.write_text(json.dumps(payload))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hodgegap" / "cli.py").is_file():
        print("perfbench: no src/hodgegap here; run from the root of a hodgegap checkout", file=sys.stderr)
        return 2
    runner = Runner(src, monotonic() + DEADLINE_S)
    runner.warm_up()

    done: dict[bool, list[tuple[dict, dict]]] = {False: [], True: []}
    passes = {False: 0, True: 0}
    for n in range(max(2 if args.trace else 1, workloads.passes(args.workload, args.seconds))):
        if monotonic() > runner.deadline:
            break
        traced = bool(args.trace) and n % 2 == 1
        for item in workloads.pass_items(args.workload, args.seed, n):
            rec = runner.run(dict(item, id=f"{n}.{item['id']}"), traced)
            done[traced].append((item, rec))
        passes[traced] += 1

    # correctness, outside the timed region
    reasons = failures(done[False] + done[True])
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    attempted, failed = len(done[False]) + len(done[True]), len(reasons)

    if args.trace:
        spans = [rec.get("spans", []) for _, rec in done[True]]
        metrics = tracing.layer_metrics(spans, passes=max(1, passes[True]))
        metrics["trace.overhead_s"] = (pass_s(done[True]) - pass_s(done[False]), "s")
        spans_file = write_spans(root, args.workload, args.seed, done[True])
        print(f"spans: {spans_file.relative_to(root)}")
    else:
        metrics = end_to_end(done[False])
    samples = len(done[False])
    n_items = len({item["id"] for item, _ in done[False]})
    tail = "max" if samples < 21 else f"{100 * (samples - 10) / samples:.1f}th percentile"
    print(
        f"perfbench {args.workload} seed={args.seed}: {passes[False]} plain + {passes[True]} traced "
        f"passes over {n_items} items; {attempted} attempted, {failed} failed, "
        f"failed_share = {failed / attempted:.4f} ratio; item_s over {samples} samples, tail = {tail}; "
        f"median host slowdown {statistics.median(slowdown(r) for _, r in done[False] if 'ref_s' in r):.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
