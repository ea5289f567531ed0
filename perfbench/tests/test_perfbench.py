"""Tests of the benchmark itself (not of hodgegap).

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def item(kind, **fields):
    return {"kind": kind, "id": "0.0", **fields}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_item_order_is_a_function_of_the_seed(name):
    def orders(seed):
        return [workloads.pass_items(name, seed, n) for n in range(3)]

    assert orders(7) == orders(7)
    assert orders(7) != orders(8)
    first, second = orders(7)[:2]
    assert sorted(it["id"] for it in first) == sorted(it["id"] for it in second)


def test_near_miss_inputs_follow_the_seed():
    def inputs(seed, n):
        return sorted(workloads.pass_items("reject", seed, n), key=lambda it: int(it["id"]))

    assert inputs(1, 0) == inputs(1, 0)
    assert inputs(1, 0) != inputs(2, 0)
    assert inputs(1, 0) != inputs(1, 1)
    kinds = [it["kind"] for it in inputs(1, 0)]
    assert kinds == ["shift", "square", "valuation"] * len(workloads.REJECT_PRIMES)


def test_pi_power_times_matches_the_package():
    from hodgegap.cyclotomic import PiSpec, cyclotomic_field

    spec = PiSpec.for_prime(11)
    unit = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
    z = cyclotomic_field(11).element(workloads.pi_power_times(11, 12, unit))
    assert z == spec.pi**12 * cyclotomic_field(11).element(unit)
    assert spec.valuation(z) == 12


def test_shipped_report_passes_every_oracle():
    it = item("cli", argv=workloads.verify_argv(5))
    rec = worker.execute(it, trace=False)
    assert oracles.check(it, rec) is None


def test_corrupted_golden_digest_is_a_failure():
    it = item("cli", argv=workloads.verify_argv(5))
    results = [(it, worker.execute(it, trace=False))]
    assert run.failures(results) == []
    corrupted = dict(oracles.GOLDEN, **{" ".join(it["argv"]): "0" * 64})
    (reason,) = run.failures(results, corrupted)
    assert "differ" in reason


def test_control_that_accepts_is_a_failure(monkeypatch):
    from hodgegap import curves

    it = item("shift", p=11, index=4, delta=1)
    assert run.failures([(it, worker.execute(it, trace=False))]) == []
    monkeypatch.setattr(curves, "substitution_check", lambda *a, **k: True)
    (reason,) = run.failures([(it, worker.execute(it, trace=False))])
    assert "accepted" in reason


def test_unexpected_exception_is_a_failure(monkeypatch):
    from hodgegap import curves

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    it = item("square", p=11, root=-1)
    monkeypatch.setattr(curves, "is_relatively_smooth", broken)
    (reason,) = run.failures([(it, worker.execute(it, trace=False))])
    assert "RuntimeError: boom" in reason


@pytest.mark.parametrize(
    "it",
    [
        item("cli", argv=workloads.verify_argv(3)),
        item("cli", argv=workloads.verify_argv(7)),
        item("ff", p=7),
        item("square", p=11, root=2),
        item("valuation", p=11, k=10, z=workloads.pi_power_times(11, 10, [2, 1]), w=workloads.pi_power_times(11, 11, [1])),
    ],
    ids=lambda it: it["kind"],
)
def test_traced_and_untraced_outputs_are_identical(it):
    plain = worker.execute(it, trace=False)
    traced = worker.execute(it, trace=True)
    assert oracles.check(it, plain) is None
    assert traced["output"] == plain["output"]
    assert traced["spans"] and not plain["spans"]


def test_wrappers_are_removed_afterwards():
    import hodgegap
    from hodgegap import algebra, cli, curves, cyclotomic

    before = (
        cli.build_report,
        cli.hyperelliptic_family,
        curves.hyperelliptic_family,
        hodgegap.hyperelliptic_family,
        cyclotomic.CycloElement.__dict__["inv"],
        cyclotomic.CycloElement.__dict__["__rmul__"],
        algebra.Polynomial.__dict__["compose"],
        cli.json,
    )
    tracer = tracing.Tracer("t")
    tracer.install()
    assert cli.hyperelliptic_family is curves.hyperelliptic_family is not before[2]
    tracer.uninstall()
    after = (
        cli.build_report,
        cli.hyperelliptic_family,
        curves.hyperelliptic_family,
        hodgegap.hyperelliptic_family,
        cyclotomic.CycloElement.__dict__["inv"],
        cyclotomic.CycloElement.__dict__["__rmul__"],
        algebra.Polynomial.__dict__["compose"],
        cli.json,
    )
    assert all(a is b for a, b in zip(before, after))


def test_layer_metrics_self_time_and_errors():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "0.0", False],
        ["cyclotomic.inv", 1.0, 4.0, 0, "0.0", False],
        ["cyclotomic.mul", 2.0, 3.0, 1, "0.0", False],
        ["curves.genus", 5.0, 6.0, 0, "0.0", True],
    ]
    spans.append(["curves.hyperelliptic_family", 6.0, 7.0, 0, "0.0", False])
    spans.append(["cli.build_report", 7.0, 8.0, 0, "0.0", False])
    m = tracing.layer_metrics([spans, spans], passes=2)
    assert m["cli.self_s"][0] == 5.0
    assert m["cyclotomic.self_s"][0] == 3.0
    assert m["cyclotomic.inv.incl_s"][0] == 3.0
    assert m["curves.errors"][0] == 1
    assert m["cyclotomic.calls"][0] == 2
    assert m["curves.family_builds_per_report"][0] == 1.0


def test_times_are_divided_by_the_host_slowdown():
    ref = 2 * run.REFERENCE_S  # the host runs at half speed
    rec = {"call_s": 1.0, "ready": 3.0, "spawned": 2.0, "worker_s": 2.0 + 2 * ref, "ref_s": [ref, ref], "rss_kb": 1024}
    m = run.end_to_end([({"id": "0"}, rec)])
    assert m["setup_s"][0] == pytest.approx(0.5)
    assert m["item_s.p50"][0] == m["item_s.tail"][0] == pytest.approx(0.5)
    assert m["wall_s"][0] == pytest.approx(1.0)


def test_tail_sample_has_ten_beyond_it():
    assert run.tail_index(5) == 4
    assert run.tail_index(21) == 10
    assert run.tail_index(100) == 89


def bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_exactly_the_declared_metrics(trace, section):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())[section]
    proc = bench(BENCH.parent, "--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path, "--workload", "range", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
