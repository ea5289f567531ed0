import argparse
import contextlib
import fcntl
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import compose_paths, distinct_field_comparisons, recorded, replaced
from test_perturbations import PERTURBATIONS

from hodgegap import cli, curves, invariants
from hodgegap.algebra import primes_upto
from hodgegap.cli import build_report, main
from hodgegap.cyclotomic import CycloElement, CyclotomicField


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_p3_summary(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "3", "--format", "json", "--no-banner"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {
        "hX": 5,
        "hY": 6,
        "h1Special": 4,
        "h1Generic": 2,
        "torsionDim": 2,
    }
    assert all(c["status"] in ("pass", "skipped") for c in payload["checks"])


def test_verify_p5_summary(capsys):
    code, out, _ = _run(capsys, ["verify", "--p", "5", "--format", "json", "--no-banner"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["hX"] == 0
    assert payload["summary"]["hY"] == 2
    assert payload["summary"]["torsionDim"] == 2


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_verify_exit_zero_on_shipped_primes(capsys, p):
    code, out, _ = _run(capsys, ["verify", "--p", str(p), "--no-banner"])
    assert code == 0
    assert "result: PASS" in out


def test_verify_rejects_composite(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "4", "--no-banner"])
    assert code == 2
    assert "not an odd prime" in err


def test_curve_rejects_composite(capsys):
    code, _, err = _run(capsys, ["curve", "--p", "9", "--no-banner"])
    assert code == 2
    assert "not an odd prime" in err


def test_verify_rejects_two_with_explanation(capsys):
    code, _, err = _run(capsys, ["verify", "--p", "2", "--no-banner"])
    assert code == 2
    assert "odd characteristic" in err


def test_check_ids_are_unique_and_ordered():
    for p, twist in [(3, 2), (5, 4), (7, 4), (13, 4)]:
        c = curves.construction(p)
        ids = [r.id for r in build_report(c).checks]
        assert len(ids) == len(set(ids))
        assert ids == [template.format(c=c) for template, _, _ in cli.CHECKS]
        assert ids[0] == "curve.integrality"
        assert "curve.reduction" in ids
        assert f"conj.tau_sigma{twist}" in ids
        assert "hodge.h30.pair" in ids
        assert ids.index("curve.reduction") < ids.index("curve.substitution")
        assert ids.index("hodge.h30.pair") < ids.index("derham.h1")


@pytest.mark.parametrize("p", [3, 5, 13])
def test_report_builds_the_family_once(monkeypatch, p):
    calls = recorded(monkeypatch, curves, "hyperelliptic_family")
    assert not build_report(curves.construction(p)).failed()
    assert len(calls) == 1


@pytest.mark.parametrize("p, inverses", [(3, 1), (5, 0), (13, 0)])
def test_report_inverts_pi_only_at_p3(monkeypatch, p, inverses):
    # an n = p engine takes 1/pi from its prefix step; the n = 12 engine
    # inverts its pi once, and nothing else in a report inverts
    calls = recorded(monkeypatch, CycloElement, "inv")
    c = curves.construction(p)
    assert not build_report(c).failed()
    assert calls == [(c.spec.pi,)] * inverses


@pytest.mark.parametrize("p", [5, 13])
def test_report_multiplies_no_zero_cyclotomic_operand(monkeypatch, p):
    # Polynomial.scale and compose's scaling by powers pass a zero
    # coefficient through unmultiplied; they are what map_preserves_curve
    # runs on the sparse xy model
    calls = recorded(monkeypatch, CyclotomicField, "_mul")
    assert not build_report(curves.construction(p)).failed()
    assert calls
    assert [(a, b) for _, a, b in calls if not any(a) or not any(b)] == []


@pytest.mark.parametrize("p", [3, 5, 13])
def test_report_reduces_the_family_once(monkeypatch, p):
    # the smoothness check reads the construction's reduction, the one that
    # the reduction, sigma, tau and fixed-point checks read
    calls = recorded(monkeypatch, curves, "reduce_model")
    c = curves.construction(p)
    assert not build_report(c).failed()
    assert len(calls) == 1
    assert calls[0][0] is c.family


def test_every_odd_prime_to_101_passes_with_a_modular_squarefree_verdict(monkeypatch):
    # the claim is made for each odd prime, and several paths depend on the
    # prime (modular_squarefree's search for its first prime, the elliptic
    # search, tau's square root, p mod 8 in the interval count), so a ladder
    # of primes could step over the one where a path breaks.  The family is
    # shown squarefree at that first prime, with no exact gcd over Q(zeta_n),
    # and never composed: sigma is proved on the sparse xy model
    verdicts = []
    taken = compose_paths(monkeypatch)
    real_verdict = curves.modular_squarefree

    def verdict(f):
        verdicts.append((f, real_verdict(f)))
        return verdicts[-1][1]

    monkeypatch.setattr(curves, "modular_squarefree", verdict)
    exact = recorded(monkeypatch, curves, "discriminant_squarefree")
    for p in primes_upto(101)[1:]:
        c = curves.construction(p)
        assert not build_report(c).failed(), p
        f = c.family.f
        assert [v for g, v in verdicts if g is f] == [True], p
        assert not any(g is f for (g,) in exact), p
        assert any(coeffs == c.xy.f.coeffs for _, coeffs in taken), p
        assert all(coeffs != f.coeffs for _, coeffs in taken), p
        verdicts.clear()
        exact.clear()
        taken.clear()


@pytest.mark.parametrize("p", [3, 5, 13, 23])
def test_a_report_holds_one_residue_field(monkeypatch, p):
    # the engine, the reduction, tau and the elliptic factor share the
    # construction's F_q, so no field check needs a comparison by value.
    # The per-field tables live on their field object, so a second report in
    # the same process reads its own field's elements too
    compared = distinct_field_comparisons(monkeypatch)
    for _ in range(2):
        assert not build_report(curves.construction(p)).failed()
        assert compared == []


def _count_calls(monkeypatch, names):
    """Count calls to each named ``invariants`` function, through every
    module binding of it."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(invariants, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        for mod in (invariants, curves, cli):
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.mark.parametrize("p", [3, 5, 13])
def test_report_builds_the_weights_once_and_enumerates_pairs_twice(monkeypatch, p):
    calls = _count_calls(monkeypatch, ["form_weights", "invariant_pair_witnesses"])
    assert not build_report(curves.construction(p)).failed()
    # the construction's weights once, and sigma's, which forms.weights
    # derives from the map to compare with them
    assert calls == {"form_weights": 2, "invariant_pair_witnesses": 2}


def test_table_costs_one_weight_build_and_two_enumerations_per_prime(monkeypatch):
    calls = _count_calls(monkeypatch, ["form_weights", "invariant_pair_witnesses"])
    assert [r.p for r in curves.discrepancy_series(13)] == [5, 7, 11, 13]
    assert calls == {"form_weights": 4, "invariant_pair_witnesses": 8}


def test_a_raising_check_records_a_structured_witness(monkeypatch, capsys):
    clean = build_report(curves.construction(5)).to_dict()["checks"]

    def broken(model):
        raise ValueError("genus of a singular model")

    monkeypatch.setattr(cli, "genus", broken)
    checks = build_report(curves.construction(5)).to_dict()["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert [c["id"] for c in failed] == ["curve.genus"]
    assert failed[0]["witness"] == {"error": "ValueError", "detail": "genus of a singular model"}
    assert [c for c in checks if c["id"] != "curve.genus"] == [
        c for c in clean if c["id"] != "curve.genus"
    ]
    code, out, _ = _run(capsys, ["verify", "--p", "5", "--format", "json", "--no-banner"])
    assert code == 1
    assert json.loads(out)["summary"] is None


def test_witness_check_reads_the_twist_of_the_construction():
    # twist 3 at p = 11: 3 is a square mod 11, so tau still exists
    def witness(c):
        return {r.id: r for r in build_report(c).checks}["hodge.witness"]

    real = curves.construction(11)
    assert witness(real).status == "pass"
    assert witness(real).witness == "weights 2 + 4*(p-1)/2 = 2p = 0 mod p"
    perturbed = witness(replaced(real, twist=3))
    assert perturbed.status == "fail"
    assert perturbed.statement.endswith("invariant under (sigma, sigma^3, tau_P)")
    assert perturbed.witness == "weights 2 + 3*(p-1)/2 = 6 mod p"


def test_duplicate_check_id_raises(monkeypatch):
    real = cli.CheckResult
    monkeypatch.setattr(cli, "CheckResult", lambda cid, *rest: real("same.id", *rest))
    with pytest.raises(ValueError, match="duplicate check id same.id"):
        build_report(curves.construction(3))


def test_output_is_byte_stable(capsys):
    first = _run(capsys, ["verify", "--p", "5", "--format", "json", "--no-banner"])
    second = _run(capsys, ["verify", "--p", "5", "--format", "json", "--no-banner"])
    assert first == second
    t1 = _run(capsys, ["table", "--max", "50", "--no-banner"])
    t2 = _run(capsys, ["table", "--max", "50", "--no-banner"])
    assert t1 == t2


def test_table_tsv(capsys):
    code, out, _ = _run(capsys, ["table", "--max", "13", "--no-banner"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p\thX\thY\tgap"
    assert lines[1:5] == ["5\t0\t2\t2", "7\t0\t2\t2", "11\t0\t2\t2", "13\t0\t4\t4"]
    assert lines[5].startswith("# slope = ")


def test_table_json_slope_in_band(capsys):
    code, out, _ = _run(capsys, ["table", "--max", "200", "--format", "json", "--no-banner"])
    assert code == 0
    payload = json.loads(out)
    assert 0.2 <= payload["slope"] <= 0.3
    assert payload["rows"][0] == {"p": 5, "hX": 0, "hY": 2, "gap": 2}


def test_table_rejects_small_max(capsys):
    code, _, err = _run(capsys, ["table", "--max", "3", "--no-banner"])
    assert code == 2
    assert "at least 7" in err


@pytest.mark.parametrize("bound", [5, 6])
def test_table_rejects_a_max_with_one_prime_row(capsys, bound):
    # one row (p = 5) and the slope needs two points: exit 2, not a traceback
    code, out, err = _run(capsys, ["table", "--max", str(bound), "--no-banner"])
    assert code == 2
    assert out == ""
    assert err == "invalid input: --max must be at least 7 (the slope needs two primes)\n"


def test_table_accepts_the_least_max(capsys):
    code, out, _ = _run(capsys, ["table", "--max", "7", "--no-banner"])
    assert code == 0
    assert out.splitlines()[1:] == ["5\t0\t2\t2", "7\t0\t2\t2", "# slope = 0.000000"]


def test_curve_chart_one(capsys):
    code, out, _ = _run(capsys, ["curve", "--p", "5", "--chart", "1", "--no-banner"])
    assert code == 0
    # six coefficient lines, leading coefficient 1
    coeff_lines = [l for l in out.splitlines() if l.strip().startswith("u^")]
    assert len(coeff_lines) == 6
    assert coeff_lines[0].strip() == "u^5: 1"


def test_curve_chart_two(capsys):
    code, out, _ = _run(capsys, ["curve", "--p", "5", "--chart", "2", "--no-banner"])
    assert code == 0
    last = [l for l in out.splitlines() if l.strip().startswith("s^")][-1]
    assert last.strip() == "s^0: 0"
    assert "s^1: 1" in out  # the chart polynomial starts with a bare s


def test_curve_reads_the_family_of_the_construction(monkeypatch, capsys):
    calls = recorded(monkeypatch, curves, "hyperelliptic_family")
    for chart in ("1", "2"):
        assert _run(capsys, ["curve", "--p", "5", "--chart", chart, "--no-banner"])[0] == 0
    assert len(calls) == 2  # one family build per command


def test_every_exported_name_resolves():
    import hodgegap

    namespace = {}
    exec("from hodgegap import *", namespace)
    assert all(name in namespace for name in hodgegap.__all__)


def test_curve_rejects_two(capsys):
    code, _, err = _run(capsys, ["curve", "--p", "2", "--no-banner"])
    assert code == 2
    assert "odd characteristic" in err


def test_banner_appears_only_when_wanted(capsys):
    _, out, _ = _run(capsys, ["table", "--max", "13"])
    assert out.startswith("# hodgegap")
    _, out, _ = _run(capsys, ["table", "--max", "13", "--no-banner"])
    assert not out.startswith("# hodgegap")


BANNER = re.compile(r"^# hodgegap 0\.1\.0 \(\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00\)$")


@pytest.mark.parametrize("argv", [["verify", "--p", "5"], ["table", "--max", "50"]])
def test_banner_is_one_utc_stamp_line_before_the_plain_output(capsys, argv):
    code, out, _ = _run(capsys, argv)
    plain_code, plain, _ = _run(capsys, [*argv, "--no-banner"])
    assert code == plain_code == 0
    first, rest = out.split("\n", 1)
    assert BANNER.match(first), first
    assert rest == plain


# The stdlib modules the package imports; the rest of what a cold
# ``import hodgegap.cli`` loads must be the package itself.
STDLIB_DEPS = (
    "__future__", "functools", "itertools", "json", "math", "operator", "os", "sys", "time",
    "typing",
)


def _loaded_modules(statement):
    code = f"import sys\n{statement}\nprint('\\n'.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_cold_import_loads_only_the_package_beyond_its_stdlib_deps():
    # start-up is most of a small report's wall time, and a stdlib module no
    # check needs costs every run (dataclasses alone pulls inspect, ast, dis)
    baseline = _loaded_modules(f"import {', '.join(STDLIB_DEPS)}")
    extra = _loaded_modules("import hodgegap.cli") - baseline
    assert extra and all(m == "hodgegap" or m.startswith("hodgegap.") for m in extra), sorted(extra)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the README's command-line examples, but the help line
README_LINES = [
    line.split("#")[0].split(None, 1)[1].strip()
    for line in README.split("## Command line", 1)[1].split("```")[1].splitlines()
    if line.startswith("hodgegap ") and "--help" not in line and " -h" not in line
]


def test_a_call_loads_no_argparse_gettext_or_locale():
    # argparse imports gettext, and building its parsers has gettext import
    # locale: about 2.5 ms of every call, more than the checks take at p = 5.
    # Every line the benchmark (golden.json), CI and the README run is read
    # without it
    lines = [*GOLDEN, "curve --p 5 --chart 2", "verify --p 5 --no-banner", *README_LINES]
    assert len(README_LINES) == 6
    code = (
        "import contextlib, io, sys\nfrom hodgegap.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(line.split()) for line in {lines!r}]\n"
        "print(codes)\n"
        "print(' '.join(m for m in ('argparse', 'gettext', 'locale') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [str([0] * len(lines)), ""]


def test_console_module_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "hodgegap", "table", "--max", "13", "--no-banner"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "p\thX\thY\tgap"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["after-banner", "at-exit-flush"])
def test_closed_pipe_exits_quietly(unbuffered):
    # `hodgegap verify --p 61 --format json | head -1`: the reader goes away
    # after the banner (unbuffered) or before anything is written (buffered,
    # the report is flushed at exit); either way no traceback and a non-zero
    # exit.  The pipe holds one page, less than the report, so the report's
    # write meets the closed pipe however soon it comes after the banner
    flags = ["-u"] if unbuffered else []
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    assert fcntl.fcntl(write_end, fcntl.F_GETPIPE_SZ) == 4096
    proc = subprocess.Popen(
        [sys.executable, *flags, "-m", "hodgegap", "verify", "--p", "61", "--format", "json"],
        stdout=write_end,
        stderr=subprocess.PIPE,
        text=True,
    )
    os.close(write_end)
    with os.fdopen(read_end) as out:
        first = out.readline() if unbuffered else None
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == ""
    if unbuffered:
        assert first.startswith("# hodgegap ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_write_error_is_one_line_on_stderr():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "hodgegap", "verify", "--p", "3"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
        )
    assert proc.returncode == 1
    assert proc.stderr == "hodgegap: cannot write output: No space left on device\n"


def test_optimised_interpreter_gives_the_same_report():
    # python -O strips assert statements; no check may depend on one
    argv = ["-m", "hodgegap", "verify", "--p", "5", "--format", "json", "--no-banner"]
    plain = subprocess.run([sys.executable, *argv], capture_output=True)
    optimised = subprocess.run([sys.executable, "-O", *argv], capture_output=True)
    assert plain.returncode == optimised.returncode == 0
    assert optimised.stdout == plain.stdout


GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["sha256"]


def test_report_composes_the_family_only_when_the_substitution_fails(monkeypatch):
    # the substitution pulls the xy model h back along pi*u + 1 by the
    # chain, and sigma, x -> zeta*x on it, only scales it; the dense family
    # is composed only after f = h(pi*u + 1) failed, once, by sigma's chain
    taken = compose_paths(monkeypatch)
    c = curves.construction(13)
    assert not build_report(c).failed()
    xy = c.xy.f.coeffs
    assert [path for path, coeffs in taken if coeffs == xy] == ["chain", "scale"]
    assert all(coeffs != c.family.f.coeffs for _, coeffs in taken)
    taken.clear()
    half = PERTURBATIONS["f-plus-half"][0](curves.construction(13))
    failed = {r.id for r in build_report(half).failed()}
    assert "curve.substitution" in failed and "action.sigma_preserves" not in failed
    assert [path for path, coeffs in taken if coeffs == half.family.f.coeffs] == ["chain"]


# SHA-256 of ``curve --p P --chart C --no-banner``, recorded before the
# per-prime construction data moved into ``curves.construction``
CURVE_DIGESTS = {
    (3, 1): "120bdef616057abb9aa79b452e05cd24ec306f25db3bba4ea783702941159a19",
    (3, 2): "ee8bafea5bbdb81c6d0e4052e6882b9c50d3457b0df965187931be9f984f10e4",
    (5, 1): "2fba7b10d2f0b959d5d878da87195a253e18e0c85a6fa051474797447442f138",
    (5, 2): "c7ca780cd90345d22d3a97094254c196a050ee4d901a67e9f14c8a0bec2c7d06",
    (7, 1): "2c94b746878a59c5fb9ac69b23425ac6c186dcadf1ea7af5db69d8c96da3865d",
    (7, 2): "c00f92a2fea6842f8e990a7908232b0463f0ef2abfb4790159548c0b53f292e8",
    (13, 1): "d9ff761ce5757853bae5cbedcc252471c5cbcaf23ad563b449fa41311071bdc0",
    (13, 2): "2d599cbc4ffa0ceb98304ff2c45b4cbb4ba9c6c844759f5c36c3b57c21fc4b5b",
}


# SHA-256 of the text report at p = 3 and 5, and of the JSON report at p = 43,
# 61, 101, 211 and 401 (past the golden digests' p = 37), recorded before the
# checks became the ``cli.CHECKS`` table (p = 101: before the powers,
# evaluations and cyclotomic products shared one kernel each; p = 211: before
# the split-prime squarefree certificate and the prefix-sum division by pi;
# p = 401: before compose's binomial chain and the mod 2^61 - 1 certificate of
# the rational kernel), and of the JSON table to 1000, recorded while its
# slope was the float of a Fraction; the text report at p = 13 and the text
# table to 200, recorded before the engine was built from the image of zeta
VERIFY_DIGESTS = {
    "verify --p 3 --no-banner": "55921a9926e69247f19622872f5cc526766099ef94c59a163eb19ab8cdb87525",
    "verify --p 5 --no-banner": "5af8a6657e0efdfc6183a26af6166c648a0d529668d90adc7baf44aaa5279e29",
    "verify --p 13 --no-banner": (
        "cc0e81765fd25d56dfe62e159ead0d5ed864a8692badf1f49fb566ea2ba5e5ab"
    ),
    "verify --p 43 --format json --no-banner": (
        "90eedc0b1e03eebca8b471a99a1e7aa3b2427ed9a8e3836a317a14dda74c00a1"
    ),
    "verify --p 61 --format json --no-banner": (
        "896f3f2435dc97b0f4877db29f2d22ada7a9bd52086eff67720962e60394fe24"
    ),
    "verify --p 101 --format json --no-banner": (
        "6a26f85a342d94903228e4db98456509ae195c5d2fee9bdfaa95e2582949dc28"
    ),
    "verify --p 211 --format json --no-banner": (
        "f0153dff4ca5357d1971237012b92546e995fd44d8b55cef4a4ba373be170a85"
    ),
    "verify --p 401 --format json --no-banner": (
        "f2b414a7b81105548e751d85a803780c51d16674b35227b5dbaae78aae50ef5a"
    ),
    "table --max 1000 --format json --no-banner": (
        "aac4c96698e3bd458df9dd572350d54e6b5c1902804564abd0e822053992a7a7"
    ),
    "table --max 200 --no-banner": (
        "1594cb0d80f5092d0e8b41333b68116f22c2ff7bb7c2ef3daf55d440ffe535d4"
    ),
}


def _digest(capsys, argv):
    code, out, _ = _run(capsys, argv)
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [f"verify --p {p} --format json --no-banner" for p in (3, 5, 7, 11, 13, 17, 23)]
    + ["table --max 1000 --no-banner"],
)
def test_report_bytes_match_the_golden_digests(capsys, argv):
    assert _digest(capsys, argv.split()) == GOLDEN[argv]


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS))
def test_text_and_large_prime_report_bytes_are_pinned(capsys, argv):
    assert _digest(capsys, argv.split()) == VERIFY_DIGESTS[argv]


@pytest.mark.parametrize("p, chart", sorted(CURVE_DIGESTS))
def test_curve_bytes_are_pinned(capsys, p, chart):
    argv = ["curve", "--p", str(p), "--chart", str(chart), "--no-banner"]
    assert _digest(capsys, argv) == CURVE_DIGESTS[p, chart]


def _argparse_oracle():
    """The parser that main built with argparse before it read COMMANDS."""
    parser = argparse.ArgumentParser(prog="hodgegap")
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify")
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--format", choices=["text", "json"], default="text")
    pv.add_argument("--no-banner", action="store_true")
    pt = sub.add_parser("table")
    pt.add_argument("--max", type=int, required=True)
    pt.add_argument("--format", choices=["tsv", "json"], default="tsv")
    pt.add_argument("--no-banner", action="store_true")
    pc = sub.add_parser("curve")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--chart", type=int, choices=[1, 2], default=1)
    pc.add_argument("--no-banner", action="store_true")
    return parser


def _oracle(argv, parser=None):
    """How the oracle reads ``argv``: (fields or None, exit code, stdout,
    stderr); the exit code is None when it accepts the line."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            fields, code = vars((parser or _argparse_oracle()).parse_args(argv)), None
    except SystemExit as exc:
        fields, code = None, exc.code
    return fields, code, out.getvalue(), err.getvalue()


def test_bad_subcommand_exits_two(capsys):
    code, out, err = _run(capsys, ["frobnicate"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: hodgegap [-h] {verify,table,curve} ...\n")
    assert "hodgegap: error: argument command: invalid choice: 'frobnicate'" in err
    assert err == _oracle(["frobnicate"])[3]


# accepted: each form of a flag and its value, prefixes, repeats, any order
# and values that look like options; help: -h or --help, or a prefix of it,
# before any error that stops argparse on the spot; rejected: an unknown
# command or flag, a missing or extra value, a non-int, a bad choice, a
# missing required flag
GRAMMAR = {
    "accepted": [
        "verify --p 5", "verify --p=5 --format json --no-banner",
        "verify --no-banner --format=json --p 7", "verify --fo json --n --p 5",
        "verify --p 5 --p 7", "verify --format json --format text --p 3",
        "verify --p -5", "verify --p 1_3", "verify --p ' 5'", "table --max 13",
        "table --m=200 --f json", "table --max 7 --no-banner --no-banner",
        "curve --p 5 --chart 2", "curve --p 5 --c=01", "curve --ch 2 --p 3 --no",
    ],
    "help": [
        "-h", "--help", "--he", "verify -h", "table --help", "curve --p 5 --h",
        "verify --bogus --help", "--bogus --help",
    ],
    "rejected": [
        "", "frobnicate", "--p 5 verify", "verify", "verify --p", "verify --p --format json",
        "verify --p x", "verify --p 5.0", "verify --p 5 --format xml", "verify --p 5 --bogus",
        "verify --p 5 extra", "verify --p 5 --no-banner=yes", "verify --p 5 --max 9",
        "table --max", "table --max 13 --format text", "curve --p 5 --chart 3",
        "curve --p 5 --chart two", "verify --p x --help", "verify --help=yes",
        "--bogus",
    ],
}


@pytest.mark.parametrize(
    "kind, line", [(kind, line) for kind, lines in GRAMMAR.items() for line in lines]
)
def test_parse_args_reads_argv_as_argparse_did(monkeypatch, capsys, kind, line):
    argv = shlex.split(line)
    fields, expected, oracle_out, oracle_err = _oracle(argv)
    assert {None: "accepted", 0: "help", 2: "rejected"}[expected] == kind
    assert cli.parse_args(argv) in (None, fields)
    read = []  # the fields main hands to its input check, which then stops it
    monkeypatch.setattr(cli, "_input_error", lambda args: read.append(args) or "read")
    code, out, err = _run(capsys, argv)
    if kind == "accepted":
        assert (code, out, err, read) == (2, "", "read\n", [fields])
    elif kind == "help":
        assert (code, err, read) == (0, "", [])
        # the usage, the first paragraph of the help; the rest differs, since
        # the oracle's parsers have no help lines
        assert out.split("\n\n")[0] == oracle_out.split("\n\n")[0]
        assert out.startswith("usage: hodgegap ")
    else:
        assert (code, out, err, read) == (2, "", oracle_err, [])


@pytest.mark.parametrize(
    "argv, command",
    [(["-h"], None), (["--help"], None), (["verify", "--help"], "verify"),
     (["table", "-h"], "table"), (["curve", "--p", "9", "--he"], "curve")],
)
def test_help_prints_the_usage_on_stdout_and_exits_zero(capsys, argv, command):
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out.split("\n\n")[0] == _oracle(argv)[2].split("\n\n")[0]
    assert out.startswith(f"usage: hodgegap {command or '[-h]'} ")
    text, flags = cli.COMMANDS[command] if command else (
        "exact verification of the two-liftings Hodge-number gap", cli.COMMANDS)
    assert f"\n\n{text}\n" in out
    for flag in flags:
        assert flag in out


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_commands_help_describes_each_flag(capsys, command):
    # each flag's invocation, then its help text from COMMANDS, whitespace
    # folded, since argparse wraps to the terminal's width
    code, out, err = _run(capsys, [command, "--help"])
    assert (code, err) == (0, "")
    out = " ".join(out.split())
    for flag, (kind, choices, _, text) in cli.COMMANDS[command][1].items():
        if kind is None:
            invocation = flag
        elif choices:
            invocation = f"{flag} {{{','.join(map(str, choices))}}}"
        else:
            invocation = f"{flag} {flag[2:].upper()}"
        assert text and f" {invocation} {' '.join(text.split())}" in out, flag


def _fully_spelled_lines(rng, count):
    """``count`` seeded command lines of whole tokens: a command (or a stray
    token in its place), mostly a required flag with a value, then flags
    spelled out in full, each with a value or not, drawn from values that
    argparse reads in different ways."""
    commands = ["verify", "table", "curve"]
    flags = ["--p", "--max", "--format", "--chart", "--no-banner"]
    values = [
        "3", "5", "7", "13", "200", "-5", "-1", "+5", "01", "1_3", " 5", "5 ", "5.0", "x", "",
        "\u0665", "text", "json", "tsv", "xml", "1", "2", "-", "--", "--p", "-1_3",
    ]
    for _ in range(count):
        line = [rng.choice(commands)] if rng.random() < 0.95 else [rng.choice(values + flags)]
        if rng.random() < 0.8:  # a required flag, of this command or another
            line += [rng.choice(["--p", "--max"]), rng.choice(["3", "5", "7", "13", "200"])]
        for _ in range(rng.randint(0, 3)):
            flag = rng.choice(flags) if rng.random() < 0.95 else rng.choice(["-h", "--help"])
            line.append(flag)
            if flag in ("--p", "--max") and rng.random() < 0.6:
                line.append(rng.choice(["3", "5", "7", "13", "200"]))
            elif rng.random() < 0.9 and flag in flags[:4]:
                line.append(rng.choice(values))
            elif rng.random() < 0.1:
                line.append(rng.choice(values))
        yield line


def test_parse_args_takes_only_lines_that_argparse_reads_the_same_way():
    # the recognizer returns None or exactly the oracle's fields, on 20,000
    # seeded lines (None leaves the line to argparse, so only the lines it
    # takes need the oracle); it must take a fair share of them, 3,008 of
    # the oracle's 3,035, or the check says little
    parser, taken = _argparse_oracle(), 0
    for argv in _fully_spelled_lines(random.Random(3939), 20_000):
        found = cli.parse_args(argv)
        if found is not None:
            assert found == _oracle(argv, parser)[0], argv
            taken += 1
    assert taken > 2_000
