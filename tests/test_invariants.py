import random
from fractions import Fraction

import pytest
from conftest import replaced

from hodgegap import curves, invariants
from hodgegap.algebra import primes_upto
from hodgegap.cli import build_report
from hodgegap.invariants import (
    discrepancy_series,
    form_weights,
    hodge30_pair,
    hy_interval_count,
    invariant_pair_witnesses,
    least_squares_slope,
    witness_form_weight,
)


def test_form_weights_examples():
    assert form_weights(5, 1, 2).weights == (1, 2)
    assert form_weights(3, 1, 4).weights == (0, 1, 1, 2)
    assert form_weights(7, 1, 3).weights == (1, 2, 3)


def test_form_weights_by_acting_on_basis_forms():
    # oracle: weight of x^(k-1) dx/y under x -> zeta^a x is a*k, found by
    # tracking the monomial exponent (k-1) + 1 directly
    for p, a, g in [(5, 1, 2), (7, 3, 3), (11, 2, 5)]:
        expected = sorted((a * ((k - 1) + 1)) % p for k in range(1, g + 1))
        assert list(form_weights(p, a, g).weights) == expected


def test_form_weights_equivariance():
    for p, g in [(5, 2), (7, 3), (13, 6)]:
        base = form_weights(p, 1, g)
        for a in range(1, p):
            twisted = form_weights(p, a, g)
            assert twisted.weights == tuple(sorted((a * w) % p for w in base.weights))


def test_form_weights_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        form_weights(5, 5, 2)


def test_kunneth_examples():
    w5 = form_weights(5, 1, 2)
    assert len(invariant_pair_witnesses(w5, 1)) == 0
    assert len(invariant_pair_witnesses(w5, 4)) == 2
    assert invariant_pair_witnesses(w5, 4) == [(1, 1), (2, 2)]

    w3 = form_weights(3, 1, 4)
    assert len(invariant_pair_witnesses(w3, 1)) == 5
    assert len(invariant_pair_witnesses(w3, 2)) == 6


def test_witness_form_check():
    assert witness_form_weight(form_weights(5, 1, 2), 4) == 0  # 2 + 4*2 = 10
    assert witness_form_weight(form_weights(7, 1, 3), 4) == 0  # 2 + 4*3 = 14
    assert witness_form_weight(form_weights(13, 1, 6), 4) == 0
    assert witness_form_weight(form_weights(7, 1, 3), 1) == 5  # 2 + 1*3
    with pytest.raises(ValueError):
        witness_form_weight(form_weights(3, 1, 4), 2)


def test_witness_form_check_fails_for_twist_three():
    # control: 2 + 3*(p-1)/2 = (p + 1)/2 mod p, never 0
    for p in primes_upto(97):
        if p < 5:
            continue
        c = curves.construction(p)
        assert witness_form_weight(c.weights, c.twist) == 0
        perturbed = replaced(c, twist=3)
        assert witness_form_weight(perturbed.weights, perturbed.twist) == (p + 1) // 2


def test_hodge_pairs():
    assert hodge30_pair(3) == (5, 6)
    assert hodge30_pair(5) == (0, 2)
    assert hodge30_pair(13) == (0, 4)
    with pytest.raises(ValueError):
        hodge30_pair(2)


@pytest.mark.parametrize(
    "twist, pairs, message",
    [(1, [(0, 0)], "untwisted"), (4, [], "interval count")],
    ids=["hX-nonzero", "hY-zero"],
)
def test_impossible_counts_fail_the_table_and_the_report(monkeypatch, twist, pairs, message):
    # one twist's pairs replaced, the other's left as they are, so each
    # guard of the table is reached on its own
    real = invariants.invariant_pair_witnesses

    def changed(w, t):
        return pairs if t == twist else real(w, t)

    monkeypatch.setattr(invariants, "invariant_pair_witnesses", changed)
    monkeypatch.setattr(curves, "construction", curves.construction.__wrapped__)
    with pytest.raises(AssertionError, match=message):
        discrepancy_series(7)
    assert [r.id for r in build_report(curves.construction(7)).failed()] == ["hodge.h30.pair"]


def test_hx_vanishes_for_all_tested_primes():
    # weights live in [1, (p-1)/2], so a sum of two is in [2, p-1]: never zero
    for p in primes_upto(97):
        if p >= 5:
            assert hodge30_pair(p)[0] == 0


def test_conjugate_actions_give_the_same_count():
    # (sigma^c, sigma^4c, tau_P) generates the group of (sigma, sigma^4, tau_P);
    # its pairs are those of twist 4 on the weights scaled by c
    for p in (5, 7, 11, 13):
        g = (p - 1) // 2
        base = len(invariant_pair_witnesses(form_weights(p, 1, g), 4))
        for c in range(1, p):
            assert len(invariant_pair_witnesses(form_weights(p, c, g), 4)) == base


def test_swapping_the_two_multipliers_is_symmetric():
    # swapping the curve factors turns (sigma, sigma^t) into (sigma^t, sigma),
    # which generates the group of (sigma, sigma^(1/t))
    for p in (5, 7, 11, 13):
        w = form_weights(p, 1, (p - 1) // 2)
        for t in range(1, p):
            inverse = pow(t, -1, p)
            assert len(invariant_pair_witnesses(w, t)) == len(invariant_pair_witnesses(w, inverse))


def _nested_pairs(w, twist):
    # oracle: every (x, y) in w x w, kept when the twisted weights cancel
    return [(x, y) for x in w.weights for y in w.weights if (x + twist * y) % w.p == 0]


def test_pair_count_matches_the_listed_pairs():
    # the indexed enumeration must list the same pairs, in the same order, as
    # the product walk: the report's hY is their number, hY_pairs the list
    rng = random.Random(6061)
    for p in [3] + [p for p in primes_upto(97) if p >= 5]:
        g = curves.construction(p).genus
        cases = [(form_weights(p, 1, g), t) for t in range(1, p)]
        for _ in range(5):  # scaled weights, any twist including 0
            cases.append((form_weights(p, rng.randint(1, p - 1), g), rng.randrange(p)))
        for w, t in cases:
            assert invariant_pair_witnesses(w, t) == _nested_pairs(w, t)


def test_discrepancy_rows():
    rows = {r.p: r for r in discrepancy_series(13)}
    assert (rows[5].h_x, rows[5].h_y, rows[5].gap) == (0, 2, 2)
    assert (rows[7].h_x, rows[7].h_y, rows[7].gap) == (0, 2, 2)
    assert (rows[13].h_x, rows[13].h_y, rows[13].gap) == (0, 4, 4)
    with pytest.raises(ValueError):
        discrepancy_series(4)
    # the bound is inclusive: p_max = 5 keeps exactly the row for 5
    assert [(r.p, r.h_x, r.h_y, r.gap) for r in discrepancy_series(5)] == [(5, 0, 2, 2)]


def test_interval_count_matches_enumeration_up_to_500():
    for p in primes_upto(500):
        if p < 5:
            continue
        assert hodge30_pair(p)[1] == hy_interval_count(p)


def test_slope_lands_in_the_linear_band():
    rows = discrepancy_series(500)
    slope = least_squares_slope([(r.p, r.h_y) for r in rows])
    assert 0.2 <= slope <= 0.3


def test_least_squares_slope_on_exact_line():
    assert least_squares_slope([(1, 3), (2, 5), (3, 7)]) == 2.0
    with pytest.raises(ValueError):
        least_squares_slope([(1, 1)])


def _fraction_slope(points):
    """The oracle: the slope sum((x - mx)(y - my)) / sum((x - mx)^2) in
    Fractions about the exact means, rounded to a float once at the end."""
    mx = Fraction(sum(x for x, _ in points), len(points))
    my = Fraction(sum(y for _, y in points), len(points))
    num = sum((x - mx) * (y - my) for x, y in points)
    return float(num / sum((x - mx) ** 2 for x, _ in points))


def test_slope_is_the_correctly_rounded_fraction():
    rows = invariants.discrepancy_series(1000)
    points = [(r.p, r.h_y) for r in rows]
    assert least_squares_slope(points) == _fraction_slope(points)
    # sums far beyond 2^53: rounding numerator and denominator to floats
    # before dividing would miss the correctly rounded slope on some sets
    rng = random.Random(2024)
    naive_misses = 0
    for _ in range(200):
        points = [(rng.randrange(2**60), rng.randrange(2**70)) for _ in range(rng.randrange(2, 9))]
        n = len(points)
        sx, sy = sum(x for x, _ in points), sum(y for _, y in points)
        num = n * sum(x * y for x, y in points) - sx * sy
        den = n * sum(x * x for x, _ in points) - sx * sx
        assert least_squares_slope(points) == _fraction_slope(points)
        naive_misses += float(num) / float(den) != _fraction_slope(points)
    assert naive_misses > 0
