import pytest

from hodgegap import curves, invariants
from hodgegap.algebra import primes_upto
from hodgegap.invariants import (
    DiagonalAction,
    discrepancy_series,
    form_weights,
    hodge30_pair,
    hy_interval_count,
    invariant_pair_witnesses,
    kunneth_h30_invariant_dim,
    least_squares_slope,
    witness_form_check,
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
    assert kunneth_h30_invariant_dim(w5, w5, DiagonalAction(5, (1, 1, 1))) == 0
    assert kunneth_h30_invariant_dim(w5, w5, DiagonalAction(5, (1, 4, 1))) == 2
    assert invariant_pair_witnesses(w5, w5, DiagonalAction(5, (1, 4, 1))) == [(1, 1), (2, 2)]

    w3 = form_weights(3, 1, 4)
    assert kunneth_h30_invariant_dim(w3, w3, DiagonalAction(3, (1, 1, 1))) == 5
    assert kunneth_h30_invariant_dim(w3, w3, DiagonalAction(3, (1, 2, 1))) == 6


def test_kunneth_modulus_mismatch():
    with pytest.raises(ValueError):
        kunneth_h30_invariant_dim(
            form_weights(5, 1, 2), form_weights(7, 1, 3), DiagonalAction(5, (1, 1, 1))
        )


def test_witness_form_check():
    assert witness_form_check(5)  # 2 + 4*2 = 10
    assert witness_form_check(7)  # 2 + 4*3 = 14
    assert witness_form_check(13)
    with pytest.raises(ValueError):
        witness_form_check(3)


def test_hodge_pairs():
    assert hodge30_pair(3) == (5, 6)
    assert hodge30_pair(5) == (0, 2)
    assert hodge30_pair(13) == (0, 4)
    with pytest.raises(ValueError):
        hodge30_pair(2)


@pytest.mark.parametrize("count", [1, 0], ids=["hX-nonzero", "hY-zero"])
def test_hodge30_pair_raises_on_impossible_counts(monkeypatch, count):
    monkeypatch.setattr(invariants, "kunneth_h30_invariant_dim", lambda *args: count)
    with pytest.raises(ArithmeticError):
        hodge30_pair(7)


def test_hx_vanishes_for_all_tested_primes():
    # weights live in [1, (p-1)/2], so a sum of two is in [2, p-1]: never zero
    for p in primes_upto(97):
        if p >= 5:
            assert hodge30_pair(p)[0] == 0


def test_conjugate_actions_give_the_same_count():
    for p in (5, 7, 11, 13):
        w = form_weights(p, 1, (p - 1) // 2)
        base = kunneth_h30_invariant_dim(w, w, DiagonalAction(p, (1, 4, 1)))
        for c in range(1, p):
            scaled = kunneth_h30_invariant_dim(w, w, DiagonalAction(p, (c, (4 * c) % p, 1)))
            assert scaled == base


def test_swapping_the_two_multipliers_is_symmetric():
    for p in (5, 7, 11, 13):
        w = form_weights(p, 1, (p - 1) // 2)
        for a in range(1, p):
            for b in range(1, p):
                ab = kunneth_h30_invariant_dim(w, w, DiagonalAction(p, (a, b, 1)))
                ba = kunneth_h30_invariant_dim(w, w, DiagonalAction(p, (b, a, 1)))
                assert ab == ba


def test_pair_count_matches_the_listed_pairs():
    # the report's hY is the count and its hY_pairs the list: they must agree
    for p in [3] + [p for p in primes_upto(97) if p >= 5]:
        w = form_weights(p, 1, curves.construction(p).genus)
        for b in range(1, p):
            action = DiagonalAction(p, (1, b, 1))
            pairs = invariant_pair_witnesses(w, w, action)
            assert kunneth_h30_invariant_dim(w, w, action) == len(pairs)


def test_discrepancy_rows():
    rows = {r.p: r for r in discrepancy_series(13)}
    assert (rows[5].h_x, rows[5].h_y, rows[5].gap) == (0, 2, 2)
    assert (rows[7].h_x, rows[7].h_y, rows[7].gap) == (0, 2, 2)
    assert (rows[13].h_x, rows[13].h_y, rows[13].gap) == (0, 4, 4)
    with pytest.raises(ValueError):
        discrepancy_series(4)


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
