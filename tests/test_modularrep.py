import pytest
from conftest import recorded

from hodgegap import algebra
from hodgegap.algebra import kernel_dim_mod_p, kernel_dim_rational, primes_upto
from hodgegap.modularrep import H1Report, g_minus_one, h1_de_rham_report


def _matrix_by_group_ring(p):
    # oracle: multiply inside Z[Z/p] directly.  An element sum c_j g^j with
    # augmentation zero has coordinates (c_1, ..., c_{p-1}) in the basis
    # {g^j - 1}, since sum c_j (g^j - 1) differs from it by (sum c_j) * 1.
    n = p - 1
    cols = []
    for i in range(1, p):
        vec = [0] * p
        vec[i] += 1
        vec[0] -= 1  # g^i - 1
        shifted = [0] * p
        for j, c in enumerate(vec):  # multiply by g
            shifted[(j + 1) % p] += c
        assert sum(shifted) == 0
        cols.append(shifted[1:])
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def generator(p):
    """g = (g - 1) + I."""
    m = g_minus_one(p)
    return tuple(tuple(x + (i == j) for j, x in enumerate(row)) for i, row in enumerate(m))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_matrix_matches_group_ring_oracle(p):
    assert generator(p) == _matrix_by_group_ring(p)


def test_p3_matrix_is_the_expected_two_by_two():
    assert g_minus_one(3) == [[-2, -1], [1, -1]]


def test_build_rejects_tiny_p():
    with pytest.raises(ValueError):
        g_minus_one(1)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def generator_power(p, k):
    acc = _identity(p - 1)
    for _ in range(k):
        acc = _mat_mul(generator(p), acc)
    return acc


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_generator_has_order_p(p):
    assert generator_power(p, p) == _identity(p - 1)
    for k in range(1, p):
        assert generator_power(p, k) != _identity(p - 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_norm_kills_the_augmentation_ideal(p):
    n = p - 1
    total = [[0] * n for _ in range(n)]
    for k in range(p):
        mk = generator_power(p, k)
        for i in range(n):
            for j in range(n):
                total[i][j] += mk[i][j]
    assert all(all(e == 0 for e in row) for row in total)


def test_determinant_is_unimodular_p5():
    # order-p integer matrix: the 4x4 case has det 1 (even permutation-like),
    # checked by brute cofactor expansion
    m = generator(5)

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        return sum(
            (-1) ** j * mat[0][j] * det([row[:j] + row[j + 1 :] for row in mat[1:]])
            for j in range(len(mat))
        )

    assert det([list(r) for r in m]) in (1, -1)


def test_invariant_dimensions():
    for p in primes_upto(50):
        if p < 3:
            continue
        m = g_minus_one(p)
        assert kernel_dim_rational(m) == 0
        assert kernel_dim_mod_p(m, p) == 1


def test_identity_control_has_full_invariants():
    # subtracting the identity from itself leaves the zero map
    assert kernel_dim_rational([[0, 0], [0, 0]]) == 2


@pytest.mark.parametrize("p", [3, 5, 7])
def test_h1_report_values(p):
    assert h1_de_rham_report(p) == H1Report(4, 2, 2)


def test_h1_report_all_small_primes():
    for p in primes_upto(50):
        if p < 3:
            continue
        r = h1_de_rham_report(p)
        assert (r.h1_special, r.h1_generic, r.torsion_dim) == (4, 2, 2)


def test_h1_report_never_runs_bareiss(monkeypatch):
    # g - 1 has no kernel mod 2^61 - 1, which certifies its zero kernel over
    # Q, so the report never reaches the fraction-free elimination
    calls = recorded(monkeypatch, algebra, "_bareiss_kernel_dim")
    for p in primes_upto(61)[1:]:
        assert h1_de_rham_report(p) == H1Report(4, 2, 2)
    assert calls == []


def test_h1_report_rejects_bad_p():
    with pytest.raises(ValueError):
        h1_de_rham_report(4)
    with pytest.raises(ValueError):
        h1_de_rham_report(2)
