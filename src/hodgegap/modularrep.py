"""The augmentation ideal of Z[Z/p] as a model for H_1 of the curve.

The ideal I has basis g^i - 1 (i = 1..p-1) and the generator acts by
g*(g^i - 1) = (g^{i+1} - 1) - (g - 1), wrapping to -(g - 1) at i = p-1.
Only the fixed space of g is ever read, so the module stores no g: it writes
down the matrix of g - 1 on that basis directly (:func:`g_minus_one`).
Its kernel vanishes over Q, while over F_p the norm element survives and
contributes one dimension; feeding those into the product threefold gives
first de Rham numbers 4 (special fibre) against 2 (generic fibre), and the
difference is the F_p-dimension of p-torsion in the middle crystalline
cohomology of the common special fibre.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import is_prime, kernel_dim_mod_p, kernel_dim_rational


def g_minus_one(p: int) -> list[list[int]]:
    """The matrix of g - 1 on the basis {g^i - 1}: column j is the image of
    g^{j+1} - 1, so entry (i, j) is [i = j+1] - [i = 0] - [i = j]."""
    if p < 2:
        raise ValueError("group order must be at least 2")
    n = p - 1
    return [[(i == j + 1) - (i == 0) - (i == j) for j in range(n)] for i in range(n)]


class H1Report(NamedTuple):
    h1_special: int
    h1_generic: int
    torsion_dim: int


def h1_de_rham_report(p: int) -> H1Report:
    """First de Rham numbers of the quotient threefold on both fibres.

    Each curve factor contributes the invariants of I, the kernel of g - 1
    (over F_p on the special fibre, where the norm spans it, and over Q on
    the generic one, where it is zero); the elliptic factor always
    contributes 2; the universal-coefficient gap is the p-torsion dimension
    of the middle crystalline group.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"need an odd prime, got {p}")
    m = g_minus_one(p)
    special = 2 * kernel_dim_mod_p(m, p) + 2
    generic = 2 * kernel_dim_rational(m) + 2
    return H1Report(special, generic, special - generic)
