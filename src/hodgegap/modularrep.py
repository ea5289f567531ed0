"""The augmentation ideal of Z[Z/p] as a model for H_1 of the curve.

The ideal I has basis g^i - 1 (i = 1..p-1) and the generator acts by
g*(g^i - 1) = (g^{i+1} - 1) - (g - 1), wrapping to -(g - 1) at i = p-1.
Invariants of I over Q vanish, while over F_p the norm element survives and
contributes one dimension; feeding those into the product threefold gives
first de Rham numbers 4 (special fibre) against 2 (generic fibre), and the
difference is the F_p-dimension of p-torsion in the middle crystalline
cohomology of the common special fibre.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import MatrixModP, is_prime, kernel_dim_mod_p, kernel_dim_rational


@dataclass(frozen=True)
class AugmentationModule:
    """Generator action on the basis {g^i - 1} of the augmentation ideal;
    column j holds the image of g^{j+1} - 1."""

    p: int
    generator_matrix: tuple[tuple[int, ...], ...]


def build_augmentation(p: int) -> AugmentationModule:
    if p < 2:
        raise ValueError("group order must be at least 2")
    n = p - 1
    cols = []
    for j in range(1, p):
        image = [0] * n
        image[0] -= 1  # the -(g - 1) term
        if j + 1 <= n:
            image[j] += 1
        cols.append(image)
    rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return AugmentationModule(p, rows)


def invariant_dim_rational(mod: AugmentationModule) -> int:
    """dim over Q of the fixed space of g; zero, since I tensor Q is a sum of
    nontrivial characters."""
    m = mod.generator_matrix
    n = len(m)
    shifted = [[m[i][j] - (1 if i == j else 0) for j in range(n)] for i in range(n)]
    return kernel_dim_rational(shifted)


def invariant_dim_mod_p(mod: AugmentationModule) -> int:
    """dim over F_p of the fixed space of g; one, spanned by the norm."""
    m = mod.generator_matrix
    n = len(m)
    shifted = MatrixModP(
        mod.p,
        tuple(
            tuple(m[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
        ),
    )
    return kernel_dim_mod_p(shifted)


@dataclass(frozen=True)
class H1Report:
    h1_special: int
    h1_generic: int
    torsion_dim: int


def h1_de_rham_report(p: int) -> H1Report:
    """First de Rham numbers of the quotient threefold on both fibres.

    Each curve factor contributes the invariants of I (tensored with F_p on
    the special fibre, with Q on the generic one), the elliptic factor always
    contributes 2; the universal-coefficient gap is the p-torsion dimension
    of the middle crystalline group.
    """
    if not is_prime(p) or p < 3:
        raise ValueError(f"need an odd prime, got {p}")
    mod = build_augmentation(p)
    special = 2 * invariant_dim_mod_p(mod) + 2
    generic = 2 * invariant_dim_rational(mod) + 2
    return H1Report(special, generic, special - generic)
