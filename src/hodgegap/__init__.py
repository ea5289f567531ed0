"""Exact-arithmetic reconstruction of a characteristic-p threefold with two
liftings whose h^{3,0} differ, verified identity by identity.

The pieces: cyclotomic integer arithmetic with pi-adic valuations
(:mod:`.cyclotomic`), polynomials, finite fields and exact kernels
(:mod:`.algebra`), the ramified hyperelliptic family and its automorphisms
(:mod:`.curves`), small elliptic-curve searches (:mod:`.elliptic`), character
counts of invariant 3-forms (:mod:`.invariants`), the augmentation-ideal
model of H^1 (:mod:`.modularrep`) and a reporting CLI (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .algebra import FiniteField, FqElement, Polynomial
from .curves import AffineCurveMap, HyperellipticModel, hyperelliptic_family
from .cyclotomic import CycloElement, CyclotomicField, PiSpec, cyclotomic_field
from .elliptic import CurvePoint, EllipticCurve
from .invariants import DiagonalAction, WeightMultiset, hodge30_pair
from .modularrep import AugmentationModule, H1Report, h1_de_rham_report

__all__ = [
    "AffineCurveMap",
    "AugmentationModule",
    "CurvePoint",
    "CycloElement",
    "CyclotomicField",
    "DiagonalAction",
    "EllipticCurve",
    "FiniteField",
    "FqElement",
    "H1Report",
    "HyperellipticModel",
    "PiSpec",
    "Polynomial",
    "WeightMultiset",
    "cyclotomic_field",
    "h1_de_rham_report",
    "hodge30_pair",
    "hyperelliptic_family",
    "__version__",
]
