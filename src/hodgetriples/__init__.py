"""Exact Hodge and Poincare polynomials of moduli spaces of rank-2 pairs
and rank-(2,1)/(1,2) holomorphic triples over a smooth projective curve of
genus g >= 2.

All computations are exact: Laurent polynomials over arbitrary-precision
integers, rational stability parameters, and truncated formal power series
for coefficient extraction.  Each headline quantity is computed along at
least two independent pipelines that are cross-checked for exact agreement
(see :mod:`hodgetriples.verify`).
"""

from .blocks import GenusOutOfRange, TypeVector, chi_triples, jacobian, moduli_11, proj_space, sym_power
from .laurent import (
    ONE,
    UV,
    ZERO,
    LaurentPoly,
    NotDivisible,
    NotMonomial,
    OrderExceeded,
    TruncatedSeries,
    U,
    UniPoly,
    V,
    monomial,
)
from .triples import (
    EmptyFamily,
    EvenDegree,
    HodgeResult,
    OnWall,
    RankMismatch,
    StabilityValue,
    TripleSpec,
    WallAtSigmaM,
    chamber_d0,
    chamber_representatives,
    critical_values,
    flip_difference,
    flip_difference_series,
    hodge_bundles_odd,
    hodge_bundles_via_triples,
    hodge_pairs,
    hodge_triples_closed,
    hodge_triples_sum,
    pair_chamber_representatives,
    poincare_pairs_fixed_det_thaddeus,
)
from .verify import CheckReport, DegeneratePoles, VerifyGrid, residue_extract_check, run_suite

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DegeneratePoles",
    "EmptyFamily",
    "EvenDegree",
    "GenusOutOfRange",
    "HodgeResult",
    "LaurentPoly",
    "NotDivisible",
    "NotMonomial",
    "ONE",
    "OnWall",
    "OrderExceeded",
    "RankMismatch",
    "StabilityValue",
    "TripleSpec",
    "TruncatedSeries",
    "TypeVector",
    "U",
    "UV",
    "UniPoly",
    "V",
    "VerifyGrid",
    "WallAtSigmaM",
    "ZERO",
    "chamber_d0",
    "chamber_representatives",
    "chi_triples",
    "critical_values",
    "flip_difference",
    "flip_difference_series",
    "hodge_bundles_odd",
    "hodge_bundles_via_triples",
    "hodge_pairs",
    "hodge_triples_closed",
    "hodge_triples_sum",
    "jacobian",
    "moduli_11",
    "monomial",
    "pair_chamber_representatives",
    "poincare_pairs_fixed_det_thaddeus",
    "proj_space",
    "residue_extract_check",
    "run_suite",
    "sym_power",
]
