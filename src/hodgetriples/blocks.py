"""Closed Hodge-polynomial values for the geometric building blocks.

For a smooth projective curve X of genus g >= 2:

* projective space:   e_n := e(P^(n-1)) = 1 + uv + ... + (uv)^(n-1),
* Jacobian:           e(Jac^d X) = (1+u)^g (1+v)^g, independent of d,
* symmetric product:  e(Sym^k X) = [x^k] (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)),
* rank-(1,1) triple moduli, built from the two previous blocks,

together with the Euler characteristic chi(T'', T') of the extension complex
between two holomorphic triples.  -chi is the fibre-bundle rank that enters
every wall-crossing contribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .laurent import ONE, UV, LaurentPoly, TruncatedSeries, U, V


class GenusOutOfRange(ValueError):
    """The base curve must have genus at least 2."""


def _require_genus(g: int) -> None:
    if g < 2:
        raise GenusOutOfRange(f"genus must be >= 2, got {g}")


@lru_cache(maxsize=None)
def proj_space(n: int) -> LaurentPoly:
    """e_n = e(P^(n-1)) = 1 + uv + ... + (uv)^(n-1); zero for n = 0.

    The n = 0 value encodes an empty projectivized bundle, which is how a
    vanishing wall-crossing locus enters the flip formulas.
    """
    if n < 0:
        raise ValueError(f"projective-space size must be >= 0, got {n}")
    return LaurentPoly({(i, i): 1 for i in range(n)})


@lru_cache(maxsize=None)
def jacobian(g: int) -> LaurentPoly:
    """e(Jac^d X) = (1+u)^g (1+v)^g for a genus-g curve, any degree d."""
    _require_genus(g)
    return (ONE + U) ** g * (ONE + V) ** g


@lru_cache(maxsize=None)
def sym_power(g: int, k: int) -> LaurentPoly:
    """e(Sym^k X) = [x^k] (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)).

    The series factors are expanded exactly to order k, so the truncation
    budget always matches the coefficient being extracted.
    """
    _require_genus(g)
    if k < 0:
        raise ValueError(f"symmetric power must be >= 0, got {k}")
    return TruncatedSeries.rational(k, [(U, g), (V, g)], [ONE, UV]).coeff(k)


Side11 = Literal["above_sigma_m", "at_sigma_m"]


def moduli_11(g: int, d1: int, d2: int, side: Side11) -> LaurentPoly:
    """Hodge polynomial of the moduli of rank-(1,1) triples L2 -> L1.

    Empty when d1 < d2.  Otherwise the space is Jac^(d2) X x Sym^(d1-d2) X
    for any stability parameter above sigma_m = d1 - d2, while at sigma_m
    the polystable locus is Jac^(d1) X x Jac^(d2) X.
    """
    _require_genus(g)
    if side not in ("above_sigma_m", "at_sigma_m"):
        raise ValueError(f"unknown side {side!r}")
    if d1 < d2:
        return LaurentPoly()
    if side == "at_sigma_m":
        return jacobian(g) ** 2
    return jacobian(g) * sym_power(g, d1 - d2)


@dataclass(frozen=True)
class TypeVector:
    """Numerical type (n1, n2, d1, d2) of a holomorphic triple.

    Zero-rank components must carry zero degree, and at least one rank is
    positive.
    """

    n1: int
    n2: int
    d1: int
    d2: int

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("ranks must be nonnegative")
        if (self.n1, self.n2) == (0, 0):
            raise ValueError("at least one rank must be positive")
        if self.n1 == 0 and self.d1 != 0:
            raise ValueError("a zero bundle has zero degree (d1)")
        if self.n2 == 0 and self.d2 != 0:
            raise ValueError("a zero bundle has zero degree (d2)")


def chi_triples(quotient: TypeVector, sub: TypeVector, g: int) -> int:
    """Euler characteristic chi(T'', T') of the triple-extension complex.

    chi(T'', T') = (1-g)(n1'' n1' + n2'' n2' - n2'' n1')
                   + n1'' d1' - n1' d1'' + n2'' d2' - n2' d2''
                   - n2'' d1' + n1' d2''

    with T'' the quotient and T' the sub.  The projectivized bundle swept
    out when a wall is crossed has rank -chi(T'', T').
    """
    _require_genus(g)
    tq, ts = quotient, sub
    return (
        (1 - g) * (tq.n1 * ts.n1 + tq.n2 * ts.n2 - tq.n2 * ts.n1)
        + tq.n1 * ts.d1
        - ts.n1 * tq.d1
        + tq.n2 * ts.d2
        - ts.n2 * tq.d2
        - tq.n2 * ts.d1
        + ts.n1 * tq.d2
    )
