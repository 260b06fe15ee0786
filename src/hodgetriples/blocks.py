"""Closed Hodge-polynomial values for the geometric building blocks.

For a smooth projective curve X of genus g >= 2:

* projective space:   e_n := e(P^(n-1)) = 1 + uv + ... + (uv)^(n-1),
* Jacobian:           e(Jac^d X) = (1+u)^g (1+v)^g, independent of d,
* symmetric product:  e(Sym^k X) = [x^k] (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)),

together with the Euler characteristic chi(T'', T') of the extension complex
between two holomorphic triples.  -chi is the fibre-bundle rank that enters
every wall-crossing contribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .laurent import ONE, LaurentPoly, U, V, _wrap


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
    """e(Sym^k X) = [x^k] (1+ux)^g (1+vx)^g / ((1-x)(1-uvx)), one closed coefficient per term.

    With w = uv, 1/((1-x)(1-wx)) has x^j coefficient h_j(1, w) = 1 + w + ... + w^j
    (Macdonald, Symmetric Functions, I.2), so the value is the sum over
    s <= min(2g, k) of E_s (1 + w + ... + w^(k-s)), with
    E_s = sum_i C(g,i) C(g,s-i) u^i v^(s-i) the x^s coefficient of
    (1+ux)^g (1+vx)^g, the E_s of ``triples._closed_diagonals``.  The term
    C(g, t+delta) C(g, t) u^(t+delta) v^t of E_(2t+delta), times w^(b-t),
    reaches u^(b+delta) v^b for every t <= min(b, k - delta - b).  So on the
    diagonal delta = a - b >= 0 the coefficient of u^(b+delta) v^b is
    P_delta(min(b, k - delta - b)) for b = 0..k - delta, with P_delta the
    prefix sums of C(g, t+delta) C(g, t) over t; the value is symmetric in u
    and v, and delta > min(g, k) has no term.
    """
    _require_genus(g)
    if k < 0:
        raise ValueError(f"symmetric power must be >= 0, got {k}")
    terms: dict[tuple[int, int], int] = {}
    for delta in range(min(g, k) + 1):
        sums = list(itertools.accumulate(math.comb(g, t + delta) * math.comb(g, t) for t in range(g - delta + 1)))
        for b in range(k - delta + 1):
            terms[b + delta, b] = terms[b, b + delta] = sums[min(b, k - delta - b, g - delta)]
    return _wrap(terms)  # exact positive sums: no zero to drop, nothing to convert


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
