"""Chamber structure and Hodge-polynomial evaluators.

The moduli space N_sigma(n1, n2, d1, d2) of sigma-stable triples
phi: E2 -> E1 on a genus-g curve varies with the stability parameter sigma
inside an interval [sigma_m, sigma_M].  The interval is cut into chambers by
finitely many critical values (walls); on each chamber the moduli space, and
hence its Hodge polynomial, is constant.  Crossing a wall removes one
projectivized extension bundle and inserts another, and the difference of
the two contributions is a closed polynomial in the building blocks.

This module exposes:

* the wall enumeration and chamber index for rank (2,1) and (1,2);
* ``flip_difference``: the wall-crossing contribution, via blocks and via a
  raw series extraction (two independent pipelines);
* ``hodge_triples_closed`` / ``hodge_triples_sum``: the closed
  coefficient-extraction formula and the telescoped sum of wall
  contributions (the central cross-check of the package).  The sums are
  built once per family, from the top wall down, one flip per wall, and
  held for at most two families.  The closed formula is a finite binomial
  sum; the square of the Jacobian factor is held per genus;
* pair moduli (rank 2, with or without fixed determinant), their Poincare
  polynomials via an independent one-variable extraction, and the moduli of
  rank-2 odd-degree bundles through two more routes.

Rank (1,2) is handled exclusively through the duality
N_sigma(1,2,d1,d2) = N_sigma(2,1,-d2,-d1).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .blocks import TypeVector, _require_genus, chi_triples, jacobian, moduli_11, proj_space
from .laurent import ONE, UV, LaurentPoly, TruncatedSeries, U, UniPoly, V, monomial


class OnWall(ValueError):
    """The stability parameter sits exactly on a critical value."""


class EmptyFamily(ValueError):
    """The whole family of moduli spaces is empty (mu1 < mu2)."""


class WallAtSigmaM(ValueError):
    """Wall-crossing at sigma_m itself is outside the flip formula's range."""


class RankMismatch(ValueError):
    """The operation applies only to one of the rank pairs (2,1) / (1,2)."""


class EvenDegree(ValueError):
    """The closed bundle-moduli formulas require odd degree."""


Side = Literal["exact", "plus", "minus"]


@dataclass(frozen=True)
class StabilityValue:
    """An exact rational stability parameter with a chamber side tag.

    ``plus`` / ``minus`` select the chamber immediately above / below the
    value; they replace the epsilon of "sigma_c +/- epsilon" so that all
    chamber resolution stays in exact arithmetic.
    """

    value: Fraction
    side: Side = "exact"

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", Fraction(self.value))
        if self.side not in ("exact", "plus", "minus"):
            raise ValueError(f"unknown side tag {self.side!r}")

    @classmethod
    def parse(cls, text: str) -> "StabilityValue":
        """Parse "p/q", "p", and wall-side forms "c+" / "c-".

        Only exact rational strings are admitted; decimal notation is
        rejected so no float ever enters the input path.
        """
        raw = text.strip()
        side: Side = "exact"
        body = raw
        if len(body) > 1 and body[-1] in "+-":
            side = "plus" if body[-1] == "+" else "minus"
            body = body[:-1]
        if not re.fullmatch(r"[+-]?\d+(/\d+)?", body):
            raise ValueError(f"cannot parse stability value {raw!r}: expected p, p/q, c+ or c-")
        try:
            value = Fraction(body)
        except ZeroDivisionError as exc:
            raise ValueError(f"cannot parse stability value {raw!r}: zero denominator") from exc
        return cls(value, side)

    def __str__(self) -> str:
        suffix = {"exact": "", "plus": "+", "minus": "-"}[self.side]
        return f"{self.value}{suffix}"


@dataclass(frozen=True)
class TripleSpec:
    """Discrete parameters of a family of triple moduli spaces."""

    g: int
    rank_pair: tuple[int, int]
    d1: int
    d2: int

    def __post_init__(self) -> None:
        _require_genus(self.g)
        if tuple(self.rank_pair) not in ((2, 1), (1, 2)):
            raise RankMismatch(f"rank pair must be (2,1) or (1,2), got {self.rank_pair}")
        object.__setattr__(self, "rank_pair", tuple(self.rank_pair))

    @property
    def mu1(self) -> Fraction:
        return Fraction(self.d1, self.rank_pair[0])

    @property
    def mu2(self) -> Fraction:
        return Fraction(self.d2, self.rank_pair[1])

    @property
    def sigma_m(self) -> Fraction:
        return self.mu1 - self.mu2

    @property
    def sigma_M(self) -> Fraction:
        return 4 * (self.mu1 - self.mu2)

    @property
    def complex_dim(self) -> int:
        """Dimension of the moduli space on any nonempty chamber."""
        if self.rank_pair == (2, 1):
            return 3 * self.g - 2 + self.d1 - 2 * self.d2
        return 3 * self.g - 2 + 2 * self.d1 - self.d2

    @property
    def is_empty_family(self) -> bool:
        return self.mu1 < self.mu2

    def dual(self) -> "TripleSpec":
        """The isomorphic family of the transposed rank pair, (d1,d2) -> (-d2,-d1)."""
        n1, n2 = self.rank_pair
        return TripleSpec(self.g, (n2, n1), -self.d2, -self.d1)


@dataclass(frozen=True)
class HodgeResult:
    """A Hodge polynomial with the complex dimension of its moduli space.

    ``complex_dim`` is ``None`` exactly when the space is empty, in which
    case the polynomial is zero.  Nonempty results must be honest
    polynomials supported in the square [0, complex_dim]^2.
    """

    poly: LaurentPoly
    complex_dim: Optional[int]

    def __post_init__(self) -> None:
        if self.complex_dim is None:
            if not self.poly.is_zero():
                raise ValueError("an empty moduli space must carry the zero polynomial")
            return
        for a, b in self.poly._terms:  # unsorted: the bounds need no order
            if not (0 <= a <= self.complex_dim and 0 <= b <= self.complex_dim):
                raise AssertionError(
                    f"exponent u^{a} v^{b} outside [0, {self.complex_dim}]^2: internal inconsistency"
                )

    @property
    def is_empty(self) -> bool:
        return self.complex_dim is None


_EMPTY = HodgeResult(LaurentPoly(), None)


def _spec21(spec: TripleSpec) -> TripleSpec:
    return spec if spec.rank_pair == (2, 1) else spec.dual()


def critical_values(spec: TripleSpec) -> list[tuple[Fraction, int]]:
    """Ascending walls (sigma_c, d_M): sigma_c = 3 d_M - d1 - d2 on rank (2,1).

    The wall parameter d_M runs over the integers with mu1 <= d_M <= d1-d2;
    the first wall equals sigma_m exactly when mu1 is an integer.  Rank
    (1,2) walls are obtained through the duality map and sit at the same
    sigma values.
    """
    s = _spec21(spec)
    if s.is_empty_family:
        raise EmptyFamily(f"moduli empty: mu1 = {spec.mu1} < mu2 = {spec.mu2}")
    lo = math.ceil(s.mu1)
    hi = s.d1 - s.d2
    return [(Fraction(3 * m - s.d1 - s.d2), m) for m in range(lo, hi + 1)]


def _is_critical(spec: TripleSpec, value: Fraction) -> bool:
    s = _spec21(spec)
    if s.is_empty_family:
        return False
    triple = value + s.d1 + s.d2
    if triple.denominator != 1 or triple.numerator % 3:
        return False
    m = triple.numerator // 3
    return s.mu1 <= m <= s.d1 - s.d2


def _floor_side(q: Fraction, side: Side) -> int:
    """floor(q + epsilon) for side plus, floor(q - epsilon) for minus."""
    f = math.floor(q)
    if side == "minus" and q == f:
        return f - 1
    return f


def chamber_d0(spec: TripleSpec, sigma: StabilityValue) -> int:
    """Chamber index d0 = floor((sigma + d1 + d2)/3) + 1 on rank (2,1).

    d0 is the smallest wall parameter d_M strictly above sigma.

    Rank (1,2) uses d0 = floor((sigma - d1 - d2)/3) + 1, which is the same
    number computed on the dual family.  Side tags resolve wall values to
    the open chamber immediately above or below.
    """
    if sigma.side == "exact" and _is_critical(spec, sigma.value):
        raise OnWall(f"sigma={sigma.value} is a critical value; use {sigma.value}+ or {sigma.value}-")
    s = _spec21(spec)
    q = (sigma.value + s.d1 + s.d2) / 3
    return _floor_side(q, sigma.side) + 1


def _chamber_or_empty(spec21: TripleSpec, sigma: StabilityValue) -> Optional[int]:
    """Resolve sigma to a chamber index, or None when the space is empty."""
    if spec21.is_empty_family:
        return None
    d0 = chamber_d0(spec21, sigma)
    above = sigma.value > spec21.sigma_m or (sigma.value == spec21.sigma_m and sigma.side == "plus")
    if not above or d0 > spec21.d1 - spec21.d2:
        return None
    return d0


def flip_difference(spec: TripleSpec, d_M: int) -> LaurentPoly:
    """Wall-crossing contribution at sigma_c = 3 d_M - d1 - d2, rank (2,1).

    Crossing the wall downwards replaces a projectivized extension bundle
    over Jac x N_(1,1)(d1 - d_M, d2) = Jac x (Jac x Sym) by another.  Their
    ranks are -chi of the wall's types T' = (1, 0, d_M, 0) and
    T'' = (1, 1, d1 - d_M, d2), quotient first, so the change is

        (e_(-chi(T', T'')) - e_(-chi(T'', T'))) * e(N_(1,1)) * e(Jac X)
        = (e_(2 d_M - d1 + g - 1) - e_(d1 - d2 - d_M)) * e(Jac X)^2 * e(Sym^(d1 - d2 - d_M) X).

    Only walls strictly above sigma_m (d_M > mu1) are covered.
    """
    _check_flip_args(spec, d_M)
    g = spec.g
    t1, t2 = TypeVector(1, 0, d_M, 0), TypeVector(1, 1, spec.d1 - d_M, spec.d2)
    ranks = proj_space(-chi_triples(t1, t2, g)) - proj_space(-chi_triples(t2, t1, g))
    # the rank difference goes last: it cancels down to |a - b| diagonal terms
    return moduli_11(g, spec.d1 - d_M, spec.d2) * jacobian(g) * ranks


def flip_difference_series(spec: TripleSpec, d_M: int) -> LaurentPoly:
    """The same wall contribution, extracted from its generating function:

        [x^0] ((uv)^k - (uv)^(2 d_M - d1 + g - 1)) (1+u)^2g (1+v)^2g
              (1+ux)^g (1+vx)^g / ((1-uv)(1-x)(1-uvx) x^k),

    with k = d1 - d2 - d_M.  Kept deliberately independent of the block
    decomposition used by ``flip_difference``.
    """
    _check_flip_args(spec, d_M)
    g = spec.g
    k = spec.d1 - spec.d2 - d_M
    coeff = TruncatedSeries.rational(k, [(U, g), (V, g)], [ONE, UV]).coeff(k)
    e_top = 2 * d_M - spec.d1 + g - 1
    numerator = (monomial(1, k, k) - monomial(1, e_top, e_top)) * _jacobian_squared(g) * coeff
    return numerator / (ONE - UV)


def _check_flip_args(spec: TripleSpec, d_M: int) -> None:
    if spec.rank_pair != (2, 1):
        raise RankMismatch("flip contributions are computed on the rank (2,1) side")
    if d_M <= spec.mu1:
        raise WallAtSigmaM(f"d_M = {d_M} <= mu1 = {spec.mu1}: wall at or below sigma_m")
    if d_M > spec.d1 - spec.d2:
        raise ValueError(f"d_M = {d_M} > d1 - d2 = {spec.d1 - spec.d2}: no such wall")


@functools.lru_cache(maxsize=None)
def _jacobian_squared(g: int) -> LaurentPoly:
    """e(Jac X)^2, the prefactor of the closed triple formula and of each flip."""
    return jacobian(g) ** 2


def _closed_core(g: int, n: int, e2: int) -> LaurentPoly:
    """The [x^0] extraction behind every closed chamber formula, as a finite sum.

    With w = uv and E_s the x^s coefficient of (1+ux)^g (1+vx)^g, it is the sum
    over s <= min(2g, n) of E_s [n-s+2 choose 2]_w (w^s - w^e2) / (1 - w), since
    h_k(1, w, w^2) = [k+2 choose 2]_w (Macdonald, Symmetric Functions, I.2 ex. 3)
    expands the tails of ``hodge_triples_closed``.  With k = n - s, the w^j
    coefficient of [k+2 choose 2]_w is min(j, 2k-j)//2 + 1 and the quotient is
    a run +-(w^lo + ... + w^(hi-1)), so entry m of ``window``, the w^(lo+m)
    coefficient of their product, is a difference of prefix sums.
    """
    terms: dict[tuple[int, int], int] = {}
    for s in set(range(min(2 * g, n) + 1)) - {e2}:  # at s = e2 the run is empty
        k = n - s
        lo, hi, sign = (s, e2, 1) if s < e2 else (e2, s, -1)
        prefix = list(itertools.accumulate((min(j, 2 * k - j) // 2 + 1 for j in range(2 * k + 1)), initial=0))
        window = [prefix[min(m + 1, 2 * k + 1)] - prefix[max(m - (hi - lo) + 1, 0)] for m in range(2 * k + hi - lo)]
        for i in range(max(0, s - g), min(g, s) + 1):
            b = sign * math.comb(g, i) * math.comb(g, s - i)
            for m, c in enumerate(window, lo):
                key = (i + m, s - i + m)
                terms[key] = terms.get(key, 0) + b * c
    return LaurentPoly(terms)


def hodge_triples_closed(spec: TripleSpec, sigma: StabilityValue) -> HodgeResult:
    """Hodge polynomial of N_sigma by the closed chamber formula.

    For rank (2,1), non-critical sigma > sigma_m and d0 the chamber index,

        e(N_sigma) = [x^0] (1+u)^2g (1+v)^2g (1+ux)^g (1+vx)^g
                     / ((1-uv)(1-x)(1-uvx) x^(d1-d2-d0))
                     * ( (uv)^(d1-d2-d0) / (1 - (uv)^(-1) x)
                         - (uv)^(g-1-d1+2 d0) / (1 - (uv)^2 x) ).

    Outside (sigma_m, sigma_M), or past the last wall, the space is empty.
    Rank (1,2) is evaluated on the dual rank-(2,1) family.
    """
    spec21 = _spec21(spec)
    d0 = _chamber_or_empty(spec21, sigma)
    if d0 is None:
        return _EMPTY
    g = spec21.g
    n = spec21.d1 - spec21.d2 - d0
    e2 = -spec21.d1 + g - 1 + 2 * d0
    poly = _jacobian_squared(g) * _closed_core(g, n, e2)
    return HodgeResult(poly, spec.complex_dim)


@functools.lru_cache(maxsize=2)
def _wall_sums(spec21: TripleSpec) -> list[LaurentPoly]:
    """Suffix sums of one rank-(2,1) family: entry k sums flip_difference over its k highest walls.

    Starts as [0] and is extended downwards by ``hodge_triples_sum``, one
    flip per wall.  Callers sweep one family at a time, so two entries
    suffice (a rank-(1,2) sweep shares its dual's).
    """
    return [LaurentPoly()]


def hodge_triples_sum(spec: TripleSpec, sigma: StabilityValue) -> HodgeResult:
    """Hodge polynomial of N_sigma as the sum of wall contributions.

    e(N_sigma) = sum of flip_difference over the walls strictly above
    sigma, i.e. d_M = d0, ..., d1 - d2.  The sums are built once per
    family, from the top wall down to the lowest d0 asked for so far, and
    kept for the last two families, so a sweep over all chambers costs one
    flip and one add per wall.  Must agree exactly with
    ``hodge_triples_closed``; the pair is the package's central
    cross-check.
    """
    spec21 = _spec21(spec)
    d0 = _chamber_or_empty(spec21, sigma)
    if d0 is None:
        return _EMPTY
    top = spec21.d1 - spec21.d2
    sums = _wall_sums(spec21)
    while len(sums) <= top - d0 + 1:
        sums.append(sums[-1] + flip_difference(spec21, top + 1 - len(sums)))
    return HodgeResult(sums[top - d0 + 1], spec.complex_dim)


def chamber_representatives(spec: TripleSpec, include_beyond: bool = False) -> list[StabilityValue]:
    """One exact rational strictly inside each chamber of [sigma_m, sigma_M].

    Midpoints of consecutive wall values (with sigma_m as the left
    boundary); ``include_beyond`` appends a representative above sigma_M to
    exercise emptiness.
    """
    s = _spec21(spec)
    if s.is_empty_family:
        return []
    bounds = chamber_bounds(s)
    reps = [StabilityValue((lo + hi) / 2) for lo, hi in zip(bounds, bounds[1:])]
    if include_beyond:
        reps.append(StabilityValue(s.sigma_M + 1))
    return reps


def chamber_bounds(spec: TripleSpec) -> list[Fraction]:
    """sigma_m followed by the walls above it: consecutive entries bound one chamber each."""
    return [spec.sigma_m] + [sc for sc, _ in critical_values(spec) if sc > spec.sigma_m]


# -- pairs ---------------------------------------------------------------


def pair_chamber(d: int, tau: StabilityValue) -> Optional[int]:
    """Resolve tau to floor(tau) inside a chamber of J = [d/2, d], else None.

    The chamber's index d0 is floor(tau) + 1; tau exactly on a critical value
    raises ``OnWall``.
    """
    if tau.side == "exact" and tau.value.denominator == 1 and 2 * tau.value >= d and tau.value <= d:
        raise OnWall(f"tau={tau.value} is a critical value; use {tau.value}+ or {tau.value}-")
    half = Fraction(d, 2)
    above = tau.value > half or (tau.value == half and tau.side == "plus")
    if not above:
        return None
    fl = _floor_side(tau.value, tau.side)
    if d - 1 - fl < 0:
        return None
    return fl


def hodge_pairs(g: int, d: int, tau: StabilityValue, fixed_det: bool = False) -> HodgeResult:
    """Hodge polynomial of the moduli of tau-stable rank-2 pairs of degree d.

    e(M_tau(2,d)) = [x^0] (1+u)^g (1+v)^g (1+ux)^g (1+vx)^g
                    / ((1-uv)(1-x)(1-uvx) x^(d-1-[tau]))
                    * ( (uv)^(d-1-[tau]) / (1-(uv)^(-1) x)
                        - (uv)^(g+1-d+2[tau]) / (1-(uv)^2 x) );

    with fixed determinant the Jacobian prefactor (1+u)^g (1+v)^g is
    dropped.  Critical values are the integers in J = [d/2, d]; outside the
    open interval the moduli space is empty.
    """
    _require_genus(g)
    fl = pair_chamber(d, tau)
    if fl is None:
        return _EMPTY
    n = d - 1 - fl
    e2 = g + 1 - d + 2 * fl
    poly = _closed_core(g, n, e2)
    if not fixed_det:
        poly = jacobian(g) * poly
    dim = (g - 2 + d) if fixed_det else (2 * g - 2 + d)
    return HodgeResult(poly, dim)


def pair_chamber_representatives(d: int) -> list[StabilityValue]:
    """One exact rational inside each chamber of J = [d/2, d]."""
    if d <= 0:
        return []
    bounds = sorted({Fraction(d, 2)} | {Fraction(k) for k in range(math.ceil(Fraction(d, 2)), d + 1)})
    return [StabilityValue((lo + hi) / 2) for lo, hi in zip(bounds, bounds[1:])]


def poincare_pairs_fixed_det_thaddeus(g: int, d: int, tau: StabilityValue) -> UniPoly:
    """Poincare polynomial of M_tau(2, Lambda) by Thaddeus's formula.

    P_t = [x^0] (1+tx)^2g / ((1-t^2)(1-x)(1-t^2 x) x^(d-1-[tau]))
          * ( t^(2d-2-2[tau]) / (1-t^(-2) x)
              - t^(2g+2-2d+4[tau]) / (1-t^4 x) ).

    Evaluated by its own one-variable extraction, independently of the
    two-variable pipeline, and equal to the diagonal specialization of
    ``hodge_pairs(..., fixed_det=True)``.
    """
    _require_genus(g)
    fl = pair_chamber(d, tau)
    if fl is None:
        return UniPoly()
    n = d - 1 - fl
    t2 = monomial(1, 2, 0)
    a = TruncatedSeries.rational(n, [(U, 2 * g)], [ONE, t2, monomial(1, -2, 0)]).coeff(n)
    b = TruncatedSeries.rational(n, [(U, 2 * g)], [ONE, t2, monomial(1, 4, 0)]).coeff(n)
    numerator = monomial(1, 2 * n, 0) * a - monomial(1, 2 * g + 2 - 2 * d + 4 * fl, 0) * b
    return (numerator / (ONE - t2)).diagonal()


# -- rank-2 bundle moduli ------------------------------------------------


def hodge_bundles_odd(g: int, d: int, fixed_det: bool = False) -> HodgeResult:
    """Hodge polynomial of the moduli of rank-2 odd-degree stable bundles.

    e(M(2,d))      = ((1+u)^g (1+v)^g (1+u^2 v)^g (1+u v^2)^g
                      - (uv)^g (1+u)^2g (1+v)^2g) / ((1-uv)(1-(uv)^2)),
    e(M(2,Lambda)) = ((1+u^2 v)^g (1+u v^2)^g
                      - (uv)^g (1+u)^g (1+v)^g) / ((1-uv)(1-(uv)^2)).

    The divisions are exact; a failure signals an implementation bug.  The
    denominator is divided out one binomial at a time, so that both steps
    take the running-sum route of ``LaurentPoly.__truediv__``.
    """
    _require_genus(g)
    if d % 2 == 0:
        raise EvenDegree(f"degree must be odd, got {d}")
    twisted = (ONE + monomial(1, 2, 1)) ** g * (ONE + monomial(1, 1, 2)) ** g
    jac = jacobian(g)
    uv_g = monomial(1, g, g)
    if fixed_det:
        numerator = twisted - uv_g * jac
        dim = 3 * g - 3
    else:
        numerator = jac * twisted - uv_g * jac**2
        dim = 4 * g - 3
    poly = numerator / (ONE - UV) / (ONE - UV**2)
    return HodgeResult(poly, dim)


def hodge_bundles_via_triples(g: int, d: int) -> LaurentPoly:
    """e(M(2,d)) recovered from the small-sigma chamber of a triple family.

    With d1 = d and d2 chosen so that d1 - 2 d2 = 4g - 3, the first chamber
    above sigma_m is a projectivized rank-(2g-1) bundle over
    M(2,d) x Jac X, so

        e(N_(sigma_m+)) = e(Jac X) e(M(2,d)) e_(2g-1)

    and the division by e(Jac X) e_(2g-1) must be exact.  Must agree with
    ``hodge_bundles_odd(g, d)``.  The divisor is taken in factors, each on a
    fast route of ``LaurentPoly.__truediv__``: e_(2g-1) (1 - uv) = 1 - (uv)^(2g-1)
    is a running sum once the numerator is multiplied by 1 - uv, and
    e(Jac X) = (1+u)^g (1+v)^g is two packed divisions, each by a divisor in
    one variable (g + 1 slots).  Packing e(Jac X) whole was slower, and
    e_(2g-1) as one divisor was slower than the heap walk.
    """
    _require_genus(g)
    if d % 2 == 0:
        raise EvenDegree(f"degree must be odd, got {d}")
    d2 = (d - (4 * g - 3)) // 2
    spec = TripleSpec(g, (2, 1), d, d2)
    small = hodge_triples_closed(spec, StabilityValue(spec.sigma_m, "plus"))
    return small.poly * (ONE - UV) / (ONE - UV ** (2 * g - 1)) / (ONE + U) ** g / (ONE + V) ** g
