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
* ``flip_difference``: the wall-crossing contribution, via the blocks as
  finite sums and via a raw series extraction (two independent pipelines);
* ``hodge_triples_closed`` / ``hodge_triples_sum``: the closed
  coefficient-extraction formula and the telescoped sum of wall
  contributions (the central cross-check of the package).  The sums are
  built once per family, from the top wall down, one flip per wall, and
  held for at most two families.  The closed formula is a finite binomial
  sum, built densely on its diagonals a - b and shift-added by e(Jac X)^2
  straight from them (``laurent._diagonal_square``), a checked square of
  which only the rows up to one past the middle are computed: the result
  is a palindrome, h^{a,b} = h^{dim-a,dim-b}, and the rest is its mirror.
  A triple or pair request is resolved to its chamber index and a key, the
  formula's inputs (g, n, e2, m, dim) and nothing else (``_triple_key``,
  ``_pair_key``), and a key is evaluated by ``_closed_square``; rows twisted
  by a line bundle share a key, so a cli table evaluates each key once.
  ``_triple_key_at`` (``_pair_key_at``) gives the key of a chamber index,
  and ``_chamber_quarters`` (``_pair_chamber_quarters``) each chamber's
  representative and index in integers, so a table row needs no ``Fraction``;
* pair moduli (rank 2, with or without fixed determinant), their Poincare
  polynomials via an independent one-variable extraction, and the moduli of
  rank-2 odd-degree bundles through two more routes: their closed forms,
  divided on their diagonals and squared by the same kernel, and the
  small-sigma chamber of a triple family.

Rank (1,2) is handled exclusively through the duality
N_sigma(1,2,d1,d2) = N_sigma(2,1,-d2,-d1).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .blocks import TypeVector, _require_genus, chi_triples, jacobian, sym_power
from .laurent import ONE, UV, LaurentPoly, TruncatedSeries, U, UniPoly, V, _wrap, monomial, times_binomials
from .laurent import NotDivisible, _box_terms, _diagonal_square, _square_quotient


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
        """mu1 < mu2, that is d1 n2 < d2 n1."""
        return self.d1 * self.rank_pair[1] < self.d2 * self.rank_pair[0]

    def dual(self) -> "TripleSpec":
        """The isomorphic family of the transposed rank pair, (d1,d2) -> (-d2,-d1)."""
        n1, n2 = self.rank_pair
        return TripleSpec(self.g, (n2, n1), -self.d2, -self.d1)


@dataclass(frozen=True)
class HodgeResult:
    """A Hodge polynomial with the complex dimension of its moduli space.

    ``complex_dim`` is ``None`` exactly when the space is empty, in which
    case the polynomial is zero.  Nonempty results lie in [0, complex_dim]^2,
    checked here term by term, or once on the closed core's diagonals.
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


def _degrees21(rank_pair: tuple[int, int], d1: int, d2: int) -> tuple[int, int]:
    """(d1, d2) of the rank-(2,1) family of a family's degrees: as they are, or as ``TripleSpec.dual`` maps (1,2)'s."""
    return (d1, d2) if rank_pair == (2, 1) else (-d2, -d1)


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
    the open chamber immediately above or below.  In integers, with
    sigma = p/q and x = p + (d1 + d2) q, d0 = x // 3q + 1; the side tag
    matters only when 3q divides x, which needs q = 1, and then sigma is
    the wall of d_M = x/3 if mu1 <= d_M <= d1 - d2.
    """
    s = _spec21(spec)
    p, q = sigma.value.numerator, sigma.value.denominator
    m, r = divmod(p + (s.d1 + s.d2) * q, 3 * q)
    if r or sigma.side == "plus":
        return m + 1
    if sigma.side == "minus":
        return m
    if s.d1 <= 2 * m <= 2 * (s.d1 - s.d2):
        raise OnWall(f"sigma={sigma.value} is a critical value; use {sigma.value}+ or {sigma.value}-")
    return m + 1


def _chamber_or_empty(spec21: TripleSpec, sigma: StabilityValue) -> Optional[int]:
    """Resolve sigma to a chamber index, or None when the space is empty.

    sigma = p/q lies above sigma_m = d1/2 - d2 when 2p > (d1 - 2 d2) q, or
    on it with the side tag plus.
    """
    if spec21.is_empty_family:
        return None
    d0 = chamber_d0(spec21, sigma)
    t = 2 * sigma.value.numerator - (spec21.d1 - 2 * spec21.d2) * sigma.value.denominator
    if t < 0 or (t == 0 and sigma.side != "plus") or d0 > spec21.d1 - spec21.d2:
        return None
    return d0


def flip_difference(spec: TripleSpec, d_M: int) -> LaurentPoly:
    """Wall-crossing contribution at sigma_c = 3 d_M - d1 - d2, rank (2,1).

    Crossing the wall downwards replaces a projectivized extension bundle
    over Jac x N_(1,1)(d1 - d_M, d2) = Jac x (Jac x Sym) by another.  Their
    ranks are a = -chi(T', T'') and b = -chi(T'', T') for the wall's types
    T' = (1, 0, d_M, 0) and T'' = (1, 1, d1 - d_M, d2), so the change is

        (e_a - e_b) * e(Jac X)^2 * e(Sym^b X)
        = e(Sym^b X) ((uv)^b - (uv)^a) / (1 - uv) * (1+u)^2g (1+v)^2g,

    with a = 2 d_M - d1 + g - 1 and b = d1 - d2 - d_M.  The rank difference is
    a run on the diagonal: e(Sym^b X) is multiplied by the two-term
    numerator, divided by 1 - uv as a running sum, and e(Jac X)^2 goes last,
    in one ``times_binomials`` call.  Only walls strictly above sigma_m
    (d_M > mu1) are covered.
    """
    _check_flip_args(spec, d_M)
    g = spec.g
    t1, t2 = TypeVector(1, 0, d_M, 0), TypeVector(1, 1, spec.d1 - d_M, spec.d2)
    a, b = -chi_triples(t1, t2, g), -chi_triples(t2, t1, g)
    run = sym_power(g, b) * (monomial(1, b, b) - monomial(1, a, a)) / (ONE - UV)
    return times_binomials(run, 2 * g)


def flip_difference_series(spec: TripleSpec, d_M: int) -> LaurentPoly:
    """The same wall contribution, extracted from its generating function:

        [x^0] ((uv)^k - (uv)^(2 d_M - d1 + g - 1)) (1+u)^2g (1+v)^2g
              (1+ux)^g (1+vx)^g / ((1-uv)(1-x)(1-uvx) x^k),

    with k = d1 - d2 - d_M.  Kept deliberately independent of the block
    decomposition used by ``flip_difference``, and of its product kernel:
    e(Jac X)^2 = ``jacobian(2g)`` is built and multiplied in by the generic
    ``*``.  The numerator is formed smallest factor first, the two-term
    difference times the coefficient, then times e(Jac X)^2, and the whole
    product is divided by 1 - uv last, so the running sum runs on it.
    """
    _check_flip_args(spec, d_M)
    g = spec.g
    k = spec.d1 - spec.d2 - d_M
    coeff = TruncatedSeries.rational(k, [(U, g), (V, g)], [ONE, UV]).coeff(k)
    e_top = 2 * d_M - spec.d1 + g - 1
    numerator = (monomial(1, k, k) - monomial(1, e_top, e_top)) * coeff * jacobian(2 * g)
    return numerator / (ONE - UV)


def _check_flip_args(spec: TripleSpec, d_M: int) -> None:
    if spec.rank_pair != (2, 1):
        raise RankMismatch("flip contributions are computed on the rank (2,1) side")
    if d_M <= spec.mu1:
        raise WallAtSigmaM(f"d_M = {d_M} <= mu1 = {spec.mu1}: wall at or below sigma_m")
    if d_M > spec.d1 - spec.d2:
        raise ValueError(f"d_M = {d_M} > d1 - d2 = {spec.d1 - spec.d2}: no such wall")


def _closed_diagonals(g: int, n: int, e2: int) -> list[tuple[int, int, list[int]]]:
    """The [x^0] extraction behind every closed chamber formula, as a finite sum on the diagonals a - b = -g..g.

    With w = uv and E_s the x^s coefficient of (1+ux)^g (1+vx)^g, it is the sum
    over s <= min(2g, n) of E_s [n-s+2 choose 2]_w (w^s - w^e2) / (1 - w), since
    h_k(1, w, w^2) = [k+2 choose 2]_w (Macdonald, Symmetric Functions, I.2 ex. 3)
    expands the tails of ``hodge_triples_closed``.  With k = n - s, the w^j
    coefficient of [k+2 choose 2]_w rises as (j+2)//2 up to j = k and falls
    back; times the run +-(w^lo + ... + w^(hi-1)) it is ``window``, shifted
    prefix sums less each other, which term C(g,i) C(g,s-i) u^i v^(s-i) of
    E_s adds to diagonal 2i - s from offset lo + min(i, s-i) in one slice.
    Terms i and s - i mirror each other, so the diagonals a >= b also serve
    as the rest.  Returns the runs of ``_mirrored_runs``.
    """
    t0 = min(e2, 0)  # the lowest offset; a diagonal ends by 2n + max(e2, 0)
    diagonals = [[0] * (2 * n + max(e2, 0) - t0) for _ in range(g + 1)]
    rise = list(map(operator.floordiv, range(2, n + 3), itertools.repeat(2)))
    binomials = list(map(math.comb, itertools.repeat(g), range(g + 1)))
    for s in set(range(min(2 * g, n) + 1)) - {e2}:  # at s = e2 the run is empty
        k, lo, r, sign = n - s, min(s, e2) - t0, abs(e2 - s), 1 if s < e2 else -1
        prefix = list(itertools.accumulate(rise[:k] + rise[k::-1] + [0] * (r - 1)))
        window, w = list(map(operator.sub, prefix, [0] * r + prefix)), 2 * k + r
        for i in range(max((s + 1) // 2, s - g), min(g, s) + 1):
            d, o, b = diagonals[2 * i - s], lo + s - i, sign * binomials[i] * binomials[s - i]
            d[o : o + w] = map(operator.add, d[o : o + w], map(operator.mul, window, itertools.repeat(b)))
    return _mirrored_runs(diagonals, t0)


def _mirrored_runs(diagonals: list[list[int]], t0: int) -> list[tuple[int, int, list[int]]]:
    """The runs (a, b, coeffs), c_j u^(a+j) v^(b+j), of a form symmetric in u and v, from its diagonals a >= b.

    Entry t of ``diagonals[delta]`` is the coefficient of u^(t0+delta+t) v^(t0+t).  Each diagonal is cut to its
    nonzero span, and those with delta > 0, mirrored, give the diagonals a < b.
    """
    spans = [(delta, d, list(itertools.compress(range(len(d)), d))) for delta, d in enumerate(diagonals)]
    runs = [(t0 + delta + j[0], t0 + j[0], d[j[0] : j[-1] + 1]) for delta, d, j in spans if j]
    return [(b, a, c) for a, b, c in reversed(runs) if a > b] + runs


_Key = tuple[int, int, int, int, int]
"""(g, n, e2, m, dim): all that the closed chamber formula reads of a triple or pair."""


def _closed_square(key: _Key) -> tuple[int, list[int]]:
    """(dim, square) of a key: the row-major square of [0, dim]^2, u^a v^b at a (dim + 1) + b, of the closed core
    times (1+u)^m (1+v)^m.

    ``_diagonal_square`` checks the core's extent: as h^{0,0} = h^{dim,dim} = 1,
    it must span exactly [0, dim - m]^2, which bounds every term at once; any
    other extent raises ``AssertionError``.  dim = m - 1 + 2n + e2 always.
    Every key is the Hodge polynomial of a smooth projective moduli space, so
    h^{a,b} = h^{dim-a,dim-b}: the kernel computes rows 0..dim // 2 + 1 of the
    square, raises ``AssertionError`` unless the last of them mirrors row
    dim - dim // 2 - 1, and gives the rows past the middle as the mirror of
    those below it.
    """
    g, n, e2, m, dim = key
    return dim, _diagonal_square(_closed_diagonals(g, n, e2), m, dim + 1)


def _square_result(dim: int, square: list[int]) -> HodgeResult:
    """The ``HodgeResult`` of a square that ``_diagonal_square`` checked, without ``HodgeResult``'s per-term loop."""
    result = object.__new__(HodgeResult)
    result.__dict__.update(poly=_wrap(_box_terms(0, 0, dim + 1, dim + 1, square)), complex_dim=dim)
    return result


def hodge_triples_closed(spec: TripleSpec, sigma: StabilityValue) -> HodgeResult:
    """Hodge polynomial of N_sigma by the closed chamber formula.

    For rank (2,1), non-critical sigma > sigma_m and d0 the chamber index,

        e(N_sigma) = [x^0] (1+u)^2g (1+v)^2g (1+ux)^g (1+vx)^g
                     / ((1-uv)(1-x)(1-uvx) x^(d1-d2-d0))
                     * ( (uv)^(d1-d2-d0) / (1 - (uv)^(-1) x)
                         - (uv)^(g-1-d1+2 d0) / (1 - (uv)^2 x) ).

    Outside (sigma_m, sigma_M), or past the last wall, the space is empty.
    Rank (1,2) is evaluated on the dual rank-(2,1) family.  The request is
    resolved to its key by ``_triple_key`` and the key evaluated by
    ``_closed_square``, the row-major digits of the core times e(Jac X)^2.
    """
    key = _triple_key(spec, sigma)[1]
    return _EMPTY if key is None else _square_result(*_closed_square(key))


def _triple_key(spec: TripleSpec, sigma: StabilityValue) -> tuple[Optional[int], Optional[_Key]]:
    """(d0, key) of N_sigma: its chamber index and the ``_closed_square`` key; (None, None) for an empty space."""
    s = _spec21(spec)
    d0 = _chamber_or_empty(s, sigma)
    return (None, None) if d0 is None else (d0, _triple_key_at(s.g, s.d1, s.d2, d0))


def _triple_key_at(g: int, d1: int, d2: int, d0: int) -> _Key:
    """The ``_closed_square`` key (g, n, e2, m, dim) of chamber d0 of the nonempty rank-(2,1) family (g, d1, d2).

    ``_triple_key`` calls it once it has resolved sigma, and a cli table
    with the d0 of each row and the degrees of ``_degrees21``, so a row
    builds no ``TripleSpec``; n, e2, m and dim are computed nowhere else.

    n = d1 - d2 - d0, e2 = g - 1 - d1 + 2 d0, m = 2g and dim is the family's
    ``complex_dim``, 3g - 2 + d1 - 2 d2.  Tensoring by a line bundle of
    degree 1, (d1, d2) -> (d1 + 2, d2 + 1), keeps each chamber
    representative sigma, raises d0 by one and keeps the key, so twisted
    rows share one Hodge polynomial.
    """
    return g, d1 - d2 - d0, g - 1 - d1 + 2 * d0, 2 * g, 3 * g - 2 + d1 - 2 * d2


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
    """One exact rational strictly inside each chamber of [sigma_m, sigma_M], the q/4 of ``_chamber_quarters``.

    ``include_beyond`` appends a representative above sigma_M to exercise
    emptiness.
    """
    s = _spec21(spec)
    if s.is_empty_family:
        return []
    reps = [StabilityValue(Fraction(q, 4)) for q, _ in _chamber_quarters(s)]
    if include_beyond:
        reps.append(StabilityValue(s.sigma_M + 1))
    return reps


def _chamber_quarters(spec: TripleSpec) -> list[tuple[int, int]]:
    """(q, d0) of each chamber of [sigma_m, sigma_M], in integers: q/4 its representative, d0 its chamber index.

    The representatives are the midpoints of consecutive bounds, with
    sigma_m as the left one.  The bounds are taken doubled, as integers:
    2 sigma_m = d1 - 2 d2 and 2 sigma_c = 6 d_M - 2 (d1 + d2) for the walls
    above sigma_m, d_M > d1/2; the midpoint of lo/2 and hi/2 is (lo + hi)/4,
    and its d0, the smallest d_M strictly above it, is the d_M of its upper
    wall.  An empty family has no wall above sigma_m.
    """
    s = _spec21(spec)
    walls = range(s.d1 // 2 + 1, s.d1 - s.d2 + 1)
    twice = [s.d1 - 2 * s.d2, *(6 * m - 2 * (s.d1 + s.d2) for m in walls)]
    return list(zip(map(operator.add, twice, twice[1:]), walls))


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
    open interval the moduli space is empty.  The request is resolved to its
    key by ``_pair_key`` and the key evaluated by ``_closed_square``.
    """
    key = _pair_key(g, d, tau, fixed_det)[1]
    return _EMPTY if key is None else _square_result(*_closed_square(key))


def _pair_key(g: int, d: int, tau: StabilityValue, fixed: bool) -> tuple[Optional[int], Optional[_Key]]:
    """(d0, key) of ``hodge_pairs``, as ``_triple_key`` gives a triple's."""
    _require_genus(g)
    fl = pair_chamber(d, tau)
    return (None, None) if fl is None else (fl + 1, _pair_key_at(g, d, fixed, fl + 1))


def _pair_key_at(g: int, d: int, fixed: bool, d0: int) -> _Key:
    """The key of chamber d0 of ``hodge_pairs``, as ``_triple_key_at`` gives a triple's.

    n = d - d0, e2 = g - 1 - d + 2 d0, and m = g, or 0 with fixed determinant.
    """
    _require_genus(g)
    return g, d - d0, g - 1 - d + 2 * d0, 0 if fixed else g, (g - 2 + d) if fixed else (2 * g - 2 + d)


def pair_chamber_representatives(d: int) -> list[StabilityValue]:
    """One exact rational inside each chamber of J = [d/2, d], the q/4 of ``_pair_chamber_quarters``."""
    return [StabilityValue(Fraction(q, 4)) for q, _ in _pair_chamber_quarters(d)]


def _pair_chamber_quarters(d: int) -> list[tuple[int, int]]:
    """(q, d0) of each chamber of J = [d/2, d], as ``_chamber_quarters`` gives a triple family's.

    The doubled bounds are d and 2k for the critical values k in (d/2, d];
    the chamber below k has d0 = floor(tau) + 1 = k.  J is empty for d <= 0.
    """
    walls = range(d // 2 + 1, d + 1)
    twice = [d, *(2 * k for k in walls)]
    return list(zip(map(operator.add, twice, twice[1:]), walls))


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

    The first numerator is e(Jac X) times the second, so e(M(2,d)) =
    e(Jac X) e(M(2,Lambda)).  The request is resolved to its key by
    ``_bundle_key`` and the key evaluated by ``_bundle_square``: the
    quotient divided on its diagonals (``_bundle_diagonals``), where an
    inexact division raises ``NotDivisible``, and e(Jac X) shift-added in
    by the closed formulas' kernel, which checks extent and mirror.
    """
    return _square_result(*_bundle_square(_bundle_key(g, d, fixed_det)))


def _bundle_key(g: int, d: int, fixed: bool) -> tuple[int, bool]:
    """The ``_bundle_square`` key (g, fixed) of ``hodge_bundles_odd``: the forms read an odd degree only for its
    parity, so every odd degree of one genus shares a key.  Raises ``GenusOutOfRange`` for g < 2 and ``EvenDegree``
    for an even degree."""
    _require_genus(g)
    if d % 2 == 0:
        raise EvenDegree(f"degree must be odd, got {d}")
    return g, fixed


def _bundle_square(key: tuple[int, bool]) -> tuple[int, list[int]]:
    """(dim, square) of a ``_bundle_key``, the square as ``_closed_square`` gives a key's.

    The runs of ``_bundle_diagonals`` span [0, 3g - 3]^2, e(M(2,Lambda)) of
    dimension 3g - 3; times (1+u)^g (1+v)^g they give e(M(2,d)), of
    dimension 4g - 3.  ``_diagonal_square`` checks that extent and that
    the square is a palindrome, and raises ``AssertionError`` otherwise.
    """
    g, fixed = key
    m, dim = (0, 3 * g - 3) if fixed else (g, 4 * g - 3)
    return dim, _diagonal_square(_bundle_diagonals(g), m, dim + 1)


def _bundle_numerator(g: int, delta: int) -> list[int]:
    """Diagonal a - b = delta >= 0 of (1+u^2 v)^g (1+u v^2)^g - (uv)^g (1+u)^g (1+v)^g: its w^t coefficients, w = uv.

    With j = 0..g - delta and i = j + delta, the term C(g,i) C(g,j) of the
    first product lies at u^(2i+j) v^(i+2j) = u^delta w^(3j+delta), and that
    of the second at u^(g+i) v^(g+j) = u^delta w^(g+j); the top is
    w^(3g-2 delta).
    """
    binomials = list(map(math.comb, itertools.repeat(g), range(g + 1)))
    pairs = list(map(operator.mul, binomials[delta:], binomials))
    diagonal = [0] * (3 * g - 2 * delta + 1)
    diagonal[delta::3] = pairs
    diagonal[g : 2 * g - delta + 1] = map(operator.sub, diagonal[g : 2 * g - delta + 1], pairs)
    return diagonal


def _bundle_diagonals(g: int) -> list[tuple[int, int, list[int]]]:
    """e(M(2,Lambda)) on its diagonals a - b = -g..g, as ``_closed_diagonals`` gives a core: runs c_j u^(a+j) v^(b+j).

    The denominator (1 - w)(1 - w^2) is a polynomial in w = uv, so each
    diagonal of the numerator (``_bundle_numerator``) is divided on its
    own, as a list in w: by 1 - w as one running sum, and by 1 - w^2 as one
    running sum per parity.  The quotient has degree at most three below
    the numerator's, so the division is exact iff all three running sums
    close at 0 by the numerator's top; any other diagonal raises
    ``NotDivisible``.  The form is symmetric in u and v, so the diagonals
    delta > 0, mirrored, give the rest (``_mirrored_runs``).
    """
    quotients = []
    for delta in range(g + 1):
        q = list(itertools.accumulate(_bundle_numerator(g, delta)))  # / (1 - w)
        q[::2], q[1::2] = itertools.accumulate(q[::2]), itertools.accumulate(q[1::2])  # / (1 - w^2), per parity
        if any(q[-3:]):
            message = f"diagonal {delta} of the genus-{g} bundle numerator does not divide by (1 - uv)(1 - (uv)^2)"
            raise NotDivisible(message)
        quotients.append(q)
    return _mirrored_runs(quotients, 0)


def hodge_bundles_via_triples(g: int, d: int) -> LaurentPoly:
    """e(M(2,d)) recovered from the small-sigma chamber of a triple family.

    With d1 = d and d2 chosen so that d1 - 2 d2 = 4g - 3, the first chamber
    above sigma_m is a projectivized rank-(2g-1) bundle over
    M(2,d) x Jac X, so

        e(N_(sigma_m+)) = e(Jac X) e(M(2,d)) e_(2g-1)

    and the division by e(Jac X) e_(2g-1) must be exact.  Must agree with
    ``hodge_bundles_odd(g, d)``.  The chamber is resolved to its key by
    ``_triple_key`` and its (dim, square) taken from ``_closed_square``, and
    ``laurent._square_quotient`` divides that square by e_(2g-1)(uv), then
    (1+u)^g, then (1+v)^g, one list operation per row, raising
    ``NotDivisible`` at the first step that leaves a nonzero cell outside its
    quotient's extent.
    """
    _bundle_key(g, d, False)  # refuses g < 2 and an even degree, as ``hodge_bundles_odd`` does
    d2 = (d - (4 * g - 3)) // 2
    spec = TripleSpec(g, (2, 1), d, d2)
    dim, square = _closed_square(_triple_key(spec, StabilityValue(spec.sigma_m, "plus"))[1])
    return _wrap(_square_quotient(square, dim + 1, 2 * g - 1, g))
