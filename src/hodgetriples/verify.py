"""Batch invariant checking over configurable parameter grids.

Every named check exercises one of the package's invariants (ring laws,
series identities, block oracles, cross-pipeline equalities, structural
properties of the computed Hodge polynomials) across a grid of (g, d1, d2)
values and every stability chamber.  Failures are reported as data, with
the parameters needed to reproduce them; randomized checks draw from a
generator seeded per check, so a full run is deterministic.

Every check is built by one skeleton, ``_check(name, points, failures)``:
``points(grid, rng)`` yields, per grid point, the report parameters and the
arguments of ``failures``, and ``failures(*args)`` yields the failure details
of that point lazily.  Each point gets one report, carrying its first
failure, and nothing after that failure is computed.  The point sources are
seeded random cases (``_random_check`` adapts a case function that draws
one), the rank-(2,1) families, the (genus, pair degree) pairs, the genera,
and the residue fixture followed by its seeded cases.

The ``residue`` check's device, ``residue_extract_check``, lives here too: it
evaluates one rational-series coefficient twice, by expansion and by the
residue theorem, and is a verification tool rather than a moduli computation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import blocks, triples
from .laurent import ONE, UV, LaurentPoly, TruncatedSeries, monomial

_D1_WINDOW = 8  # d1 values per d2 in a grid without ``d1_values``; ``cli`` counts them before building one


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one (check, parameter point) pair."""

    check_name: str
    parameters: str
    status: str  # "pass" | "fail"
    detail: str = ""

    def line(self) -> str:
        head = f"{self.status.upper():4s} {self.check_name}"
        if self.parameters:
            head += f" [{self.parameters}]"
        if self.detail:
            head += f": {self.detail}"
        return head


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grid for a verification run.

    Without ``d1_values``, each d2 gets d1 = 2 d2 + 1, ..., 2 d2 + _D1_WINDOW, one family per pair degree.
    """

    g_values: tuple[int, ...] = (2, 3)
    d2_values: tuple[int, ...] = (-2, -1, 0)
    d1_values: Optional[tuple[int, ...]] = None
    checks: Optional[tuple[str, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.g_values or not self.d2_values or (self.d1_values is not None and not self.d1_values):
            raise ValueError("grid ranges must be nonempty")
        if self.checks is not None and not self.checks:
            raise ValueError("check list must be nonempty")
        if any(g < 2 for g in self.g_values):
            raise blocks.GenusOutOfRange("grid genus values must be >= 2")

    def points(self) -> Iterator[tuple[int, int, int]]:
        for g in sorted(self.g_values):
            for d2 in sorted(self.d2_values):
                d1s = self.d1_values if self.d1_values is not None else range(2 * d2 + 1, 2 * d2 + 1 + _D1_WINDOW)
                for d1 in sorted(d1s):
                    yield g, d1, d2


def _rand_poly(rng: random.Random, max_terms: int = 8, emax: int = 5, cmax: int = 9) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        coeff = rng.randint(-cmax, cmax)
        terms[(rng.randint(-emax, emax), rng.randint(-emax, emax))] = coeff
    return LaurentPoly(terms)


def sym_power_oracle(g: int, k: int) -> LaurentPoly:
    """e(Sym^k X) by direct convolution of the four factor sequences.

    Sums C(g,j1) C(g,j2) u^(j1+j4) v^(j2+j4) over j1+j2+j3+j4 = k, which
    expands (1+ux)^g (1+vx)^g * 1/(1-x) * 1/(1-uvx) without any series
    machinery.
    """
    acc: dict[tuple[int, int], int] = {}
    for j1 in range(min(g, k) + 1):
        c1 = math.comb(g, j1)
        for j2 in range(min(g, k - j1) + 1):
            c2 = math.comb(g, j2)
            for j4 in range(k - j1 - j2 + 1):
                key = (j1 + j4, j2 + j4)
                acc[key] = acc.get(key, 0) + c1 * c2
    return LaurentPoly(acc)


# -- check skeleton and point sources ----------------------------------------


def _check(name: str, points: Callable[..., Iterable[tuple]], failures: Callable[..., Iterator[str]]):
    """One report per point that ``points`` yields, carrying the first failure ``failures`` yields for it.

    ``points(grid, rng)`` yields (report parameters, arguments of ``failures``).
    """

    def check(grid: VerifyGrid, rng: random.Random) -> list[CheckReport]:
        reports = []
        for params, args in points(grid, rng):
            bad = next(failures(*args), "")
            reports.append(CheckReport(name, params, "fail" if bad else "pass", bad))
        return reports

    return check


def _random_check(name: str, cases: int, case: Callable[[VerifyGrid, random.Random], tuple[str, bool, str]]):
    """A check of ``cases`` seeded random cases.

    ``case`` draws one case from the generator and returns the extra report
    parameters, whether the case passed, and the failure detail.
    """

    def points(grid: VerifyGrid, rng: random.Random) -> Iterator[tuple]:
        for i in range(cases):
            extra, ok, detail = case(grid, rng)
            yield f"seed={grid.seed} case={i}{extra}", (ok, detail)

    return _check(name, points, _verdict)


def _verdict(ok: bool, detail: str) -> Iterator[str]:
    if not ok:
        yield detail


def _families(grid: VerifyGrid, rng: random.Random, with_empty: bool = False) -> Iterator[tuple]:
    """The nonempty rank-(2,1) families of the grid, or every family ``with_empty``."""
    for g, d1, d2 in grid.points():
        spec = triples.TripleSpec(g, (2, 1), d1, d2)
        if with_empty or not spec.is_empty_family:
            yield f"g={g} d1={d1} d2={d2}", (spec,)


def _rank12_families(grid: VerifyGrid, rng: random.Random) -> Iterator[tuple]:
    """The nonempty rank-(2,1) families, reported under the label of their rank-(1,2) duals."""
    for _, (spec,) in _families(grid, rng):
        yield f"g={spec.g} (1,2) d1={-spec.d2} d2={-spec.d1}", (spec,)


def _pair_degrees(grid: VerifyGrid, rng: random.Random) -> Iterator[tuple]:
    for g, d in sorted({(g, d1 - 2 * d2) for g, d1, d2 in grid.points()}):
        yield f"g={g} d={d}", (g, d)


def _genera(label: str):
    """One point per genus of the grid, reported as ``label`` with ``{g}`` filled in."""
    return lambda grid, rng: ((label.format(g=g), (g,)) for g in sorted(set(grid.g_values)))


# -- laurent-layer checks --------------------------------------------------


def _ring_laws_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    p, q, r = (_rand_poly(rng) for _ in range(3))
    ok = (p + q) * r == p * r + q * r and (p * q) * r == p * (q * r)
    return "", ok, "distributivity or associativity broken"


def _geometric_series_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    coeff = rng.choice([-3, -2, -1, 1, 2, 3])
    m = monomial(coeff, rng.randint(-3, 3), rng.randint(-3, 3))
    order = rng.randint(0, 10)
    series = TruncatedSeries.geometric(m, order)
    product = TruncatedSeries.of([ONE, -m], order) * series
    ok = product == TruncatedSeries.one(order)
    return f" order={order}", ok, f"(1 - ({m.text()})x) * geometric != 1"


def _division_roundtrip_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    quotient = _rand_poly(rng, max_terms=6, emax=4)
    divisor = LaurentPoly()
    while divisor.is_zero():
        divisor = _rand_poly(rng, max_terms=4, emax=3)
    product = quotient * divisor
    try:
        return "", product / divisor == quotient, "p/q * q != p"
    except Exception as exc:  # division of a constructed product must succeed
        return "", False, f"unexpected {type(exc).__name__}: {exc}"


def _palindrome_involution_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    n = rng.randint(0, 5)
    terms = {(rng.randint(0, n), rng.randint(0, n)): rng.randint(-9, 9) for _ in range(rng.randint(0, 8))}
    p = LaurentPoly(terms)
    ok = p.palindrome_dual(n).palindrome_dual(n) == p
    return f" n={n}", ok, "double dual differs"


def _diagonal_morphism_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    p, q = _rand_poly(rng), _rand_poly(rng)
    ok = (p * q).diagonal() == p.diagonal() * q.diagonal()
    return "", ok, "diagonal of product differs"


# -- block checks ----------------------------------------------------------


def _proj_space_failures() -> Iterator[str]:
    bad = [n for n in range(51) if blocks.proj_space(n) * (ONE - UV) != ONE - UV**n]
    if bad:
        yield f"fails at n={bad[:3]}"


def _sym_oracle_failures(g: int) -> Iterator[str]:
    bad = [k for k in range(9) if blocks.sym_power(g, k) != sym_power_oracle(g, k)]
    if bad:
        yield f"mismatch at k={bad[:3]}"


def _sym_structure_failures(g: int) -> Iterator[str]:
    problems = []
    for k in range(2 * g - 1):
        p = blocks.sym_power(g, k)
        if p.swap_uv() != p:
            problems.append(f"k={k} not symmetric")
        if any(c < 0 for c in p._terms.values()):
            problems.append(f"k={k} negative coefficient")
        if k and max(a + b for a, b in p._terms) != 2 * k:
            problems.append(f"k={k} top degree != 2k")
    if problems:
        yield "; ".join(problems[:3])


def _chi_bilinear_case(grid: VerifyGrid, rng: random.Random) -> tuple[str, bool, str]:
    g = rng.choice(sorted(set(grid.g_values)))
    quotient = blocks.TypeVector(rng.randint(0, 3) or 1, rng.randint(1, 3), rng.randint(-5, 5), rng.randint(-5, 5))
    sub = blocks.TypeVector(rng.randint(1, 3), rng.randint(1, 3), rng.randint(-5, 5), rng.randint(-5, 5))
    shifted = blocks.TypeVector(sub.n1, sub.n2, sub.d1 + 1, sub.d2)
    delta = blocks.chi_triples(quotient, shifted, g) - blocks.chi_triples(quotient, sub, g)
    return f" g={g}", delta == quotient.n1 - quotient.n2, f"d1'-shift gave {delta}"


# -- triples checks ----------------------------------------------------------


def _cross_pipeline_failures(spec: triples.TripleSpec) -> Iterator[str]:
    if spec.is_empty_family:
        sigma = triples.StabilityValue(Fraction(1))
        closed = triples.hodge_triples_closed(spec, sigma)
        summed = triples.hodge_triples_sum(spec, sigma)
        if not (closed.is_empty and summed.is_empty and closed.poly.is_zero()):
            yield "empty family not reported empty"
        return
    for sigma in triples.chamber_representatives(spec, include_beyond=True):
        if triples.hodge_triples_closed(spec, sigma) != triples.hodge_triples_sum(spec, sigma):
            yield f"sigma={sigma}: closed formula and wall sum differ"


def _flip_two_path_failures(spec: triples.TripleSpec) -> Iterator[str]:
    for _, d_M in triples.critical_values(spec):
        if d_M > spec.mu1 and triples.flip_difference(spec, d_M) != triples.flip_difference_series(spec, d_M):
            yield f"d_M={d_M}: block product and series extraction differ"


def _chamber_constancy_failures(spec: triples.TripleSpec) -> Iterator[str]:
    bounds = triples.chamber_bounds(spec)
    for lo, hi in zip(bounds, bounds[1:]):
        first = triples.StabilityValue(lo + (hi - lo) / 3)
        second = triples.StabilityValue(lo + 2 * (hi - lo) / 3)
        if triples.chamber_d0(spec, first) != triples.chamber_d0(spec, second):
            yield f"({lo},{hi}): chamber indices differ"
        elif triples.hodge_triples_closed(spec, first) != triples.hodge_triples_closed(spec, second):
            yield f"({lo},{hi}): results differ within one chamber"


def _closed_property(holds: Callable[[triples.HodgeResult], bool], detail: str):
    """Failures of a property of every nonempty closed-formula chamber result.

    ``detail`` may name the complex dimension of the failing result as ``{n}``.
    """

    def failures(spec: triples.TripleSpec) -> Iterator[str]:
        for sigma in triples.chamber_representatives(spec):
            res = triples.hodge_triples_closed(spec, sigma)
            if not res.is_empty and not holds(res):
                yield f"sigma={sigma}: " + detail.format(n=res.complex_dim)

    return failures


def _duality_rank12_failures(spec: triples.TripleSpec) -> Iterator[str]:
    spec12 = spec.dual()
    for sigma in triples.chamber_representatives(spec, include_beyond=True):
        left = triples.hodge_triples_closed(spec12, sigma)
        right = triples.hodge_triples_closed(spec, sigma)
        if left.poly != right.poly:
            yield f"sigma={sigma}: duality violated"


def _pairs_factorization_failures(spec: triples.TripleSpec) -> Iterator[str]:
    d = spec.d1 - 2 * spec.d2
    for sigma in triples.chamber_representatives(spec):
        tau = triples.StabilityValue((sigma.value + d) / 3, sigma.side)
        pair = triples.hodge_pairs(spec.g, d, tau)
        full = triples.hodge_triples_closed(spec, sigma)
        if blocks.jacobian(spec.g) * pair.poly != full.poly:
            yield f"sigma={sigma}: Jac * pairs != triples"


def _fixed_det_factorization_failures(g: int, d: int) -> Iterator[str]:
    for tau in triples.pair_chamber_representatives(d):
        full = triples.hodge_pairs(g, d, tau)
        fixed = triples.hodge_pairs(g, d, tau, fixed_det=True)
        if full.poly != blocks.jacobian(g) * fixed.poly:
            yield f"tau={tau}: Jacobian factorization fails"


def _thaddeus_failures(g: int, d: int) -> Iterator[str]:
    for tau in triples.pair_chamber_representatives(d):
        fixed = triples.hodge_pairs(g, d, tau, fixed_det=True)
        betti = triples.poincare_pairs_fixed_det_thaddeus(g, d, tau)
        if fixed.poly.diagonal() != betti:
            yield f"tau={tau}: diagonal != Poincare formula"


def _bundle_degrees(grid: VerifyGrid, rng: random.Random) -> Iterator[tuple]:
    for g in sorted(set(grid.g_values)):
        for d in (1, 3):
            yield f"g={g} d={d}", (g, d)


def _bundles_two_routes_failures(g: int, d: int) -> Iterator[str]:
    try:
        if triples.hodge_bundles_via_triples(g, d) != triples.hodge_bundles_odd(g, d).poly:
            yield "triple route differs from closed form"
    except Exception as exc:
        yield f"unexpected {type(exc).__name__}: {exc}"


# -- residue-theorem check ------------------------------------------------


Rational = Union[Fraction, int]


class DegeneratePoles(ValueError):
    """The residue extraction needs pairwise distinct nonzero poles."""


def _qmul(p: list[Fraction], q: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j in range(min(order - i, len(q) - 1) + 1):
            out[i + j] += pi * q[j]
    return out


def residue_extract_check(
    g: int, a: Rational, b: Rational, c: Rational, u0: Rational, v0: Rational
) -> tuple[Fraction, Fraction]:
    """Two evaluations of F(a,b,c) = [x^0] x f(x) / ((1-ax)(1-bx)(1-cx)).

    Here f(x) = (1+u0 x)^g (1+v0 x)^g x^(1-2g), so the series route reads
    the x^(2g-2) coefficient of (1+u0 x)^g (1+v0 x)^g / ((1-ax)(1-bx)(1-cx)).
    The residue theorem turns the same quantity into

        sum over t in {a, b, c} of (t+u0)^g (t+v0)^g / prod (t - other).

    Returns the pair (series value, residue value); the two must be equal.
    """
    blocks._require_genus(g)
    a, b, c, u0, v0 = (Fraction(x) for x in (a, b, c, u0, v0))
    if len({a, b, c}) < 3 or 0 in (a, b, c):
        raise DegeneratePoles(f"poles must be pairwise distinct and nonzero: {(a, b, c)}")
    order = 2 * g - 2

    def binom_coeffs(z: Fraction) -> list[Fraction]:
        return [math.comb(g, j) * z**j for j in range(min(g, order) + 1)]

    series = _qmul(binom_coeffs(u0), binom_coeffs(v0), order)
    for pole in (a, b, c):
        series = _qmul(series, [pole**j for j in range(order + 1)], order)
    series_value = series[order]

    def numerator(t: Fraction) -> Fraction:
        return (t + u0) ** g * (t + v0) ** g

    residue_value = (
        numerator(a) / ((a - b) * (a - c))
        + numerator(b) / ((b - a) * (b - c))
        + numerator(c) / ((c - a) * (c - b))
    )
    return series_value, residue_value


def _residue_points(grid: VerifyGrid, rng: random.Random) -> Iterator[tuple]:
    """The fixture, whose two values are both 25, then 12 seeded cases per genus that must agree."""
    yield "g=2 poles=(1,2,3) point=(0,0)", ((2, 1, 2, 3, 0, 0), 25)
    for g in sorted(set(grid.g_values)):
        for i in range(12):
            poles: list[Fraction] = []
            while len(poles) < 3:
                cand = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if cand != 0 and cand not in poles:
                    poles.append(cand)
            u0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            v0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            params = f"seed={grid.seed} g={g} case={i} poles=({poles[0]},{poles[1]},{poles[2]}) point=({u0},{v0})"
            yield params, ((g, *poles, u0, v0), None)


def _residue_failures(args: tuple, fixture: Optional[int]) -> Iterator[str]:
    values = residue_extract_check(*args)
    if fixture is not None and values != (fixture, fixture):
        yield f"fixture gave {values}"
    elif fixture is None and values[0] != values[1]:
        yield f"series {values[0]} != residue {values[1]}"


CHECKS: dict[str, Callable[[VerifyGrid, random.Random], list[CheckReport]]] = {
    "ring-laws": _random_check("ring-laws", 60, _ring_laws_case),
    "geometric-series": _random_check("geometric-series", 60, _geometric_series_case),
    "division-roundtrip": _random_check("division-roundtrip", 40, _division_roundtrip_case),
    "palindrome-involution": _random_check("palindrome-involution", 40, _palindrome_involution_case),
    "diagonal-morphism": _random_check("diagonal-morphism", 40, _diagonal_morphism_case),
    "proj-space-identity": _check("proj-space-identity", lambda grid, rng: [("n=0..50", ())], _proj_space_failures),
    "sym-oracle": _check("sym-oracle", _genera("g={g} k=0..8"), _sym_oracle_failures),
    "sym-structure": _check("sym-structure", _genera("g={g} k<2g-1"), _sym_structure_failures),
    "chi-bilinear": _random_check("chi-bilinear", 40, _chi_bilinear_case),
    "cross-pipeline": _check("cross-pipeline", partial(_families, with_empty=True), _cross_pipeline_failures),
    "flip-two-path": _check("flip-two-path", _families, _flip_two_path_failures),
    "chamber-constancy": _check("chamber-constancy", _families, _chamber_constancy_failures),
    "hodge-symmetry": _check(
        "hodge-symmetry", _families, _closed_property(lambda res: res.poly.swap_uv() == res.poly, "not u<->v symmetric")
    ),
    "palindrome-duality": _check(
        "palindrome-duality",
        _families,
        _closed_property(
            lambda res: res.poly.palindrome_dual(res.complex_dim) == res.poly, "fails Poincare duality at n={n}"
        ),
    ),
    "top-monomial": _check(
        "top-monomial",
        _families,
        _closed_property(
            lambda res: res.poly.coeff(res.complex_dim, res.complex_dim) == 1, "top monomial is not (uv)^{n}"
        ),
    ),
    "nonnegativity": _check(
        "nonnegativity",
        _families,
        _closed_property(lambda res: all(c >= 0 for c in res.poly._terms.values()), "negative coefficient"),
    ),
    "duality-rank12": _check("duality-rank12", _rank12_families, _duality_rank12_failures),
    "pairs-factorization": _check("pairs-factorization", _families, _pairs_factorization_failures),
    "fixed-det-factorization": _check("fixed-det-factorization", _pair_degrees, _fixed_det_factorization_failures),
    "thaddeus": _check("thaddeus", _pair_degrees, _thaddeus_failures),
    "bundles-two-routes": _check("bundles-two-routes", _bundle_degrees, _bundles_two_routes_failures),
    "residue": _check("residue", _residue_points, _residue_failures),
}


def run_suite(grid: VerifyGrid) -> list[CheckReport]:
    """Run the selected checks over the grid; deterministic given the seed.

    Checks execute in sorted name order and each gets its own generator
    seeded from (grid seed, check name), so subsets reproduce the exact
    reports of a full run.
    """
    if grid.checks is None:
        names = sorted(CHECKS)
    else:
        unknown = [name for name in grid.checks if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(unknown)}; available: {', '.join(sorted(CHECKS))}")
        names = sorted(set(grid.checks))
    reports: list[CheckReport] = []
    for name in names:
        rng = random.Random(f"{grid.seed}:{name}")
        reports.extend(CHECKS[name](grid, rng))
    return reports


def summarize(reports: Sequence[CheckReport]) -> str:
    failed = sum(1 for r in reports if r.status != "pass")
    return f"{len(reports)} checks: {len(reports) - failed} passed, {failed} failed"
