import gc
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgetriples import blocks, laurent, triples
from hodgetriples.blocks import GenusOutOfRange, jacobian, proj_space
from hodgetriples.laurent import ONE, UV, LaurentPoly, NotDivisible, TruncatedSeries, U, V, monomial, times_binomials
from hodgetriples.triples import (
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
from hodgetriples.verify import DegeneratePoles, residue_extract_check

SV = StabilityValue.parse


class TestStabilityValue:
    @pytest.mark.parametrize("text,value,side", [
        ("19/2", Fraction(19, 2), "exact"),
        ("7+", Fraction(7), "plus"),
        ("7-", Fraction(7), "minus"),
        ("-3", Fraction(-3), "exact"),
        ("-3/4-", Fraction(-3, 4), "minus"),
    ])
    def test_parse(self, text, value, side):
        sv = SV(text)
        assert (sv.value, sv.side) == (value, side)
        assert str(sv) == text.replace("19/2", "19/2")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SV("abc")
        with pytest.raises(ValueError):
            SV("1/0")

    def test_side_validated(self):
        with pytest.raises(ValueError):
            StabilityValue(Fraction(1), "above")


class TestTripleSpec:
    def test_rank_guard(self):
        with pytest.raises(RankMismatch):
            TripleSpec(2, (3, 1), 1, 0)

    def test_genus_guard(self):
        with pytest.raises(GenusOutOfRange):
            TripleSpec(1, (2, 1), 1, 0)

    def test_slopes_and_dual(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert spec.mu1 == Fraction(5, 2) and spec.mu2 == 0
        assert spec.dual() == TripleSpec(2, (1, 2), 0, -5)
        assert spec.dual().dual() == spec

    def test_dimensions(self):
        assert TripleSpec(2, (2, 1), 5, 0).complex_dim == 9
        assert TripleSpec(2, (1, 2), 0, -5).complex_dim == 9


class TestSigmaInterval:
    def test_rank21(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert not spec.is_empty_family
        assert (spec.sigma_m, spec.sigma_M) == (Fraction(5, 2), Fraction(10))

    def test_empty(self):
        assert TripleSpec(2, (2, 1), 0, 1).is_empty_family

    def test_rank12(self):
        spec = TripleSpec(2, (1, 2), 3, 2)
        assert not spec.is_empty_family
        assert (spec.sigma_m, spec.sigma_M) == (Fraction(2), Fraction(8))


class TestCriticalValues:
    def test_odd_degree(self):
        assert critical_values(TripleSpec(2, (2, 1), 5, 0)) == [
            (Fraction(4), 3),
            (Fraction(7), 4),
            (Fraction(10), 5),
        ]

    def test_even_degree_left_endpoint_is_wall(self):
        spec = TripleSpec(2, (2, 1), 4, 0)
        walls = critical_values(spec)
        assert walls == [(Fraction(2), 2), (Fraction(5), 3), (Fraction(8), 4)]
        assert walls[0][0] == spec.sigma_m

    def test_single_wall(self):
        assert critical_values(TripleSpec(2, (2, 1), 1, 0)) == [(Fraction(2), 1)]

    def test_empty_family(self):
        with pytest.raises(EmptyFamily):
            critical_values(TripleSpec(2, (2, 1), 0, 1))

    def test_rank12_matches_dual(self):
        spec = TripleSpec(2, (1, 2), 3, 2)
        assert critical_values(spec) == critical_values(spec.dual())
        assert critical_values(spec)[0][0] >= spec.sigma_m


class TestChamberD0:
    def test_interior_value(self):
        assert chamber_d0(TripleSpec(2, (2, 1), 5, 0), SV("5")) == 4

    def test_wall_plus(self):
        assert chamber_d0(TripleSpec(2, (2, 1), 5, 0), SV("7+")) == 5

    def test_wall_minus(self):
        assert chamber_d0(TripleSpec(2, (2, 1), 5, 0), SV("7-")) == 4

    def test_wall_exact_rejected(self):
        with pytest.raises(OnWall):
            chamber_d0(TripleSpec(2, (2, 1), 5, 0), SV("7"))

    def test_integer_floor_point_that_is_not_a_wall(self):
        # (sigma + d1 + d2)/3 integral while sigma is non-critical: the
        # plain floor applies and the chamber is already empty.
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert chamber_d0(spec, SV("13")) == 7

    def test_rank12_formula(self):
        # floor((7/2 - 3 - 2)/3) + 1 = floor(-1/2) + 1 = 0
        spec = TripleSpec(2, (1, 2), 3, 2)
        sigma = SV("7/2")
        assert chamber_d0(spec, sigma) == 0
        assert chamber_d0(spec, sigma) == chamber_d0(spec.dual(), sigma)


def _oracle_chamber_d0(spec, sigma):
    """``chamber_d0`` in ``Fraction`` arithmetic: the wall test on (sigma + d1 + d2)/3, then its floor by side."""
    s = spec if spec.rank_pair == (2, 1) else spec.dual()
    triple = sigma.value + s.d1 + s.d2
    if sigma.side == "exact" and not s.is_empty_family and triple.denominator == 1 and triple.numerator % 3 == 0:
        if s.mu1 <= triple.numerator // 3 <= s.d1 - s.d2:
            raise OnWall(str(sigma))
    q = triple / 3
    floor = math.floor(q)
    return (floor - 1 if sigma.side == "minus" and q == floor else floor) + 1


def _oracle_chamber_or_empty(spec21, sigma):
    """``_chamber_or_empty`` in ``Fraction`` arithmetic."""
    if spec21.is_empty_family:
        return None
    d0 = _oracle_chamber_d0(spec21, sigma)
    above = sigma.value > spec21.sigma_m or (sigma.value == spec21.sigma_m and sigma.side == "plus")
    return d0 if above and d0 <= spec21.d1 - spec21.d2 else None


class TestChamberOracle:
    """The integer chamber arithmetic against the ``Fraction`` formulas it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(2, 6),
        st.sampled_from([(2, 1), (1, 2)]),
        st.integers(-12, 12),
        st.integers(-12, 12),
        st.integers(-80, 80),
        st.sampled_from([1, 1, 1, 2, 3, 4, 6, 7]),
        st.sampled_from(["exact", "plus", "minus"]),
    )
    def test_integer_chambers_match_fractions(self, g, rank, d1, d2, p, q, side):
        """``chamber_d0`` matches or both raise ``OnWall``; ``_chamber_or_empty`` and the representatives match."""
        spec = TripleSpec(g, rank, d1, d2)
        spec21 = spec if rank == (2, 1) else spec.dual()
        sigma = StabilityValue(Fraction(p, q), side)
        try:
            expected = _oracle_chamber_d0(spec, sigma)
        except OnWall:
            with pytest.raises(OnWall):
                chamber_d0(spec, sigma)
            with pytest.raises(OnWall):
                triples._chamber_or_empty(spec21, sigma)
        else:
            assert chamber_d0(spec, sigma) == expected
            assert triples._chamber_or_empty(spec21, sigma) == _oracle_chamber_or_empty(spec21, sigma)
        assert spec.is_empty_family == (spec.mu1 < spec.mu2)
        if spec.is_empty_family:
            assert chamber_representatives(spec) == []
        else:
            bounds = triples.chamber_bounds(spec21)
            midpoints = [StabilityValue((lo + hi) / 2) for lo, hi in zip(bounds, bounds[1:])]
            assert chamber_representatives(spec) == midpoints

    def test_every_wall_and_side(self):
        """Each wall of a family, sigma_m included when it is one, raises exact and resolves plus and minus."""
        for spec in (TripleSpec(2, (2, 1), 6, 0), TripleSpec(3, (1, 2), 1, -4)):
            for sigma_c, d_m in critical_values(spec):
                with pytest.raises(OnWall):
                    chamber_d0(spec, StabilityValue(sigma_c))
                assert chamber_d0(spec, StabilityValue(sigma_c, "plus")) == d_m + 1
                assert chamber_d0(spec, StabilityValue(sigma_c, "minus")) == d_m


def _moduli_11(g, d1, d2):
    """e(N_(1,1)) of rank-(1,1) triples L2 -> L1 above sigma_m: e(Jac^(d2) X x Sym^(d1-d2) X), empty when d1 < d2."""
    if d1 < d2:
        return LaurentPoly()
    return times_binomials(blocks.sym_power(g, d1 - d2), g)


def _flip_oracle(spec, d_M):
    """The wall term as a product of blocks, (e_a - e_b) e(Jac X) e(N_(1,1)(d1 - d_M, d2)), the route the run replaced."""
    g = spec.g
    ranks = proj_space(2 * d_M - spec.d1 + g - 1) - proj_space(spec.d1 - spec.d2 - d_M)
    return times_binomials(_moduli_11(g, spec.d1 - d_M, spec.d2), g) * ranks


class TestModuli11:
    def test_empty_when_d1_below_d2(self):
        assert _moduli_11(2, 3, 5) == 0

    def test_equal_degrees(self):
        assert _moduli_11(2, 4, 4) == (ONE + U) ** 2 * (ONE + V) ** 2

    def test_generic(self):
        assert _moduli_11(2, 4, 3) == jacobian(2) * (ONE + 2 * U + 2 * V + UV)


class TestFlipDifference:
    def test_top_wall_d1_5(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert flip_difference(spec, 5) == proj_space(6) * jacobian(2) ** 2

    def test_middle_wall_d1_5(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        expected = (UV + UV**2 + UV**3) * jacobian(2) ** 2 * (ONE + 2 * U + 2 * V + UV)
        assert flip_difference(spec, 4) == expected

    def test_top_wall_d1_2(self):
        # e_3 Jac^2: the bundle rank 2 d_M - d1 + g - 1 is 3 here.
        spec = TripleSpec(2, (2, 1), 2, 0)
        assert flip_difference(spec, 2) == proj_space(3) * jacobian(2) ** 2

    def test_wall_at_sigma_m_rejected(self):
        with pytest.raises(WallAtSigmaM):
            flip_difference(TripleSpec(2, (2, 1), 4, 0), 2)

    def test_rank12_rejected(self):
        with pytest.raises(RankMismatch):
            flip_difference(TripleSpec(2, (1, 2), 3, 2), 1)

    def test_wall_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_difference(TripleSpec(2, (2, 1), 5, 0), 6)

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d1,d2", [(1, 0), (4, 0), (5, -1), (3, -2)])
    def test_series_path_agrees(self, g, d1, d2):
        spec = TripleSpec(g, (2, 1), d1, d2)
        for _, d_m in critical_values(spec):
            if d_m <= spec.mu1:
                continue
            assert flip_difference(spec, d_m) == flip_difference_series(spec, d_m)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(-2, 0), st.integers(0, 30))
    @example(2, 0, 5)
    @example(6, -2, 30)
    def test_block_oracle_property(self, g, d2, d1):
        """Every wall above sigma_m of the family equals the product of blocks."""
        spec = TripleSpec(g, (2, 1), d1, d2)
        for _, d_m in critical_values(spec):
            if d_m > spec.mu1:
                assert flip_difference(spec, d_m) == _flip_oracle(spec, d_m), d_m


class TestHodgeTriplesClosed:
    def test_last_chamber_d1_5(self):
        res = hodge_triples_closed(TripleSpec(2, (2, 1), 5, 0), SV("19/2"))
        assert res.poly == proj_space(6) * jacobian(2) ** 2
        assert res.complex_dim == 9

    def test_beyond_sigma_max_empty(self):
        res = hodge_triples_closed(TripleSpec(2, (2, 1), 5, 0), SV("21/2"))
        assert res.is_empty and res.poly == 0

    def test_below_sigma_m_empty(self):
        assert hodge_triples_closed(TripleSpec(2, (2, 1), 5, 0), SV("2")).is_empty

    def test_empty_family(self):
        assert hodge_triples_closed(TripleSpec(2, (2, 1), 0, 1), SV("1")).is_empty

    def test_wall_exact_rejected(self):
        with pytest.raises(OnWall):
            hodge_triples_closed(TripleSpec(2, (2, 1), 5, 0), SV("7"))

    def test_sigma_m_exact_is_empty_for_odd_d1(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert hodge_triples_closed(spec, SV("5/2")).is_empty

    def test_sigma_m_exact_is_wall_for_even_d1(self):
        spec = TripleSpec(2, (2, 1), 4, 0)
        with pytest.raises(OnWall):
            hodge_triples_closed(spec, SV("2"))

    def test_small_sigma_chamber_factors(self):
        # First chamber of the d1 = 1, d2 = -2 family: a projectivized
        # rank-3 bundle over M(2,1) x Jac, of total dimension 9.
        spec = TripleSpec(2, (2, 1), 1, -2)
        res = hodge_triples_closed(spec, SV("13/5"))
        bundle = hodge_bundles_odd(2, 1)
        assert res.complex_dim == 9
        assert res.poly == jacobian(2) * proj_space(3) * bundle.poly
        assert res.poly.coeff(9, 9) == 1

    def test_chamber_constancy(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        assert hodge_triples_closed(spec, SV("8")) == hodge_triples_closed(spec, SV("19/2"))
        assert hodge_triples_closed(spec, SV("10-")) == hodge_triples_closed(spec, SV("8"))


class TestHodgeTriplesSum:
    def test_two_wall_sum(self):
        spec = TripleSpec(2, (2, 1), 5, 0)
        res = hodge_triples_sum(spec, SV("5"))
        assert res.poly == flip_difference(spec, 4) + flip_difference(spec, 5)
        assert res == hodge_triples_closed(spec, SV("5"))

    def test_empty_sum(self):
        assert hodge_triples_sum(TripleSpec(2, (2, 1), 5, 0), SV("11")).is_empty

    def test_single_wall_d1_2(self):
        spec = TripleSpec(2, (2, 1), 2, 0)
        res = hodge_triples_sum(spec, SV("3"))
        assert res.poly == proj_space(3) * jacobian(2) ** 2
        assert res == hodge_triples_closed(spec, SV("3"))

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d2", [-2, -1, 0])
    def test_matches_closed_formula_everywhere(self, g, d2):
        for d1 in range(2 * d2 + 1, 2 * d2 + 9):
            spec = TripleSpec(g, (2, 1), d1, d2)
            for sigma in chamber_representatives(spec, include_beyond=True):
                assert hodge_triples_closed(spec, sigma) == hodge_triples_sum(spec, sigma)


class TestChamberRepresentatives:
    def test_d1_5(self):
        reps = chamber_representatives(TripleSpec(2, (2, 1), 5, 0))
        assert [r.value for r in reps] == [Fraction(13, 4), Fraction(11, 2), Fraction(17, 2)]

    def test_beyond(self):
        reps = chamber_representatives(TripleSpec(2, (2, 1), 5, 0), include_beyond=True)
        assert reps[-1].value == Fraction(11)

    def test_empty_family(self):
        assert chamber_representatives(TripleSpec(2, (2, 1), 0, 1)) == []

    def test_all_representatives_are_interior(self):
        spec = TripleSpec(3, (2, 1), 6, -1)
        walls = {sc for sc, _ in critical_values(spec)}
        for rep in chamber_representatives(spec):
            assert spec.sigma_m < rep.value < spec.sigma_M
            assert rep.value not in walls


class TestDuality:
    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d1,d2", [(1, 0), (2, 1), (3, 2), (2, -1), (3, 0)])
    def test_rank12_equals_dual_rank21(self, g, d1, d2):
        spec12 = TripleSpec(g, (1, 2), d1, d2)
        spec21 = spec12.dual()
        for sigma in chamber_representatives(spec21, include_beyond=True):
            left = hodge_triples_closed(spec12, sigma)
            right = hodge_triples_closed(spec21, sigma)
            assert left.poly == right.poly
            assert left.complex_dim == right.complex_dim


def _clear_caches() -> None:
    for module in (blocks, triples):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


def _memo_agrees(evaluate, points) -> None:
    """``evaluate`` over ``points`` in shuffled order, on a warming memo, equals each point evaluated from cold caches."""
    reference = []
    for point in points:
        _clear_caches()
        reference.append(evaluate(*point))
    _clear_caches()
    order = list(range(len(points)))
    random.Random(10).shuffle(order)
    for i in order:
        assert evaluate(*points[i]) == reference[i], points[i]
    for i in reversed(order):  # the memo is warm for every point now
        assert evaluate(*points[i]) == reference[i], points[i]


def _series_core(g, n, e2):
    """The closed core as two series tails over 1 - uv, the route the finite sum replaced; kept as its oracle."""
    a = TruncatedSeries.rational(n, [(U, g), (V, g)], [ONE, UV, monomial(1, -1, -1)]).coeff(n)
    b = TruncatedSeries.rational(n, [(U, g), (V, g)], [ONE, UV, monomial(1, 2, 2)]).coeff(n)
    return (monomial(1, n, n) * a - monomial(1, e2, e2) * b) / (ONE - UV)


def _closed_core(g, n, e2):
    """The closed core by one dict update per term and exponent: the route ``triples._closed_diagonals`` replaced,
    kept as its oracle.  Window entry m, the w^(lo+m) coefficient of [n-s+2 choose 2]_w times the run, is a
    difference of prefix sums; the nonzero sums are returned."""
    terms = {}
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
    return {key: c for key, c in terms.items() if c}


def _diagonal_poly(g, n, e2):
    """The terms of ``triples._closed_diagonals``, each diagonal run (a, b, coeffs) read as c_j u^(a+j) v^(b+j).

    The runs lie on distinct diagonals a - b in [-g, g], in ascending order, and each ends in nonzero terms."""
    runs = triples._closed_diagonals(g, n, e2)
    diagonals = [a - b for a, b, _ in runs]
    assert diagonals == sorted(set(diagonals)) and set(diagonals) <= set(range(-g, g + 1))
    assert all(coeffs[0] and coeffs[-1] for _, _, coeffs in runs)
    return LaurentPoly({(a + j, b + j): c for a, b, coeffs in runs for j, c in enumerate(coeffs)})


def _oracle_square(g, n, e2, m, dim):
    """The row-major square of [0, dim]^2 of the oracle core times (1+u)^m (1+v)^m, by ``times_binomials``."""
    square = [0] * (dim + 1) ** 2
    for (a, b), c in times_binomials(LaurentPoly(_closed_core(g, n, e2)), m)._terms.items():
        square[a * (dim + 1) + b] = c
    return square


def _triple_square(spec, sigma):
    """(d0, dim, square) of a triple request: its chamber index and the ``_closed_square`` of its key."""
    d0, key = triples._triple_key(spec, sigma)
    return (d0, *triples._closed_square(key))


def _pair_square(g, d, tau, fixed):
    """(d0, dim, square) of a pair request, as ``_triple_square`` gives a triple's."""
    d0, key = triples._pair_key(g, d, tau, fixed)
    return (d0, *triples._closed_square(key))


class TestClosedCore:
    """The dense diagonals of ``_closed_diagonals`` equal the series-tail extraction and the dict oracle it replaced,
    and every chamber's checked square equals the oracle times e(Jac X)^k by ``times_binomials``."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_series_oracle_grid(self, g):
        for n in range(13):
            for e2 in range(-3, 2 * n + 4):
                core = _diagonal_poly(g, n, e2)
                assert core == _series_core(g, n, e2) == LaurentPoly(_closed_core(g, n, e2)), (g, n, e2)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 30), st.integers(-5, 45))
    def test_series_oracle_property(self, g, n, e2):
        assert _diagonal_poly(g, n, e2) == _series_core(g, n, e2) == LaurentPoly(_closed_core(g, n, e2))

    @pytest.mark.parametrize(
        "g, n, e2",
        [(3, 8, 2), (2, 9, 4), (3, 8, 1), (4, 12, 0), (4, 3, 5), (5, 2, 1), (2, 6, -3), (3, 0, -5)],
        ids=["e2-is-s", "e2-is-top-s", "e2-below-s", "e2-zero", "n-below-2g", "n-below-2g-e2-inside", "e2-negative", "n-zero"],
    )
    def test_series_oracle_examples(self, g, n, e2):
        assert _diagonal_poly(g, n, e2) == _series_core(g, n, e2) == LaurentPoly(_closed_core(g, n, e2))

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_triple_squares_match_oracle(self, g):
        """Every chamber of g, d1 = 1..30, d2 = -2..0: the square of its key's ``_closed_square`` is the oracle's."""
        chambers = 0
        for d2 in (-2, -1, 0):
            for d1 in range(1, 31):
                spec = TripleSpec(g, (2, 1), d1, d2)
                for sigma in chamber_representatives(spec):
                    d0, dim, square = _triple_square(spec, sigma)
                    assert square == _oracle_square(g, d1 - d2 - d0, -d1 + g - 1 + 2 * d0, 2 * g, dim), (spec, sigma)
                    chambers += 1
        assert chambers == sum(d1 - d1 // 2 - d2 for d2 in (-2, -1, 0) for d1 in range(1, 31))

    @pytest.mark.parametrize("fixed_det", [False, True], ids=["unfixed", "fixed"])
    def test_pair_squares_match_oracle(self, fixed_det):
        """Every pair chamber of g = 2..6, d = 1..24: the square of its key's ``_closed_square`` is the oracle's, with
        m = g or 0."""
        chambers = 0
        for g in range(2, 7):
            for d in range(1, 25):
                for tau in pair_chamber_representatives(d):
                    d0, dim, square = _pair_square(g, d, tau, fixed_det)
                    fl = d0 - 1
                    assert square == _oracle_square(g, d - 1 - fl, g + 1 - d + 2 * fl, 0 if fixed_det else g, dim)
                    chambers += 1
        assert chambers == 780

    def test_wide_slot_squares_match_oracle(self, monkeypatch):
        """The lowest and a middle chamber of g = 12, d1 = 100, d2 = 0, whose slots are 10 bytes wide."""
        spec = TripleSpec(12, (2, 1), 100, 0)
        sigmas = chamber_representatives(spec)
        widths, shift_adds = [], laurent._shift_adds
        monkeypatch.setattr(laurent, "_shift_adds", lambda packed, n, *box: widths.append(n) or shift_adds(packed, n, *box))
        for sigma in (sigmas[0], sigmas[len(sigmas) // 2]):
            d0, dim, square = _triple_square(spec, sigma)
            assert square == _oracle_square(12, 100 - d0, -100 + 11 + 2 * d0, 24, dim)
        assert widths[:2] == [10, 10]

    def test_bytes_path_squares_match_word_path(self, monkeypatch):
        """With no word formats, as on a big-endian host, slots of any byte count are packed by ``to_bytes`` into a
        strided list: every square of g = 2..4, d1 in {1, 2, 7, 13, 20}, d2 = -2..0, and of the pairs of g = 2..4,
        d = 1..6, equals the word path's.  Each is shift-added on its rows 0..dim // 2 + 1 alone, on both paths."""
        chambers = [
            (TripleSpec(g, (2, 1), d1, d2), sigma)
            for g in (2, 3, 4)
            for d1 in (1, 2, 7, 13, 20)
            for d2 in (-2, -1, 0)
            for sigma in chamber_representatives(TripleSpec(g, (2, 1), d1, d2))
        ]
        pairs = [(g, d, tau, f) for g in (2, 3, 4) for d in range(1, 7) for tau in pair_chamber_representatives(d) for f in (0, 1)]

        def squares():
            return [_triple_square(*c) for c in chambers] + [_pair_square(*p) for p in pairs]

        boxes, shift_adds = [], laurent._shift_adds

        def spy(packed, n, m, height, width, half):
            boxes.append((n, height, width))
            return shift_adds(packed, n, m, height, width, half)

        monkeypatch.setattr(laurent, "_shift_adds", spy)
        words = squares()
        monkeypatch.setattr(laurent, "_WORD_FORMATS", {})
        assert squares() == words
        calls = len(chambers) + len(pairs)
        assert len(chambers) == 252 and len(boxes) == 2 * calls and {1, 2, 3} <= {n for n, _, _ in boxes[calls:]}
        assert boxes[:calls] != boxes[calls:] and all(height == (width - 1) // 2 + 2 for _, height, width in boxes)

    def test_squares_retain_nothing(self):
        """Closed squares over 110 chambers, with diagonals of many lengths, leave nothing allocated: no format cache
        or memo outlives a call.  Packing each run by ``struct.pack`` kept about 11 kB of compiled formats here."""
        spec = TripleSpec(2, (2, 1), 1, 0)
        _triple_square(spec, chamber_representatives(spec)[0])  # the first call's own set-up
        specs = [TripleSpec(3, (2, 1), d1, 0) for d1 in range(1, 21)]
        points = [(spec, sigma) for spec in specs for sigma in chamber_representatives(spec)]
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for point in points:
                _triple_square(*point)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(points) == 110 and retained < 1000, retained


class TestResolvedKeys:
    """A triple or pair request resolves to its chamber index d0 and the key (g, n, e2, m, dim) of the closed formula's
    inputs, with dim = m - 1 + 2n + e2; rows twisted by a line bundle share a key, and an empty space has none."""

    @pytest.mark.parametrize("rank", [(2, 1), (1, 2)], ids=["rank21", "rank12"])
    def test_triple_keys(self, rank):
        """Every chamber of g = 2..4, d1 = -3..12, d2 = -2..0 on rank (2,1), or the dual chamber on rank (1,2): the key
        is (g, d1 - d2 - d0, g - 1 - d1 + 2 d0, 2g, dim) on the rank-(2,1) family.  The twist (d1, d2) -> (d1 + 2,
        d2 + 1) has the same chamber representatives, keeps each key and raises d0 by one."""
        keys = 0
        for g, d1, d2 in itertools.product((2, 3, 4), range(-3, 13), (-2, -1, 0)):
            spec, twisted = TripleSpec(g, (2, 1), d1, d2), TripleSpec(g, (2, 1), d1 + 2, d2 + 1)
            if rank == (1, 2):
                spec, twisted = spec.dual(), twisted.dual()
            sigmas = chamber_representatives(spec)
            assert chamber_representatives(twisted)[: len(sigmas)] == sigmas
            for sigma in sigmas:
                d0, key = triples._triple_key(spec, sigma)
                assert key == (g, d1 - d2 - d0, g - 1 - d1 + 2 * d0, 2 * g, spec.complex_dim), (spec, sigma)
                assert key[4] == key[3] - 1 + 2 * key[1] + key[2]
                assert triples._triple_key(twisted, sigma) == (d0 + 1, key)
                keys += 1
            if not spec.is_empty_family:
                assert triples._triple_key(spec, StabilityValue(spec.sigma_M + 1)) == (None, None)
        assert keys == 510

    @pytest.mark.parametrize("fixed_det", [False, True], ids=["unfixed", "fixed"])
    def test_pair_keys(self, fixed_det):
        """Every pair chamber of g = 2..4, d = 1..12: the key is (g, d - 1 - [tau], g + 1 - d + 2 [tau], m, dim), with
        m = g and dim = 2g - 2 + d, or m = 0 and dim = g - 2 + d with fixed determinant."""
        for g, d in itertools.product((2, 3, 4), range(1, 13)):
            m, dim = (0, g - 2 + d) if fixed_det else (g, 2 * g - 2 + d)
            for tau in pair_chamber_representatives(d):
                fl = math.floor(tau.value)
                assert triples._pair_key(g, d, tau, fixed_det) == (fl + 1, (g, d - 1 - fl, g + 1 - d + 2 * fl, m, dim))
                assert dim == m - 1 + 2 * (d - 1 - fl) + g + 1 - d + 2 * fl
            assert triples._pair_key(g, d, StabilityValue(Fraction(d + 1)), fixed_det) == (None, None)

    def test_bundle_keys(self):
        """Every odd d = -9..9 of one genus g = 2..6 and one form has one bundle key, (g, fixed); an even d raises
        ``EvenDegree`` and g = 1 ``GenusOutOfRange``, as keying, before any evaluation."""
        for g, fixed in itertools.product(range(2, 7), (False, True)):
            assert {triples._bundle_key(g, d, fixed) for d in range(-9, 10, 2)} == {(g, fixed)}
            for d in range(-8, 10, 2):
                with pytest.raises(EvenDegree, match=f"degree must be odd, got {d}"):
                    triples._bundle_key(g, d, fixed)
        for d, fixed in itertools.product((1, 2), (False, True)):
            with pytest.raises(GenusOutOfRange, match="genus must be >= 2, got 1"):
                triples._bundle_key(1, d, fixed)


class TestClosedMemo:
    """Closed triples and pairs in shuffled order, with the block and wall-sum caches warming, equal each value from
    cold caches; the closed formulas hold no memo of their own."""

    def test_closed_triples_warm_equals_cold(self):
        points = []
        for g in (2, 3):
            for d1, d2 in ((3, 0), (5, 0), (6, -1), (7, 1)):
                for spec in (TripleSpec(g, (2, 1), d1, d2), TripleSpec(g, (1, 2), -d2, -d1)):
                    points.extend((spec, sigma) for sigma in chamber_representatives(spec, include_beyond=True))
        assert len(points) == 64
        _memo_agrees(hodge_triples_closed, points)

    @pytest.mark.parametrize("fixed_det", [False, True], ids=["unfixed", "fixed"])
    def test_pairs_warm_equals_cold(self, fixed_det):
        points = [
            (g, d, tau, fixed_det)
            for g in (2, 3, 4)
            for d in range(1, 8)
            for tau in pair_chamber_representatives(d) + [SV(f"{d}+")]
        ]
        assert len(points) == 69
        _memo_agrees(hodge_pairs, points)


class TestHodgePairs:
    def test_smallest_fixed(self):
        res = hodge_pairs(2, 1, SV("3/4"), fixed_det=True)
        assert res.poly == ONE + UV
        assert res.complex_dim == 1

    def test_smallest_unfixed(self):
        res = hodge_pairs(2, 1, SV("3/4"))
        assert res.poly == (ONE + U) ** 2 * (ONE + V) ** 2 * (ONE + UV)
        assert res.complex_dim == 3

    def test_wall(self):
        with pytest.raises(OnWall):
            hodge_pairs(2, 1, SV("1"))

    def test_empty_outside_interval(self):
        assert hodge_pairs(2, 1, SV("1/4")).is_empty
        assert hodge_pairs(2, 1, SV("3/2")).is_empty
        assert hodge_pairs(2, 1, SV("1+")).is_empty

    def test_wall_sides_select_chambers(self):
        lower = hodge_pairs(2, 3, SV("2-"), fixed_det=True)
        upper = hodge_pairs(2, 3, SV("2+"), fixed_det=True)
        assert lower != upper
        assert upper == hodge_pairs(2, 3, SV("5/2"), fixed_det=True)

    def test_integer_tau_outside_interval_is_not_a_wall(self):
        assert hodge_pairs(2, 3, SV("5")).is_empty

    @pytest.mark.parametrize("g,d", [(2, 1), (2, 3), (3, 2), (3, 5)])
    def test_jacobian_factorization(self, g, d):
        for tau in pair_chamber_representatives(d):
            full = hodge_pairs(g, d, tau)
            fixed = hodge_pairs(g, d, tau, fixed_det=True)
            assert full.poly == jacobian(g) * fixed.poly

    @pytest.mark.parametrize("g,d1,d2", [(2, 5, 0), (2, 3, -1), (3, 4, 1)])
    def test_triples_factorization(self, g, d1, d2):
        spec = TripleSpec(g, (2, 1), d1, d2)
        d = d1 - 2 * d2
        for sigma in chamber_representatives(spec):
            tau = StabilityValue((sigma.value + d) / 3, sigma.side)
            pair = hodge_pairs(g, d, tau)
            assert jacobian(g) * pair.poly == hodge_triples_closed(spec, sigma).poly


class TestThaddeusPoincare:
    def test_smallest_case(self):
        p = poincare_pairs_fixed_det_thaddeus(2, 1, SV("3/4"))
        assert p.text() == "1 + t^2"

    def test_projective_plane_genus3(self):
        p = poincare_pairs_fixed_det_thaddeus(3, 1, SV("3/4"))
        assert p.text() == "1 + t^2 + t^4"

    def test_wall(self):
        with pytest.raises(OnWall):
            poincare_pairs_fixed_det_thaddeus(2, 1, SV("1"))

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_diagonal_of_hodge(self, g, d):
        for tau in pair_chamber_representatives(d):
            fixed = hodge_pairs(g, d, tau, fixed_det=True)
            assert fixed.poly.diagonal() == poincare_pairs_fixed_det_thaddeus(g, d, tau)


class TestThaddeusAnchors:
    """Pair spaces that Thaddeus identifies geometrically; no formula of the package produces these values.

    M. Thaddeus, "Stable pairs, linear systems and the Verlinde formula",
    Invent. Math. 117 (1994).
    """

    @pytest.mark.parametrize("g", range(2, 7))
    def test_top_chamber_is_projective_space(self, g):
        """In the last chamber below d, M_tau(2, Lambda) = P(H^1(Lambda^(-1))) = P^(d+g-2)."""
        for d in range(1, 30):
            tau = pair_chamber_representatives(d)[-1]
            fixed = hodge_pairs(g, d, tau, fixed_det=True)
            assert (fixed.poly, fixed.complex_dim) == (proj_space(d + g - 1), d + g - 2), d
            assert hodge_pairs(g, d, tau).poly == jacobian(g) * proj_space(d + g - 1), d

    @pytest.mark.parametrize("g", range(2, 7))
    def test_bottom_chamber_is_projective_bundle(self, g):
        """For odd d >= 4g - 3 and tau = d/2+, M_tau(2, Lambda) = P(H^0(E)), a P^(d+1-2g) bundle over M(2, Lambda)."""
        for d in range(4 * g - 3, 30, 2):
            tau = pair_chamber_representatives(d)[0]
            pair = hodge_pairs(g, d, tau, fixed_det=True)
            bundles = hodge_bundles_odd(g, d, fixed_det=True)
            assert pair.poly == bundles.poly * proj_space(d + 2 - 2 * g), d
            assert pair.complex_dim == bundles.complex_dim + d + 1 - 2 * g, d


def _bundle_oracle(g: int, fixed_det: bool) -> LaurentPoly:
    """e(M(2,Lambda)), or e(M(2,d)), by dict arithmetic: the two ``**g`` products less (uv)^g e(Jac X), divided by
    1 - uv and then 1 - (uv)^2 as running sums, and e(Jac X) multiplied in by ``times_binomials``."""
    twisted = (ONE + monomial(1, 2, 1)) ** g * (ONE + monomial(1, 1, 2)) ** g
    poly = (twisted - times_binomials(monomial(1, g, g), g)) / (ONE - UV) / (ONE - UV**2)
    return poly if fixed_det else times_binomials(poly, g)


def _via_oracle(g: int, d: int) -> LaurentPoly:
    """``hodge_bundles_via_triples`` by ``LaurentPoly`` arithmetic: the small chamber's closed polynomial times
    1 - uv, divided by 1 - (uv)^(2g-1) as running sums and by (1+u)^g and then (1+v)^g by the heap walk."""
    spec = TripleSpec(g, (2, 1), d, (d - (4 * g - 3)) // 2)
    small = hodge_triples_closed(spec, StabilityValue(spec.sigma_m, "plus"))
    return small.poly * (ONE - UV) / (ONE - UV ** (2 * g - 1)) / (ONE + U) ** g / (ONE + V) ** g


class TestBundles:
    def test_fixed_determinant_genus2(self):
        res = hodge_bundles_odd(2, 1, fixed_det=True)
        assert res.poly == ONE + UV + 2 * U**2 * V + 2 * U * V**2 + UV**2 + UV**3
        assert res.complex_dim == 3

    def test_poincare_genus2(self):
        res = hodge_bundles_odd(2, 1, fixed_det=True)
        assert res.poly.diagonal().text() == "1 + t^2 + 4 t^3 + t^4 + t^6"

    def test_unfixed_factorization(self):
        full = hodge_bundles_odd(2, 1)
        fixed = hodge_bundles_odd(2, 1, fixed_det=True)
        assert full.poly == jacobian(2) * fixed.poly
        assert full.complex_dim == 5

    def test_even_degree_rejected(self):
        with pytest.raises(EvenDegree):
            hodge_bundles_odd(2, 2)
        with pytest.raises(EvenDegree):
            hodge_bundles_via_triples(2, 4)

    def test_degree_only_matters_mod_two(self):
        assert hodge_bundles_odd(3, 1) == hodge_bundles_odd(3, 7)

    @pytest.mark.parametrize("g", range(2, 21))
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_triples_route(self, g, d):
        """The dense division of the small chamber's square equals its ``LaurentPoly`` oracle and the closed forms,
        whose full form's slot grows from 8 to 9 bytes at g = 17."""
        via = hodge_bundles_via_triples(g, d)
        assert via == _via_oracle(g, d)
        assert via == hodge_bundles_odd(g, d).poly

    def test_self_dual_and_symmetric(self):
        for fixed in (False, True):
            res = hodge_bundles_odd(3, 1, fixed_det=fixed)
            assert res.poly.swap_uv() == res.poly
            assert res.poly.palindrome_dual(res.complex_dim) == res.poly

    @pytest.mark.parametrize("fixed_det", [False, True], ids=["full", "fixed"])
    def test_closed_forms_match_dict_oracle(self, monkeypatch, fixed_det):
        """``hodge_bundles_odd`` and the ``_bundle_square`` of its key equal ``_bundle_oracle`` for g = 2..40.  The
        kernel's slots are machine words up to g = 16 (full) and 33 (fixed) and wider from there on, so both pack paths
        are met."""
        oracles = [_bundle_oracle(g, fixed_det) for g in range(2, 41)]
        widths, shift_adds = [], laurent._shift_adds
        monkeypatch.setattr(laurent, "_shift_adds", lambda packed, n, *box: widths.append(n) or shift_adds(packed, n, *box))
        for g, oracle in enumerate(oracles, 2):
            dim = 3 * g - 3 if fixed_det else 4 * g - 3
            res = hodge_bundles_odd(g, 2 * g - 1, fixed_det=fixed_det)
            assert (res.poly, res.complex_dim) == (oracle, dim), g
            square = [oracle.coeff(a, b) for a in range(dim + 1) for b in range(dim + 1)]
            assert triples._bundle_square(triples._bundle_key(g, 1, fixed_det)) == (dim, square), g
        wide = 34 if fixed_det else 17
        assert max(widths[: 2 * (wide - 2)]) == 8 and min(widths[2 * (wide - 2) :]) > 8

    @pytest.mark.parametrize("fault", [{0: 1}, {-1: 1}, {-2: 1, -1: -1}, {-3: 1, -2: -1, -1: -1}],
                             ids=["lowest", "top", "by-1-w-only", "one-chain-open"])  # fmt: skip
    def test_inexact_diagonal_raises(self, monkeypatch, fault):
        """A fault on any one numerator diagonal: 1 more at its lowest or top entry; (1 - w) w^(top - 1) added, which
        1 - w divides and 1 - w^2 does not; or terms that leave the last two running sums at 0 and only the third
        open.  Each time one of that diagonal's running sums does not close at 0, and both forms raise
        ``NotDivisible`` before the kernel runs."""
        numerator, g = triples._bundle_numerator, 4
        for faulty_delta in range(g + 1):

            def faulty(g, delta):
                diagonal = numerator(g, delta)
                for entry, c in fault.items():
                    diagonal[entry] += c * (delta == faulty_delta)
                return diagonal

            monkeypatch.setattr(triples, "_bundle_numerator", faulty)
            for fixed_det in (False, True):
                with pytest.raises(NotDivisible, match=f"diagonal {faulty_delta} of the genus-4 bundle numerator"):
                    hodge_bundles_odd(g, 1, fixed_det=fixed_det)


class TestResidueExtract:
    def test_fixture(self):
        assert residue_extract_check(2, 1, 2, 3, 0, 0) == (25, 25)

    def test_rational_inputs_agree(self):
        series, residue = residue_extract_check(
            3, Fraction(1, 2), Fraction(-2, 3), Fraction(5), Fraction(1, 7), Fraction(-3, 4)
        )
        assert series == residue

    def test_degenerate_poles(self):
        with pytest.raises(DegeneratePoles):
            residue_extract_check(2, 1, 1, 2, 0, 0)
        with pytest.raises(DegeneratePoles):
            residue_extract_check(2, 0, 1, 2, 0, 0)

    def test_genus_guard(self):
        with pytest.raises(GenusOutOfRange):
            residue_extract_check(1, 1, 2, 3, 0, 0)


class TestHodgeResult:
    def test_empty_requires_zero(self):
        with pytest.raises(ValueError):
            HodgeResult(ONE, None)

    def test_exponent_window_enforced(self):
        with pytest.raises(AssertionError):
            HodgeResult(monomial(1, -1, 0), 4)
        with pytest.raises(AssertionError):
            HodgeResult(monomial(1, 5, 0), 4)

    def test_constant_term_observation(self):
        # Recorded observation, not an asserted invariant: every computed
        # chamber so far has h^(0,0) = 1.
        spec = TripleSpec(2, (2, 1), 5, 0)
        seen = {hodge_triples_closed(spec, s).poly.coeff(0, 0) for s in chamber_representatives(spec)}
        print(f"observed constant terms: {sorted(seen)}")


class TestPairEndpointWalls:
    def test_even_degree_left_endpoint_is_wall(self):
        with pytest.raises(OnWall):
            hodge_pairs(2, 2, SV("1"))

    def test_left_endpoint_plus_is_first_chamber(self):
        upper = hodge_pairs(2, 2, SV("1+"), fixed_det=True)
        mid = hodge_pairs(2, 2, SV("3/2"), fixed_det=True)
        assert upper == mid

    def test_nonpositive_degree_is_empty(self):
        assert hodge_pairs(2, 0, SV("1/3")).is_empty
        assert hodge_pairs(2, -2, SV("-1/3")).is_empty
        assert pair_chamber_representatives(0) == []

    def test_degree_one_has_single_chamber(self):
        assert [t.value for t in pair_chamber_representatives(1)] == [Fraction(3, 4)]


class TestRandomizedFamilies:
    """Hypothesis-driven sweep beyond the fixed parameter grid."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(-3, 3),
        st.integers(0, 9),
        st.data(),
    )
    def test_cross_pipeline_on_random_family(self, g, d2, span, data):
        d1 = 2 * d2 + span  # keeps mu1 - mu2 = span/2 >= 0
        spec = TripleSpec(g, (2, 1), d1, d2)
        reps = chamber_representatives(spec, include_beyond=True)
        if not reps:
            assert spec.sigma_m == spec.sigma_M
            return
        sigma = data.draw(st.sampled_from(reps))
        closed = hodge_triples_closed(spec, sigma)
        summed = hodge_triples_sum(spec, sigma)
        assert closed == summed
        if not closed.is_empty:
            n = closed.complex_dim
            assert closed.poly.swap_uv() == closed.poly
            assert closed.poly.palindrome_dual(n) == closed.poly
            assert closed.poly.coeff(n, n) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 4), st.integers(-2, 2), st.integers(1, 8), st.data())
    def test_pairs_factor_triples_on_random_family(self, g, d2, d, data):
        d1 = d + 2 * d2
        spec = TripleSpec(g, (2, 1), d1, d2)
        reps = chamber_representatives(spec)
        if not reps:
            return
        sigma = data.draw(st.sampled_from(reps))
        tau = StabilityValue((sigma.value + d) / 3, sigma.side)
        pair = hodge_pairs(g, d, tau)
        assert jacobian(g) * pair.poly == hodge_triples_closed(spec, sigma).poly


class TestFlipBlockDecomposition:
    def test_wall_loci_are_products_of_small_moduli(self):
        # Both flip loci fiber over Jac x (moduli of line-bundle triples);
        # the contribution is the difference of the projectivized ranks.
        spec = TripleSpec(3, (2, 1), 7, 1)
        for _, d_m in critical_values(spec):
            if d_m <= spec.mu1:
                continue
            base = jacobian(3) * _moduli_11(3, spec.d1 - d_m, spec.d2)
            ranks = proj_space(2 * d_m - spec.d1 + spec.g - 1) - proj_space(spec.d1 - spec.d2 - d_m)
            assert flip_difference(spec, d_m) == ranks * base
