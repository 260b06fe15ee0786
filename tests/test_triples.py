import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgetriples import blocks, triples
from hodgetriples.blocks import GenusOutOfRange, jacobian, moduli_11, proj_space
from hodgetriples.laurent import ONE, UV, TruncatedSeries, U, V, monomial
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


class TestClosedCore:
    """The finite binomial sum of ``_closed_core`` equals the series-tail extraction it replaced."""

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_series_oracle_grid(self, g):
        for n in range(13):
            for e2 in range(-3, 2 * n + 4):
                assert triples._closed_core(g, n, e2) == _series_core(g, n, e2), (g, n, e2)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 30), st.integers(-5, 45))
    def test_series_oracle_property(self, g, n, e2):
        assert triples._closed_core(g, n, e2) == _series_core(g, n, e2)

    @pytest.mark.parametrize(
        "g, n, e2",
        [(3, 8, 2), (2, 9, 4), (3, 8, 1), (4, 12, 0), (4, 3, 5), (5, 2, 1), (2, 6, -3), (3, 0, -5)],
        ids=["e2-is-s", "e2-is-top-s", "e2-below-s", "e2-zero", "n-below-2g", "n-below-2g-e2-inside", "e2-negative", "n-zero"],
    )
    def test_series_oracle_examples(self, g, n, e2):
        assert triples._closed_core(g, n, e2) == _series_core(g, n, e2)


class TestClosedMemo:
    """The Jacobian square is held per genus and the wall sums per family; holding them changes no value."""

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

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("d", [1, 3])
    def test_triples_route(self, g, d):
        assert hodge_bundles_via_triples(g, d) == hodge_bundles_odd(g, d).poly

    def test_self_dual_and_symmetric(self):
        for fixed in (False, True):
            res = hodge_bundles_odd(3, 1, fixed_det=fixed)
            assert res.poly.swap_uv() == res.poly
            assert res.poly.palindrome_dual(res.complex_dim) == res.poly


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
            base = jacobian(3) * moduli_11(3, spec.d1 - d_m, spec.d2)
            ranks = proj_space(2 * d_m - spec.d1 + spec.g - 1) - proj_space(spec.d1 - spec.d2 - d_m)
            assert flip_difference(spec, d_m) == ranks * base
