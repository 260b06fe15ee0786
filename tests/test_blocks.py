import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgetriples.blocks import GenusOutOfRange, TypeVector, chi_triples, jacobian, proj_space, sym_power
from hodgetriples.laurent import ONE, UV, LaurentPoly, TruncatedSeries, U, UniPoly, V


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


class TestProjSpace:
    def test_plane(self):
        assert proj_space(3) == ONE + UV + UV**2

    def test_empty(self):
        assert proj_space(0) == 0

    def test_point(self):
        assert proj_space(1) == ONE

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            proj_space(-1)

    @pytest.mark.parametrize("n", range(51))
    def test_geometric_identity(self, n):
        """e_n (1 - uv) = 1 - (uv)^n, by which ``laurent._square_quotient`` divides by e_n as a product by 1 - uv
        and running sums of stride (n, n)."""
        assert proj_space(n) * (ONE - UV) == ONE - UV**n


class TestJacobian:
    def test_genus_two_expansion(self):
        expected = (
            ONE
            + 2 * U
            + 2 * V
            + U**2
            + 4 * UV
            + V**2
            + 2 * U**2 * V
            + 2 * U * V**2
            + UV**2
        )
        assert jacobian(2) == expected

    def test_genus_three_diagonal(self):
        assert jacobian(3).diagonal() == UniPoly({k: c for k, c in enumerate([1, 6, 15, 20, 15, 6, 1])})

    @pytest.mark.parametrize("g", [2, 3, 6, 12, 24])
    def test_factors(self, g):
        """e(Jac) = (1+u)^g (1+v)^g, by which ``laurent._square_quotient`` divides by e(Jac) in g passes over the
        rows and g over the columns."""
        binomials = LaurentPoly({(a, b): math.comb(g, a) * math.comb(g, b) for a in range(g + 1) for b in range(g + 1)})
        assert (ONE + U) ** g * (ONE + V) ** g == jacobian(g) == binomials

    def test_genus_guard(self):
        with pytest.raises(GenusOutOfRange):
            jacobian(1)


def _series_sym_power(g, k):
    """e(Sym^k X) as the series expansion of its generating function to order k, the route the finite sum replaced."""
    return TruncatedSeries.rational(k, [(U, g), (V, g)], [ONE, UV]).coeff(k)


def _finite_sum_sym_power(g, k):
    """e(Sym^k X) as the sum over s <= min(2g, k) of E_s (1 + uv + ... + (uv)^(k-s)), one dict update per term of
    each product: ``sym_power`` before it took one closed coefficient per term."""
    terms = {}
    for s in range(min(2 * g, k) + 1):
        for i in range(max(0, s - g), min(g, s) + 1):
            c = math.comb(g, i) * math.comb(g, s - i)
            for j in range(k - s + 1):
                key = (i + j, s - i + j)
                terms[key] = terms.get(key, 0) + c
    return LaurentPoly(terms)


class TestSymPower:
    def test_point(self):
        assert sym_power(2, 0) == ONE

    def test_curve_itself(self):
        assert sym_power(2, 1) == ONE + 2 * U + 2 * V + UV

    def test_square(self):
        expected = ONE + 2 * U + 2 * V + U**2 + 5 * UV + V**2 + 2 * U**2 * V + 2 * U * V**2 + UV**2
        assert sym_power(2, 2) == expected
        assert sym_power(2, 2).diagonal() == UniPoly({0: 1, 1: 4, 2: 7, 3: 4, 4: 1})

    @pytest.mark.parametrize("g", [2, 3])
    @pytest.mark.parametrize("k", range(9))
    def test_matches_convolution_oracle(self, g, k):
        assert sym_power(g, k) == sym_power_oracle(g, k)

    @pytest.mark.parametrize("g", range(2, 13))
    def test_matches_finite_sum(self, g):
        """Every k <= 50: below k = g, where the diagonals stop at delta = k, and past k = 2g, where s stops at 2g."""
        for k in range(51):
            assert sym_power(g, k) == _finite_sum_sym_power(g, k), k

    @settings(max_examples=120, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 40))
    @example(2, 0)
    @example(3, 6)
    @example(7, 40)
    def test_series_oracle_property(self, g, k):
        assert sym_power(g, k) == _series_sym_power(g, k)

    @pytest.mark.parametrize("g", [2, 3])
    def test_structure(self, g):
        for k in range(1, 2 * g - 1):
            p = sym_power(g, k)
            assert p.swap_uv() == p
            assert all(c > 0 for _, c in p.terms())
            assert max(a + b for (a, b), _ in p.terms()) == 2 * k
            assert p.coeff(k, k) == 1

    def test_genus_guard(self):
        with pytest.raises(GenusOutOfRange):
            sym_power(1, 2)


class TestChiTriples:
    @pytest.mark.parametrize("g,d1,d2,d_m", [(2, 5, 0, 4), (3, 7, -1, 5), (2, 2, 0, 2)])
    def test_line_subbundle_quotient(self, g, d1, d2, d_m):
        quotient = TypeVector(1, 1, d1 - d_m, d2)
        sub = TypeVector(1, 0, d_m, 0)
        assert chi_triples(quotient, sub, g) == d_m - d1 + d2

    @pytest.mark.parametrize("g,d1,d2,d_m", [(2, 5, 0, 4), (3, 7, -1, 5), (2, 2, 0, 2)])
    def test_line_quotient(self, g, d1, d2, d_m):
        quotient = TypeVector(1, 0, d_m, 0)
        sub = TypeVector(1, 1, d1 - d_m, d2)
        assert -chi_triples(quotient, sub, g) == 2 * d_m - d1 + g - 1

    @pytest.mark.parametrize("g,d1,d2", [(2, 5, 0), (3, 9, 1), (2, 7, -2)])
    def test_small_sigma_bundle_rank(self, g, d1, d2):
        quotient = TypeVector(0, 1, 0, d2)
        sub = TypeVector(2, 0, d1, 0)
        assert -chi_triples(quotient, sub, g) == d1 - 2 * d2 - 2 * (g - 1)

    def test_degree_shift_bilinearity(self):
        quotient = TypeVector(2, 1, 3, -1)
        sub = TypeVector(1, 2, 0, 4)
        shifted = TypeVector(1, 2, 1, 4)
        delta = chi_triples(quotient, shifted, 3) - chi_triples(quotient, sub, 3)
        assert delta == quotient.n1 - quotient.n2


class TestTypeVector:
    def test_zero_rank_pair_rejected(self):
        with pytest.raises(ValueError):
            TypeVector(0, 0, 0, 0)

    def test_zero_bundle_carries_zero_degree(self):
        with pytest.raises(ValueError):
            TypeVector(0, 1, 3, 0)
        with pytest.raises(ValueError):
            TypeVector(1, 0, 0, -2)
        assert TypeVector(1, 0, 5, 0).d1 == 5

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            TypeVector(-1, 1, 0, 0)
