import math
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hodgetriples import laurent
from hodgetriples.laurent import (
    ONE,
    PACKED_MIN_PAIRS,
    PACKED_MIN_TERMS,
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
from hodgetriples.laurent import _dict_product, _format_terms, _mono, _packed_product, _term_key

exponents = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
polys = st.dictionaries(exponents, st.integers(-9, 9), max_size=8).map(LaurentPoly)
monomials = st.builds(
    monomial,
    st.integers(-3, 3).filter(bool),
    st.integers(-3, 3),
    st.integers(-3, 3),
)

nonzero_coeff_polys = st.dictionaries(exponents, st.integers(-9, 9).filter(bool), max_size=8).map(LaurentPoly)
divisors = st.dictionaries(exponents, st.integers(-9, 9).filter(bool), min_size=1, max_size=4).map(LaurentPoly)

# small and beyond 2^64, both signs, never zero
coefficients = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80)).filter(bool)


@st.composite
def dense_boxes(draw) -> dict:
    """Terms with a nonzero coefficient at every exponent of a box of at most 4 x 4, shifted by up to 5."""
    height, width = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    a0, b0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    size = (height + 1) * (width + 1)
    coeffs = draw(st.lists(coefficients, min_size=size, max_size=size))
    return {(a0 + i // (width + 1), b0 + i % (width + 1)): c for i, c in enumerate(coeffs)}


def _reference_divide(self: LaurentPoly, other: LaurentPoly) -> LaurentPoly:
    """The max-scan long division that the heap walk of ``LaurentPoly.__truediv__`` replaced.

    It rescans the whole remainder for its top term at every step, so it is
    quadratic in the number of terms; kept as the oracle for the fast route.
    """
    terms, other_terms = dict(self.terms()), dict(other.terms())
    if not other_terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not terms:
        return ZERO
    pa = min(a for a, _ in terms)
    pb = min(b for _, b in terms)
    qa = min(a for a, _ in other_terms)
    qb = min(b for _, b in other_terms)
    rem = {(a - pa, b - pb): c for (a, b), c in terms.items()}
    div = {(a - qa, b - qb): c for (a, b), c in other_terms.items()}
    lead = max(div, key=_term_key)
    lead_c = div[lead]
    quot = {}
    while rem:
        top = max(rem, key=_term_key)
        da, db = top[0] - lead[0], top[1] - lead[1]
        if da < 0 or db < 0:
            raise NotDivisible(f"remainder term u^{top[0]} v^{top[1]} not reducible")
        q, r = divmod(rem[top], lead_c)
        if r:
            raise NotDivisible(f"coefficient {rem[top]} not divisible by {lead_c}")
        quot[(da, db)] = q
        for (ea, eb), c in div.items():
            key = (ea + da, eb + db)
            new = rem.get(key, 0) - q * c
            if new:
                rem[key] = new
            elif key in rem:
                del rem[key]
    shift_a, shift_b = pa - qa, pb - qb
    return LaurentPoly({(a + shift_a, b + shift_b): c for (a, b), c in quot.items()})


def _division_outcome(divide, numerator: LaurentPoly, divisor: LaurentPoly) -> tuple[str, object]:
    try:
        return "quotient", divide(numerator, divisor)
    except NotDivisible as exc:
        return "NotDivisible", str(exc)


class TestProduct:
    def test_binomials(self):
        assert (ONE + U) * (ONE + V) == ONE + U + V + UV

    def test_zero_annihilates(self):
        p = 3 * U**2 - V + ONE
        assert p * ZERO == ZERO
        assert not p * ZERO

    def test_telescoping(self):
        assert (ONE - UV) * (ONE + UV + UV**2) == ONE - UV**3

    @settings(max_examples=80, deadline=None)
    @given(polys, polys, polys)
    def test_ring_laws(self, p, q, r):
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


class TestPackedProduct:
    """The Kronecker route ``_packed_product`` against the dict loop ``_dict_product``.

    Dense boxes always pack (their product box never exceeds the term-pair
    count), so every example here exercises the packed route.
    """

    @settings(max_examples=300, deadline=None)
    @given(dense_boxes(), dense_boxes())
    @example({(0, 0): 1, (1, 0): -1}, {(0, 0): 1, (1, 0): 1})  # (1 - u)(1 + u) = 1 - u^2
    @example({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (1, 0): -1})  # (1 + u)(1 - u)
    @example({(0, -1): -1, (1, -1): 2, (0, 0): 3}, {(-2, 0): 5, (-2, 1): -7})  # mixed signs, negative exponents
    @example({(-3, 2): -(2**70)}, {(4, -1): 2**65 + 1})  # one term each, beyond 2^64
    @example({(0, 0): 2**64 - 1}, {(0, 0): 2**64 - 1, (0, 1): -(2**64) + 1})  # digits of exactly 128 bits, a whole number of bytes
    def test_matches_dict_loop(self, p, q):
        assert _packed_product(p, q) == _dict_product(p, q)

    def test_cancellation_leaves_few_terms(self):
        p = {(0, 0): 1, (1, 0): -1}  # 1 - u
        q = {(i, 0): 1 for i in range(9)}  # 1 + u + ... + u^8
        assert _packed_product(p, q) == _dict_product(p, q) == {(0, 0): 1, (9, 0): -1}

    @settings(max_examples=150, deadline=None)
    @given(polys.filter(bool), polys.filter(bool))
    def test_sparse_operands_refused_or_equal(self, p, q):
        p, q = dict(p.terms()), dict(q.terms())
        packed = _packed_product(p, q)
        if packed is None:
            box = (
                (max(a for a, _ in p) - min(a for a, _ in p) + max(a for a, _ in q) - min(a for a, _ in q) + 1)
                * (max(b for _, b in p) - min(b for _, b in p) + max(b for _, b in q) - min(b for _, b in q) + 1)
            )
            assert box > len(p) * len(q)
        else:
            assert packed == _dict_product(p, q)

    @pytest.mark.parametrize(
        "magnitude, width",
        [(2, 1), (2**3, 2), (2**10, 4), (2**20, 8), (2**40, 11)],
        ids=["1-byte", "2-byte", "4-byte", "8-byte", "wider"],
    )
    @pytest.mark.parametrize("mixed", [True, False], ids=["mixed-signs", "positive"])
    def test_every_slot_width(self, monkeypatch, magnitude, width, mixed):
        """3 x 3 boxes whose bound max|c_p| max|c_q| 9 needs slots of ``width`` bytes.

        Slots of 1 to 8 bytes round up to a machine word and are read through
        ``memoryview.cast``; wider ones are read by byte slices.  With all
        coefficients positive, Y = P+Q- + P-Q+ is 0.
        """
        sign = (lambda i: (-1) ** (i // 2)) if mixed else (lambda i: 1)
        p = {(i // 3, i % 3 - 1): sign(i) * (magnitude - i % 2) for i in range(9)}
        q = {(i // 3 - 2, i % 3): sign(i + 1) * (magnitude - (i + 1) % 2) for i in range(9)}
        widths, pack = [], laurent._pack

        def spy(terms, a0, b0, box_width, n, slots):
            widths.append(n)
            return pack(terms, a0, b0, box_width, n, slots)

        monkeypatch.setattr(laurent, "_pack", spy)
        assert _packed_product(p, q) == _dict_product(p, q)
        assert widths == [width, width]


def _spy(monkeypatch, name: str) -> list:
    """Record the result of every call of the route ``laurent.<name>``."""
    results, route = [], getattr(laurent, name)

    def spy(p, q):
        results.append(route(p, q))
        return results[-1]

    monkeypatch.setattr(laurent, name, spy)
    return results


def _line_operands(pairs: int) -> tuple[LaurentPoly, LaurentPoly]:
    """A u-line and a v-line, mixed signs beyond 2^64, exactly ``pairs`` term pairs and as many box slots."""
    k = max(d for d in range(1, math.isqrt(pairs) + 1) if pairs % d == 0)
    p = LaurentPoly({(i - 2, 0): (-1) ** i * (2**70 + i) for i in range(k)})
    q = LaurentPoly({(0, j - 3): (-1) ** (j // 2) * (3 + j) for j in range(pairs // k)})
    return p, q


class TestMultiplyRoute:
    """``__mul__`` sends products to the packed route from PACKED_MIN_PAIRS term pairs on."""

    @pytest.mark.parametrize("pairs, packed", [(PACKED_MIN_PAIRS, True), (PACKED_MIN_PAIRS - 1, False)], ids=["at", "below"])
    def test_dense_routes_at_threshold(self, monkeypatch, pairs, packed):
        p, q = _line_operands(pairs)
        assert len(p) * len(q) == pairs
        expected = LaurentPoly(_dict_product(dict(p.terms()), dict(q.terms())))
        packed_results, dict_results = _spy(monkeypatch, "_packed_product"), _spy(monkeypatch, "_dict_product")
        assert p * q == expected
        assert (len(packed_results), len(dict_results)) == ((1, 0) if packed else (0, 1))
        assert packed_results == ([dict(expected.terms())] if packed else [])

    def test_sparse_operand_takes_dict_route(self, monkeypatch):
        k = math.isqrt(PACKED_MIN_PAIRS // PACKED_MIN_TERMS) + 1
        q = ((ONE + U) * (ONE - V)) ** k  # (k + 1)^2 terms
        near = (ONE + V) ** (PACKED_MIN_TERMS - 2)
        far = monomial(1, 10**6, 0)
        p = near + far
        assert len(p) == PACKED_MIN_TERMS and len(p) * len(q) >= PACKED_MIN_PAIRS
        expected = near * q + far * q
        packed_results, dict_results = _spy(monkeypatch, "_packed_product"), _spy(monkeypatch, "_dict_product")
        assert p * q == expected
        assert packed_results == [None]  # refused: a box of 10^6 u-exponents
        assert len(dict_results) == 1

    @pytest.mark.parametrize("terms", [1, PACKED_MIN_TERMS - 1, PACKED_MIN_TERMS], ids=["monomial", "below", "at"])
    def test_small_operand_takes_dict_route(self, monkeypatch, terms):
        """Times 625 terms in a dense box, an operand of fewer than PACKED_MIN_TERMS terms stays on the dict loop."""
        q = ((ONE + U) * (ONE - V)) ** 24
        p = monomial(-3, 2, -1) * (ONE + UV) ** (terms - 1)
        assert (len(p), len(q)) == (terms, 625)
        expected = LaurentPoly(_dict_product(dict(p.terms()), dict(q.terms())))
        packed_results, dict_results = _spy(monkeypatch, "_packed_product"), _spy(monkeypatch, "_dict_product")
        assert p * q == expected and q * p == expected
        packed = terms >= PACKED_MIN_TERMS
        assert (len(packed_results), len(dict_results)) == ((2, 0) if packed else (0, 2))


class TestPower:
    def test_square(self):
        assert (ONE + U) ** 2 == ONE + 2 * U + U**2

    def test_zeroth_power_is_one(self):
        assert (5 * U * V - ONE) ** 0 == ONE
        assert ZERO**0 == ONE

    def test_monomial_power(self):
        assert UV**3 == monomial(1, 3, 3)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            (ONE + U) ** -1


class TestExactDivision:
    def test_geometric_sum(self):
        assert (ONE - UV**6) / (ONE - UV) == sum((UV**i for i in range(1, 6)), ONE)

    def test_non_factor(self):
        with pytest.raises(NotDivisible):
            (ONE - U) / (ONE - UV)

    def test_rank2_fixed_determinant_genus2(self):
        # Long-division fixture, verified multiplicatively below.
        numerator = (ONE + monomial(1, 2, 1)) ** 2 * (ONE + monomial(1, 1, 2)) ** 2 - UV**2 * (ONE + U) ** 2 * (
            ONE + V
        ) ** 2
        divisor = (ONE - UV) * (ONE - UV**2)
        expected = ONE + UV + 2 * U**2 * V + 2 * U * V**2 + UV**2 + UV**3
        assert expected * divisor == numerator
        assert numerator / divisor == expected

    def test_laurent_quotient_with_negative_exponents(self):
        p = U  # u / v = u v^(-1) is a legitimate Laurent quotient
        assert p / V == monomial(1, 1, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @settings(max_examples=80, deadline=None)
    @given(polys, polys.filter(bool))
    def test_roundtrip(self, r, q):
        assert (r * q) / q == r



def _heap_divide(numerator: LaurentPoly, divisor: LaurentPoly) -> LaurentPoly:
    """``numerator / divisor`` with the running-sum route refused, so that every divisor takes the heap walk."""
    with mock.patch.object(laurent, "_running_sum_quotient", lambda terms, step, shift: None):
        return numerator / divisor


steps = st.integers(1, 4).flatmap(lambda k: st.sampled_from([(k, 0), (0, k), (k, k)]))
# 1 - u^a v^b times monomial content u^i v^j, e.g. u^2 v - u^3 v^2 = u^2 v (1 - uv)
binomial_divisors = st.builds(
    lambda step, i, j: monomial(1, i, j) - monomial(1, i + step[0], j + step[1]),
    steps,
    st.integers(-3, 3),
    st.integers(-3, 3),
)


class TestRunningSumDivision:
    """The running-sum route of ``__truediv__`` for 1 - u^p v^q, against the heap walk ``_heap_quotient``."""

    @settings(max_examples=150, deadline=None)
    @given(nonzero_coeff_polys, binomial_divisors)
    @example(monomial(5, -4, 2) + monomial(-3, 1, -5), monomial(1, 2, 1) - monomial(1, 3, 2))
    @example(ONE, ONE - UV**6)  # the quotient fills the gap between the two numerator terms
    def test_quotients_agree(self, p, d):
        numerator = p * d
        assert numerator / d == _heap_divide(numerator, d) == p

    @settings(max_examples=150, deadline=None)
    @given(nonzero_coeff_polys, binomial_divisors, nonzero_coeff_polys.filter(bool))
    @example(ZERO, ONE - UV, -U)  # the top term is not reducible
    @example(ONE + V, ONE - U**2, 2 * U)  # one chain sums to 2
    @example(monomial(1, -3, 0), monomial(1, -1, 2) - monomial(1, 2, 2), monomial(-7, -5, 4))
    def test_non_divisible_messages_agree(self, p, d, r):
        numerator = p * d + r
        expected = _division_outcome(_heap_divide, numerator, d)
        assert _division_outcome(LaurentPoly.__truediv__, numerator, d) == expected

    @pytest.mark.parametrize(
        "divisor, walks",
        [
            (ONE - U**3, 0),
            (ONE - V**2, 0),
            (ONE - UV, 0),
            (monomial(1, 2, 1) - monomial(1, 3, 2), 0),
            (ONE + UV, 1),
            (UV - ONE, 1),
            (2 - 2 * UV, 1),
            (ONE - monomial(1, 1, -1), 1),
            (V - U, 1),
            ((ONE - UV) * (ONE - UV**2), 1),
        ],
        ids=["1-u^3", "1-v^2", "1-uv", "content", "1+uv", "uv-1", "2-2uv", "1-u/v", "v-u", "product"],
    )
    def test_heap_walk_only_off_the_binomial(self, monkeypatch, divisor, walks):
        """A divisor 1 - m skips the heap walk; every other divisor takes it, once.

        The quotient holds 1 - u, 1 - v and 1 - uv, so a numerator that took
        the running sum under the wrong binomial would still divide, wrongly.
        """
        quotient = (ONE - U) * (ONE - V) * (ONE - UV) * (ONE + 3 * U - monomial(2, -1, 4) + UV**5)
        numerator = quotient * divisor
        heap_results = _spy(monkeypatch, "_heap_quotient")
        assert numerator / divisor == quotient
        assert len(heap_results) == walks


class TestDivisionOracle:
    """The heap walk of ``__truediv__`` against the max-scan ``_reference_divide``."""

    @settings(max_examples=100, deadline=None)
    @given(nonzero_coeff_polys, divisors)
    def test_divisible_quotients_agree(self, p, q):
        quotient = (p * q) / q
        assert quotient == _reference_divide(p * q, q) == p

    @settings(max_examples=100, deadline=None)
    @given(nonzero_coeff_polys, divisors, nonzero_coeff_polys.filter(bool))
    @example(ONE, ONE - UV, -U)  # the top term is not reducible
    @example(ONE, 2 * UV + ONE, UV)  # the top coefficient is not divisible
    def test_non_divisible_messages_agree(self, p, q, r):
        numerator = p * q + r
        expected = _division_outcome(_reference_divide, numerator, q)
        assume(expected[0] == "NotDivisible")
        assert _division_outcome(LaurentPoly.__truediv__, numerator, q) == expected


class TestGeometricSeries:
    def test_uv_ratio(self):
        s = TruncatedSeries.geometric(UV, 2)
        assert s.coeff(0) == ONE and s.coeff(1) == UV and s.coeff(2) == UV**2

    def test_laurent_ratio(self):
        s = TruncatedSeries.geometric(monomial(1, -1, -1), 1)
        assert s.coeff(0) == ONE
        assert s.coeff(1) == monomial(1, -1, -1)

    def test_unit_ratio(self):
        s = TruncatedSeries.geometric(ONE, 3)
        assert [s.coeff(j) for j in range(s.trunc_order + 1)] == [ONE, ONE, ONE, ONE]

    def test_two_terms_rejected(self):
        with pytest.raises(NotMonomial):
            TruncatedSeries.geometric(ONE + U, 4)

    @settings(max_examples=60, deadline=None)
    @given(monomials, st.integers(0, 10))
    def test_inverse_identity(self, m, order):
        series = TruncatedSeries.geometric(m, order)
        assert TruncatedSeries.of([ONE, -m], order) * series == TruncatedSeries.one(order)


class TestBinomialSeries:
    def test_genus_two(self):
        s = TruncatedSeries.binomial_power(U, 2, 1)
        assert s.coeff(0) == ONE and s.coeff(1) == 2 * U

    def test_terminates_past_exponent(self):
        s = TruncatedSeries.binomial_power(V, 2, 3)
        assert s.coeff(1) == 2 * V and s.coeff(2) == V**2 and s.coeff(3) == ZERO

    def test_zeroth_power(self):
        s = TruncatedSeries.binomial_power(U, 0, 2)
        assert s == TruncatedSeries.of([ONE], 2)


bases = st.one_of(monomials, st.builds(lambda a, b: a + b, monomials, monomials))


class TestRational:
    """``rational`` against the generic series product of explicit factor expansions."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(bases, st.integers(0, 6)), max_size=3),
        st.lists(monomials, max_size=3),
        st.integers(0, 8),
    )
    def test_matches_generic_product(self, binomials, ratios, order):
        expected = TruncatedSeries.one(order)
        for base, m in binomials:
            expected = expected * TruncatedSeries.of([math.comb(m, j) * base**j for j in range(m + 1)], order)
        for ratio in ratios:
            expected = expected * TruncatedSeries.of([ratio**j for j in range(order + 1)], order)
        assert TruncatedSeries.rational(order, binomials, ratios) == expected

    def test_two_term_ratio_rejected(self):
        with pytest.raises(NotMonomial):
            TruncatedSeries.rational(3, [(U, 2)], [ONE, ONE + U])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries.rational(3, [(U, -1)])
        with pytest.raises(ValueError):
            TruncatedSeries.binomial_power(U, -1, 3)

    def test_binomial_power_non_monomial_base(self):
        base = U + 2 * V
        s = TruncatedSeries.binomial_power(base, 3, 4)
        assert [s.coeff(j) for j in range(s.trunc_order + 1)] == [ONE, 3 * base, 3 * base**2, base**3, ZERO]

    def test_binomial_cost_independent_of_exponent(self):
        n = 10**6
        s = TruncatedSeries.binomial_power(U, n, 2)
        assert [s.coeff(j) for j in range(s.trunc_order + 1)] == [ONE, n * U, math.comb(n, 2) * U**2]


class TestSeriesCoeff:
    def test_geometric_top(self):
        assert TruncatedSeries.geometric(UV, 2).coeff(2) == UV**2

    def test_symmetric_product_convolution(self):
        series = (
            TruncatedSeries.binomial_power(U, 2, 1)
            * TruncatedSeries.binomial_power(V, 2, 1)
            * TruncatedSeries.geometric(ONE, 1)
            * TruncatedSeries.geometric(UV, 1)
        )
        assert series.coeff(1) == ONE + 2 * U + 2 * V + UV

    def test_order_exceeded(self):
        s = TruncatedSeries.geometric(UV, 2)
        with pytest.raises(OrderExceeded):
            s.coeff(3)

    def test_min_order_arithmetic(self):
        a = TruncatedSeries.geometric(UV, 5)
        b = TruncatedSeries.geometric(ONE, 2)
        assert (a * b).trunc_order == 2
        assert (a + b).trunc_order == 2


class TestSpecialize:
    def test_diagonal_fixture(self):
        p = ONE + UV + 2 * U**2 * V + 2 * U * V**2 + UV**2 + UV**3
        assert p.diagonal() == UniPoly({0: 1, 2: 1, 3: 4, 4: 1, 6: 1})
        assert p.diagonal().text() == "1 + t^2 + 4 t^3 + t^4 + t^6"

    def test_diagonal_drops_cancelled_terms(self):
        assert (U - V + 2 * UV).diagonal() == UniPoly({2: 2})
        assert (U - V).diagonal() == 0

    @settings(max_examples=60, deadline=None)
    @given(polys, polys)
    def test_diagonal_is_ring_morphism(self, p, q):
        assert (p * q).diagonal() == p.diagonal() * q.diagonal()
        assert (p + q).diagonal() == p.diagonal() + q.diagonal()


class TestPalindromeDual:
    def test_projective_line_self_dual(self):
        assert (ONE + UV).palindrome_dual(1) == ONE + UV

    def test_constant(self):
        assert ONE.palindrome_dual(2) == UV**2

    def test_fixed_determinant_self_dual(self):
        p = ONE + UV + 2 * U**2 * V + 2 * U * V**2 + UV**2 + UV**3
        assert p.palindrome_dual(3) == p

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 5), st.data())
    def test_involution_on_box_supported(self, n, data):
        box = st.tuples(st.integers(0, n), st.integers(0, n))
        p = LaurentPoly(data.draw(st.dictionaries(box, st.integers(-9, 9), max_size=8)))
        assert p.palindrome_dual(n).palindrome_dual(n) == p


class TestStructure:
    def test_canonical_order_and_text(self):
        p = UV + ONE + 2 * U * V**2
        assert [exp for exp, _ in p.terms()] == [(0, 0), (1, 1), (1, 2)]
        assert p.text() == "1 + uv + 2 u v^2"

    def test_zero_text(self):
        assert ZERO.text() == "0"

    def test_no_zero_coefficients_stored(self):
        assert len((U - U) + V) == 1

    def test_equality_with_int(self):
        assert ZERO == 0
        assert ONE == 1
        assert ONE + U != 1

    def test_hashable(self):
        assert len({ONE + U, ONE + U, ONE + V}) == 2

    def test_swap_uv(self):
        assert (U + 2 * V**2).swap_uv() == V + 2 * U**2

    def test_constructor_drops_cancelled_terms(self):
        p = LaurentPoly([((1, 0), 2), ((1, 0), -2)])
        assert p.is_zero() and p == ZERO


class TestIntOperands:
    """An int operand acts as the constant polynomial it names."""

    P = 3 * U**2 - 6 * UV + 9

    def test_add_and_subtract(self):
        one = LaurentPoly.constant(1)
        assert self.P + 1 == self.P + one == 3 * U**2 - 6 * UV + 10
        assert 1 + self.P == one + self.P == 3 * U**2 - 6 * UV + 10
        assert self.P - 1 == self.P - one == 3 * U**2 - 6 * UV + 8
        assert 1 - self.P == one - self.P == -3 * U**2 + 6 * UV - 8

    def test_exact_division(self):
        assert self.P / 3 == self.P / LaurentPoly.constant(3) == U**2 - 2 * UV + 3


class TestUniPoly:
    def test_arithmetic_and_eval(self):
        p = UniPoly({0: 1, 2: 3})
        q = UniPoly({1: -2})
        assert p + q == UniPoly({0: 1, 1: -2, 2: 3})
        assert p * q == UniPoly({1: -2, 3: -6})
        assert 2 * q == UniPoly({1: -4})
        assert p.coeff(2) == 3

    def test_zero(self):
        assert UniPoly() == 0
        assert not UniPoly()
        assert UniPoly().text() == "0"

    def test_negative_coefficient_text(self):
        assert UniPoly({0: -1, 2: 1}).text() == "-1 + t^2"

    def test_constructor_drops_cancelled_terms(self):
        assert UniPoly([(1, 2), (1, -2)]) == 0


class TestLatex:
    """The LaTeX spelling that ``table --format latex`` prints."""

    def test_grouped_uv_powers(self):
        p = ONE + UV + 2 * U**2 * V + UV**3
        assert _format_terms(p.terms(), _mono, "{", "}") == "1 + uv + 2 u^{2} v + (uv)^{3}"

    def test_zero(self):
        assert _format_terms(ZERO.terms(), _mono, "{", "}") == "0"
