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
from hodgetriples.laurent import (
    _dict_product,
    _format_terms,
    _heap_quotient,
    _mono,
    _packed_product,
    _packed_quotient,
    _term_key,
)

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
        coefficients positive, no packed integer or digit is negative.
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

    def spy(*args):
        results.append(route(*args))
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
    """``numerator / divisor`` with the running-sum and packed routes refused, so that every divisor takes the heap walk."""
    with mock.patch.object(laurent, "_running_sum_quotient", lambda terms, step, shift: None):
        with mock.patch.object(laurent, "_packed_quotient", lambda rem, div, shift: None):
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
        "divisor, binomial",
        [
            (ONE - U**3, True),
            (ONE - V**2, True),
            (ONE - UV, True),
            (monomial(1, 2, 1) - monomial(1, 3, 2), True),
            (ONE + UV, False),
            (UV - ONE, False),
            (2 - 2 * UV, False),
            (ONE - monomial(1, 1, -1), False),
            (V - U, False),
            ((ONE - UV) * (ONE - UV**2), False),
        ],
        ids=["1-u^3", "1-v^2", "1-uv", "content", "1+uv", "uv-1", "2-2uv", "1-u/v", "v-u", "product"],
    )
    def test_heap_walk_only_off_the_binomial(self, monkeypatch, divisor, binomial):
        """A divisor 1 - m takes the running sum at every size; any other the heap walk, then the packed route from PACKED_MIN_PAIRS.

        The quotient holds 1 - u, 1 - v and 1 - uv, so a numerator that took
        the running sum under the wrong binomial would still divide, wrongly.
        The large one times a divisor fills its numerator's box, so the
        packed route accepts it.
        """
        small = (ONE - U) * (ONE - V) * (ONE - UV)
        large = small * (ONE + 3 * U - monomial(2, -1, 4) + UV**5) * ((ONE + U) * (ONE + V)) ** 5
        routes = {name: _spy(monkeypatch, name) for name in ("_running_sum_quotient", "_packed_quotient", "_heap_quotient")}
        for quotient, packs in ((small, False), (large, True)):
            numerator = quotient * divisor
            assert (len(numerator) * len(divisor) >= PACKED_MIN_PAIRS) == packs
            assert numerator / divisor == quotient
        running, packed, heap = routes.values()
        if binomial:
            assert (len(running), len(packed), len(heap)) == (2, 0, 0)
        else:
            assert (running, len(packed), len(heap)) == ([], 1, 1)
            assert packed == [dict(large.terms())]


def _reduced(terms: dict) -> tuple[dict, tuple[int, int]]:
    """(``terms`` shifted to both exponent minima 0, the shift taken off)."""
    a0, b0 = min(a for a, _ in terms), min(b for _, b in terms)
    return {(a - a0, b - b0): c for (a, b), c in terms.items()}, (a0, b0)


def _packed_and_heap(numerator: dict, divisor: dict) -> tuple:
    """(``_packed_quotient``, ``_heap_quotient``) of ``numerator`` / ``divisor``, both moved back by the content."""
    (rem, (pa, pb)), (div, (qa, qb)) = _reduced(numerator), _reduced(divisor)
    shift = (pa - qa, pb - qb)
    packed = _packed_quotient(rem, div, shift)
    heap = {(a + shift[0], b + shift[1]): c for (a, b), c in _heap_quotient(dict(rem), dict(div)).items()}
    return packed, heap


# Divisor exponents in u alone, v alone or both.
_AXES = {"u": (4, 0), "v": (0, 4), "uv": (3, 3)}


@st.composite
def packed_divisions(draw, sides=st.integers(0, 3), coeffs=coefficients) -> tuple[dict, dict]:
    """(quotient, divisor): a dense quotient box of sides 1 + ``sides``, and a divisor of 1 to 5 terms in u alone, v alone or both.

    Both are shifted by up to 5 either way, so they carry monomial content
    and negative exponents.
    """
    height, width = draw(sides), draw(sides)
    a0, b0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    size = (height + 1) * (width + 1)
    values = draw(st.lists(coeffs, min_size=size, max_size=size))
    quotient = {(a0 + i // (width + 1), b0 + i % (width + 1)): c for i, c in enumerate(values)}
    a_max, b_max = _AXES[draw(st.sampled_from(sorted(_AXES)))]
    exponents = draw(st.lists(st.tuples(st.integers(0, a_max), st.integers(0, b_max)), min_size=1, max_size=5, unique=True))
    a1, b1 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    divisor = {(a + a1, b + b1): draw(coeffs) for a, b in exponents}
    return quotient, divisor


class TestPackedQuotient:
    """The Kronecker route ``_packed_quotient`` against the heap walk ``_heap_quotient``."""

    @settings(max_examples=300, deadline=None)
    @given(packed_divisions(), st.booleans())
    @example(({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}), True)  # (1 + v)(1 + u): the minor axis is u
    @example(({(-3, 2): -(2**70), (-3, 3): 5}, {(4, -1): 2**65 + 1, (4, 0): -3, (5, 1): 7}), False)
    @example(({(0, 0): 2**64 - 1, (1, 0): 1}, {(0, 0): 2**64 - 1, (0, 1): -(2**64) + 1}), True)
    def test_matches_heap_walk(self, case, words):
        """Equal quotients, or None; with ``words`` off every slot is read by byte slices."""
        quotient, divisor = case
        numerator = _dict_product(quotient, divisor)
        with mock.patch.object(laurent, "_WORD_FORMATS", laurent._WORD_FORMATS if words else {}):
            packed, heap = _packed_and_heap(numerator, divisor)
        assert heap == quotient
        assert packed is None or packed == heap

    @pytest.mark.parametrize(
        "magnitude, word, raw",
        [(2, 1, 1), (2**6, 2, 2), (2**12, 4, 3), (2**40, 8, 6), (2**70, 10, 10)],
        ids=["1-byte", "2-byte", "3-byte", "8-byte", "wider"],
    )
    @pytest.mark.parametrize("words", [True, False], ids=["words", "byte-slices"])
    @pytest.mark.parametrize("axis", sorted(_AXES))
    def test_every_slot_width(self, monkeypatch, magnitude, word, raw, words, axis):
        """A 3 x 3 mixed-sign quotient over a divisor in u, v or both, with slots of 1, 2, 3 (4 as a word), 6 (8) and 10 bytes.

        Every case is accepted: max|Q| stays below max|P|, so the certificate holds.
        """
        divisor = {"u": {(-2, 3): 1, (-1, 3): 2, (0, 3): -1}, "v": {(1, -1): 1, (1, 0): 2, (1, 1): -1}}.get(
            axis, {(0, 0): 1, (1, 0): 1, (0, 1): -2, (1, 1): 1}
        )
        quotient = {(i // 3 - 1, i % 3 - 2): (-1) ** (i // 2) * (magnitude - i % 2) for i in range(9)}
        widths, pack = [], laurent._pack

        def spy(terms, a0, b0, strides, n, slots):
            widths.append(n)
            return pack(terms, a0, b0, strides, n, slots)

        monkeypatch.setattr(laurent, "_pack", spy)
        if not words:
            monkeypatch.setattr(laurent, "_WORD_FORMATS", {})
        packed, heap = _packed_and_heap(_dict_product(quotient, divisor), divisor)
        assert packed == heap == quotient
        assert widths == [word if words else raw] * 2

    @settings(max_examples=150, deadline=None)
    @given(packed_divisions(sides=st.integers(6, 9), coeffs=st.integers(-9, 9).filter(bool)), nonzero_coeff_polys.filter(bool))
    def test_non_divisible_messages_agree(self, case, r):
        """Through ``__truediv__``, mostly past PACKED_MIN_PAIRS term pairs, the outcome is the heap walk's, message included."""
        quotient, divisor = map(LaurentPoly, case)
        numerator = quotient * divisor + r
        expected = _division_outcome(_heap_divide, numerator, divisor)
        assert _division_outcome(LaurentPoly.__truediv__, numerator, divisor) == expected

    @pytest.mark.parametrize("n, magnitude, packs", [(5, 10**4, True), (23, 10**9, False)], ids=["e_5", "e_23"])
    def test_divisor_of_many_slots_per_term_stays_on_heap_walk(self, monkeypatch, n, magnitude, packs):
        """e_n = 1 + uv + ... + (uv)^(n-1) packs into (n - 1) W + n slots for n terms.

        Over a 40 x 40 quotient, the ``divmod``'s byte products per term pair
        stay below ``PACKED_DIV_COST`` for e_5 with 4-byte slots, and pass it
        for e_23 with 8-byte slots (packed, that division was 2.7x the heap
        walk).
        """
        quotient = LaurentPoly({(a, b): (-1) ** (a * b) * (magnitude + a - b) for a in range(40) for b in range(40)})
        divisor = LaurentPoly({(i, i): 1 for i in range(n)})
        numerator = quotient * divisor
        packed = _spy(monkeypatch, "_packed_quotient")
        heap = mock.Mock(wraps=laurent._heap_quotient)
        monkeypatch.setattr(laurent, "_heap_quotient", heap)
        assert numerator / divisor == quotient
        assert (packed[0] is not None, heap.call_count) == (packs, 0 if packs else 1)

    def test_sparse_numerator_takes_heap_walk(self, monkeypatch):
        """A numerator whose box far exceeds its term pairs with the divisor is refused and divided by the heap walk.

        A 7 x 7 quotient box plus u^2000, over 1 + u - 2 u^2: past
        PACKED_MIN_PAIRS term pairs, but packed into 14,021 slots for 192
        term pairs.  The ``divmod`` would stay under ``PACKED_DIV_COST``, so
        the box check alone refuses it.
        """
        quotient = LaurentPoly({(a, b): 1 + a - b for a in range(7) for b in range(7)}) + monomial(3, 2000, 0)
        divisor = ONE + U - 2 * U**2
        numerator = quotient * divisor
        assert len(numerator) * len(divisor) >= PACKED_MIN_PAIRS
        packed = _spy(monkeypatch, "_packed_quotient")
        heap = mock.Mock(wraps=laurent._heap_quotient)
        monkeypatch.setattr(laurent, "_heap_quotient", heap)
        assert numerator / divisor == quotient
        assert packed == [None] and heap.call_count == 1

    def test_quotient_whose_product_carries_refused(self):
        """An exact integer quotient inside the extent, but max|Q'| sum|d| >= B/2: the second check refuses it.

        P = -1 - u + u^2 + 10 u^3 and D = 3 + u pack into 1-byte slots
        (B = 256) and P(B) = 259 * 648021 exactly, whose balanced digits
        spell Q' = 85 - 29 u + 10 u^2.  But Q' D = 255 - 2 u + u^2 + 10 u^3
        carries 255 into the next slot, so it is not P, and D does not
        divide P at all (P(-3) != 0).
        """
        numerator, divisor = {(0, 0): -1, (1, 0): -1, (2, 0): 1, (3, 0): 10}, {(0, 0): 3, (1, 0): 1}
        assert divmod(-1 - 256 + 256**2 + 10 * 256**3, 259) == (85 - 29 * 256 + 10 * 256**2, 0)
        assert _packed_quotient(numerator, divisor, (0, 0)) is None
        with pytest.raises(NotDivisible):
            _heap_quotient(numerator, divisor)

    def test_certificate_failure_falls_back_to_heap_walk(self, monkeypatch):
        """An exact integer quotient that spells no polynomial quotient goes to the heap walk, which raises.

        The divisor is 1 + u, so u is the minor axis and W = 6 the
        numerator's u-extent plus 1.  Q' fills u^0..u^5, one column past any
        quotient's u^0..u^4.  The numerator is Q' (1 + u) with its u^6 column
        moved to u^0 one row up, the slot it packs to: so P(B) = Q'(B) D(B)
        and the ``divmod`` is exact, but the digits of u^5 lie outside the
        quotient's extent.  P(-1, v) != 0, so 1 + u does not divide it.
        """
        columns = {(a, b): 1 + a + b for a in range(6) for b in range(12)}
        folded = {}
        for (a, b), c in _dict_product(columns, {(0, 0): 1, (1, 0): 1}).items():
            key = (0, b + 1) if a == 6 else (a, b)
            folded[key] = folded.get(key, 0) + c
        numerator, divisor = LaurentPoly(folded), ONE + U
        assert len(numerator) * len(divisor) >= PACKED_MIN_PAIRS
        expected = _division_outcome(_heap_divide, numerator, divisor)
        assert expected[0] == "NotDivisible"
        packed, digits = _spy(monkeypatch, "_packed_quotient"), _spy(monkeypatch, "_balanced_digits")
        heap = mock.Mock(wraps=laurent._heap_quotient)  # it raises, so a spy would record nothing
        monkeypatch.setattr(laurent, "_heap_quotient", heap)
        assert _division_outcome(LaurentPoly.__truediv__, numerator, divisor) == expected
        assert packed == [None] and heap.call_count == 1
        # the quotient's u^5 column, rows v^0..v^12 (v^12 empty): Q' itself
        assert [row[5] for row in zip(*[iter(digits[0])] * 6)] == [1 + 5 + b for b in range(12)] + [0]


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
