import gc
import itertools
import math
import random
import struct
import sys
import threading
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hodgetriples import laurent, triples
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
    times_binomials,
)
from hodgetriples.laurent import (
    _dict_product,
    _format_terms,
    _mono,
    _packed_product,
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
        ``memoryview.cast``; 11-byte ones by their ``struct.Struct``.  With all
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


def _divmod_digits(value: int, n: int, slots: int) -> list[int]:
    """The low ``slots`` balanced base-B digits of ``value``, B = 2^(8n), taken one ``divmod`` at a time."""
    base, digits = 1 << 8 * n, []
    for _ in range(slots):
        value, digit = divmod(value, base)
        if digit >= base // 2:
            value, digit = value + 1, digit - base
        digits.append(digit)
    return digits


class TestBalancedDigits:
    """``_balanced_digits`` reads any integer modulo B^slots, into digits in [-B/2, B/2)."""

    @pytest.mark.parametrize("words", [True, False], ids=["words", "byte-slices"])
    @pytest.mark.parametrize("n", [*range(1, 17), 24], ids=lambda n: f"{n}-byte")
    def test_matches_divmod_digits(self, monkeypatch, n, words):
        """Seeded values, negative ones and ones up to twice as wide as their slots, and digits drawn from the edges
        -B/2 and B/2 - 1 of the balanced range: the digits equal ``_divmod_digits``, whatever lies above the slots.
        On the word path slots of 1 to 8 bytes are read as machine words and 9 to 16 bytes by their ``struct.Struct``;
        with neither table, every width is read by ``_slice_digits``, as 24-byte slots are on both paths."""
        if not words:
            monkeypatch.setattr(laurent, "_WORD_FORMATS", {})
            monkeypatch.setattr(laurent, "_WIDE_SLOTS", {})
        rng, base = random.Random(8 * n + words), 1 << 8 * n
        for slots in (1, 2, 3, 7, 16):
            half, box = laurent._offset(n, slots), 1 << 8 * n * slots
            values = [0, -1, half - 1, -half, -half - 1, box - half, box, -box, 3 * box + 5]
            for bits in rng.sample(range(1, 16 * n * slots + 1), 12):
                values += [rng.getrandbits(bits), -rng.getrandbits(bits)]
            for _ in range(4):
                choices = (-base // 2, base // 2 - 1, -1, rng.randrange(-base // 2, base // 2))
                edges = [rng.choice(choices) for _ in range(slots)]
                value = sum(digit << 8 * n * i for i, digit in enumerate(edges))
                assert laurent._balanced_digits(value - 2 * box, n, slots, half) == edges
                values += [value, value + box]
            for value in values:
                assert laurent._balanced_digits(value, n, slots, half) == _divmod_digits(value, n, slots), value

    def test_wide_slot_table(self):
        """One little-endian ``struct.Struct`` for each width 9..16, of that size: an unsigned low 8 bytes, unsigned
        middle fields and a signed top field."""
        assert sorted(laurent._WIDE_SLOTS) == list(range(9, 17))
        for n, (layout, _) in laurent._WIDE_SLOTS.items():
            fields = layout.format[1:]
            assert layout.size == n and layout.format[0] == "<" and fields[0] == "Q", n
            assert fields[:-1].isupper() and fields[-1].islower(), n


def _binomials(m: int) -> dict:
    """Terms of (1+u)^m (1+v)^m."""
    return {(i, j): math.comb(m, i) * math.comb(m, j) for i in range(m + 1) for j in range(m + 1)}


def _whole_square(runs: list, m: int, width: int) -> list:
    """The oracle of ``laurent._diagonal_square``: the whole [0, width)^2 box packed from the runs, every row
    shift-added and read, with the runs' extent checked and no mirror.  The package's kernel until it packed only
    the rows up to the middle one and the one past it."""
    ends = [(a, b, a + len(c) - 1, b + len(c) - 1) for a, b, c in runs if c and c[0] and c[-1]]
    extent, side = [f(x) for f, x in zip((min, min, max, max), zip(*ends))], width - 1 - m
    if len(ends) < len(runs) or extent != [0, 0, side, side]:
        raise AssertionError(f"diagonal extent {extent} is not [0, 0, {side}, {side}]: internal inconsistency")
    n = laurent._slot_bytes(max(max(map(abs, coeffs)) for _, _, coeffs in runs).bit_length() + 2 * m)
    slots, word = width * width, laurent._WORD_FORMATS.get(n, "").lower()
    if word:
        view = memoryview(raw := bytearray(slots * n)).cast(word)
        for a, b, coeffs in runs:
            cells = memoryview(struct.Struct(f"{len(coeffs)}{word}").pack(*coeffs)).cast(word)
            view[a * width + b :: width + 1][: len(coeffs)] = cells
    else:
        cells = [bytes(n)] * slots
        for a, b, coeffs in runs:
            start, digits = a * width + b, [c.to_bytes(n, "little", signed=True) for c in coeffs]
            cells[start : start + len(coeffs) * (width + 1) : width + 1] = digits
        raw = b"".join(cells)
    half = laurent._offset(n, slots)
    return laurent._shift_adds(laurent._signed(raw, half), n, m, width, width, half)


class TestTimesBinomials:
    """The shift-add kernel ``times_binomials`` against the dict loop ``_dict_product`` by (1+u)^m (1+v)^m."""

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(exponents, coefficients, max_size=8), st.integers(0, 12))
    @example({}, 0)  # zero polynomial, m = 0
    @example({}, 5)  # zero polynomial
    @example({(-3, 2): -7, (1, -4): 2**70}, 0)  # m = 0 leaves the polynomial as it is
    @example({(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}, 3)  # (1-u)(1-v): terms cancel
    def test_matches_dict_loop(self, terms, m):
        expected = _dict_product(terms, _binomials(m))
        assert times_binomials(LaurentPoly(terms), m) == LaurentPoly(expected)

    @pytest.mark.parametrize(
        "n, m", [(1, 3), (2, 4), (4, 4), (8, 4), (12, 4)], ids=["1-byte", "2-byte", "4-byte", "8-byte", "12-byte"]
    )
    def test_slot_boundary(self, monkeypatch, n, m):
        """max|c| 4^m just below B/2 = 2^(8n-1): slots of n bytes hold the product, and n - 1 bytes do not.

        A positive and a negated (m+1) x (m+1) box of c each reach a product
        coefficient of +-c 4^m, the bound itself.  Slots of 1 to 8 bytes are
        machine words; 12-byte slots, which the odd-degree bundle forms reach
        at genus 24, are read by their ``struct.Struct``.
        """
        c = 2 ** (8 * n - 1 - 2 * m) - 1
        terms = {(i - 1, j + 2): c for i in range(m + 1) for j in range(m + 1)}
        terms |= {(i + m, j - 3): -c for i in range(m + 1) for j in range(m + 1)}
        expected = LaurentPoly(_dict_product(terms, _binomials(m)))
        assert max(abs(coeff) for _, coeff in expected.terms()).bit_length() == 8 * n - 1
        widths, pack = [], laurent._pack

        def spy(terms, a0, b0, strides, n, slots):
            widths.append(n)
            return pack(terms, a0, b0, strides, n, slots)

        monkeypatch.setattr(laurent, "_pack", spy)
        assert times_binomials(LaurentPoly(terms), m) == expected
        assert widths == [n]
        if n > 1:
            slot_bytes = laurent._slot_bytes
            monkeypatch.setattr(laurent, "_slot_bytes", lambda bits: slot_bytes(bits) - 1)
            assert times_binomials(LaurentPoly(terms), m) != expected

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            times_binomials(ONE, -1)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 5), st.data(), st.booleans())
    def test_diagonal_square_matches_dict_loop(self, side, m, data, words):
        """The whole-box oracle ``_whole_square`` of random diagonal runs spanning [0, side]^2, signed and up to 2^70,
        on the word path and on the bytes path: the row-major square of the dict loop's product by (1+u)^m (1+v)^m.
        The runs are no palindrome, so ``laurent._diagonal_square``, which reads half the box, is held to the oracle
        on closed cores below."""
        keys = st.tuples(st.integers(0, side), st.integers(0, side))
        terms = data.draw(st.dictionaries(keys, coefficients, max_size=12))
        terms |= {(0, 0): data.draw(coefficients), (side, side): data.draw(coefficients)}
        runs = []
        for delta in range(-side, side + 1):
            on = sorted((min(a, b), c) for (a, b), c in terms.items() if a - b == delta)
            if on:
                t = on[0][0]
                coeffs = [terms.get((i + max(delta, 0), i - min(delta, 0)), 0) for i in range(t, on[-1][0] + 1)]
                runs.append((t + max(delta, 0), t - min(delta, 0), coeffs))
        width = side + m + 1
        square = [0] * width * width
        for (a, b), c in _dict_product(terms, _binomials(m)).items():
            square[a * width + b] = c
        with mock.patch.object(laurent, "_WORD_FORMATS", laurent._WORD_FORMATS if words else {}):
            assert _whole_square(runs, m, width) == square

    @pytest.mark.parametrize(
        "runs",
        [
            [],
            [(0, 0, [1])],
            [(0, 0, [1, 1]), (1, 0, [0])],
            [(0, 0, [1, 0]), (0, 1, [1]), (1, 0, [1])],
            [(0, 0, [1, 1]), (2, 0, [1])],
            [(0, 0, [1, 1]), (-1, 0, [1])],
        ],
        ids=["empty", "inside", "zero-run", "zero-end", "past-the-square", "negative-exponent"],
    )
    def test_diagonal_square_extent_checked(self, runs):
        """Runs that do not end in nonzero terms spanning exactly [0, width - 1 - m]^2 raise ``AssertionError``."""
        with pytest.raises(AssertionError, match="internal inconsistency"):
            laurent._diagonal_square(runs, 0, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 29), st.integers(-3, 61), st.sampled_from((0, 1, 2)), st.booleans())
    @example(2, 3, 1, 2, True)  # dim 10
    @example(2, 3, 2, 2, False)  # dim 11
    @example(3, 4, 0, 0, True)  # dim 7, no binomial factor
    @example(6, 13, 13, 1, True)  # dim 44
    def test_half_square_matches_whole_box(self, g, n, e2, k, words):
        """On closed cores ``triples._closed_diagonals(g, n, e2)`` times (1+u)^m (1+v)^m, m = k g for k in 0..2, dims
        of both parities, ``laurent._diagonal_square``, which packs and shift-adds the rows up to the middle one and
        the one past it and mirrors the rest, gives the whole-box oracle's square, on the word path and on the bytes
        path; a core whose extent the oracle refuses it refuses too."""
        e2, m = min(e2, 2 * n + 3), k * g
        runs, width = triples._closed_diagonals(g, n, e2), 2 * n + e2 + m  # dim + 1, dim = m - 1 + 2n + e2
        with mock.patch.object(laurent, "_WORD_FORMATS", laurent._WORD_FORMATS if words else {}):
            try:
                whole = _whole_square(runs, m, width)
            except AssertionError:
                with pytest.raises(AssertionError, match="diagonal extent"):
                    laurent._diagonal_square(runs, m, width)
                return
            assert laurent._diagonal_square(runs, m, width) == whole == whole[::-1]

    @pytest.mark.parametrize(
        "runs, m, width",
        [
            ([(0, 0, [1, 1]), (0, 1, [1])], 0, 2),  # 1 + uv + v: row 1 is (0, 1), row 0 reversed is (1, 1)
            ([(0, 0, [1, 2, 1])], 0, 3),  # 1 + 2uv + (uv)^2 is one, and the mirror check passes it
            ([(0, 0, [1, 0, 3])], 0, 3),  # row 2 is (0, 0, 3), row 0 reversed (0, 0, 1)
            ([(0, 0, [1, 1]), (1, 0, [2])], 1, 3),  # (1 + uv + 2u) (1+u)(1+v)
        ],
        ids=["dim-1", "palindrome", "dim-2", "times-binomials"],
    )
    def test_runs_not_palindromic_raise(self, runs, m, width):
        """Runs whose product is not a palindrome, though their extent is the square's, raise ``AssertionError``:
        row H + 1, computed and not returned, is not row dim - H - 1 reversed.  A palindrome passes."""
        whole = _whole_square(runs, m, width)
        if whole == whole[::-1]:
            assert laurent._diagonal_square(runs, m, width) == whole
            return
        with pytest.raises(AssertionError, match="not a palindrome: internal inconsistency"):
            laurent._diagonal_square(runs, m, width)


def _box_oracle(a0: int, b0: int, height: int, width: int, digits: list) -> list:
    """(key, digit) of every nonzero digit of the row-major box, in slot order: the route with no held keys."""
    return [((a0 + i // width, b0 + i % width), d) for i, d in enumerate(digits) if d]


# A few boxes, so that drawn call sequences repeat and alternate them: negative origins, a 1 x 1 box, and two boxes
# of equal slot count, whose keys must never serve each other.
_BOXES = [(0, 0, 3, 4), (0, 0, 4, 3), (-2, 1, 4, 3), (3, -5, 2, 2), (-1, -1, 1, 1), (-4, -6, 7, 9)]


@st.composite
def box_calls(draw) -> tuple:
    """One ``_box_terms`` call on a box of ``_BOXES``: sparse, all-zero or all-nonzero digits, mixed signs."""
    a0, b0, height, width = draw(st.sampled_from(_BOXES))
    digit = draw(st.sampled_from([st.just(0), st.integers(-9, 9), coefficients]))
    return a0, b0, height, width, draw(st.lists(digit, min_size=height * width, max_size=height * width))


class TestBoxTerms:
    """``_box_terms`` holds the keys of at most one box, that box asked for twice running, and only its keys."""

    @pytest.fixture(autouse=True)
    def _fresh(self, monkeypatch):
        monkeypatch.setattr(laurent, "_held_box", ((0, 0, 0, 0), None))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(box_calls(), max_size=12).flatmap(lambda calls: st.permutations(calls + calls[:3])))
    def test_matches_oracle(self, calls):
        """Any sequence of calls, repeats and alternations alike, gives each box's terms in row-major order."""
        for call in calls:
            assert list(laurent._box_terms(*call).items()) == _box_oracle(*call)

    def test_held_only_from_the_second_call_running(self):
        """A box asked for once holds no list; asked for again it holds its row-major keys, which the next call
        reuses; any other box drops them.  The holder is one (box, keys) pair, so at most one box is held."""
        held = []
        for box in [(1, -2, 2, 3)] * 3 + [(0, 0, 2, 3), (1, -2, 2, 3), (0, 0, 2, 3)] + [(0, 0, 2, 3)] * 2:
            terms = laurent._box_terms(*box, [1] * 6)
            box_held, keys = laurent._held_box
            assert box_held == box and list(terms) == (keys or list(terms))
            held.append(keys)
        assert held[0] is None and held[1] is held[2] is not None and held[3:6] == [None] * 3
        assert held[6] is held[7] is not None and held[6] is not held[1]
        keys = [(a, b) for a in range(2) for b in range(3)]
        assert laurent._held_box == ((0, 0, 2, 3), keys)

    def test_chamber_results_share_keys(self):
        """All 20 closed results of g=6 d1=40 d2=0, built over one 57 x 57 box, share one key tuple per slot from
        the second on: 3,366 distinct key objects for 32,316 terms, against one each with fresh keys per result.
        Held, they take at most 2.5 MB traced (3.70 MB with fresh keys)."""
        spec = triples.TripleSpec(6, (2, 1), 40, 0)
        sigmas = triples.chamber_representatives(spec)
        triples.hodge_triples_closed(spec, sigmas[0])  # fill the blocks' lru caches before tracing
        laurent._held_box = ((0, 0, 0, 0), None)
        gc.collect()
        tracemalloc.start()
        try:
            results = [triples.hodge_triples_closed(spec, sigma) for sigma in sigmas]
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        keys = [key for result in results for key in result.poly._terms]
        held = set(map(id, laurent._held_box[1]))
        assert (len(results), {r.complex_dim for r in results}, laurent._held_box[0]) == (20, {56}, (0, 0, 57, 57))
        assert (len(keys), len(set(map(id, keys)))) == (32_316, 3_366)
        assert all(id(key) in held for result in results[1:] for key in result.poly._terms)
        assert traced <= 2_500_000

    def test_two_threads(self):
        """Two threads, each repeating and alternating its own boxes thousands of times under a short switch
        interval, always get their own box's terms: no call meets the keys of the other thread's box."""
        boxes = [[(0, 0, 3, 4), (-2, 1, 4, 3)], [(0, 0, 4, 3), (1, -1, 2, 6)]]
        failures, finished = [], []

        def worker(seed, own):
            rng = random.Random(seed)
            for _ in range(3000):
                a0, b0, height, width = own[rng.random() < 0.3]  # mostly the first box, so repeats are common
                call = (a0, b0, height, width, [rng.randint(-2, 2) for _ in range(height * width)])
                if list(laurent._box_terms(*call).items()) != _box_oracle(*call):
                    failures.append(call)
            finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed, own)) for seed, own in enumerate(boxes)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == [0, 1] and failures == []

    def test_other_thread_inside_a_call(self, monkeypatch):
        """A thread that asks for its box twice while this thread is inside its own box's second call, the one that
        builds the held list, still gets its own keys after that call stores the list: the holder is rebound whole,
        so a stored list never lands under another thread's box."""
        mine, theirs, digits = (0, 0, 3, 4), (0, 0, 4, 3), list(range(12))
        inside, done, returned = threading.Event(), threading.Event(), threading.Event()
        products, product, results = itertools.count(), itertools.product, []

        def pausing_product(*ranges):
            if threading.current_thread() is threading.main_thread() and next(products) == 1:
                inside.set()
                assert done.wait(10)
            return product(*ranges)

        def other():
            inside.wait(10)
            results.extend(laurent._box_terms(*theirs, digits) for _ in range(2))
            done.set()
            returned.wait(10)
            results.append(laurent._box_terms(*theirs, digits))

        monkeypatch.setattr(itertools, "product", pausing_product)
        thread = threading.Thread(target=other)
        thread.start()
        try:
            own = [laurent._box_terms(*mine, digits) for _ in range(2)]
        finally:
            returned.set()
            thread.join(30)
        assert not thread.is_alive()
        assert inside.is_set() and [list(terms.items()) for terms in own] == [_box_oracle(*mine, digits)] * 2
        assert [list(terms.items()) for terms in results] == [_box_oracle(*theirs, digits)] * 3


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

    # A dense 40 x 40 quotient over e_5 = 1 + uv + ... + (uv)^4: 1,760 numerator terms, 8,800 term pairs.
    LARGE_QUOTIENT = LaurentPoly({(a, b): (-1) ** (a * b) * (10**4 + a - b) for a in range(40) for b in range(40)})
    E_5 = LaurentPoly({(i, i): 1 for i in range(5)})

    def test_large_roundtrip(self):
        numerator = self.LARGE_QUOTIENT * self.E_5
        assert len(numerator) * len(self.E_5) >= PACKED_MIN_PAIRS
        assert numerator / self.E_5 == self.LARGE_QUOTIENT

    def test_large_non_divisible_message(self):
        """One term added inside the box: the heap walk refuses at the term the max-scan division refuses at."""
        numerator = self.LARGE_QUOTIENT * self.E_5 + monomial(1, 20, 3)
        expected = _division_outcome(_reference_divide, numerator, self.E_5)
        assert expected == ("NotDivisible", "remainder term u^20 v^3 not reducible")
        assert _division_outcome(LaurentPoly.__truediv__, numerator, self.E_5) == expected



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
        """A divisor 1 - m takes the running sum, and any other the heap walk, below and from PACKED_MIN_PAIRS term pairs.

        The quotient holds 1 - u, 1 - v and 1 - uv, so a numerator that took
        the running sum under the wrong binomial would still divide, wrongly.
        """
        small = (ONE - U) * (ONE - V) * (ONE - UV)
        large = small * (ONE + 3 * U - monomial(2, -1, 4) + UV**5) * ((ONE + U) * (ONE + V)) ** 5
        running, heap = _spy(monkeypatch, "_running_sum_quotient"), _spy(monkeypatch, "_heap_quotient")
        for quotient, at_least in ((small, False), (large, True)):
            numerator = quotient * divisor
            assert (len(numerator) * len(divisor) >= PACKED_MIN_PAIRS) == at_least
            assert numerator / divisor == quotient
        if binomial:
            assert (len(running), len(heap)) == (2, 0)
            assert None not in running
        else:
            assert (running, len(heap)) == ([], 2)


def _square(poly: LaurentPoly, width: int) -> list:
    """The row-major square of ``poly`` over [0, width)^2, u^a v^b at a width + b."""
    return [poly.coeff(a, b) for a in range(width) for b in range(width)]


class TestSquareQuotient:
    """``laurent._square_quotient``: a square over [0, 13)^2 divided by e_5(uv) (1+u)^3 (1+v)^3 into [0, 6)^2."""

    K, M, WIDTH = 5, 3, 13
    QUOTIENT = LaurentPoly({(0, 0): 1, (1, 0): -7, (2, 5): 3, (4, 1): 2**70, (5, 5): -1, (5, 0): 4})

    def _numerator(self, extra: LaurentPoly = ZERO) -> list:
        """The square of e_5(uv) ((1+u)^3 (1+v)^3 QUOTIENT + ``extra``)."""
        e_k = (ONE - UV**self.K) / (ONE - UV)
        return _square(e_k * ((ONE + U) ** self.M * (ONE + V) ** self.M * self.QUOTIENT + extra), self.WIDTH)

    def test_exact(self):
        assert laurent._square_quotient(self._numerator(), self.WIDTH, self.K, self.M) == self.QUOTIENT._terms

    @pytest.mark.parametrize("step, refused", [
        ("e", r"e_5\(uv\)"), ("u", r"\(1 \+ u\)\^3"), ("v", r"\(1 \+ v\)\^3"),
    ])  # fmt: skip
    def test_first_step_to_refuse(self, step, refused):
        """A cell raised by 1 fails the division by e_5(uv); adding 1 to the cofactor of e_5(uv) passes it and fails
        the division by (1+u)^3; adding (1+u)^3 passes that too and fails the division by (1+v)^3."""
        square = self._numerator({"e": ZERO, "u": ONE, "v": (ONE + U) ** self.M}[step])
        if step == "e":
            square[3 * self.WIDTH + 8] += 1
        with pytest.raises(NotDivisible, match=refused):
            laurent._square_quotient(square, self.WIDTH, self.K, self.M)

    def test_every_single_cell_fault_is_refused(self):
        exact = self._numerator()
        for cell in range(self.WIDTH**2):
            square = list(exact)
            square[cell] -= 1
            with pytest.raises(NotDivisible):
                laurent._square_quotient(square, self.WIDTH, self.K, self.M)


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
