"""Exact arithmetic for bivariate Laurent polynomials and truncated series.

Every coefficient is an arbitrary-precision integer; nothing here touches
floating point.  The value types are:

* ``LaurentPoly``: sparse Laurent polynomial in the Hodge variables u, v.
  Negative exponents are first-class, since intermediates such as
  (uv)^{-1} x geometric tails occur before a final polynomial emerges.
* ``TruncatedSeries``: power series in an auxiliary variable x with
  ``LaurentPoly`` coefficients and an explicit truncation order.  Its
  ``rational`` constructor, which expands prod (1 + b x)^m / prod (1 - r x),
  is the one expansion behind every series route.
* ``UniPoly``: integer polynomial in a single variable t, the target of the
  diagonal (Poincare) specialization u = v = t.

Canonical term order throughout: ascending total degree a+b, then ascending
u-exponent a.

``LaurentPoly`` products take one of two routes by size.  Below
``PACKED_MIN_PAIRS`` term pairs, or with an operand of fewer than
``PACKED_MIN_TERMS`` terms, a dict loop multiplies every pair of terms; it
is also the oracle the tests hold the other route to.  From there on,
Kronecker substitution (D. Harvey, J. Symbolic Comput. 2009) packs each
operand into one signed big integer with a byte-aligned slot per exponent,
wide enough for max|c_p| * max|c_q| * min(len p, len q) plus a sign bit,
and lets CPython's Karatsuba multiply do the convolution.  A slot of at
most 8 bytes is rounded up to 1, 2, 4 or 8 bytes, so that on a
little-endian host the product's balanced digits are read a machine word at
a time by ``memoryview.cast``; a slot of 9 to 16 bytes is read in C too, by
one little-endian ``struct.Struct`` per width, and only wider slots by byte
slices.  The thresholds are the crossover measured on the package's own
products; operands too sparse to pack into a box of at most one slot per
term pair stay on the dict loop.

The factor e(Jac X)^k = (1+u)^(kg) (1+v)^(kg) of every chamber formula has
its own kernel, ``_shift_adds``: the other operand, packed once from a dict
(``times_binomials``) or from the closed formulas' diagonals, one strided
slice each (``_diagonal_square``), is shifted and added once per factor
1 + u or 1 + v, with no big-integer multiply.  It was faster than the
packed product at every size measured.  A closed result is the Hodge
polynomial of a smooth projective variety, so h^{a,b} = h^{D-a,D-b} and its
row-major square is a palindrome: ``_diagonal_square`` packs and shift-adds
only the rows up to the middle one and the one past it, which must mirror
the row below the middle, and returns the rest as the mirror.  Flips are no
palindromes, so ``times_binomials`` shift-adds the whole box.

Each packed box builds its offset h = sum (B/2) B^i (``_offset``) once, and
its caller passes it on: ``_signed`` reads the box's two's-complement slots
into a signed integer by h, and ``_balanced_digits`` reads an integer's low
digits in the box back by h, modulo B^slots.  A packed product builds the
product box's alone: each operand's slots are a prefix of it, and the
operand's offset is h shifted down by the slots it lacks.  No kernel
function takes an optional argument.

Every route that reads a box back, product, shift-add or square, keys its
nonzero digits by ``_box_terms``.  It holds the row-major keys of at most
one box: the box asked for twice running, until another box is asked for.
So the closed results of one chamber sweep, which all lie in the family's
[0, dim]^2 box, share one key tuple per slot from the second result on,
while a box asked for once, as most product boxes are, builds no list.
Only keys are held; every coefficient is computed afresh.

Exact division of a ``LaurentPoly`` takes one of two routes.  A divisor
that is 1 - u^p v^q up to a monomial factor, such as the 1 - uv of the
wall terms' raw extraction, divides by running sums along the chains e,
e + (p, q), e + 2 (p, q), ... of the numerator.  Every other divisor, and
every numerator that the running sums do not divide, goes to long division
through a max-heap of remainder keys; it is the oracle of the running sums
and the only route to raise ``NotDivisible``.
A divisor known in advance, e_k(uv) (1+u)^m (1+v)^m of the via-triples
bundle route, divides a dense row-major square with no ``LaurentPoly`` at
all (``_square_quotient``): one list operation per row and step, each step
raising ``NotDivisible`` unless every cell outside its quotient is 0.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import struct
import sys
from typing import Iterable, Mapping, Optional, Sequence, Union

Exponent = tuple[int, int]


class NotDivisible(ArithmeticError):
    """Exact Laurent-polynomial division has no polynomial quotient."""


class NotMonomial(ValueError):
    """A geometric-series ratio must be a single monomial."""


class OrderExceeded(ValueError):
    """A series coefficient beyond the truncation order was requested."""


def _term_key(exponent: Exponent) -> tuple[int, int]:
    a, b = exponent
    return (a + b, a)


class LaurentPoly:
    """Sparse Laurent polynomial in u, v over the integers.  Immutable.

    Stored as a map from exponent pairs (a, b) to nonzero coefficients;
    zero coefficients are never kept, so equality is structural.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[Exponent, int], Iterable[tuple[Exponent, int]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        object.__setattr__(self, "_terms", _collect([((int(a), int(b)), int(c)) for (a, b), c in items], {}))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return _wrap({(0, 0): int(c)} if c else {})

    def terms(self) -> list[tuple[Exponent, int]]:
        """Term list in canonical order (total degree, then u-exponent)."""
        return sorted(self._terms.items(), key=lambda item: _term_key(item[0]))

    def coeff(self, a: int, b: int) -> int:
        return self._terms.get((a, b), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(_collect(other._terms.items(), dict(self._terms)))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return _wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        """Product, routed by operand size; both routes give the same dict.

        Below ``PACKED_MIN_PAIRS`` term pairs, or with an operand of fewer than
        ``PACKED_MIN_TERMS`` terms, the dict loop multiplies every pair of
        terms.  Otherwise ``_packed_product`` packs each operand into one big
        integer (Kronecker substitution), one byte-aligned slot per exponent
        of at least bit_length(max|c_p| max|c_q| min(len)) + 1 bits (rounded
        up to a machine word when that is at most 8 bytes), so that
        CPython's Karatsuba integer multiply does the convolution; it gives
        way to the dict loop when the packed box would exceed the term-pair
        count.  Both thresholds are measured crossovers of the two routes on
        the package's own products.
        """
        if isinstance(other, int):
            return _wrap({key: c * other for key, c in self._terms.items()} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        p, q = self._terms, other._terms
        packs = len(p) * len(q) >= PACKED_MIN_PAIRS and min(len(p), len(q)) >= PACKED_MIN_TERMS
        acc = _packed_product(p, q) if packs else None
        return _wrap(_dict_product(p, q) if acc is None else acc)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises NotDivisible when no Laurent quotient exists.

        The divisor is reduced by its monomial content and routed on its
        shape.  A divisor 1 - u^p v^q goes to ``_running_sum_quotient``,
        which takes prefix sums of the numerator along each chain e,
        e + (p, q), ... in one pass.  With the numerator also reduced by its
        content, divisibility in the Laurent ring coincides with
        divisibility of honest polynomials.  Every other divisor, and every
        numerator that the running sum refuses, goes to ``_heap_quotient``,
        long division that walks the remainder from the top through a
        max-heap of its keys.  The heap walk is the one that raises
        NotDivisible, so its message does not depend on the route.
        """
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        qa = min(a for a, _ in other._terms)
        qb = min(b for _, b in other._terms)
        div = {(a - qa, b - qb): c for (a, b), c in other._terms.items()}
        if len(div) == 2 and div.get((0, 0)) == 1:
            step = max(div)  # the other key, (p, q) >= (0, 0)
            if div[step] == -1:
                quot = _running_sum_quotient(self._terms, step, (-qa, -qb))
                if quot is not None:
                    return _wrap(quot)
        pa = min(a for a, _ in self._terms)
        pb = min(b for _, b in self._terms)
        rem = {(a - pa, b - pb): c for (a, b), c in self._terms.items()}
        shift_a, shift_b = pa - qa, pb - qb
        return _wrap({(a + shift_a, b + shift_b): c for (a, b), c in _heap_quotient(rem, div).items()})

    # -- structure -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0): other})
        if isinstance(other, LaurentPoly):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({self.text()!r})"

    # -- transforms ------------------------------------------------------

    def swap_uv(self) -> "LaurentPoly":
        """The image under u <-> v."""
        return _wrap({(b, a): c for (a, b), c in self._terms.items()})

    def palindrome_dual(self, n: int) -> "LaurentPoly":
        """(uv)^n p(1/u, 1/v): each u^a v^b maps to u^(n-a) v^(n-b)."""
        return _wrap({(n - a, n - b): c for (a, b), c in self._terms.items()})

    def diagonal(self) -> "UniPoly":
        """The Poincare specialization p(t, t)."""
        acc: dict[int, int] = {}
        for (a, b), c in self._terms.items():
            k = a + b
            new = acc.get(k, 0) + c
            if new:
                acc[k] = new
            elif k in acc:
                del acc[k]
        poincare = UniPoly.__new__(UniPoly)
        object.__setattr__(poincare, "_coeffs", acc)
        return poincare

    # -- formatting --------------------------------------------------------

    def text(self) -> str:
        return _format_terms(self.terms(), _mono)


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.constant(value)
    return NotImplemented


def _collect(items: Iterable[tuple], acc: dict) -> dict:
    """``acc`` with each (key, coefficient) of ``items`` added in place; a key whose sum is 0 is dropped."""
    for key, c in items:
        new = acc.get(key, 0) + c
        if new:
            acc[key] = new
        elif key in acc:
            del acc[key]
    return acc


def _wrap(terms: dict[Exponent, int]) -> LaurentPoly:
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


# Term pairs from which ``__mul__`` takes the packed route.  Both routes were
# timed on every distinct product of 64 or more term pairs that the closed and
# wall-sum sweeps, both bundle routes, ``verify`` and ``table`` perform: the
# total time saved is flat for thresholds 96..144, and above 144 it falls.
PACKED_MIN_PAIRS = 144
# Terms the smaller operand needs for the packed product.  Packing costs about
# one slot per product exponent, so an operand of one or two terms gains
# nothing: on those products a monomial was 1.9x to 3.0x slower packed and a
# binomial 0.95x, while 3- and 4-term operands were 0.56x to 1.05x.
PACKED_MIN_TERMS = 3


# Slot widths in bytes that ``memoryview.cast`` writes and reads as native
# words (unsigned, or signed in lower case); the byte order must be
# little-endian, as ``to_bytes`` and ``from_bytes`` take it.
_WORD_FORMATS = {struct.calcsize(word): word for word in "BHIQ"} if sys.byteorder == "little" else {}
# Slot widths of 9 to 16 bytes that ``_balanced_digits`` reads in C, one ``struct.Struct`` each: the low 8 bytes
# unsigned, any middle field unsigned and the top field signed, little-endian whatever the host's byte order.  Each
# width maps to its ``Struct`` and the bit offsets of its fields past the first.
_WIDE_SLOTS = {
    layout.size: (layout, tuple(8 * struct.calcsize(layout.format[:i]) for i in range(2, len(layout.format))))
    for layout in map(struct.Struct, ("<Qb", "<Qh", "<QHb", "<Qi", "<QIb", "<QIh", "<QIHb", "<Qq"))
}


def _dict_product(p: dict[Exponent, int], q: dict[Exponent, int]) -> dict[Exponent, int]:
    """Terms of the product by one dict update per term pair; the oracle of the packed route."""
    acc: dict[Exponent, int] = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            new = acc.get(key, 0) + c1 * c2
            if new:
                acc[key] = new
            elif key in acc:
                del acc[key]
    return acc


def _packed_product(p: dict[Exponent, int], q: dict[Exponent, int]) -> Optional[dict[Exponent, int]]:
    """Terms of the product of two nonempty operands by Kronecker substitution, or None when they are too sparse.

    Both operands are shifted to nonnegative exponents and u^a v^b becomes
    the digit a W + b, where W is the product's v-range.  The packed box,
    the product's u-range times W, must not exceed the term-pair count, or
    the dict loop is cheaper and the integers could be huge (1 + u^(10^6)).
    Each product coefficient sums at most min(len p, len q) term products,
    so a digit slot of n bytes with 8n > bit_length(max|c_p| max|c_q| min(len))
    holds every coefficient in [-B/2, B/2), B = 2^(8n).  The two packed
    integers are signed, one multiply gives the packed product, and
    ``_balanced_digits`` reads its coefficients back.  A slot of at most 8
    bytes is rounded up to 1, 2, 4 or 8 bytes: on a little-endian host
    ``memoryview.cast`` then reads all slots as native words in C.  A slot of
    9 to 16 bytes is read in C by its ``struct.Struct`` on any host, and
    only a wider slot (or one of at most 8 bytes on a big-endian host) takes
    one ``int.from_bytes`` per slice.
    """
    pa, pb = zip(*p)
    qa, qb = zip(*q)
    pa0, pb0, qa0, qb0 = min(pa), min(pb), min(qa), min(qb)
    p_height, p_width = max(pa) - pa0, max(pb) - pb0
    q_height, q_width = max(qa) - qa0, max(qb) - qb0
    height, width = p_height + q_height + 1, p_width + q_width + 1
    slots = height * width
    if slots > len(p) * len(q):
        return None
    bound = max(map(abs, p.values())) * max(map(abs, q.values())) * min(len(p), len(q))
    n = _slot_bytes(bound.bit_length())
    p_slots, q_slots = p_height * width + p_width + 1, q_height * width + q_width + 1
    half = _offset(n, slots)  # each operand's slots are a prefix of the product's, so its offset is half's low part
    packed = _signed(_pack(p, pa0, pb0, width, n, p_slots), half >> 8 * n * (slots - p_slots))
    packed *= _signed(_pack(q, qa0, qb0, width, n, q_slots), half >> 8 * n * (slots - q_slots))
    return _box_terms(pa0 + qa0, pb0 + qb0, height, width, _balanced_digits(packed, n, slots, half))


def times_binomials(poly: LaurentPoly, m: int) -> LaurentPoly:
    """poly (1+u)^m (1+v)^m by 2m shift-adds: the product by e(Jac X)^k, m = kg.

    ``poly`` is packed once by ``_pack`` into the box of the product,
    [a0, a0 + height) x [b0, b0 + width), in slots wide enough for
    max|c| 4^m, and ``_shift_adds`` reads the box back; one offset serves
    the packed box and its digits.  Nothing here falls back to the dict loop
    for a sparse polynomial.
    """
    if m < 0:
        raise ValueError("binomial exponent must be nonnegative")
    if not poly or not m:
        return poly
    pa, pb = zip(*poly._terms)
    a0, b0 = min(pa), min(pb)
    height, width = max(pa) - a0 + m + 1, max(pb) - b0 + m + 1
    n = _slot_bytes(max(map(abs, poly._terms.values())).bit_length() + 2 * m)
    half = _offset(n, height * width)
    packed = _signed(_pack(poly._terms, a0, b0, width, n, height * width), half)
    return _wrap(_box_terms(a0, b0, height, width, _shift_adds(packed, n, m, height, width, half)))


def _diagonal_square(runs: list[tuple[int, int, list[int]]], m: int, width: int) -> list[int]:
    """Row-major digits over [0, width)^2 of (1+u)^m (1+v)^m times the sum of c_j u^(a+j) v^(b+j) over ``runs``.

    The product must be a palindrome, h^{a,b} = h^{D-a,D-b} for D = width - 1, as the Hodge polynomial of a
    smooth projective variety of dimension D is; its row-major square then reads the same backwards.  So only
    rows a <= H + 1, H = D // 2, are packed and shift-added, and the square is rows 0..H followed by rows
    0..D-H-1 reversed.  Multiplying by (1+u)^m (1+v)^m only raises exponents, so those rows of the product
    depend on those rows of the runs alone.  Two checks raise ``AssertionError``:

    * the runs, uncut, must end in nonzero terms spanning exactly [0, width - 1 - m]^2, the product's extent;
    * row H + 1, computed but not returned, must equal row D - H - 1 reversed, as the mirror gives it.

    A run fills every (width + 1)-th signed n-byte slot from a width + b, up to its k cells in those rows: one
    ``memoryview`` slice assignment of words on a little-endian host, packed by a ``struct.Struct`` of its own
    (``struct.pack``'s format cache would outlive the run), else ``to_bytes`` into a list.
    """
    ends = [(a, b, a + len(c) - 1, b + len(c) - 1) for a, b, c in runs if c and c[0] and c[-1]]
    extent, side = [f(x) for f, x in zip((min, min, max, max), zip(*ends))], width - 1 - m
    if len(ends) < len(runs) or extent != [0, 0, side, side]:
        raise AssertionError(f"diagonal extent {extent} is not [0, 0, {side}, {side}]: internal inconsistency")
    n = _slot_bytes(max(max(map(abs, coeffs)) for _, _, coeffs in runs).bit_length() + 2 * m)
    height = min(width, (width + 3) // 2)  # rows 0..H + 1; a 1 x 1 square has no row to check
    low, slots, word = (width + 1) // 2 * width, height * width, _WORD_FORMATS.get(n, "").lower()
    if word:
        view = memoryview(raw := bytearray(slots * n)).cast(word)
        for a, b, coeffs in runs:
            if a < height:
                k = min(len(coeffs), height - a)
                cells = memoryview(struct.Struct(f"{len(coeffs)}{word}").pack(*coeffs)).cast(word)
                view[a * width + b :: width + 1][:k] = cells[:k]
    else:
        cells = [bytes(n)] * slots
        for a, b, coeffs in runs:
            if a < height:
                k, start = min(len(coeffs), height - a), a * width + b
                digits = [c.to_bytes(n, "little", signed=True) for c in coeffs[:k]]
                cells[start : start + k * (width + 1) : width + 1] = digits
        raw = b"".join(cells)
    half = _offset(n, slots)  # of the packed rows and of the digits read off them alike
    digits = _shift_adds(_signed(raw, half), n, m, height, width, half)
    top = width * width - low  # the mirror of the low rows: rows 0..D-H-1, reversed
    if digits[low:] != digits[top - width : top][::-1]:
        mirror = f"row {height - 1} is not row {width - height} reversed"
        raise AssertionError(f"{mirror}: the square is not a palindrome: internal inconsistency")
    del digits[low:]
    return digits + digits[top - 1 :: -1] if top else digits


def _shift_adds(packed: int, n: int, m: int, height: int, width: int, half: int) -> list[int]:
    """Row-major digits of the low height x width box of ``packed``, in n-byte slots, times (1+u)^m (1+v)^m.

    The one shift-add loop: x += x << 8n per 1 + v, x += x << 8nW per 1 + u, and no big-integer multiply.
    The digits are read modulo B^(height W), B = 2^(8n), so rows that the 1 + u steps carry past the box, as
    they do from a box cut at its middle row, are dropped unread.  ``half`` is the box's ``_offset``, which
    the caller built to sign ``packed``.
    """
    for shift in [8 * n] * m + [8 * n * width] * m:
        packed += packed << shift
    return _balanced_digits(packed, n, height * width, half)


# The box (a0, b0, height, width) that ``_box_terms`` was last asked for, and its row-major keys once it has been
# asked for twice running (None before).  Rebound as one tuple and read once per call, so no box meets another's keys.
_held_box: tuple[tuple[int, int, int, int], Optional[list[Exponent]]] = ((0, 0, 0, 0), None)


def _box_terms(a0: int, b0: int, height: int, width: int, digits: list[int]) -> dict[Exponent, int]:
    """The nonzero terms of row-major ``digits`` over the box [a0, a0 + height) x [b0, b0 + width).

    A box asked for twice running is keyed from one held list of its keys, row-major as ``itertools.product``
    gives them, until another box is asked for: so every result of that box shares one key tuple per slot.  A box
    asked for once is keyed by ``product`` and holds no list.  Only keys are held, never a coefficient.
    """
    global _held_box
    box = (a0, b0, height, width)
    held, keys = _held_box
    if held != box:
        _held_box = (box, None)
        keys = itertools.product(range(a0, a0 + height), range(b0, b0 + width))
    elif keys is None:
        keys = list(itertools.product(range(a0, a0 + height), range(b0, b0 + width)))
        _held_box = (box, keys)
    return dict(zip(itertools.compress(keys, digits), filter(None, digits)))


def _slot_bytes(bits: int) -> int:
    """Bytes n of a slot whose balanced digits, in [-B/2, B/2) for B = 2^(8n), hold every |d| < 2^bits.

    At most 8 bytes round up to 1, 2, 4 or 8, a machine word that
    ``memoryview.cast`` writes and reads in C on a little-endian host.
    9 to 16 bytes stay as they are: ``_balanced_digits`` reads each of
    those widths in C by its own ``struct.Struct``.
    """
    n = bits // 8 + 1
    if n <= 8 and _WORD_FORMATS:
        n = 1 << (n - 1).bit_length()
    return n


def _pack(terms: dict[Exponent, int], a0: int, b0: int, width: int, n: int, slots: int) -> bytes:
    """The two's-complement little-endian n-byte slots of ``terms``, one per digit, for ``_signed`` to read.

    u^a v^b goes to slot (a - a0) width + b - b0.  Each coefficient is
    written signed, in place through ``memoryview.cast`` for a word-width
    slot, or by one ``to_bytes`` for a wider one (or any slot on a
    big-endian host).
    """
    word = _WORD_FORMATS.get(n, "").lower()
    cells = memoryview(raw := bytearray(slots * n)).cast(word) if word else [bytes(n)] * slots
    for (a, b), c in terms.items():
        cells[(a - a0) * width + b - b0] = c if word else c.to_bytes(n, "little", signed=True)
    return raw if word else b"".join(cells)


def _offset(n: int, slots: int) -> int:
    """H = sum (B/2) B^i over i < ``slots``, B = 2^(8n), by which ``_signed`` and ``_balanced_digits`` read."""
    return int.from_bytes((bytes(n - 1) + b"\x80") * slots, "little")


def _signed(raw: bytes, half: int) -> int:
    """The signed integer whose base-2^(8n) digits are the two's-complement little-endian n-byte slots of ``raw``.

    Read unsigned they are T, and (T ^ H) - H, H = ``half``, the slots' ``_offset``, undoes the XOR of
    ``_balanced_digits``.
    """
    return (int.from_bytes(raw, "little") ^ half) - half


def _balanced_digits(value: int, n: int, slots: int, half: int) -> list[int]:
    """Digits d_i in [-B/2, B/2), i < slots, with sum d_i B^i = ``value`` modulo B^slots, B = 2^(8n).

    Adding h = ``half``, the slots' ``_offset`` sum (B/2) B^i, makes every
    digit d_i + B/2 nonnegative; value + h is taken modulo B^slots, so
    whatever lies above the low ``slots`` digits is dropped, and XOR with h
    then leaves the two's-complement bytes of d_i in each slot.  A signed
    read of the slots gives the digits, in C up to 16 bytes: by
    ``memoryview.cast`` for a word-width slot, by the ``iter_unpack`` of the
    slot's ``_WIDE_SLOTS`` entry for 9 to 16 bytes, its fields joined as
    lo | hi << 64, and so on; a slot of another width (1 to 8 bytes on a
    big-endian host, or over 16) is read by ``_slice_digits``.
    """
    raw = (((value + half) & ((1 << 8 * n * slots) - 1)) ^ half).to_bytes(slots * n, "little")
    word = _WORD_FORMATS.get(n)
    if word:
        return memoryview(raw).cast(word.lower()).tolist()
    if n in _WIDE_SLOTS:
        layout, shifts = _WIDE_SLOTS[n]
        fields = layout.iter_unpack(raw)
        if len(shifts) == 1:
            return [lo | hi << 64 for lo, hi in fields]
        if len(shifts) == 2:
            _, top = shifts
            return [lo | mid << 64 | hi << top for lo, mid, hi in fields]
        _, upper, top = shifts
        return [lo | mid << 64 | high << upper | hi << top for lo, mid, high, hi in fields]
    return _slice_digits(raw, n)


def _slice_digits(raw: bytes, n: int) -> list[int]:
    """The signed little-endian n-byte slots of ``raw``, one ``int.from_bytes`` each: widths no C read takes."""
    return [int.from_bytes(raw[i : i + n], "little", signed=True) for i in range(0, len(raw), n)]


def _heap_quotient(rem: dict[Exponent, int], div: dict[Exponent, int]) -> dict[Exponent, int]:
    """Terms of ``rem`` / ``div`` by long division, for nonnegative exponents with both minima 0.

    Greedy against the divisor's leading term in the canonical order, which
    is a well-order on nonnegative exponents, so the walk terminates; raises
    NotDivisible at the first remainder term that the lead cannot reduce.
    The remainder is walked from the top through a max-heap of its keys.
    The top strictly decreases and every key a step touches lies below it,
    so each key is pushed once, when it first enters the remainder; a key
    whose coefficient cancels stays in the remainder as 0 and is skipped
    when popped.  If n keys enter the remainder in all, the walk costs
    O(n log n) heap work plus one dict update per divisor term per quotient
    term.  Both arguments are consumed.  It serves every division that the
    one faster route, ``_running_sum_quotient``, does not take or does not
    divide, and it is that route's oracle.
    """
    lead = max(div, key=_term_key)
    lead_c = div.pop(lead)
    # Every key stays at or below the first top, so 0 <= a <= a+b < base and
    # the entry -((a+b) base + a) packs the canonical order into one int.
    base = max(a + b for a, b in rem) + 1
    heap = [-(a + b) * base - a for a, b in rem]
    heapq.heapify(heap)
    quot: dict[Exponent, int] = {}
    while heap:
        total, a = divmod(-heapq.heappop(heap), base)
        top = (a, total - a)
        c = rem.pop(top)
        if not c:
            continue
        da, db = top[0] - lead[0], top[1] - lead[1]
        if da < 0 or db < 0:
            raise NotDivisible(f"remainder term u^{top[0]} v^{top[1]} not reducible")
        q, r = divmod(c, lead_c)
        if r:
            raise NotDivisible(f"coefficient {c} not divisible by {lead_c}")
        quot[(da, db)] = q
        for (ea, eb), dc in div.items():
            key = (ea + da, eb + db)
            old = rem.get(key)
            if old is None:
                rem[key] = -q * dc
                heapq.heappush(heap, -(key[0] + key[1]) * base - key[0])
            else:
                rem[key] = old - q * dc
    return quot


def _running_sum_quotient(
    terms: dict[Exponent, int], step: Exponent, shift: Exponent
) -> Optional[dict[Exponent, int]]:
    """Terms of ``terms`` / (1 - u^p v^q), each exponent moved by ``shift``, or None when it does not divide.

    With s = (p, q) >= (0, 0), s != (0, 0), the exponents fall into chains
    e, e + s, e + 2s, ...; u^a v^b sits at place k = a // p (b // q when
    p = 0) of the chain labelled e - k s, so every term of one chain has the
    same label, negative exponents included.  Since (1 - u^p v^q) Q = N
    reads Q(e) - Q(e - s) = N(e), the quotient along a chain is the running
    sum of the numerator from the chain's lowest term up, gaps included,
    and the division is exact iff every chain sums to 0.  One dict update
    per numerator term, then a prefix sum per chain in C, where the heap
    walk pays a heap push and pop per term.
    """
    p, q = step
    chains: dict[Exponent, dict[int, int]] = {}
    for (a, b), c in terms.items():
        k = a // p if p else b // q
        label = (a - k * p, b - k * q)
        try:
            chains[label][k] = c
        except KeyError:
            chains[label] = {k: c}
    quot: dict[Exponent, int] = {}
    sa, sb = shift
    for (a, b), chain in chains.items():
        lo, hi = min(chain), max(chain)
        sums = list(itertools.accumulate(map(chain.get, range(lo, hi + 1), itertools.repeat(0))))
        if sums[-1]:
            return None
        keys = zip(itertools.count(a + lo * p + sa, p), itertools.count(b + lo * q + sb, q))
        quot.update(itertools.compress(zip(keys, sums), sums))
    return quot


def _square_quotient(square: list[int], width: int, k: int, m: int) -> dict[Exponent, int]:
    """Terms of the row-major ``square`` over [0, width)^2 divided by e_k(uv) (1+u)^m (1+v)^m, e_k(w) = 1 + ... w^(k-1).

    The square is held as a list of rows, row a the u^a coefficients, and each step is one list operation per
    row, with no ``LaurentPoly``:

    * by e_k(uv) = (1 - w^k) / (1 - w), w = uv: times 1 - w, each row less the row below it moved one column
      right, into [0, width]^2; then running sums of stride (k, k), each row plus the quotient's row k below it
      moved k columns right;
    * by (1+u)^m: m passes of row a -= row a - 1 from the bottom up, each the quotient by 1 + u;
    * by (1+v)^m: the same passes on the columns, by transposing.

    A step's quotient spans k - 1 fewer rows and columns than its numerator for e_k, and one fewer row (column)
    per pass for 1 + u (1 + v).  The quotient times the step's divisor is the numerator exactly when every cell
    the step computes outside that extent is 0, and otherwise the step raises ``NotDivisible``.  The result
    spans [0, width - k + 1 - m)^2.
    """
    rows = [square[i : i + width] + [0] for i in range(0, width * width, width)] + [[0] * (width + 1)]
    for a in range(width, 0, -1):  # times 1 - w, from the top row down so that row a - 1 is still the old one
        rows[a][1:] = map(operator.sub, rows[a][1:], rows[a - 1])
    for a in range(k, width + 1):  # by 1 - w^k, from the bottom row up so that row a - k is the quotient's
        rows[a][k:] = map(operator.add, rows[a][k:], rows[a - k])
    side = width + 1 - k
    if any(map(any, rows[side:])) or any(any(row[side:]) for row in rows[:side]):
        raise NotDivisible(f"the square does not divide by e_{k}(uv): a cell outside [0, {side})^2 is nonzero")
    rows = [row[:side] for row in rows[:side]]
    for name in ("u", "v"):
        for _ in range(m):
            for a in range(1, len(rows)):
                rows[a] = list(map(operator.sub, rows[a], rows[a - 1]))
            if any(rows.pop()):
                raise NotDivisible(f"the square does not divide by (1 + {name})^{m}: a nonzero row is left over")
        rows = list(map(list, zip(*rows)))  # the v passes run on columns, and the second transpose undoes the first
    side -= m
    return _box_terms(0, 0, side, side, list(itertools.chain.from_iterable(rows)))


def monomial(c: int, a: int, b: int) -> LaurentPoly:
    """The single term c u^a v^b."""
    return LaurentPoly({(a, b): c})


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
U = monomial(1, 1, 0)
V = monomial(1, 0, 1)
UV = monomial(1, 1, 1)


def _mono(exponent: Exponent, left: str, right: str) -> str:
    """u^a v^b, or "" for a = b = 0; an exponent other than 1 sits between ``left`` and ``right`` ({ } in LaTeX)."""
    a, b = exponent
    if a == b:
        if a == 0:
            return ""
        return "uv" if a == 1 else f"(uv)^{left}{a}{right}"
    parts = []
    if a:
        parts.append("u" if a == 1 else f"u^{left}{a}{right}")
    if b:
        parts.append("v" if b == 1 else f"v^{left}{b}{right}")
    return " ".join(parts)


def _t_mono(k: int, left: str, right: str) -> str:
    """t^k, or "" for k = 0; the counterpart of ``_mono`` for ``UniPoly``."""
    if k == 0:
        return ""
    return "t" if k == 1 else f"t^{left}{k}{right}"


def _format_terms(terms, mono, left: str = "", right: str = "") -> str:
    if not terms:
        return "0"
    out = []
    for exp, c in terms:
        m = mono(exp, left, right)
        sign = (" - " if out else "-") if c < 0 else (" + " if out else "")
        c = abs(c)
        if not m:
            out.append(f"{sign}{c}")
        elif c == 1:
            out.append(f"{sign}{m}")
        else:
            out.append(f"{sign}{c} {m}")
    return "".join(out)


class UniPoly:
    """Integer Laurent polynomial in a single variable t.

    Used for Poincare polynomials; supports just enough arithmetic for
    ring-morphism checks of the diagonal specialization.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        object.__setattr__(self, "_coeffs", _collect([(int(k), int(c)) for k, c in items], {}))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("UniPoly is immutable")

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def coeff(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        acc = dict(self._coeffs)
        for k, c in other._coeffs.items():
            acc[k] = acc.get(k, 0) + c
        return UniPoly(acc)

    def __mul__(self, other: Union["UniPoly", int]) -> "UniPoly":
        if isinstance(other, int):
            return UniPoly({k: c * other for k, c in self._coeffs.items()})
        acc: dict[int, int] = {}
        for k1, c1 in self._coeffs.items():
            for k2, c2 in other._coeffs.items():
                acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
        return UniPoly(acc)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._coeffs == ({} if other == 0 else {0: other})
        if isinstance(other, UniPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"UniPoly({self.text()!r})"

    def text(self) -> str:
        return _format_terms(self.terms(), _t_mono)


class TruncatedSeries:
    """Power series in x over LaurentPoly, truncated at an explicit order.

    ``coeffs[j]`` is the x^j coefficient; arithmetic between two series is
    carried out at the minimum of their truncation orders.  ``rational`` is
    the one expansion; the generic product ``*`` is its independent check.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[Union[LaurentPoly, int]]):
        if not coeffs:
            raise ValueError("a series needs at least the x^0 coefficient")
        object.__setattr__(
            self, "_coeffs", tuple(c if isinstance(c, LaurentPoly) else LaurentPoly.constant(c) for c in coeffs)
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def of(cls, coeffs: Sequence[Union[LaurentPoly, int]], order: int) -> "TruncatedSeries":
        """The given x-polynomial coefficients, padded or cut to ``order``."""
        padded = list(coeffs[: order + 1])
        padded += [ZERO] * (order + 1 - len(padded))
        return cls(padded)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.of([ONE], order)

    @classmethod
    def rational(
        cls, order: int, binomials: Iterable[tuple[LaurentPoly, int]] = (), ratios: Iterable[LaurentPoly] = ()
    ) -> "TruncatedSeries":
        """prod (1 + b x)^m / prod (1 - r x) over (b, m) in ``binomials``, monomial r in ``ratios``.

        Each factor acts in place on one coefficient list: (1 + b x)^m in one
        pass with the terms C(m, i) b^i, i <= min(m, order), so the cost does
        not grow with m; 1/(1 - r x) as the prefix recurrence c_j += r c_(j-1).
        """
        coeffs = [ONE] + [ZERO] * order
        for base, m in binomials:
            if m < 0:
                raise ValueError("binomial exponent must be nonnegative")
            steps = [ONE]  # steps[i] = C(m, i) base^i
            power, binom = ONE, 1
            for i in range(1, min(m, order) + 1):
                power, binom = power * base, binom * (m - i + 1) // i
                steps.append(binom * power)
            # descending j, so each c_(j-i) read is still the old coefficient
            for j in range(order, 0, -1):
                acc = coeffs[j]
                for i in range(1, min(j, len(steps) - 1) + 1):
                    if coeffs[j - i]:
                        acc = acc + steps[i] * coeffs[j - i]
                coeffs[j] = acc
        for ratio in ratios:
            if len(ratio) > 1:
                raise NotMonomial(f"geometric ratio must be a monomial, got {ratio!r}")
            for j in range(1, order + 1):
                coeffs[j] = coeffs[j] + ratio * coeffs[j - 1]
        return cls(coeffs)

    @classmethod
    def geometric(cls, ratio: LaurentPoly, order: int) -> "TruncatedSeries":
        """Expansion of 1/(1 - ratio*x): the x^j coefficient is ratio^j."""
        return cls.rational(order, ratios=[ratio])

    @classmethod
    def binomial_power(cls, base: LaurentPoly, n: int, order: int) -> "TruncatedSeries":
        """Expansion of (1 + base*x)^n: the x^j coefficient is C(n,j) base^j."""
        return cls.rational(order, binomials=[(base, n)])

    @property
    def trunc_order(self) -> int:
        return len(self._coeffs) - 1

    def coeff(self, j: int) -> LaurentPoly:
        if j < 0 or j > self.trunc_order:
            raise OrderExceeded(f"x^{j} requested from a series truncated at order {self.trunc_order}")
        return self._coeffs[j]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.trunc_order, other.trunc_order)
        return TruncatedSeries([self._coeffs[j] + other._coeffs[j] for j in range(order + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.trunc_order, other.trunc_order)
        return TruncatedSeries([self._coeffs[j] - other._coeffs[j] for j in range(order + 1)])

    def __mul__(self, other: Union["TruncatedSeries", LaurentPoly, int]) -> "TruncatedSeries":
        if isinstance(other, (LaurentPoly, int)):
            return TruncatedSeries([c * other for c in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.trunc_order, other.trunc_order)
        out = []
        for j in range(order + 1):
            acc = ZERO
            for i in range(j + 1):
                a = self._coeffs[i]
                b = other._coeffs[j - i]
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        inner = " + ".join(f"({c.text()}) x^{j}" for j, c in enumerate(self._coeffs))
        return f"TruncatedSeries[{inner}]"
