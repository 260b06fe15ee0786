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
a time by ``memoryview.cast``; wider slots are read by byte slices.  The thresholds are the crossover
measured on the package's own products; operands too sparse to pack into
a box of at most one slot per term pair stay on the dict loop.

Exact division takes one of three routes.  A divisor that is 1 - u^p v^q
up to a monomial factor, such as the 1 - uv of the wall terms' raw
extraction, divides by running sums along the chains e, e + (p, q),
e + 2 (p, q), ... of the numerator.  Every other divisor, from
``PACKED_MIN_PAIRS`` numerator-divisor term pairs on, divides by Kronecker
substitution: one ``divmod`` of the packed integers, the quotient read
back in balanced digits and accepted on a certificate, with no check
multiply.  The rest, and every numerator that a faster route cannot
certify, goes to long division through a max-heap of remainder keys; it is
the oracle of both other routes and the only one to raise ``NotDivisible``.
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
        shape and size, as ``__mul__`` routes on size.  A divisor 1 - u^p v^q
        goes to ``_running_sum_quotient``, which takes prefix sums of the
        numerator along each chain e, e + (p, q), ... in one pass.  With the
        numerator also reduced by its content, divisibility in the Laurent
        ring coincides with divisibility of honest polynomials.  Any other
        divisor of a numerator with at least ``PACKED_MIN_PAIRS`` term pairs
        goes to ``_packed_quotient``: one ``divmod`` of the two polynomials
        packed into big integers (Kronecker substitution), its quotient
        accepted only when a certificate proves it the polynomial quotient.
        Every other division, and every numerator the first two routes
        refuse, goes to ``_heap_quotient``, long division that walks the
        remainder from the top through a max-heap of its keys.  The heap
        walk is the one that raises NotDivisible, so its message does not
        depend on the route.
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
        quot = _packed_quotient(rem, div, (shift_a, shift_b)) if len(rem) * len(div) >= PACKED_MIN_PAIRS else None
        if quot is None:
            quot = {(a + shift_a, b + shift_b): c for (a, b), c in _heap_quotient(rem, div).items()}
        return _wrap(quot)

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
# ``__truediv__`` packs from the same count of numerator-divisor term pairs:
# on dense quotients over divisors of 1 to 13 terms, packed division was
# 0.12x to 0.89x the heap walk from 144 pairs on and 0.65x to 3.0x below it,
# and ``verify``'s random round trips (at most 96 pairs) stay on the walk.
PACKED_MIN_PAIRS = 144
# Terms the smaller operand needs for the packed product.  Packing costs about
# one slot per product exponent, so an operand of one or two terms gains
# nothing: on those products a monomial was 1.9x to 3.0x slower packed and a
# binomial 0.95x, while 3- and 4-term operands were 0.56x to 1.05x.  Division
# has no such floor: monomial and binomial divisors were 0.40x to 0.61x the
# heap walk from 144 pairs on.
PACKED_MIN_TERMS = 3


# Byte products of the packed division's schoolbook ``divmod``, (quotient
# bytes) x (divisor bytes), per numerator-divisor term pair, above which a
# division stays on the heap walk.  Timed on dense quotients of 400 to 4,900
# terms over the divisors e_5, e_12, e_23, e(Jac) at genus 4 and 8, (1 + u)^8
# and sparse 2-D trinomials: the packed route was 0.12x to 0.80x the heap walk
# up to 1,835 per pair and 0.56x to 2.7x from 2,068 on (e_23 with 8-byte
# slots 2.7x): a divisor with many slots per term, such as e_n, does not pay.
PACKED_DIV_COST = 2048


# Slot widths in bytes that ``memoryview.cast`` writes and reads as native
# words (unsigned, or signed in lower case); the byte order must be
# little-endian, as ``to_bytes`` and ``from_bytes`` take it.
_WORD_FORMATS = {struct.calcsize(word): word for word in "BHIQ"} if sys.byteorder == "little" else {}


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
    ``memoryview.cast`` then reads all slots as native words in C, where a
    wider slot (or a big-endian host) takes one ``int.from_bytes`` per slice.
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
    n = bound.bit_length() // 8 + 1
    if n <= 8 and _WORD_FORMATS:
        n = 1 << (n - 1).bit_length()
    packed = _pack(p, pa0, pb0, (width, 1), n, p_height * width + p_width + 1)
    packed *= _pack(q, qa0, qb0, (width, 1), n, q_height * width + q_width + 1)
    digits = _balanced_digits(packed, n, slots)
    a0, b0 = pa0 + qa0, pb0 + qb0
    keys = itertools.product(range(a0, a0 + height), range(b0, b0 + width))
    return dict(itertools.compress(zip(keys, digits), digits))


def _pack(terms: dict[Exponent, int], a0: int, b0: int, strides: Exponent, n: int, slots: int) -> int:
    """The signed integer sum c B^slot over ``terms``, B = 2^(8n), one n-byte little-endian slot per digit.

    u^a v^b goes to slot (a - a0) s_a + (b - b0) s_b for ``strides`` (s_a, s_b),
    so either axis can be the minor one.  Positive and negated negative
    coefficients are packed apart and subtracted.  A word-width slot is
    written in place through ``memoryview.cast``; a wider one (or any slot on
    a big-endian host) is one ``to_bytes`` per coefficient, joined.
    """
    stride_a, stride_b = strides
    word = _WORD_FORMATS.get(n)
    if word:
        pos, neg = bytearray(slots * n), bytearray(slots * n)
        pos_slots, neg_slots = memoryview(pos).cast(word), memoryview(neg).cast(word)
        for (a, b), c in terms.items():
            if c > 0:
                pos_slots[(a - a0) * stride_a + (b - b0) * stride_b] = c
            else:
                neg_slots[(a - a0) * stride_a + (b - b0) * stride_b] = -c
    else:
        zero = bytes(n)
        pos_slots, neg_slots = [zero] * slots, [zero] * slots
        for (a, b), c in terms.items():
            if c > 0:
                pos_slots[(a - a0) * stride_a + (b - b0) * stride_b] = c.to_bytes(n, "little")
            else:
                neg_slots[(a - a0) * stride_a + (b - b0) * stride_b] = (-c).to_bytes(n, "little")
        pos, neg = b"".join(pos_slots), b"".join(neg_slots)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _balanced_digits(value: int, n: int, slots: int) -> Optional[list[int]]:
    """Digits d_i in [-B/2, B/2), i < slots, with sum d_i B^i = ``value``, B = 2^(8n); None when there are none.

    Adding h = sum (B/2) B^i makes every digit d_i + B/2 nonnegative, and
    XOR with h then leaves the two's-complement bytes of d_i in each slot, so
    a signed read of the slots gives the digits: by ``memoryview.cast`` for a
    word-width slot, else by one ``int.from_bytes`` per slice.
    """
    half = int.from_bytes((bytes(n - 1) + b"\x80") * slots, "little")
    try:
        raw = ((value + half) ^ half).to_bytes(slots * n, "little")
    except OverflowError:  # value + h is negative, or wider than the slots
        return None
    word = _WORD_FORMATS.get(n)
    if word:
        return memoryview(raw).cast(word.lower()).tolist()
    return [int.from_bytes(raw[i : i + n], "little", signed=True) for i in range(0, slots * n, n)]


def _packed_quotient(
    rem: dict[Exponent, int], div: dict[Exponent, int], shift: Exponent
) -> Optional[dict[Exponent, int]]:
    """Terms of ``rem`` / ``div`` by Kronecker substitution, each exponent moved by ``shift``, or None if not certified.

    Arguments as for ``_heap_quotient`` (nonnegative exponents, both minima
    0), but neither is consumed.  The divisor's longer axis is the minor
    digit axis, of width W the numerator's extent along it, so a divisor in
    u alone, such as (1 + u)^g, packs into deg + 1 slots.  A quotient has
    the numerator's extents less the divisor's.  The numerator's box must
    not exceed its term pairs with the divisor (so 1 + u^(10^6) never
    packs), and the byte products of the schoolbook ``divmod`` must not
    exceed ``PACKED_DIV_COST`` per term pair.  A slot of n bytes with
    8n > bits(max|P|) + bits(sum|d|) holds max|P| < B/2, B = 2^(8n).  One
    ``divmod`` of the packed integers gives q, accepted only when the
    remainder is 0 and a certificate holds:

    * q has balanced digits (``_balanced_digits``), none of them nonzero
      outside the quotient's minor-axis extent, so q = Q'(B) for the
      polynomial Q' they spell;
    * max|Q'| sum|d| < B/2.

    Then Q' D has minor extent below W and coefficients below B/2, and packs
    to q D(B) = P(B): two balanced base-B expansions of one integer, so
    Q' D = P term by term.  Any failed check returns None, and the heap walk
    decides.
    """
    ra, rb = zip(*rem)
    da, db = zip(*div)
    height_a, height_b, div_a, div_b = max(ra), max(rb), max(da), max(db)
    slots = (height_a + 1) * (height_b + 1)
    if height_a < div_a or height_b < div_b or slots > len(rem) * len(div):
        return None
    minor_u = div_a >= div_b
    if minor_u:  # u^a v^b in slot b W + a
        major, minor, div_major, div_minor = height_b, height_a, div_b, div_a
    else:  # in slot a W + b
        major, minor, div_major, div_minor = height_a, height_b, div_a, div_b
    width, rows, cols = minor + 1, major - div_major + 1, minor - div_minor + 1
    div_slots, quot_slots = div_major * width + div_minor + 1, rows * width
    div_sum = sum(map(abs, div.values()))
    n = (max(map(abs, rem.values())).bit_length() + div_sum.bit_length()) // 8 + 1
    if n <= 8 and _WORD_FORMATS:
        n = 1 << (n - 1).bit_length()
    if quot_slots * div_slots * n * n > PACKED_DIV_COST * len(rem) * len(div):
        return None
    strides = (1, width) if minor_u else (width, 1)
    quot, r = divmod(_pack(rem, 0, 0, strides, n, slots), _pack(div, 0, 0, strides, n, div_slots))
    digits = None if r else _balanced_digits(quot, n, quot_slots)
    if digits is None or any(any(digits[i + cols : i + width]) for i in range(0, quot_slots, width)):
        return None
    coeffs = list(itertools.chain.from_iterable(digits[i : i + cols] for i in range(0, quot_slots, width)))
    if max(map(abs, coeffs)) * div_sum >= 1 << (8 * n - 1):
        return None
    sa, sb = shift
    if minor_u:
        keys = map(operator.itemgetter(1, 0), itertools.product(range(sb, sb + rows), range(sa, sa + cols)))
    else:
        keys = itertools.product(range(sa, sa + rows), range(sb, sb + cols))
    return dict(itertools.compress(zip(keys, coeffs), coeffs))


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
    running sums and the packed route do not take or cannot certify, and it
    is the oracle of ``_running_sum_quotient`` and ``_packed_quotient``.
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
