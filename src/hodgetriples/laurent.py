"""Exact arithmetic for bivariate Laurent polynomials and truncated series.

Every coefficient is an arbitrary-precision integer; nothing here touches
floating point.  The value types are:

* ``LaurentPoly``: sparse Laurent polynomial in the Hodge variables u, v.
  Negative exponents are first-class, since intermediates such as
  (uv)^{-1} x geometric tails occur before a final polynomial emerges.
* ``TruncatedSeries``: power series in an auxiliary variable x with
  ``LaurentPoly`` coefficients and an explicit truncation order.  Its
  ``rational`` constructor, which expands prod (1 + b x)^m / prod (1 - r x),
  is the one engine behind every coefficient-of-x^k extraction.
* ``UniPoly``: integer polynomial in a single variable t, the target of the
  diagonal (Poincare) specialization u = v = t.

Canonical term order throughout: ascending total degree a+b, then ascending
u-exponent a.

``LaurentPoly`` products take one of two routes by size.  Below
``PACKED_MIN_PAIRS`` term pairs, or with an operand of fewer than
``PACKED_MIN_TERMS`` terms, a dict loop multiplies every pair of terms; it
is also the oracle the tests hold the other route to.  From there on,
Kronecker substitution (D. Harvey, J. Symbolic Comput. 2009) packs each
operand into one big integer with a byte-aligned slot per exponent, wide
enough for max|c_p| * max|c_q| * min(len p, len q) plus a guard bit, and
lets CPython's Karatsuba multiply do the convolution.  A slot of at most 8
bytes is rounded up to 1, 2, 4 or 8 bytes, so that on a little-endian host
the product is unpacked a machine word at a time by ``memoryview.cast``;
wider slots are read by byte slices.  The thresholds are the crossover
measured on the package's own products; operands too sparse to pack into
a box of at most one slot per term pair stay on the dict loop.

Exact division takes one of two routes by the divisor's shape.  A divisor
that is 1 - u^p v^q up to a monomial factor, such as the 1 - uv of every
closed chamber formula, divides by running sums along the chains
e, e + (p, q), e + 2 (p, q), ... of the numerator.  Every other divisor, and
a numerator that such a divisor does not divide, goes to long division
through a max-heap of remainder keys; it is also the oracle of the first
route and raises ``NotDivisible``.
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
        shape, as ``__mul__`` routes on size.  A divisor 1 - u^p v^q goes to
        ``_running_sum_quotient``, which takes prefix sums of the numerator
        along each chain e, e + (p, q), ... in one pass.  Every other
        divisor, and a numerator whose chains do not all sum to 0, goes to
        ``_heap_quotient``: with the numerator also reduced by its content,
        divisibility in the Laurent ring coincides with divisibility of
        honest polynomials, and long division walks the remainder from the
        top through a max-heap of its keys.  The heap walk is the one that
        raises NotDivisible, so its message does not depend on the route.
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
# Terms the smaller operand needs for the packed route.  Packing costs about
# one slot per product exponent, so an operand of one or two terms gains
# nothing: on those products a monomial was 1.9x to 3.0x slower packed and a
# binomial 0.95x, while 3- and 4-term operands were 0.56x to 1.05x.
PACKED_MIN_TERMS = 3


# Slot widths in bytes that ``memoryview.cast`` reads as native unsigned
# words; the byte order must be little-endian, as ``to_bytes`` writes it.
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
    holds every partial sum with a guard bit to spare.  Positive and
    negative coefficients are packed apart, four nonnegative products give
    X = P+Q+ + P-Q- and Y = P+Q- + P-Q+, and each coefficient is its X slot
    minus its Y slot, read from one ``to_bytes`` each.  A slot of at most 8
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
    word = _WORD_FORMATS.get(n)
    p_pos, p_neg = _pack(p, pa0, pb0, width, n, p_height * width + p_width + 1)
    q_pos, q_neg = _pack(q, qa0, qb0, width, n, q_height * width + q_width + 1)
    x = p_pos * q_pos + p_neg * q_neg
    y = p_pos * q_neg + p_neg * q_pos
    size = slots * n
    x_bytes = x.to_bytes(size, "little")
    if word:
        x_words = memoryview(x_bytes).cast(word)
        if y:
            digits = list(map(operator.sub, x_words, memoryview(y.to_bytes(size, "little")).cast(word)))
        else:
            digits = x_words.tolist()
    elif y:
        y_bytes = y.to_bytes(size, "little")
        digits = [
            int.from_bytes(x_bytes[i : i + n], "little") - int.from_bytes(y_bytes[i : i + n], "little")
            for i in range(0, size, n)
        ]
    else:
        digits = [int.from_bytes(x_bytes[i : i + n], "little") for i in range(0, size, n)]
    a0, b0 = pa0 + qa0, pb0 + qb0
    keys = itertools.product(range(a0, a0 + height), range(b0, b0 + width))
    return dict(itertools.compress(zip(keys, digits), digits))


def _pack(terms: dict[Exponent, int], a0: int, b0: int, width: int, n: int, slots: int) -> tuple[int, int]:
    """(positive part, negated negative part) of ``terms``, one n-byte little-endian slot per digit."""
    zero = bytes(n)
    pos, neg = [zero] * slots, [zero] * slots
    for (a, b), c in terms.items():
        if c > 0:
            pos[(a - a0) * width + b - b0] = c.to_bytes(n, "little")
        else:
            neg[(a - a0) * width + b - b0] = (-c).to_bytes(n, "little")
    return int.from_bytes(b"".join(pos), "little"), int.from_bytes(b"".join(neg), "little")


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
    term.  Both arguments are consumed.  It serves every divisor that is not
    1 - u^p v^q, and every numerator that such a divisor does not divide,
    and it is the oracle of ``_running_sum_quotient``.
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
