"""Exact arithmetic for bivariate Laurent polynomials and truncated series.

Every coefficient is an arbitrary-precision integer (exact rationals appear
only at specialization points); nothing here touches floating point.  The
value types are:

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
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

Exponent = tuple[int, int]


class NotDivisible(ArithmeticError):
    """Exact Laurent-polynomial division has no polynomial quotient."""


class NotMonomial(ValueError):
    """A geometric-series ratio must be a single monomial."""


class OrderExceeded(ValueError):
    """A series coefficient beyond the truncation order was requested."""


class ZeroAtPole(ZeroDivisionError):
    """A negative exponent was evaluated at a zero coordinate."""


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
        acc: dict[Exponent, int] = {}
        for (a, b), c in items:
            if c:
                key = (int(a), int(b))
                new = acc.get(key, 0) + int(c)
                if new:
                    acc[key] = new
                elif key in acc:
                    del acc[key]
        object.__setattr__(self, "_terms", acc)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentPoly is immutable")

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly({(0, 0): c})

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
        acc = dict(self._terms)
        for key, c in other._terms.items():
            new = acc.get(key, 0) + c
            if new:
                acc[key] = new
            elif key in acc:
                del acc[key]
        return _wrap(acc)

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
        if isinstance(other, int):
            return _wrap({key: c * other for key, c in self._terms.items()} if other else {})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[Exponent, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                new = acc.get(key, 0) + c1 * c2
                if new:
                    acc[key] = new
                elif key in acc:
                    del acc[key]
        return _wrap(acc)

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

        Both operands are reduced by their monomial content, after which
        divisibility in the Laurent ring coincides with divisibility of
        honest polynomials.  Long division then proceeds greedily against
        the divisor's leading term in the canonical order, which is a
        well-order on nonnegative exponents, so the loop terminates.

        The remainder is walked from the top through a max-heap of its keys.
        The top strictly decreases and every key a step touches lies below
        it, so each key is pushed once, when it first enters the remainder;
        a key whose coefficient cancels stays in the remainder as 0 and is
        skipped when popped.  If n keys enter the remainder in all, the walk
        costs O(n log n) heap work plus one dict update per divisor term per
        quotient term, where a per-step scan of the remainder is quadratic.
        """
        if isinstance(other, int):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        pa = min(a for a, _ in self._terms)
        pb = min(b for _, b in self._terms)
        qa = min(a for a, _ in other._terms)
        qb = min(b for _, b in other._terms)
        rem = {(a - pa, b - pb): c for (a, b), c in self._terms.items()}
        div = {(a - qa, b - qb): c for (a, b), c in other._terms.items()}
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
        shift_a, shift_b = pa - qa, pb - qb
        return _wrap({(a + shift_a, b + shift_b): c for (a, b), c in quot.items()})

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
        return UniPoly(acc)

    def evaluate(self, u0: Fraction, v0: Fraction) -> Fraction:
        """Exact value at a rational point; ZeroAtPole on 0^(negative)."""
        u0, v0 = Fraction(u0), Fraction(v0)
        total = Fraction(0)
        for (a, b), c in self._terms.items():
            if (a < 0 and u0 == 0) or (b < 0 and v0 == 0):
                raise ZeroAtPole(f"u^{a} v^{b} evaluated at ({u0}, {v0})")
            total += c * u0**a * v0**b
        return total

    # -- formatting --------------------------------------------------------

    def text(self) -> str:
        return _format_terms(self.terms(), _mono_text)

    def latex(self) -> str:
        return _format_terms(self.terms(), _mono_latex)


def _coerce(value) -> LaurentPoly:
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.constant(value)
    return NotImplemented


def _wrap(terms: dict[Exponent, int]) -> LaurentPoly:
    poly = LaurentPoly.__new__(LaurentPoly)
    object.__setattr__(poly, "_terms", terms)
    return poly


def monomial(c: int, a: int, b: int) -> LaurentPoly:
    """The single term c u^a v^b."""
    return LaurentPoly({(a, b): c})


ZERO = LaurentPoly()
ONE = LaurentPoly.constant(1)
U = monomial(1, 1, 0)
V = monomial(1, 0, 1)
UV = monomial(1, 1, 1)


def _mono_text(a: int, b: int) -> str:
    if a == b:
        if a == 0:
            return ""
        return "uv" if a == 1 else f"(uv)^{a}"
    parts = []
    if a:
        parts.append("u" if a == 1 else f"u^{a}")
    if b:
        parts.append("v" if b == 1 else f"v^{b}")
    return " ".join(parts)


def _mono_latex(a: int, b: int) -> str:
    if a == b:
        if a == 0:
            return ""
        return "uv" if a == 1 else f"(uv)^{{{a}}}"
    parts = []
    if a:
        parts.append("u" if a == 1 else f"u^{{{a}}}")
    if b:
        parts.append("v" if b == 1 else f"v^{{{b}}}")
    return " ".join(parts)


def _format_terms(terms, mono) -> str:
    if not terms:
        return "0"
    out = []
    for exp, c in terms:
        m = mono(*exp) if isinstance(exp, tuple) else mono(exp)
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
        acc: dict[int, int] = {}
        for k, c in items:
            if c:
                new = acc.get(int(k), 0) + int(c)
                if new:
                    acc[int(k)] = new
                elif int(k) in acc:
                    del acc[int(k)]
        object.__setattr__(self, "_coeffs", acc)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("UniPoly is immutable")

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def coeff(self, k: int) -> int:
        return self._coeffs.get(k, 0)

    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self._coeffs)

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

    def evaluate(self, t0: Fraction) -> Fraction:
        t0 = Fraction(t0)
        return sum((c * t0**k for k, c in self._coeffs.items()), Fraction(0))

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
        def mono(k: int) -> str:
            if k == 0:
                return ""
            return "t" if k == 1 else f"t^{k}"

        return _format_terms(self.terms(), mono)


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

    def coefficients(self) -> Iterator[LaurentPoly]:
        return iter(self._coeffs)

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

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        inner = " + ".join(f"({c.text()}) x^{j}" for j, c in enumerate(self._coeffs))
        return f"TruncatedSeries[{inner}]"
