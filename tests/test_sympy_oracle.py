"""The paper's closed chamber formulas, expanded by sympy as rational functions in u, v and x.

An oracle outside the package: sympy's power series ring over the field
Q(u, v) (``sympy.polys.ring_series``) expands each formula in x, and its
rational arithmetic checks that the result is a polynomial, with none of
``laurent``'s arithmetic.  It gives the Hodge polynomials of triple and pair
moduli at small genus, degree and chamber.  The package itself stays free
of dependencies; without sympy these tests are skipped.
"""

import math

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from hodgetriples.triples import (  # noqa: E402
    TripleSpec,
    chamber_representatives,
    hodge_pairs,
    hodge_triples_closed,
    pair_chamber_representatives,
)

FIELD = sympy.QQ.frac_field(*sympy.symbols("u v"))
SERIES, X = ring("x", FIELD)
U, V = FIELD.gens
W = U * V


def _closed_formula(g: int, jacobian_power: int, n: int, e2: int) -> dict:
    """Terms of [x^0] (1+u)^jg (1+v)^jg (1+ux)^g (1+vx)^g / ((1-uv)(1-x)(1-uvx) x^n)
    * ((uv)^n / (1 - (uv)^(-1) x) - (uv)^e2 / (1 - (uv)^2 x)), with j = ``jacobian_power``."""
    prec = n + 1
    body = rs_mul((1 + U * X) ** g * (1 + V * X) ** g, rs_series_inversion((1 - X) * (1 - W * X), X, prec), X, prec)
    tails = W**n * rs_series_inversion(1 - X / W, X, prec) - W**e2 * rs_series_inversion(1 - W**2 * X, X, prec)
    value = rs_mul(body, tails, X, prec).coeff(X**n) * ((1 + U) * (1 + V)) ** (jacobian_power * g) / (1 - W)
    assert value.denom == 1, "the closed formula must give a polynomial"
    return {key: int(c) for key, c in value.numer.terms()}


@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("d1, d2", [(3, 0), (5, 0), (4, -1), (6, 1)])
def test_triples_closed_formula(g, d1, d2):
    spec = TripleSpec(g, (2, 1), d1, d2)
    reps = chamber_representatives(spec)
    assert reps
    for sigma in reps:
        d0 = math.floor((sigma.value + d1 + d2) / 3) + 1
        expected = _closed_formula(g, 2, d1 - d2 - d0, g - 1 - d1 + 2 * d0)
        assert dict(hodge_triples_closed(spec, sigma).poly.terms()) == expected, (g, d1, d2, sigma)


@pytest.mark.parametrize("fixed_det", [False, True], ids=["unfixed", "fixed"])
@pytest.mark.parametrize("g", [2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_pairs_closed_formula(g, d, fixed_det):
    for tau in pair_chamber_representatives(d):
        fl = math.floor(tau.value)
        expected = _closed_formula(g, 0 if fixed_det else 1, d - 1 - fl, g + 1 - d + 2 * fl)
        assert dict(hodge_pairs(g, d, tau, fixed_det=fixed_det).poly.terms()) == expected, (g, d, tau)
