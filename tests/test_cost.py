"""Deterministic cost pins: polynomial multiplies, term pairs and term-order keys of fixed workloads.

The counts are machine-independent, so a change that makes an evaluator do
more polynomial arithmetic fails here without any timing noise.  Each bound
is the count the current code measures; lower it when a change cuts the cost.
"""

import pytest

from hodgetriples import blocks, laurent, triples
from hodgetriples.laurent import LaurentPoly

SPEC = triples.TripleSpec(3, (2, 1), 8, 0)


def _clear_block_caches() -> None:
    for cached in (blocks.sym_power, blocks.jacobian, blocks.proj_space):
        cached.cache_clear()


def _sweep_cost(monkeypatch, evaluate) -> tuple[int, int]:
    """(multiplies, term pairs) of ``evaluate`` over every chamber of SPEC, from cold block caches."""
    _clear_block_caches()
    tally = [0, 0]
    mul = LaurentPoly.__mul__

    def counted(self, other):
        tally[0] += 1
        tally[1] += len(self) * (len(other) if isinstance(other, LaurentPoly) else 1)
        return mul(self, other)

    # __rmul__ is an alias of __mul__, so 3 * p is counted as well
    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted)
    for sigma in triples.chamber_representatives(SPEC):
        evaluate(SPEC, sigma)
    monkeypatch.undo()
    return tally[0], tally[1]


@pytest.mark.parametrize(
    "evaluate, max_multiplies, max_term_pairs",
    [
        (triples.hodge_triples_closed, 143, 6450),
        (triples.hodge_triples_sum, 89, 9127),
    ],
    ids=["closed", "sum"],
)
def test_sweep_cost_pinned(monkeypatch, evaluate, max_multiplies, max_term_pairs):
    multiplies, term_pairs = _sweep_cost(monkeypatch, evaluate)
    assert multiplies <= max_multiplies
    assert term_pairs <= max_term_pairs


def test_division_cost_pinned(monkeypatch):
    """Canonical-order keys computed by the two bundle routes, which divide exactly.

    A division that rescans its remainder for the top term at every step
    computes a key per remainder term per step: 1,365,800 keys here, where
    the heap walk needs 2,885.
    """
    _clear_block_caches()
    calls = [0]
    term_key = laurent._term_key

    def counted(exponent):
        calls[0] += 1
        return term_key(exponent)

    monkeypatch.setattr(laurent, "_term_key", counted)
    triples.hodge_bundles_odd(12, 1)
    triples.hodge_bundles_odd(12, 1, fixed_det=True)
    triples.hodge_bundles_via_triples(6, 1)
    monkeypatch.undo()
    assert calls[0] <= 2885
