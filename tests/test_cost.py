"""Deterministic cost pins: series expansions, divisions, multiplies, term pairs and term-order keys.

The counts are machine-independent, so a change that makes an evaluator do
more polynomial arithmetic fails here without any timing noise.  Each bound
is the count the current code measures; lower it when a change cuts the cost.
"""

import contextlib
import io
import itertools
import json
import random

import pytest

from hodgetriples import blocks, cli, laurent, triples
from hodgetriples.laurent import LaurentPoly, TruncatedSeries

SPEC = triples.TripleSpec(3, (2, 1), 8, 0)


def _clear_block_caches() -> None:
    """Clear every lru cache of ``blocks`` and ``triples``, so that no pin starts warm."""
    for module in (blocks, triples):
        for cached in vars(module).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()


def _arithmetic_cost(monkeypatch, work) -> tuple[int, int, int, int]:
    """(series expansions, divisions, multiplies, term pairs) of ``work()``, from cold caches."""
    _clear_block_caches()
    tally = [0, 0, 0, 0]
    rational, div, mul = TruncatedSeries.rational.__func__, LaurentPoly.__truediv__, LaurentPoly.__mul__

    def counted_rational(cls, *args, **kwargs):
        tally[0] += 1
        return rational(cls, *args, **kwargs)

    def counted_div(self, other):
        tally[1] += 1
        return div(self, other)

    def counted_mul(self, other):
        tally[2] += 1
        tally[3] += len(self) * (len(other) if isinstance(other, LaurentPoly) else 1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "rational", classmethod(counted_rational))
    monkeypatch.setattr(LaurentPoly, "__truediv__", counted_div)
    # __rmul__ is an alias of __mul__, so 3 * p is counted as well
    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted_mul)
    work()
    monkeypatch.undo()
    return tuple(tally)


@pytest.mark.parametrize(
    "evaluate, pins",
    [
        (triples.hodge_triples_closed, (0, 0, 13, 5245)),
        (triples.hodge_triples_sum, (4, 0, 71, 3973)),
    ],
    ids=["closed", "sum"],
)
def test_sweep_cost_pinned(monkeypatch, evaluate, pins):
    """Every chamber of SPEC, evaluated once: (expansions, divisions, multiplies, term pairs) at most ``pins``.

    The closed route expands no series and divides nothing: each chamber
    is one finite sum, times the Jacobian square.
    """

    def sweep():
        for sigma in triples.chamber_representatives(SPEC):
            evaluate(SPEC, sigma)

    cost = _arithmetic_cost(monkeypatch, sweep)
    assert all(count <= pin for count, pin in zip(cost, pins)), cost


def test_cold_table_cost_pinned(monkeypatch):
    """A cold in-process table of 140 triple records expands no series and divides nothing.

    Each record is one finite binomial sum times the per-genus Jacobian
    square.  Evaluating each record's two series tails afresh took 280
    expansions and 4,560 multiplies (166,627 term pairs); holding them per
    (g, n) took 24 expansions, 928 multiplies (131,064 term pairs) and one
    division by 1 - uv per record.
    """
    argv = ["table", "--target", "triple", "--genus", "2..3", "--d1", "1..10", "--d2=-1..0"]

    def table():
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().count("\n") == 140

    expansions, divisions, multiplies, term_pairs = _arithmetic_cost(monkeypatch, table)
    assert (expansions, divisions) == (0, 0)
    assert multiplies <= 156
    assert term_pairs <= 126132


@pytest.mark.parametrize("fmt, decodes_per_record", [("json-lines", 0), ("csv", 1), ("latex", 1)])
def test_warm_table_decodes_pinned(monkeypatch, tmp_path, fmt, decodes_per_record):
    """A warm table checks its cache lines against a grammar and decodes no JSON to read them.

    JSON lines print each held record text as it is, with no decoder at
    all; csv and latex decode each record once, to format it.  Reading a
    line by a full decode, as an earlier reader did, took three more per
    line: the revision, the key and the record.
    """
    cache = tmp_path / "records.jsonl"
    argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..6", "--d2=-1..0", "--poincare"]
    argv += ["--format", fmt, "--cache", str(cache)]
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    with contextlib.redirect_stdout(io.StringIO()) as cold:
        assert cli.main(argv) == 0
    records = cache.read_text(encoding="utf-8").count("\n")
    assert records == 30
    decodes = [0]
    raw_decode = json.JSONDecoder.raw_decode

    def counted(self, *args, **kwargs):
        decodes[0] += 1
        return raw_decode(self, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("a warm json-lines table decodes no JSON")

    monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted if decodes_per_record else never)
    if not decodes_per_record:
        monkeypatch.setattr(json, "loads", never)
    with contextlib.redirect_stdout(io.StringIO()) as warm, contextlib.redirect_stderr(io.StringIO()) as err:
        assert cli.main(argv) == 0
    monkeypatch.undo()
    assert (warm.getvalue(), err.getvalue()) == (cold.getvalue(), "")
    assert decodes[0] == decodes_per_record * records


def _flip_calls(monkeypatch, queries) -> int:
    """flip_difference calls of hodge_triples_sum over (spec, sigma) ``queries``, from cold caches."""
    _clear_block_caches()
    calls = [0]
    flip = triples.flip_difference

    def counted(spec, d_M):
        calls[0] += 1
        return flip(spec, d_M)

    monkeypatch.setattr(triples, "flip_difference", counted)
    for spec, sigma in queries:
        triples.hodge_triples_sum(spec, sigma)
    monkeypatch.undo()
    return calls[0]


def test_wall_sum_one_flip_per_wall(monkeypatch):
    """The top chamber costs one flip; a full sweep, and its rank-(1,2) dual after it, one per wall."""
    top = triples.chamber_representatives(SPEC)[-1]
    assert _flip_calls(monkeypatch, [(SPEC, top)]) == 1
    descending = [(SPEC, sigma) for sigma in reversed(triples.chamber_representatives(SPEC))]
    dual = SPEC.dual()
    dual_sweep = [(dual, sigma) for sigma in triples.chamber_representatives(dual)]
    walls_above = sum(1 for _, d_M in triples.critical_values(SPEC) if d_M > SPEC.mu1)
    assert walls_above == 4
    assert _flip_calls(monkeypatch, descending + dual_sweep) == walls_above


def test_wall_sum_order_independent():
    """Sums asked for in shuffled chamber order, alternating between two families, equal the closed formula."""
    _clear_block_caches()
    rng = random.Random(7)
    sweeps = []
    for spec in (SPEC, triples.TripleSpec(2, (1, 2), 1, -6)):
        sigmas = triples.chamber_representatives(spec, include_beyond=True)
        rng.shuffle(sigmas)
        sweeps.append([(spec, sigma) for sigma in sigmas])
    assert len(sweeps[0]) == len(sweeps[1]) == 5
    for spec, sigma in itertools.chain.from_iterable(zip(*sweeps)):
        assert triples.hodge_triples_sum(spec, sigma) == triples.hodge_triples_closed(spec, sigma)


def test_division_cost_pinned(monkeypatch):
    """Canonical-order keys computed, and heap walks taken, by the two bundle routes, which divide exactly.

    A division that rescans its remainder for the top term at every step
    computes a key per remainder term per step, over a million here, and
    the heap walk one per divisor term.  The closed forms divide by 1 - uv
    and 1 - (uv)^2, and the via-triples route by 1 - (uv)^(2g-1), as running
    sums, and the via-triples route by (1+u)^g and (1+v)^g on the packed
    route: at genus 6 and 12 no division computes a key or takes the heap
    walk.
    """
    _clear_block_caches()
    calls, walks = [0], [0]
    term_key, heap_quotient = laurent._term_key, laurent._heap_quotient

    def counted(exponent):
        calls[0] += 1
        return term_key(exponent)

    def counted_walk(rem, div):
        walks[0] += 1
        return heap_quotient(rem, div)

    monkeypatch.setattr(laurent, "_term_key", counted)
    monkeypatch.setattr(laurent, "_heap_quotient", counted_walk)
    triples.hodge_bundles_odd(12, 1)
    triples.hodge_bundles_odd(12, 1, fixed_det=True)
    triples.hodge_bundles_via_triples(6, 1)
    for d in (1, 3):
        triples.hodge_bundles_via_triples(12, d)
    monkeypatch.undo()
    assert calls[0] == 0
    assert walks[0] == 0
