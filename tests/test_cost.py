"""Deterministic cost pins: series expansions, divisions, multiplies, term pairs, kernel slots and term-order keys.

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


def _arithmetic_cost(monkeypatch, work) -> tuple[int, int, int, int, int, int]:
    """(series expansions, divisions, multiplies, term pairs, kernel calls, kernel slots) of ``work()``, from cold caches.

    A kernel call is one run of ``laurent._shift_adds``, the one shift-add
    loop, which ``times_binomials`` and the closed formulas' squares both
    reach, and its slots are those of its packed box, height times width.
    For ``times_binomials`` that is the extents of the polynomial plus m + 1
    on each axis; a zero polynomial or m = 0 packs nothing.  A closed square
    of [0, dim]^2 packs its rows 0..H + 1, H = dim // 2, of dim + 1 slots
    each: the rows it returns below the mirror and the row that checks it.
    One with m = 0 (pairs of fixed determinant) is one call that only reads
    digits.
    """
    _clear_block_caches()
    tally = [0, 0, 0, 0, 0, 0]
    rational, div, mul = TruncatedSeries.rational.__func__, LaurentPoly.__truediv__, LaurentPoly.__mul__
    kernel = laurent._shift_adds

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

    def counted_kernel(packed, n, m, height, width, half):
        tally[4] += 1
        tally[5] += height * width
        return kernel(packed, n, m, height, width, half)

    monkeypatch.setattr(TruncatedSeries, "rational", classmethod(counted_rational))
    monkeypatch.setattr(LaurentPoly, "__truediv__", counted_div)
    # __rmul__ is an alias of __mul__, so 3 * p is counted as well
    monkeypatch.setattr(LaurentPoly, "__mul__", counted_mul)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counted_mul)
    monkeypatch.setattr(laurent, "_shift_adds", counted_kernel)
    work()
    monkeypatch.undo()
    return tuple(tally)


@pytest.mark.parametrize(
    "evaluate, pins",
    [
        (triples.hodge_triples_closed, (0, 0, 0, 0, 4, 576)),
        (triples.hodge_triples_sum, (0, 4, 4, 60, 4, 696)),
    ],
    ids=["closed", "sum"],
)
def test_sweep_cost_pinned(monkeypatch, evaluate, pins):
    """Every chamber of SPEC, evaluated once: the counts of ``_arithmetic_cost`` are exactly ``pins``.

    The closed route expands no series, divides and multiplies nothing: each
    chamber is one finite sum and one kernel call for e(Jac X)^2.  Each wall
    term of the sum is e(Sym^b X), a finite sum, times the two-term numerator
    (uv)^b - (uv)^a, one division by 1 - uv as a running sum, and one kernel
    call for e(Jac X)^2, whose box is the run, |a - b| - 1 longer on the
    diagonal than e(Sym^b X).  With e(Jac X)^2 multiplied in by ``*``, the
    closed route took 13 multiplies (5,245 term pairs) and the sum 71 (3,973);
    with e(Sym^b X) a series expansion, one kernel call per e(Jac X) and the
    rank difference multiplied in last, the sum took 4 expansions, 56
    multiplies (1,437 term pairs) and 8 kernel calls (420 slots).  Each
    closed call shift-added the whole 16 x 16 square, 1,024 slots in all,
    before it packed only rows 0..8 of it.
    """

    def sweep():
        for sigma in triples.chamber_representatives(SPEC):
            evaluate(SPEC, sigma)

    assert _arithmetic_cost(monkeypatch, sweep) == pins


@pytest.mark.parametrize("fixed_det", [False, True], ids=["unfixed", "fixed"])
def test_pair_sweep_cost_pinned(monkeypatch, fixed_det):
    """Every pair chamber of g = 2..4, d = 1..9: one kernel call each, into rows 0..dim // 2 + 1 of its square, of
    dim + 1 slots each, and no ``times_binomials`` call.  ``hodge_pairs`` multiplied a wrapped core dict by e(Jac X)
    in ``times_binomials``; shift-adding the whole square took 10,010 slots (5,495 with fixed determinant)."""
    chambers = [(g, d, tau) for g in (2, 3, 4) for d in range(1, 10) for tau in triples.pair_chamber_representatives(d)]
    dims = [(g - 2 + d if fixed_det else 2 * g - 2 + d) for g, d, _ in chambers]
    calls, times_binomials = [0], laurent.times_binomials

    def counted(poly, m):
        calls[0] += 1
        return times_binomials(poly, m)

    def sweep():
        for module in (laurent, triples):
            monkeypatch.setattr(module, "times_binomials", counted)
        for g, d, tau in chambers:
            assert triples.hodge_pairs(g, d, tau, fixed_det=fixed_det).complex_dim is not None

    cost = _arithmetic_cost(monkeypatch, sweep)
    assert len(chambers) == 75 and calls[0] == 0
    assert cost == (0, 0, 0, 0, 75, sum((dim // 2 + 2) * (dim + 1) for dim in dims))
    assert cost[-1] == (6010 if not fixed_det else 3505)


@pytest.mark.parametrize("fixed_det, slots", [(False, 48 * 94), (True, 36 * 70)], ids=["full", "fixed"])
def test_bundles_odd_cost_pinned(monkeypatch, fixed_det, slots):
    """``hodge_bundles_odd(24, d)``: one ``_diagonal_square`` call into rows 0..dim // 2 + 1 of its square, of
    dim + 1 slots each (dim = 93 full, 69 fixed), and no ``times_binomials``, ``**``, ``*``, ``/`` or running-sum
    quotient: each diagonal is divided as a list.  The dict route took 3 powers, 15 multiplies (1,189 term pairs),
    2 divisions by running sums and ``times_binomials`` once per e(Jac X) factor, 9,461 kernel slots in the full
    form, whose whole box alone was 8,836."""
    calls = dict.fromkeys(["_diagonal_square", "times_binomials", "__pow__", "_running_sum_quotient"], 0)

    def counted(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    def work():
        for owner, name in [(triples, "_diagonal_square"), (laurent, "times_binomials"), (triples, "times_binomials"),
                            (LaurentPoly, "__pow__"), (laurent, "_running_sum_quotient")]:  # fmt: skip
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        assert triples.hodge_bundles_odd(24, 1, fixed_det=fixed_det).complex_dim == (69 if fixed_det else 93)

    assert _arithmetic_cost(monkeypatch, work) == (0, 0, 0, 0, 1, slots)
    assert calls == {"_diagonal_square": 1, "times_binomials": 0, "__pow__": 0, "_running_sum_quotient": 0}


def _offsets(monkeypatch, work) -> tuple[int, int]:
    """(offsets built, their slots in all) by ``work()``, from cold caches: the calls of ``laurent._offset``."""
    _clear_block_caches()
    built, offset = [], laurent._offset

    def counted(n, slots):
        built.append(slots)
        return offset(n, slots)

    monkeypatch.setattr(laurent, "_offset", counted)
    work()
    monkeypatch.undo()
    return len(built), sum(built)


def test_offsets_pinned(monkeypatch):
    """Each packed box builds its offset once, which signs its packed integer, reads its digits, or both.

    Over the 21 chamber representatives of g = 6, d1 = 40, d2 = 0 (one past sigma_M, an empty space), each of the
    20 wall terms is one ``times_binomials`` box but that of d_M = 25, which is 0 (its two ranks are both 15), and
    each of the 20 closed chambers is one ``_diagonal_square`` box.
    The closed forms of ``hodge_bundles_odd(24, 1)`` are one box, and so is ``hodge_bundles_via_triples(12, 1)``:
    its small chamber's closed square, which it divides as lists.  The wall sum built 38 offsets over 68,822 slots
    while ``times_binomials`` built its offset for packing and again for reading, and the via route 7 while it took
    two packed divisions, each of a numerator, a divisor and a quotient box.
    """
    spec = triples.TripleSpec(6, (2, 1), 40, 0)
    reps = triples.chamber_representatives(spec, include_beyond=True)
    assert len(reps) == 21
    assert _offsets(monkeypatch, lambda: [triples.hodge_triples_sum(spec, sigma) for sigma in reps]) == (19, 34411)
    assert _offsets(monkeypatch, lambda: [triples.hodge_triples_closed(spec, sigma) for sigma in reps]) == (20, 34200)
    assert _offsets(monkeypatch, lambda: triples.hodge_bundles_odd(24, 1))[0] == 1
    assert _offsets(monkeypatch, lambda: triples.hodge_bundles_via_triples(12, 1))[0] == 1


def test_packed_product_offsets_pinned(monkeypatch):
    """A packed product builds one offset, its product box's, and signs both operands by its low parts."""
    calls = {"_packed_product": 0, "_offset": 0}

    def counted(name):
        real = getattr(laurent, name)

        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    p = LaurentPoly({(a, b): (a + 1) * (b - 2) for a in range(5) for b in range(7)})
    q = LaurentPoly({(a, b): 3 * a - b - 1 for a in range(6) for b in range(4)})
    expected = LaurentPoly(laurent._dict_product(p._terms, q._terms))
    for name in calls:
        monkeypatch.setattr(laurent, name, counted(name))
    assert p * q == expected and q * p == expected
    assert calls == {"_packed_product": 2, "_offset": 2}


def test_via_route_calls_pinned(monkeypatch):
    """``hodge_bundles_via_triples`` evaluates its small chamber's key by one ``_closed_square`` and divides the
    square as lists: no ``LaurentPoly`` product, power or division, and no running-sum quotient.  Its
    ``LaurentPoly`` route took 19 products, 3 powers and 3 divisions per call."""
    names = ["_closed_square", "__mul__", "__pow__", "__truediv__", "_running_sum_quotient"]
    calls = dict.fromkeys(names, 0)

    def counted(name, real):
        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    _clear_block_caches()
    for owner, name in zip([triples, LaurentPoly, LaurentPoly, LaurentPoly, laurent], names):
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for d in (1, 3):
        assert triples.hodge_bundles_via_triples(12, d) == triples.hodge_bundles_odd(12, d).poly
    assert calls == {**dict.fromkeys(names, 0), "_closed_square": 2}


def test_wide_slots_read_in_c(monkeypatch):
    """Kernel slots of 9 to 16 bytes are read by their ``struct.Struct``, none by ``_slice_digits``, the per-slot read:
    the 12-byte slots of ``hodge_bundles_odd(24, 1)``'s full form and the 10-byte slots of
    ``hodge_bundles_via_triples(12, 1)``'s closed square."""
    widths, sliced, digits, slice_digits = [], [], laurent._balanced_digits, laurent._slice_digits

    def counted(value, n, slots, half):
        widths.append(n)
        return digits(value, n, slots, half)

    def counted_slices(raw, n):
        sliced.append(n)
        return slice_digits(raw, n)

    _clear_block_caches()
    monkeypatch.setattr(laurent, "_balanced_digits", counted)
    monkeypatch.setattr(laurent, "_slice_digits", counted_slices)
    assert triples.hodge_bundles_odd(24, 1).complex_dim == 93
    assert triples.hodge_bundles_via_triples(12, 1) == triples.hodge_bundles_odd(12, 1).poly
    assert {12, 10} <= set(widths)
    assert [n for n in sliced if 9 <= n <= 16] == []


def test_wall_sum_packs_nothing(monkeypatch):
    """Each wall term multiplies only by its two-term numerator, on the dict loop: the wall sum packs no product."""
    _clear_block_caches()
    packed = [0]
    product = laurent._packed_product

    def counted(p, q):
        packed[0] += 1
        return product(p, q)

    monkeypatch.setattr(laurent, "_packed_product", counted)
    spec = triples.TripleSpec(6, (2, 1), 40, 0)
    for sigma in triples.chamber_representatives(spec):
        triples.hodge_triples_sum(spec, sigma)
    monkeypatch.undo()
    assert packed[0] == 0


def test_cold_table_cost_pinned(monkeypatch):
    """A cold in-process table of 140 triple records expands no series, divides and multiplies nothing, and sorts nothing.

    Each of its 84 distinct cores is one finite binomial sum and one kernel
    call for its factor e(Jac X)^2; the 56 rows twisted from an earlier one
    by a line bundle take that row's record text.  Multiplying by a
    per-genus Jacobian square took 156 multiplies (126,132 term pairs).
    Evaluating each record's two series tails afresh took 280 expansions
    and 4,560 multiplies (166,627 term pairs); holding them per (g, n) took
    24 expansions, 928 multiplies (131,064 term pairs) and one division by
    1 - uv per record.  The record
    text is read off one canonical box per table, so no record sorts its
    terms by ``LaurentPoly.terms`` or sums its diagonal by
    ``LaurentPoly.diagonal`` (one call of each per record before).  The box
    holds one template string per key of [0, D]^2 for the largest dim D of
    the table, and per dim d the offsets of the (d + 1)(d + 2)/2 keys of
    total degree at most d, which a record reads, half the square and its
    middle diagonal (1,505 offsets for its 15 dims, against 2,815 keys).
    """
    argv = ["table", "--target", "triple", "--genus", "2..3", "--d1", "1..10", "--d2=-1..0"]
    boxes, calls, dims = [], {"terms": 0, "diagonal": 0}, []

    class Box(cli._CanonicalBox):
        def __init__(self):
            super().__init__()
            boxes.append(self)

    def counted(name):
        method = getattr(LaurentPoly, name)

        def count(self):
            calls[name] += 1
            return method(self)

        return count

    def table():
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        monkeypatch.setattr(cli, "_CanonicalBox", Box)
        for name in calls:
            monkeypatch.setattr(LaurentPoly, name, counted(name))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        dims.extend(json.loads(line)["dim"] for line in out.getvalue().splitlines())

    expansions, divisions, multiplies, term_pairs, kernels, slots = _arithmetic_cost(monkeypatch, table)
    assert (expansions, divisions, multiplies, term_pairs) == (0, 0, 0, 0)
    # one call per distinct core, on rows up to one past the middle; one per row took 140 calls, 29,950 slots, and one
    # per core on the whole square 19,026 slots
    assert (kernels, slots) == (84, 11053)
    assert len(dims) == 140
    assert calls == {"terms": 0, "diagonal": 0}
    assert len(boxes) == 1
    assert boxes[0].dim == max(dims) == 19
    assert len(boxes[0].rows) == 20 and {len(row) for row in boxes[0].rows} == {20}
    assert sorted(boxes[0].indexes) == list(range(5, 20))
    assert sum(len(offsets) for offsets, _ in boxes[0].indexes.values()) == 1505


@pytest.mark.parametrize("rank, d1, d2", [("2,1", "1..20", "-2..0"), ("1,2", "0..2", "-20..-1")], ids=["21", "12"])
def test_table_sweep_slots_pinned(monkeypatch, rank, d1, d2):
    """A cold pass of the benchmark's table sweep (g = 2..4, 1,170 records in either rank) makes 468 kernel calls,
    one per distinct closed core, and shift-adds 160,290 slots: each core's rows 0..dim // 2 + 1.  The whole squares
    took 292,266 slots."""
    argv = ["table", "--target", "triple", "--rank", rank, "--genus", "2..4", "--d1", d1, f"--d2={d2}", "--poincare"]

    def table():
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert out.getvalue().count("\n") == 1170

    assert _arithmetic_cost(monkeypatch, table) == (0, 0, 0, 0, 468, 160290)


@pytest.mark.parametrize("rank, d1, d2", [("2,1", "1..20", "-2..0"), ("1,2", "0..2", "-20..-1")], ids=["21", "12"])
def test_cold_table_builds_one_spec_per_degree_choice(monkeypatch, rank, d1, d2):
    """A cold table builds one ``TripleSpec`` per degree choice, the rank-(2,1) family its chambers are enumerated on,
    and none per row: a row's key comes from its integers.  Keying each row through a spec built 1,170 specs per
    pass in rank (2,1), and 2,340 in rank (1,2), whose rows built their dual as well."""
    argv = ["table", "--target", "triple", "--rank", rank, "--genus", "2..4", "--d1", d1, f"--d2={d2}"]
    built, init = [], triples.TripleSpec.__post_init__

    def counted(self):
        built.append(self.rank_pair)
        init(self)

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    monkeypatch.setattr(triples.TripleSpec, "__post_init__", counted)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert out.getvalue().count("\n") == 1170
    assert built == [(2, 1)] * 3 * 60  # g = 2..4, 60 degree choices each


def test_cold_table_reads_records_off_the_kernel(monkeypatch):
    """A cold table over SPEC's family makes one kernel call per nonempty triple row and constructs no ``LaurentPoly``.

    Each record reads the kernel's row-major square at the canonical box's
    index.  Before, each row read the digits into a dict of its terms, wrapped
    it in a ``LaurentPoly`` that ``HodgeResult`` checked term by term, and
    gathered it back at the box's keys.  Every ``LaurentPoly`` is made by
    ``LaurentPoly(...)`` or by ``laurent._wrap``, which ``blocks`` and
    ``triples`` bind by name.
    """
    argv = ["table", "--target", "triple", "--genus", str(SPEC.g), "--d1", str(SPEC.d1), "--d2", str(SPEC.d2)]
    made, lines = [0], []
    init, wrap = LaurentPoly.__init__, laurent._wrap

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    def counted_wrap(terms):
        made[0] += 1
        return wrap(terms)

    def table():
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        monkeypatch.setattr(LaurentPoly, "__init__", counted_init)
        for module in (laurent, blocks, triples):
            monkeypatch.setattr(module, "_wrap", counted_wrap)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        lines.extend(out.getvalue().splitlines())

    cost = _arithmetic_cost(monkeypatch, table)
    assert len(lines) == len(triples.chamber_representatives(SPEC)) == 4
    assert all(json.loads(line)["dim"] == SPEC.complex_dim for line in lines)
    assert cost == (0, 0, 0, 0, 4, 576)  # as the closed sweep of SPEC, one call per row
    assert made[0] == 0


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
    written = cache.read_text(encoding="utf-8")
    records = written.count('"target":')  # a line lists the request of every record that shares its body
    assert (written.count("\n"), records) == (18, 30)
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


@pytest.mark.parametrize("options", [
    ("--target", "triple", "--genus", "2..3", "--d1=-3..8", "--d2=-2..0"),
    ("--target", "triple", "--rank", "1,2", "--genus", "2..3", "--d1=-3..8", "--d2=-2..0"),
    ("--target", "pair", "--genus", "2..3", "--degree=-2..12"),
    ("--target", "pair-fixed", "--genus", "2..3", "--degree=-2..12"),
], ids=["triple", "triple12", "pair", "pair-fixed"])  # fmt: skip
def test_table_rows_build_no_stability_value(monkeypatch, tmp_path, options):
    """A cold and a warm table enumerate their rows in integers and write each echo from a ``%`` template.

    Neither run calls ``chamber_representatives``, ``chamber_d0`` or
    ``pair_chamber``, or builds a ``StabilityValue``; the warm run calls no
    JSON encoder (``cli._dump_json``) at all.  Each row took one
    ``StabilityValue``, exact ``Fraction`` chamber arithmetic and one
    ``JSONEncoder.encode`` of its request dict before.
    """
    argv = ["table", *options, "--poincare", "--cache", str(tmp_path / "records.jsonl")]
    calls = dict.fromkeys(["chamber_representatives", "chamber_d0", "pair_chamber", "__init__", "_dump_json"], 0)

    def counted(owner, name):
        real = getattr(owner, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)

    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    for name in ("chamber_representatives", "chamber_d0", "pair_chamber"):
        counted(triples, name)
    counted(triples.StabilityValue, "__init__")
    counted(cli, "_dump_json")
    runs = []
    for _ in ("cold", "warm"):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        runs.append((out.getvalue(), dict(calls)))
        calls.update(dict.fromkeys(calls, 0))
    (cold, cold_calls), (warm, warm_calls) = runs
    assert cold == warm and cold.count("\n") > 50
    assert cold_calls == {**dict.fromkeys(calls, 0), "_dump_json": cold_calls["_dump_json"]}
    assert warm_calls == dict.fromkeys(calls, 0)


def test_flip_series_runs_no_kernel(monkeypatch):
    """``flip_difference_series`` multiplies e(Jac X)^2 in by the generic ``*``, never by the shift-add kernel that
    ``flip_difference`` and the closed formula reach, so the two sides of flip-two-path share no product kernel."""
    _clear_block_caches()
    calls, kernel = [0], laurent._shift_adds

    def counted(*args):
        calls[0] += 1
        return kernel(*args)

    monkeypatch.setattr(laurent, "_shift_adds", counted)
    walls = [d_M for _, d_M in triples.critical_values(SPEC) if d_M > SPEC.mu1]
    series = [triples.flip_difference_series(SPEC, d_M) for d_M in walls]
    assert len(walls) == 4 and calls[0] == 0
    assert series == [triples.flip_difference(SPEC, d_M) for d_M in walls] and calls[0] == 4


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
    """Canonical-order keys computed, and heap walks taken, by the two bundle routes and the package's divisions.

    A division that rescans its remainder for the top term at every step
    computes a key per remainder term per step, over a million here, and
    the heap walk one per divisor term.  The closed forms divide each
    diagonal as a list, and the via-triples route its small chamber's
    square as a list of rows, neither with a ``LaurentPoly`` division: at
    genus 6 and 12 no division computes a key or takes the heap walk.

    Every ``LaurentPoly`` division the package makes is by a binomial
    1 - u^p v^q: the 1 - uv of the wall sum (one per flip, over every
    chamber of g=6 d1=40) and of ``flip_difference_series`` (one per wall of
    that family), and Thaddeus's 1 - t^2 (one per chamber, g 2..4, d 1..9).
    Each division of a nonzero numerator takes one running sum, which
    divides it, and none the heap walk; the one wall whose two ranks agree
    divides 0, which returns before any route.
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

    _clear_block_caches()
    divisions, sums = [0], []
    truediv, running_sum = LaurentPoly.__truediv__, laurent._running_sum_quotient

    def counted_division(self, other):
        divisions[0] += bool(self)  # a zero numerator returns before any route
        return truediv(self, other)

    def recorded_sum(terms, step, shift):
        sums.append(running_sum(terms, step, shift))
        return sums[-1]

    monkeypatch.setattr(laurent, "_heap_quotient", counted_walk)
    monkeypatch.setattr(LaurentPoly, "__truediv__", counted_division)
    monkeypatch.setattr(laurent, "_running_sum_quotient", recorded_sum)
    spec = triples.TripleSpec(6, (2, 1), 40, 0)
    for sigma in triples.chamber_representatives(spec):
        triples.hodge_triples_sum(spec, sigma)
    per_set = [divisions[0]]
    for _, d_M in triples.critical_values(spec):
        if d_M > spec.mu1:
            triples.flip_difference_series(spec, d_M)
    per_set.append(divisions[0] - sum(per_set))
    for g in range(2, 5):
        for d in range(1, 10):
            for tau in triples.pair_chamber_representatives(d):
                triples.poincare_pairs_fixed_det_thaddeus(g, d, tau)
    per_set.append(divisions[0] - sum(per_set))
    monkeypatch.undo()
    assert per_set == [19, 19, 75]
    assert walks[0] == 0
    assert len(sums) == divisions[0] and None not in sums
