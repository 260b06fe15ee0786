"""Command-line front end.

Subcommands:

* ``compute``: one Hodge (or Poincare) polynomial for a single parameter
  choice, as text or JSON;
* ``chambers``: the stability interval, walls and chamber representatives
  of a triple family;
* ``table``: batch sweeps over parameter ranges, one record per
  (parameter, chamber) pair, as JSON lines, CSV or LaTeX rows, with an
  optional record cache;
* ``verify``: the invariant suite of :mod:`hodgetriples.verify`.

Exit codes: 0 on success (and all checks passing), 1 on an internal
inconsistency (an exact division that must succeed failed), 2 on user
errors: unparsable input, wall values without a side tag, empty families.
All stability parameters are exact rationals like ``19/2`` with an optional
``+``/``-`` side suffix; no floating point is accepted or produced.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import io
import itertools
import json
import math
import os
import re
import sys
import zlib
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence

from . import blocks, triples, verify
from .laurent import NotDivisible, _format_terms, _mono, _t_mono

CACHE_ENV = "HODGETRIPLES_CACHE"
SCHEMA_VERSION = 4
# Stamped on every cache line; a line of another revision is recomputed.  Bump
# it with any change that could alter the bytes of a record for some input.
FORMULA_REVISION = 1
# The most values one range option may hold, and the most parameter choices
# (genus times degrees) one table or verify run may sweep; larger requests are
# refused before any list is built.
MAX_RANGE_VALUES = 10_000
# (st_dev, st_ino, st_size, st_mtime_ns) of a cache file as read.
_FileIdentity = tuple[int, int, int, int]


class UserError(Exception):
    """Invalid request; reported on stderr with exit code 2."""


def _parse_rank(text: Optional[str]) -> tuple[int, int]:
    """The rank pair of ``--rank``; (2,1) when the option is not given."""
    if text is None:
        return (2, 1)
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) == 2:
        try:
            rank = (int(parts[0]), int(parts[1]))
        except ValueError:
            rank = None
        if rank in ((2, 1), (1, 2)):
            return rank
    raise UserError(f"rank must be 2,1 or 1,2, got {text!r}")


def _check_choices(command: str, choices: int) -> None:
    if choices > MAX_RANGE_VALUES:
        raise UserError(f"{command} has {choices} parameter choices; at most {MAX_RANGE_VALUES} are allowed")


def _parse_range(text: str) -> list[int]:
    """Integer ranges: "3", "1..8", "1..9:2", of at most MAX_RANGE_VALUES values."""
    step = 1
    if ":" in text:
        text, step_text = text.split(":", 1)
        try:
            step = int(step_text)
        except ValueError as exc:
            raise UserError(f"cannot parse range step {step_text!r}") from exc
        if step <= 0:
            raise UserError(f"range step must be positive, got {step}")
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError as exc:
            raise UserError(f"cannot parse range {text!r}") from exc
        values = range(lo, hi + 1, step)
        if len(values) > MAX_RANGE_VALUES:
            raise UserError(f"range {text!r} has {len(values)} values; at most {MAX_RANGE_VALUES} are allowed")
        return list(values)
    try:
        return [int(text)]
    except ValueError as exc:
        raise UserError(f"cannot parse range {text!r}") from exc


# -- target families ----------------------------------------------------------

_Resolved = tuple[Optional[int], Optional[Hashable]]  # (chamber index d0, key); an empty space has no key


@dataclass(frozen=True)
class _Family:
    """What the cli knows about one family of targets.

    ``params`` maps the option names ``rank`` (triples only) and the degree
    options to parsed values.  A request is the target, the genus, the
    params and, for a family with a stability option, that value, as
    ``StabilityValue.__str__`` spells it, with its chamber index d0.  It is
    identified by the request echo, and by nothing else: ``_request_echo``
    fills the family's ``echo`` template, built from its other fields, with
    those values.  A request resolves to a key, the inputs its result is
    read through, and ``evaluate`` turns a key into that result, so rows of
    one key have one result: ``table`` evaluates each key once per run.
    ``compute`` parses the stability value and ``resolve`` finds its d0 and
    key; ``table`` enumerates each chamber's value and d0 in integers by
    ``chambers`` and takes a row's key from its d0 by ``key``, so it builds
    no ``Fraction`` and no ``StabilityValue`` per row.
    """

    targets: tuple[str, ...]
    ranked: bool  # takes --rank
    degrees: tuple[str, ...]  # integers for compute, ranges for table
    stability: Optional[str]  # the stability option; table enumerates one value per chamber
    chambers: Callable[[int, dict], list[tuple[Optional[str], Optional[int]]]]
    """(stability value as text, chamber index d0) of each chamber of one degree choice; (None, None) for one row
    without a stability value, as an odd-degree bundle has."""
    resolve: Callable[[str, int, dict, Optional[triples.StabilityValue]], _Resolved]
    """(d0, key) of a request with its parsed stability value, as ``triples._triple_key`` gives a triple's."""
    key: Callable[[str, int, dict, Optional[int]], Hashable]
    """The key of a ``chambers`` row from its d0, as ``triples._triple_key_at`` gives a triple's."""
    evaluate: Callable[[Hashable], tuple[int, list[int]]]
    """(dim, square) of a key, the square as ``triples._closed_square`` gives it."""
    echo: str = field(init=False)
    """The ``%`` template ``{"request":{...},`` of ``_request_echo``, the JSON of the request dict without spaces."""

    def __post_init__(self) -> None:
        fields = '"target":"%s","genus":%d' + (',"rank":"%d,%d"' if self.ranked else "")
        fields += "".join(f',"{name}":%d' for name in self.degrees)
        if self.stability:
            fields += f',"{self.stability}":"%s","d0":%s'
        object.__setattr__(self, "echo", f'{{"request":{{{fields}}},')


def _quarter_text(q: int) -> str:
    """q/4 in lowest terms, as ``StabilityValue.__str__`` spells an exact value: p, or p/2, or p/4."""
    r = q % 4
    return str(q // 4) if not r else f"{q // 2}/2" if r == 2 else f"{q}/4"


def _triple_spec(g: int, params: dict) -> triples.TripleSpec:
    """The rank-(2,1) family that the library evaluates a triple degree choice of either rank on: one spec, no dual."""
    return triples.TripleSpec(g, (2, 1), *triples._degrees21(params["rank"], params["d1"], params["d2"]))


def _triple_chambers(g: int, params: dict) -> list[tuple[Optional[str], Optional[int]]]:
    return [(_quarter_text(q), d0) for q, d0 in triples._chamber_quarters(_triple_spec(g, params))]


def _triple_resolve(target: str, g: int, params: dict, sigma: Optional[triples.StabilityValue]) -> _Resolved:
    return triples._triple_key(_triple_spec(g, params), sigma)


def _triple_row_key(target: str, g: int, params: dict, d0: Optional[int]) -> Hashable:
    return triples._triple_key_at(g, *triples._degrees21(params["rank"], params["d1"], params["d2"]), d0)


def _pair_chambers(g: int, params: dict) -> list[tuple[Optional[str], Optional[int]]]:
    return [(_quarter_text(q), d0) for q, d0 in triples._pair_chamber_quarters(params["degree"])]


def _pair_resolve(target: str, g: int, params: dict, tau: Optional[triples.StabilityValue]) -> _Resolved:
    return triples._pair_key(g, params["degree"], tau, target == "pair-fixed")


def _pair_row_key(target: str, g: int, params: dict, d0: Optional[int]) -> Hashable:
    return triples._pair_key_at(g, params["degree"], target == "pair-fixed", d0)


def _bundle_chambers(g: int, params: dict) -> list[tuple[Optional[str], Optional[int]]]:
    return [(None, None)] if params["degree"] % 2 else []  # the closed forms cover odd degree only


def _bundle_resolve(target: str, g: int, params: dict, value: Optional[triples.StabilityValue]) -> _Resolved:
    return None, _bundle_row_key(target, g, params, None)


def _bundle_row_key(target: str, g: int, params: dict, d0: Optional[int]) -> Hashable:
    return triples._bundle_key(g, params["degree"], target == "bundle-fixed")


_FAMILIES = (
    _Family(("triple",), True, ("d1", "d2"), "sigma", _triple_chambers, _triple_resolve, _triple_row_key,
            triples._closed_square),
    _Family(("pair", "pair-fixed"), False, ("degree",), "tau", _pair_chambers, _pair_resolve, _pair_row_key,
            triples._closed_square),
    _Family(("bundle", "bundle-fixed"), False, ("degree",), None, _bundle_chambers, _bundle_resolve,
            _bundle_row_key, triples._bundle_square),
)
_FAMILY_OF = {target: family for family in _FAMILIES for target in family.targets}
TARGETS = tuple(_FAMILY_OF)


def _require(args: argparse.Namespace, family: _Family, ranges: bool) -> None:
    """Refuse a request that lacks an option the target needs or gives one it does not take.

    ``compute`` needs the degrees and the stability value; ``table`` takes
    degree ranges and enumerates the stability values itself.  ``--rank``
    is optional, and only triples take it.
    """
    names = family.degrees if ranges or not family.stability else (*family.degrees, family.stability)
    takes = (*names, "rank") if family.ranked else names
    for name in ("rank", "d1", "d2", "degree", "sigma", "tau"):
        if name not in takes and getattr(args, name, None) is not None:
            raise UserError(f"{args.target} target does not take --{name}")
    if all(getattr(args, name) is not None for name in names):
        return
    flags = [f"--{name}" for name in names]
    listed = f"{', '.join(flags[:-1])} and {flags[-1]}" if len(flags) > 1 else flags[0]
    if ranges:
        listed = f"{listed} ranges" if len(flags) > 1 else f"a {listed} range"
    raise UserError(f"{args.target} target needs {listed}")


class _CanonicalBox:
    """The record text of the keys of [0, d]^2 in canonical order, read off half of a palindromic square, per dim d.

    Canonical order is total degree, then u-exponent.  Every result is the
    Hodge polynomial of a smooth projective variety of dimension d, so
    h^{a,b} = h^{d-a,d-b}: its keys of total degree 2d - t are those of
    total degree t mirrored, in reverse order, and so are their coefficients.
    ``index(d)`` gives, once per run and dim, the offsets a (d + 1) + b in
    the row-major square of [0, d]^2 of the keys of total degree at most d,
    which a record reads, and the ``%`` formats ``{"u":a,"v":b,"c":"%d"}``
    of all (d + 1)^2 keys, which it spells; the key of degree 2d - t is
    read at the offset of its mirror.  Those of total degree below d number
    ``starts[d]``: ``starts[t]`` is the offset of the first key of total
    degree t, the same on every box.  ``degree_templates[t]`` is the format
    ``{"t":t,"c":"%d"}`` of a diagonal entry.  The box holds one string per
    key of [0, D]^2, ``rows[a][b]``, for the largest dim D it has indexed,
    and grows it in place, so the per-dim lists hold only references; the
    offsets share the ints of ``positions`` (ints of their own took another
    1 MiB arena).  A table holds one box while it runs.
    """

    def __init__(self) -> None:
        self.dim = -1
        self.rows: list[list[str]] = []
        self.starts = [0]
        self.degree_templates: list[str] = []
        self.indexes: dict[int, tuple[list[int], list[str]]] = {}
        self.positions: list[int] = []

    def index(self, dim: int) -> tuple[list[int], list[str]]:
        if dim > self.dim:
            term, degree = '{"u":%d,"v":%d,"c":"%%d"}', '{"t":%d,"c":"%%d"}'
            for a, row in enumerate(self.rows):
                row.extend(term % (a, b) for b in range(len(row), dim + 1))
            self.rows.extend([term % (a, b) for b in range(dim + 1)] for a in range(len(self.rows), dim + 1))
            self.starts = list(itertools.accumulate(range(1, dim + 2), initial=0))
            self.degree_templates.extend(degree % t for t in range(len(self.degree_templates), 2 * dim + 1))
            self.positions.extend(range(len(self.positions), (dim + 1) ** 2))
            self.dim = dim
        if dim not in self.indexes:
            keys = [(a, t - a) for t in range(dim + 1) for a in range(t + 1)]
            mirrored = [self.rows[dim - a][dim - b] for a, b in reversed(keys[: self.starts[dim]])]
            offsets = [self.positions[a * (dim + 1) + b] for a, b in keys]
            self.indexes[dim] = offsets, [self.rows[a][b] for a, b in keys] + mirrored
        return self.indexes[dim]


def _entries(templates: Iterable[str], coeffs: list[int]) -> str:
    """The comma-joined ``templates`` of the nonzero c in ``coeffs``, each formatted with its c."""
    return ",".join(itertools.compress(templates, coeffs)) % tuple(filter(None, coeffs))


def _compute_record(target: str, key: Optional[Hashable], box: _CanonicalBox) -> str:
    """Evaluate one key of a target; the body of its record, the compact JSON text after the request echo.

    A record is {"request": ..., "dim": ..., "terms": [{"u", "v", "c"}, ...],
    "poincare": [{"t", "c"}, ...]}, byte for byte what ``_dump_json`` would
    give: no whitespace, keys in that order, coefficients as decimal
    strings, ``null`` for the d0 and dim of an empty space, which has no key.
    Its text is the echo ``_request_echo`` writes, then the body, which
    ``_result_text`` reads off ``box`` in canonical order without sorting.
    The body does not depend on the echo, so the rows of one key share one
    body, and each writer splices ``echo + body`` where it writes.
    """
    dim, square = (None, []) if key is None else _FAMILY_OF[target].evaluate(key)
    return _result_text(dim, square, box)


def _result_text(dim: Optional[int], square: list[int], box: _CanonicalBox) -> str:
    """The text ``"dim":...,"terms":[...],"poincare":[...]}`` that closes the record of a result.

    ``square`` holds the coefficients of [0, dim]^2 row-major, a palindrome
    as the kernel checks it.  Nothing is sorted: read at ``box.index(dim)``,
    it gives the coefficients of the keys of total degree at most dim in
    canonical order (total degree, then u-exponent), and those below dim
    reversed give the rest.  Each list is spelled by one ``%`` format, the
    joined templates of its nonzero entries: the terms from the keys'
    templates, and the ``poincare`` list, the diagonal of every target, from
    the sums of each total degree's run of coefficients up to dim, mirrored,
    zero sums dropped.
    """
    terms = diagonal = ""
    if dim is not None:
        offsets, templates = box.index(dim)
        low, starts = list(map(square.__getitem__, offsets)), box.starts
        terms = _entries(templates, low + low[: starts[dim]][::-1])
        sums = [sum(low[starts[t] : starts[t + 1]]) for t in range(dim + 1)]
        diagonal = _entries(box.degree_templates, sums + sums[:dim][::-1])
    return f'"dim":{_dump_json(dim)},"terms":[{terms}],"poincare":[{diagonal}]}}'


def _request_echo(target: str, g: int, params: dict, stability: Optional[str], d0: Optional[int]) -> str:
    """The text ``{"request":{...},`` that opens the record of one request; the one writer of echoes.

    It is the family's ``echo`` template filled with the target, genus,
    rank, degrees and, for a family with a stability option, its value as
    text and d0, ``null`` for an empty space: the compact JSON of the
    request dict, as none of these values needs an escape.
    """
    family = _FAMILY_OF[target]
    values = (target, g, *params["rank"]) if family.ranked else (target, g)
    values += tuple(map(params.__getitem__, family.degrees))
    if family.stability:
        values += (stability, "null" if d0 is None else d0)
    return family.echo % values


# compact JSON; ``json.dumps`` with separators would build a new encoder per call
_dump_json = json.JSONEncoder(separators=(",", ":")).encode


def _json_record(text: str, poincare: bool) -> str:
    """A record's text, or its body, as JSON output: whole, or cut at its last key, ``poincare``, and closed again."""
    return text if poincare else text[: text.rindex(_POINCARE)] + "}"


def _record_terms(rec: dict) -> list[tuple[tuple[int, int], int]]:
    """The record's u, v terms, which it holds in canonical order already."""
    return [((t["u"], t["v"]), int(t["c"])) for t in rec["terms"]]


def _record_text(rec: dict, poincare: bool) -> str:
    if poincare:
        return _format_terms([(t["t"], int(t["c"])) for t in rec["poincare"]], _t_mono)
    return _format_terms(_record_terms(rec), _mono)


# -- compute ---------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    family = _FAMILY_OF[args.target]
    _require(args, family, ranges=False)
    params: dict = {"rank": _parse_rank(args.rank)} if family.ranked else {}
    params.update((name, getattr(args, name)) for name in family.degrees)
    value = triples.StabilityValue.parse(getattr(args, family.stability)) if family.stability else None
    d0, key = family.resolve(args.target, args.genus, params, value)
    echo = _request_echo(args.target, args.genus, params, None if value is None else str(value), d0)
    text = echo + _compute_record(args.target, key, _CanonicalBox())
    if args.format == "json":
        print(_json_record(text, args.poincare))
    else:
        print(_record_text(json.loads(text), args.poincare))
    return 0


# -- chambers ---------------------------------------------------------------


def _cmd_chambers(args: argparse.Namespace) -> int:
    spec = triples.TripleSpec(args.genus, _parse_rank(args.rank), args.d1, args.d2)
    if spec.is_empty_family:
        raise UserError("moduli empty: mu1 < mu2")
    walls = triples.critical_values(spec)
    print(f"rank ({spec.rank_pair[0]},{spec.rank_pair[1]}) genus {spec.g} d1={spec.d1} d2={spec.d2}")
    print(f"sigma_m = {spec.sigma_m}")
    print(f"sigma_M = {spec.sigma_M}")
    print("walls:")
    for sigma_c, d_m in walls:
        note = ""
        if sigma_c == spec.sigma_m:
            note = "  (= sigma_m)"
        elif sigma_c == spec.sigma_M:
            note = "  (= sigma_M)"
        print(f"  sigma_c = {sigma_c}  d_M = {d_m}{note}")
    print("chambers:")
    bounds = triples.chamber_bounds(spec)
    for lo, hi, sigma in zip(bounds, bounds[1:], triples.chamber_representatives(spec)):
        print(f"  ({lo}, {hi}): representative sigma = {sigma}")
    return 0


# -- table -----------------------------------------------------------------


def _table_rows(args: argparse.Namespace) -> list[tuple[int, dict, Optional[str], Optional[int]]]:
    """(genus, params, stability value as text, chamber index d0) for every (parameter, chamber) pair, in order.

    The rows of one degree choice share its params.
    """
    family = _FAMILY_OF[args.target]
    genera = _parse_range(args.genus)
    _require(args, family, ranges=True)
    fixed = {"rank": _parse_rank(args.rank)} if family.ranked else {}
    ranges = [_parse_range(getattr(args, name)) for name in family.degrees]
    _check_choices("table", math.prod(map(len, ranges), start=len(genera)))
    grid = list(itertools.product(*ranges))
    rows = []
    for g in genera:  # ascending, so a genus below 2 is refused before any row is built, keyed or not
        blocks._require_genus(g)
        for degrees in grid:
            params = {**fixed, **dict(zip(family.degrees, degrees))}
            rows.extend((g, params, stability, d0) for stability, d0 in family.chambers(g, params))
    return rows


# A cache line is ``{"schema_version":4,"crc32":"xxxxxxxx",`` then the stamped
# bytes ``"formula_revision":N,"requests":[{...},...],"record":{...}}``: one line
# per distinct record body, listing the request of every echo that shares it.
# The stamp is the CRC-32 of the stamped bytes, up to and with the line's
# closing ``}``, in 8 lowercase hex digits.
_CACHE_PREFIX = f'{{"schema_version":{SCHEMA_VERSION},"crc32":"'.encode("ascii")
_STAMP_END = len(_CACHE_PREFIX) + 8  # the stamp's digits run from the prefix to here
_STAMPED = _STAMP_END + 2  # the stamped bytes follow the stamp's closing quote and comma
_REVISION = _STAMPED + len(b'"formula_revision":')  # where the revision's digits start
_REQUESTS_OPEN = b',"requests":['  # follows the revision's digits
_RECORD_OPEN = b'],"record":{'  # closes the list of requests and opens the record's body
_ECHO_OPEN = '{"request":'  # a request echo is this, the request and a comma
_POINCARE = ',"poincare":'  # the text opening a record's last key, where ``_json_record`` cuts

# The head grammar of a cache line, up to where its record's body opens: what
# ``_save_cache`` writes before the body of ``_compute_record``.  Integers are
# spelled as ``str`` spells an int: no leading zero, no "-0", no "+".
_NAT = "(?!0[0-9])[0-9]+"  # the lookahead runs faster in ``re`` than the alternation of ``_INT``
_INT = "(?:0|-?[1-9][0-9]*)"
_RATIONAL = f"{_INT}(?:/[1-9][0-9]*)?[+-]?"  # a stability value as ``StabilityValue.__str__`` spells it


def _request_grammar(family: _Family) -> str:
    """The request echo ``_request_echo`` writes for the family's targets, braces excluded; it holds no ``}``."""
    grammar = f'"target":"(?:{"|".join(family.targets)})","genus":{_NAT}'
    if family.ranked:
        grammar += ',"rank":"(?:2,1|1,2)"'
    grammar += "".join(f',"{name}":{_INT}' for name in family.degrees)
    if family.stability:
        grammar += f',"{family.stability}":"{_RATIONAL}","d0":(?:{_INT}|null)'
    return grammar


_REQUEST = "|".join(map(_request_grammar, _FAMILIES))
_OTHER_SCHEMA = re.compile(rb'\{"schema_version":(?!%d,)[0-9]+,' % SCHEMA_VERSION)
# A request holds no ``}`` and no ``]``, so the head ends at the line's first
# ``]`` and the requests are cut apart at ``},{``.  No group captures:
# ``_cache_line`` cuts the fields out at fixed delimiters.
_CACHE_LINE_HEAD = re.compile(
    re.escape(_CACHE_PREFIX)
    + rf'[0-9a-f]{{8}}","formula_revision":{_NAT},"requests":\[\{{(?:{_REQUEST})\}}(?:,\{{(?:{_REQUEST})\}})*'
    rf'\],"record":\{{'.encode("ascii")
)


def _cache_line(line: bytes) -> Optional[tuple[int, list[str], str]]:
    """(formula revision, request echoes, record body) of a line whose stamp verifies, else None.

    A line is read when, checked in this order, it opens with the schema-4
    prefix ``{"schema_version":4,"crc32":"``; its 8 stamp digits are, byte
    for byte, the lowercase hex CRC-32 of its bytes from
    ``"formula_revision"`` to its last byte but a newline; its head, up to
    ``],"record":{`` after its first ``]``, is in ``_CACHE_LINE_HEAD``: the
    stamp, the revision, then ``"requests":`` and a list of one or more
    requests, each of which holds the target, genus, rank (triples only),
    degrees, and the stability value with its chamber index d0 (an integer
    or ``null``); and its last byte but a newline is the ``}`` that closes
    it.  So any line whose bytes differ from the bytes ``_save_cache``
    stamped is refused, a request edited to another line's included, and so
    is any head spelled otherwise: whitespace, an escape, a float, "-0", a
    reordered or extra key, a byte outside ASCII.  The body is not matched
    against a grammar: a good stamp on a bad body comes only from a writer
    bug or a forged stamp.  Nothing is decoded as JSON.

    The fields are slices at fixed delimiters: the revision runs to the
    first comma after its key, the requests from ``"requests":[`` to the
    head's ``]``, cut apart at ``},{`` and each spelled as its echo
    ``{"request":{...},``, and the body from the end of the head to the
    closing ``}``.  The body is decoded once, as one string for every echo
    of the line.
    """
    end = len(line) - line.endswith(b"\n") - 1  # the line's closing brace
    cut = line.find(b"]") + len(_RECORD_OPEN)
    if (
        not line.startswith(_CACHE_PREFIX)
        or line[len(_CACHE_PREFIX) : _STAMP_END] != b"%08x" % zlib.crc32(line[_STAMPED : end + 1])
        or _CACHE_LINE_HEAD.fullmatch(line, 0, cut) is None
        or line[end] != 0x7D
    ):
        return None
    comma = line.index(b",", _REVISION)
    requests = line[comma + len(_REQUESTS_OPEN) + 1 : cut - len(_RECORD_OPEN) - 1].decode("ascii")
    echoes = [f"{_ECHO_OPEN}{{{request}}}," for request in requests.split("},{")]
    return int(line[_REVISION:comma]), echoes, line[cut:end].decode("latin-1")  # ``_save_cache`` encodes it back alike


def _file_identity(status: os.stat_result) -> _FileIdentity:
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _read_cache(path: str) -> tuple[dict[str, str], int, int, int, _FileIdentity]:
    """(body of each record by its request echo, bad lines, lines of another schema, records of another revision,
    the identity of the file read).

    Reads the file at ``path`` line by line with ``_cache_line``, and maps
    every echo of a line to the line's one body string; an ``OSError`` of
    the read is raised.  The identity, (device, inode, size, modification
    time in ns), is taken from the open file before its first line is read.
    """
    cache: dict[str, str] = {}
    dropped = outdated = stale = 0
    # a buffer past the ~10 kB lines of a large table, which an 8 kB default splits
    with open(path, "rb", buffering=1 << 20) as handle:
        identity = _file_identity(os.fstat(handle.fileno()))
        for line in handle:
            read = _cache_line(line)
            if read is None and _OTHER_SCHEMA.match(line):
                outdated += 1
            elif read is None:
                dropped += 1
            elif read[0] != FORMULA_REVISION:
                stale += len(read[1])
            else:
                cache.update(dict.fromkeys(read[1], read[2]))
    return cache, dropped, outdated, stale, identity


def _load_cache(path: str, shown: Optional[str] = None) -> tuple[dict[str, str], bool, Optional[_FileIdentity]]:
    """(body of each record by its request echo, whether the file needs rewriting, the identity of the file read or
    None), with a warning per kind of drop that names the file ``shown``, ``path`` unless given.

    Each line is read on its own by ``_cache_line``, so a bad line
    (truncated, damaged, edited, or any spelling other than the one
    ``_save_cache`` writes) is dropped and counted, the rest kept; every
    record a dropped line lists is recomputed.  Lines of another
    ``schema_version``, as schema 3, and records of another formula
    revision are dropped and counted apart, so their records are
    recomputed.  Records are held as their JSON text, never decoded here,
    so a large table holds a few bytes per term, and the records of one
    line share its body string.
    """
    shown = path if shown is None else shown
    if not path or not os.path.exists(path):
        return {}, False, None
    try:
        cache, dropped, outdated, stale, identity = _read_cache(path)
    except OSError as exc:
        _warn(shown, f"is unreadable: {exc}; recomputing and overwriting")
        return {}, True, None
    if dropped:
        _warn(shown, f"is corrupt: dropped {dropped} bad line(s), kept {len(cache)} record(s); "
              "recomputing the dropped ones and rewriting the file")
    if outdated:
        _warn(shown, f"has {outdated} line(s) of another cache schema; recomputing them and rewriting the file")
    if stale:
        _warn(shown, f"has {stale} record(s) of another formula revision; "
              f"recomputing them with revision {FORMULA_REVISION} and rewriting the file")
    return cache, bool(dropped or outdated or stale), identity


def _warn(path: str, problem: str) -> None:
    print(f"warning: cache file {path} {problem}", file=sys.stderr)


def _save_cache(path: str, cache: dict[str, str], loaded: Optional[_FileIdentity], shown: Optional[str] = None) -> None:
    """Merge the cache into the file at ``path`` under a lock, by a write beside it and a rename over it.

    ``cache`` maps each request echo to the body of its record, and
    ``loaded`` is the identity of the file it was loaded from, or None; a
    failed write is warned of under the name ``shown``, ``path`` unless
    given.  The run holds an exclusive ``flock`` on the sidecar
    ``<path>.lock`` while it re-reads the file, without warnings, merges in
    the records of echoes it does not hold (its own win), writes, syncs and
    renames; so of two runs that save into one file, the later keeps what
    the earlier wrote.  A file whose identity is still ``loaded`` is not
    re-read: its records are in ``cache`` already, and every writer renames
    a new file into place, so another run's save changes the identity.
    The echoes are grouped by the text of their body, so the file's bytes
    depend only on the map from echo to body: each line is
    ``{"schema_version":4,"crc32":"xxxxxxxx",`` then the stamped bytes
    ``"formula_revision":N,"requests":[...],"record":{...}}``, the requests
    of one body's echoes in sorted order, then that body; the lines are in
    the order of their least echo.  The stamp is ``zlib.crc32`` of the
    stamped bytes in 8 lowercase hex digits.  Each line is compact JSON.
    The new file is flushed and synced to disk before the rename, so a
    crash cannot leave the rename pointing at unwritten data, and a failed
    write loses nothing.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(f"{path}.lock", "ab") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the lock file closes
            with contextlib.suppress(OSError):  # a file gone or unreadable is overwritten
                if loaded is None or _file_identity(os.stat(path)) != loaded:
                    cache = {**_read_cache(path)[0], **cache}
            requests: dict[str, list[str]] = {}  # by body, in the order of each body's least echo
            for echo in sorted(cache):
                requests.setdefault(cache[echo], []).append(echo[len(_ECHO_OPEN) : -1])
            with open(tmp, "wb") as handle:
                for body, listed in requests.items():
                    stamped = b'"formula_revision":%d,"requests":[%s],"record":{%s}' % (
                        FORMULA_REVISION, ",".join(listed).encode("latin-1"), body.encode("latin-1"))
                    handle.write(b'%s%08x",%s\n' % (_CACHE_PREFIX, zlib.crc32(stamped), stamped))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        print(f"warning: could not write cache file {path if shown is None else shown}: {exc}", file=sys.stderr)


def _latex_row(rec: dict) -> str:
    req = rec["request"]
    poly = _format_terms(_record_terms(rec), _mono, "{", "}")
    label = [f"g={req['genus']}"]
    if "degree" in req:
        label.append(f"d={req['degree']}")
    else:
        label.append(f"d_1={req['d1']}, d_2={req['d2']}")
    if "sigma" in req:
        label.append(f"\\sigma={req['sigma']}")
    if "tau" in req:
        label.append(f"\\tau={req['tau']}")
    return f"${', '.join(label)}$ & ${poly}$ \\\\"


def _cmd_table(args: argparse.Namespace) -> int:
    """Print one record per table row: the cached body under the row's request echo, else the body of its key.

    A row whose key an earlier row of this run evaluated takes that row's
    body; only a new key is evaluated.  ``computed`` maps each key to the
    body this run computed for it: strings the cache holds anyway, never a
    copy, and never a cached body, so a body read from a line is served
    only for the rows that line lists.  It dies with the run, as the box
    does.  Rows that share a body share one string, in the cache and in
    ``computed``, and each record is spliced from its echo and body only
    where it is written.  The cache path is resolved once, so a run through
    a symbolic link loads, locks and renames over the file it names, and a
    warning names the path as given.
    """
    cache_path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV, "")
    # opening a FIFO would block, and the save would rename over a device or directory
    if cache_path and os.path.exists(cache_path) and not os.path.isfile(cache_path):
        raise UserError(f"cache path {cache_path} exists and is not a regular file")
    real_path = os.path.realpath(cache_path) if cache_path else ""
    cache, stale, loaded = _load_cache(real_path, cache_path)
    family, echoes, box = _FAMILY_OF[args.target], [], _CanonicalBox()
    computed: dict[Hashable, str] = {}
    for g, params, stability, d0 in _table_rows(args):
        echo = _request_echo(args.target, g, params, stability, d0)
        if echo not in cache:
            key = family.key(args.target, g, params, d0)
            if key not in computed:
                computed[key] = _compute_record(args.target, key, box)
            cache[echo] = computed[key]
            stale = True
        echoes.append(echo)
    if cache_path and stale:
        _save_cache(real_path, cache, loaded, cache_path)

    # Records stay text until printed; formats other than JSON lines parse one at a time, never all.
    records = (json.loads(echo + cache[echo]) for echo in echoes)
    if args.format == "json-lines":
        for echo in echoes:  # written in pieces: joining them would copy every body once more
            sys.stdout.writelines((echo, _json_record(cache[echo], args.poincare), "\n"))
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        header = ["target", "genus", "rank", "d1", "d2", "degree", "stability", "d0", "dim", "poly"]
        if args.poincare:
            header.append("poincare")
        writer.writerow(header)
        for rec in records:
            req = rec["request"]
            poly_cell = ";".join(f"{t['u']},{t['v']},{t['c']}" for t in rec["terms"])
            row = [
                req["target"],
                req["genus"],
                req.get("rank", ""),
                req.get("d1", ""),
                req.get("d2", ""),
                req.get("degree", ""),
                req.get("sigma", req.get("tau", "")),
                req.get("d0", ""),
                "" if rec["dim"] is None else rec["dim"],
                poly_cell,
            ]
            if args.poincare:
                row.append(";".join(f"{t['t']},{t['c']}" for t in rec["poincare"]))
            writer.writerow(row)
        sys.stdout.write(buffer.getvalue())
    else:  # latex
        for rec in records:
            print(_latex_row(rec))
    return 0


# -- verify ------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> int:
    checks: Optional[tuple[str, ...]] = None
    if args.checks:
        checks = tuple(name for chunk in args.checks for name in chunk.split(",") if name)
    g_values, d2_values = tuple(_parse_range(args.g)), tuple(_parse_range(args.d2))
    d1_values = tuple(_parse_range(args.d1)) if args.d1 is not None else None
    d1_count = len(d1_values) if d1_values is not None else verify._D1_WINDOW
    _check_choices("verify", len(g_values) * len(d2_values) * d1_count)
    grid = verify.VerifyGrid(g_values, d2_values, d1_values, checks, args.seed)
    reports = verify.run_suite(grid)
    for report in reports:
        print(report.line())
    print(verify.summarize(reports))
    return 0 if all(r.status == "pass" for r in reports) else 1


# -- entry point --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hodgetriples",
        description="Exact Hodge and Poincare polynomials of moduli of rank-2 pairs and rank-(2,1)/(1,2) triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute a single Hodge polynomial")
    compute.add_argument("target", choices=TARGETS)
    compute.add_argument("--genus", type=int, required=True)
    compute.add_argument("--rank", help="rank pair for triples: 2,1 (the default) or 1,2")
    compute.add_argument("--d1", type=int)
    compute.add_argument("--d2", type=int)
    compute.add_argument("--degree", type=int)
    compute.add_argument("--sigma", help='stability parameter, e.g. "19/2", "7+", "7-"')
    compute.add_argument("--tau", help='stability parameter, e.g. "3/4"')
    compute.add_argument("--format", choices=("text", "json"), default="text")
    compute.add_argument("--poincare", action="store_true", help="emit the diagonal (Poincare) specialization")
    compute.set_defaults(func=_cmd_compute)

    chambers = sub.add_parser("chambers", help="list walls and chambers of a triple family")
    chambers.add_argument("--genus", type=int, required=True)
    chambers.add_argument("--rank", help="2,1 (the default) or 1,2")
    chambers.add_argument("--d1", type=int, required=True)
    chambers.add_argument("--d2", type=int, required=True)
    chambers.set_defaults(func=_cmd_chambers)

    table = sub.add_parser("table", help="batch tables over parameter ranges")
    table.add_argument("--target", choices=TARGETS, required=True)
    table.add_argument("--genus", required=True, help='range, e.g. "2" or "2..4"')
    table.add_argument("--rank", help="rank pair for triples: 2,1 (the default) or 1,2")
    table.add_argument("--d1", help='range, e.g. "1..8"')
    table.add_argument("--d2", help='range; write negative ranges as --d2=-2..0')
    table.add_argument("--degree", help='range, e.g. "1..5:2" (bundles skip even degrees)')
    table.add_argument("--format", choices=("json-lines", "csv", "latex"), default="json-lines")
    table.add_argument("--poincare", action="store_true")
    table.add_argument("--cache", help=f"cache file path (default: ${CACHE_ENV} if set)")
    table.set_defaults(func=_cmd_table)

    check = sub.add_parser("verify", help="run the invariant suite")
    check.add_argument("--g", default="2..3", help='genus range, e.g. "2..3"')
    check.add_argument("--d1", help=f"d1 range (default: 2*d2+1 .. 2*d2+{verify._D1_WINDOW} per d2)")
    check.add_argument("--d2", default="-2..0", help="d2 range")
    check.add_argument("--checks", action="append", help="comma-separated check names (default: all)")
    check.add_argument("--seed", type=int, default=0)
    check.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the flush at exit
        return code
    except BrokenPipeError:
        # The reader of stdout stopped early (``| head``).  Stop without a
        # traceback, with the status 128 + 13 that a shell reports for a
        # process killed by SIGPIPE; stdout goes to devnull so the flush at
        # exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (NotDivisible, AssertionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except (UserError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
