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
import io
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import triples, verify
from .laurent import NotDivisible, UniPoly, _format_terms, _mono, _t_mono

CACHE_ENV = "HODGETRIPLES_CACHE"
SCHEMA_VERSION = 1
# Stamped on every cache line; a line of another revision is recomputed.  Bump
# it with any change that could alter the bytes of a record for some input.
FORMULA_REVISION = 1
# The most values one range option may hold, and the most parameter choices
# (genus times degrees) one table or verify run may sweep; larger requests are
# refused before any list is built.
MAX_RANGE_VALUES = 10_000


class UserError(Exception):
    """Invalid request; reported on stderr with exit code 2."""


def _parse_rank(text: str) -> tuple[int, int]:
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

_Evaluation = tuple[triples.HodgeResult, Optional[int], Optional[UniPoly]]


@dataclass(frozen=True)
class _Family:
    """What the cli knows about one family of targets.

    ``params`` maps option names (``rank``, the degree options and the
    stability option) to parsed values.
    """

    targets: tuple[str, ...]
    ranked: bool  # takes --rank
    degrees: tuple[str, ...]  # integers for compute, ranges for table
    stability: Optional[str]  # the stability option; table enumerates one value per chamber
    chambers: Callable[[str, int, dict], Iterator[tuple[str, dict]]]
    """(cache key, params with the stability value) for each chamber of one degree choice."""
    evaluate: Callable[[str, int, dict], _Evaluation]
    """(result, chamber index d0, Poincare polynomial or None for the diagonal) of one request."""


def _triple_chambers(target: str, g: int, params: dict) -> Iterator[tuple[str, dict]]:
    spec = triples.TripleSpec(g, params["rank"], params["d1"], params["d2"])
    for sigma in triples.chamber_representatives(spec):
        d0 = triples.chamber_d0(spec, sigma)
        key = f"{target}:{spec.rank_pair[0]}{spec.rank_pair[1]}:g={g}:d1={spec.d1}:d2={spec.d2}:d0={d0}"
        yield key, {**params, "sigma": sigma}


def _triple_evaluate(target: str, g: int, params: dict) -> _Evaluation:
    spec, sigma = triples.TripleSpec(g, params["rank"], params["d1"], params["d2"]), params["sigma"]
    result = triples.hodge_triples_closed(spec, sigma)
    d0 = None if result.is_empty else triples.chamber_d0(spec, sigma)
    return result, d0, None


def _pair_chambers(target: str, g: int, params: dict) -> Iterator[tuple[str, dict]]:
    d = params["degree"]
    for tau in triples.pair_chamber_representatives(d):
        yield f"{target}:g={g}:d={d}:d0={triples.pair_chamber(d, tau) + 1}", {**params, "tau": tau}


def _pair_evaluate(target: str, g: int, params: dict) -> _Evaluation:
    d, tau, fixed = params["degree"], params["tau"], target == "pair-fixed"
    result = triples.hodge_pairs(g, d, tau, fixed_det=fixed)
    fl = triples.pair_chamber(d, tau)
    d0 = None if fl is None else fl + 1
    poincare = triples.poincare_pairs_fixed_det_thaddeus(g, d, tau) if fixed else None
    return result, d0, poincare


def _bundle_chambers(target: str, g: int, params: dict) -> Iterator[tuple[str, dict]]:
    if params["degree"] % 2:  # the closed forms cover odd degree only
        yield f"{target}:g={g}:d={params['degree']}", params


def _bundle_evaluate(target: str, g: int, params: dict) -> _Evaluation:
    return triples.hodge_bundles_odd(g, params["degree"], fixed_det=target == "bundle-fixed"), None, None


_FAMILIES = (
    _Family(("triple",), True, ("d1", "d2"), "sigma", _triple_chambers, _triple_evaluate),
    _Family(("pair", "pair-fixed"), False, ("degree",), "tau", _pair_chambers, _pair_evaluate),
    _Family(("bundle", "bundle-fixed"), False, ("degree",), None, _bundle_chambers, _bundle_evaluate),
)
_FAMILY_OF = {target: family for family in _FAMILIES for target in family.targets}
TARGETS = tuple(_FAMILY_OF)


def _require(args: argparse.Namespace, names: Sequence[str], ranges: bool) -> None:
    """Refuse a request that lacks one of the options ``names``."""
    if all(getattr(args, name) is not None for name in names):
        return
    flags = [f"--{name}" for name in names]
    listed = f"{', '.join(flags[:-1])} and {flags[-1]}" if len(flags) > 1 else flags[0]
    if ranges:
        listed = f"{listed} ranges" if len(flags) > 1 else f"a {listed} range"
    raise UserError(f"{args.target} target needs {listed}")


def _compute_record(target: str, g: int, params: dict) -> str:
    """Evaluate one target; its record, with the request echo, as compact JSON text.

    The text is built directly from the result's terms in canonical order
    and from its diagonal, never through a dict.  It must stay byte for byte
    what ``_dump_json`` gives for the record
    {"request": ..., "dim": ..., "terms": [{"u", "v", "c"}, ...],
    "poincare": [{"t", "c"}, ...]}: no whitespace, keys in that order,
    coefficients as decimal strings, ``null`` for the d0 and dim of an empty
    space.  Only the request echo and dim go through ``_dump_json``.
    """
    family = _FAMILY_OF[target]
    result, d0, poincare = family.evaluate(target, g, params)
    request = {"target": target, "genus": g}
    if family.ranked:
        request["rank"] = f"{params['rank'][0]},{params['rank'][1]}"
    request.update((name, params[name]) for name in family.degrees)
    if family.stability:
        request[family.stability] = str(params[family.stability])
        request["d0"] = d0
    diagonal = result.poly.diagonal() if poincare is None else poincare
    terms = ",".join(f'{{"u":{a},"v":{b},"c":"{c}"}}' for (a, b), c in result.poly.terms())
    diagonal_terms = ",".join(f'{{"t":{k},"c":"{c}"}}' for k, c in diagonal.terms())
    return (
        f'{{"request":{_dump_json(request)},"dim":{_dump_json(result.complex_dim)},'
        f'"terms":[{terms}],"poincare":[{diagonal_terms}]}}'
    )


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _json_record(text: str, poincare: bool) -> str:
    """A held record text as JSON output: whole, or cut at its last key, ``poincare``, and closed again."""
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
    _require(args, family.degrees + ((family.stability,) if family.stability else ()), ranges=False)
    params: dict = {"rank": _parse_rank(args.rank)} if family.ranked else {}
    params.update((name, getattr(args, name)) for name in family.degrees)
    if family.stability:
        params[family.stability] = triples.StabilityValue.parse(getattr(args, family.stability))
    text = _compute_record(args.target, args.genus, params)
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
    for lo, hi in zip(bounds, bounds[1:]):
        print(f"  ({lo}, {hi}): representative sigma = {(lo + hi) / 2}")
    return 0


# -- table -----------------------------------------------------------------


def _table_rows(args: argparse.Namespace) -> list[tuple[str, int, dict]]:
    """(cache key, genus, params) for every (parameter, chamber) pair, in canonical order."""
    family = _FAMILY_OF[args.target]
    genera = _parse_range(args.genus)
    _require(args, family.degrees, ranges=True)
    fixed = {"rank": _parse_rank(args.rank)} if family.ranked else {}
    ranges = [_parse_range(getattr(args, name)) for name in family.degrees]
    _check_choices("table", math.prod(map(len, ranges), start=len(genera)))
    grid = list(itertools.product(*ranges))
    rows = []
    for g in genera:
        for degrees in grid:
            params = {**fixed, **dict(zip(family.degrees, degrees))}
            rows.extend((key, g, chamber) for key, chamber in family.chambers(args.target, g, params))
    return rows


def _not_an_integer(text: str):
    raise ValueError(f"{text} is not an integer")


_CACHE_HEAD = f'{{"schema_version":{SCHEMA_VERSION},"formula_revision":'
# Every number in a cache line is an integer; one spelled as a float, NaN or Infinity fails to decode.
_DECODER = json.JSONDecoder(parse_float=_not_an_integer, parse_constant=_not_an_integer)
# JSON whitespace and the escape character: a line holding one is spelled
# otherwise than ``_save_cache`` writes it.
_RESPELLED = " \t\n\r\\"
# A record's keys in the order ``_compute_record`` writes them, and the text opening the last.
_RECORD_KEYS = ["request", "dim", "terms", "poincare"]
_POINCARE = ',"poincare":'


def _cache_line(line: bytes) -> Optional[tuple[int, str, str]]:
    """(formula revision, key, record text) of a line spelled as ``_save_cache`` writes it, else None.

    The line must be ASCII with no whitespace or backslash, open with
    ``_CACHE_HEAD`` and hold the revision, ``"key"`` and ``"record"`` in that
    order, the record closing the line.  The record's keys must be the
    ``_RECORD_KEYS`` in order, with no other ``,"poincare":`` to cut at.  Its
    text is the slice of the line it was parsed from.
    """
    try:
        text = line.decode("ascii").removesuffix("\n")
        if any(c in text for c in _RESPELLED):
            return None
        values, end = [], 0
        for head in (_CACHE_HEAD, ',"key":', ',"record":'):
            if not text.startswith(head, end):
                return None
            start = end + len(head)
            value, end = _DECODER.raw_decode(text, start)
            values.append(value)
    except ValueError:
        return None
    revision, key, record = values
    body = text[start:end]
    if type(revision) is int and isinstance(key, str) and isinstance(record, dict) and text[end:] == "}":
        if list(record) == _RECORD_KEYS and body.count(_POINCARE) == 1:
            return revision, key, body
    return None


def _load_cache(path: str) -> tuple[dict[str, str], bool]:
    """(JSON text of each record by key, whether the file needs rewriting).

    Each line is read on its own by ``_cache_line``, so a bad line (truncated,
    not ASCII, not JSON, another schema or record shape, or spelled otherwise
    than ``_save_cache`` writes it, as a line without a revision stamp is) is
    dropped and counted, the rest kept.  A line of another formula revision is
    dropped too, so its record is recomputed by the current code.  Records are
    held as their JSON text, not as parsed dicts, so a large table holds a few
    bytes per term.
    """
    cache: dict[str, str] = {}
    if not path or not os.path.exists(path):
        return cache, False
    dropped = stale = 0
    try:
        with open(path, "rb") as handle:
            for line in handle:
                read = _cache_line(line)
                if read is None:
                    dropped += 1
                elif read[0] != FORMULA_REVISION:
                    stale += 1
                else:
                    cache[read[1]] = read[2]
    except OSError as exc:
        print(f"warning: cache file {path} is unreadable: {exc}; recomputing and overwriting", file=sys.stderr)
        return {}, True
    if dropped:
        print(
            f"warning: cache file {path} is corrupt: dropped {dropped} bad line(s), kept {len(cache)} record(s); "
            "recomputing the dropped ones and rewriting the file",
            file=sys.stderr,
        )
    if stale:
        print(
            f"warning: cache file {path} has {stale} record(s) of another formula revision; "
            f"recomputing them with revision {FORMULA_REVISION} and rewriting the file",
            file=sys.stderr,
        )
    return cache, bool(dropped or stale)


def _save_cache(path: str, cache: dict[str, str]) -> None:
    """Write the cache beside ``path`` and rename it over the old file, so a failed write loses nothing.

    Each line is the compact JSON of {schema_version, formula_revision, key,
    record}, spliced from the record's JSON text.  The new file is flushed
    and synced to disk before the rename, so a crash cannot leave the rename
    pointing at unwritten data.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(cache):
                handle.write(f'{_CACHE_HEAD}{FORMULA_REVISION},"key":{_dump_json(key)},"record":{cache[key]}}}\n')
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        print(f"warning: could not write cache file {path}: {exc}", file=sys.stderr)


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
    cache_path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV, "")
    cache, stale = _load_cache(cache_path)
    texts: list[str] = []
    for key, g, params in _table_rows(args):
        if key not in cache:
            cache[key] = _compute_record(args.target, g, params)
            stale = True
        texts.append(cache[key])
    if cache_path and stale:
        _save_cache(cache_path, cache)

    # Records stay text until printed; formats other than JSON lines parse one at a time, never all.
    records = map(json.loads, texts)
    if args.format == "json-lines":
        for text in texts:
            print(_json_record(text, args.poincare))
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
    d1_count = len(d1_values) if d1_values is not None else 8  # VerifyGrid's default: eight d1 values per d2
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
    compute.add_argument("--rank", default="2,1", help="rank pair for triples: 2,1 or 1,2")
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
    chambers.add_argument("--rank", default="2,1")
    chambers.add_argument("--d1", type=int, required=True)
    chambers.add_argument("--d2", type=int, required=True)
    chambers.set_defaults(func=_cmd_chambers)

    table = sub.add_parser("table", help="batch tables over parameter ranges")
    table.add_argument("--target", choices=TARGETS, required=True)
    table.add_argument("--genus", required=True, help='range, e.g. "2" or "2..4"')
    table.add_argument("--rank", default="2,1")
    table.add_argument("--d1", help='range, e.g. "1..8"')
    table.add_argument("--d2", help='range; write negative ranges as --d2=-2..0')
    table.add_argument("--degree", help='range, e.g. "1..5:2" (bundles skip even degrees)')
    table.add_argument("--format", choices=("json-lines", "csv", "latex"), default="json-lines")
    table.add_argument("--poincare", action="store_true")
    table.add_argument("--cache", help=f"cache file path (default: ${CACHE_ENV} if set)")
    table.set_defaults(func=_cmd_table)

    check = sub.add_parser("verify", help="run the invariant suite")
    check.add_argument("--g", default="2..3", help='genus range, e.g. "2..3"')
    check.add_argument("--d1", help="d1 range (default: 2*d2+1 .. 2*d2+8 per d2)")
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
        return args.func(args)
    except (NotDivisible, AssertionError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except (UserError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())
