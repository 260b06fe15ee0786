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
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from . import triples, verify
from .laurent import LaurentPoly, NotDivisible, UniPoly

CACHE_ENV = "HODGETRIPLES_CACHE"
SCHEMA_VERSION = 1


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


def _parse_range(text: str) -> list[int]:
    """Integer ranges: "3", "1..8", "1..9:2"."""
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
        return list(range(lo, hi + 1, step))
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


def _compute_record(target: str, g: int, params: dict) -> dict:
    """Evaluate one target and package the result with its request echo."""
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
    return {
        "request": request,
        "dim": result.complex_dim,
        "terms": [{"u": a, "v": b, "c": str(c)} for (a, b), c in result.poly.terms()],
        "poincare": [{"t": k, "c": str(c)} for k, c in diagonal.terms()],
    }


def _dump_json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _record_text(rec: dict, poincare: bool) -> str:
    if poincare:
        return UniPoly({int(t["t"]): int(t["c"]) for t in rec["poincare"]}).text()
    return LaurentPoly({(t["u"], t["v"]): int(t["c"]) for t in rec["terms"]}).text()


# -- compute ---------------------------------------------------------------


def _cmd_compute(args: argparse.Namespace) -> int:
    family = _FAMILY_OF[args.target]
    _require(args, family.degrees + ((family.stability,) if family.stability else ()), ranges=False)
    params: dict = {"rank": _parse_rank(args.rank)} if family.ranked else {}
    params.update((name, getattr(args, name)) for name in family.degrees)
    if family.stability:
        params[family.stability] = triples.StabilityValue.parse(getattr(args, family.stability))
    rec = _compute_record(args.target, args.genus, params)
    if args.format == "json":
        out = dict(rec)
        if not args.poincare:
            out.pop("poincare")
        print(_dump_json(out))
    else:
        print(_record_text(rec, args.poincare))
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
    grid = list(itertools.product(*(_parse_range(getattr(args, name)) for name in family.degrees)))
    rows = []
    for g in genera:
        for degrees in grid:
            params = {**fixed, **dict(zip(family.degrees, degrees))}
            rows.extend((key, g, chamber) for key, chamber in family.chambers(args.target, g, params))
    return rows


def _load_cache(path: str) -> tuple[dict[str, dict], bool]:
    """(records by key, whether the file needs rewriting).

    Each line is checked on its own, so a bad line (truncated, not UTF-8, not
    JSON, another schema) is dropped and counted while the good ones are kept.
    """
    cache: dict[str, dict] = {}
    if not path or not os.path.exists(path):
        return cache, False
    dropped = 0
    try:
        with open(path, "rb") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    entry = None
                if (
                    isinstance(entry, dict)
                    and entry.get("schema_version") == SCHEMA_VERSION
                    and isinstance(entry.get("key"), str)
                    and isinstance(entry.get("record"), dict)
                ):
                    cache[entry["key"]] = entry["record"]
                else:
                    dropped += 1
    except OSError as exc:
        print(f"warning: cache file {path} is unreadable: {exc}; recomputing and overwriting", file=sys.stderr)
        return {}, True
    if dropped:
        print(
            f"warning: cache file {path} is corrupt: dropped {dropped} bad line(s), kept {len(cache)} record(s); "
            "recomputing the dropped ones and rewriting the file",
            file=sys.stderr,
        )
    return cache, bool(dropped)


def _save_cache(path: str, cache: dict[str, dict]) -> None:
    """Write the cache beside ``path`` and rename it over the old file, so a failed write loses nothing."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            for key in sorted(cache):
                handle.write(_dump_json({"schema_version": SCHEMA_VERSION, "key": key, "record": cache[key]}))
                handle.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        print(f"warning: could not write cache file {path}: {exc}", file=sys.stderr)


def _latex_row(rec: dict) -> str:
    req = rec["request"]
    poly = LaurentPoly({(t["u"], t["v"]): int(t["c"]) for t in rec["terms"]})
    label = [f"g={req['genus']}"]
    if "degree" in req:
        label.append(f"d={req['degree']}")
    else:
        label.append(f"d_1={req['d1']}, d_2={req['d2']}")
    if "sigma" in req:
        label.append(f"\\sigma={req['sigma']}")
    if "tau" in req:
        label.append(f"\\tau={req['tau']}")
    return f"${', '.join(label)}$ & ${poly.latex()}$ \\\\"


def _cmd_table(args: argparse.Namespace) -> int:
    cache_path = args.cache if args.cache is not None else os.environ.get(CACHE_ENV, "")
    cache, stale = _load_cache(cache_path)
    records: list[dict] = []
    for key, g, params in _table_rows(args):
        if key in cache:
            records.append(cache[key])
            continue
        rec = _compute_record(args.target, g, params)
        cache[key] = rec
        records.append(rec)
        stale = True
    if cache_path and stale:
        _save_cache(cache_path, cache)

    if args.format == "json-lines":
        for rec in records:
            out = dict(rec)
            if not args.poincare:
                out.pop("poincare")
            print(_dump_json(out))
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
    grid = verify.VerifyGrid(
        g_values=tuple(_parse_range(args.g)),
        d2_values=tuple(_parse_range(args.d2)),
        d1_values=tuple(_parse_range(args.d1)) if args.d1 is not None else None,
        checks=checks,
        seed=args.seed,
    )
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
