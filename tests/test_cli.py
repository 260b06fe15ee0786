import builtins
import contextlib
import errno
import fcntl
import functools
import gc
import hashlib
import io
import itertools
import json
import operator
import os
import re
import select
import subprocess
import sys
import tempfile
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgetriples import cli, laurent, triples
from hodgetriples.cli import main
from hodgetriples.laurent import ONE, LaurentPoly

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
# json-lines tables recorded byte for byte in GOLDEN, one per target family (triples of both ranks)
TRIPLE_21 = ("--target", "triple", "--genus", "2", "--d1", "3..5", "--d2", "0", "--format", "json-lines")
TRIPLE_12 = ("--target", "triple", "--rank", "1,2", "--genus", "2", "--d1", "0", "--d2=-5..-3", "--format", "json-lines")
PAIR_FIXED = ("--target", "pair-fixed", "--genus", "2..3", "--degree", "1..4", "--format", "json-lines")
BUNDLE = ("--target", "bundle", "--genus", "2..3", "--degree", "1..5", "--format", "json-lines")
# one small table per target, and whether its cache lines hold a negative chamber index d0
TABLES = {
    "triple": (("--target", "triple", "--genus", "2", "--d1=-3..8", "--d2=-2..0"), True),
    "triple12": (("--target", "triple", "--rank", "1,2", "--genus", "2", "--d1=-3..8", "--d2=-2..0"), False),
    "pair": (("--target", "pair", "--genus", "2..3", "--degree", "1..6"), False),
    "pair-fixed": (("--target", "pair-fixed", "--genus", "2..3", "--degree", "1..6"), False),
    "bundle": (("--target", "bundle", "--genus", "2..3", "--degree", "1..7"), False),
    "bundle-fixed": (("--target", "bundle-fixed", "--genus", "2..3", "--degree", "1..7"), False),
}
# every table output format, run cold and warm against one cache
FORMATS = {
    "json-lines": ("--format", "json-lines"),
    "json-lines-poincare": ("--format", "json-lines", "--poincare"),
    "csv": ("--format", "csv"),
    "latex": ("--format", "latex"),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stamped_line(echoes: Iterable[bytes], body: bytes, revision: int = cli.FORMULA_REVISION) -> bytes:
    """The schema-4 cache line of the records of ``echoes`` that share ``body``, without its newline: the requests
    the echoes open with, in the order given, then the body; its stamp is the CRC-32, in 8 lowercase hex digits, of
    its bytes from ``"formula_revision"`` to its closing brace."""
    requests = b",".join(echo[len(b'{"request":') : -1] for echo in echoes)
    stamped = b'"formula_revision":%d,"requests":[%s],"record":{%s}' % (revision, requests, body)
    return b'{"schema_version":4,"crc32":"%08x",%s' % (zlib.crc32(stamped), stamped)


def _split(line: bytes) -> int:
    """Where ``_cache_line`` cuts a line into head and body: just past the ``],"record":{`` at its first ``]``, else
    at its end."""
    return line.find(b"]") + len(b'],"record":{') if b"]" in line else len(line)


def _line_echoes(line: bytes) -> list[bytes]:
    """The request echoes of the records a cache line lists: each request of its head spelled as an echo."""
    return [b'{"request":%s,' % request for request in re.findall(rb"\{[^{}]*\}", line[: _split(line)])]


def _record_split(record: str) -> int:
    """Where a record's text, as a table prints it, cuts into its echo and its body: a request holds no ``}``."""
    return record.index("}") + 2


class TestCompute:
    def test_pair_fixed_text(self, capsys):
        code, out, err = run(capsys, "compute", "pair-fixed", "--genus", "2", "--degree", "1", "--tau", "3/4", "--format", "text")
        assert code == 0
        assert out == "1 + uv\n"

    def test_pair_fixed_on_wall(self, capsys):
        code, out, err = run(capsys, "compute", "pair-fixed", "--genus", "2", "--degree", "1", "--tau", "1")
        assert code == 2
        assert "tau=1 is a critical value; use 1+ or 1-" in err

    def test_bundle_fixed_poincare(self, capsys):
        code, out, err = run(capsys, "compute", "bundle-fixed", "--genus", "2", "--degree", "1", "--poincare")
        assert code == 0
        assert out == "1 + t^2 + 4 t^3 + t^4 + t^6\n"

    @pytest.mark.parametrize("target, digest", [
        ("bundle", "41e7814fb28e5bb6fcc0b26c8966dfb153c906d487e4a19e0541e50d798dd149"),
        ("bundle-fixed", "7820b1080f208826e30d42626d15b05068a11dd8efdf89b5cb865be4f33239ab"),
    ])  # fmt: skip
    def test_bundle_genus_24_pinned(self, capsys, target, digest):
        """The genus-24 bundle records, whose full form packs slots wider than a machine word, by the sha256 of their
        stdout as the dict route wrote it: two ``**g`` products, two running-sum divisions and ``times_binomials``."""
        code, out, err = run(capsys, "compute", target, "--genus", "24", "--degree", "1", "--format", "json", "--poincare")
        assert (code, err) == (0, "") and hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pair_unfixed(self, capsys):
        code, out, err = run(capsys, "compute", "pair", "--genus", "2", "--degree", "1", "--tau", "3/4")
        assert code == 0
        expected = triples.hodge_pairs(2, 1, triples.StabilityValue.parse("3/4"))
        assert out.strip() == expected.poly.text()

    def test_triple_with_side_tag(self, capsys):
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--sigma", "7+")
        assert code == 0
        spec = triples.TripleSpec(2, (2, 1), 5, 0)
        expected = triples.hodge_triples_closed(spec, triples.StabilityValue.parse("7+"))
        assert out.strip() == expected.poly.text()

    def test_triple_wall_exact(self, capsys):
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--sigma", "7")
        assert code == 2
        assert "sigma=7 is a critical value" in err

    def test_bundle_even_degree(self, capsys):
        code, out, err = run(capsys, "compute", "bundle", "--genus", "2", "--degree", "2")
        assert code == 2
        assert "odd" in err

    def test_json_round_trip(self, capsys):
        code, out, err = run(capsys, "compute", "pair-fixed", "--genus", "2", "--degree", "1", "--tau", "3/4", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, separators=(",", ":")) + "\n" == out
        assert parsed["request"]["tau"] == "3/4"
        assert parsed["dim"] == 1
        assert parsed["terms"] == [{"u": 0, "v": 0, "c": "1"}, {"u": 1, "v": 1, "c": "1"}]

    @pytest.mark.parametrize("name, sigma, poincare", [
        ("compute_triple_json_poincare", "7+", ("--poincare",)),
        ("compute_triple_empty_json_poincare", "21", ("--poincare",)),  # past sigma_M = 10: null d0 and dim, no terms
        ("compute_triple_json", "7+", ()),
        ("compute_triple_empty_json", "21", ()),
    ], ids=["nonempty", "empty", "nonempty-without-poincare", "empty-without-poincare"])  # fmt: skip
    def test_json_byte_exact(self, capsys, name, sigma, poincare):
        argv = ("compute", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--sigma", sigma, "--format", "json", *poincare)
        assert run(capsys, *argv) == (0, (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), "")

    def test_json_empty_result(self, capsys):
        code, out, err = run(capsys, "compute", "pair", "--genus", "2", "--degree", "1", "--tau", "1/4", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["dim"] is None and parsed["terms"] == []

    def test_missing_flags(self, capsys):
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--d1", "5")
        assert code == 2

    def test_bad_stability_string(self, capsys):
        code, out, err = run(capsys, "compute", "pair", "--genus", "2", "--degree", "1", "--tau", "0.75")
        assert code == 2

    def test_parse_error_exit_code(self, capsys):
        assert main(["compute", "no-such-target", "--genus", "2"]) == 2

    def test_determinism(self, capsys):
        first = run(capsys, "compute", "triple", "--genus", "3", "--d1", "4", "--d2", "-1", "--sigma", "6", "--format", "json")
        second = run(capsys, "compute", "triple", "--genus", "3", "--d1", "4", "--d2", "-1", "--sigma", "6", "--format", "json")
        assert first == second


class TestChambers:
    def test_listing(self, capsys):
        code, out, err = run(capsys, "chambers", "--genus", "2", "--d1", "5", "--d2", "0")
        assert code == 0
        assert "sigma_m = 5/2" in out
        assert "sigma_M = 10" in out
        assert "sigma_c = 4  d_M = 3" in out
        assert "sigma_c = 7  d_M = 4" in out
        assert "sigma_c = 10  d_M = 5  (= sigma_M)" in out
        assert "(5/2, 4): representative sigma = 13/4" in out

    def test_empty_family(self, capsys):
        code, out, err = run(capsys, "chambers", "--genus", "2", "--d1", "0", "--d2", "1")
        assert code == 2
        assert "moduli empty: mu1 < mu2" in err

    def test_single_wall(self, capsys):
        code, out, err = run(capsys, "chambers", "--genus", "2", "--d1", "1", "--d2", "0")
        assert code == 0
        assert out.count("sigma_c") == 1
        assert "sigma_c = 2  d_M = 1" in out

    def test_sigma_m_wall_flagged(self, capsys):
        code, out, err = run(capsys, "chambers", "--genus", "2", "--d1", "4", "--d2", "0")
        assert code == 0
        assert "sigma_c = 2  d_M = 2  (= sigma_m)" in out


class TestOptions:
    @pytest.mark.parametrize("argv, option", [
        (("compute", "bundle", "--genus", "2", "--degree", "1", "--sigma", "3"), "sigma"),
        (("compute", "pair", "--genus", "2", "--degree", "3", "--tau", "7/4", "--d1", "9"), "d1"),
        (("table", "--target", "bundle", "--genus", "2", "--degree", "1", "--d1", "3"), "d1"),
        (("compute", "pair", "--genus", "2", "--degree", "1", "--tau", "3/4", "--rank", "garbage"), "rank"),
        (("table", "--target", "bundle", "--genus", "2", "--degree", "1", "--rank", "2,1"), "rank"),
    ], ids=["compute-bundle-sigma", "compute-pair-d1", "table-bundle-d1", "compute-pair-rank", "table-bundle-rank"])  # fmt: skip
    def test_option_the_target_does_not_take_refused(self, capsys, argv, option):
        target = argv[1] if argv[0] == "compute" else argv[2]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {target} target does not take --{option}\n")

    @pytest.mark.parametrize("argv", [
        ("compute", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--sigma", "7+", "--format", "json"),
        ("chambers", "--genus", "2", "--d1", "5", "--d2", "0"),
        ("table", *TRIPLE_21),
    ], ids=["compute", "chambers", "table"])  # fmt: skip
    def test_triples_default_to_rank_21(self, capsys, argv):
        default = run(capsys, *argv)
        assert default[0] == 0 and default == run(capsys, *argv, "--rank", "2,1")


class TestPoincare:
    @pytest.mark.parametrize("argv", [
        ("table", "--target", "pair-fixed", "--genus", "2..3", "--degree", "1..6", "--poincare"),
        ("compute", "pair-fixed", "--genus", "3", "--degree", "5", "--tau", "7/2", "--poincare", "--format", "json"),
    ], ids=["table", "compute"])  # fmt: skip
    def test_pair_fixed_poincare_is_diagonal_of_terms(self, capsys, monkeypatch, argv):
        """Every record's poincare list is its terms summed by u + v, zero sums dropped; Thaddeus's formula is not run."""

        def never(*args, **kwargs):
            raise AssertionError("records take their Poincare polynomial from the diagonal of their terms")

        monkeypatch.setattr(triples, "poincare_pairs_fixed_det_thaddeus", never)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        records = [json.loads(line) for line in out.splitlines()]
        assert records and all(rec["terms"] for rec in records)
        for rec in records:
            sums: dict[int, int] = {}
            for t in rec["terms"]:
                sums[t["u"] + t["v"]] = sums.get(t["u"] + t["v"], 0) + int(t["c"])
            assert rec["poincare"] == [{"t": k, "c": str(c)} for k, c in sorted(sums.items()) if c]


class TestTable:
    def test_latex_bundle_rows(self, capsys):
        code, out, err = run(capsys, "table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..3", "--format", "latex")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2  # even degrees are skipped
        assert all(line.endswith("\\\\") for line in lines)
        assert "(uv)^{3}" in lines[0]

    @pytest.mark.parametrize("name, options", [
        ("table_triple_latex", ("--target", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--format", "latex")),
        ("table_pair_latex", ("--target", "pair", "--genus", "2", "--degree", "3", "--format", "latex")),
        ("table_pair_fixed_csv_poincare", ("--target", "pair-fixed", "--genus", "2", "--degree", "3", "--format", "csv", "--poincare")),
        ("table_triple_json_lines", TRIPLE_21),
        ("table_triple_json_lines_poincare", TRIPLE_21 + ("--poincare",)),
        ("table_triple12_json_lines", TRIPLE_12),
        ("table_triple12_json_lines_poincare", TRIPLE_12 + ("--poincare",)),
        ("table_pair_fixed_json_lines", PAIR_FIXED),
        ("table_pair_fixed_json_lines_poincare", PAIR_FIXED + ("--poincare",)),
        ("table_bundle_json_lines", BUNDLE),
        ("table_bundle_json_lines_poincare", BUNDLE + ("--poincare",)),
    ], ids=[
        "triple-latex", "pair-latex", "pair-fixed-csv-poincare",
        "triple-json-lines", "triple-json-lines-poincare", "triple12-json-lines", "triple12-json-lines-poincare",
        "pair-fixed-json-lines", "pair-fixed-json-lines-poincare", "bundle-json-lines", "bundle-json-lines-poincare",
    ])  # fmt: skip
    def test_output_byte_exact(self, capsys, name, options):
        """Stdout equals the recorded rows: latex labels, the csv poincare column, every json-lines separator and null."""
        code, out, err = run(capsys, "table", *options)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

    def test_formula_revision_pinned_to_golden_records(self):
        """The formula revision and the bytes of the recorded JSON records change together: a change to a record's
        bytes must bump ``FORMULA_REVISION``, which makes caches recompute what an older revision wrote, and pin the
        new digest here."""
        digest = hashlib.sha256(b"".join(path.read_bytes() for path in sorted(GOLDEN.glob("*json*.txt"))))
        assert (cli.FORMULA_REVISION, digest.hexdigest()) == (
            1, "76cc11b6252b368b7034fcc1bd7bde5ba813dc86b1dd1906360fed935735b405")

    def test_json_lines(self, capsys):
        code, out, err = run(capsys, "table", "--target", "pair-fixed", "--genus", "2", "--degree", "1..2", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["request"]["degree"] for r in records] == [1, 2]
        assert records[0]["request"]["tau"] == "3/4"

    def test_csv_header_and_rows(self, capsys):
        code, out, err = run(capsys, "table", "--target", "triple", "--genus", "2", "--d1", "1..2", "--d2", "0", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("target,genus,rank,d1,d2,degree,stability,d0,dim,poly")
        assert len(lines) >= 3

    @pytest.mark.parametrize(
        "options, genus",
        [
            (("--target", "bundle", "--genus", "1", "--degree", "2"), 1),
            (("--target", "pair", "--genus", "1", "--degree", "0"), 1),
            (("--target", "pair-fixed", "--genus", "0..1", "--degree=-3..0"), 0),
        ],
        ids=["bundle-even", "pair-no-chamber", "pair-fixed-range"],
    )
    def test_genus_below_two_refused_without_rows(self, capsys, options, genus):
        """A genus below 2 is refused though none of its degrees keys a row, as a keyed row refuses it."""
        assert run(capsys, "table", *options) == (2, "", f"error: genus must be >= 2, got {genus}\n")

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "table", "--target", "bundle", "--genus", "2", "--degree", "2..2", "--format", "json-lines")
        assert code == 0
        assert out == ""

    def test_range_with_step(self, capsys):
        code, out, err = run(capsys, "table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..5:2", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["request"]["degree"] for r in records] == [1, 3, 5]

    @pytest.mark.parametrize("options", FORMATS.values(), ids=FORMATS)
    def test_warm_cache_byte_identical(self, capsys, tmp_path, options):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", *options, "--cache", str(cache)]
        first = run(capsys, *argv)
        assert first[0] == 0 and cache.exists()
        second = run(capsys, *argv)
        assert second == first

    @pytest.mark.parametrize("options", FORMATS.values(), ids=FORMATS)
    def test_misshapen_records_dropped(self, capsys, tmp_path, monkeypatch, options):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", *options, "--cache", str(cache)]
        cold = run(capsys, *argv)
        written = cache.read_text(encoding="utf-8")
        lines = written.splitlines()
        assert len(lines) == 4
        heads = [line[: line.index('"record":') + len('"record":')] for line in lines]
        records = [json.loads(line)["record"] for line in lines]
        reordered = {"poincare": records[1].pop("poincare"), **records[1]}
        records[2]["poincare"][0]["poincare"] = []  # a second key named poincare, inside the list
        lines[0] = heads[0] + "{}}"
        lines[1] = heads[1] + cli._dump_json(reordered) + "}"
        lines[2] = heads[2] + cli._dump_json(records[2]) + "}"
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, cold[1]) and len(computed) == 3
        assert "corrupt: dropped 3 bad line(s), kept 1 record(s)" in err
        assert cache.read_text(encoding="utf-8") == written

    @pytest.mark.parametrize("options", FORMATS.values(), ids=FORMATS)
    def test_misshapen_values_dropped(self, capsys, tmp_path, monkeypatch, options):
        """Lines with the written keys in order but values of another shape are dropped, never served, with every
        record they list."""
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--genus", "2..7", "--degree", "1..3", *options, "--cache", str(cache)]
        cold = run(capsys, *argv)
        written = cache.read_text(encoding="utf-8")
        lines = written.splitlines()
        assert len(lines) == 6 and all('"terms":[{"u":0,"v":0,"c":"1"},' in line for line in lines)
        assert all(len(_line_echoes(line.encode())) == 2 for line in lines)  # odd degrees share a result
        first_term, dim = '{"u":0,"v":0,"c":"1"}', re.compile(r'"dim":(\d+),')
        lines[0] = re.sub(r'"terms":\[.*?\]', '"terms":"x"', lines[0])
        lines[1] = lines[1].replace(first_term, '{"u":0,"v":0,"c":"1","w":0}')  # a fourth key
        lines[2] = lines[2].replace(first_term, '{"u":0,"v":0,"c":"01"}')  # a leading zero
        lines[3] = lines[3].replace(first_term, '{"u":0,"v":0,"c":1}')  # a number, not a decimal string
        lines[4] = dim.sub(r'"dim":"\1",', lines[4])
        lines[5] = lines[5].replace('"poincare":[{"t":0,', '"poincare":[{"t":0,"u":0,')
        assert len(set(lines) - set(written.splitlines())) == 6
        assert all(json.loads(line)["record"] for line in lines)  # each still a JSON record
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, cold[1]) and len(computed) == 6  # one key per genus
        assert "corrupt: dropped 6 bad line(s), kept 0 record(s)" in err
        assert cache.read_text(encoding="utf-8") == written

    @pytest.mark.parametrize("options, negative_d0", list(TABLES.values()), ids=list(TABLES))
    def test_every_written_line_reads_back(self, capsys, tmp_path, options, negative_d0):
        """Each line ``_save_cache`` writes is read back, with no warning, and warm output equals cold in every format."""
        cache = tmp_path / "records.jsonl"
        colds = {name: run(capsys, "table", *options, *fmt) for name, fmt in FORMATS.items()}
        assert run(capsys, "table", *options, "--cache", str(cache)) == colds["json-lines"]
        lines = cache.read_bytes().splitlines(keepends=True)
        rows = colds["json-lines"][1].splitlines()
        bodies = {row[_record_split(row) :] for row in rows}
        assert len(lines) == len({line[_split(line) :] for line in lines}) == len(bodies) > 0  # no body on two lines
        assert sum(len(_line_echoes(line)) for line in lines) == len(rows)
        assert None not in map(cli._cache_line, lines)
        records, stale, _ = cli._load_cache(str(cache))
        assert (len(records), stale) == (len(rows), False)
        assert any(b'"d0":-1}' in line for line in lines) == negative_d0
        for name, fmt in FORMATS.items():
            assert run(capsys, "table", *options, *fmt, "--cache", str(cache)) == colds[name] and colds[name][2] == ""

    def test_empty_record_reads_back(self, capsys, tmp_path):
        """A record of an empty space, null d0 and dim and no terms, which ``compute`` writes, is read back whole."""
        cache = tmp_path / "records.jsonl"
        text = (GOLDEN / "compute_triple_empty_json_poincare.txt").read_text(encoding="utf-8").rstrip("\n")
        echo = '{"request":{"target":"triple","genus":2,"rank":"2,1","d1":5,"d2":0,"sigma":"21","d0":null},'
        body = '"dim":null,"terms":[],"poincare":[]}'
        assert text == echo + body
        cli._save_cache(str(cache), {echo: body}, None)
        assert capsys.readouterr() == ("", "")
        assert cli._load_cache(str(cache))[:2] == ({echo: body}, False)

    @pytest.mark.parametrize("options", [options for options, _ in TABLES.values()], ids=list(TABLES))
    def test_rows_served_under_their_echo(self, capsys, tmp_path, monkeypatch, options):
        """Each row's request echo opens the record written for it, so a warm run evaluates nothing, takes no lock and
        rewrites nothing."""
        cache = tmp_path / "records.jsonl"
        cold = run(capsys, "table", *options, "--cache", str(cache))
        rows = cli._table_rows(cli.build_parser().parse_args(["table", *options]))
        echoes = [cli._request_echo(options[1], *row) for row in rows]
        assert [line[: len(echo)] for line, echo in zip(cold[1].splitlines(), echoes, strict=True)] == echoes
        assert sorted(cli._load_cache(str(cache))[0]) == sorted(echoes)
        written, inode = cache.read_bytes(), cache.stat().st_ino
        computed, locked = [], []
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a))
        monkeypatch.setattr(cli.fcntl, "flock", lambda *a: locked.append(a))
        assert run(capsys, "table", *options, "--cache", str(cache)) == cold and computed == locked == []
        assert (cache.read_bytes(), cache.stat().st_ino) == (written, inode)

    def test_partly_warm_run_copies_no_cached_text(self, capsys, tmp_path):
        """A row whose request is gone from its cache line is computed afresh, though the rows that line still lists
        share its core and are served its body edited to a wrong coefficient, still well formed and stamped again: a
        run reuses only the records it computed."""
        cache = tmp_path / "records.jsonl"
        options = (*TABLES["triple"][0], "--poincare", "--cache", str(cache))
        cold = run(capsys, "table", *options)[1].splitlines()
        rows = cli._table_rows(cli.build_parser().parse_args(["table", *options]))
        keys = [cli._triple_row_key("triple", g, params, d0) for g, params, _, d0 in rows]
        first, later = next((keys.index(key), j) for j, key in enumerate(keys) if keys.index(key) < j)
        echoes = [row[: _record_split(row)].encode() for row in cold]
        body = cold[first][_record_split(cold[first]) :].encode()
        edited = body.replace(b'{"u":0,"v":0,"c":"1"}', b'{"u":0,"v":0,"c":"7"}', 1)
        lines = cache.read_bytes().splitlines()
        at = next(i for i, line in enumerate(lines) if echoes[first] in _line_echoes(line))
        listed = _line_echoes(lines[at])  # first and later share a core, so a body and a line
        assert edited != body and echoes[later] in listed and lines[at] == _stamped_line(listed, body)
        kept = [echo for echo in listed if echo != echoes[later]]
        lines[at] = _stamped_line(kept, edited)  # stamped again, so it is read
        cache.write_bytes(b"".join(b"%s\n" % line for line in lines))
        code, out, err = run(capsys, "table", *options)
        assert (code, err) == (0, "")
        served = [echo.decode() + edited.decode() if echo in kept else row for echo, row in zip(echoes, cold)]
        assert out.splitlines() == served and served[later] == cold[later]  # the edited line serves its own rows only

    def test_schema_1_cache_rewritten_once(self, capsys, tmp_path, monkeypatch):
        """A cache file as the schema-1 cli wrote it, with a key before each record: its lines are dropped with one
        out-of-date warning (not "corrupt"), every record is recomputed with the same output and rewritten in schema 4,
        and the next run is quiet."""
        cache = tmp_path / "records.jsonl"
        schema_1 = (
            b'{"schema_version":1,"formula_revision":1,"key":"pair-fixed:g=2:d=3:d0=2","record":{"request":{"target":"pair-fixed",'
            b'"genus":2,"degree":3,"tau":"7/4","d0":2},"dim":3,"terms":[{"u":0,"v":0,"c":"1"},{"u":1,"v":1,"c":"2"},'
            b'{"u":1,"v":2,"c":"2"},{"u":2,"v":1,"c":"2"},{"u":2,"v":2,"c":"2"},{"u":3,"v":3,"c":"1"}],"poincare":[{"t":0,"c":"1"},'
            b'{"t":2,"c":"2"},{"t":3,"c":"4"},{"t":4,"c":"2"},{"t":6,"c":"1"}]}}\n'
            b'{"schema_version":1,"formula_revision":1,"key":"pair-fixed:g=2:d=3:d0=3","record":{"request":{"target":"pair-fixed",'
            b'"genus":2,"degree":3,"tau":"5/2","d0":3},"dim":3,"terms":[{"u":0,"v":0,"c":"1"},{"u":1,"v":1,"c":"1"},'
            b'{"u":2,"v":2,"c":"1"},{"u":3,"v":3,"c":"1"}],"poincare":[{"t":0,"c":"1"},{"t":2,"c":"1"},{"t":4,"c":"1"},'
            b'{"t":6,"c":"1"}]}}\n'
        )
        cache.write_bytes(schema_1)
        argv = ["table", "--target", "pair-fixed", "--genus", "2", "--degree", "3"]
        cold = run(capsys, *argv)
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out, len(computed)) == (0, cold[1], 2)
        assert err == f"warning: cache file {cache} has 2 line(s) of another cache schema; recomputing them and rewriting the file\n"
        records = [line[line.index(b'"record":') + len(b'"record":') : -1] for line in schema_1.splitlines()]
        cut = [record.index(b"}") + 2 for record in records]  # the bodies differ, so one line each
        expected = [_stamped_line([record[:at]], record[at:]) for record, at in sorted(zip(records, cut))]
        assert cache.read_bytes().splitlines() == expected  # by echo
        assert run(capsys, *argv, "--cache", str(cache)) == (0, cold[1], "") and len(computed) == 2

    def test_schema_2_cache_rewritten_once(self, capsys, tmp_path, monkeypatch):
        """A cache file as the schema-2 cli wrote it, unstamped: one out-of-date warning, every record recomputed
        with the same output, the file rewritten in schema 4 with the bytes a cold run writes, and the next run
        quiet and computing nothing."""
        cache, cold_cache = tmp_path / "records.jsonl", tmp_path / "cold.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", "--poincare"]
        cold = run(capsys, *argv, "--cache", str(cold_cache))
        records = sorted(cold[1].encode().splitlines())
        cache.write_bytes(b"".join(b'{"schema_version":2,"formula_revision":1,"record":%s}\n' % r for r in records))
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, cold[1]) and len(computed) == len(records) == 4
        assert err == f"warning: cache file {cache} has 4 line(s) of another cache schema; recomputing them and rewriting the file\n"
        assert cache.read_bytes() == cold_cache.read_bytes()
        assert run(capsys, *argv, "--cache", str(cache)) == (0, cold[1], "") and len(computed) == 4

    def test_schema_3_cache_rewritten_once(self, capsys, tmp_path, monkeypatch):
        """A cache file as the schema-3 cli wrote it, one stamped line per record: one out-of-date warning, every
        record recomputed with the same output, the file rewritten in schema 4 with the bytes a cold run writes, and
        the next run quiet and computing nothing."""
        cache, cold_cache = tmp_path / "records.jsonl", tmp_path / "cold.jsonl"
        argv = ["table", *TABLES["triple"][0], "--poincare"]
        rows = cli._table_rows(cli.build_parser().parse_args(argv))
        keys = {cli._triple_row_key("triple", g, params, d0) for g, params, _, d0 in rows}
        cold = run(capsys, *argv, "--cache", str(cold_cache))
        records = sorted(cold[1].encode().splitlines())
        stamped = [b'"formula_revision":%d,"record":%s}' % (cli.FORMULA_REVISION, record) for record in records]
        cache.write_bytes(b"".join(b'{"schema_version":3,"crc32":"%08x",%s\n' % (zlib.crc32(s), s) for s in stamped))
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv, "--cache", str(cache))
        assert (code, out) == (0, cold[1]) and len(computed) == len(keys) < len(stamped) == len(rows)
        assert err == (f"warning: cache file {cache} has {len(rows)} line(s) of another cache schema; "
                       "recomputing them and rewriting the file\n")
        assert cache.read_bytes() == cold_cache.read_bytes()
        assert run(capsys, *argv, "--cache", str(cache)) == (0, cold[1], "") and len(computed) == len(keys)

    def test_echo_edited_to_another_rows_dropped(self, capsys, tmp_path, monkeypatch):
        """A line whose request is edited to another line's, still well spelled, fails its stamp: it is dropped
        with a warning, the row whose request it took is served its own record, and the file is mended to the cold
        bytes."""
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "pair", "--genus", "2..3", "--degree", "1..6", "--poincare", "--cache", str(cache)]
        cold, written = run(capsys, *argv), cache.read_bytes()
        lines = written.splitlines(keepends=True)
        requests = [[echo[len(b'{"request":') : -1] for echo in _line_echoes(line)] for line in lines]
        earlier, later = 0, 1
        bodies = [line[_split(line) :] for line in lines]
        assert len(requests[later]) == 1 and bodies[earlier] != bodies[later]
        lines[later] = lines[later].replace(requests[later][0], requests[earlier][0])  # later in the file, so it would win
        assert _CAPTURING_CACHE_LINE.fullmatch(lines[later]) and _oracle_line(lines[later]) is None
        cache.write_bytes(b"".join(lines))
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert (code, out, len(computed)) == (0, cold[1], 1)
        assert "is corrupt: dropped 1 bad line(s)" in err
        assert cache.read_bytes() == written

    def test_other_schemas_counted_apart_from_damage(self, capsys, tmp_path):
        """Lines of schemas 2 and 5 draw one out-of-date warning, apart from the "corrupt" one of a damaged line."""
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle", "--genus", "2..4", "--degree", "1..5", "--cache", str(cache)]
        cold = run(capsys, *argv)
        lines = cache.read_bytes().splitlines(keepends=True)
        assert len(lines) == 3 and all(len(_line_echoes(line)) == 3 for line in lines)
        assert cli.SCHEMA_VERSION == 4
        lines[0] = re.sub(rb'^\{"schema_version":4,"crc32":"[0-9a-f]{8}",', b'{"schema_version":2,', lines[0])
        lines[1] = lines[1].replace(b'{"schema_version":4,', b'{"schema_version":5,')
        assert lines[0].startswith(b'{"schema_version":2,"formula_revision":') and b"crc32" in lines[1]
        lines[2] = lines[2][:-9] + b"\n"
        cache.write_bytes(b"".join(lines))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, cold[1])
        assert err == (
            f"warning: cache file {cache} is corrupt: dropped 1 bad line(s), kept 0 record(s); "
            "recomputing the dropped ones and rewriting the file\n"
            f"warning: cache file {cache} has 2 line(s) of another cache schema; recomputing them and rewriting the file\n"
        )
        assert run(capsys, *argv) == cold

    def test_cache_lines_are_compact_json(self, capsys, tmp_path):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", "--poincare", "--cache", str(cache)]
        code, out, err = run(capsys, *argv)
        assert code == 0
        lines = cache.read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        assert lines == [cli._dump_json(entry) for entry in entries]
        assert list(entries[0]) == ["schema_version", "crc32", "formula_revision", "requests", "record"]
        records = [cli._dump_json({"request": request, **entry["record"]}) for entry in entries for request in entry["requests"]]
        assert sorted(records) == sorted(out.splitlines())

    def test_respelled_cache_lines_served_as_cold(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", "--poincare", "--cache", str(cache)]
        cold = run(capsys, *argv)
        written = cache.read_text(encoding="utf-8")
        lines = written.splitlines()
        assert len(lines) == 4 and all(cli._cache_line(f"{line}\n".encode()) for line in lines)
        entries = [json.loads(line) for line in lines]
        head = lines[1][: lines[1].index('"record":') + len('"record":')]
        lines[0] = json.dumps(entries[0])  # spaces everywhere, the head included
        lines[1] = head + json.dumps(entries[1]["record"]) + "}"  # the head as written, spaces in the record
        lines[2] = lines[2].replace('"triple"', '"\\u0074riple"')  # a \u escape in the record
        lines[3] = lines[3][:-1] + ',"note":1}'  # a field after the record
        assert [cli._cache_line(f"{line}\n".encode()) for line in lines] == [None] * 4
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, cold[1]) and len(computed) == 4  # never served, each recomputed
        assert "corrupt: dropped 4 bad line(s), kept 0 record(s)" in err
        assert cache.read_text(encoding="utf-8") == written

    def test_cache_line_reads_only_the_written_spelling(self, capsys, tmp_path):
        """Each respelling is refused: under the written stamp, which no longer verifies, and, for a respelled head
        or end of line, under a forged stamp that does.  A respelled body under a forged stamp is read: past the
        head, the stamp alone guards the bytes."""
        cache = tmp_path / "records.jsonl"
        run(capsys, "table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..3", "--cache", str(cache))
        line = cache.read_bytes()
        assert cli._cache_line(line)[0] == cli.FORMULA_REVISION and _restamped(line) == line
        assert len(_line_echoes(line)) == 2
        stamp = b'"formula_revision":%d,' % cli.FORMULA_REVISION
        dim = b'"dim":%d,' % json.loads(line)["record"]["dim"]
        triple_cache = tmp_path / "triple.jsonl"
        run(capsys, "table", "--target", "triple", "--genus", "2", "--d1", "1", "--d2", "0", "--cache", str(triple_cache))
        triple_line = triple_cache.read_bytes().splitlines(keepends=True)[0]
        assert cli._cache_line(triple_line) is not None and b'"d2":0,' in triple_line
        heads = [
            line.replace(stamp, b'"formula_revision":true,'),
            line.replace(stamp, b'"formula_revision":"%d",' % cli.FORMULA_REVISION),
            line.replace(stamp, b'"formula_revision":%d.0,' % cli.FORMULA_REVISION),
            line.replace(stamp, b'"formula_revision": %d,' % cli.FORMULA_REVISION),
            line.replace(b'"requests":[{', b'"requests":[{"poincare":null,', 1),  # a second "poincare" to cut at
            line.replace(b'"requests":[{', b'"request":[{', 1),
            line.replace(b'},{', b'}, {', 1),
            line.replace(b'},{', b'},,{', 1),
            line.replace(b'],"record"', b',{}],"record"', 1),  # an empty request
            line[: line.index(b"[")] + line[line.index(b"]") :].replace(b"]", b"[]", 1),  # no request
            line.replace(b'"crc32":"', b'"crc32":"0', 1),  # nine stamp digits
            line.replace(b"\n", b"\r\n"),
            line.replace(b"}\n", b"} \n"),
            b"\n",
            triple_line.replace(b'"d2":0,', b'"d2":-0,'),  # decodes to 0, but would be served as -0
        ]
        respelled_bodies = [
            line.replace(dim, dim[:-1] + b".0,"),
            line.replace(dim, dim[:-1] + b"e0,"),
            line.replace(dim, b'"dim":NaN,'),
            line.replace(b'"u":0,', b'"u":-0,', 1),
        ]
        respelled = heads + respelled_bodies
        assert line not in respelled and len(set(respelled)) == len(respelled)
        assert [cli._cache_line(other) for other in respelled] == [None] * len(respelled)
        assert [cli._cache_line(_restamped(other)) for other in heads] == [None] * len(heads)
        assert [cli._cache_line(_restamped(other))[2] for other in respelled_bodies] == [
            other[_split(other) : -2].decode() for other in respelled_bodies
        ]

    def test_cache_via_environment(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.jsonl"
        monkeypatch.setenv("HODGETRIPLES_CACHE", str(cache))
        argv = ["table", "--target", "pair-fixed", "--genus", "2", "--degree", "1", "--format", "json-lines"]
        first = run(capsys, *argv)
        assert cache.exists()
        assert run(capsys, *argv) == first

    def test_corrupt_cache_recovers(self, capsys, tmp_path):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1", "--format", "json-lines", "--cache", str(cache)]
        first = run(capsys, *argv)
        cache.write_text("not json at all\n", encoding="utf-8")
        second = run(capsys, *argv)
        assert second[0] == 0
        assert second[1] == first[1]
        assert "corrupt" in second[2]
        third = run(capsys, *argv)
        assert third[1] == first[1] and third[2] == ""

    def test_partly_corrupt_cache_salvaged(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        # one degree, so each row has a key of its own and ``computed`` counts the rows recomputed
        argv = ["table", "--target", "bundle-fixed", "--genus", "2..5", "--degree", "1", "--format", "json-lines", "--cache", str(cache)]
        first = run(capsys, *argv)
        lines = cache.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 4
        lines[1] = lines[1][: len(lines[1]) // 2]  # a write cut short
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == first[1]
        assert len(computed) == 1  # the three good records are cache hits
        assert "corrupt: dropped 1 bad line(s), kept 3 record(s)" in err
        assert run(capsys, *argv) == first and len(computed) == 1

    def test_bad_line_rewritten_without_new_records(self, capsys, tmp_path):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..3", "--format", "json-lines", "--cache", str(cache)]
        first = run(capsys, *argv)
        good = cache.read_text(encoding="utf-8")
        cache.write_bytes(good.encode() + b'{"schema_version": 0}\n\xff\xfe\n5\n')  # old schema, not UTF-8, not an object
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == first[1]
        assert "dropped 3 bad line(s), kept 2 record(s)" in err
        assert cache.read_text(encoding="utf-8") == good

    def test_other_formula_revision_recomputed(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        # one key per genus, and two records of each: ``computed`` counts the lines recomputed
        argv = ["table", "--target", "bundle-fixed", "--genus", "2..4", "--degree", "1..3", "--format", "json-lines", "--cache", str(cache)]
        first = run(capsys, *argv)
        written = cache.read_text(encoding="utf-8")
        entries = [json.loads(line) for line in written.splitlines()]
        assert [e["formula_revision"] for e in entries] == [cli.FORMULA_REVISION] * 3
        assert [len(e["requests"]) for e in entries] == [2] * 3
        del entries[1]["formula_revision"]  # a line written before revisions were stamped: a bad line
        lines = [cli._dump_json(e).encode() for e in entries]
        echoes = [b'{"request":%s,' % cli._dump_json(request).encode() for request in entries[0]["requests"]]
        lines[0] = _stamped_line(echoes, cli._dump_json(entries[0]["record"])[1:].encode(), cli.FORMULA_REVISION - 1)
        cache.write_bytes(b"".join(line + b"\n" for line in lines))
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == first[1]
        assert len(computed) == 2  # only the third line's records are served from the cache
        assert "has 2 record(s) of another formula revision" in err
        assert "corrupt: dropped 1 bad line(s), kept 2 record(s)" in err
        assert cache.read_text(encoding="utf-8") == written
        assert run(capsys, *argv) == first and len(computed) == 2

    def test_oversized_range_refused(self, capsys):
        code, out, err = run(capsys, "table", "--target", "bundle", "--genus", "2", "--degree", "1..1000000000")
        assert (code, out) == (2, "")
        assert f"range '1..1000000000' has 1000000000 values; at most {cli.MAX_RANGE_VALUES} are allowed" in err

    @pytest.mark.parametrize("options, choices", [
        (("--target", "triple", "--genus", "2", "--d1", "1..10000", "--d2=-10000..-1"), 10**8),
        (("--target", "bundle", "--genus", "2..101", "--degree", "1..101"), 10100),
    ], ids=["degrees", "genus-times-degree"])
    def test_oversized_grid_refused(self, capsys, monkeypatch, options, choices):
        monkeypatch.setattr(cli, "itertools", None)  # refused before any grid is built
        code, out, err = run(capsys, "table", *options)
        assert (code, out) == (2, "")
        assert err == f"error: table has {choices} parameter choices; at most {cli.MAX_RANGE_VALUES} are allowed\n"

    def test_range_limit_counts_values(self):
        limit = cli.MAX_RANGE_VALUES
        assert len(cli._parse_range(f"1..{limit}")) == limit
        assert len(cli._parse_range(f"1..{2 * limit}:2")) == limit
        with pytest.raises(cli.UserError, match=f"has {limit + 1} values"):
            cli._parse_range(f"0..{limit}")

    def test_failed_cache_write_keeps_old_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--format", "json-lines", "--cache", str(cache)]
        assert run(capsys, *argv, "--genus", "2..4", "--degree", "1..5")[0] == 0
        before = cache.read_text(encoding="utf-8")
        assert len(before.splitlines()) == 3

        class FullDisk:
            """A file whose second line write fails with ENOSPC."""

            def __init__(self, handle):
                self.handle, self.records = handle, 0

            def write(self, text):
                if text != "\n":
                    self.records += 1
                    if self.records == 2:
                        raise OSError(errno.ENOSPC, "No space left on device")
                return self.handle.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        def full_disk_open(file, mode="r", *args, **kwargs):
            handle = builtins.open(file, mode, *args, **kwargs)
            return FullDisk(handle) if "w" in mode else handle

        monkeypatch.setattr(cli, "open", full_disk_open, raising=False)
        code, out, err = run(capsys, *argv, "--genus", "2..4", "--degree", "1..7")
        assert code == 0 and len(out.splitlines()) == 12
        assert "could not write cache file" in err
        assert cache.read_text(encoding="utf-8") == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl", "records.jsonl.lock"]  # no temporary

    def test_cache_synced_before_rename(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--format", "json-lines", "--cache", str(cache)]
        assert run(capsys, *argv, "--genus", "2", "--degree", "1")[0] == 0
        before = cache.read_text(encoding="utf-8")
        synced = []
        fsync = cli.os.fsync

        def recording_fsync(fd):
            tmp = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
            assert len(tmp) == 1 and len(tmp[0].read_text(encoding="utf-8").splitlines()) == 3  # flushed
            assert cache.read_text(encoding="utf-8") == before  # not yet renamed
            synced.append(fd)
            fsync(fd)

        monkeypatch.setattr(cli.os, "fsync", recording_fsync)
        code, out, err = run(capsys, *argv, "--genus", "2..4", "--degree", "1..5")
        assert (code, err) == (0, "") and len(synced) == 1
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 3

    def _two_writers(self, capsys, tmp_path: Path, through_link: bool) -> None:
        """Two processes write tables of disjoint genera into one cache file, the second through a symbolic link to
        it if ``through_link``, both having read it before either saves: the lock held here until each has warned
        of the file's bad line keeps them waiting.  Afterwards the file holds both tables' records, as one run over
        both genera writes them, and the link is still a link."""
        cache, link, both = tmp_path / "records.jsonl", tmp_path / "link.jsonl", tmp_path / "both.jsonl"
        options = ("table", "--target", "pair-fixed", "--degree", "1..6", "--poincare")
        assert run(capsys, *options, "--genus", "2..3", "--cache", str(both))[0] == 0
        cache.write_bytes(b"not a cache line\n")
        link.symlink_to(cache.name)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        env.pop(cli.CACHE_ENV, None)
        argv = [sys.executable, "-m", "hodgetriples", *options]
        writers = []
        try:
            with open(f"{cache}.lock", "ab") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                for genus, path in (("2", cache), ("3", link if through_link else cache)):
                    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
                    writers.append(subprocess.Popen([*argv, "--cache", str(path), "--genus", genus], env=env, **pipes))
                for writer in writers:  # each has read the file before it saves; a writer that waits here fails
                    assert select.select([writer.stderr], [], [], 60)[0], "no warning within 60 s"
                    assert b"is corrupt: dropped 1 bad line(s), kept 0 record(s)" in writer.stderr.readline()
            outputs = [writer.communicate(timeout=60) for writer in writers]
        finally:
            for writer in writers:
                writer.kill()
                writer.wait()
        assert [writer.returncode for writer in writers] == [0, 0] and all(err == b"" for _, err in outputs)
        for genus, (out, _) in zip(("2", "3"), outputs):
            assert out.decode() == run(capsys, *options, "--genus", genus)[1]
        assert cache.read_bytes() == both.read_bytes() and link.is_symlink()
        assert not os.path.exists(f"{link}.lock")

    def test_two_writers_keep_both_tables(self, capsys, tmp_path):
        self._two_writers(capsys, tmp_path, through_link=False)

    def test_two_writers_through_link_and_target_keep_both_tables(self, capsys, tmp_path):
        """One writer through a symbolic link to the cache file and one through the file itself lock one sidecar,
        the file's, and keep both tables."""
        self._two_writers(capsys, tmp_path, through_link=True)

    def test_save_through_link_keeps_link(self, capsys, tmp_path):
        """A cache path that is a symbolic link is resolved: a run through it loads, locks and renames over the file
        it names, so the link stays a link, that file holds both tables, and its warnings name the link."""
        real, link, both = tmp_path / "real.jsonl", tmp_path / "link.jsonl", tmp_path / "both.jsonl"
        options = ("table", "--target", "bundle", "--degree", "1")
        assert run(capsys, *options, "--genus", "2..3", "--cache", str(both))[0] == 0
        assert run(capsys, *options, "--genus", "2", "--cache", str(real))[0] == 0
        link.symlink_to(real.name)
        real.write_bytes(real.read_bytes() + b"not a cache line\n")
        expected = run(capsys, *options, "--genus", "3")[1]
        code, out, err = run(capsys, *options, "--genus", "3", "--cache", str(link))
        assert (code, out) == (0, expected)
        assert err.startswith(f"warning: cache file {link} is corrupt: dropped 1 bad line(s), kept 1 record(s);")
        assert link.is_symlink() and os.readlink(link) == real.name and real.read_bytes() == both.read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "both.jsonl", "both.jsonl.lock", "link.jsonl", "real.jsonl", "real.jsonl.lock"
        ]

    def test_unchanged_file_read_once(self, capsys, tmp_path, monkeypatch):
        """A partly warm table over a cache file that no other run changed reads it once, at load: under the lock
        the save finds the file's identity unchanged and merges nothing in.  It writes what a cold run writes."""
        cache, cold = tmp_path / "records.jsonl", tmp_path / "cold.jsonl"
        options = ("table", "--target", "pair-fixed", "--genus", "2..3", "--poincare")
        assert run(capsys, *options, "--degree", "1..3", "--cache", str(cache))[0] == 0
        expected = run(capsys, *options, "--degree", "1..6", "--cache", str(cold))
        reads, read = [], cli._read_cache
        monkeypatch.setattr(cli, "_read_cache", lambda path: reads.append(path) or read(path))
        assert run(capsys, *options, "--degree", "1..6", "--cache", str(cache)) == expected
        assert reads == [str(cache)] and cache.read_bytes() == cold.read_bytes()

    def test_bad_d2_range_refused_when_d1_empty(self, capsys):
        code, out, err = run(capsys, "table", "--target", "triple", "--genus", "2", "--d1", "5..1", "--d2", "x")
        assert code == 2
        assert "cannot parse range 'x'" in err

    @pytest.mark.parametrize("options, message", [
        (("--d1", "x", "--d2", "0"), "cannot parse range 'x'"),
        ((), "triple target needs --d1 and --d2 ranges"),
        (("--rank", "3,1", "--d1", "1", "--d2", "0"), "rank must be 2,1 or 1,2"),
    ], ids=["bad-range", "missing-options", "bad-rank"])
    def test_options_checked_when_genus_range_empty(self, capsys, options, message):
        code, out, err = run(capsys, "table", "--target", "triple", "--genus", "5..2", *options)
        assert (code, out) == (2, "")
        assert message in err

    def test_fifo_cache_path_refused(self, tmp_path):
        """A cache path that is a FIFO exits 2 before any open, which would block; run in a subprocess with a timeout."""
        fifo = tmp_path / "records.fifo"
        os.mkfifo(fifo)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        env.pop(cli.CACHE_ENV, None)
        argv = [sys.executable, "-m", "hodgetriples", "table", *TRIPLE_21, "--cache", str(fifo)]
        done = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == f"error: cache path {fifo} exists and is not a regular file\n".encode()
        assert fifo.is_fifo()

    def test_directory_cache_path_refused(self, capsys, tmp_path, monkeypatch):
        """A directory named by --cache or the environment is refused, not renamed over or written beside."""
        code, out, err = run(capsys, "table", *TRIPLE_21, "--cache", str(tmp_path))
        assert (code, out, err) == (2, "", f"error: cache path {tmp_path} exists and is not a regular file\n")
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        assert run(capsys, "table", *TRIPLE_21)[0] == 2
        assert list(tmp_path.iterdir()) == []

    def test_closed_pipe_exits_quietly(self):
        """Two processes: the cli writing a 180 kB table into a pipe, and this test reading 150 bytes of it, then closing.

        The cli's next write fails with EPIPE; it must stop with no traceback
        and the status of a process killed by SIGPIPE, 128 + 13.
        """
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        env.pop(cli.CACHE_ENV, None)
        argv = [sys.executable, "-m", "hodgetriples", "table", *TRIPLE_21[:4], "--d1", "1..10", "--d2=-1..0"]
        writer = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = writer.stdout.read(150)
        writer.stdout.close()
        err = writer.stderr.read()
        writer.stderr.close()
        assert (writer.wait(timeout=120), err) == (141, b"")
        assert head.startswith(b'{"request":{"target":"triple","genus":2,')


def _sorted_result_text(result: triples.HodgeResult) -> str:
    """The oracle of ``cli._result_text``: the terms sorted by ``terms()``, spelled by f-strings, and ``diagonal()``."""
    terms = ",".join(f'{{"u":{a},"v":{b},"c":"{c}"}}' for (a, b), c in result.poly.terms())
    diagonal = ",".join(f'{{"t":{k},"c":"{c}"}}' for k, c in result.poly.diagonal().terms())
    return f'"dim":{json.dumps(result.complex_dim)},"terms":[{terms}],"poincare":[{diagonal}]}}'


@st.composite
def _hodge_results(draw) -> triples.HodgeResult:
    """An empty result, or one of dim 0..40 with random coefficients (small ones, so diagonals cancel) inside its box,
    each at a key and at its mirror (dim - a, dim - b), so that the square is a palindrome as every result's is."""
    dim = draw(st.none() | st.integers(0, 40))
    if dim is None:
        return triples.HodgeResult(LaurentPoly(), None)
    keys = st.tuples(st.integers(0, dim), st.integers(0, dim))
    coeffs = (st.integers(-2, 2) | st.integers()).filter(bool)
    terms = {}
    for (a, b), c in draw(st.dictionaries(keys, coeffs, max_size=60)).items():
        terms[a, b] = terms[dim - a, dim - b] = c
    return triples.HodgeResult(LaurentPoly(terms), dim)


def _square(result: triples.HodgeResult) -> tuple[Optional[int], list[int]]:
    """(dim, square) of a result: its terms in [0, dim]^2, row-major as ``triples._closed_square`` gives them."""
    dim, square = result.complex_dim, [0] * ((result.complex_dim or 0) + 1) ** 2  # an empty result has no terms
    for (a, b), c in result.poly._terms.items():
        square[a * (dim + 1) + b] = c
    return dim, square


class TestRecordText:
    """``cli._result_text`` against the sorted oracle on palindromic squares; the box grows only to the largest dim
    formatted, and its per-dim lists refer to its one set of template strings."""

    @staticmethod
    def _check(results) -> cli._CanonicalBox:
        """Format ``results`` in order with one fresh box, each packed into its square; each text must equal the
        oracle's.  Returns the box."""
        box = cli._CanonicalBox()
        for result in results:
            assert cli._result_text(*_square(result), box) == _sorted_result_text(result)
        return box

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_hodge_results(), max_size=8))
    def test_matches_sorted_oracle(self, results):
        """Results by ascending dim grow the box; the same results again, descending, reuse it for smaller dims."""
        dims = [r.complex_dim for r in results if not r.is_empty]
        ascending = sorted(results, key=lambda r: -1 if r.is_empty else r.complex_dim)
        box = self._check(ascending + ascending[::-1])
        top = max(dims, default=-1)
        assert box.dim == top and len(box.rows) == top + 1 and all(len(row) == top + 1 for row in box.rows)
        assert len(box.starts) == top + 2 and len(box.degree_templates) == max(2 * top + 1, 0)
        strings = {id(template) for row in box.rows for template in row}
        assert sorted(box.indexes) == sorted(set(dims))
        for dim, (offsets, templates) in box.indexes.items():
            assert len(offsets) == box.starts[dim + 1] == (dim + 1) * (dim + 2) // 2 and len(templates) == (dim + 1) ** 2
            assert {id(template) for template in templates} <= strings

    @pytest.mark.parametrize("terms, dim, text", [
        ({(0, 0): 5}, 0, '"dim":0,"terms":[{"u":0,"v":0,"c":"5"}],"poincare":[{"t":0,"c":"5"}]}'),
        ({}, None, '"dim":null,"terms":[],"poincare":[]}'),
        ({}, 3, '"dim":3,"terms":[],"poincare":[]}'),
        ({(1, 0): 2, (0, 1): -2, (1, 2): 2, (2, 1): -2}, 2,
         '"dim":2,"terms":[{"u":0,"v":1,"c":"-2"},{"u":1,"v":0,"c":"2"},{"u":1,"v":2,"c":"2"},{"u":2,"v":1,"c":"-2"}],'
         '"poincare":[]}'),
    ], ids=["dim-0", "empty", "no-terms", "diagonal-cancels"])  # fmt: skip
    def test_edge_results(self, terms, dim, text):
        """Dim 0, the empty result, a nonempty result with no terms (``"terms":[]``, no dangling ``"}``), a zero diagonal
        in total degrees 1 and 3, one the mirror of the other."""
        result = triples.HodgeResult(LaurentPoly(terms), dim)
        assert _sorted_result_text(result) == text
        self._check([result])
        self._check([triples.HodgeResult(LaurentPoly(), 9), result])  # read from a larger box

    def test_box_built_for_largest_dim_only(self):
        """Smaller dims after a larger one leave the box as it was; only a larger dim grows it, in place.  A dim reads
        the offsets of its keys of total degree at most dim and spells all its keys in canonical order."""
        box = self._check([triples.HodgeResult(LaurentPoly({(2, 3): 1, (2, 1): 1}), 4)])
        rows, first = box.rows, box.rows[1][2]
        offsets, templates = box.index(2)
        assert offsets == [0, 1, 3, 2, 4, 6]  # (0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0) at 3a + b
        keys = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (1, 2), (2, 1), (2, 2)]
        assert templates == ['{"u":%d,"v":%d,"c":"%%d"}' % key for key in keys]
        assert box.rows is rows and box.dim == 4 and len(rows) == 5
        assert box.index(5) and box.dim == 5 and box.rows is rows and len(rows) == len(rows[0]) == 6
        assert rows[1][2] is first and box.index(2)[1][:6] == templates[:6]


def _library_result(target: str, g: int, params: dict, stability: Optional[str]) -> triples.HodgeResult:
    """The library's result for one table row, by the public evaluator of its target, its stability value parsed."""
    if target == "triple":
        spec = triples.TripleSpec(g, params["rank"], params["d1"], params["d2"])
        return triples.hodge_triples_closed(spec, triples.StabilityValue.parse(stability))
    if target.startswith("pair"):
        tau = triples.StabilityValue.parse(stability)
        return triples.hodge_pairs(g, params["degree"], tau, fixed_det=target == "pair-fixed")
    return triples.hodge_bundles_odd(g, params["degree"], fixed_det=target == "bundle-fixed")


class TestSquareReader:
    """Records read off the kernel's square (triples) or a packed dict (pairs, bundles), against independent oracles."""

    @pytest.mark.parametrize("options, repeats", [
        (TABLES["triple"][0], 50),
        (TABLES["triple12"][0], 36),
        (TABLES["pair"][0], 0),
        (TABLES["pair-fixed"][0], 0),
        (TABLES["bundle"][0], 6),
        (TABLES["bundle-fixed"][0], 6),
    ], ids=list(TABLES))  # fmt: skip
    def test_table_rows_match_sorted_library_text(self, capsys, monkeypatch, options, repeats):
        """Every line that ``table --poincare`` prints for each ``TABLES`` target is its row's echo and the sorted
        oracle's text of the library result, the ``repeats`` rows that share an earlier row's key included: those
        take the earlier record's body and are not evaluated again.  The oracle evaluates every row at its own
        degree, so a bundle row, keyed by genus alone, shows the result at each odd degree."""
        rows = cli._table_rows(cli.build_parser().parse_args(["table", *options]))
        computed, compute = [], cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, "table", *options, "--poincare")
        assert (code, err) == (0, "") and len(rows) - len(computed) == repeats
        oracle = (_sorted_result_text(_library_result(options[1], *row[:3])) for row in rows)
        echoes = (cli._request_echo(options[1], *row) for row in rows)
        assert out.splitlines() == list(map(operator.add, echoes, oracle))

    def test_wide_slots_match_wall_sum(self, capsys, monkeypatch):
        """The lowest and a middle chamber of g=12, d1=100, d2=0, whose kernel slots are wider than a machine word, so
        their digits are read by a ``struct.Struct``, each shift-added on rows 0..68 of its 135 x 135 square, one past
        the middle: the record, half read and mirrored, equals the sorted text of the wall sum."""
        spec = triples.TripleSpec(12, (2, 1), 100, 0)
        sigmas = triples.chamber_representatives(spec)
        boxes, shift_adds = [], laurent._shift_adds

        def spy(packed, n, m, height, width, half):
            boxes.append((n, height, width))
            return shift_adds(packed, n, m, height, width, half)

        monkeypatch.setattr(laurent, "_shift_adds", spy)
        rows = [{"rank": (2, 1), "d1": 100, "d2": 0, "sigma": sigma} for sigma in (sigmas[0], sigmas[len(sigmas) // 2])]
        argv = ["compute", "triple", "--genus", "12", "--d1", "100", "--d2", "0", "--format", "json", "--poincare"]
        texts = [run(capsys, *argv, "--sigma", str(params["sigma"])) for params in rows]
        monkeypatch.undo()
        assert spec.complex_dim == 134 and boxes == [(10, 69, 135)] * 2
        for params, (code, text, err) in zip(rows, texts):
            oracle = _sorted_result_text(triples.hodge_triples_sum(spec, params["sigma"]))
            sigma = params["sigma"]
            echo = cli._request_echo("triple", 12, params, str(sigma), triples.chamber_d0(spec, sigma))
            assert (code, text, err) == (0, echo + oracle + "\n", "")

    @pytest.mark.parametrize("fault", ["row-past-square", "row-inside-square", "ends-zeroed"])
    def test_box_not_square_is_internal_inconsistency(self, capsys, tmp_path, monkeypatch, fault):
        """A closed core with one row past [0, dim - m]^2, whose lowest row is cut off, or whose diagonals end in a
        zero where their last terms were: ``table`` and ``compute`` exit 1 with "internal inconsistency" and write
        no cache file, ``hodge_triples_closed`` and both ``hodge_pairs`` variants raise ``AssertionError``, and
        ``verify`` reports each chamber it reaches as a FAIL and exits 1."""
        core = triples._closed_diagonals

        def faulty(g, n, e2):
            runs = core(g, n, e2)
            if fault == "row-past-square":
                return [*runs, (max(a + len(coeffs) for a, _, coeffs in runs), 0, [1])]
            if fault == "ends-zeroed":
                return [(a, b, [*coeffs[:-1], 0]) for a, b, coeffs in runs]
            return [(a + 1, b + 1, coeffs[1:]) if a == 0 else (a, b, coeffs) for a, b, coeffs in runs]

        monkeypatch.setattr(triples, "_closed_diagonals", faulty)
        cache = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "table", *TRIPLE_21, "--cache", str(cache))
        assert (code, out) == (1, "") and err.startswith("internal inconsistency: diagonal extent")
        assert not cache.exists() and os.listdir(tmp_path) == []
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--d1", "5", "--d2", "0", "--sigma", "19/2")
        assert (code, out) == (1, "") and err.startswith("internal inconsistency: diagonal extent")
        with pytest.raises(AssertionError, match="internal inconsistency"):
            triples.hodge_triples_closed(triples.TripleSpec(2, (2, 1), 5, 0), triples.StabilityValue.parse("19/2"))
        for fixed_det in (False, True):
            with pytest.raises(AssertionError, match="internal inconsistency"):
                triples.hodge_pairs(3, 5, triples.StabilityValue.parse("7/2"), fixed_det=fixed_det)
        code, out, err = run(capsys, "verify", "--g", "2", "--d2", "0", "--checks", "cross-pipeline,thaddeus")
        lines = out.splitlines()
        assert code == 1 and err == "" and len(lines) == 17
        assert all(line.startswith("FAIL ") and "unexpected AssertionError: diagonal extent" in line for line in lines[:-1])
        assert lines[-1] == "16 checks: 0 passed, 16 failed"

    @pytest.mark.parametrize("target", ["bundle", "bundle-fixed"])
    def test_bundle_not_palindrome_is_internal_inconsistency(self, capsys, tmp_path, monkeypatch, target):
        """Bundle diagonals without their run on a - b = -1, whose extent still spans the square: the result is no
        palindrome, and would be read half and mirrored by the record text.  The kernel's mirror check raises, so
        ``table`` and ``compute`` exit 1 with "internal inconsistency" and write no cache file instead."""
        runs = triples._bundle_diagonals
        monkeypatch.setattr(triples, "_bundle_diagonals", lambda g: [(a, b, c) for a, b, c in runs(g) if b - a != 1])
        cache = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "table", "--target", target, "--genus", "2..3", "--degree", "1..5", "--cache", str(cache))
        assert (code, out) == (1, "") and err.startswith("internal inconsistency: row ")
        assert err.endswith("the square is not a palindrome: internal inconsistency\n") and os.listdir(tmp_path) == []
        code, out, err = run(capsys, "compute", target, "--genus", "3", "--degree", "1")
        assert (code, out) == (1, "") and "the square is not a palindrome" in err
        monkeypatch.undo()
        assert run(capsys, "table", "--target", target, "--genus", "2..3", "--degree", "1..5")[0] == 0

    @pytest.mark.parametrize("target", ["bundle", "bundle-fixed"])
    def test_bundle_not_divisible_is_internal_inconsistency(self, capsys, tmp_path, monkeypatch, target):
        """A bundle numerator with 1 more on its diagonal a - b = 1 does not divide by (1 - uv)(1 - (uv)^2): ``table``
        and ``compute`` exit 1 with "internal inconsistency" and write no cache file."""
        numerator = triples._bundle_numerator

        def faulty(g, delta):
            diagonal = numerator(g, delta)
            diagonal[0] += delta == 1
            return diagonal

        monkeypatch.setattr(triples, "_bundle_numerator", faulty)
        cache = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "table", "--target", target, "--genus", "2..3", "--degree", "1..5", "--cache", str(cache))
        expected = "internal inconsistency: diagonal 1 of the genus-2 bundle numerator does not divide"
        assert (code, out) == (1, "") and err.startswith(expected) and os.listdir(tmp_path) == []
        code, out, err = run(capsys, "compute", target, "--genus", "3", "--degree", "1")
        assert (code, out) == (1, "") and err.startswith(expected.replace("genus-2", "genus-3"))

    def test_table_run_retains_nothing(self, monkeypatch, tmp_path):
        """After a cold table returns, and after a warm one on a cache file a cold run wrote, less than 16 kB it
        allocated is still held: no box, index, record of a core or cached body outlives its run.  A
        different, tiny table imports what the cli imports lazily first, so a cache that a run fills shows in the
        first run of the measured table."""
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)

        def table(*options):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["table", "--target", "triple", *options, "--poincare"]) == 0

        def retained(*options) -> int:
            tracemalloc.start()
            try:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                table(*options)
                gc.collect()  # argparse leaves reference cycles
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        table("--genus", "2", "--d1", "1", "--d2", "0")
        measured, cache = ("--genus", "2..3", "--d1", "1..10", "--d2=-1..0"), str(tmp_path / "records.jsonl")
        cold = retained(*measured)
        table(*measured, "--cache", cache)
        warm = retained(*measured, "--cache", cache)
        assert max(cold, warm) < 16_000, (cold, warm)


# table-sweep's two grids, the cli-smoke triple grids in both ranks, and pair tables over degrees -2..12
ROW_GRIDS = {
    "table-sweep": ("--target", "triple", "--genus", "2..4", "--d1", "1..20", "--d2=-2..0"),
    "table-sweep-12": ("--target", "triple", "--rank", "1,2", "--genus", "2..4", "--d1", "0..2", "--d2=-20..-1"),
    "cli-smoke": ("--target", "triple", "--genus", "2..3", "--d1=-3..8", "--d2=-2..0"),
    "cli-smoke-12": ("--target", "triple", "--rank", "1,2", "--genus", "2..3", "--d1=-3..8", "--d2=-2..0"),
    "pair": ("--target", "pair", "--genus", "2..4", "--degree=-2..12"),
    "pair-fixed": ("--target", "pair-fixed", "--genus", "2..4", "--degree=-2..12"),
}


def _midpoints(bounds: list[Fraction]) -> list[triples.StabilityValue]:
    return [triples.StabilityValue((lo + hi) / 2) for lo, hi in zip(bounds, bounds[1:])]


def _oracle_chambers(target: str, g: int, params: dict) -> list[tuple[str, int, tuple]]:
    """(str(sigma), d0, (d0, key)) of each chamber of one degree choice, by the ``StabilityValue`` route.

    The representatives are first held to the midpoints of the chamber bounds
    in ``Fraction``: ``chamber_bounds`` for triples, d/2 and the integers of
    [d/2, d] for pairs.
    """
    if target == "triple":
        spec = triples.TripleSpec(g, params["rank"], params["d1"], params["d2"])
        sigmas = triples.chamber_representatives(spec)
        assert sigmas == ([] if spec.is_empty_family else _midpoints(triples.chamber_bounds(spec)))
        return [(str(s), triples.chamber_d0(spec, s), triples._triple_key(spec, s)) for s in sigmas]
    d, fixed = params["degree"], target == "pair-fixed"
    taus = triples.pair_chamber_representatives(d)
    assert taus == _midpoints(sorted({Fraction(d, 2), *map(Fraction, range((d + 1) // 2, d + 1))}) if d > 0 else [])
    return [(str(t), triples.pair_chamber(d, t) + 1, triples._pair_key(g, d, t, fixed)) for t in taus]


def _oracle_echo(target: str, g: int, params: dict, stability: Optional[str], d0: Optional[int]) -> str:
    """The request echo as ``json.dumps`` writes the request dict: target, genus, rank, degrees, stability and d0."""
    request: dict = {"target": target, "genus": g}
    if target == "triple":
        request.update(rank="%d,%d" % params["rank"], d1=params["d1"], d2=params["d2"], sigma=stability, d0=d0)
    elif target.startswith("pair"):
        request.update(degree=params["degree"], tau=stability, d0=d0)
    else:
        request.update(degree=params["degree"])
    return '{"request":' + json.dumps(request, separators=(",", ":")) + ","


class TestRowsAndEchoes:
    """Table rows enumerated in integers and echoes written from one template, against the routes they replaced."""

    @pytest.mark.parametrize("options", ROW_GRIDS.values(), ids=list(ROW_GRIDS))
    def test_rows_match_stability_value_route(self, options):
        """Every degree choice's rows are (str(sigma), chamber_d0) of its chamber representatives, (str(tau),
        pair_chamber + 1) for pairs, and each row's key is the one ``_triple_key`` or ``_pair_key`` resolves."""
        args = cli.build_parser().parse_args(["table", *options])
        family = cli._FAMILY_OF[args.target]
        fixed = {"rank": cli._parse_rank(args.rank)} if family.ranked else {}
        expected, keys = [], []
        for g in cli._parse_range(args.genus):
            for degrees in itertools.product(*(cli._parse_range(getattr(args, name)) for name in family.degrees)):
                params = {**fixed, **dict(zip(family.degrees, degrees))}
                for stability, d0, resolved in _oracle_chambers(args.target, g, params):
                    expected.append((g, params, stability, d0))
                    keys.append(resolved)
        rows = cli._table_rows(args)
        assert rows == expected and rows
        assert [(d0, family.key(args.target, g, params, d0)) for g, params, _, d0 in rows] == keys

    @pytest.mark.parametrize("options", [options for options, _ in TABLES.values()], ids=list(TABLES))
    def test_table_echoes_match_json_dumps(self, options):
        """Each row's echo is the ``json.dumps`` of its request dict, for all six targets."""
        rows = cli._table_rows(cli.build_parser().parse_args(["table", *options]))
        assert rows and [cli._request_echo(options[1], *row) for row in rows] == [_oracle_echo(options[1], *row) for row in rows]

    def test_compute_echoes_match_json_dumps(self, capsys):
        """``compute --format json`` opens with the ``json.dumps`` of its request dict for stability values spelled
        7, 19/2, 7+, 19/2-, negative, and past the last wall, in chambers and empty spaces (d0 null); on a wall it
        exits 2."""
        families = [
            ("triple", ("--d1", "9", "--d2", "0"), {"rank": (2, 1), "d1": 9, "d2": 0}),
            ("triple", ("--rank", "1,2", "--d1", "0", "--d2=-9"), {"rank": (1, 2), "d1": 0, "d2": -9}),
            ("pair", ("--degree", "14"), {"degree": 14}),
            ("pair-fixed", ("--degree", "15"), {"degree": 15}),
        ]
        d0s = []
        for target, options, params in families:
            option = "--sigma" if target == "triple" else "--tau"
            for spelling in ("7", "19/2", "7+", "19/2-", "-3", "-7/2+", "21"):
                code, out, err = run(capsys, "compute", target, "--genus", "2", *options, f"{option}={spelling}",
                                     "--format", "json")
                value = triples.StabilityValue.parse(spelling)
                try:
                    if target == "triple":
                        spec = triples.TripleSpec(2, params["rank"], params["d1"], params["d2"])
                        d0 = triples._triple_key(spec, value)[0]
                    else:
                        d0 = triples._pair_key(2, params["degree"], value, target == "pair-fixed")[0]
                except triples.OnWall:
                    assert (code, out) == (2, "") and "critical value" in err
                    continue
                assert (code, err) == (0, "")
                assert out.startswith(_oracle_echo(target, 2, params, str(value), d0))
                d0s.append(d0)
        assert None in d0s and len(set(d0s)) > 3
        for target in ("bundle", "bundle-fixed"):
            code, out, err = run(capsys, "compute", target, "--genus", "3", "--degree", "5", "--format", "json")
            assert (code, err) == (0, "") and out.startswith(_oracle_echo(target, 3, {"degree": 5}, None, None))


# The body grammar of a cache line: exactly what ``_save_cache`` writes after the
# head that ``cli._CACHE_LINE_HEAD`` matches, the rest of the record and the
# line's closing ``}``.  The loader no longer matches it; it is the oracle that
# every written line is in the language of the head then the body.
_COEFF = '"-?[1-9][0-9]*"'  # a nonzero coefficient, as a decimal string


def _list_grammar(item: str) -> str:
    return rf"\[(?:{item}(?:,{item})*)?\]"


_TERMS = _list_grammar(rf'\{{"u":{cli._NAT},"v":{cli._NAT},"c":{_COEFF}\}}')
_DIAGONAL = _list_grammar(rf'\{{"t":{cli._NAT},"c":{_COEFF}\}}')
_RECORD_BODY = rf'"dim":(?:{cli._NAT}|null),"terms":{_TERMS},"poincare":{_DIAGONAL}\}}'
_CACHE_LINE_BODY = re.compile(rf"{_RECORD_BODY}\}}\n?".encode("ascii"))
_STAMP_AT = len(b'{"schema_version":4,"crc32":"')  # where a schema-4 line holds its 8 stamp digits
_REQUEST_ITEM = rf"\{{(?:{cli._REQUEST})\}}"  # one request of a line's list


def _capturing_line(body: str) -> re.Pattern:
    """A whole cache line with ``body`` after its list of requests, capturing the stamp, the stamped bytes, the
    revision, the requests and the body; the stamped bytes run from ``"formula_revision"`` to the line's closing
    ``}``."""
    return re.compile(
        re.escape(cli._CACHE_PREFIX)
        + (
            rf'([0-9a-f]{{8}})",("formula_revision":({cli._NAT}),"requests":\['
            rf'({_REQUEST_ITEM}(?:,{_REQUEST_ITEM})*)\],"record":\{{({body})\}})\n?'
        ).encode("ascii"),
        re.S,
    )


# What ``_save_cache`` writes: the head grammar then the body grammar, the oracle
# of the writer; and what ``_cache_line`` reads: the head grammar then any body.
_CAPTURING_CACHE_LINE = _capturing_line(_RECORD_BODY)
_CAPTURING_READ_LINE = _capturing_line(".*")


def _without_captures(pattern: bytes) -> bytes:
    """``pattern`` with each capturing group dissolved: its parentheses dropped, what they hold kept."""
    kept, closes = [], []
    for token in re.findall(rb"\\.|\(\??|\)|[^\\()]+", pattern):
        if token == b"(":  # a capturing group opens
            closes.append(b"")
        elif token == b")":
            kept.append(closes.pop())
        else:
            closes.extend([b")"] * (token == b"(?"))
            kept.append(token)
    return b"".join(kept)


def _oracle_read(line: bytes, grammar: re.Pattern = _CAPTURING_READ_LINE) -> Optional[tuple[int, list[str], str]]:
    """(revision, echoes, body) of a line in ``grammar`` whose stamp is the CRC-32 of its stamped bytes, else None;
    the echoes are the line's requests, found one by one, each spelled as the echo that opens its record."""
    match = grammar.fullmatch(line)
    if match is None or int(match[1], 16) != zlib.crc32(match[2]):
        return None
    requests = re.findall(_REQUEST_ITEM.encode("ascii"), match[4])
    return int(match[3]), ['{"request":%s,' % request.decode("ascii") for request in requests], match[5].decode("latin-1")


def _oracle_line(line: bytes) -> Optional[tuple[int, list[str], str]]:
    """(revision, echoes, body) of a line in the whole written grammar whose stamp verifies, else None."""
    return _oracle_read(line, _CAPTURING_CACHE_LINE)


def _restamped(line: bytes) -> bytes:
    """``line`` with a forged stamp: the 8 bytes where a schema-4 line holds its stamp set to the CRC-32, in lowercase
    hex, of its bytes from 2 past them to its last byte but a newline, whatever those bytes are."""
    stamped = line[_STAMP_AT + 10 : len(line) - line.endswith(b"\n")]
    return line[:_STAMP_AT] + b"%08x" % zlib.crc32(stamped) + line[_STAMP_AT + 8 :]


@functools.lru_cache(maxsize=None)
def _written_lines() -> tuple[bytes, ...]:
    """The lines ``_save_cache`` writes for the table of each target in ``TABLES``, without their newlines."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for target, (options, _) in TABLES.items():
            path = os.path.join(tmp, f"{target}.jsonl")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["table", *options, "--cache", path]) == 0
            lines.extend(Path(path).read_bytes().splitlines())
    return tuple(lines)


@st.composite
def _cache_lines(draw) -> bytes:
    """A written line, stamped again under a redrawn revision and a redrawn list of its requests (reordered, some
    left out or repeated), with or without its newline, then as it is or with one byte substituted, inserted or
    deleted, or cut short; the edit is made after the stamp, as damage is."""
    _, echoes, body = _oracle_line(draw(st.sampled_from(_written_lines())))
    revision = draw(st.sampled_from((cli.FORMULA_REVISION,)) | st.integers(0, 10**4))
    listed = draw(st.just(echoes) | st.lists(st.sampled_from(echoes), min_size=1, max_size=len(echoes) + 1))
    line = _stamped_line([echo.encode() for echo in listed], body.encode("latin-1"), revision)
    line += draw(st.sampled_from((b"", b"\n")))
    edit = draw(st.sampled_from(("none", "substitute", "insert", "delete", "truncate")))
    last = len(line) - (edit in ("substitute", "delete"))
    at = draw(st.integers(0, last) | st.integers(0, min(last, 200)))  # often in the head and request
    byte = bytes([draw(st.sampled_from(b'0123456789abcdef-,:"{}[]\n') | st.integers(0, 255))])
    return {
        "none": line,
        "substitute": line[:at] + byte + line[at + 1 :],
        "insert": line[:at] + byte + line[at:],
        "delete": line[:at] + line[at + 1 :],
        "truncate": line[:at],
    }[edit]


@st.composite
def _cache_files(draw) -> bytes:
    """A cache file whose lines each join the head of one drawn line to the body of another, so bodies, damaged
    or not, recur under other heads, damaged or not, and requests recur on several lines; each drawn line is as
    written or as ``_cache_lines`` draws it, and each joined line keeps the head's stamp or takes a forged one."""
    written = st.sampled_from(_written_lines()).map(lambda line: line + b"\n")
    drawn = draw(st.lists(written | _cache_lines(), min_size=1, max_size=6))
    picks = draw(st.lists(st.tuples(st.sampled_from(drawn), st.sampled_from(drawn), st.booleans()), min_size=1,
                          max_size=12))
    joined = [(head[: _split(head)] + body[_split(body) :], forged) for head, body, forged in picks]
    return b"".join(_restamped(line) if forged else line for line, forged in joined)


_STAMP_FIELD = rb'"crc32":"[0-9a-f]{8}",'
_UNSTAMPED_LINE = re.compile(cli._CACHE_LINE_HEAD.pattern.replace(_STAMP_FIELD, b"", 1) + _CACHE_LINE_BODY.pattern)


def _written_spelling(line: bytes) -> bool:
    """Whether ``line`` is compact JSON, in the head and body grammar once its ``"crc32"`` field is removed, with a
    stamp that verifies."""
    unstamped = re.sub(_STAMP_FIELD, b"", line, count=1)
    return (
        unstamped != line
        and _UNSTAMPED_LINE.fullmatch(unstamped) is not None
        and _oracle_line(line) is not None
        and cli._dump_json(json.loads(line)) == line.decode("ascii").rstrip("\n")
    )


@st.composite
def _drawn_echoes(draw) -> str:
    """The echo of a drawn request of any target."""
    target = draw(st.sampled_from(cli.TARGETS))
    family = cli._FAMILY_OF[target]
    integer = st.integers(-(10**6), 10**6)
    params: dict = {"rank": draw(st.sampled_from(((2, 1), (1, 2))))} if family.ranked else {}
    params.update((name, draw(integer)) for name in family.degrees)
    quarters = st.integers(-(10**4), 10**4).map(cli._quarter_text)
    stability = draw(quarters | quarters.map(lambda text: text + "+") | quarters.map(lambda text: text + "-"))
    d0 = draw(st.none() | integer)
    return cli._request_echo(target, draw(st.integers(2, 10**4)), params, stability, d0)


@st.composite
def _drawn_records(draw) -> dict[str, str]:
    """Records as a table or ``compute`` makes them: the echoes of one to three drawn requests sharing the body of
    a drawn palindromic square of any dim, or of an empty space."""
    echoes = draw(st.lists(_drawn_echoes(), min_size=1, max_size=3))
    dim = draw(st.none() | st.integers(0, 6))
    square: list[int] = []
    if dim is not None:
        half = draw(st.lists(st.integers(-(10**30), 10**30), min_size=(dim + 1) ** 2, max_size=(dim + 1) ** 2))
        square = [half[min(i, (dim + 1) ** 2 - 1 - i)] for i in range((dim + 1) ** 2)]  # a palindrome
    return dict.fromkeys(echoes, cli._result_text(dim, square, cli._CanonicalBox()))


class TestCacheLineGrammar:
    """``cli._cache_line`` checks the prefix, the stamp, the head grammar and the closing brace, and reads the
    fields by slices; the capturing whole-line grammars, with and without the body grammar, are the oracles."""

    def test_pattern_is_the_capturing_one_without_captures(self):
        head, body = cli._CACHE_LINE_HEAD, _CACHE_LINE_BODY
        assert (_CAPTURING_CACHE_LINE.groups, head.groups, body.groups) == (5, 0, 0)
        assert head.pattern + body.pattern == _without_captures(_CAPTURING_CACHE_LINE.pattern)
        assert head.pattern.count(rb"\]") == 1 and head.pattern.endswith(rb'\],"record":\{')  # it ends at its only "]"

    def test_stamp_compared_as_bytes(self):
        """A stamp spelled otherwise, with the value ``int(stamp, 16)`` reads, is refused: uppercase digits, a
        space or an underscore in place of a leading zero."""
        lines = [line + b"\n" for line in _written_lines() if int(line[_STAMP_AT : _STAMP_AT + 8], 16) < 1 << 28]
        assert lines and all(cli._cache_line(line) for line in lines)
        for line in lines[:20]:
            stamp = line[_STAMP_AT : _STAMP_AT + 8]
            respelled = {stamp.upper(), b" " + stamp[1:], stamp[1:4] + b"_" + stamp[4:]} - {stamp}
            assert respelled and all(int(other, 16) == int(stamp, 16) for other in respelled)
            for other in respelled:
                assert cli._cache_line(line[:_STAMP_AT] + other + line[_STAMP_AT + 8 :]) is None

    @settings(max_examples=600, deadline=None)
    @given(_cache_lines(), st.booleans())
    def test_matches_capturing_oracle(self, line, forged):
        """A line stamped before its edit reads as the whole written grammar with its stamp allows; one whose stamp
        is forged after the edit reads as the head grammar allows, with any body."""
        if forged:
            line = _restamped(line)
        read = cli._cache_line(line)
        assert read == _oracle_read(line)
        assert forged or read == _oracle_line(line)

    @settings(max_examples=300, deadline=None)
    @given(_cache_files())
    def test_load_cache_matches_oracle_line_by_line(self, data):
        """``_load_cache`` over a whole file keeps exactly the echoes and bodies the capturing oracle accepts line
        by line (the last line that lists an echo wins), with the same counts in its warnings, and the records one
        line serves share one string."""
        expected, served_by, counts = {}, {}, {"dropped": 0, "outdated": 0, "stale": 0}
        for at, line in enumerate(io.BytesIO(data)):
            read = _oracle_read(line)
            if read is None:
                counts["outdated" if cli._OTHER_SCHEMA.match(line) else "dropped"] += 1
            elif read[0] != cli.FORMULA_REVISION:
                counts["stale"] += len(read[1])  # records, not lines
            else:
                expected.update(dict.fromkeys(read[1], read[2]))
                served_by.update(dict.fromkeys(read[1], at))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.jsonl")
            Path(path).write_bytes(data)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                cache, stale, _ = cli._load_cache(path)
        assert (cache, stale) == (expected, any(counts.values()))
        strings: dict = {}
        for echo, at in served_by.items():
            strings.setdefault(at, set()).add(id(cache[echo]))
        assert all(len(ids) == 1 for ids in strings.values())
        warnings = err.getvalue().splitlines()
        assert len(warnings) == sum(map(bool, counts.values()))
        phrases = {
            "dropped": f"is corrupt: dropped {counts['dropped']} bad line(s), kept {len(expected)} record(s);",
            "outdated": f"has {counts['outdated']} line(s) of another cache schema;",
            "stale": f"has {counts['stale']} record(s) of another formula revision;",
        }
        assert all(any(phrases[name] in warning for warning in warnings) for name, count in counts.items() if count)

    def test_every_written_line_in_the_grammar(self):
        """Every line ``_save_cache`` writes for the tables of ``TABLES`` is in the grammar with its stamp removed,
        and its stamp verifies."""
        assert all(_written_spelling(line + b"\n") for line in _written_lines())

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_drawn_records(), max_size=4).map(lambda drawn: {k: v for d in drawn for k, v in d.items()}))
    def test_every_saved_line_in_the_grammar(self, records):
        """Every line ``_save_cache`` writes for drawn records is in the grammar with its stamp removed, its stamp
        verifies, and they read back as the records saved: one line per distinct body, its echoes sorted, the lines
        in the order of their least echo."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "records.jsonl")
            cli._save_cache(path, records, None)
            lines = Path(path).read_bytes().splitlines(keepends=True)
        assert len(lines) == len(set(records.values())) and all(map(_written_spelling, lines))
        reads = list(map(_oracle_line, lines))
        assert {echo: read[2] for read in reads for echo in read[1]} == records
        assert sum(len(read[1]) for read in reads) == len(records)  # no echo on two lines
        assert all(read[1] == sorted(read[1]) for read in reads)
        assert [read[1][0] for read in reads] == sorted(read[1][0] for read in reads)


class TestCacheBodies:
    """Each distinct record body of a cache file is on one line, which lists every request that shares it, and a
    warm run reads, checks and decodes it once."""

    def test_each_distinct_body_held_once(self, capsys, tmp_path, monkeypatch):
        """A cold run of the ``TABLES`` triple table holds one string per key (a few keys have equal bodies) and
        writes one line per distinct body; a warm run holds one string per line, which the rows it lists share."""
        cache = tmp_path / "records.jsonl"
        options = ("table", *TABLES["triple"][0], "--poincare", "--cache", str(cache))
        rows = cli._table_rows(cli.build_parser().parse_args(options[:-2]))
        keys = {cli._triple_row_key("triple", g, params, d0) for g, params, _, d0 in rows}
        saved, save = [], cli._save_cache
        monkeypatch.setattr(cli, "_save_cache", lambda *args: saved.append(args[1]) or save(*args))
        cold = run(capsys, *options)
        lines = cache.read_bytes().splitlines()
        distinct = len({line[_split(line) :] for line in lines})
        assert 1 < distinct == len(lines) <= len(keys) < len(rows) and len(saved) == 1
        assert len(set(map(id, saved[0].values()))) == len(keys)
        assert run(capsys, *options) == cold and len(saved) == 1
        records, stale, _ = cli._load_cache(str(cache))
        assert (len(records), len(set(map(id, records.values()))), stale) == (len(rows), len(lines), False)
        assert all(len({id(records[echo.decode()]) for echo in _line_echoes(line)}) == 1 for line in lines)

    def test_damage_dropped_on_every_line_it_reaches(self, capsys, tmp_path):
        """In a cache of the ``TABLES`` triple table, a head respelled ("genus":02) on one line that lists several
        records, and a body respelled (a leading zero) on another: both lines are dropped whole, with every record
        they list, the other lines are served, and the rewritten file is the cold one."""
        cache = tmp_path / "records.jsonl"
        options = ("table", *TABLES["triple"][0], "--poincare", "--cache", str(cache))
        cold, written = run(capsys, *options), cache.read_bytes()
        lines = written.splitlines(keepends=True)
        head_respelled, zeroed = [at for at, line in enumerate(lines) if len(_line_echoes(line)) > 1][:2]
        dropped = len(_line_echoes(lines[head_respelled])) + len(_line_echoes(lines[zeroed]))
        lines[head_respelled] = lines[head_respelled].replace(b'"genus":2,', b'"genus":02,', 1)
        cut = _split(lines[zeroed])
        lines[zeroed] = lines[zeroed][:cut] + lines[zeroed][cut:].replace(b'"c":"', b'"c":"0', 1)
        assert sum(a != b for a, b in zip(lines, written.splitlines(keepends=True))) == 2
        cache.write_bytes(b"".join(lines))
        code, out, err = run(capsys, *options)
        assert (code, out) == (0, cold[1])
        assert err == (
            f"warning: cache file {cache} is corrupt: dropped 2 bad line(s), "
            f"kept {len(cold[1].splitlines()) - dropped} record(s); recomputing the dropped ones and rewriting the file\n"
        )
        assert cache.read_bytes() == written

    @pytest.mark.parametrize("grid", ["table-sweep", "table-sweep-12"])
    def test_table_sweep_reads_each_body_once(self, capsys, tmp_path, monkeypatch, grid):
        """The benchmark's table sweep, in either rank, has 449 distinct bodies in 1,170 rows: its cache file has
        449 lines, no body on two lines, and a warm load calls ``_cache_line``, so the stamp check and the decode,
        once per line."""
        cache = tmp_path / "records.jsonl"
        options = ("table", *ROW_GRIDS[grid], "--poincare", "--cache", str(cache))
        cold = run(capsys, *options)
        lines = cache.read_bytes().splitlines()
        assert len(cold[1].splitlines()) == sum(len(_line_echoes(line)) for line in lines) == 1170
        assert len(lines) == len({line[_split(line) :] for line in lines}) == 449
        reads, read = [], cli._cache_line
        monkeypatch.setattr(cli, "_cache_line", lambda line: reads.append(line) or read(line))
        assert run(capsys, *options) == cold and len(reads) == 449

    def test_partly_warm_run_groups_by_body_text(self, capsys, tmp_path):
        """A partly warm run whose recomputed rows share a body with cached rows writes the bytes a cold run writes:
        rows are grouped by the text of their body, not by the string that holds it, and a run never reuses a
        cached body for a row it computes."""
        cache, cold = tmp_path / "records.jsonl", tmp_path / "cold.jsonl"
        options = ("table", "--target", "triple", "--genus", "2", "--d2=-2..0", "--poincare")
        assert run(capsys, *options, "--d1=-3..2", "--cache", str(cache))[0] == 0
        cached = {echo.encode() for echo in cli._load_cache(str(cache))[0]}
        expected = run(capsys, *options, "--d1=-3..8", "--cache", str(cold))
        listed = [set(_line_echoes(line)) for line in cold.read_bytes().splitlines()]
        assert any(echoes & cached and echoes - cached for echoes in listed)  # lines of cached and computed rows
        assert run(capsys, *options, "--d1=-3..8", "--cache", str(cache)) == expected
        assert cache.read_bytes() == cold.read_bytes()

    def test_request_edited_to_another_lines_drops_the_line(self, capsys, tmp_path, monkeypatch):
        """A line that lists several records, one request edited to a request of another line, still well spelled,
        fails its stamp and is dropped whole: every row it lists is recomputed, no row is served another line's
        body, and the file is mended to the cold bytes."""
        cache = tmp_path / "records.jsonl"
        argv = ["table", *TABLES["triple"][0], "--poincare", "--cache", str(cache)]
        cold, written = run(capsys, *argv), cache.read_bytes()
        rows = cli._table_rows(cli.build_parser().parse_args(argv[:-2]))
        keys = {cli._request_echo("triple", g, params, stability, d0).encode(): cli._triple_row_key("triple", g, params, d0)
                for g, params, stability, d0 in rows}
        lines = written.splitlines(keepends=True)
        several = [at for at, line in enumerate(lines) if len(_line_echoes(line)) > 1]
        earlier, later = several[0], several[-1]
        listed = _line_echoes(lines[later])
        request, other = (echo[len(b'{"request":') : -1] for echo in (listed[1], _line_echoes(lines[earlier])[0]))
        lines[later] = lines[later].replace(request, other, 1)
        assert _CAPTURING_CACHE_LINE.fullmatch(lines[later]) and _oracle_line(lines[later]) is None
        cache.write_bytes(b"".join(lines))
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (0, cold[1]) and len(computed) == len({keys[echo] for echo in listed}) > 0
        assert f"is corrupt: dropped 1 bad line(s), kept {len(rows) - len(listed)} record(s)" in err
        assert cache.read_bytes() == written


class TestVerifyCommand:
    def test_subset_run(self, capsys):
        code, out, err = run(capsys, "verify", "--g", "2", "--d2", "0", "--d1", "1..4", "--checks", "cross-pipeline")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "4 checks: 4 passed, 0 failed"
        assert all(line.startswith("PASS cross-pipeline") for line in lines[:-1])

    def test_deterministic_output(self, capsys):
        argv = ["verify", "--g", "2", "--d2", "0", "--d1", "1..2", "--checks", "ring-laws,residue", "--seed", "7"]
        assert run(capsys, *argv) == run(capsys, *argv)

    def test_unknown_check(self, capsys):
        code, out, err = run(capsys, "verify", "--checks", "bogus")
        assert code == 2
        assert "unknown checks" in err

    def test_empty_d1_range(self, capsys):
        code, out, err = run(capsys, "verify", "--g", "2", "--d2", "0", "--d1", "5..1", "--checks", "cross-pipeline")
        assert code == 2
        assert out == "" and err == "error: grid ranges must be nonempty\n"

    @pytest.mark.parametrize("checks", [",", ""])
    def test_empty_check_list(self, capsys, checks):
        code, out, err = run(capsys, "verify", "--g", "2", "--d2", "0", "--checks", checks)
        assert code == 2
        assert out == "" and err == "error: check list must be nonempty\n"

    @pytest.mark.parametrize("options, window, choices", [
        (("--g", "2..3", "--d1", "1..9999", "--d2=-9999..0"), 8, 2 * 9999 * 10000),
        (("--g", "2..3", "--d2=-625..0"), 8, 2 * 626 * 8),  # eight default d1 values per d2
        (("--g", "2..3", "--d2=-1..0"), 10_000, 2 * 2 * 10_000),  # the cli counts verify's own window
    ], ids=["d1-range", "default-d1", "wide-default-window"])
    def test_oversized_grid_refused(self, capsys, monkeypatch, options, window, choices):
        def never(*args, **kwargs):
            raise AssertionError("an oversized grid must be refused before it is built")

        monkeypatch.setattr(cli.verify, "_D1_WINDOW", window)
        monkeypatch.setattr(cli.verify, "VerifyGrid", never)
        monkeypatch.setattr(cli.verify, "run_suite", never)
        code, out, err = run(capsys, "verify", *options)
        assert (code, out) == (2, "")
        assert err == f"error: verify has {choices} parameter choices; at most {cli.MAX_RANGE_VALUES} are allowed\n"

    def test_injected_fault_exits_nonzero(self, capsys, monkeypatch):
        monkeypatch.setattr(triples, "flip_difference_series", lambda spec, d_m: ONE)
        code, out, err = run(capsys, "verify", "--g", "2", "--d2", "0", "--d1", "2", "--checks", "flip-two-path")
        assert code == 1
        assert "FAIL flip-two-path" in out


class TestRank12:
    def test_compute_triple_rank12(self, capsys):
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--rank", "1,2",
                             "--d1", "2", "--d2", "1", "--sigma", "9/2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["request"]["rank"] == "1,2"
        spec = triples.TripleSpec(2, (1, 2), 2, 1)
        expected = triples.hodge_triples_closed(spec, triples.StabilityValue.parse("9/2"))
        assert record["dim"] == expected.complex_dim

    def test_chambers_rank12(self, capsys):
        code, out, err = run(capsys, "chambers", "--genus", "2", "--rank", "1,2", "--d1", "2", "--d2", "1")
        assert code == 0
        assert "rank (1,2)" in out
        assert "sigma_m = 3/2" in out
        assert "sigma_M = 6" in out
        assert "sigma_c = 3  d_M = 0" in out

    def test_bad_rank(self, capsys):
        code, out, err = run(capsys, "compute", "triple", "--genus", "2", "--rank", "3,1",
                             "--d1", "2", "--d2", "1", "--sigma", "9/2")
        assert code == 2
