import builtins
import errno
import json
from pathlib import Path

import pytest

from hodgetriples import cli, triples
from hodgetriples.cli import main
from hodgetriples.laurent import ONE

GOLDEN = Path(__file__).resolve().parent / "golden"
# json-lines tables recorded byte for byte in GOLDEN, one per target family (triples of both ranks)
TRIPLE_21 = ("--target", "triple", "--genus", "2", "--d1", "3..5", "--d2", "0", "--format", "json-lines")
TRIPLE_12 = ("--target", "triple", "--rank", "1,2", "--genus", "2", "--d1", "0", "--d2=-5..-3", "--format", "json-lines")
PAIR_FIXED = ("--target", "pair-fixed", "--genus", "2..3", "--degree", "1..4", "--format", "json-lines")
BUNDLE = ("--target", "bundle", "--genus", "2..3", "--degree", "1..5", "--format", "json-lines")
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

    def test_cache_lines_are_compact_json(self, capsys, tmp_path):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "triple", "--genus", "2", "--d1", "1..3", "--d2", "0", "--poincare", "--cache", str(cache)]
        code, out, err = run(capsys, *argv)
        assert code == 0
        lines = cache.read_text(encoding="utf-8").splitlines()
        entries = [json.loads(line) for line in lines]
        assert lines == [cli._dump_json(entry) for entry in entries]
        assert list(entries[0]) == ["schema_version", "formula_revision", "key", "record"]
        assert sorted(cli._dump_json(entry["record"]) for entry in entries) == sorted(out.splitlines())

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
        cache = tmp_path / "records.jsonl"
        run(capsys, "table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1", "--cache", str(cache))
        line = cache.read_bytes()
        assert cli._cache_line(line)[0] == cli.FORMULA_REVISION
        stamp = b'"formula_revision":%d,' % cli.FORMULA_REVISION
        dim = b'"dim":%d,' % json.loads(line)["record"]["dim"]
        respelled = [
            line.replace(stamp, b'"formula_revision":true,'),
            line.replace(stamp, b'"formula_revision":"%d",' % cli.FORMULA_REVISION),
            line.replace(stamp, b'"formula_revision":%d.0,' % cli.FORMULA_REVISION),
            line.replace(dim, dim[:-1] + b".0,"),
            line.replace(dim, dim[:-1] + b"e0,"),
            line.replace(dim, b'"dim":NaN,'),
            line.replace(b"\n", b"\r\n"),
            line.replace(b"}\n", b"} \n"),
            b"\n",
        ]
        assert line not in respelled
        assert [cli._cache_line(other) for other in respelled] == [None] * len(respelled)

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
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..7", "--format", "json-lines", "--cache", str(cache)]
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
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--degree", "1..5", "--format", "json-lines", "--cache", str(cache)]
        first = run(capsys, *argv)
        written = cache.read_text(encoding="utf-8")
        entries = [json.loads(line) for line in written.splitlines()]
        assert [e["formula_revision"] for e in entries] == [cli.FORMULA_REVISION] * 3
        entries[0]["formula_revision"] = cli.FORMULA_REVISION - 1
        del entries[1]["formula_revision"]  # a line written before revisions were stamped: a bad line
        cache.write_text("".join(cli._dump_json(e) + "\n" for e in entries), encoding="utf-8")
        computed = []
        compute = cli._compute_record
        monkeypatch.setattr(cli, "_compute_record", lambda *a: computed.append(a) or compute(*a))
        code, out, err = run(capsys, *argv)
        assert code == 0 and out == first[1]
        assert len(computed) == 2  # only the third record is served from the cache
        assert "has 1 record(s) of another formula revision" in err
        assert "corrupt: dropped 1 bad line(s), kept 1 record(s)" in err
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
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--format", "json-lines", "--cache", str(cache)]
        assert run(capsys, *argv, "--degree", "1..5")[0] == 0
        before = cache.read_text(encoding="utf-8")
        assert len(before.splitlines()) == 3

        class FullDisk:
            """A file whose second record write fails with ENOSPC."""

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
        code, out, err = run(capsys, *argv, "--degree", "1..7")
        assert code == 0 and len(out.splitlines()) == 4
        assert "could not write cache file" in err
        assert cache.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_cache_synced_before_rename(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "records.jsonl"
        argv = ["table", "--target", "bundle-fixed", "--genus", "2", "--format", "json-lines", "--cache", str(cache)]
        assert run(capsys, *argv, "--degree", "1")[0] == 0
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
        code, out, err = run(capsys, *argv, "--degree", "1..5")
        assert (code, err) == (0, "") and len(synced) == 1
        assert len(cache.read_text(encoding="utf-8").splitlines()) == 3

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

    @pytest.mark.parametrize("options, choices", [
        (("--g", "2..3", "--d1", "1..9999", "--d2=-9999..0"), 2 * 9999 * 10000),
        (("--g", "2..3", "--d2=-625..0"), 2 * 626 * 8),  # eight default d1 values per d2
    ], ids=["d1-range", "default-d1"])
    def test_oversized_grid_refused(self, capsys, monkeypatch, options, choices):
        def never(*args, **kwargs):
            raise AssertionError("an oversized grid must be refused before it is built")

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
