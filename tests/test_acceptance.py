"""Acceptance suite: every criterion is an exact symbolic identity.

Each test prints one pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import json
import random
import time
from fractions import Fraction

from hodgetriples import blocks, triples
from hodgetriples.cli import main
from hodgetriples.laurent import ONE, UV, U, V
from hodgetriples.triples import StabilityValue, TripleSpec
from hodgetriples.verify import VerifyGrid, residue_extract_check, run_suite

from test_blocks import sym_power_oracle

SV = StabilityValue.parse


class _criterion:
    def __init__(self, number, description):
        self.number = number
        self.description = description

    def __enter__(self):
        self.started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        elapsed = time.monotonic() - self.started
        print(f"[criterion {self.number:02d}] {status} ({elapsed:.2f}s) {self.description}")
        return False


def _grid_specs():
    for g in (2, 3):
        for d2 in (-2, -1, 0):
            for d1 in range(2 * d2 + 1, 2 * d2 + 9):
                yield TripleSpec(g, (2, 1), d1, d2)


def test_criterion_01_cross_pipeline():
    with _criterion(1, "closed chamber formula equals wall-contribution sum on the full grid") as c:
        for spec in _grid_specs():
            for sigma in triples.chamber_representatives(spec, include_beyond=True):
                closed = triples.hodge_triples_closed(spec, sigma)
                summed = triples.hodge_triples_sum(spec, sigma)
                assert closed == summed, (spec, str(sigma))
        assert time.monotonic() - c.started < 10.0


def test_criterion_02_smallest_pair_case():
    with _criterion(2, "smallest pair moduli: e = 1 + uv (fixed det), Jacobian factor otherwise"):
        fixed = triples.hodge_pairs(2, 1, SV("3/4"), fixed_det=True)
        assert fixed.poly == ONE + UV
        full = triples.hodge_pairs(2, 1, SV("3/4"))
        assert full.poly == (ONE + U) ** 2 * (ONE + V) ** 2 * (ONE + UV)


def test_criterion_03_bundle_routes_agree():
    with _criterion(3, "bundle moduli via triples equals the closed form, g in {2,3,4}, d in {1,3}") as c:
        for g in (2, 3, 4):
            for d in (1, 3):
                via = triples.hodge_bundles_via_triples(g, d)  # raises NotDivisible on any failure
                assert via == triples.hodge_bundles_odd(g, d).poly, (g, d)
        assert time.monotonic() - c.started < 30.0


def test_criterion_04_classical_genus2_fixture():
    with _criterion(4, "genus-2 fixed-determinant bundle moduli fixture"):
        res = triples.hodge_bundles_odd(2, 1, fixed_det=True)
        assert res.poly == ONE + UV + 2 * U**2 * V + 2 * U * V**2 + UV**2 + UV**3
        assert res.poly.diagonal().text() == "1 + t^2 + 4 t^3 + t^4 + t^6"


def test_criterion_05_thaddeus_agreement():
    with _criterion(5, "diagonal of the pair formula equals the one-variable Poincare formula"):
        for g in (2, 3):
            for d in range(1, 7):
                for tau in triples.pair_chamber_representatives(d):
                    fixed = triples.hodge_pairs(g, d, tau, fixed_det=True)
                    betti = triples.poincare_pairs_fixed_det_thaddeus(g, d, tau)
                    assert fixed.poly.diagonal() == betti, (g, d, str(tau))


def test_criterion_06_duality():
    pairs = [(1, 0), (2, 1), (3, 2), (2, 0), (3, 0), (1, -1), (2, -1), (4, 1), (3, 1), (5, 2)]
    with _criterion(6, "rank (1,2) equals the dual rank (2,1) family, chamber by chamber"):
        assert len(pairs) == 10
        for g in (2, 3):
            for d1, d2 in pairs:
                spec12 = TripleSpec(g, (1, 2), d1, d2)
                spec21 = spec12.dual()
                reps = triples.chamber_representatives(spec21, include_beyond=True)
                assert reps, (g, d1, d2)
                for sigma in reps:
                    left = triples.hodge_triples_closed(spec12, sigma)
                    right = triples.hodge_triples_closed(spec21, sigma)
                    assert left.poly == right.poly, (g, d1, d2, str(sigma))


def test_criterion_07_structural_invariants():
    with _criterion(7, "symmetry, palindrome duality, nonnegativity, top monomial, chamber constancy, ring laws"):
        for spec in _grid_specs():
            if spec.is_empty_family:
                continue
            walls = triples.critical_values(spec)
            bounds = [spec.sigma_m] + [sc for sc, _ in walls if sc > spec.sigma_m]
            for lo, hi in zip(bounds, bounds[1:]):
                first = StabilityValue(lo + (hi - lo) / 3)
                second = StabilityValue(lo + 2 * (hi - lo) / 3)
                res = triples.hodge_triples_closed(spec, first)
                assert res == triples.hodge_triples_closed(spec, second), "chamber constancy"
                if res.is_empty:
                    continue
                poly, n = res.poly, res.complex_dim
                assert poly.swap_uv() == poly
                assert poly.palindrome_dual(n) == poly
                assert all(c >= 0 for _, c in poly.terms())
                assert poly.coeff(n, n) == 1
        randomized = run_suite(
            VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1,), checks=("ring-laws", "geometric-series"))
        )
        assert len(randomized) >= 100
        assert all(r.status == "pass" for r in randomized)


def test_criterion_08_residue_extraction():
    with _criterion(8, "series and residue evaluations agree on seeded rational inputs"):
        assert residue_extract_check(2, 1, 2, 3, 0, 0) == (25, 25)
        rng = random.Random(20260809)
        cases = 0
        for g in (2, 3):
            while cases < 10 * (1 if g == 2 else 2):
                a, b, c = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3))
                if len({a, b, c}) < 3 or 0 in (a, b, c):
                    continue
                u0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                v0 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                series, residue = residue_extract_check(g, a, b, c, u0, v0)
                assert series == residue, (g, a, b, c, u0, v0)
                cases += 1
        assert cases >= 20


def test_criterion_09_symmetric_product_oracle():
    with _criterion(9, "symmetric powers match the independent convolution oracle"):
        for g in (2, 3):
            for k in range(9):
                assert blocks.sym_power(g, k) == sym_power_oracle(g, k), (g, k)
        assert blocks.sym_power(2, 1) == ONE + 2 * U + 2 * V + UV
        assert blocks.sym_power(2, 2).diagonal().text() == "1 + 4 t + 7 t^2 + 4 t^3 + t^4"


def test_criterion_10_cli_end_to_end(capsys, tmp_path):
    with _criterion(10, "CLI examples, exit codes, and warm-cache byte identity"):
        code = main(["compute", "pair-fixed", "--genus", "2", "--degree", "1", "--tau", "3/4", "--format", "text"])
        out = capsys.readouterr()
        assert code == 0 and out.out == "1 + uv\n"

        code = main(["compute", "pair-fixed", "--genus", "2", "--degree", "1", "--tau", "1"])
        out = capsys.readouterr()
        assert code == 2 and "tau=1 is a critical value; use 1+ or 1-" in out.err

        code = main(["compute", "bundle-fixed", "--genus", "2", "--degree", "1", "--poincare"])
        out = capsys.readouterr()
        assert code == 0 and out.out == "1 + t^2 + 4 t^3 + t^4 + t^6\n"

        cache = tmp_path / "acceptance-cache.jsonl"
        argv = [
            "table", "--target", "triple", "--genus", "2", "--d1", "1..4", "--d2=-1..0",
            "--format", "json-lines", "--cache", str(cache),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        for line in cold.strip().splitlines():
            record = json.loads(line)
            assert json.dumps(record, separators=(",", ":")) == line
    # one pass/fail line per criterion was printed above
