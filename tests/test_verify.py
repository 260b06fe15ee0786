import collections
import itertools

import pytest

from hodgetriples import blocks, laurent, triples, verify
from hodgetriples.laurent import ONE, LaurentPoly, TruncatedSeries, UniPoly, monomial
from hodgetriples.verify import CheckReport, VerifyGrid, run_suite, summarize

from test_blocks import sym_power_oracle

SMALL = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1, 2, 3, 4, 5))


class TestRunSuite:
    def test_small_grid_all_pass(self):
        reports = run_suite(SMALL)
        failures = [r for r in reports if r.status != "pass"]
        assert not failures, "\n".join(r.line() for r in failures)

    def test_empty_family_points_pass(self):
        grid = VerifyGrid(g_values=(2,), d2_values=(1,), d1_values=(0, 1), checks=("cross-pipeline",))
        reports = run_suite(grid)
        assert all(r.status == "pass" for r in reports)
        assert len(reports) == 2

    def test_deterministic_given_seed(self):
        first = run_suite(SMALL)
        second = run_suite(SMALL)
        assert [r.line() for r in first] == [r.line() for r in second]

    def test_seed_changes_randomized_cases(self):
        base = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1,), checks=("ring-laws",))
        other = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1,), checks=("ring-laws",), seed=1)
        assert [r.line() for r in run_suite(base)] == [r.line() for r in run_suite(base)]
        assert all(r.status == "pass" for r in run_suite(other))

    def test_subset_selection(self):
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1, 2), checks=("cross-pipeline",))
        reports = run_suite(grid)
        assert {r.check_name for r in reports} == {"cross-pipeline"}

    def test_unknown_check_rejected(self):
        grid = VerifyGrid(checks=("no-such-check",))
        with pytest.raises(ValueError, match="no-such-check"):
            run_suite(grid)

    def test_every_module_invariant_has_a_check(self):
        expected = {
            "ring-laws",
            "geometric-series",
            "division-roundtrip",
            "palindrome-involution",
            "diagonal-morphism",
            "proj-space-identity",
            "sym-oracle",
            "sym-structure",
            "chi-bilinear",
            "cross-pipeline",
            "flip-two-path",
            "chamber-constancy",
            "hodge-symmetry",
            "palindrome-duality",
            "top-monomial",
            "nonnegativity",
            "duality-rank12",
            "pairs-factorization",
            "fixed-det-factorization",
            "thaddeus",
            "bundles-two-routes",
            "residue",
        }
        assert expected <= set(verify.CHECKS)

    def test_per_check_runs_reproduce_full_run(self):
        grid = dict(g_values=(2,), d2_values=(0, 1), d1_values=(0, 1, 2, 3))
        full = [r.line() for r in run_suite(VerifyGrid(**grid))]
        one_by_one = [r.line() for name in sorted(verify.CHECKS) for r in run_suite(VerifyGrid(**grid, checks=(name,)))]
        assert one_by_one == full

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            VerifyGrid(g_values=())
        with pytest.raises(ValueError, match="nonempty"):
            VerifyGrid(d1_values=())
        with pytest.raises(ValueError, match="check list must be nonempty"):
            VerifyGrid(checks=())
        with pytest.raises(blocks.GenusOutOfRange):
            VerifyGrid(g_values=(1,))


def _bump(result, delta):
    """``result`` with ``delta(result)`` added to its polynomial; empty results pass through."""
    if result.is_empty:
        return result
    return triples.HodgeResult(result.poly + delta(result), result.complex_dim)


def _closed_drift(real):
    calls = itertools.count()
    return lambda spec, sigma: _bump(real(spec, sigma), lambda res: next(calls) * ONE)


def _index_drift(real):
    calls = itertools.count()
    return lambda spec, sigma: next(calls)


# (check, triples function replaced, breaker of the real function, the one expected report line);
# every case runs on the family g=2 d1=5 d2=0, pair degree 5.
FAULTS = [
    (
        "cross-pipeline",
        "hodge_triples_sum",
        lambda real: lambda spec, sigma: _bump(real(spec, sigma), lambda res: ONE),
        "FAIL cross-pipeline [g=2 d1=5 d2=0]: sigma=13/4: closed formula and wall sum differ",
    ),
    (
        "flip-two-path",
        "flip_difference_series",
        lambda real: lambda spec, d_m: ONE,
        "FAIL flip-two-path [g=2 d1=5 d2=0]: d_M=3: block product and series extraction differ",
    ),
    (
        "chamber-constancy",
        "hodge_triples_closed",
        _closed_drift,
        "FAIL chamber-constancy [g=2 d1=5 d2=0]: (5/2,4): results differ within one chamber",
    ),
    (
        "chamber-constancy",
        "chamber_d0",
        _index_drift,
        "FAIL chamber-constancy [g=2 d1=5 d2=0]: (5/2,4): chamber indices differ",
    ),
    (
        "hodge-symmetry",
        "hodge_triples_closed",
        lambda real: lambda spec, sigma: _bump(real(spec, sigma), lambda res: monomial(1, 1, 0)),
        "FAIL hodge-symmetry [g=2 d1=5 d2=0]: sigma=13/4: not u<->v symmetric",
    ),
    (
        "palindrome-duality",
        "hodge_triples_closed",
        lambda real: lambda spec, sigma: _bump(real(spec, sigma), lambda res: ONE),
        "FAIL palindrome-duality [g=2 d1=5 d2=0]: sigma=13/4: fails Poincare duality at n=9",
    ),
    (
        "top-monomial",
        "hodge_triples_closed",
        lambda real: lambda spec, sigma: _bump(
            real(spec, sigma), lambda res: monomial(1, res.complex_dim, res.complex_dim)
        ),
        "FAIL top-monomial [g=2 d1=5 d2=0]: sigma=13/4: top monomial is not (uv)^9",
    ),
    (
        "nonnegativity",
        "hodge_triples_closed",
        lambda real: lambda spec, sigma: _bump(real(spec, sigma), lambda res: -2 * res.poly),
        "FAIL nonnegativity [g=2 d1=5 d2=0]: sigma=13/4: negative coefficient",
    ),
    (
        "duality-rank12",
        "hodge_triples_closed",
        lambda real: lambda spec, sigma: _bump(
            real(spec, sigma), lambda res: ONE if spec.rank_pair == (1, 2) else 0 * ONE
        ),
        "FAIL duality-rank12 [g=2 (1,2) d1=0 d2=-5]: sigma=13/4: duality violated",
    ),
    (
        "pairs-factorization",
        "hodge_pairs",
        lambda real: lambda g, d, tau, fixed_det=False: _bump(real(g, d, tau, fixed_det), lambda res: ONE),
        "FAIL pairs-factorization [g=2 d1=5 d2=0]: sigma=13/4: Jac * pairs != triples",
    ),
    (
        "fixed-det-factorization",
        "hodge_pairs",
        lambda real: lambda g, d, tau, fixed_det=False: _bump(
            real(g, d, tau, fixed_det), lambda res: ONE if fixed_det else 0 * ONE
        ),
        "FAIL fixed-det-factorization [g=2 d=5]: tau=11/4: Jacobian factorization fails",
    ),
    (
        "thaddeus",
        "poincare_pairs_fixed_det_thaddeus",
        lambda real: lambda g, d, tau: real(g, d, tau) + UniPoly({0: 1}),
        "FAIL thaddeus [g=2 d=5]: tau=11/4: diagonal != Poincare formula",
    ),
]


def _raise_boom(real):
    def broken(g, d):
        raise ZeroDivisionError("boom")

    return broken


# (checks run, owner and attribute replaced, breaker of the real attribute, the first report
# lines that fail, the number that fail); every case runs on the grid g=2 d1=5 d2=0.
LOOP_FAULTS = [
    (
        ("sym-oracle", "sym-structure"),
        blocks,
        "sym_power",
        lambda real: lambda g, k: real(g, k) + (monomial(1, 1, 0) if (g, k) == (2, 2) else 0 * ONE),
        [
            "FAIL sym-oracle [g=2 k=0..8]: mismatch at k=[2]",
            "FAIL sym-structure [g=2 k<2g-1]: k=2 not symmetric",
        ],
        2,
    ),
    (
        ("proj-space-identity",),
        blocks,
        "proj_space",
        lambda real: lambda n: real(n) + (ONE if n == 4 else 0 * ONE),
        ["FAIL proj-space-identity [n=0..50]: fails at n=[4]"],
        1,
    ),
    (
        ("bundles-two-routes",),
        triples,
        "hodge_bundles_via_triples",
        lambda real: lambda g, d: real(g, d) + 1,
        [
            "FAIL bundles-two-routes [g=2 d=1]: triple route differs from closed form",
            "FAIL bundles-two-routes [g=2 d=3]: triple route differs from closed form",
        ],
        2,
    ),
    (
        ("bundles-two-routes",),
        triples,
        "hodge_bundles_via_triples",
        _raise_boom,
        [
            "FAIL bundles-two-routes [g=2 d=1]: unexpected ZeroDivisionError: boom",
            "FAIL bundles-two-routes [g=2 d=3]: unexpected ZeroDivisionError: boom",
        ],
        2,
    ),
    (
        ("residue",),
        verify,
        "residue_extract_check",
        lambda real: lambda *args: (real(*args)[0], real(*args)[1] + 1),
        [
            "FAIL residue [g=2 poles=(1,2,3) point=(0,0)]: fixture gave (Fraction(25, 1), Fraction(26, 1))",
            "FAIL residue [seed=0 g=2 case=0 poles=(-1,-3/4,1) point=(1,1/2)]: series 41/16 != residue 57/16",
        ],
        13,
    ),
    (
        ("diagonal-morphism",),
        LaurentPoly,
        "diagonal",
        lambda real: lambda self: real(self) * 2,
        ["FAIL diagonal-morphism [seed=0 case=0]: diagonal of product differs"],
        29,
    ),
]


class TestFaultInjection:
    @pytest.mark.parametrize(
        "check, target, breaker, expected", FAULTS, ids=[f"{c[0]}-{c[1]}" for c in FAULTS]
    )
    def test_broken_evaluator_reports_first_failure(self, monkeypatch, check, target, breaker, expected):
        monkeypatch.setattr(triples, target, breaker(getattr(triples, target)))
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(5,), checks=(check,))
        assert [r.line() for r in run_suite(grid)] == [expected]

    def test_broken_flip_series_is_detected(self, monkeypatch):
        monkeypatch.setattr(triples, "flip_difference_series", lambda spec, d_m: ONE)
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(2,), checks=("flip-two-path",))
        reports = run_suite(grid)
        assert any(r.status == "fail" for r in reports)
        assert "flip-two-path" in summarize(reports) or "failed" in summarize(reports)

    @pytest.mark.parametrize("fault, failed", [("running-sum", 45), ("series", 48)])
    def test_flip_two_path_reach_on_default_grid(self, monkeypatch, fault, failed):
        """flip-two-path fails on the default grid (48 families) under a fault that only the series side reaches:
        a running-sum quotient of more than 40 terms with its top coefficient raised by 1, which only the series
        side's division of its whole product by 1 - uv makes, or an off-by-one ``TruncatedSeries.rational``.  A
        series side that divides before it multiplies by e(Jac X)^2 takes its quotients short of 40 terms."""
        grid = VerifyGrid(checks=("flip-two-path",))
        if fault == "running-sum":
            quotient = laurent._running_sum_quotient

            def raised(terms, step, shift):
                quot = quotient(terms, step, shift)
                if quot is not None and len(quot) > 40:
                    quot[max(quot, key=lambda e: (e[0] + e[1], e[0]))] += 1
                return quot

            monkeypatch.setattr(laurent, "_running_sum_quotient", raised)
        else:
            rational = TruncatedSeries.rational

            class OffByOne:
                def __init__(self, series):
                    self.series = series

                def coeff(self, k):
                    return self.series.coeff(k) + 1

            monkeypatch.setattr(TruncatedSeries, "rational", lambda *args, **kwargs: OffByOne(rational(*args, **kwargs)))
        reports = run_suite(grid)
        assert len(reports) == 48 and sum(r.status == "fail" for r in reports) == failed

    @pytest.mark.parametrize("fault, failed", [
        ("core-uv", {
            "bundles-two-routes": 2, "chamber-constancy": 12, "cross-pipeline": 12, "duality-rank12": 12,
            "hodge-symmetry": 12, "nonnegativity": 12, "pairs-factorization": 12, "palindrome-duality": 12,
            "thaddeus": 4, "top-monomial": 12,
        }),
        ("one-v-step-short", {
            "bundles-two-routes": 4, "chamber-constancy": 48, "cross-pipeline": 48, "duality-rank12": 48,
            "fixed-det-factorization": 16, "flip-two-path": 48, "hodge-symmetry": 48, "nonnegativity": 48,
            "pairs-factorization": 48, "palindrome-duality": 48, "top-monomial": 48,
        }),
        ("uv-digit", {
            "bundles-two-routes": 4, "cross-pipeline": 48, "fixed-det-factorization": 16, "flip-two-path": 48,
            "pairs-factorization": 48, "thaddeus": 16,
        }),
    ], ids=["core-uv", "one-v-step-short", "uv-digit"])  # fmt: skip
    def test_closed_route_reach_on_default_grid(self, monkeypatch, fault, failed):
        """The checks that fail on the default grid (778 reports), and how often, under three faults of the closed
        route: the closed core given 1 more at uv when n >= 3; a shift-add kernel one 1 + v step short; and a kernel
        whose digit at uv reads 1 more.  The kernel shift-adds half of each closed square and mirrors it, and raises
        when row H + 1 is not the mirror of row dim - H - 1, so the core fault fails every check that evaluates
        such a core times e(Jac X)^k, k > 0, at the kernel's mirror check; thaddeus sees it on pairs of fixed
        determinant (k = 0), where the mirror check's rows miss it, as a diagonal that differs from Thaddeus's
        formula.  With the whole square read, only cross-pipeline 12, palindrome-duality 12, thaddeus 4 and
        bundles-two-routes 2 failed.  A fault in the low rows alone is
        mirrored into a palindrome: palindrome-duality, which failed 48 times under the uv-digit fault with the
        whole square read, passes, and cross-pipeline fails 48 times, not 36.  Both bundle routes reach the kernel
        through ``_diagonal_square``, the closed forms since they left the dict route, which took ``times_binomials``;
        bundles-two-routes evaluates the via-triples route first, which raises under each fault, so it fails as
        often as before, 2, 4 and 4 times."""
        if fault == "core-uv":
            core = triples._closed_diagonals

            def faulty(g, n, e2):
                runs = core(g, n, e2)
                if n < 3:
                    return runs
                return [(a, b, [coeffs[0], coeffs[1] + 1, *coeffs[2:]]) if (a, b) == (0, 0) else (a, b, coeffs)
                        for a, b, coeffs in runs]  # fmt: skip

            monkeypatch.setattr(triples, "_closed_diagonals", faulty)
        elif fault == "one-v-step-short":

            def faulty(packed, n, m, height, width, half):
                for shift in [8 * n] * max(m - 1, 0) + [8 * n * width] * m:
                    packed += packed << shift
                return laurent._balanced_digits(packed, n, height * width, half)

            monkeypatch.setattr(laurent, "_shift_adds", faulty)
        else:
            kernel = laurent._shift_adds

            def faulty(packed, n, m, height, width, half):
                digits = kernel(packed, n, m, height, width, half)
                digits[width + 1] += 1
                return digits

            monkeypatch.setattr(laurent, "_shift_adds", faulty)
        reports = run_suite(VerifyGrid())
        fails = [r for r in reports if r.status == "fail"]
        assert len(reports) == 778 and dict(collections.Counter(r.check_name for r in fails)) == failed
        if fault == "core-uv":
            mirror = [r.detail.endswith("the square is not a palindrome: internal inconsistency") for r in fails]
            assert mirror == [r.check_name != "thaddeus" for r in fails]

    def test_broken_series_expansion_is_detected(self, monkeypatch):
        """A fault in ``TruncatedSeries.rational`` reaches only the series side of flip-two-path, so the check sees it."""
        rational = TruncatedSeries.rational

        class OffByOne:
            def __init__(self, series):
                self.series = series

            def coeff(self, k):
                return self.series.coeff(k) + 1

        monkeypatch.setattr(TruncatedSeries, "rational", lambda *args, **kwargs: OffByOne(rational(*args, **kwargs)))
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(5,), checks=("flip-two-path",))
        reports = run_suite(grid)
        assert [r.status for r in reports] == ["fail"]

    def test_broken_series_expansion_fails_sym_oracle(self, monkeypatch):
        """sym-oracle holds ``sym_power`` to the series expansion of its generating function, so an off-by-one series fails it."""
        rational = TruncatedSeries.rational

        class OffByOne:
            def __init__(self, series):
                self.series = series

            def coeff(self, k):
                return self.series.coeff(k) + 1

        grid = VerifyGrid(g_values=(2, 3), d2_values=(0,), d1_values=(1,), checks=("sym-oracle",))
        assert [r.line() for r in run_suite(grid)] == ["PASS sym-oracle [g=2 k=0..8]", "PASS sym-oracle [g=3 k=0..8]"]
        monkeypatch.setattr(TruncatedSeries, "rational", lambda *args, **kwargs: OffByOne(rational(*args, **kwargs)))
        assert [r.line() for r in run_suite(grid)] == [
            "FAIL sym-oracle [g=2 k=0..8]: mismatch at k=[0, 1, 2]",
            "FAIL sym-oracle [g=3 k=0..8]: mismatch at k=[0, 1, 2]",
        ]

    def test_broken_sym_power_is_detected(self, monkeypatch):
        real = blocks.sym_power.__wrapped__

        def wrong(g, k):
            return real(g, k) + (ONE if k == 2 else 0 * ONE)

        monkeypatch.setattr(blocks, "sym_power", wrong)
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(1,), checks=("sym-oracle",))
        reports = run_suite(grid)
        assert any(r.status == "fail" for r in reports)

    @pytest.mark.parametrize(
        "checks, owner, attr, breaker, expected, failed",
        LOOP_FAULTS,
        ids=["sym_power", "proj_space", "bundles-differ", "bundles-raise", "residue", "diagonal"],
    )
    def test_fault_report_lines(self, monkeypatch, checks, owner, attr, breaker, expected, failed):
        real = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, breaker(getattr(real, "__wrapped__", real)))
        grid = VerifyGrid(g_values=(2,), d2_values=(0,), d1_values=(5,), checks=checks)
        lines = [r.line() for r in run_suite(grid) if r.status != "pass"]
        assert lines[: len(expected)] == expected
        assert len(lines) == failed


class TestOracle:
    def test_matches_block_on_sample(self):
        assert sym_power_oracle(2, 3) == blocks.sym_power(2, 3)

    def test_sym0_is_point(self):
        assert sym_power_oracle(3, 0) == ONE


class TestReportFormatting:
    def test_line_layout(self):
        ok = CheckReport("residue", "g=2 case=0", "pass")
        bad = CheckReport("residue", "g=2 case=1", "fail", "series 1 != residue 2")
        assert ok.line() == "PASS residue [g=2 case=0]"
        assert bad.line() == "FAIL residue [g=2 case=1]: series 1 != residue 2"

    def test_summary(self):
        reports = [CheckReport("a", "", "pass"), CheckReport("b", "", "fail", "boom")]
        assert summarize(reports) == "2 checks: 1 passed, 1 failed"
