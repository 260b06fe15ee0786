"""One benchmark sample: run a workload once, in this fresh interpreter.

Started by ``run.py``; prints one JSON object on stdout.  Each workload has
two timed stages, each a list of operations (a chamber, a table pass, a
verify check).  While they run, ``hostspeed.SpeedSampler`` probes the
host's speed every 50 ms; operation times exclude the probes.  Outputs are
checked only after the last stage (and after the tracer is removed), so
checking neither costs time nor adds to the traced counts.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import traceback

from hodgetriples import cli, triples, verify
from hostspeed import SpeedSampler

# Checks of the verify suite that test structural properties (symmetry,
# duality, top monomial, signs, constancy) of closed-formula results: four
# of them repeat one loop.  They form the first stage of verify-grid; the
# cross-pipeline and algebra checks form the second.
STRUCTURAL_CHECKS = frozenset(
    {"hodge-symmetry", "palindrome-duality", "top-monomial", "nonnegativity", "chamber-constancy"}
)

# Probes of host speed averaged for one operation or group of short ones.
MIN_PROBES = 4

TRIPLES_CALLS = (
    "hodge_triples_closed",
    "hodge_triples_sum",
    "flip_difference",
    "flip_difference_series",
    "hodge_pairs",
    "poincare_pairs_fixed_det_thaddeus",
    "hodge_bundles_odd",
    "hodge_bundles_via_triples",
)

SIZES = {
    "full": {
        "table-sweep": {"genus": "2..4", (2, 1): ("1..20", "-2..0"), (1, 2): ("0..2", "-20..-1")},
        "chamber-sweep": {"g": 6, (2, 1): (40, 0), (1, 2): (0, -40)},
        "bundles-odd": {"g_closed": 24, "g_via": 12},
        "verify-grid": {"g_values": (2, 3, 4), "d2_values": (-2, -1, 0)},
    },
    "toy": {
        "table-sweep": {"genus": "2", (2, 1): ("1..4", "-1..0"), (1, 2): ("0..1", "-4..-1")},
        "chamber-sweep": {"g": 2, (2, 1): (6, 0), (1, 2): (0, -6)},
        "bundles-odd": {"g_closed": 4, "g_via": 3},
        "verify-grid": {"g_values": (2,), "d2_values": (0,)},
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rank_for(seed: int) -> tuple[int, int]:
    """Even seeds use rank (2,1), odd seeds the isomorphic dual family (1,2)."""
    return (2, 1) if seed % 2 == 0 else (1, 2)


def output_key(workload: str, seed: int) -> str:
    """The key of the reference outputs: the table echoes its request, so it has one per rank."""
    return variant(workload, seed) if workload == "table-sweep" else "any"


def variant(workload: str, seed: int) -> str:
    """The key of the generated inputs; reference counts are stored per key."""
    if workload in ("table-sweep", "chamber-sweep"):
        return "rank=%d,%d" % rank_for(seed)
    if workload == "bundles-odd":
        return f"d={2 * (seed % 16) + 1}"
    return f"seed={seed}"


class Sample:
    """Timed operations of one workload run plus the correctness bookkeeping."""

    def __init__(self) -> None:
        self.checks: dict[str, list[int]] = {}  # check name -> [attempted, failed]
        self.problems: list[str] = []
        self.sampler = SpeedSampler()
        self.ops: list[tuple[int, float, int, int]] = []  # stage, seconds, first and end probe index

    def run(self, stage: int, fn, *args, **kwargs):
        """Time one operation of ``stage`` (0 or 1); returns the result, or a traceback string."""
        first = len(self.sampler.times)
        start = self.sampler.clock()
        result = _attempt(fn, *args, **kwargs)
        self.ops.append((stage, self.sampler.clock() - start, first, len(self.sampler.times)))
        return result

    def timed_ops(self) -> list[tuple[int, float, float]]:
        """(stage, seconds, mean probe time) per operation.

        Consecutive operations of a stage share the probes that ran during
        them, in groups of at least MIN_PROBES; a group with fewer borrows
        the nearest probes before and after it.
        """
        times = self.sampler.times
        out: list[tuple[int, float, float]] = []
        group: list[tuple[int, float, int, int]] = []
        for op in [*self.ops, None]:
            if group and (op is None or op[0] != group[0][0] or group[-1][3] - group[0][2] >= MIN_PROBES):
                lo, hi = group[0][2], group[-1][3]
                while hi - lo < MIN_PROBES and (lo > 0 or hi < len(times)):
                    lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
                mean = sum(times[lo:hi]) / (hi - lo)
                out.extend((stage, seconds, mean) for stage, seconds, _, _ in group)
                group = []
            if op is not None:
                group.append(op)
        return out

    def expect(self, check: str, ok: bool, operations: int, problem: str) -> None:
        """Count ``operations`` checked outputs; all of them fail when ``ok`` is false."""
        tally = self.checks.setdefault(check, [0, 0])
        tally[0] += operations
        if not ok:
            tally[1] += operations
            self.problems.append(problem)

    # -- workloads ---------------------------------------------------------

    def table_sweep(self, size: dict, seed: int, work: str, tracer):
        rank = rank_for(seed)
        d1, d2 = size[rank]
        cache = os.path.join(work, f"cache-{os.getpid()}.jsonl")
        argv = [
            "table", "--target", "triple", "--rank", "%d,%d" % rank, "--genus", size["genus"],
            "--d1", d1, f"--d2={d2}", "--poincare", "--cache", cache,
        ]  # fmt: skip
        outputs, codes, cli_self = [], [], []
        for stage in (0, 1):  # cold, then warm on the same cache
            buffer = io.StringIO()
            closed_before = tracer.spans["triples.hodge_triples_closed"][0] if tracer else 0
            cli_before = tracer.spans["cli.main"][2] if tracer else 0.0
            with contextlib.redirect_stdout(buffer):
                codes.append(self.run(stage, cli.main, argv))
            outputs.append(buffer.getvalue())
            if tracer:
                lines = outputs[-1].count("\n")
                closed = tracer.spans["triples.hodge_triples_closed"][0] - closed_before
                cli_self.append(tracer.spans["cli.main"][2] - cli_before)
                tracer.counts["cli.records"] += lines
                tracer.counts["cli.cache_hits"] += max(lines - closed, 0)
        cache_bytes = os.path.getsize(cache) if os.path.exists(cache) else 0
        if os.path.exists(cache):
            os.unlink(cache)

        def check(ref):
            cold, warm = outputs
            produced = {"stdout_sha256": digest(cold), "records": cold.count("\n")}
            records = (ref or produced)["records"]
            self.expect("cold table exits 0", codes[0] == 0, records, f"cold table exited with {codes[0]!r}")
            if ref:
                self.expect("cold stdout matches digest", produced == ref, records, "cold stdout digest differs")
            ok = codes[1] == 0 and warm == cold
            self.expect("warm stdout == cold stdout", ok, records, f"warm table exited with {codes[1]!r} or differs")
            self.expect("cache file written", cache_bytes > 0, 1, "table cache file was not written")
            return produced

        if tracer:
            tracer.counts["cli.cache_bytes"] = cache_bytes
        return check, {"cli_self_s": cli_self}

    def chamber_sweep(self, size: dict, seed: int, work: str, tracer):
        rank = rank_for(seed)
        spec = triples.TripleSpec(size["g"], rank, *size[rank])
        reps = self.run(0, triples.chamber_representatives, spec, include_beyond=True)
        if isinstance(reps, str):
            self.problems.append(reps)
            reps = []
        closed = [self.run(0, triples.hodge_triples_closed, spec, sigma) for sigma in reps]
        summed = [self.run(1, triples.hodge_triples_sum, spec, sigma) for sigma in reps]

        def check(ref):
            texts = [None if isinstance(c, str) else digest(c.poly.text()) for c in closed]
            expected = ref["chambers"] if ref else texts
            ok = len(texts) == len(expected)
            self.expect("chamber count", ok, max(len(expected), 1), f"{len(texts)} chambers, expected {len(expected)}")
            for sigma, c, s, text, want in zip(reps, closed, summed, texts, expected):
                ok = text is not None and text == want
                problem = f"closed sigma={sigma}: {c if isinstance(c, str) else 'digest differs'}"
                self.expect("closed matches digest", ok, 1, problem)
                ok = not isinstance(s, str) and s == c
                problem = f"wall sum sigma={sigma}: {s if isinstance(s, str) else 'differs from closed'}"
                self.expect("wall sum == closed", ok, 1, problem)
            return {"chambers": texts}

        return check, {}

    def bundles_odd(self, size: dict, seed: int, work: str, tracer):
        d = 2 * (seed % 16) + 1
        g, g_via = size["g_closed"], size["g_via"]
        full = self.run(0, triples.hodge_bundles_odd, g, d)
        fixed = self.run(0, triples.hodge_bundles_odd, g, d, fixed_det=True)
        via = self.run(1, triples.hodge_bundles_via_triples, g_via, d)

        def check(ref):
            produced = {
                "full": None if isinstance(full, str) else digest(full.poly.text()),
                "fixed": None if isinstance(fixed, str) else digest(fixed.poly.text()),
                "via": None if isinstance(via, str) else digest(via.text()),
            }
            want = ref or produced
            for label, value in (("full", full), ("fixed", fixed)):
                ok = produced[label] is not None and produced[label] == want[label]
                problem = f"closed {label} d={d}: {value if isinstance(value, str) else 'digest differs'}"
                self.expect(f"closed {label} matches digest", ok, 1, problem)
            closed_via = _attempt(triples.hodge_bundles_odd, g_via, d)
            ok = not isinstance(via, str) and not isinstance(closed_via, str) and via == closed_via.poly
            problem = f"via triples d={d}: {via if isinstance(via, str) else 'differs from closed form'}"
            self.expect("via triples == closed form", ok, 1, problem)
            self.expect("via triples matches digest", produced["via"] == want["via"], 1, "via digest differs")
            return produced

        return check, {}

    def verify_grid(self, size: dict, seed: int, work: str, tracer):
        """The full suite, one check per call (a subset reproduces the reports of a full run)."""
        names = sorted(set(verify.CHECKS) & STRUCTURAL_CHECKS) + sorted(set(verify.CHECKS) - STRUCTURAL_CHECKS)
        reports = []
        for name in names:
            grid = verify.VerifyGrid(size["g_values"], size["d2_values"], checks=(name,), seed=seed)
            result = self.run(int(name not in STRUCTURAL_CHECKS), verify.run_suite, grid)
            if isinstance(result, str):
                self.problems.append(result)
            else:
                reports.extend(result)

        def check(ref):
            fixed_lines = sorted(r.line() for r in reports if "seed=" not in r.parameters)
            produced = {"reports": len(reports), "fixed_lines_sha256": digest("\n".join(fixed_lines))}
            failed = [r.line() for r in reports if r.status != "pass"]
            expected = (ref or produced)["reports"]
            missing = max(expected - len(reports), 0)
            self.checks["verify reports pass"] = [expected, min(len(failed) + missing, expected)]
            self.problems.extend(failed[:5])
            if ref:
                problem = f"{len(reports)} reports, or their seed-independent lines, differ from the reference"
                self.expect("reports match digest", produced == ref, expected, problem)
            if tracer:
                tracer.counts["verify.reports"] = len(reports)
                tracer.counts["verify.failed"] = len(failed)
            return produced

        return check, {}


def _attempt(fn, *args, **kwargs):
    """The result, or a short traceback string when the call raised."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # recorded as a failed operation by the caller
        return traceback.format_exc(limit=3)


def trace_figures(tracer) -> dict:
    spans = tracer.spans
    counts = {
        "laurent.mul.calls": spans["laurent.mul"][0],
        "laurent.mul.term_pairs": tracer.counts["laurent.mul.term_pairs"],
        "laurent.div.calls": spans["laurent.div"][0],
        "laurent.div.steps": tracer.counts["laurent.div.steps"],
        "laurent.div.not_divisible": tracer.counts["laurent.div.not_divisible"],
        "laurent.series_mul.calls": spans["laurent.series_mul"][0],
        "laurent.add.calls": spans["laurent.add"][0],
    }
    cache = tracer.cache_figures()
    for name in ("sym_power", "jacobian", "proj_space"):
        counts[f"blocks.{name}.calls"] = spans[f"blocks.{name}"][0]
        counts[f"blocks.{name}.cache_hits"] = cache[f"blocks.{name}.cache_hits"]
        counts[f"blocks.{name}.cache_misses"] = cache[f"blocks.{name}.cache_misses"]
    for name in TRIPLES_CALLS:
        counts[f"triples.{name}.calls"] = spans[f"triples.{name}"][0]
    for name in ("verify.reports", "verify.failed", "cli.records", "cli.cache_hits", "cli.cache_bytes"):
        counts[name] = tracer.counts[name]
    layers = {layer: tracer.layer_self(layer) for layer in ("laurent", "blocks", "triples", "verify", "cli")}
    edges = sorted(tracer.edges.items(), key=lambda item: -item[1][1])[:12]
    return {
        "counts": counts,
        "layers": layers,
        "spans": {name: stats for name, stats in spans.items() if stats[0]},
        "edges": [[caller or "(workload)", callee, calls, total] for (caller, callee), (calls, total) in edges],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", help="reference.json with the recorded outputs (omit to record them)")
    parser.add_argument("--work", required=True, help="scratch directory for the table cache")
    args = parser.parse_args()

    ref = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as handle:
            ref = json.load(handle)[args.workload][args.size]["outputs"][output_key(args.workload, args.seed)]
    sample = Sample()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(sample.sampler.clock)
        tracer.install()
    body = getattr(sample, args.workload.replace("-", "_"))
    with sample.sampler:
        check, details = body(SIZES[args.size][args.workload], args.seed, args.work, tracer)
    if tracer:
        tracer.uninstall()
    outputs = check(ref)
    result = {
        "variant": variant(args.workload, args.seed),
        "output_key": output_key(args.workload, args.seed),
        "outputs": outputs,
        "ops": sample.timed_ops(),
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "checks": sample.checks,
        "problems": sample.problems[:10],
        "details": details,
    }
    if tracer:
        result["trace"] = trace_figures(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
