"""Benchmark of hodgetriples: four exact-arithmetic workloads.

    python3 bench/run.py --workload chamber-sweep --seed 3 --seconds 25 --trace 0

runs samples of one workload for about ``--seconds`` seconds, each sample
in a fresh interpreter (``sample.py``), so the package's lru caches start
cold as they do for a command-line user.  It prints a report with every
metric, its unit and the pass/fail of every correctness check, and as the
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` untraced and traced samples alternate and the metrics are
the per-layer ones, from the traced samples.  Every time is scaled to the
host's full speed with the probes of ``hostspeed.py``, taken in the same
process while the work runs, and the metric is the median over the run's
samples (over the start-up probes for ``setup_s``).  The report also
prints the raw times: min, median and max.

    python3 bench/run.py --self-test   # toy sizes: metric names, units, gate
    python3 bench/run.py --record      # rewrite reference.json (seed commit only)

Everything runs in one process at a time; nothing waits on a queue or a
lock, so the benchmark has no wait-time metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import NOMINAL_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORKLOADS = ("table-sweep", "chamber-sweep", "bundles-odd", "verify-grid")

# What first_s / second_s time on each workload.
STAGES = {
    "table-sweep": ("table_cold_s", "table_warm_s"),
    "chamber-sweep": ("sweep_closed_s", "sweep_sum_s"),
    "bundles-odd": ("bundles_closed_s", "bundles_via_triples_s"),
    "verify-grid": ("verify_structural_s", "verify_other_s"),
}

# Seeds whose per-layer counts reference.json records, per workload.
RECORD_SEEDS = {
    "table-sweep": range(2),
    "chamber-sweep": range(2),
    "bundles-odd": range(16),
    "verify-grid": range(10),
}

SETUP_PROBES = 15
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
PROBE = """import time
import hodgetriples
t = time.monotonic()
import statistics
from hostspeed import probe
print(t, statistics.median(probe() for _ in range(5)))"""


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the probe and sample interpreters inside one scratch directory."""

    def __init__(self, work: Path, reference: Path | None) -> None:
        self.work = work
        self.reference = reference
        self.env = {k: v for k, v in os.environ.items() if k != "HODGETRIPLES_CACHE"}
        self.env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(BENCH)))
        self.env["TMPDIR"] = str(work)

    def _start(self, argv: list[str]) -> tuple[float, str]:
        started = time.monotonic()
        try:
            done = subprocess.run(
                argv, env=self.env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{argv[1:4]} did not finish within {CHILD_TIMEOUT_S} s") from exc
        if done.returncode != 0 or not done.stdout.strip():
            raise BenchError(f"{argv[1:4]} exited with code {done.returncode}")
        return started, done.stdout.strip().splitlines()[-1]

    def setup_s(self) -> list[tuple[float, float]]:
        """(seconds, probe time) of interpreter start plus ``import hodgetriples``.

        The first probe also fills ``__pycache__`` and is dropped.
        """
        probes = []
        for _ in range(SETUP_PROBES + 1):
            started, line = self._start([sys.executable, "-c", PROBE])
            imported, probe_s = map(float, line.split())
            probes.append((imported - started, probe_s))
        return probes[1:]

    def sample(self, workload: str, seed: int, size: str, traced: bool) -> dict:
        argv = [sys.executable, str(BENCH / "sample.py"), "--workload", workload, "--seed", str(seed)]
        argv += ["--size", size, "--trace", str(int(traced)), "--work", str(self.work)]
        if self.reference is not None:
            argv += ["--reference", str(self.reference)]
        started, line = self._start(argv)
        result = json.loads(line)
        result["duration_s"] = time.monotonic() - started
        result["traced"] = traced
        raw, scaled = [0.0, 0.0], [0.0, 0.0]
        for stage, seconds, probe_s in result["ops"]:
            raw[stage] += seconds
            scaled[stage] += seconds * NOMINAL_S / probe_s
        result["first_s"], result["second_s"], result["wall_s"] = raw[0], raw[1], sum(raw)
        result["adjusted"] = {"first_s": scaled[0], "second_s": scaled[1], "wall_s": sum(scaled)}
        result["scale"] = sum(scaled) / sum(raw)
        return result

    def samples(self, workload: str, seed: int, seconds: float, trace: bool, size: str) -> list[dict]:
        """Samples until the next one would overrun ``seconds``; traced ones alternate with untraced."""
        deadline = time.monotonic() + seconds
        out: list[dict] = []
        longest = 0.0
        while len(out) < MIN_SAMPLES + trace or time.monotonic() + longest <= deadline:
            out.append(self.sample(workload, seed, size, traced=trace and len(out) % 2 == 1))
            longest = max(longest, out[-1]["duration_s"])
        return out


# -- metrics -------------------------------------------------------------------


def end_to_end(setup: list[tuple[float, float]], samples: list[dict]) -> dict[str, tuple[float, str]]:
    med = statistics.median
    metrics = {"setup_s": (med(t * NOMINAL_S / c for t, c in setup), "s")}
    for name in ("wall_s", "first_s", "second_s"):
        metrics[name] = (med(s["adjusted"][name] for s in samples), "s")
    metrics["peak_rss_mib"] = (med(s["rss_kib"] / 1024 for s in samples), "MiB")
    return metrics


def per_layer(samples: list[dict]) -> dict[str, tuple[float, str]]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]

    def scaled(value_of) -> float:
        """Median over the traced samples of a time, scaled to full host speed."""
        return statistics.median(value_of(s) * s["scale"] for s in traced)

    def self_s(sample: dict, span: str) -> float:
        return sample["trace"]["spans"].get(span, [0, 0.0, 0.0])[2]

    def ns_per(sample: dict, span: str, count: str) -> float:
        work = sample["trace"]["counts"][count]
        return self_s(sample, span) / work * 1e9 if work else 0.0

    counts = traced[0]["trace"]["counts"]
    metrics: dict[str, tuple[float, str]] = {name: (value, "count") for name, value in counts.items()}
    metrics["cli.cache_bytes"] = (counts["cli.cache_bytes"], "B")
    for op in ("mul", "div", "series_mul", "add"):
        metrics[f"laurent.{op}.self_s"] = (scaled(lambda s: self_s(s, f"laurent.{op}")), "s")
    metrics["laurent.mul.ns_per_term_pair"] = (
        scaled(lambda s: ns_per(s, "laurent.mul", "laurent.mul.term_pairs")), "ns"
    )
    metrics["laurent.div.ns_per_step"] = (scaled(lambda s: ns_per(s, "laurent.div", "laurent.div.steps")), "ns")
    lower = ("laurent", "blocks", "triples")
    for layer in lower:
        metrics[f"{layer}.self_s"] = (scaled(lambda s: s["trace"]["layers"][layer]), "s")
    metrics["entry.self_s"] = (scaled(lambda s: s["wall_s"] - sum(s["trace"]["layers"][n] for n in lower)), "s")
    traced_wall = statistics.median(s["adjusted"]["wall_s"] for s in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(s["adjusted"]["wall_s"] for s in plain), "s")
    return metrics


def count_mismatches(samples: list[dict]) -> list[str]:
    """Count names whose value differs between two traced samples of this run."""
    counts = [s["trace"]["counts"] for s in samples if s["traced"]]
    return sorted({name for c in counts[1:] for name in c if c[name] != counts[0][name]})


def tally(samples: list[dict]) -> dict[str, list[int]]:
    totals: dict[str, list[int]] = {}
    for s in samples:
        for name, (attempted, failed) in s["checks"].items():
            entry = totals.setdefault(name, [0, 0])
            entry[0] += attempted
            entry[1] += failed
    return totals


# -- report --------------------------------------------------------------------


def _spread(values: list[float]) -> str:
    return f"n={len(values)}  min {min(values):.4g}  median {statistics.median(values):.4g}  max {max(values):.4g}"


def print_report(workload, seed, samples, setup, metrics, checks, mismatched, reference) -> None:
    variant = samples[0]["variant"]
    traced = any(s["traced"] for s in samples)
    print(f"workload {workload}  seed {seed} ({variant})  {len(samples)} samples, each in a fresh interpreter")
    slowdown = [1 / s["scale"] for s in samples]
    print(f"  host slowdown against full speed (probe time / {NOMINAL_S} s): {_spread(slowdown)}")
    if not traced:
        first, second = STAGES[workload]
        aliases = {"first_s": first, "second_s": second}
        raw = {"setup_s": [t for t, _ in setup], "peak_rss_mib": [s["rss_kib"] / 1024 for s in samples]}
        for name in ("wall_s", "first_s", "second_s"):
            raw[name] = [s[name] for s in samples]
        print("  metric: median scaled to full host speed; then the raw values")
        for name, (value, unit) in metrics.items():
            alias = f" (= {aliases[name]})" if name in aliases else ""
            print(f"  {name + alias:34s} {value:.6g} {unit:4s} raw {_spread(raw[name])}")
    else:
        for name, (value, unit) in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            print(f"  {name:48s} {shown} {unit}")
        last = [s for s in samples if s["traced"]][-1]
        print("  per-function self time, last traced sample (s):")
        for name, (calls, total, own) in sorted(last["trace"]["spans"].items(), key=lambda kv: -kv[1][2])[:24]:
            print(f"    {name:48s} calls {calls:9d}  total {total:9.4f}  self {own:9.4f}")
        checks_s = {n: v[1] for n, v in last["trace"]["spans"].items() if n.startswith("verify.check.")}
        if checks_s:
            print("  per-check time, last traced sample (s):")
            for name, total in sorted(checks_s.items(), key=lambda kv: -kv[1]):
                print(f"    {name + '.s':48s} {total:.4f}")
        print("  heaviest caller -> callee edges, last traced sample:")
        for caller, callee, calls, total in last["trace"]["edges"]:
            print(f"    {caller} -> {callee}: {calls} calls, {total:.4f} s")
        if "cli_self_s" in last["details"]:
            cold, warm = last["details"]["cli_self_s"]
            print(f"  cli.main self time: cold {cold:.4f} s, warm {warm:.4f} s")
        baseline = reference.get(workload, {}).get("full", {}).get("counts", {}).get(variant)
        counts = last["trace"]["counts"]
        if baseline is None:
            print(f"  no reference counts recorded for {variant}")
        else:
            moved = {k: (baseline.get(k), v) for k, v in counts.items() if baseline.get(k) != v}
            print(f"  counts vs seed-commit reference: {len(counts) - len(moved)} equal, {len(moved)} differ")
            for name, (before, after) in moved.items():
                print(f"    {name}: {before} -> {after}")
        print("  (single-threaded: nothing waits on a queue or lock, so no wait-time metric is reported)")
    attempted = sum(a for a, _ in checks.values())
    failed = sum(f for _, f in checks.values())
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print("checks:")
    for name, (a, f) in checks.items():
        print(f"  {'PASS' if f == 0 else 'FAIL'} {name}: {a - f}/{a}")
    if traced:
        print(f"  {'FAIL' if mismatched else 'PASS'} exact counts repeat across traced samples" +
              (f": {', '.join(mismatched)} differ" if mismatched else ""))
    for s in samples:
        for problem in s["problems"]:
            print(f"  problem: {problem.splitlines()[-1] if problem else problem}")


# -- modes ---------------------------------------------------------------------


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple:
    start = time.monotonic()
    setup = runner.setup_s()
    samples = runner.samples(workload, seed, max(seconds - (time.monotonic() - start), 0.0), trace, size)
    metrics = per_layer(samples) if trace else end_to_end(setup, samples)
    checks = tally(samples)
    mismatched = count_mismatches(samples) if trace else []
    return samples, setup, metrics, checks, mismatched


def result_line(metrics, checks, mismatched) -> dict:
    attempted = sum(a for a, _ in checks.values())
    failed = sum(f for _, f in checks.values())
    return {
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def self_test(work: Path) -> int:
    """Toy sizes: every metric of BENCHMARK.json is emitted with its unit, and a wrong digest fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    runner = Runner(work, REFERENCE)
    for workload in WORKLOADS:
        for trace in (False, True):
            samples, _, metrics, checks, mismatched = measure(runner, workload, int(trace), 0, trace, "toy")
            line = result_line(metrics, checks, mismatched)
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {sorted(set(got) ^ set(wanted[trace]))} "
                                f"or their units differ from BENCHMARK.json")
            if not line["correct"]:
                problems.append(f"{workload} trace={int(trace)}: toy run not correct")
    tampered = json.loads(REFERENCE.read_text())
    for workload in WORKLOADS:
        for outputs in tampered[workload]["toy"]["outputs"].values():
            for key, value in outputs.items():
                if isinstance(value, str):
                    outputs[key] = "0" * len(value)
                elif isinstance(value, list):
                    outputs[key] = ["0" * len(v) for v in value]
    bad_reference = work / "tampered-reference.json"
    bad_reference.write_text(json.dumps(tampered))
    runner = Runner(work, bad_reference)
    for workload in WORKLOADS:
        sample = runner.sample(workload, 0, "toy", traced=False)
        if not any(failed for _, failed in sample["checks"].values()):
            problems.append(f"{workload}: a wrong reference digest did not fail the correctness gate")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test " + ("failed" if problems else "passed: every metric and unit emitted, wrong digests caught"))
    return 1 if problems else 0


def record(work: Path) -> int:
    """Write reference.json from the current code: run only on the commit that defines the outputs."""
    runner = Runner(work, None)
    reference: dict = {}
    for workload in WORKLOADS:
        for size in ("full", "toy"):
            entry = reference.setdefault(workload, {}).setdefault(size, {"outputs": {}, "counts": {}})
            for seed in RECORD_SEEDS[workload]:
                sample = runner.sample(workload, seed, size, traced=True)
                failed = [name for name, (_, f) in sample["checks"].items() if f]
                if failed:
                    raise BenchError(f"{workload} {size} seed {seed}: internal checks failed: {failed}")
                known = entry["outputs"].setdefault(sample["output_key"], sample["outputs"])
                if known != sample["outputs"]:
                    raise BenchError(f"{workload} {size}: outputs depend on the seed within {sample['output_key']}")
                entry["counts"][sample["variant"]] = sample["trace"]["counts"]
                print(f"recorded {workload} {size} seed {seed}", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.record):
        parser.error("give --workload, --self-test or --record")
    if not (ROOT / "src" / "hodgetriples" / "__init__.py").is_file():
        print(f"error: no hodgetriples package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.self_test:
            return self_test(work)
        if args.record:
            return record(work)
        reference = json.loads(REFERENCE.read_text())
        samples, setup, metrics, checks, mismatched = measure(
            Runner(work, REFERENCE), args.workload, args.seed, args.seconds, bool(args.trace), "full"
        )
        print_report(args.workload, args.seed, samples, setup, metrics, checks, mismatched, reference)
        print(json.dumps(result_line(metrics, checks, mismatched)))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()


if __name__ == "__main__":
    sys.exit(main())
