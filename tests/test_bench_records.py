"""Every committed benchmark record parses, and its claim names a workload and an end-to-end metric of the benchmark.

A ``BENCH_*.json`` file records the parent and change runs behind one
change's speed claim.  ``BENCHMARK.json``, which declares the workloads and
the end-to-end metrics, is only read here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.removeprefix("BENCH_")))
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in DECLARED["workloads"]}
END_TO_END = {metric["name"] for metric in DECLARED["end_to_end"]}


def test_records_committed():
    assert len(RECORDS) >= 17


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_claim_names_a_declared_workload_and_metric(path):
    """The record is a JSON object whose ``workloads`` are benchmark workloads; its ``claim`` is null, or names a
    workload it ran and an end-to-end metric, the only metrics a claim may rest on."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict) and "claim" in record
    assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
    claim = record["claim"]
    if claim is not None:
        assert claim["workload"] in WORKLOADS and claim["workload"] in record["workloads"]
        assert claim["metric"] in END_TO_END
