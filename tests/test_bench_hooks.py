"""The names the benchmark patches and calls by name exist in the package; its tracer installs and uninstalls.

``bench/`` is only read here.  A method or function that the tracer wraps by
name and that is removed from the package would otherwise show only when a
traced benchmark sample runs.
"""

import importlib.util
from pathlib import Path

from hodgetriples import laurent, triples
from hodgetriples.laurent import UV, TruncatedSeries, U, V

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # sample.py imports hostspeed from beside it
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_methods_exist(monkeypatch):
    spans = _load("spans", monkeypatch)
    missing = [name for name in spans._POLY_SPANS if name not in vars(laurent.LaurentPoly)]
    missing += [name for name in spans._SERIES_SPANS if name not in vars(TruncatedSeries)]
    missing += [name for name in spans._SERIES_CONSTRUCTORS if not hasattr(TruncatedSeries, name)]
    assert missing == []


def test_sampled_triples_calls_exist(monkeypatch):
    sample = _load("sample", monkeypatch)
    assert [name for name in sample.TRIPLES_CALLS if not callable(getattr(triples, name, None))] == []


def test_tracer_installs_and_uninstalls(monkeypatch):
    spans = _load("spans", monkeypatch)
    mul, series_mul = laurent.LaurentPoly.__mul__, TruncatedSeries.__mul__
    tracer = spans.Tracer()
    tracer.install()
    try:
        product = TruncatedSeries.geometric(UV, 2) * TruncatedSeries.binomial_power(U + V, 3, 2)
    finally:
        tracer.uninstall()
    assert product.coeff(1) == UV + 3 * (U + V)
    assert tracer.spans["laurent.series_mul"][0] == 1 and tracer.spans["laurent.mul"][0] > 0
    assert (laurent.LaurentPoly.__mul__, TruncatedSeries.__mul__) == (mul, series_mul)
