"""The names the benchmark tracer wraps, checked without running the benchmark.

``perfbench/tracing.py`` wraps library functions by name, and a traced run
stops with a KeyError once one of them is gone.  It is loaded here as a
plain module (``perfbench/run.py``, which pins the BLAS threads, is not).
"""

import importlib.util
import sys
from pathlib import Path

from qgpatch import spectrum
from qgpatch.kernels import LayerParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs; read-only,
    # so no bytecode cache is written next to it
    monkeypatch.setitem(sys.modules, spec.name, module)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
        for t in tracing.TARGETS
        if not callable(t.owner.__dict__.get(t.attr))
    ]
    assert missing == []


def test_omega_pm_makes_six_scalar_products(monkeypatch):
    calls = []
    product = spectrum.bessel_ik_product

    def counted(n, x, y):
        calls.append(n)
        return product(n, x, y)

    monkeypatch.setattr(spectrum, "bessel_ik_product", counted)
    spectrum.omega_pm(LayerParams(1.0, 1.0, 1.0, 0.7), 2)
    assert len(calls) == 6
