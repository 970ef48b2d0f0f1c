"""The library names the benchmark uses, checked without running the benchmark.

``perfbench/tracing.py`` wraps library functions by name, and a traced run
stops with a KeyError once one of them is gone.  It is loaded here as a
plain module (``perfbench/run.py``, which pins the BLAS threads, is not).
The other ``perfbench`` files are only parsed: every ``qgpatch`` name they
import or read as ``module.attr`` must still resolve, since their own
tests run only under ``pytest perfbench``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from qgpatch import spectrum
from qgpatch.kernels import LayerParams

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _qgpatch_names(source: str) -> set[str]:
    """Dotted qgpatch names a file imports with ``from qgpatch... import``, or
    reads as attributes of a name so imported."""
    tree = ast.parse(source)
    bound = {}  # local name -> dotted qgpatch name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qgpatch":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    names = set(bound.values())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            names.add(f"{bound[node.value.id]}.{node.attr}")
    return names


def _resolves(dotted: str) -> bool:
    """The longest importable module prefix, then attribute lookups for the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    for part in parts[cut:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_perfbench_import_resolves():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names |= _qgpatch_names(path.read_text())
    # the walk sees imports inside functions and module attribute reads
    assert {
        "qgpatch.cli",
        "qgpatch.quadrature.k0_array",
        "qgpatch.spectrum.bessel_ik_product",
        "qgpatch.spectrum.kernel_vector",
        "qgpatch.quadrature.NEAR_COINCIDENT_TOL",
    } <= names
    assert sorted(n for n in names if not _resolves(n)) == []


def test_name_walk_flags_a_lost_name():
    source = "from qgpatch import quadrature\nquadrature.no_such_name\n"
    assert [n for n in _qgpatch_names(source) if not _resolves(n)] == [
        "qgpatch.quadrature.no_such_name"
    ]
