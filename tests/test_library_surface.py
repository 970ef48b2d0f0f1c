"""Public library names that no other library code uses, each with its reason.

``src/qgpatch`` is walked with ``ast``, the way ``test_perfbench_contract``
walks ``perfbench``.  A public module-level function or class counts as
used once other code in the library calls or reads it by its bare name in
its own module, imports it, or reads it as ``module.name`` off an imported
module; a method call of the same name (``spec.kernel_vector(...)``) does
not count.  The names left over are the reference routes the benchmark
pins, each listed in ``UNCALLED`` with the reason it stays; when the
benchmark moves to the array evaluators the list is what can be deleted.
"""

import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "qgpatch"

UNCALLED = {
    "bessel.i0_array": "perfbench/tracing.py traces it (TARGETS)",
    "quadrature.kernel_integral_grid": "perfbench/tracing.py traces it (TARGETS)",
    "spectrum.omega_pm": "perfbench/tracing.py traces it (TARGETS)",
    "spectrum.matrix_m": "perfbench/tracing.py traces it (TARGETS)",
    "spectrum.kernel_vector": "perfbench/make_reference.py reads it",
}


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _uses(module: str, tree: ast.Module) -> set[str]:
    """Dotted names ``module.name`` this module's code uses: bare names loaded
    outside their own definition, ``from`` imports of library modules and
    attribute reads off a library module it imported."""
    own = _public_definitions(tree)
    modules = {}  # local name -> library module it is bound to
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qgpatch")):
            for alias in node.names:
                if node.module in (None, "qgpatch"):  # from . import bessel
                    modules[alias.asname or alias.name] = alias.name
                else:  # from .bessel import name
                    used.add(f"{node.module.split('.')[-1]}.{alias.name}")
    inside = {id(n): name for name, d in own.items() for n in ast.walk(d) if n is not d}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own and inside.get(id(node)) != node.id:
                used.add(f"{module}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                used.add(f"{modules[node.value.id]}.{node.attr}")
    return used


def _uncalled(sources: dict[str, str]) -> set[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    defined = {f"{m}.{name}" for m, tree in trees.items() for name in _public_definitions(tree)}
    used = set().union(*(_uses(m, tree) for m, tree in trees.items()))
    return defined - used


def _library_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(LIBRARY.glob("*.py"))}


def test_every_uncalled_public_name_has_a_reason():
    assert sorted(_uncalled(_library_sources()) - set(UNCALLED)) == []


def test_every_listed_name_is_still_uncalled():
    assert sorted(set(UNCALLED) - _uncalled(_library_sources())) == []


def test_walk_tells_callers_from_same_named_methods():
    sources = {
        "alpha": (
            "def used_here():\n    return 1\n\n"
            "def recursive():\n    return recursive()\n\n"
            "def imported():\n    pass\n\n"
            "def read_off_module():\n    pass\n\n"
            "def method_only():\n    pass\n\n"
            "class Holder:\n    def method_only(self):\n        return used_here()\n"
        ),
        "beta": (
            "from . import alpha\n"
            "from .alpha import imported\n\n"
            "def run(obj):\n    obj.method_only()\n    return alpha.read_off_module\n"
        ),
    }
    assert _uncalled(sources) == {"alpha.recursive", "alpha.method_only", "alpha.Holder",
                                  "beta.run"}
