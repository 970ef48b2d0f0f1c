"""Spans around the public functions of each ``qgpatch`` layer.

Nothing under ``src/`` is edited.  ``Tracer.instrument`` wraps the functions
listed in ``TARGETS`` and rebinds every name in a ``qgpatch`` module that
refers to them, including the names a calling module imported with
``from ... import``; leaving the block restores the originals.  Each call
records a span (name, start, end, parent, attributes) in memory.  A span's
self time is its duration minus its children's.

Layers and the end-to-end metric each should move (README.md has the full
map):

* ``bessel``: ``bessel_ik_product`` (collide, vstate) and the array
  evaluators ``k0_array``, ``i0_and_regular_part``, ``i0_array`` (vstate,
  evolve).
* ``spectrum``: ``omega_pm`` and ``collision_scan`` (collide), ``matrix_m``
  (vstate).
* ``kernels``: ``gkj_coefficients``, counted only.
* ``quadrature``: ``kernel_integral_grid``, split by path into ``self``
  (Kussmaul-Martensen split) and ``cross`` (separated curves).
* ``contour``: ``branch_continue``, ``functional_f`` and ``vstate_solve``
  (vstate).
* ``dynamics``: ``evolve``, ``step_rk4``, ``layer_node_velocities``,
  ``PatchBoundary.validate``, ``resample_by_arclength``,
  ``rigid_rotation_residual`` (evolve).

The outermost library calls the CLI makes (``branch_continue``, ``evolve``,
``collision_scan``, ``rigid_rotation_residual``) are all wrapped, so the
library work between their inner spans, such as the area and gap checks of
the ``evolve`` loop, counts toward the library's layer and not the CLI's.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Callable

import numpy as np

from qgpatch import bessel, contour, dynamics, kernels, quadrature, spectrum


def _array_elems(args, kwargs) -> dict:
    return {"elems": int(np.size(args[0] if args else kwargs["z"]))}


def _grid_nodes(args, kwargs):
    """(z_tgt, z_src) of a kernel_integral_grid call."""
    z_tgt = args[3] if len(args) > 3 else kwargs["z_tgt"]
    z_src = args[4] if len(args) > 4 else kwargs["z_src"]
    return np.asarray(z_tgt), np.asarray(z_src)


def _grid_path(args, kwargs) -> str:
    # the same test kernel_integral_grid applies to pick its evaluation path
    z_tgt, z_src = _grid_nodes(args, kwargs)
    dmax = float(np.max(np.abs(z_tgt - z_src)))
    scale = float(np.mean(np.abs(z_src)))
    cross = dmax > quadrature.NEAR_COINCIDENT_TOL * scale
    return "quadrature.grid.cross" if cross else "quadrature.grid.self"


def _grid_entries(args, kwargs) -> dict:
    z_tgt, z_src = _grid_nodes(args, kwargs)
    return {"entries": z_tgt.size * z_src.size}


@dataclass(frozen=True)
class Target:
    owner: object              # module or class that defines the function
    attr: str
    name: str | Callable       # span name, or a function of (args, kwargs)
    before: Callable | None = None   # (args, kwargs) -> span attributes
    after: Callable | None = None    # result -> span attributes


TARGETS = (
    Target(bessel, "bessel_ik_product", "bessel.ik_product"),
    Target(bessel, "k0_array", "bessel.array", before=_array_elems),
    Target(bessel, "i0_and_regular_part", "bessel.array", before=_array_elems),
    Target(bessel, "i0_array", "bessel.array", before=_array_elems),
    Target(spectrum, "omega_pm", "spectrum.omega_pm"),
    Target(spectrum, "matrix_m", "spectrum.matrix_m"),
    Target(spectrum, "collision_scan", "spectrum.collision_scan",
           after=lambda records: {"roots": len(records)}),
    Target(kernels, "gkj_coefficients", "kernels.gkj_coefficients"),
    Target(quadrature, "kernel_integral_grid", _grid_path, before=_grid_entries),
    Target(contour, "branch_continue", "contour.branch_continue"),
    Target(contour, "functional_f", "contour.functional_f"),
    Target(contour, "vstate_solve", "contour.vstate_solve",
           after=lambda sol: {"iterations": sol.iterations}),
    Target(dynamics, "evolve", "dynamics.evolve"),
    Target(dynamics, "step_rk4", "dynamics.step_rk4"),
    Target(dynamics, "layer_node_velocities", "dynamics.layer_node_velocities"),
    Target(dynamics.PatchBoundary, "validate", "dynamics.validate"),
    Target(dynamics, "resample_by_arclength", "dynamics.resample"),
    Target(dynamics, "rigid_rotation_residual", "dynamics.rotation_residual"),
)

LAYERS = ("bessel", "spectrum", "kernels", "quadrature", "contour", "dynamics")


class Tracer:
    """In-memory spans: [name, start_ns, end_ns, parent_index, attributes]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, attrs or {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name = target.name(args, kwargs) if callable(target.name) else target.name
            index = tracer.open(name, target.before(args, kwargs) if target.before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if target.after:
                tracer.spans[index][4].update(target.after(result))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def instrument(self):
        """Wrap every target and rebind each name that refers to it."""
        namespaces = [
            mod.__dict__ for name, mod in list(sys.modules.items())
            if name == "qgpatch" or name.startswith("qgpatch.")
        ]
        rebound: list[tuple[object, str, Callable]] = []
        try:
            for target in TARGETS:
                original = target.owner.__dict__[target.attr]
                wrapper = self._wrap(original, target)
                if isinstance(target.owner, type):
                    rebound.append((target.owner, target.attr, original))
                    setattr(target.owner, target.attr, wrapper)
                    continue
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            rebound.append((ns, key, original))
                            ns[key] = wrapper
            yield self
        finally:
            for owner, key, original in reversed(rebound):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)


@dataclass
class SpanTotals:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    attrs: dict = field(default_factory=dict)


def span_totals(spans: list[list], root: int, end: int) -> dict[str, SpanTotals]:
    """Per-name calls, inclusive and self time, and summed attributes.

    ``spans[root]`` must be closed and ``spans[root + 1:end]`` the spans
    opened while it was open, so each of them descends from it.
    """
    child_ns = [0] * (end - root)
    for i in range(root + 1, end):
        child_ns[spans[i][3] - root] += spans[i][2] - spans[i][1]
    totals: dict[str, SpanTotals] = {}
    for i in range(root, end):
        name, start, stop, _, attrs = spans[i]
        entry = totals.setdefault(name, SpanTotals())
        entry.calls += 1
        entry.total_ns += stop - start
        entry.self_ns += stop - start - child_ns[i - root]
        for key, value in attrs.items():
            entry.attrs[key] = entry.attrs.get(key, 0) + value
    return totals


def op_layer_metrics(totals: dict[str, SpanTotals]) -> dict[str, float]:
    """The per-layer metrics of one traced op (see README.md for each)."""
    empty = SpanTotals()

    def get(name: str) -> SpanTotals:
        return totals.get(name, empty)

    def secs(ns: int) -> float:
        return ns * 1e-9

    ik, arr = get("bessel.ik_product"), get("bessel.array")
    omega, mat, scan = get("spectrum.omega_pm"), get("spectrum.matrix_m"), get("spectrum.collision_scan")
    g_self, g_cross = get("quadrature.grid.self"), get("quadrature.grid.cross")
    func, solve = get("contour.functional_f"), get("contour.vstate_solve")
    roots = scan.attrs.get("roots", 0)
    entries = g_self.attrs.get("entries", 0) + g_cross.attrs.get("entries", 0)
    iters = solve.attrs.get("iterations", 0)
    metrics = {
        "bessel.ik_product.calls": ik.calls,
        "bessel.ik_product.self_s": secs(ik.self_ns),
        "bessel.array.calls": arr.calls,
        "bessel.array.elems": arr.attrs.get("elems", 0),
        "bessel.array.self_s": secs(arr.self_ns),
        "spectrum.omega_pm.calls": omega.calls,
        "spectrum.omega_pm.self_s": secs(omega.self_ns),
        "spectrum.collision_scan.roots": roots,
        "spectrum.omega_pm_per_root": omega.calls / roots if roots else 0.0,
        "spectrum.matrix_m.calls": mat.calls,
        "spectrum.matrix_m.self_s": secs(mat.self_ns),
        "kernels.gkj_coefficients.calls": get("kernels.gkj_coefficients").calls,
        "quadrature.grid.self.calls": g_self.calls,
        "quadrature.grid.self.self_s": secs(g_self.self_ns),
        "quadrature.grid.cross.calls": g_cross.calls,
        "quadrature.grid.cross.self_s": secs(g_cross.self_ns),
        "quadrature.entries": entries,
        "quadrature.ns_per_entry": (
            (g_self.total_ns + g_cross.total_ns) / entries if entries else 0.0
        ),
        "contour.functional_f.calls": func.calls,
        "contour.functional_f.self_s": secs(func.self_ns),
        "contour.newton_iters": iters,
        "contour.evals_per_iter": func.calls / iters if iters else 0.0,
        "contour.vstate_solve.s": secs(solve.total_ns),
        "dynamics.evolve.self_s": secs(get("dynamics.evolve").self_ns),
        "dynamics.step_rk4.calls": get("dynamics.step_rk4").calls,
        "dynamics.step_rk4.s": secs(get("dynamics.step_rk4").total_ns),
        "dynamics.layer_node_velocities.calls": get("dynamics.layer_node_velocities").calls,
        "dynamics.layer_node_velocities.self_s": secs(get("dynamics.layer_node_velocities").self_ns),
        "dynamics.validate.s": secs(get("dynamics.validate").total_ns),
        "dynamics.resample.s": secs(get("dynamics.resample").total_ns),
        "dynamics.rotation_residual.s": secs(get("dynamics.rotation_residual").total_ns),
        "cli.self_s": secs(get("cli.main").self_ns),
        "trace.unattributed_s": secs(get("op").self_ns),
        "trace.op_s": secs(get("op").total_ns),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = secs(sum(
            t.self_ns for name, t in totals.items() if name.startswith(layer + ".")
        ))
    return metrics


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {key: float(median(op[key] for op in per_op)) for key in per_op[0]}


def layer_calls(totals: dict[str, SpanTotals], prefix: str) -> int:
    """Calls of every span named ``prefix`` or ``prefix.<anything>``."""
    return sum(
        t.calls for name, t in totals.items() if name == prefix or name.startswith(prefix + ".")
    )
