"""Regenerate ``data/reference.json``: the parameter points and their references.

    python3 perfbench/make_reference.py

Draws ``POINTS`` points uniformly from ``workloads.BOX`` with a fixed
generator seed, skips any whose b2 lies within ``workloads.CLEARANCE`` of an
m=2 or m=3 collision, and stores for each kept point the collision roots of
the ``collide`` workload, the kernel vector and angular velocities of the
``vstate`` branch, and the branch's last solution as the fixed initial
V-state of ``evolve``.  The references come from the library at the commit
that runs this script; rerunning it resets what the gates compare against.
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.ROOT / "src"))

import numpy as np  # noqa: E402

from qgpatch import spectrum  # noqa: E402
from qgpatch.contour import branch_continue  # noqa: E402
from qgpatch.kernels import LayerParams  # noqa: E402

GENERATOR_SEED = 20230929
POINTS = 16


def _point(params: LayerParams) -> dict | None:
    near = [
        rec for m in (2, 3)
        for rec in spectrum.collision_scan(params, m, n_max=16, grid=48)
        if abs(rec.b2_root - params.b2) < workloads.CLEARANCE * params.b1
    ]
    if near:
        return None
    col = workloads.COLLIDE
    roots = spectrum.collision_scan(params, col["m"], n_max=col["nmax"], grid=col["grid"])
    vs = workloads.VSTATE
    sign = -1 if vs["sign"] == "-" else 1
    branch = branch_continue(
        params, vs["m"], sign, vs["s_grid"], n_modes=vs["modes"], n_nodes=vs["nodes"]
    )
    if branch.failure or len(branch.solutions) != len(vs["s_grid"]):
        return None
    return {
        **params.as_dict(),
        "collide_roots": [[rec.n, rec.b2_root] for rec in roots],
        "kernel_vector": [float(v) for v in spectrum.kernel_vector(params, vs["m"], sign)],
        "branch_omegas": [sol.omega for sol in branch.solutions],
        "vstate_input": branch.solutions[-1].to_json_dict(),
    }


def main() -> int:
    rng = np.random.default_rng(GENERATOR_SEED)
    points = []
    while len(points) < POINTS:
        draw = {key: float(rng.uniform(lo, hi)) for key, (lo, hi) in workloads.BOX.items()}
        params = LayerParams(draw["delta"], draw["lambda"], 1.0, draw["b2"])
        point = _point(params)
        status = "kept" if point else "rejected (near a collision)"
        print(f"delta={params.delta:.4f} lambda={params.lam:.4f} b2={params.b2:.4f}: {status}")
        if point:
            points.append(point)
    payload = {
        "generator_seed": GENERATOR_SEED,
        "box": workloads.BOX,
        "clearance": workloads.CLEARANCE,
        "points": points,
    }
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(points)} points to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
