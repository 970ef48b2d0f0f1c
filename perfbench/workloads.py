"""The three benchmark workloads: their inputs, CLI arguments and output gates.

Each workload is one real ``qgpatch`` CLI job.  Its parameters come from a
table of points drawn once from a small box around (delta, lambda, b2) =
(1, 1, 0.7) with b1 = 1 (see ``make_reference.py``); the run's seed picks
the point.  The table also stores, for every point, the reference results
the gates compare against and the fixed V-state that ``evolve`` starts from,
so a later change to the library cannot alter a workload's input.

This module imports nothing from ``qgpatch``: the gates read only the files
an op wrote and the stored reference.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "reference.json"

WORKLOADS = ("collide", "vstate", "evolve")

# Box the parameter points are drawn from.  It keeps delta >= b2^2 (the
# proven regime) and make_reference.py rejects points whose b2 lies within
# CLEARANCE of an m=2 or m=3 collision, so every point solves.
BOX = {"delta": (0.9, 1.1), "lambda": (0.9, 1.1), "b2": (0.66, 0.74)}
CLEARANCE = 0.02

COLLIDE = {"m": 3, "nmax": 16, "grid": 48}
VSTATE = {
    "m": 2,
    "sign": "-",
    "nodes": 256,
    "modes": 16,
    "s_grid": (0.001, 0.002, 0.004, 0.008, 0.016, 0.032),
}
# 50 steps reach the first arclength redistribution (every 50 steps);
# snapshots at t = 0, 0.05 and 0.1 feed the rotation check.
EVOLVE = {"nodes": 256, "dt": 0.002, "t_end": 0.1, "snapshot_every": 25}

# Gate tolerances, taken from the acceptance criteria.
COLLIDE_RESIDUAL = 1e-12   # criterion 9's scan: |Omega_m^- - Omega_n^+| at a root
ROOT_TOL = 1e-9            # root position against the reference, times b1
VSTATE_RESIDUAL = 1e-10    # criterion 9: Newton residual
TANGENCY = 10.0            # criterion 9: tangency remainder <= TANGENCY * s^2
OMEGA_TOL = 1e-9           # branch angular velocity against the reference
AREA_DRIFT = 1e-4          # criterion 11
ROTATION = 5e-4            # criterion 10


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def point_for_seed(reference: dict, seed: int) -> dict:
    points = reference["points"]
    return points[seed % len(points)]


def _param_flags(point: dict) -> list[str]:
    return [
        "--delta", repr(point["delta"]),
        "--lambda", repr(point["lambda"]),
        "--b1", repr(point["b1"]),
        "--b2", repr(point["b2"]),
    ]


def prepare(workload: str, point: dict, workdir: Path) -> Path | None:
    """Write the workload's input files into workdir; returns the V-state file."""
    if workload != "evolve":
        return None
    path = workdir / "vstate_input.json"
    path.write_text(json.dumps({"solutions": [point["vstate_input"]]}))
    return path


def cli_argv(workload: str, point: dict, out: Path, vstate_input: Path | None) -> list[str]:
    """Arguments of one op, as a user would pass them to ``qgpatch``."""
    if workload == "collide":
        return ["collide", *_param_flags(point), "--m", str(COLLIDE["m"]),
                "--nmax", str(COLLIDE["nmax"]), "--grid", str(COLLIDE["grid"]),
                "--out", str(out)]
    if workload == "vstate":
        return ["vstate", *_param_flags(point), "--m", str(VSTATE["m"]),
                "--sign", VSTATE["sign"], "--nodes", str(VSTATE["nodes"]),
                "--modes", str(VSTATE["modes"]),
                "--s-grid", ",".join(repr(s) for s in VSTATE["s_grid"]),
                "--out", str(out)]
    if workload == "evolve":
        return ["evolve", *_param_flags(point), "--nodes", str(EVOLVE["nodes"]),
                "--dt", repr(EVOLVE["dt"]), "--t-end", repr(EVOLVE["t_end"]),
                "--snapshot-every", str(EVOLVE["snapshot_every"]),
                "--initial", f"vstate:{vstate_input}", "--check-rotation",
                "--out", str(out)]
    raise ValueError(f"unknown workload {workload!r}")


def check_output(workload: str, point: dict, out: Path) -> list[str]:
    """Gate one op's output files; returns the problems found (empty = pass)."""
    try:
        if workload == "collide":
            return _check_collide(point, json.loads((out / "collide.json").read_text()))
        if workload == "vstate":
            return _check_vstate(point, json.loads((out / "branch.json").read_text()))
        if workload == "evolve":
            return _check_evolve(json.loads((out / "manifest.json").read_text()))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    raise ValueError(f"unknown workload {workload!r}")


def _check_collide(point: dict, report: dict) -> list[str]:
    problems = []
    records = report["records"]
    for rec in records:
        if not (rec["residual"] <= COLLIDE_RESIDUAL or rec["tangency"]):
            problems.append(f"root n={rec['n']} residual {rec['residual']:.3e}")
    found = sorted((rec["n"], rec["b2_root"]) for rec in records)
    expected = sorted((n, root) for n, root in point["collide_roots"])
    if [n for n, _ in found] != [n for n, _ in expected]:
        problems.append(f"roots for modes {[n for n, _ in found]}, "
                        f"reference {[n for n, _ in expected]}")
    else:
        tol = ROOT_TOL * point["b1"]
        for (n, got), (_, want) in zip(found, expected):
            if not abs(got - want) <= tol:
                problems.append(f"root n={n} at {got!r}, reference {want!r}")
    return problems


def _check_vstate(point: dict, payload: dict) -> list[str]:
    problems = []
    if payload.get("failure"):
        problems.append(f"branch truncated: {payload['failure']}")
    solutions = payload["solutions"]
    amplitudes = [sol["amplitude"] for sol in solutions]
    if amplitudes != list(VSTATE["s_grid"]):
        problems.append(f"solved amplitudes {amplitudes}, expected {list(VSTATE['s_grid'])}")
        return problems
    for sol, omega_ref in zip(solutions, point["branch_omegas"]):
        s = sol["amplitude"]
        if not sol["residual"] <= VSTATE_RESIDUAL:
            problems.append(f"s={s}: residual {sol['residual']:.3e}")
        if not abs(sol["omega"] - omega_ref) <= OMEGA_TOL:
            problems.append(f"s={s}: omega {sol['omega']!r}, reference {omega_ref!r}")
    first = solutions[0]
    s = first["amplitude"]
    v1, v2 = point["kernel_vector"]
    remainder = max(
        [abs(first["coeffs_layer1"][0] - s * v1), abs(first["coeffs_layer2"][0] - s * v2)]
        + [abs(c) for c in first["coeffs_layer1"][1:] + first["coeffs_layer2"][1:]]
    )
    if not remainder <= TANGENCY * s * s:
        problems.append(f"tangency remainder {remainder:.3e} > {TANGENCY} s^2")
    return problems


def _check_evolve(manifest: dict) -> list[str]:
    problems = []
    if manifest["aborted"] is not None:
        problems.append(f"aborted: {manifest['aborted']}")
    diag = manifest["diagnostics"]
    if not diag["area_drift"] <= AREA_DRIFT:
        problems.append(f"area drift {diag['area_drift']:.3e}")
    if not diag["rotation_residual"] <= ROTATION:
        problems.append(f"rotation residual {diag['rotation_residual']:.3e}")
    return problems
