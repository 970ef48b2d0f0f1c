"""Command-line front end: spectrum | collide | vstate | evolve | verify.

The one process boundary: settings in, artifacts out, exceptions to exit
codes.  Settings come from an optional key=value config file plus flags;
flags win.  ``_SETTINGS`` gives each key one converter, which checks the
value, and a default; a flag's text and a config value's text go through
it once, and only for the keys the running command reads, so one config
file can serve every command.  ``evolve --initial vstate:<file>`` takes
delta, lambda, b1, b2 and the node count from the file, ``csv:<file>``
its node count; an explicit value that differs is refused.  So is an
explicit b1, b2, m or grid, from a flag or the config file, in ``collide
--equal-radii``, which would not read it.  A V-state evolves on its
fundamental domain, the fold g = gcd(m, N) of ``dynamics.evolve``, and so
stays in its m-fold subspace; the manifest records ``fold`` (null for
discs and ``csv:`` inputs, which evolve the full grid).  The ``collide`` scan covers
b2 in (0, b1) and reads no ``--b2``; each ``collide.json`` record says
whether its own root lies in the proven regime.  Only this module writes
files or creates directories: every artifact goes through ``_write_json``
or ``_write_csv`` (one % template per table, floats to 17 significant
digits), so reruns are byte-identical, and the writer creates ``--out``
with the first artifact, so a run refused before it leaves no directory.
The argument parser is built on the first ``main`` call and reused by every
later one in the process; nothing else carries over from one call to the
next: each call reads its own flags and config file and writes its own
artifacts.

Exit codes: 0 success, 1 numeric failure (``NumericFailure``, which a
singular Newton solve raises too, or ``ArithmeticError``), 2 configuration
error (``ValueError``), 3 refused (spectral collision at the requested
parameters).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dynamics, spectrum
from .contour import S_MAX, CollisionDetectedError, VStateSolution, branch_continue
from .dynamics import EvolutionState, PatchBoundary
from .kernels import LayerParams
from .quadrature import NumericFailure
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_COLLISION = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Settings
# ---------------------------------------------------------------------------


def _at_least(minimum: int):
    def convert(text: str) -> int:
        if (value := int(text)) < minimum:
            raise ValueError(f"must be >= {minimum}")
        return value

    return convert


def _positive(text: str) -> float:
    if (value := float(text)) <= 0:
        raise ValueError("must be > 0")
    return value


def _sign(text: str) -> int:
    if text in ("+", "+1", "1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise ValueError(f"must be + or -, got {text!r}")


def _amplitudes(text: str) -> list[float]:
    s_grid = [float(v) for v in text.split(",") if v.strip()]
    if not s_grid:
        raise ValueError("is empty")
    if any(abs(s) > S_MAX for s in s_grid):
        raise ValueError(f"has amplitudes beyond the cap S_MAX = {S_MAX}")
    return s_grid


def _initial(text: str) -> tuple[str, str]:
    kind, colon, path = text.partition(":")
    if text != "discs" and not (colon and kind in ("vstate", "csv")):
        raise ValueError("must be discs, vstate:<path> or csv:<path>")
    return kind, path


_PARAM_FLAGS = ("b1", "b2", "delta", "lambda")
# key -> (converter of its text, default value)
_SETTINGS = {
    **dict.fromkeys(_PARAM_FLAGS, (float, 1.0)),
    "nmax": (_at_least(1), 16),
    "m": (_at_least(1), 2),
    "sign": (_sign, 1),
    "s_grid": (_amplitudes, [0.001]),
    "t_end": (_positive, 1.0),
    "dt": (lambda text: _positive(text) if text else None, None),
    "nodes": (_at_least(64), 256),
    "modes": (_at_least(8), 16),
    "grid": (_at_least(16), 64),
    "snapshot_every": (_at_least(1), 50),
    "initial": (_initial, ("discs", "")),
    "out": (Path, Path(".")),
    "suite": (str, "all"),
}


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    unknown = set(out) - set(_SETTINGS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return out


def _settings(args: argparse.Namespace, keys) -> tuple[dict, set[str]]:
    """(the converted values of keys, the keys given by the config file or a flag)."""
    given = _load_config_file(args.config) if args.config else {}
    given.update((key, text) for key in keys if (text := getattr(args, key)) is not None)
    settings = {}
    for key in keys:
        convert, default = _SETTINGS[key]
        try:
            settings[key] = convert(given[key]) if key in given else default
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return settings, set(given)


def _params_from(settings: dict) -> LayerParams:
    return LayerParams(settings["delta"], settings["lambda"], settings["b1"], settings["b2"])


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

_FORMATS = {"int": "%d", "bool": "%d", "float": "%.17g"}


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, columns: dict[str, str], values: list) -> None:
    """A header of the column names, then the values row by row, len(columns)
    to a row, all formatted by one % template of the columns' formats."""
    template = ",".join(columns.values()) + "\n"
    rows = template * (len(values) // len(columns)) % tuple(values)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(",".join(columns) + "\n" + rows)


def _write_records(path: Path, row_type: type, records: list) -> None:
    """Dataclass records as CSV, one column per field: ints and bools %d, floats %.17g."""
    # a field's type is its annotation's text under postponed evaluation
    columns = {f.name: _FORMATS[getattr(f.type, "__name__", f.type)]
               for f in dataclasses.fields(row_type)}
    _write_csv(path, columns, [getattr(r, name) for r in records for name in columns])


def _write_snapshot(path: Path, boundaries) -> None:
    """layer, node_index, x, y of every node, layer 1 first."""
    table = np.vstack([
        np.column_stack((np.full(z.size, layer), np.arange(z.size), z.real, z.imag))
        for layer, z in enumerate((b.nodes for b in boundaries), start=1)
    ])
    columns = {"layer": "%d", "node_index": "%d", "x": "%.17g", "y": "%.17g"}
    _write_csv(path, columns, table.ravel().tolist())


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_spectrum(settings: dict, find_free_m: bool) -> int:
    params = _params_from(settings)
    n_max = settings["nmax"]
    rows = spectrum.spectrum_table(params, n_max)
    out = settings["out"]
    _write_records(out / "spectrum.csv", spectrum.SpectrumRow, rows)
    _write_json(out / "spectrum.json", [dataclasses.asdict(r) for r in rows])
    print(f"spectrum: {n_max} modes, delta={_fmt(params.delta)} "
          f"lambda={_fmt(params.lam)} b1={_fmt(params.b1)} b2={_fmt(params.b2)}")
    print(f"omega range: [{_fmt(rows[0].omega_minus)}, {_fmt(rows[-1].omega_plus)}]")
    if find_free_m:
        thresholds = spectrum.first_collision_free_m(params, n_max)
        for sign, m in zip("+-", thresholds):
            found = m if m is not None else f"not reached within nmax = {n_max}"
            print(f"first collision-free m, sign {sign}: {found}")
    return EXIT_OK


_EQUAL_RADII_UNREAD = ("b1", "b2", "m", "grid")


def cmd_collide(settings: dict, explicit: set[str], equal_radii: bool) -> int:
    if equal_radii and (unread := [k for k in _EQUAL_RADII_UNREAD if k in explicit]):
        raise ValueError(f"--equal-radii does not read {', '.join(unread)}: it sets "
                         "b1 = b2 from each collision root and scans no m or grid")
    # the scan reads no b2, so a default b2 above --b1 must not refuse it
    params = LayerParams(settings["delta"], settings["lambda"], settings["b1"], settings["b1"])
    n_max, out = settings["nmax"], settings["out"]
    if equal_radii:
        report = {"schema_version": 1, "mode": "equal_radii", "roots": []}
        for n in range(2, n_max + 1):
            x0 = spectrum.equal_radius_collision_argument(n)
            b = x0 / params.mu
            minus_n, plus_1 = spectrum.omega_minus_plus(
                LayerParams(params.delta, params.lam, b, b), n, 1)
            gap = abs(plus_1 - minus_n)
            report["roots"].append(
                {"n": n, "x0": float(x0), "b_equal": float(b), "omega_gap": float(gap)}
            )
        _write_json(out / "collide.json", report)
        print(f"equal-radii collision roots for n = 2..{n_max} written")
        return EXIT_OK
    m = settings["m"]
    records = spectrum.collision_scan(params, m, n_max=n_max, grid=settings["grid"])
    # delta >= (b2_root/b1)^2 at each root: the scan reads no --b2
    proven = [dataclasses.replace(params, b2=r.b2_root).in_proven_regime for r in records]
    _write_json(out / "collide.json", {
        "schema_version": 2,
        "records": [{**dataclasses.asdict(r), "proven_regime": p}
                    for r, p in zip(records, proven)],
    })
    _write_records(out / "collide.csv", spectrum.CollisionRecord, records)
    print(f"collision scan m={m}: {len(records)} records, "
          f"{sum(proven)} in the proven regime")
    return EXIT_OK


def cmd_vstate(settings: dict) -> int:
    params = _params_from(settings)
    m, sign, out = settings["m"], settings["sign"], settings["out"]
    try:
        result = branch_continue(params, m, sign, settings["s_grid"],
                                 n_modes=settings["modes"], n_nodes=settings["nodes"])
    except CollisionDetectedError as exc:
        _write_json(out / "branch.json",
                    {"schema_version": 1, "error": "collision", "detail": str(exc)})
        raise
    _write_json(out / "branch.json", {
        "schema_version": 1,
        "m": m,
        "sign": sign,
        "failure": result.failure,
        "solutions": [sol.to_json_dict() for sol in result.solutions],
    })
    for i, sol in enumerate(result.solutions):
        r1, r2 = sol.boundary_radii()
        t = sol.deformation.grid()
        c, s = np.cos(t), np.sin(t)
        table = np.column_stack((t, r1, r2, r1 * c, r1 * s, r2 * c, r2 * s))
        columns = dict.fromkeys(("theta", "R1", "R2", "x1", "y1", "x2", "y2"), "%.17g")
        _write_csv(out / f"boundary_{i:03d}.csv", columns, table.ravel().tolist())
    if result.solutions:
        last = result.solutions[-1]
        print(f"branch: {len(result.solutions)} solutions, last s={_fmt(last.amplitude)} "
              f"omega={_fmt(last.omega)}")
    if result.failure:
        print(f"truncated: {result.failure}", file=sys.stderr)
        if not result.solutions:
            return EXIT_NUMERIC
    return EXIT_OK


def _check_file_values(path: str, settings: dict, explicit: set[str], file_values: dict) -> None:
    """Refuse an explicit value the initial file contradicts: a V-state holds only
    for its own parameters and node count, and a boundary CSV fixes the count."""
    clashes = [
        f"{key} {settings[key]} given, {_fmt(value)} in the file"
        for key, value in file_values.items()
        if key in explicit and settings[key] != value
    ]
    if clashes:
        raise ValueError(f"initial file {path} disagrees: " + "; ".join(clashes))


def _state(nodes) -> EvolutionState:
    return EvolutionState((PatchBoundary(nodes[0], 1), PatchBoundary(nodes[1], 2)), 0.0)


def _initial_state(settings: dict, explicit: set[str]):
    """(params, state, V-state or None); a V-state file supplies the parameters."""
    kind, path = settings["initial"]
    if kind == "discs":
        params = _params_from(settings)
        return params, EvolutionState.discs(params, settings["nodes"]), None
    if kind == "vstate":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot load V-state file {path}: {exc}") from exc
        if "solutions" in payload:
            if not payload["solutions"]:
                raise ValueError(f"{path} contains no solutions")
            payload = payload["solutions"][-1]
        try:
            sol = VStateSolution.from_json_dict(payload)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed V-state file {path}: {exc!r}") from exc
        _check_file_values(path, settings, explicit,
                           {**sol.params.as_dict(), "nodes": sol.deformation.n_nodes})
        nodes = sol.boundary_radii() * np.exp(1j * sol.deformation.grid())
        return sol.params, _state(nodes), sol
    try:
        rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ValueError(f"cannot load boundary CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"cannot parse boundary CSV {path}: {exc}") from exc
    if rows.shape[1] != 4:
        raise ValueError(f"{path}: expected 4 columns layer,node_index,x,y")
    stray = np.flatnonzero((rows[:, 0] != 1) & (rows[:, 0] != 2))
    if stray.size:
        raise ValueError(f"{path}: data row {stray[0] + 1} has layer {rows[stray[0], 0]:g}, "
                         "not 1 or 2")
    nodes = []
    for layer in (1, 2):
        sel = rows[rows[:, 0] == layer]
        sel = sel[np.argsort(sel[:, 1])]
        bad = np.flatnonzero(sel[:, 1] != np.arange(len(sel)))
        if bad.size:
            raise ValueError(f"{path}: layer {layer} has node_index {sel[bad[0], 1]:g} where "
                             f"{bad[0]} belongs; indices must run 0..{len(sel) - 1} once each")
        nodes.append(sel[:, 2] + 1j * sel[:, 3])
    if nodes[0].size != nodes[1].size:
        raise ValueError(f"{path}: layers have {nodes[0].size} and {nodes[1].size} nodes")
    _check_file_values(path, settings, explicit, {"nodes": nodes[0].size})
    return _params_from(settings), _state(nodes), None


def cmd_evolve(settings: dict, explicit: set[str], check_rotation: bool) -> int:
    params, state0, vstate = _initial_state(settings, explicit)
    if check_rotation and vstate is None:
        raise ValueError("--check-rotation requires initial=vstate:<path>")
    out = settings["out"]
    # a V-state's dynamics keep its m-fold symmetry: evolve its fundamental domain
    fold = None if vstate is None else math.gcd(vstate.m, vstate.deformation.n_nodes)
    result = dynamics.evolve(params, state0, settings["t_end"], dt=settings["dt"],
                             snapshot_every=settings["snapshot_every"], fold=fold)
    for i, snap in enumerate(result.snapshots):
        _write_snapshot(out / f"snap_{i:04d}.csv", snap.boundaries)

    diagnostics = dict(result.diagnostics)
    z1, z2 = (b.nodes for b in state0.boundaries)
    if z1.size == z2.size and np.max(np.abs(z1 - z2)) < 1e-12 * np.mean(np.abs(z1)):
        # twin-layer run: track how far the two layers drift apart
        diagnostics["layer_equality"] = max(
            float(np.max(np.abs(s.boundaries[0].nodes - s.boundaries[1].nodes)))
            for s in result.snapshots
        )
    if check_rotation:
        diagnostics["rotation_omega"] = vstate.omega
        diagnostics["rotation_residual"] = dynamics.rigid_rotation_residual(
            result.snapshots, vstate.omega
        )
    times = [snap.time for snap in result.snapshots]
    _write_json(out / "manifest.json", {
        "schema_version": 1,
        "params": params.as_dict(),
        "dt": result.diagnostics["dt"],
        "times": times,
        "aborted": result.aborted,
        "diagnostics": diagnostics,
    })
    print(f"evolve: {len(result.snapshots)} snapshots to t={_fmt(times[-1])}"
          + (f" (aborted: {result.aborted})" if result.aborted else ""))
    return EXIT_NUMERIC if result.aborted else EXIT_OK


def cmd_verify(settings: dict) -> int:
    suite = settings["suite"]
    checks = run_suites(None if suite == "all" else [suite])
    width = max(len(name) for name, _, _ in checks)
    for name, passed, detail in checks:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}  {detail}")
    failed = sum(not passed for _, passed, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# Parser and exit codes
# ---------------------------------------------------------------------------

# argparse options beyond the flag's name: a settings flag keeps its text for
# the converter and takes at most choices
_FLAGS = {
    "sign": {"choices": ["+", "-"]},
    "suite": {"choices": ["all", *SUITES]},
    "find_free_m": {"action": "store_true"},
    "equal_radii": {"action": "store_true"},
    "check_rotation": {"action": "store_true"},
}
# the flags each command reads, beyond --config; argparse rejects the others
_COMMAND_FLAGS = {
    "spectrum": (*_PARAM_FLAGS, "nmax", "out", "find_free_m"),
    "collide": (*_PARAM_FLAGS, "nmax", "m", "grid", "out", "equal_radii"),
    "vstate": (*_PARAM_FLAGS, "m", "sign", "s_grid", "nodes", "modes", "out"),
    "evolve": (*_PARAM_FLAGS, "t_end", "dt", "nodes", "snapshot_every", "initial",
               "out", "check_rotation"),
    "verify": ("suite",),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgpatch",
        description="Two-layer quasi-geostrophic vortex patches: spectra, "
        "V-state branches and contour evolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("spectrum", "tabulate A_n, B_n, gamma_n and the angular velocities"),
        ("collide", "scan for spectral collisions over b2"),
        ("vstate", "continue a branch of rotating V-states"),
        ("evolve", "advect patch boundaries with RK4"),
        ("verify", "run the identity and property suites"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value settings file")
        for key in _COMMAND_FLAGS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key, **_FLAGS.get(key, {}))
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and reused by the
    later ones.  It depends only on the module's flag tables, and
    ``parse_args`` leaves it unchanged and reads ``sys.stdout`` and
    ``sys.stderr`` when it prints, so a later call parses, prints and exits
    exactly as a first one."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    keys = [key for key in _COMMAND_FLAGS[args.command] if key in _SETTINGS]
    try:
        settings, explicit = _settings(args, keys)
        if args.command == "spectrum":
            return cmd_spectrum(settings, args.find_free_m)
        if args.command == "collide":
            return cmd_collide(settings, explicit, args.equal_radii)
        if args.command == "vstate":
            return cmd_vstate(settings)
        if args.command == "evolve":
            return cmd_evolve(settings, explicit, args.check_rotation)
        return cmd_verify(settings)
    except ValueError as exc:
        # bad settings, and precondition violations from the library
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollisionDetectedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except (NumericFailure, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
