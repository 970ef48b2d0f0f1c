"""Command-line front end: spectrum | collide | vstate | evolve | verify.

Settings come from an optional key=value config file plus flags; flags
win.  ``evolve --initial vstate:<file>`` takes delta, lambda, b1, b2 and
the node count from the file and refuses one given explicitly that
differs.  All numeric output is printed with 17 significant digits so that
repeated runs of the same configuration produce byte-identical files.

Exit codes: 0 success, 1 numeric failure, 2 configuration error,
3 refused (spectral collision at the requested parameters).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dynamics, spectrum
from .contour import (
    S_MAX,
    CollisionDetectedError,
    NoConvergenceError,
    RadiusCollapseError,
    VStateSolution,
    branch_continue,
)
from .dynamics import EvolutionState, PatchBoundary
from .kernels import LayerParams
from .quadrature import QuadratureFailure, TouchingBoundaryError
from .verify import run_suites

EXIT_OK = 0
EXIT_NUMERIC = 1
EXIT_CONFIG = 2
EXIT_COLLISION = 3


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class ConfigError(Exception):
    pass


def _load_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


_DEFAULTS = {
    "b1": "1.0",
    "b2": "1.0",
    "delta": "1.0",
    "lambda": "1.0",
    "nmax": "16",
    "m": "2",
    "sign": "+",
    "s_grid": "0.001",
    "t_end": "1.0",
    "dt": "",
    "nodes": "256",
    "modes": "16",
    "grid": "64",
    "snapshot_every": "50",
    "initial": "discs",
    "out": ".",
    "suite": "all",
}


def _merge_settings(args: argparse.Namespace) -> tuple[dict[str, str], set[str]]:
    """(settings, the keys given by the config file or a flag)."""
    settings = dict(_DEFAULTS)
    explicit = set()
    if args.config:
        cfg = _load_config_file(args.config)
        unknown = set(cfg) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        settings.update(cfg)
        explicit.update(cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            settings[key] = str(val)
            explicit.add(key)
    return settings, explicit


def _params_from(settings: dict[str, str]) -> LayerParams:
    try:
        return LayerParams(
            float(settings["delta"]),
            float(settings["lambda"]),
            float(settings["b1"]),
            float(settings["b2"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _int_setting(settings: dict[str, str], key: str, minimum: int) -> int:
    try:
        value = int(settings[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer: {exc}") from exc
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    return value


def _outdir(settings: dict[str, str]) -> Path:
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_spectrum(settings: dict[str, str], find_free_m: bool) -> int:
    params = _params_from(settings)
    n_max = _int_setting(settings, "nmax", 1)
    rows = spectrum.spectrum_table(params, n_max)
    out = _outdir(settings)
    (out / "spectrum.csv").write_text(spectrum.spectrum_rows_to_csv(rows))
    (out / "spectrum.json").write_text(spectrum.spectrum_rows_to_json(rows))
    print(f"spectrum: {n_max} modes, delta={_fmt(params.delta)} "
          f"lambda={_fmt(params.lam)} b1={_fmt(params.b1)} b2={_fmt(params.b2)}")
    print(f"omega range: [{_fmt(rows[0].omega_minus)}, {_fmt(rows[-1].omega_plus)}]")
    if find_free_m:
        free = spectrum.first_collision_free_m(params, 1, n_max)
        print(f"first collision-free m: {free if free is not None else 'none found'}")
    return EXIT_OK


def cmd_collide(settings: dict[str, str], equal_radii: bool) -> int:
    params = _params_from(settings)
    n_max = _int_setting(settings, "nmax", 1)
    out = _outdir(settings)
    if equal_radii:
        report = {"schema_version": 1, "mode": "equal_radii", "roots": []}
        for n in range(2, n_max + 1):
            x0 = spectrum.equal_radius_collision_argument(n)
            b = x0 / params.mu
            pc = LayerParams(params.delta, params.lam, b, b)
            spec = spectrum.spectrum_arrays(pc, n)
            gap = abs(spec.omega(1, 1) - spec.omega(n, -1))
            report["roots"].append(
                {"n": n, "x0": float(x0), "b_equal": float(b), "omega_gap": float(gap)}
            )
        (out / "collide.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"equal-radii collision roots for n = 2..{n_max} written")
        return EXIT_OK
    m = _int_setting(settings, "m", 1)
    grid = _int_setting(settings, "grid", 16)
    records = spectrum.collision_scan(params, m, n_max=n_max, grid=grid)
    (out / "collide.json").write_text(
        spectrum.collision_records_to_json(records, params)
    )
    (out / "collide.csv").write_text(spectrum.collision_records_to_csv(records))
    print(f"collision scan m={m}: {len(records)} records "
          f"(proven regime: {params.in_proven_regime})")
    return EXIT_OK


def _parse_sign(text: str) -> int:
    if text in ("+", "+1", "1", "plus"):
        return 1
    if text in ("-", "-1", "minus"):
        return -1
    raise ConfigError(f"sign must be + or -, got {text!r}")


def cmd_vstate(settings: dict[str, str]) -> int:
    params = _params_from(settings)
    m = _int_setting(settings, "m", 1)
    sign = _parse_sign(settings["sign"])
    n_nodes = _int_setting(settings, "nodes", 64)
    n_modes = _int_setting(settings, "modes", 8)
    try:
        s_grid = [float(v) for v in settings["s_grid"].split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad s_grid: {exc}") from exc
    if not s_grid:
        raise ConfigError("s_grid is empty")
    if any(abs(s) > S_MAX for s in s_grid):
        raise ConfigError(f"amplitudes beyond the cap S_MAX = {S_MAX}")
    out = _outdir(settings)
    try:
        result = branch_continue(
            params, m, sign, s_grid, n_modes=n_modes, n_nodes=n_nodes
        )
    except CollisionDetectedError as exc:
        payload = {"schema_version": 1, "error": "collision", "detail": str(exc)}
        (out / "branch.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    payload = {
        "schema_version": 1,
        "m": m,
        "sign": sign,
        "failure": result.failure,
        "solutions": [sol.to_json_dict() for sol in result.solutions],
    }
    (out / "branch.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for i, sol in enumerate(result.solutions):
        (out / f"boundary_{i:03d}.csv").write_text(sol.boundary_csv())
    if result.solutions:
        last = result.solutions[-1]
        print(f"branch: {len(result.solutions)} solutions, last s={_fmt(last.amplitude)} "
              f"omega={_fmt(last.omega)}")
    if result.failure:
        print(f"truncated: {result.failure}", file=sys.stderr)
        if not result.solutions:
            return EXIT_NUMERIC
    return EXIT_OK


def _check_file_values(
    path: str, settings: dict[str, str], explicit: set[str], sol: VStateSolution
) -> None:
    """Refuse a model parameter or node count given explicitly that the V-state file
    contradicts: the file's shape is a V-state only for its own values."""
    file_values = {**sol.params.as_dict(), "nodes": sol.deformation.n_nodes}
    clashes = [
        f"{key} {settings[key]} given, {_fmt(value)} in the file"
        for key, value in file_values.items()
        if key in explicit and float(settings[key]) != value
    ]
    if clashes:
        raise ConfigError(f"V-state file {path} disagrees: " + "; ".join(clashes))


def _initial_state(settings: dict[str, str], explicit: set[str]):
    """(params, state, V-state or None); a V-state file supplies the parameters."""
    spec_text = settings["initial"]
    n_nodes = _int_setting(settings, "nodes", 64)
    if spec_text == "discs":
        params = _params_from(settings)
        return params, EvolutionState.discs(params, n_nodes), None
    if spec_text.startswith("vstate:"):
        path = spec_text.split(":", 1)[1]
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load V-state file {path}: {exc}") from exc
        if "solutions" in payload:
            if not payload["solutions"]:
                raise ConfigError(f"{path} contains no solutions")
            payload = payload["solutions"][-1]
        try:
            sol = VStateSolution.from_json_dict(payload)
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed V-state file {path}: {exc!r}") from exc
        _check_file_values(path, settings, explicit, sol)
        radii = sol.boundary_radii()
        phase = np.exp(1j * sol.deformation.grid())
        state = EvolutionState(
            (PatchBoundary(radii[0] * phase, 1), PatchBoundary(radii[1] * phase, 2)), 0.0
        )
        return sol.params, state, sol
    if spec_text.startswith("csv:"):
        path = spec_text.split(":", 1)[1]
        try:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        except OSError as exc:
            raise ConfigError(f"cannot load boundary CSV {path}: {exc}") from exc
        if rows.shape[1] != 4:
            raise ConfigError(f"{path}: expected 4 columns layer,node_index,x,y")
        nodes = []
        for layer in (1, 2):
            sel = rows[rows[:, 0] == layer]
            sel = sel[np.argsort(sel[:, 1])]
            nodes.append(sel[:, 2] + 1j * sel[:, 3])
        state = EvolutionState((PatchBoundary(nodes[0], 1), PatchBoundary(nodes[1], 2)), 0.0)
        return _params_from(settings), state, None
    raise ConfigError("initial must be discs, vstate:<path> or csv:<path>")


def cmd_evolve(settings: dict[str, str], explicit: set[str], check_rotation: bool) -> int:
    try:
        t_end = float(settings["t_end"])
    except ValueError as exc:
        raise ConfigError(f"bad t_end: {exc}") from exc
    if t_end <= 0:
        raise ConfigError("t_end must be > 0")
    dt_text = settings["dt"]
    dt = float(dt_text) if dt_text else None
    if dt is not None and dt <= 0:
        raise ConfigError("dt must be > 0")
    snapshot_every = _int_setting(settings, "snapshot_every", 1)
    params, state0, vstate = _initial_state(settings, explicit)
    if check_rotation and vstate is None:
        raise ConfigError("--check-rotation requires initial=vstate:<path>")
    out = _outdir(settings)

    result = dynamics.evolve(
        params, state0, t_end, dt=dt, snapshot_every=snapshot_every
    )
    times = []
    for i, snap in enumerate(result.snapshots):
        times.append(snap.time)
        lines = ["layer,node_index,x,y"]
        for layer_idx, boundary in enumerate(snap.boundaries, start=1):
            for j, z in enumerate(boundary.nodes):
                lines.append(f"{layer_idx},{j},{_fmt(z.real)},{_fmt(z.imag)}")
        (out / f"snap_{i:04d}.csv").write_text("\n".join(lines) + "\n")

    diagnostics = dict(result.diagnostics)
    z1 = result.snapshots[0].boundaries[0].nodes
    z2 = result.snapshots[0].boundaries[1].nodes
    scale = float(np.mean(np.abs(z1)))
    if z1.size == z2.size and float(np.max(np.abs(z1 - z2))) < 1e-12 * scale:
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
    manifest = {
        "schema_version": 1,
        "params": params.as_dict(),
        "dt": result.diagnostics["dt"],
        "times": times,
        "aborted": result.aborted,
        "diagnostics": diagnostics,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"evolve: {len(result.snapshots)} snapshots to t={_fmt(times[-1])}"
          + (f" (aborted: {result.aborted})" if result.aborted else ""))
    return EXIT_NUMERIC if result.aborted else EXIT_OK


def cmd_verify(settings: dict[str, str], gamma_error: float) -> int:
    suite = settings["suite"]
    names = None if suite == "all" else [suite]
    checks = run_suites(names, gamma_error=gamma_error)
    width = max(len(name) for name, _, _ in checks)
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        failed += not passed
        print(f"{name:<{width}}  {status}  {detail}")
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# argparse options of every flag; its dest is the settings key
_FLAGS = {
    "b1": {"type": float},
    "b2": {"type": float},
    "delta": {"type": float},
    "lambda": {"type": float},
    "nmax": {"type": int},
    "m": {"type": int},
    "sign": {"choices": ["+", "-"]},
    "s_grid": {},
    "t_end": {"type": float},
    "dt": {"type": float},
    "nodes": {"type": int},
    "modes": {"type": int},
    "grid": {"type": int},
    "snapshot_every": {"type": int},
    "initial": {},
    "out": {},
    "suite": {"choices": ["all", "bessel", "kernels", "quadrature", "spectrum"]},
    "find_free_m": {"action": "store_true"},
    "equal_radii": {"action": "store_true"},
    "check_rotation": {"action": "store_true"},
    "inject_gamma_error": {
        "type": float,
        "default": 0.0,
        "help": "test hook: perturb the coupling coefficient in the "
        "spectral checks to confirm the suite detects it",
    },
}
_PARAM_FLAGS = ("b1", "b2", "delta", "lambda")
# the flags each command reads, beyond --config; argparse rejects the others
_COMMAND_FLAGS = {
    "spectrum": (*_PARAM_FLAGS, "nmax", "out", "find_free_m"),
    "collide": (*_PARAM_FLAGS, "nmax", "m", "grid", "out", "equal_radii"),
    "vstate": (*_PARAM_FLAGS, "m", "sign", "s_grid", "nodes", "modes", "out"),
    "evolve": (*_PARAM_FLAGS, "t_end", "dt", "nodes", "snapshot_every", "initial",
               "out", "check_rotation"),
    "verify": ("suite", "inject_gamma_error"),
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
            p.add_argument("--" + key.replace("_", "-"), **{"dest": key, **_FLAGS[key]})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings, explicit = _merge_settings(args)
        if args.command == "spectrum":
            return cmd_spectrum(settings, args.find_free_m)
        if args.command == "collide":
            return cmd_collide(settings, args.equal_radii)
        if args.command == "vstate":
            return cmd_vstate(settings)
        if args.command == "evolve":
            return cmd_evolve(settings, explicit, args.check_rotation)
        if args.command == "verify":
            return cmd_verify(settings, args.inject_gamma_error)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, ValueError) as exc:
        # precondition violations from the library are configuration errors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollisionDetectedError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_COLLISION
    except (
        NoConvergenceError,
        RadiusCollapseError,
        TouchingBoundaryError,
        QuadratureFailure,
        ArithmeticError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
