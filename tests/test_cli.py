import dataclasses
import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import qgpatch
from qgpatch import cli, spectrum
from qgpatch.cli import main
from qgpatch.dynamics import PatchBoundary

from oracles import snapshot_csv_per_value


def run(args):
    return main([str(a) for a in args])


class TestSpectrumCommand:
    def test_equal_radii_column(self, tmp_path, capsys):
        code = run(["spectrum", "--b1", 1, "--b2", 1, "--delta", 1, "--lambda", 1,
                    "--nmax", 8, "--out", tmp_path])
        assert code == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")[1:]
        for n, line in enumerate(lines, start=1):
            omega_minus = float(line.split(",")[4])
            assert omega_minus == pytest.approx(0.5 - 0.5 / n, abs=1e-12)

    def test_single_row(self, tmp_path):
        assert run(["spectrum", "--nmax", 1, "--out", tmp_path]) == 0
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert len(lines) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["spectrum", "--nmax", 6, "--b2", 0.7, "--out", a])
        run(["spectrum", "--nmax", 6, "--b2", 0.7, "--out", b])
        assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
        assert (a / "spectrum.json").read_bytes() == (b / "spectrum.json").read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 3\nb2 = 0.5\n# comment\n")
        out = tmp_path / "out"
        assert run(["spectrum", "--config", cfg, "--nmax", 2, "--out", out]) == 0
        lines = (out / "spectrum.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # flag wins over config

    def test_find_free_m(self, tmp_path, capsys):
        # at (1, 1, 0.5) Omega_m^+ first exceeds -V at m = 4 (ROADMAP F2)
        code = run(["spectrum", "--b2", 0.5, "--nmax", 8, "--find-free-m",
                    "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out.strip().split("\n")[-2:] == [
            "first collision-free m, sign +: 4",
            "first collision-free m, sign -: 2",
        ]

    def test_find_free_m_not_reached(self, tmp_path, capsys):
        code = run(["spectrum", "--b2", 0.5, "--nmax", 3, "--find-free-m",
                    "--out", tmp_path])
        assert code == 0
        assert capsys.readouterr().out.strip().split("\n")[-2:] == [
            "first collision-free m, sign +: not reached within nmax = 3",
            "first collision-free m, sign -: not reached within nmax = 3",
        ]


class TestCollideCommand:
    def test_scan_report(self, tmp_path):
        code = run(["collide", "--m", 3, "--nmax", 6, "--b2", 0.5, "--grid", 32,
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert payload["schema_version"] == 2
        [record] = payload["records"]
        # the root's own radius decides: delta = 1 >= (b2_root / b1)^2
        assert record["proven_regime"] is True

    def test_collision_free_m_gives_empty(self, tmp_path):
        code = run(["collide", "--m", 2, "--nmax", 8, "--b2", 0.5, "--grid", 32,
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert payload == {"schema_version": 2, "records": []}

    def test_equal_radii_mode(self, tmp_path):
        code = run(["collide", "--equal-radii", "--nmax", 3, "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert [r["n"] for r in payload["roots"]] == [2, 3]
        for r in payload["roots"]:
            assert r["omega_gap"] <= 1e-10

    @pytest.mark.parametrize("argv,message", [
        *(pytest.param(["collide", "--equal-radii", "--nmax", 3, f"--{key}", value],
                       f"does not read {key}:", id=f"{key}-{value}")
          for key, value in [("b1", 1.2), ("b2", 0.5), ("m", 3), ("grid", 32)]),
        # refusals from the library: the writer has not created --out yet
        pytest.param(["collide", "--lambda", "1e10", "--m", 3, "--nmax", 4, "--grid", 16],
                     "SWEEP_X_MAX", id="collide-huge-lambda"),
        pytest.param(["vstate", "--m", 5, "--modes", 8, "--nodes", 64],
                     "Nyquist", id="vstate-modes-past-nyquist"),
        pytest.param(["evolve", "--nodes", 65, "--t-end", 0.01, "--dt", 0.005],
                     "node count must be even", id="evolve-odd-nodes"),
    ])
    def test_equal_radii_refuses_unread_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_proven_regime_per_root_not_from_b2(self, tmp_path):
        # the scan reads no --b2: both runs find the one root at 0.7098, where
        # (b2_root / b1)^2 = 0.504 > delta = 0.5, outside the proven regime
        reports = []
        for b2 in (0.3, 0.9):
            out = tmp_path / str(b2)
            assert run(["collide", "--delta", 0.5, "--m", 3, "--nmax", 16, "--grid", 64,
                        "--b2", b2, "--out", out]) == 0
            reports.append((out / "collide.json").read_bytes())
        assert reports[0] == reports[1]
        [record] = json.loads(reports[0])["records"]
        assert record["b2_root"] == pytest.approx(0.7098, abs=1e-4)
        assert record["proven_regime"] is False

    def test_scan_inside_a_smaller_outer_radius(self, tmp_path):
        # the default b2 = 1 lies above --b1 0.5; the scan reads no b2, so the
        # run neither refuses it nor differs from one that passes --b2
        reports = []
        for extra in ([], ["--b2", 0.1]):
            out = tmp_path / str(len(extra))
            assert run(["collide", "--b1", 0.5, "--m", 3, "--nmax", 8, "--grid", 32,
                        *extra, "--out", out]) == 0
            reports.append(json.loads((out / "collide.json").read_text())["records"])
        assert reports[0] == reports[1]

    def test_equal_radii_refuses_unread_config_keys(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 1\nb2 = 0.5\ngrid = 32\n")
        out = tmp_path / "out"
        assert run(["collide", "--equal-radii", "--config", cfg, "--out", out]) == 2
        assert "does not read b2, grid:" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_sweep_argument_exits_2_at_once(self, tmp_path, capsys):
        # mu * b1 = 1.4e10: the Miller sweep would run 7e9 steps
        out = tmp_path / "out"
        start = time.perf_counter()
        assert run(["collide", "--lambda", "1e10", "--m", 3, "--nmax", 4, "--grid", 16,
                    "--out", out]) == 2
        assert time.perf_counter() - start < 1.0
        assert "SWEEP_X_MAX = 10000" in capsys.readouterr().err

    def test_malformed_config_no_partial_files(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nmax = banana\n")
        out = tmp_path / "out"
        assert run(["collide", "--config", cfg, "--out", out]) == 2
        assert not out.exists()


class TestVStateCommand:
    def test_branch_and_tangency(self, tmp_path):
        code = run(["vstate", "--m", 2, "--sign", "-", "--b2", 0.7,
                    "--s-grid", "0.001", "--modes", 10, "--nodes", 128,
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "branch.json").read_text())
        assert payload["schema_version"] == 1
        sol = payload["solutions"][0]
        from qgpatch import spectrum as S
        from qgpatch.kernels import LayerParams
        omega0 = S.omega_pm(LayerParams(1.0, 1.0, 1.0, 0.7), 2)[0]
        assert abs(sol["omega"] - omega0) <= 1e-2 * 1e-3
        assert (tmp_path / "boundary_000.csv").exists()

    def test_two_signs_distinct(self, tmp_path):
        omegas = {}
        for sign,名 in (("+", "p"), ("-", "m")):
            out = tmp_path / 名
            assert run(["vstate", "--m", 2, "--sign", sign, "--b2", 0.7,
                        "--s-grid", "0.001", "--modes", 8, "--nodes", 128,
                        "--out", out]) == 0
            omegas[sign] = json.loads((out / "branch.json").read_text())[
                "solutions"][0]["omega"]
        assert abs(omegas["+"] - omegas["-"]) > 1e-3

    def test_negative_amplitudes_take_the_equals_form(self, tmp_path, capsys):
        out = tmp_path / "joined"
        assert run(["vstate", "--m", 2, "--sign", "-", "--b2", 0.7, "--modes", 8,
                    "--nodes", 64, "--s-grid=-0.002,0.002", "--out", out]) == 0
        payload = json.loads((out / "branch.json").read_text())
        assert payload["failure"] is None
        assert [sol["amplitude"] for sol in payload["solutions"]] == [-0.002, 0.002]
        # after a space argparse reads the leading '-' as a flag
        spaced = tmp_path / "spaced"
        with pytest.raises(SystemExit) as exc:
            run(["vstate", "--m", 2, "--sign", "-", "--b2", 0.7, "--modes", 8,
                 "--nodes", 64, "--s-grid", "-0.002,0.002", "--out", spaced])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not spaced.exists()

    def test_collision_refusal_exit_code(self, tmp_path):
        code = run(["vstate", "--m", 3, "--sign", "+", "--b2", 0.7459086390395124,
                    "--s-grid", "0.001", "--modes", 8, "--nodes", 128,
                    "--out", tmp_path])
        assert code == 3
        payload = json.loads((tmp_path / "branch.json").read_text())
        assert payload["error"] == "collision"

    def test_amplitude_cap_is_config_error(self, tmp_path):
        # the whole grid is checked against S_MAX before the first solve,
        # so not even the output directory is created
        out = tmp_path / "out"
        code = run(["vstate", "--m", 2, "--sign", "-", "--b2", 0.7,
                    "--s-grid", "0.001,0.2", "--modes", 8, "--nodes", 128,
                    "--out", out])
        assert code == 2
        assert not (out / "branch.json").exists()
        assert not out.exists()

    def test_strong_screening_refused(self, tmp_path):
        # mu * diameter ~ 20 is past the split guard: a numeric failure,
        # not a branch whose residual silently stalls near 1e-10
        code = run(["vstate", "--lambda", 7, "--m", 2, "--sign", "-",
                    "--nodes", 128, "--modes", 8, "--s-grid", "0.001,0.002",
                    "--out", tmp_path])
        assert code == 1

    def test_quadrature_refusal_keeps_branch(self, tmp_path):
        # the boundaries come within 0.1 * b1 at the eighth amplitude
        s_grid = ",".join(repr(float(s)) for s in np.geomspace(0.001, 0.1, 9))
        code = run(["vstate", "--delta", 3.9484009878369566,
                    "--lambda", 1.457370503756139, "--b2", 0.8807077673978791,
                    "--m", 1, "--sign", "+", "--modes", 16, "--nodes", 256,
                    "--s-grid", s_grid, "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "branch.json").read_text())
        assert len(payload["solutions"]) == 7
        assert "curve separation" in payload["failure"]


class TestEvolveCommand:
    def test_disc_run_reports_small_drift(self, tmp_path):
        code = run(["evolve", "--b2", 0.7, "--t-end", 0.02, "--dt", 0.002,
                    "--nodes", 128, "--snapshot-every", 5, "--out", tmp_path])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["aborted"] is None
        assert manifest["diagnostics"]["area_drift"] <= 1e-9
        assert (tmp_path / "snap_0000.csv").exists()

    def test_twin_disc_layer_equality(self, tmp_path):
        code = run(["evolve", "--b1", 1, "--b2", 1, "--delta", 1,
                    "--t-end", 0.02, "--dt", 0.002, "--nodes", 128,
                    "--out", tmp_path])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["diagnostics"]["layer_equality"] <= 1e-10

    def test_vstate_input_with_rotation_check(self, tmp_path):
        vs_dir = tmp_path / "vs"
        assert run(["vstate", "--m", 2, "--sign", "-", "--b2", 0.7,
                    "--s-grid", "0.002", "--modes", 8, "--nodes", 128,
                    "--out", vs_dir]) == 0
        code = run(["evolve", "--b2", 0.7, "--initial",
                    f"vstate:{vs_dir / 'branch.json'}", "--t-end", 0.05,
                    "--dt", 0.005, "--check-rotation", "--out", tmp_path])
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "rotation_residual" in manifest["diagnostics"]
        assert manifest["diagnostics"]["rotation_residual"] <= 1e-4

    def test_rotation_check_needs_vstate_before_evolving(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("evolve ran")

        monkeypatch.setattr(cli.dynamics, "evolve", refuse)
        out = tmp_path / "out"
        code = run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 128, "--check-rotation", "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    def test_csv_roundtrip_initial(self, tmp_path):
        first = tmp_path / "first"
        assert run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 128, "--out", first]) == 0
        code = run(["evolve", "--b2", 0.7, "--initial",
                    f"csv:{first / 'snap_0000.csv'}", "--t-end", 0.004,
                    "--dt", 0.002, "--nodes", 128, "--out", tmp_path / "second"])
        assert code == 0

    def test_csv_initial_disagreeing_nodes_refused(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 64, "--out", first]) == 0
        out = tmp_path / "second"
        code = run(["evolve", "--b2", 0.7, "--initial", f"csv:{first / 'snap_0000.csv'}",
                    "--nodes", 128, "--t-end", 0.004, "--dt", 0.002, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "nodes 128 given, 64 in the file" in err
        assert not out.exists()

    def test_csv_initial_without_nodes_keeps_the_files_nodes(self, tmp_path):
        first = tmp_path / "first"
        assert run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 64, "--out", first]) == 0
        second = tmp_path / "second"
        assert run(["evolve", "--b2", 0.7, "--initial", f"csv:{first / 'snap_0000.csv'}",
                    "--t-end", 0.004, "--dt", 0.002, "--out", second]) == 0
        rows = np.loadtxt(second / "snap_0000.csv", delimiter=",", skiprows=1)
        assert rows.shape == (2 * 64, 4)
        assert (second / "snap_0000.csv").read_bytes() == (first / "snap_0000.csv").read_bytes()

    def test_bad_initial(self, tmp_path):
        assert run(["evolve", "--initial", "nonsense", "--out", tmp_path]) == 2

    @pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
    @pytest.mark.parametrize(
        "body", ["", "1,0,1.0,0.0\n", "1,0,1.0\n1,1,0.5\n"],
        ids=["no_rows", "one_row", "three_columns"],
    )
    def test_malformed_csv_initial(self, tmp_path, capsys, body):
        # no data rows, one row, three columns: a config error, not a traceback
        path = tmp_path / "initial.csv"
        path.write_text("layer,node_index,x,y\n" + body)
        out = tmp_path / "out"
        assert run(["evolve", "--initial", f"csv:{path}", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @staticmethod
    def disc_rows(n=64):
        """layer, node_index, x, y of the discs b1 = 1, b2 = 0.7 on n nodes."""
        z = np.exp(2j * np.pi * np.arange(n) / n)
        return [[layer, i, float(b * z[i].real), float(b * z[i].imag)]
                for layer, b in ((1, 1.0), (2, 0.7)) for i in range(n)]

    def evolve_rows(self, tmp_path, rows):
        """Run evolve from rows, written by repr, or as they are if text."""
        path = tmp_path / "initial.csv"
        path.write_text("layer,node_index,x,y\n" + "".join(
            ",".join(v if isinstance(v, str) else repr(v) for v in row) + "\n" for row in rows))
        out = tmp_path / "out"
        code = run(["evolve", "--b2", 0.7, "--initial", f"csv:{path}", "--t-end", 0.004,
                    "--dt", 0.002, "--out", out])
        return code, path, out

    def test_well_formed_csv_rows_evolve(self, tmp_path):
        assert self.evolve_rows(tmp_path, self.disc_rows())[0] == 0

    @pytest.mark.parametrize(
        "row, index, named",
        [(1, 0, "layer 1 has node_index 0 where 1 belongs"),    # 0 twice, 1 missing
         (127, 64, "layer 2 has node_index 64 where 63 belongs")],  # 63 skipped
        ids=["repeated", "skipped"],
    )
    def test_csv_node_indices_must_run_once_each(self, tmp_path, capsys, row, index, named):
        rows = self.disc_rows()
        rows[row][1] = index
        code, path, out = self.evolve_rows(tmp_path, rows)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(path) in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize("layer", [0, 3])
    def test_csv_row_of_no_layer_refused(self, tmp_path, capsys, layer):
        # an extra row is not dropped: both layers keep 64 nodes, yet it is refused
        rows = self.disc_rows()
        rows.insert(5, [layer, 5, 0.5, 0.5])
        code, path, out = self.evolve_rows(tmp_path, rows)
        assert code == 2
        err = capsys.readouterr().err
        assert str(path) in err and f"data row 6 has layer {layer}, not 1 or 2" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_csv_value_names_the_row(self, tmp_path, capsys, value):
        rows = self.disc_rows()
        rows[3][2] = value
        code, path, out = self.evolve_rows(tmp_path, rows)
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {path}: data row 4 holds a non-finite value\n"
        assert not out.exists()

    def test_non_numeric_csv_value_names_the_file(self, tmp_path, capsys):
        rows = self.disc_rows()
        rows[0][2] = "np.float64(1.0)"
        code, path, out = self.evolve_rows(tmp_path, rows)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot parse boundary CSV {path}: ")
        assert "np.float64(1.0)" in err
        assert not out.exists()

    @pytest.fixture(scope="class")
    def branch_66(self, tmp_path_factory):
        """An m = 3 branch at b2 = 0.6, lambda = 1, solved on 66 nodes."""
        out = tmp_path_factory.mktemp("vs66")
        assert run(["vstate", "--m", 3, "--b2", 0.6, "--nodes", 66, "--modes", 8,
                    "--s-grid", 0.01, "--out", out]) == 0
        return out / "branch.json"

    def _evolve_from(self, branch, out, *flags):
        return run(["evolve", "--initial", f"vstate:{branch}", "--t-end", 0.05,
                    "--dt", 0.005, "--check-rotation", *flags, "--out", out])

    def test_vstate_file_supplies_parameters_and_nodes(self, tmp_path, branch_66):
        # no model flag given: the run uses the file's b2 = 0.6, not the
        # default 1.0, and its 66 nodes, not the default 256
        assert self._evolve_from(branch_66, tmp_path) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["params"] == {"delta": 1.0, "lambda": 1.0, "b1": 1.0, "b2": 0.6}
        assert manifest["diagnostics"]["rotation_residual"] <= 1e-13
        rows = np.loadtxt(tmp_path / "snap_0000.csv", delimiter=",", skiprows=1)
        assert rows.shape[0] == 2 * 66

    def test_vstate_run_folded_and_its_snapshot_run_not(self, tmp_path, branch_66):
        # the m = 3 V-state on 66 nodes evolves on its fundamental domain
        # (fold 3); its first snapshot, read back, is a plain boundary file
        folded, full = tmp_path / "folded", tmp_path / "full"
        assert self._evolve_from(branch_66, folded) == 0
        assert run(["evolve", "--b2", 0.6, "--initial", f"csv:{folded / 'snap_0000.csv'}",
                    "--t-end", 0.05, "--dt", 0.005, "--out", full]) == 0
        diagnostics = [json.loads((out / "manifest.json").read_text())["diagnostics"]
                       for out in (folded, full)]
        assert [d["fold"] for d in diagnostics] == [3, None]
        assert diagnostics[0]["rotation_residual"] <= 1e-12
        last = sorted(p.name for p in folded.glob("snap_*.csv"))[-1]
        a, b = (np.loadtxt(out / last, delimiter=",", skiprows=1) for out in (folded, full))
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_disc_run_records_no_fold(self, tmp_path):
        assert run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 64, "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["diagnostics"]["fold"] is None

    @pytest.mark.parametrize(
        "flags, named",
        [(["--lambda", 1.3], "lambda 1.3 given, 1 in the file"),
         (["--nodes", 128], "nodes 128 given, 66 in the file")],
        ids=["lambda", "nodes"],
    )
    def test_vstate_file_disagreeing_flag_refused(self, tmp_path, capsys, branch_66,
                                                  flags, named):
        out = tmp_path / "out"
        assert self._evolve_from(branch_66, out, "--b2", 0.6, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not out.exists()

    def test_vstate_file_disagreeing_config_refused(self, tmp_path, capsys, branch_66):
        config = tmp_path / "run.cfg"
        config.write_text("b2 = 0.6\nlambda = 1.3\n")
        out = tmp_path / "out"
        assert self._evolve_from(branch_66, out, "--config", config) == 2
        assert "lambda 1.3 given, 1 in the file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload", [{"m": 2}, {"solutions": [{"params": {}}]}, [1, 2]],
        ids=["no_params", "no_delta", "not_an_object"],
    )
    def test_malformed_vstate_initial(self, tmp_path, capsys, payload):
        path = tmp_path / "branch.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert run(["evolve", "--initial", f"vstate:{path}", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["omega", "amplitude", "coeffs_layer2"])
    def test_non_finite_vstate_value_names_the_key(self, tmp_path, capsys, branch_66, key):
        payload = json.loads(branch_66.read_text())
        solution = payload["solutions"][-1]
        if key == "coeffs_layer2":
            solution[key][1] = float("inf")
        else:
            solution[key] = float("nan")
        path = tmp_path / "branch.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert self._evolve_from(path, out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed V-state file {path}: ")
        assert f"{key} is not finite" in err
        assert not out.exists()


class TestVerifyCommand:
    def test_filtered_suite_passes(self, capsys):
        assert run(["verify", "--suite", "bessel"]) == 0
        out = capsys.readouterr().out
        assert "bessel.wronskian" in out
        assert "spectrum" not in out

    def test_gamma_injection_fails_suite(self, monkeypatch, capsys):
        # gamma_n scaled by 1.001 inside the spectrum rows must fail the suite
        arrays = spectrum.spectrum_arrays

        def faulty(params, n_max):
            spec = arrays(params, n_max)
            return dataclasses.replace(spec, gamma_n=spec.gamma_n * 1.001)

        monkeypatch.setattr(spectrum, "spectrum_arrays", faulty)
        assert run(["verify", "--suite", "spectrum"]) == 1
        assert re.search(r"spectrum\.det_singular +FAIL", capsys.readouterr().out)

    def test_help_lists_config_and_suite_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--help"])
        assert exc.value.code == 0
        options = capsys.readouterr().out.split("options:")[1]
        assert sorted(set(re.findall(r"--[a-z-]+", options))) == ["--config", "--help",
                                                                  "--suite"]


class TestForeignFlags:
    """Each command accepts only the flags it reads; config files stay shared."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--sign", "+"],
        ["collide", "--dt", "0.1"],
        ["vstate", "--t-end", "-3"],
        ["evolve", "--modes", "8"],
        ["verify", "--nodes", "64"],
        ["verify", "--inject-gamma-error", "0.001"],
    ])
    def test_foreign_flag_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        tail = [] if argv[0] == "verify" else ["--out", out]
        with pytest.raises(SystemExit) as exc:
            run([*argv, *tail])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_shared_across_commands(self, tmp_path):
        # dt and suite are not spectrum flags, but a config file may hold them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nmax = 2\ndt = 0.1\nsuite = bessel\n")
        assert run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 0


# (command, key, bad text): each refused by the key's converter
_BAD_VALUES = [
    ("spectrum", "nmax", "0"),
    ("collide", "grid", "8"),
    ("collide", "b2", "wide"),
    ("vstate", "sign", "sideways"),  # config only: argparse's choices check the flag
    ("vstate", "modes", "7.5"),
    ("vstate", "s_grid", ","),
    ("evolve", "t_end", "-1"),
    ("evolve", "dt", "0"),
    ("evolve", "nodes", "abc"),
    ("evolve", "initial", "disks"),
]


class TestSettings:
    """One converter per key, whether the text comes from a flag or a config file."""

    def test_config_and_flags_write_identical_files(self, tmp_path):
        cfg = tmp_path / "vstate.cfg"
        cfg.write_text("sign = minus\nnodes = 128\nmodes = 8\ns_grid = 0.001\n")
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        assert run(["vstate", "--config", cfg, "--b2", 0.7, "--out", by_file]) == 0
        assert run(["vstate", "--sign", "-", "--nodes", 128, "--modes", 8,
                    "--s-grid", 0.001, "--b2", 0.7, "--out", by_flags]) == 0
        names = sorted(p.name for p in by_file.iterdir())
        assert names == ["boundary_000.csv", "branch.json"]
        assert names == sorted(p.name for p in by_flags.iterdir())
        for name in names:
            assert (by_file / name).read_bytes() == (by_flags / name).read_bytes()

    @pytest.mark.parametrize("source, command, key, text", [
        (source, *case) for source in ("flag", "config") for case in _BAD_VALUES
        if not (source == "flag" and case[1] == "sign")
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, source, command, key, text):
        out = tmp_path / "out"
        if source == "flag":
            argv = [command, "--" + key.replace("_", "-"), text, "--out", out]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {text}\n")
            argv = [command, "--config", cfg, "--out", out]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["vstate", "--s-grid", "nan", "--nodes", 64, "--modes", 8], "s_grid"),
        (["evolve", "--dt", "inf", "--t-end", 0.01], "dt"),
        (["evolve", "--b1", "inf"], "b1"),
        (["evolve", "--t-end", "inf", "--dt", 0.1], "t_end"),
        (["evolve", "--t-end", "nan"], "t_end"),
        (["spectrum", "--lambda", "inf"], "lambda"),
        (["spectrum", "--delta", "inf"], "delta"),
        (["spectrum", "--b1", "inf"], "b1"),
        (["spectrum", "--b2=-inf"], "b2"),
        (["collide", "--lambda", "inf"], "lambda"),
        (["vstate", "--lambda", "inf"], "lambda"),
    ])
    def test_non_finite_value_names_key(self, tmp_path, capsys, argv, key):
        out = tmp_path / "out"
        assert run([*argv, "--out", out]) == 2
        assert capsys.readouterr().err == f"config error: {key}: must be finite\n"
        assert not out.exists()

    def test_bad_value_of_unread_key_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nodes = abc\nsign = sideways\nnmax = 2\n")
        assert run(["spectrum", "--config", cfg, "--out", tmp_path / "out"]) == 0
        assert len((tmp_path / "out" / "spectrum.csv").read_text().splitlines()) == 3

    def test_snapshot_csv_matches_per_value_writer(self, tmp_path):
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        z[:6] = [complex(-0.0, 1e-300), complex(1e12, -0.0), complex(-1e-300, -1e12),
                 complex(-2.5, 0.0), complex(-0.0, -0.0), complex(0.1, 0.2)]
        boundaries = (PatchBoundary(z, 1), PatchBoundary(-3.0 * z[::-1], 2))
        cli._write_snapshot(tmp_path / "snap.csv", boundaries)
        assert (tmp_path / "snap.csv").read_text() == snapshot_csv_per_value(boundaries)

    def test_numeric_failures_share_one_type(self):
        from qgpatch.contour import (
            CollisionDetectedError,
            NoConvergenceError,
            RadiusCollapseError,
        )
        from qgpatch.dynamics import SimplicityError
        from qgpatch.quadrature import NumericFailure, QuadratureFailure, TouchingBoundaryError

        for cls in (TouchingBoundaryError, QuadratureFailure, RadiusCollapseError,
                    NoConvergenceError, SimplicityError):
            assert issubclass(cls, NumericFailure), cls
        assert not issubclass(CollisionDetectedError, NumericFailure)


def _fresh_python(probe: str, *args: str) -> str:
    """Standard output of ``python -c probe *args`` in a new interpreter that
    imports qgpatch from this checkout; this process already holds scipy."""
    src = str(Path(qgpatch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return done.stdout


def test_cli_import_skips_scipy_interpolate():
    probe = "import sys, qgpatch.cli; print('scipy.interpolate' in sys.modules)"
    assert _fresh_python(probe).strip() == "False"


class TestFreshProcess:
    """Which runs load ``scipy.special``: only ``bessel`` imports it, on first use."""

    _MAIN = ("import json, sys; from qgpatch import cli; "
             "before = 'scipy.special' in sys.modules; "
             "code = cli.main(json.loads(sys.argv[1])); "
             "print(json.dumps([code, before, 'scipy.special' in sys.modules]))")

    def _main(self, argv) -> tuple[int, bool, bool]:
        """(exit code, scipy.special loaded after ``import qgpatch.cli``, after
        main) of a fresh cli.main."""
        stdout = _fresh_python(self._MAIN, json.dumps([str(a) for a in argv]))
        return tuple(json.loads(stdout.splitlines()[-1]))

    @staticmethod
    def _assert_same_files(a: Path, b: Path):
        names = sorted(p.name for p in a.iterdir())
        assert names and names == sorted(p.name for p in b.iterdir())
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_evolve_from_discs_skips_scipy_special(self, tmp_path):
        # twin unit discs, lambda = 1: mu * chord <= 2.83, inside the series
        assert self._main(["evolve", "--nodes", 64, "--t-end", 0.004, "--dt", 0.002,
                           "--out", tmp_path]) == (0, False, False)

    def test_evolve_from_vstate_skips_scipy_special(self, tmp_path):
        branch = tmp_path / "vs"
        assert run(["vstate", "--m", 3, "--b2", 0.6, "--nodes", 64, "--modes", 8,
                    "--s-grid", 0.01, "--out", branch]) == 0
        assert self._main(["evolve", "--initial", f"vstate:{branch / 'branch.json'}",
                           "--t-end", 0.01, "--dt", 0.005, "--check-rotation",
                           "--out", tmp_path / "ev"]) == (0, False, False)

    def test_import_and_folded_vstate_start_no_thread(self, tmp_path):
        # only full-grid builds at N >= 256 use the cross-block worker, whose
        # pool and module are made on first use; the V-state residual is
        # folded.  (scipy itself loads concurrent.futures during the run.)
        probe = ("import json, sys, threading; from qgpatch import cli, quadrature; "
                 "before = ['concurrent.futures' in sys.modules, threading.active_count()]; "
                 "code = cli.main(json.loads(sys.argv[1])); "
                 "after = [quadrature._cross_worker.cache_info().currsize, "
                 "threading.active_count()]; "
                 "print(json.dumps([code, before, after]))")
        argv = ["vstate", "--nodes", 256, "--modes", 8, "--s-grid", 0.001, "--out", tmp_path]
        stdout = _fresh_python(probe, json.dumps([str(a) for a in argv]))
        assert json.loads(stdout.splitlines()[-1]) == [0, [False, 1], [0, 1]]

    def test_folded_vstate_evolve_starts_no_cross_thread(self, tmp_path):
        # N = 256, m = 2: the folded cross block has 128 x 256 entries, below
        # THREADED_CROSS_MIN_ENTRIES; the same start read back from its
        # snapshot is unfolded, 256 x 256, and builds W_21 on the worker
        probe = ("import json, sys, threading; from qgpatch import cli, quadrature; "
                 "quadrature._cpu_count = lambda: 2; "
                 "code = cli.main(json.loads(sys.argv[1])); "
                 "names = [t.name for t in threading.enumerate()]; "
                 "print(json.dumps([code, any(n.startswith('qgpatch-cross') for n in names)]))")
        branch = tmp_path / "vs"
        assert run(["vstate", "--nodes", 256, "--modes", 8, "--s-grid", 0.001,
                    "--out", branch]) == 0
        starts = [f"vstate:{branch / 'branch.json'}", f"csv:{tmp_path / 'ev0' / 'snap_0000.csv'}"]
        threads = []
        for i, start in enumerate(starts):
            argv = ["evolve", "--initial", start, "--t-end", 0.002, "--dt", 0.002,
                    "--out", tmp_path / f"ev{i}"]
            stdout = _fresh_python(probe, json.dumps([str(a) for a in argv]))
            code, started = json.loads(stdout.splitlines()[-1])
            assert code == 0
            threads.append(started)
        assert threads == [False, True]

    @pytest.mark.parametrize("argv", [
        ["evolve", "--nodes", 8],
        ["collide", "--lambda", "1e10", "--m", 3, "--nmax", 4, "--grid", 16],
    ], ids=["bad_nodes", "beyond_sweep_bound"])
    def test_config_error_skips_scipy_special(self, tmp_path, argv):
        assert self._main([*argv, "--out", tmp_path / "out"]) == (2, False, False)

    def test_collide_loads_scipy_special(self, tmp_path):
        argv = ["collide", "--m", 3, "--nmax", 6, "--b2", 0.5, "--grid", 32, "--out"]
        assert self._main([*argv, tmp_path / "fresh"]) == (0, False, True)
        assert run([*argv, tmp_path / "here"]) == 0
        self._assert_same_files(tmp_path / "fresh", tmp_path / "here")

    def test_far_cross_block_loads_scipy_special_midrun(self, tmp_path):
        # lambda = 2, b2 = 0.5: mu * chord reaches 4.2 > K0_SERIES_CUT between
        # the layers, so that block takes k0_array from the first right-hand side
        argv = ["evolve", "--lambda", 2, "--b2", 0.5, "--nodes", 64, "--t-end", 0.006,
                "--dt", 0.002, "--snapshot-every", 1, "--out"]
        assert self._main([*argv, tmp_path / "fresh"]) == (0, False, True)
        assert run([*argv, tmp_path / "here"]) == 0
        self._assert_same_files(tmp_path / "fresh", tmp_path / "here")


class TestSharedParser:
    """One parser per process: built on the first ``main`` call, then reused."""

    COLLIDE = ["collide", "--m", "3", "--nmax", "4", "--grid", "16", "--out"]
    # each step: (COLUMNS, parse with a new build_parser() instead of main, argv);
    # prints every step's (exit code or None, stdout, stderr) and the parser builds
    _STEPS = textwrap.dedent("""
        import contextlib, io, json, os, sys
        from qgpatch import cli
        def call(parse, argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = parse(argv)
                except SystemExit as exc:
                    code = exc.code
            return [code if isinstance(code, int) else None, out.getvalue(), err.getvalue()]
        built = [cli._shared_parser.cache_info().currsize]
        results = []
        for columns, fresh, argv in json.loads(sys.argv[1]):
            os.environ["COLUMNS"] = str(columns)
            results.append(call(cli.build_parser().parse_args if fresh else cli.main, argv))
        built.append(cli._shared_parser.cache_info().misses)
        print(json.dumps([results, built]))
    """)

    def _steps(self, steps) -> tuple[list, list]:
        """(each step's [code, stdout, stderr], [parsers cached after import,
        parsers built by the steps]) in a fresh process."""
        stdout = _fresh_python(self._STEPS, json.dumps(
            [[columns, fresh, [str(a) for a in argv]] for columns, fresh, argv in steps]))
        return tuple(json.loads(stdout.splitlines()[-1]))

    def test_two_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._shared_parser.cache_clear()
        try:
            assert run([*self.COLLIDE, tmp_path / "a"]) == 0
            assert run([*self.COLLIDE, tmp_path / "b"]) == 0
        finally:
            cli._shared_parser.cache_clear()
        assert len(builds) == 1
        TestFreshProcess._assert_same_files(tmp_path / "a", tmp_path / "b")

    def test_refused_parse_and_help_leave_next_call_as_first(self, tmp_path):
        refused = ["vstate", "--dt", "5", "--out", tmp_path / "refused"]
        results, built = self._steps([
            (80, False, [*self.COLLIDE, tmp_path / "first"]),
            (80, False, refused),
            (80, True, refused),
            (80, False, ["collide", "--help"]),
            (80, False, [*self.COLLIDE, tmp_path / "next"]),
        ])
        first, refusal, fresh_refusal, help_text, after = results
        assert built == [0, 1]
        assert first[0] == after[0] == 0 and first[1:] == after[1:]
        assert refusal[0] == 2 and "unrecognized arguments: --dt 5" in refusal[2]
        assert refusal == fresh_refusal
        assert help_text[0] == 0 and help_text[1].startswith("usage: qgpatch collide")
        assert not (tmp_path / "refused").exists()
        TestFreshProcess._assert_same_files(tmp_path / "first", tmp_path / "next")

    def test_help_texts_match_a_new_parser_at_each_width(self, tmp_path):
        helps = [["--help"], *([name, "--help"] for name in cli._COMMAND_FLAGS)]
        steps = [(80, False, [*self.COLLIDE, tmp_path])]
        for columns in (200, 52):
            for argv in helps:
                steps += [(columns, False, argv), (columns, True, argv)]
        results, built = self._steps(steps)
        assert built == [0, 1]
        shared, fresh = results[1::2], results[2::2]
        assert shared == fresh
        assert all(code == 0 and text.startswith("usage: qgpatch") for code, text, _ in shared)
        # the help is laid out for the width at each call, not at the first
        assert shared[0][1] != shared[len(helps)][1]
