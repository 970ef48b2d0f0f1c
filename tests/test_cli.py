import json

import numpy as np
import pytest

from qgpatch import spectrum
from qgpatch.cli import main
from qgpatch.kernels import LayerParams


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
        code = run(["spectrum", "--b2", 0.5, "--nmax", 8, "--find-free-m",
                    "--out", tmp_path])
        assert code == 0
        last = capsys.readouterr().out.strip().split("\n")[-1]
        assert last.startswith("first collision-free m: ")
        free = spectrum.first_collision_free_m(LayerParams(1.0, 1.0, 1.0, 0.5), 1, 8)
        assert last.split(": ")[1] == str(free)


class TestCollideCommand:
    def test_scan_report(self, tmp_path):
        code = run(["collide", "--m", 3, "--nmax", 6, "--b2", 0.5, "--grid", 32,
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert payload["schema_version"] == 1
        assert payload["proven_regime"] is True
        assert len(payload["records"]) == 1

    def test_collision_free_m_gives_empty(self, tmp_path):
        code = run(["collide", "--m", 2, "--nmax", 8, "--b2", 0.5, "--grid", 32,
                    "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert payload["records"] == []
        assert payload["proven_regime"] is True

    def test_equal_radii_mode(self, tmp_path):
        code = run(["collide", "--equal-radii", "--nmax", 3, "--out", tmp_path])
        assert code == 0
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert [r["n"] for r in payload["roots"]] == [2, 3]
        for r in payload["roots"]:
            assert r["omega_gap"] <= 1e-10

    def test_malformed_config_no_partial_files(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nmax = banana\n")
        out = tmp_path / "out"
        assert run(["collide", "--config", cfg, "--out", out]) == 2
        assert not out.exists() or not list(out.iterdir())


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

    def test_csv_roundtrip_initial(self, tmp_path):
        first = tmp_path / "first"
        assert run(["evolve", "--b2", 0.7, "--t-end", 0.004, "--dt", 0.002,
                    "--nodes", 128, "--out", first]) == 0
        code = run(["evolve", "--b2", 0.7, "--initial",
                    f"csv:{first / 'snap_0000.csv'}", "--t-end", 0.004,
                    "--dt", 0.002, "--nodes", 128, "--out", tmp_path / "second"])
        assert code == 0

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


class TestVerifyCommand:
    def test_filtered_suite_passes(self, capsys):
        assert run(["verify", "--suite", "bessel"]) == 0
        out = capsys.readouterr().out
        assert "bessel.wronskian" in out
        assert "spectrum" not in out

    def test_gamma_injection_fails_suite(self):
        assert run(["verify", "--suite", "spectrum",
                    "--inject-gamma-error", "0.001"]) == 1
