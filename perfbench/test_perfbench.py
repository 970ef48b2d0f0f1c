"""Self-test of the benchmark: gates catch corrupted outputs, tracing adds up.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

CLI = run.import_cli()

import tracing  # noqa: E402  (needs the qgpatch import above)
from qgpatch import quadrature, spectrum  # noqa: E402
from qgpatch.bessel import bessel_ik_product, k0_array  # noqa: E402
from qgpatch.contour import branch_continue  # noqa: E402
from qgpatch.kernels import LayerParams  # noqa: E402

POINT = workloads.point_for_seed(workloads.load_reference(), 0)
PARAMS = LayerParams(POINT["delta"], POINT["lambda"], POINT["b1"], POINT["b2"])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real op output directory per workload, made once."""
    made = {}
    for workload in workloads.WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        vstate_input = workloads.prepare(workload, POINT, base)
        out = base / "out"
        assert CLI.main(workloads.cli_argv(workload, POINT, out, vstate_input)) == 0
        made[workload] = out
    return made


def _first_record(report):
    return report["records"][0]


CORRUPTIONS = [
    ("collide", "collide.json", "moved root",
     lambda d: _first_record(d).update(b2_root=_first_record(d)["b2_root"] + 1e-6)),
    ("collide", "collide.json", "residual without tangency",
     lambda d: _first_record(d).update(residual=1e-11, tangency=False)),
    ("collide", "collide.json", "missing root", lambda d: d["records"].pop()),
    ("vstate", "branch.json", "shifted omega",
     lambda d: d["solutions"][3].update(omega=d["solutions"][3]["omega"] + 1e-6)),
    ("vstate", "branch.json", "residual", lambda d: d["solutions"][1].update(residual=1e-9)),
    ("vstate", "branch.json", "truncated branch",
     lambda d: d.update(failure="s=0.032: damping failed", solutions=d["solutions"][:-1])),
    ("vstate", "branch.json", "tangency remainder",
     lambda d: d["solutions"][0]["coeffs_layer2"].__setitem__(3, 1e-4)),
    ("evolve", "manifest.json", "rotation residual",
     lambda d: d["diagnostics"].update(rotation_residual=1e-3)),
    ("evolve", "manifest.json", "area drift", lambda d: d["diagnostics"].update(area_drift=2e-4)),
    ("evolve", "manifest.json", "aborted", lambda d: d.update(aborted="boundary self-intersects")),
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_real_outputs_pass(outputs, workload):
    assert workloads.check_output(workload, POINT, outputs[workload]) == []


@pytest.mark.parametrize(
    "workload,filename,label,corrupt", CORRUPTIONS, ids=[c[2] for c in CORRUPTIONS]
)
def test_corrupted_output_fails_gate(outputs, tmp_path, workload, filename, label, corrupt):
    out = tmp_path / "out"
    shutil.copytree(outputs[workload], out)
    payload = json.loads((out / filename).read_text())
    corrupt(payload)
    (out / filename).write_text(json.dumps(payload))
    assert workloads.check_output(workload, POINT, out), label


def test_unreadable_output_fails_gate(tmp_path):
    assert workloads.check_output("evolve", POINT, tmp_path)


def test_runner_counts_failed_op(tmp_path):
    point = copy.deepcopy(POINT)
    point["collide_roots"][0][1] += 1e-6
    runner = run.Runner(CLI, "collide", point, tmp_path, None)
    runner.op()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_runner_counts_refused_op(tmp_path):
    point = {**POINT, "b2": 2.0}  # b2 > b1: the CLI exits with a config error
    runner = run.Runner(CLI, "collide", point, tmp_path, None)
    runner.op()
    assert (runner.attempted, runner.failed) == (1, 1)


def test_probe_samples_during_op_then_stops(tmp_path):
    probe = run.Probe()
    runner = run.Runner(CLI, "collide", POINT, tmp_path, None)
    elapsed, _ = runner.op(probe=probe)
    assert runner.failed == 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= elapsed / run.PROBE_INTERVAL_S / 2
    busy = sum(probe.samples)
    assert 0 < busy < 0.2 * elapsed
    assert probe.cost(elapsed) == (elapsed - busy) * len(probe.samples) / busy


def test_self_time_subtracts_children():
    spans = [
        ["op", 0, 100, -1, {}],
        ["a", 10, 60, 0, {"elems": 3}],
        ["b", 20, 30, 1, {}],
        ["b", 70, 90, 0, {}],
    ]
    totals = tracing.span_totals(spans, 0, len(spans))
    assert totals["op"].self_ns == 30
    assert totals["a"].self_ns == 40 and totals["a"].total_ns == 50
    assert (totals["b"].calls, totals["b"].self_ns) == (2, 30)
    assert totals["a"].attrs == {"elems": 3}
    assert sum(t.self_ns for t in totals.values()) == 100


def test_instrument_rebinds_and_restores():
    tracer = tracing.Tracer()
    with tracer.instrument():
        assert spectrum.bessel_ik_product is not bessel_ik_product
        assert quadrature.k0_array is not k0_array
        assert CLI.branch_continue is not branch_continue
        with tracer.span("op"):
            spectrum.omega_pm(PARAMS, 2)
    assert spectrum.bessel_ik_product is bessel_ik_product
    assert quadrature.k0_array is k0_array
    assert CLI.branch_continue is branch_continue
    totals = tracing.span_totals(tracer.spans, 0, len(tracer.spans))
    assert totals["spectrum.omega_pm"].calls == 1
    assert totals["bessel.ik_product"].calls == 6
    assert tracing.layer_calls(totals, "bessel") == 6
    assert tracing.layer_calls(totals, "quadrature") == 0


def test_metric_names_match_benchmark():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    traced = set(tracing.op_layer_metrics({})) | {"cli.bytes_written", "trace.overhead",
                                                     "trace.untraced_op_s"}
    assert traced == {m["name"] for m in spec["per_layer"]}
    untraced = {"op_rel", "ok_ratio", "peak_rss_mb", "setup_s"}
    assert untraced == {m["name"] for m in spec["end_to_end"]}
    assert set(run.metric_units()) == traced | untraced


def test_fails_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "collide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
