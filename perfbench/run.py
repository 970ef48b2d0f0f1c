"""qgpatch benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload {collide,vstate,evolve} --seed N \
        --seconds S --trace {0,1}

Each op is one real CLI job, ``qgpatch.cli.main(argv)`` writing into a fresh
directory under ``.perfbench_run/`` in the checkout, and each op's output is
checked by the gates in ``workloads.py``.  Ops run back to back until
``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``op_rel`` (median op wall
time in units of the calibration probe, see ``Probe``), ``ok_ratio`` (ops that exited 0 and passed their gate, over ops
attempted), ``peak_rss_mb`` and ``setup_s`` (median over fresh processes of
start-up, imports and input preparation).  ``--trace 1`` alternates untraced
and traced ops and reports the per-layer metrics of ``tracing.py``; the
spans are written to ``.perfbench_run/trace-<workload>-seed<N>.json``.

The last line of standard output is the JSON result; the line before it
records the machine, versions, BLAS thread count, commit and seed.
"""

from __future__ import annotations

import os

# Pin the BLAS pool before numpy is imported anywhere in this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import workloads  # noqa: E402

SRC = workloads.ROOT / "src"
RUN_DIR = workloads.ROOT / ".perfbench_run"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
PROBE_INTERVAL_S = 0.025

# Layers each workload must never reach; the traced run fails if one does.
ZERO_CALLS = {
    "collide": ("quadrature", "contour", "dynamics"),
    "evolve": ("spectrum", "bessel.ik_product"),
}


class SetupError(RuntimeError):
    pass


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        from qgpatch import cli
    except ImportError as exc:
        raise SetupError(f"cannot import qgpatch from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"qgpatch imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the first op: imports, reference point, input files."""
    cli = import_cli()
    point = workloads.point_for_seed(workloads.load_reference(), seed)
    workdir.mkdir(parents=True, exist_ok=True)
    vstate_input = workloads.prepare(workload, point, workdir)
    return cli, point, vstate_input


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of SETUP_REPEATS fresh processes that only set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--setup-only"],
            check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
    return median(times)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, point: dict) -> dict:
    import numpy as np
    import scipy

    def blas(config: dict) -> str | None:
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "system": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(np.show_config(mode="dicts")),
        "scipy_openblas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(workloads.ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": {key: point[key] for key in ("delta", "lambda", "b1", "b2")},
    }


class Probe:
    """A fixed computation, outside qgpatch, timed again and again while an op runs.

    Other tenants share this host's cores, and the host's speed swings by up
    to 2x over minutes, so an op's wall time swings with it.  While an op
    runs, a wall-clock timer interrupts it every PROBE_INTERVAL_S and times
    one run of the probe.  The probe mixes the kinds of work the program
    does: K_0 over an array, as in the quadrature; small numpy calls, as in
    the per-mode vectors; and plain Python float arithmetic, as in the
    Newton and bisection loops.  The op's time without the probe runs,
    divided by the probe's mean time during that op, is the op's cost in
    probe runs.  It moves with the program, not with the host.
    """

    def __init__(self):
        import numpy as np
        from scipy import special

        self._np, self._special = np, special
        self._xa = np.linspace(0.1, 3.0, 2048)
        self._xs = np.linspace(0.1, 1.0, 16)
        self._active = False
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)
        for _ in range(50):  # warm the caches before any sample counts
            self.run()

    def run(self) -> float:
        """One probe run; returns its wall seconds."""
        np, xa, xs = self._np, self._xa, self._xs
        start = time.perf_counter()
        total = float(np.sum(self._special.k0(xa) * np.cos(xa)))
        for _ in range(12):
            total += float(np.dot(np.exp(-xs), np.sqrt(xs + 1.0)))
        last = {}
        for i in range(300):
            x = i * 0.01
            total += x * x / (1.0 + x)
            last[i & 15] = total
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        # Re-armed here, not periodic, so a slow sample cannot overlap the next.
        if self._active:
            self.samples.append(self.run())
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the probe until the block ends; samples go to ``self.samples``."""
        self.samples = []
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)

    def cost(self, elapsed: float) -> float:
        """The op's time without the samples, in probe runs."""
        if not self.samples:  # an op shorter than the interval
            self.samples.append(self.run())
        busy = sum(self.samples)
        return (elapsed - busy) * len(self.samples) / busy


class Runner:
    """Runs gated ops of one workload and counts the ones that fail."""

    def __init__(self, cli, workload: str, point: dict, workdir: Path, vstate_input):
        self.cli = cli
        self.workload = workload
        self.point = point
        self.workdir = workdir
        self.vstate_input = vstate_input
        self.attempted = 0
        self.failed = 0

    def op(self, tracer=None, probe=None) -> tuple[float, int]:
        """One op: (wall seconds, bytes written).  Logged to standard error.

        With a probe, the probe samples during the op and its samples are
        part of the wall seconds; ``probe.cost`` takes them out.
        """
        out = self.workdir / f"op{self.attempted:05d}"
        self.attempted += 1
        argv = workloads.cli_argv(self.workload, self.point, out, self.vstate_input)
        captured = io.StringIO()
        code = None
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                if tracer is None:
                    with probe.sampling() if probe else contextlib.nullcontext():
                        code = self.cli.main(argv)
                else:
                    with tracer.span("op"), tracer.span("cli.main"):
                        code = self.cli.main(argv)
            except Exception:  # an op that raises counts as failed
                captured.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        if code == 0:
            problems = workloads.check_output(self.workload, self.point, out)
        else:
            problems = [f"exit code {code}: {captured.getvalue().strip()[-500:]}"]
        written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        shutil.rmtree(out, ignore_errors=True)
        self.failed += bool(problems)
        status = f"FAILED {problems}" if problems else "ok"
        label = " traced" if tracer else ""
        print(f"op {self.attempted}{label}: {elapsed:.4f} s {status}", file=sys.stderr)
        return elapsed, written


def run_untraced(runner: Runner, seconds: float) -> dict:
    probe = Probe()
    # The first op of a process is slower (allocator growth, cached
    # quadrature tables), so each run makes one gated, untimed op first.
    runner.op(probe=probe)
    costs = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        costs.append(probe.cost(runner.op(probe=probe)[0]))
    return {"op_rel": median(costs)}


def run_traced(runner: Runner, seconds: float, spans_path: Path, env: dict):
    """Alternate untraced and traced ops; (per-layer metrics, predictions held)."""
    import tracing

    tracer = tracing.Tracer()
    untraced, per_op, violations = [], [], []
    runner.op()  # warm-up, as in run_untraced
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not per_op:
        if len(untraced) <= len(per_op):
            untraced.append(runner.op()[0])
            continue
        root = len(tracer.spans)
        with tracer.instrument():
            _, written = runner.op(tracer)
        totals = tracing.span_totals(tracer.spans, root, len(tracer.spans))
        per_op.append({**tracing.op_layer_metrics(totals), "cli.bytes_written": written})
        for prefix in ZERO_CALLS.get(runner.workload, ()):
            calls = tracing.layer_calls(totals, prefix)
            if calls:
                violations.append(f"op {runner.attempted}: {calls} {prefix} calls")
    metrics = tracing.median_metrics(per_op)
    metrics["trace.untraced_op_s"] = median(untraced)
    metrics["trace.overhead"] = metrics["trace.op_s"] / median(untraced) - 1.0
    if violations:
        print(f"zero-call predictions violated: {violations}", file=sys.stderr)
    spans_path.write_text(json.dumps({"environment": env, "spans": tracer.spans}))
    return metrics, not violations


def metric_units() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description="qgpatch benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit (used to time setup_s)")
    args = parser.parse_args()

    workdir = RUN_DIR / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        units = metric_units()
        cli, point, vstate_input = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        runner = Runner(cli, args.workload, point, workdir, vstate_input)
        env = environment(args, point)
        if args.trace:
            spans_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, correct = run_traced(runner, args.seconds, spans_path, env)
        else:
            setup_s = measure_setup(args.workload, args.seed)
            metrics, correct = run_untraced(runner, args.seconds), True
            metrics["ok_ratio"] = (runner.attempted - runner.failed) / runner.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics["setup_s"] = setup_s
    except (SetupError, OSError, KeyError, json.JSONDecodeError,
            subprocess.SubprocessError) as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": correct and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
