"""surfbench benchmark: workloads, end-to-end metrics, a traced run per layer.

Run from the repository root:

    python3 bench/run.py --workload experiment_default --seed 42 --seconds 50 --trace 0

``--trace 0`` times closed-loop passes of the workload in this one process and
thread (the next pass starts when the previous one ends), measures the
host's speed during each pass (probe.py) and prints the end-to-end metrics. ``--trace 1`` alternates untraced and traced passes, and
prints per-layer calls, busy time and self time plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0 when
every check passed, 1 when a correctness check failed and 2 when the package
cannot be found. Everything is written under ``.bench_out/`` in the root.
See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-threaded closed loop, and
# must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 12

# A fresh interpreter imports the package, builds the config and generates
# the dataset; setup_s is the least wall time of that whole process over
# SETUP_SAMPLES runs. Set-up times fall into two clusters, one per state of
# the shared host (about 0.17 s and 0.25 s on the baseline VM), so a median
# flips with the share of slow samples; the least sample stays in the fast
# cluster. Start-up and imports track the host-speed probe (probe.py) too
# loosely to be normalized by it.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from surfbench.config import ExperimentConfig
from surfbench.synthdata import DesignSpec, generate
config = ExperimentConfig(random_seed=int(sys.argv[2]))
x1, x2, x3 = (int(v) for v in sys.argv[3].split(","))
generate(spec=DesignSpec(x1_levels=x1, x2_levels=x2, x3_levels=x3), noise=config.noise_spec())
"""

# Name, unit and direction of every end-to-end metric (--trace 0).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Traced functions, by span name: each is wrapped at every name its callers
# look up (see tracer.py).
SPANS = {
    "cubic.fit_cubic": ("surfbench.protocol.fit_cubic", "surfbench.report.fit_cubic"),
    "cubic.estimate_gradients": ("surfbench.cubic.estimate_gradients",),
    "cubic.evaluate": ("surfbench.cubic.CubicSurface.evaluate",),
    "cubic.eval_cubic": ("surfbench.cubic.eval_cubic",),
    "geometry.triangulate": ("surfbench.cubic.triangulate",),
    "geometry.locate": ("surfbench.cubic.locate",),
    "geometry.geometry_report": ("surfbench.report.geometry_report",),
    "rbf.fit_rbf": ("surfbench.protocol.fit_rbf", "surfbench.report.fit_rbf"),
    "rbf.eval_rbf": ("surfbench.protocol.eval_rbf", "surfbench.report.eval_rbf"),
    "metrics.compute_metrics": ("surfbench.protocol.compute_metrics",),
    "metrics.bootstrap_ci": ("surfbench.report.bootstrap_ci",),
    "protocol.execute_experiment": ("surfbench.cli.execute_experiment",
                                    "surfbench.protocol.execute_experiment"),
    "protocol.make_splits": ("surfbench.protocol.make_splits",),
    "protocol.run_pair": ("surfbench.protocol.run_pair",),
    "report.summarize": ("surfbench.cli.summarize", "surfbench.report.summarize"),
    "report.read_runs_csv": ("surfbench.cli.read_runs_csv",),
    "report.write_runs_csv": ("surfbench.cli.write_runs_csv", "surfbench.report.write_runs_csv"),
    "report.export_surface_grid": ("surfbench.cli.export_surface_grid",),
    "report.write_grid_csv": ("surfbench.cli.write_grid_csv",),
    "report.diagnose_slices": ("surfbench.cli.diagnose_slices",),
    "synthdata.generate": ("surfbench.cli.generate", "surfbench.synthdata.generate"),
    "cli.cli_main": ("surfbench.cli.cli_main",),
}

# Per-layer metrics beyond calls/busy_s/self_s: (name, unit, better).
LAYER_EXTRAS = (
    ("cubic.fit_cubic.failed", "count", "lower"),
    ("cubic.evaluate.points", "count", "lower"),
    ("cubic.fit_useful_ratio", "ratio", "higher"),
    ("geometry.triangulate.triangles", "count", "lower"),
    ("geometry.locate.hit_ratio", "ratio", "higher"),
    ("rbf.fit_rbf.failed", "count", "lower"),
    ("rbf.fit_rbf.ill_conditioned", "count", "lower"),
    ("rbf.eval_rbf.points", "count", "lower"),
    ("metrics.bootstrap_ci.resamples", "count", "lower"),
    ("protocol.run_pair.p50_ms", "ms", "lower"),
    ("protocol.run_pair.p99_ms", "ms", "lower"),
    ("protocol.reason.cubic.ok", "count", "higher"),
    ("protocol.reason.cubic.test_points_outside_support", "count", "lower"),
    ("protocol.reason.rbf.ok", "count", "higher"),
    ("report.write_runs_csv.bytes", "bytes", "lower"),
    ("report.write_grid_csv.bytes", "bytes", "lower"),
    ("cli.cli_main.p50_ms", "ms", "lower"),
    ("cli.cli_main.p99_ms", "ms", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run emits, in output order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count", "lower"), (f"{span}.busy_s", "s", "lower"),
                (f"{span}.self_s", "s", "lower")]
    return out + list(LAYER_EXTRAS)


def _import_package():
    if not (SRC / "surfbench" / "__init__.py").is_file():
        print(f"error: no surfbench package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


# --------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Command:
    """One CLI command of the postprocess workload."""

    kind: str
    argv: tuple
    out: str | None = None
    key: tuple | None = None  # (regime, axis, level_index, output) of a surface


class Workload:
    """A pass is one unit of closed-loop work; items are what it completes."""

    name = ""
    design = (4, 4, 3)

    def __init__(self, seed: int, work: Path):
        from surfbench.config import ExperimentConfig
        from surfbench.synthdata import DesignSpec, generate

        self.seed = seed
        self.work = work
        self.config = ExperimentConfig(random_seed=seed, **self.config_overrides())
        x1, x2, x3 = self.design
        self.spec = DesignSpec(x1_levels=x1, x2_levels=x2, x3_levels=x3)
        self.dataset = generate(spec=self.spec, noise=self.config.noise_spec())

    def config_overrides(self) -> dict:
        return {}

    def prepare(self) -> None:
        """Untimed work the passes read."""

    def items(self) -> int:
        raise NotImplementedError

    def run_pass(self, outdir: Path, stdout: dict) -> int:
        """Run one pass into ``outdir``; return the number of failed items."""
        raise NotImplementedError

    def check(self, outdir: Path, stdout: dict, references: dict, tol: dict):
        """Check one pass's artifacts against oracles and ``references``
        (this workload's entry of references.json, keyed by seed)."""
        raise NotImplementedError


class _Experiment(Workload):
    def items(self) -> int:
        slices = sum(self.design)
        return 2 * 3 * 2 * slices * self.config.repeats_per_slice  # regimes x outputs x methods

    def check(self, outdir, stdout, references, tol):
        import check
        return check.check_experiment(outdir, self.dataset, self.config, references, tol)


class ExperimentDefault(_Experiment):
    name = "experiment_default"

    def run_pass(self, outdir, stdout):
        from surfbench import cli
        with _quiet(stdout, 0):
            rc = cli.cli_main(["run", "--seed", str(self.seed), "--outdir", str(outdir)])
        return 0 if rc == 0 else self.items()


class ExperimentScaled(_Experiment):
    name = "experiment_scaled"
    design = (10, 10, 6)

    def config_overrides(self):
        return {"repeats_per_slice": 3}

    def run_pass(self, outdir, stdout):
        from surfbench import protocol, report, synthdata
        with _quiet(stdout, 0):
            dataset = synthdata.generate(spec=self.spec, noise=self.config.noise_spec())
            records = protocol.execute_experiment(dataset, self.config)
            table = report.summarize(records, self.config)
            report.write_runs_csv(records, outdir / "runs.csv")
            report.write_summary_csv(table, outdir / "summary.csv")
        return 0


class Postprocess(Workload):
    name = "postprocess"

    def prepare(self):
        from surfbench import cli
        from surfbench.protocol import AXES, REGIMES

        self.prepared = self.work / "prepared"
        with _quiet({}, 0):
            rc = cli.cli_main(["run", "--seed", str(self.seed), "--outdir", str(self.prepared)])
        if rc != 0:
            raise RuntimeError(f"preparing runs.csv failed with exit code {rc}")
        seed = ("--seed", str(self.seed))
        cmds = [Command("report", ("report", "--runs", str(self.prepared / "runs.csv")) + seed)]
        for regime in REGIMES:
            for axis in AXES:
                for li, level in enumerate(self.spec.axis_levels(axis)):
                    for output in (1, 2, 3):
                        for method in ("cubic", "rbf"):
                            out = f"grid_{regime}_{axis}_{li}_{output}_{method}.csv"
                            argv = ("surface", "--axis", axis, "--level", repr(float(level)),
                                    "--output", str(output), "--method", method,
                                    "--regime", regime) + seed
                            cmds.append(Command("surface", argv, out, (regime, axis, li, output)))
        cmds.append(Command("diagnose", ("diagnose",) + seed, "diagnose.json"))
        self.commands = cmds

    def items(self):
        return len(self.commands)

    def run_pass(self, outdir, stdout):
        from surfbench import cli
        failed = 0
        for i, cmd in enumerate(self.commands):
            argv = list(cmd.argv) + (["--out", str(outdir / cmd.out)] if cmd.out else [])
            with _quiet(stdout, i):
                try:
                    failed += cli.cli_main(argv) != 0
                except Exception:
                    traceback.print_exc()
                    failed += 1
        return failed

    def check(self, outdir, stdout, references, tol):
        import check
        return check.check_postprocess(outdir, self.dataset, self.config, self.commands, stdout,
                                       self.prepared / "summary.csv", references, tol)


WORKLOADS = {w.name: w for w in (ExperimentDefault, ExperimentScaled, Postprocess)}


@contextlib.contextmanager
def _quiet(stdout: dict, key):
    """Capture stdout and stderr of the timed region under ``stdout[key]``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        yield
    stdout[key] = stdout.get(key, "") + buf.getvalue()


# --------------------------------------------------------------------------
# Passes and tracing


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    ill_conditioned: int
    digests: dict
    traced: bool = False
    pass_s: float | None = None  # seconds at reference host speed, when probed
    speed: float | None = None  # host speed over the pass, relative to the reference


def run_one_pass(workload: Workload, outdir: Path, stdout: dict, traced: bool = False,
                 probed: bool = False) -> Pass:
    """One timed pass, with warnings captured, not printed. ``probed``
    measures the host's speed during the pass (see probe.py)."""
    from probe import Probe
    from surfbench.errors import IllConditionedWarning

    import check

    outdir.mkdir(parents=True)
    attempted = workload.items()
    probe = Probe() if probed else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with probe:
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                failed = workload.run_pass(outdir, stdout)
            except Exception:
                traceback.print_exc()
                failed = attempted
            wall = time.perf_counter() - t0
            cpu = time.process_time() - c0
    ill = sum(issubclass(w.category, IllConditionedWarning) for w in caught)
    p = Pass(wall, cpu, attempted, failed, ill, check.fingerprint(outdir), traced)
    if probed:
        p.pass_s, p.speed = probe.normalize(wall), probe.speed
    return p


def make_targets(item_span: str):
    """Tracer targets for every span, with the counters each one feeds."""
    import numpy as np
    from tracer import Target

    def evaluate(tr, args, kwargs, values):
        tr.counters["cubic.evaluate.points"] += len(values)
        # Each fitted surface is evaluated once, so an all-finite evaluation
        # marks one fit whose test predictions were used.
        tr.counters["cubic.fit_useful"] += bool(np.isfinite(values).all())

    def count(key, fn):
        return lambda tr, args, kwargs, result: tr.counters.update({key: fn(args, result)})

    hooks = {
        "cubic.evaluate": evaluate,
        "geometry.triangulate": count("geometry.triangulate.triangles", lambda a, r: len(r.triangles)),
        "geometry.locate": count("geometry.locate.hits", lambda a, r: r is not None),
        "rbf.eval_rbf": count("rbf.eval_rbf.points", lambda a, r: getattr(r, "size", 1)),
        "metrics.bootstrap_ci": count("metrics.bootstrap_ci.resamples",
                                      lambda a, r: r.resamples if r is not None else 0),
        "report.write_runs_csv": count("report.write_runs_csv.bytes",
                                       lambda a, r: os.path.getsize(a[1])),
        "report.write_grid_csv": count("report.write_grid_csv.bytes",
                                       lambda a, r: os.path.getsize(a[2])),
    }
    targets = []
    for span, places in SPANS.items():
        for place in places:
            owner, attr = place.rsplit(".", 1)
            targets.append(Target(owner, attr, span, hooks.get(span), item=span == item_span))
    return targets


def layer_values(tracer, p: Pass, outdir: Path) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    import check

    agg = tracer.aggregate()
    c = tracer.counters
    vals = {}
    for span in SPANS:
        a = agg.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        vals.update({f"{span}.{k}": v for k, v in a.items()})
    fits = vals["cubic.fit_cubic.calls"]
    locates = vals["geometry.locate.calls"]
    runs = outdir / "runs.csv"
    hist = check.reason_histogram(check.read_csv(runs)[1]) if runs.exists() else {}
    vals.update({
        "cubic.fit_cubic.failed": c["cubic.fit_cubic.failed"],
        "cubic.evaluate.points": c["cubic.evaluate.points"],
        "cubic.fit_useful_ratio": c["cubic.fit_useful"] / fits if fits else 0.0,
        "geometry.triangulate.triangles": c["geometry.triangulate.triangles"],
        "geometry.locate.hit_ratio": c["geometry.locate.hits"] / locates if locates else 0.0,
        "rbf.fit_rbf.failed": c["rbf.fit_rbf.failed"],
        "rbf.fit_rbf.ill_conditioned": p.ill_conditioned,
        "rbf.eval_rbf.points": c["rbf.eval_rbf.points"],
        "metrics.bootstrap_ci.resamples": c["metrics.bootstrap_ci.resamples"],
        "report.write_runs_csv.bytes": c["report.write_runs_csv.bytes"],
        "report.write_grid_csv.bytes": c["report.write_grid_csv.bytes"],
    })
    for method, code in (("cubic", "ok"), ("cubic", "test_points_outside_support"), ("rbf", "ok")):
        vals[f"protocol.reason.{method}.{code}"] = hist.get(method, {}).get(code, 0)
    return vals


# --------------------------------------------------------------------------
# Set-up time and environment


def setup_seconds(workload: Workload) -> float:
    """Wall seconds of one fresh set-up process, interpreter start included."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(workload.seed),
            ",".join(map(str, workload.design))]
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    with contextlib.suppress(OSError):
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def quartiles(values) -> tuple[float, float, float]:
    """Quartiles that stay within the values, however few there are."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


# --------------------------------------------------------------------------
# Driver


@dataclass
class Measurement:
    passes: list = field(default_factory=list)
    setup: list = field(default_factory=list)  # set-up seconds, untraced runs only
    layer: list = field(default_factory=list)  # per-layer values of each traced pass
    pair_ms: list = field(default_factory=list)
    cli_ms: list = field(default_factory=list)
    first_stdout: dict = field(default_factory=dict)  # the first pass is checked in full
    absent: list = field(default_factory=list)
    hook_failed: list = field(default_factory=list)
    peak_rss_mb: float = 0.0


def measure(workload: Workload, seconds: float, trace: bool) -> Measurement:
    """Closed-loop passes for about ``seconds``.

    Untraced, one fresh set-up process runs before each pass, up to
    ``SETUP_SAMPLES`` and topped up to that after the passes, so set-up
    samples spread over the run as the passes do (the host's speed drifts).
    Untraced passes are probed for the host's speed.
    Traced, untraced and traced passes alternate, at least one of each, and
    the spans of the last traced pass are written to ``.bench_out``.
    """
    from tracer import Tracer

    tracer = Tracer()
    item_span = "cli.cli_main" if workload.name == "postprocess" else "protocol.run_pair"
    targets = make_targets(item_span) if trace else []
    m = Measurement()
    if not trace:
        setup_seconds(workload)  # warm-up: also compiles the package's bytecode
    deadline = time.perf_counter() + seconds
    # Start another pass only while at least half of it fits before the
    # deadline, so a run lasts about ``seconds`` whatever the pass length.
    while (len(m.passes) < (2 if trace else 1)
           or time.perf_counter() + 0.5 * m.passes[-1].wall_s < deadline):
        traced = trace and len(m.passes) % 2 == 1
        if not trace and len(m.setup) < SETUP_SAMPLES:
            m.setup.append(setup_seconds(workload))
        outdir = workload.work / f"pass{len(m.passes)}"
        stdout: dict = {}
        if traced:
            tracer.reset()
            tracer.install(targets)
        try:
            p = run_one_pass(workload, outdir, stdout, traced, probed=not trace)
        finally:
            tracer.uninstall()
        if traced:
            m.layer.append(layer_values(tracer, p, outdir))
            m.pair_ms += list(tracer.durations("protocol.run_pair") * 1e3)
            m.cli_ms += list(tracer.durations("cli.cli_main") * 1e3)
        m.passes.append(p)
        if len(m.passes) == 1:
            m.first_stdout = stdout
        else:
            shutil.rmtree(outdir)
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not trace and len(m.setup) < SETUP_SAMPLES:
        m.setup.append(setup_seconds(workload))
    if trace:
        import numpy as np
        m.absent = tracer.absent
        m.hook_failed = sorted(k for k in tracer.counters if k.endswith(".hook_failed"))
        np.savez_compressed(OUT / f"spans-{workload.name}.npz", **tracer.spans())
    return m


def run(args) -> int:
    _import_package()
    import check
    import numpy as np

    env = environment()
    seed = args.seed % 2**31  # the package rejects negative seeds
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](seed, work)
        workload.prepare()
        refs = check.load_references()
        m = measure(workload, args.seconds, bool(args.trace))
        env["loadavg_end"] = os.getloadavg()

        passes = m.passes
        result = workload.check(work / "pass0", m.first_stdout, refs.get(args.workload, {}),
                                refs["tolerance"])
        for p in passes[1:]:
            if p.digests != passes[0].digests:
                p.failed = p.attempted
                result.problems.append("a pass wrote artifacts that differ from the first pass"
                                       + (" (traced)" if p.traced else ""))
        if not result.ok:
            for p in passes:
                p.failed = p.attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    walls = [p.wall_s for p in untraced]
    q1, med, q3 = quartiles(walls)
    attempted = sum(p.attempted for p in untraced)
    failed = sum(p.failed for p in untraced)
    lines = [
        f"workload {args.workload} seed {seed} trace {args.trace} (closed loop, 1 process, 1 thread)",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    for i, p in enumerate(passes):
        lines.append(f"pass {i} {'traced' if p.traced else 'untraced'} wall_s={p.wall_s:.4f} "
                     f"cpu_s={p.cpu_s:.4f} "
                     + (f"pass_s={p.pass_s:.4f} speed={p.speed:.3f} " if p.pass_s is not None else "")
                     + f"items={p.attempted} failed={p.failed} "
                     f"ill_conditioned={p.ill_conditioned}"
                     + (" (waited: wall exceeds cpu by over 5%)" if p.wall_s > 1.05 * p.cpu_s else ""))
    lines.append(f"wall_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(walls)} "
                 "(too few passes for a tail percentile)")
    lines.append(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    for name, value in sorted(result.facts.items()):
        if name != "grids_detail":
            lines.append(f"check {name}: {json.dumps(value, sort_keys=True)}")
    lines += [f"check note: {n}" for n in result.notes]
    lines += [f"check FAILED: {msg}" for msg in result.problems]

    if args.trace:
        tw = statistics.median(p.wall_s for p in passes if p.traced)
        values = {k: statistics.median(v[k] for v in m.layer) for k in m.layer[0]}
        pct = lambda xs, q: float(np.percentile(xs, q)) if xs else 0.0  # noqa: E731
        values.update({
            "protocol.run_pair.p50_ms": pct(m.pair_ms, 50),
            "protocol.run_pair.p99_ms": pct(m.pair_ms, 99),
            "cli.cli_main.p50_ms": pct(m.cli_ms, 50),
            "cli.cli_main.p99_ms": pct(m.cli_ms, 99),
            "trace.untraced_wall_s": med,
            "trace.traced_wall_s": tw,
            "trace.overhead_s": tw - med,
            "trace.overhead_share": (tw - med) / med,
        })
        lines.append(f"latency samples: run_pair {len(m.pair_ms)}, cli_main {len(m.cli_ms)} "
                     "(p99 has fewer than ten samples beyond it below 1000 samples)")
        lines.append("absent (target no longer exists; reported as 0): " + (", ".join(m.absent) or "none"))
        lines.append("counter hooks that failed: " + (", ".join(m.hook_failed) or "none"))
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in per_layer_metrics()}
    else:
        # The normalization errs mostly towards too long (see probe.py), so
        # the lower quartile of the normalized passes is steadier from run to
        # run than their median.
        rq1, rmed, rq3 = quartiles([p.pass_s for p in untraced])
        lines += [
            f"pass_s q1={rq1:.4f} median={rmed:.4f} q3={rq3:.4f} n={len(untraced)} "
            "(seconds at reference host speed; the metric is q1)",
            f"wall_items_per_s = {(attempted - failed) / sum(walls):.6g} 1/s (per wall second)",
            f"setup_s samples (median {statistics.median(m.setup):.4f}): "
            + ", ".join(f"{t:.4f}" for t in m.setup),
        ]
        values = {
            "setup_s": min(m.setup),
            "pass_s": rq1,
            "items_per_s": (attempted - failed) / len(untraced) / rq1,
            "peak_rss_mb": m.peak_rss_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}

    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace, "env": env,
        "passes": [vars(p) for p in passes], "setup_s": m.setup,
        "metrics": metrics,
        "check": {"ok": result.ok, "problems": result.problems, "notes": result.notes,
                  "facts": result.facts},
    }
    (OUT / f"result-{args.workload}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    lines += [f"{name} = {v['value']:.6g} {v['unit']}" for name, v in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({"correct": result.ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
