#!/usr/bin/env python3
"""Benchmark of the zenodark command line on seed-generated workloads.

One workload per process, run as a closed loop with one client: each CLI
job (``zenodark.cli.main([...], "--quiet")``) starts when the previous one
ends, and every job's summary JSON is checked.  Run from the repository
root::

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke       # one pass of each workload, schema check
    python3 perfbench/run.py --baseline    # full runs, rewrites perfbench/baseline.json

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs half the time untraced and half with spans installed
around the package's layers, reports the per-layer metrics per pass, then
runs the five committed scenarios once and records the sha256 of their
CSVs.  The last stdout line is one JSON object; the full report and the
spans go to ``.perfbench-out/``.  The exit code is 1 if any job failed.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread: the jobs multiply matrices of size 3 and 6, where a second
# OpenBLAS thread only spins on the other core and makes the pass times
# depend on what else the host runs there.  Set before numpy loads OpenBLAS.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
BASELINE = HERE / "baseline.json"
SETUP_REPEATS = 3

NORM_KEYS = ("max_norm_deviation", "max_full_norm_deviation")
ORTH_KEYS = ("max_orthogonality_residual",)
FIDELITY_KEYS = (
    "final_fidelity_vs_closed_form",
    "min_fidelity_vs_integrator",
    "roundtrip_min_fidelity",
)


def _import_package():
    """Import zenodark from this checkout's ``src``, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import zenodark
    import zenodark.cli

    if not Path(zenodark.__file__).resolve().is_relative_to(src):
        raise ImportError(f"zenodark imported from {zenodark.__file__}, not from {src}")
    return zenodark


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs jobs through the CLI, checks each, and keeps the invariant telemetry."""

    def __init__(self, cli, out_dir: Path):
        self.cli = cli
        self.out_dir = out_dir
        self.tracer = None
        self.attempted = 0
        self.failures: list[str] = []
        self.csv_sha: dict[str, str] = {}
        # None until a job reports the figure (sweep summaries carry none of them)
        self.telemetry = {"worst_norm_drift": None, "worst_orthogonality_residual": None,
                          "min_fidelity_vs_reference": None}

    def run(self, job) -> float:
        self.attempted += 1
        argv = job.argv(self.out_dir)
        start = time.perf_counter()
        try:
            if self.tracer is not None:
                code = self.tracer.command(self.cli.main, argv)
            else:
                code = self.cli.main(argv)
        except (Exception, SystemExit):  # a crash is a failed job, the loop goes on
            elapsed = time.perf_counter() - start
            self.failures.append(f"{job.name}: {traceback.format_exc(limit=-3)}")
            return elapsed
        elapsed = time.perf_counter() - start
        problems = self._check(job, code)
        if problems:
            self.failures.append(f"{job.name}: " + "; ".join(problems))
        return elapsed

    def _check(self, job, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            summary = json.loads((self.out_dir / f"{job.name}_summary.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"summary unreadable: {exc}"]
        problems = [p for p in (b.violation(summary) for b in job.bounds) if p]
        metrics = summary.get("metrics", {})
        for name, keys, pick in (("worst_norm_drift", NORM_KEYS, max),
                                 ("worst_orthogonality_residual", ORTH_KEYS, max),
                                 ("min_fidelity_vs_reference", FIDELITY_KEYS, min)):
            for key in keys:
                if key in metrics:
                    seen = self.telemetry[name]
                    value = float(metrics[key])
                    self.telemetry[name] = value if seen is None else pick(seen, value)
        if job.csv:
            for csv in sorted(self.out_dir.glob(f"{job.name}_*.csv")):
                digest = _sha256(csv)
                # identical inputs must give byte-identical CSVs on every pass
                if self.csv_sha.setdefault(csv.name, digest) != digest:
                    problems.append(f"{csv.name} differs from its first pass")
        return problems


def _passes(runner, jobs, seconds: float, first: int, tracer=None) -> list[float]:
    """Closed loop over ``jobs`` until ``seconds`` have passed; one wall per pass."""
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall = 0.0
        for j, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = f"{first + len(walls)}.{j}"
            wall += runner.run(job)
        walls.append(wall)
    return walls


def _distribution(walls: list[float]) -> dict:
    """Median, quartiles, count, and the highest percentile with >= 10 samples beyond it."""
    out = {"n": len(walls), "median": statistics.median(walls)}
    if len(walls) >= 2:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        out.update(p25=q1, p75=q3)
        cuts = statistics.quantiles(walls, n=100)
        for p in (99, 95, 90, 75, 50):
            if len(walls) * (100 - p) / 100 >= 10:
                out["tail"] = {"percentile": p, "value": cuts[p - 1]}
                break
    return out


def _blas_threads():
    """Thread count of the OpenBLAS that numpy bundles, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def _environment(zenodark, args) -> dict:
    backend = getattr(zenodark, "backend", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": backend() if callable(backend) else None,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "sweep_worker_cap": _sweep_worker_cap(),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _sweep_worker_cap() -> int:
    """The CLI's sweep pool size limit: ZENO_DARK_THREADS, else nproc."""
    env = os.environ.get("ZENO_DARK_THREADS", "").strip()
    return int(env) if env else (os.cpu_count() or 1)


def _layer_metrics(tracer, jobs: set, passes: int, overhead: float) -> tuple[dict, list]:
    layers = tracer.layers(jobs)
    # share of all traced CPU self time: on the sweep's worker threads a span's
    # wall time also covers waits for the interpreter lock held by the other
    traced_cpu_s = sum(entry["cpu_self_s"] for entry in layers.values()) / passes

    def get(name, key):
        return layers.get(name, {}).get(key, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    loop_busy, loop_steps = get("kernels.continuous_loop", "busy_s"), get("kernels.continuous_loop", "work")
    csv_busy, csv_bytes = get("trajectory.write_csv", "busy_s"), get("trajectory.write_csv", "work")
    sweeps = tracer.sweeps(jobs)
    point_busy = sum(s[0] for s in sweeps)
    points = sum(s[2] for s in sweeps)
    capacity = sum(wall * max(1, min(_sweep_worker_cap(), n)) for _, wall, n in sweeps)
    values = {
        "kernels.continuous_loop.busy_s": (loop_busy, "s"),
        "kernels.continuous_loop.steps": (loop_steps, "count"),
        "kernels.continuous_loop.us_per_step": (1e6 * ratio(loop_busy, loop_steps), "us"),
        "kernels.discrete_loop.busy_s": (get("kernels.discrete_loop", "busy_s"), "s"),
        "kernels.discrete_loop.steps": (get("kernels.discrete_loop", "work"), "count"),
        "kernels.embedded_loop.busy_s": (get("kernels.embedded_loop", "busy_s"), "s"),
        "kernels.embedded_loop.steps": (get("kernels.embedded_loop", "work"), "count"),
        "dynamics.continuous_dark_run.self_s": (get("dynamics.continuous_dark_run", "self_s"), "s"),
        "dynamics.discrete_dark_run.self_s": (get("dynamics.discrete_dark_run", "self_s"), "s"),
        "dynamics.closed_form_run.busy_s": (get("dynamics.closed_form_run", "busy_s"), "s"),
        "dynamics.closed_form_solution.busy_s": (get("dynamics.closed_form_solution", "busy_s"), "s"),
        "paths.evaluate_many.busy_s": (get("paths.evaluate_many", "busy_s"), "s"),
        "paths.evaluate_many.points": (get("paths.evaluate_many", "work"), "count"),
        "paths.evaluate_many.share": (ratio(get("paths.evaluate_many", "cpu_self_s"), traced_cpu_s), "ratio"),
        "scenario.load_scenario.busy_s": (get("scenario.load_scenario", "busy_s"), "s"),
        "scenario.load_scenario.calls": (get("scenario.load_scenario", "calls"), "count"),
        "linalg.hermitian_eigendecomposition.busy_s": (
            get("linalg.hermitian_eigendecomposition", "busy_s"), "s"),
        "linalg.hermitian_eigendecomposition.calls": (
            get("linalg.hermitian_eigendecomposition", "calls"), "count"),
        "cli.command.self_s": (get("cli.command", "self_s"), "s"),
        "cli.sweep.points": (points / passes, "count"),
        "cli.sweep.point_s": (ratio(point_busy, points), "s"),
        "cli.sweep.parallel_efficiency": (ratio(point_busy, capacity), "ratio"),
        "embedding.embedded_run.self_s": (get("embedding.embedded_run", "self_s"), "s"),
        "embedding.adiabatic_alpha_check.busy_s": (
            get("embedding.adiabatic_alpha_check", "busy_s"), "s"),
        "design.mode_design.busy_s": (get("design.mode_design", "busy_s"), "s"),
        "design.design_monitored_state.busy_s": (get("design.design_monitored_state", "busy_s"), "s"),
        "design.phase_diagnostics.busy_s": (get("design.phase_diagnostics", "busy_s"), "s"),
        "trajectory.write_csv.busy_s": (csv_busy, "s"),
        "trajectory.write_csv.bytes": (csv_bytes, "count"),
        "trajectory.write_csv.mb_per_s": (ratio(csv_bytes, csv_busy) / 1e6, "MB/s"),
        "trace.overhead_s": (overhead, "s"),
    }
    ranking = sorted(((name, entry["self_s"] / passes, entry["cpu_self_s"] / passes)
                      for name, entry in layers.items()), key=lambda item: -item[1])
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, ranking


def _traced_run(runner, jobs, seconds: float, tracer) -> tuple[dict, dict]:
    """Half the time untraced, then half traced; per-layer metrics per traced pass."""
    untraced = _passes(runner, jobs, seconds / 2, 0)
    tracer.install()
    runner.tracer = tracer
    try:
        traced = _passes(runner, jobs, seconds / 2, len(untraced), tracer)
    finally:
        tracer.uninstall()
        runner.tracer = None
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics, ranking = _layer_metrics(tracer, {s.job for s in tracer.spans}, len(traced), overhead)
    return metrics, {"untraced_wall_s": _distribution(untraced), "traced_wall_s": _distribution(traced),
                     "self_time_ranking": ranking, "missing_hooks": tracer.missing}


def _plain_run(runner, jobs, seconds: float, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off."""
    wall = _distribution(_passes(runner, jobs, seconds, 0))
    steps = sum(job.steps for job in jobs)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall["median"], "unit": "s"},
        "steps_per_s": {"value": steps / wall["median"], "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    return metrics, {"wall_s": wall}


def _committed_scenarios(runner, out_dir: Path) -> dict:
    """Run the committed scenarios once each, counted in ``runner``; sha256 of their CSVs."""
    committed = Runner(runner.cli, out_dir)
    for job in workloads.committed(ROOT):
        committed.run(job)
    runner.attempted += committed.attempted
    runner.failures += committed.failures
    sha = {csv.name: _sha256(csv) for csv in sorted(out_dir.glob("*.csv"))}
    known = (json.loads(BASELINE.read_text()).get("committed_csv_sha256", {})
             if BASELINE.is_file() else {})
    return {"committed_telemetry": committed.telemetry, "committed_csv_sha256": sha,
            "committed_csv_changed": sorted(n for n, d in sha.items() if known.get(n, d) != d)}


def run_workload(args) -> int:
    try:
        zenodark = _import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _STARTED
    OUT.mkdir(exist_ok=True)

    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        scenario_dir = work / "scenarios"
        scenario_dir.mkdir(parents=True)
        generate = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            jobs = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), scenario_dir)
            generate.append(time.perf_counter() - start)
        runner = Runner(zenodark.cli, work / "out")
        warmup_s = sum(runner.run(job) for job in jobs)
        setup_s = import_s + statistics.median(generate) + warmup_s

        report = {"environment": _environment(zenodark, args),
                  "jobs": [{"command": j.command, "scenario": j.name, "steps": j.steps} for j in jobs],
                  "steps_per_pass": sum(job.steps for job in jobs),
                  "setup": {"import_s": import_s, "generate_s": generate, "warmup_s": warmup_s}}
        if args.trace:
            tracer = Tracer()
            metrics, part = _traced_run(runner, jobs, args.seconds, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            part.update(_committed_scenarios(runner, work / "committed"))
        else:
            metrics, part = _plain_run(runner, jobs, args.seconds, setup_s)
        report.update(part, telemetry=runner.telemetry, metrics=metrics, attempted=runner.attempted,
                      failures=runner.failures, failed_ratio=len(runner.failures) / runner.attempted)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    _print_report(args, report)
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not runner.failures else 1


def _print_report(args, report) -> None:
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['attempted']} jobs, failed_ratio {report['failed_ratio']:.4g}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    if "wall_s" in report:
        w = report["wall_s"]
        line = f"  wall_s per pass: median {w['median']:.4f} s over n={w['n']}"
        if "p25" in w:
            line += f", quartiles {w['p25']:.4f} / {w['p75']:.4f} s"
        if "tail" in w:
            line += f", p{w['tail']['percentile']} {w['tail']['value']:.4f} s"
        print(line)
    for key, value in report["telemetry"].items():
        print(f"  {key}: {'not reported' if value is None else f'{value:.6g}'}")
    for name, m in report["metrics"].items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    for name, self_s, cpu_self_s in report.get("self_time_ranking", [])[:6]:
        print(f"  self time per pass {name}: {self_s:.4f} s (CPU {cpu_self_s:.4f} s)")
    for name in report.get("committed_csv_changed", []):
        print(f"  sha256 of committed scenario output {name} differs from perfbench/baseline.json")
    for name in report.get("missing_hooks", []):
        print(f"  not traced (not found): {name}")


# --- smoke and baseline: every workload in a fresh process -----------------


def _validate(result: dict, names: dict) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0:
        problems.append(f"correct={result['correct']} failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted={result['attempted']!r}")
    if set(result["metrics"]) != set(names):
        problems.append(f"metrics {sorted(set(result['metrics']) ^ set(names))} do not match")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r}")
        if name in names and m.get("unit") != names[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, expected {names[name]!r}")
    return problems


def run_all(seconds: int, seed: int) -> tuple[dict, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    results, problems = {}, []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            print(proc.stdout, end="")
            tag = f"{workload} trace {trace}"
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append(f"{tag}: no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            problems += [f"{tag}: {p}" for p in _validate(result, groups[trace])]
            if proc.returncode != 0:
                problems.append(f"{tag}: exit code {proc.returncode}")
            report = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
            results[(workload, trace)] = report
    return results, problems


def smoke() -> int:
    _, problems = run_all(1, 1)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def write_baseline() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results, problems = run_all(spec["run_seconds"], 1)
    for problem in problems:
        print(f"BASELINE FAIL {problem}")
    if problems:
        return 1
    any_traced = next(r for (w, t), r in results.items() if t == 1)
    baseline = {
        "note": "One run per workload and trace mode at seed 1; per-layer values are per pass.",
        "environment": {k: v for k, v in any_traced["environment"].items()
                        if k not in ("workload", "trace")},
        "committed_csv_sha256": any_traced["committed_csv_sha256"],
        "workloads": {},
    }
    for w in spec["workloads"]:
        plain, traced = results[(w["name"], 0)], results[(w["name"], 1)]
        baseline["workloads"][w["name"]] = {
            "why": w["why"],
            "end_to_end": {k: m["value"] for k, m in plain["metrics"].items()},
            "wall_s": plain["wall_s"],
            "telemetry": plain["telemetry"],
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
            "self_time_ranking": traced["self_time_ranking"],
        }
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("trajectory", "sweep", "small-dense"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass of every workload")
    parser.add_argument("--baseline", action="store_true", help="rewrite perfbench/baseline.json")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.baseline:
        return write_baseline()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
