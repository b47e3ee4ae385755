#!/usr/bin/env python3
"""Benchmark of spdcpol: seeded scenario workloads, end to end and per layer.

    python3 bench/run.py --workload window_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
Each workload is a closed loop with one client in one process and one
thread: the next op (one scenario: load -> run -> serialize) starts only
after the previous one has finished. The loop cycles through a seeded pool
of generated scenario files (``workloads.py``) for ``--seconds``, and for at
least one full pass. Every op's output is checked against an independent
mpmath oracle (``oracle.py``) on its scenario's first run and must repeat
byte for byte on every later run.

``--trace 0`` prints the end-to-end metrics: op latency p50/p90 and
throughput, set-up time, peak RSS and the worst relative error on the fixed
accuracy panel. ``--trace 1`` runs the same ops once untraced and once with
every public layer function wrapped (``tracing.py``), and prints per-layer
calls and self time per op, the ratios the layers should move, the tracing
overhead and the bundled presets' wall times.

Op and set-up times are scaled to the host's fast speed (``reference.py``);
the raw values are printed too. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat every metric by name and unit, with
failed_frac, sample counts and the environment (Python, numpy, CPU, nproc,
commit, seed).
"""

import os

# One BLAS thread for this process and the set-up subprocesses; set before
# numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import oracle  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CATALOGUE = SRC / "spdcpol" / "data" / "materials.txt"

TRACE_MIN_OPS = 20
WARMUP_OPS = 3
HARD_LIMIT_S = 120.0   # a loop stops here even before its full pass
SETUP_PROCESSES = 9
PRESET_REPEATS = 5

# Child process for setup_s: the timed part is import + builtin_materials +
# loading the first scenario; the reference kernel runs after it.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spdcpol
spdcpol.builtin_materials()
spdcpol.load_scenario(sys.argv[2])
spent = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
import reference
reference.kernel()
print(spent, reference.scale(reference.seconds(), reference.seconds()))
"""


class Runner:
    """One workload's scenario files, its ops and their output checks."""

    def __init__(self, workload, pool, orc, directory):
        from spdcpol import cli, output, scenario
        self.cli, self.output, self.scenario = cli, output, scenario
        self.workload = workload
        self.pool = pool
        self.directory = directory
        directory.mkdir(parents=True)
        self.paths = {}
        for sc in pool:
            path = directory / f"{sc.name}.cfg"
            path.write_text(sc.text)
            self.paths[sc.name] = path
        self.expected = {sc.name: orc.expected(sc.params) for sc in pool}
        self.verdicts = {}     # scenario name -> (output digest, passed)
        self.worst = 0.0
        self.errors = []

    def op(self, sc):
        """One scenario through the public API; returns what it emitted.

        Module attributes are looked up at call time, so a Tracer's
        rebinding sees these calls.
        """
        path = self.paths[sc.name]
        if self.workload != "cli_batch":
            spec = self.scenario.load_scenario(path)
            return [(table.name, self.output.to_csv(table))
                    for table in self.scenario.run_scenario(spec)]
        out = str(self.directory / "out" / sc.name)
        with contextlib.redirect_stdout(io.StringIO()):
            return (self.cli.main(["run", str(path), "--format", "json",
                                   "--out", out]),
                    self.cli.main(["bell-angles", str(path), "--state",
                                   sc.params["bell_state"], "--out", out,
                                   "--format", "json"]))

    def _emitted(self, sc, result):
        """name -> text of every table the op produced, None on exit != 0."""
        if self.workload != "cli_batch":
            return dict(result)
        if any(code != 0 for code in result):
            return None
        emitted = {}
        for path in sorted((self.directory / "out" / sc.name).glob("*.json")):
            emitted[path.stem] = path.read_text()
            path.unlink()
        return emitted

    def check(self, sc, result) -> bool:
        """Oracle check on a scenario's first op, byte identity after it."""
        emitted = self._emitted(sc, result)
        if emitted is None:
            return False
        digest = hashlib.sha256(
            json.dumps(sorted(emitted.items())).encode()).hexdigest()
        if sc.name in self.verdicts:
            first_digest, passed = self.verdicts[sc.name]
            return passed and digest == first_digest
        expected = self.expected[sc.name]
        passed = set(emitted) == set(expected)
        for name in sorted(set(emitted) & set(expected)):
            if self.workload == "cli_batch":
                rows = np.array(json.loads(emitted[name])["rows"],
                                dtype=float)
            else:
                rows = np.loadtxt(io.StringIO(emitted[name]), delimiter=",",
                                  skiprows=1, ndmin=2)
            width = expected[name][0].shape[1]
            got = rows[:, :width] if rows.size else np.zeros((0, width))
            if "_counts_" in name:
                counts = rows[:, -1]
                passed &= bool(np.all((counts >= 0)
                                      & (counts == np.round(counts))))
            worst, ok = oracle.compare(name, got, expected[name])
            self.worst = max(self.worst, worst)
            if not ok:
                self.errors.append(f"{name}: relative error {worst:.3g}")
            passed &= ok
        self.verdicts[sc.name] = (digest, passed)
        return passed


def timed_loop(runner, seconds, min_ops, max_ops=None, tracer=None):
    """Closed loop over the pool.

    Returns ([(scenario, seconds, seconds at host speed)], failed ops). The
    reference kernel runs between ops, outside their timing.
    """
    times, failed = [], 0
    clock = time.perf_counter
    start = clock()
    index = 0
    kernel_before = reference.seconds()
    while True:
        elapsed = clock() - start
        if max_ops is not None:
            if index >= max_ops:
                break
        elif (elapsed >= seconds and index >= min_ops) \
                or elapsed >= HARD_LIMIT_S:
            break
        sc = runner.pool[index % len(runner.pool)]
        index += 1
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            result = runner.op(sc)
        except Exception:
            result = None
            failed += 1
            if failed == 1:
                traceback.print_exc(file=sys.stderr)
        spent = clock() - t0
        kernel_after = reference.seconds()
        times.append((sc.name, spent,
                      spent * reference.scale(kernel_before, kernel_after)))
        kernel_before = kernel_after
        if result is not None and not runner.check(sc, result):
            failed += 1
    return times, failed


def measure_setup(first_scenario: Path) -> list[tuple[float, float]]:
    """(seconds, seconds at host speed) of set-up in fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC),
             str(first_scenario), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True)
        spent, scale = map(float, proc.stdout.split())
        samples.append((spent, spent * scale))
    return samples


def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"   # the benchmark may run outside a git checkout
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "spdcpol").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "mpmath": mpmath.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "commit": commit, "src_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def end_to_end(args, orc, runner, report) -> tuple[dict, int, int]:
    """End-to-end metrics over the pool's scenarios.

    Each scenario counts once, at the median of its repeats (at host
    speed), so p50 and p90 describe the pool, whose mix the generator holds
    alike from seed to seed. scenarios_per_s is the closed loop's rate at
    those times: 1 / their mean.
    """
    panel = Runner(args.workload, workloads.accuracy_panel(args.workload, orc),
                   orc, WORK / "panel")
    _, panel_failed = timed_loop(panel, 0.0, 0, max_ops=len(panel.pool))
    times, failed = timed_loop(runner, args.seconds, len(runner.pool))
    setup = measure_setup(runner.paths[runner.pool[0].name])
    per_scenario = {}
    for name, _, scaled in times:
        per_scenario.setdefault(name, []).append(scaled)
    ms = np.array([np.median(v) for v in per_scenario.values()]) * 1e3
    p90 = float(np.percentile(ms, 90))
    beyond = int(np.sum(ms > p90))
    if beyond < 10:
        report(f"note: only {beyond} samples beyond p90")
    metrics = {
        "scenario_ms.p50": (float(np.median(ms)), "ms"),
        "scenario_ms.p90": (p90, "ms"),
        "scenarios_per_s": (1e3 / float(np.mean(ms)), "1/s"),
        "setup_s": (statistics.median(s for _, s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "max_rel_err": (max(panel.worst, oracle.RESOLUTION), "ratio"),
    }
    raw = np.array([seconds for _, seconds, _ in times])
    report(f"samples: {len(ms)} scenarios ({beyond} beyond p90) from "
           f"{len(times)} ops; raw op p50 {np.median(raw) * 1e3:.4g} ms, "
           f"{len(raw) / raw.sum():.4g} ops/s; raw setup median "
           f"{statistics.median(s for s, _ in setup):.4g} s")
    report(f"failed_frac = {failed / len(times):.6g} ratio "
           f"({failed} of {len(times)})")
    report(f"worst relative error: seed pool {runner.worst:.6g}, accuracy "
           f"panel {panel.worst:.6g} ({panel_failed} of {len(panel.pool)} "
           f"panel scenarios failed)")
    for error in (panel.errors + runner.errors)[:10]:
        report(f"check failed: {error}")
    return metrics, len(times) + len(panel.pool), failed + panel_failed


def per_layer(args, runner, report) -> tuple[dict, int, int]:
    """Per-layer metrics: the same ops untraced, then traced."""
    from spdcpol import output, scenario
    untraced, failed_plain = timed_loop(runner, args.seconds / 2.0,
                                        TRACE_MIN_OPS)
    ops = len(untraced)
    with tracing.Tracer() as tracer:
        traced, failed_traced = timed_loop(runner, 0.0, 0, max_ops=ops,
                                           tracer=tracer)
    totals = tracer.totals()
    metrics = {}
    for name in tracing.NAMES:
        calls, seconds = totals[name]
        metrics[f"{name}.calls"] = (calls / ops, "count")
        metrics[f"{name}.self_ms"] = (seconds * 1e3 / ops, "ms")
    integrals = totals["quadrature.adaptive_simpson"][0]
    loads = totals["scenario.load_scenario"][0]
    metrics["quadrature.evals_per_integral"] = (
        tracer.integrand_evals / integrals if integrals else 0.0, "count")
    metrics["crystal.cut_solves_per_scenario"] = (
        totals["crystal.phase_matching_cut_angle"][0] / loads
        if loads else 0.0, "count")
    metrics["output.bytes_per_op"] = (tracer.output_bytes / ops, "B")
    untraced_s = sum(scaled for _, _, scaled in untraced)
    traced_s = sum(scaled for _, _, scaled in traced)
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    for preset in scenario.PRESETS:
        samples = []
        for _ in range(PRESET_REPEATS):
            t0 = time.perf_counter()
            for table in scenario.run_scenario(scenario.load_scenario(preset)):
                output.to_csv(table)
            samples.append(time.perf_counter() - t0)
        metrics[f"preset.{preset}.ms"] = (statistics.median(samples) * 1e3,
                                          "ms")
    failed = failed_plain + failed_traced
    report(f"traced {ops} ops, {len(tracer.spans)} spans; at host speed "
           f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s")
    report(f"failed_frac = {failed / (2 * ops):.6g} ratio "
           f"({failed} of {2 * ops})")
    for error in runner.errors[:10]:
        report(f"check failed: {error}")
    return metrics, 2 * ops, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spdcpol" / "__init__.py").is_file():
        print(f"error: {SRC / 'spdcpol'} not found; run from the root of a "
              f"spdcpol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    def report(line):
        print(line, flush=True)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        report(f"env {json.dumps(environment(args))}")
        orc = oracle.Oracle(CATALOGUE)
        pool = workloads.generate(args.workload, args.seed, orc)
        runner = Runner(args.workload, pool, orc, WORK / "pool")
        _, warm_failed = timed_loop(runner, 0.0, 0, max_ops=WARMUP_OPS)
        if args.trace:
            metrics, attempted, failed = per_layer(args, runner, report)
        else:
            metrics, attempted, failed = end_to_end(args, orc, runner,
                                                    report)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    attempted += WARMUP_OPS
    failed += warm_failed
    for name, (value, unit) in metrics.items():
        report(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
