"""promata benchmark: seeded job-mix workloads in a closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

One client in one process runs each job after the previous one finishes,
calling promata's public functions on inputs generated from the seed, and
checks every result against a known answer. A run repeats whole passes over
the workload's job list until ``--seconds`` is used up (at least one pass).
With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics. Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The program is imported from ``src/`` next to this directory;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 20
COLD_START_SAMPLES = 12
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
COLD_START_ARGV = ("-m", "promata.cli", "build", "evenodd-dfa", "--k", "2")


class ProgramMissing(Exception):
    pass


def _program_modules() -> list[str]:
    return [name for name in sys.modules if name == "promata" or name.startswith("promata.")]


def load_program() -> SimpleNamespace:
    """Import promata afresh from ``src/`` and return its modules by layer."""
    if not os.path.isfile(os.path.join(SRC, "promata", "__init__.py")):
        raise ProgramMissing(f"no promata package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in _program_modules():
        del sys.modules[name]
    importlib.import_module("promata")
    modules = {layer: importlib.import_module(f"promata.{layer}") for layer in tracing.LAYERS}
    if not modules["machines"].__file__.startswith(SRC):
        raise ProgramMissing("promata was imported from outside src/")
    return SimpleNamespace(**modules)


def timed_setup(workload: str, seed: int):
    """Import promata afresh and generate the job list; returns both and the time."""
    start = time.perf_counter()
    pm = load_program()
    jobs = workloads.build_jobs(workload, seed)
    return pm, jobs, time.perf_counter() - start


class Runner:
    """Runs passes over the job list and checks every result."""

    def __init__(self, pm, jobs, tracer: tracing.Tracer | None = None) -> None:
        self.pm = pm
        self.jobs = jobs
        self.tracer = tracer
        self.caches: dict[int, dict] = {job.ident: {} for job in jobs}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, between=None) -> list[float]:
        """Per-job times of one pass; a failed job is counted, never fatal.

        ``between`` is called after each job, outside its timed call.
        """
        tracer = self.tracer
        times = []
        for job in self.jobs:
            if tracer is not None:
                tracer.job = job.ident
                tracer.active = True
            error = None
            start = time.perf_counter()
            try:
                result = workloads.run_job(self.pm, job)
            except Exception as exc:  # a job's failure must not end the run
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            times.append(elapsed)
            self.attempted += 1
            if error is None:
                try:
                    ok = workloads.check_job(self.pm, job, result, self.caches[job.ident])
                except Exception as exc:
                    ok, error = False, exc
            else:
                ok = False
            if not ok:
                self.failed += 1
                if len(self.failures) < 10:
                    reason = f"raised {error!r}" if error is not None else "wrong answer"
                    self.failures.append(f"job {job.ident} {job.kind}{job.params!r:.120}: {reason}")
            if between is not None:
                between()
        return times


def run_passes(seconds: float, one_pass) -> None:
    """Call one_pass() until the next pass would overrun ``seconds``; at least once.

    Passes rotate the process over the CPUs it may use. On a shared machine
    one CPU can run far slower than another for minutes at a time, and a
    process left on it would be slow throughout; rotating lets each job's
    fastest time see every CPU. Where affinity cannot be set, passes run
    wherever the scheduler puts them.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    begin = time.perf_counter()
    try:
        for turn in itertools.count():
            if len(cpus) > 1:
                _set_affinity({cpus[turn % len(cpus)]})
            start = time.perf_counter()
            one_pass()
            now = time.perf_counter()
            if now - begin + (now - start) > seconds:
                return
    finally:
        if len(cpus) > 1:
            _set_affinity(set(cpus))


def _set_affinity(cpus: set) -> None:
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupSamples:
    """Set-up times taken between jobs at even intervals.

    Spread over the run, the samples see the same machine conditions as the
    passes do rather than one short window. A sample imports promata afresh
    and regenerates the job list, then puts back the modules the run's jobs
    use.
    """

    def __init__(self, workload: str, seed: int, first_setup_s: float, interval: float) -> None:
        self.workload = workload
        self.seed = seed
        self.interval = interval
        self.times = [first_setup_s]
        self.last = time.perf_counter()

    def sample(self) -> None:
        saved = {name: sys.modules[name] for name in _program_modules()}
        self.times.append(timed_setup(self.workload, self.seed)[2])
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(saved)
        self.last = time.perf_counter()

    def maybe(self) -> None:
        if time.perf_counter() - self.last >= self.interval:
            self.sample()

    def fastest(self) -> float:
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return min(self.times)


def measure_cold_start(pm) -> tuple[float, bool]:
    """Fastest spawn-to-exit time of a small CLI command, one child at a time,
    and whether every child printed the expected machine."""
    expected = pm.serialize.dumps(pm.constructions.evenodd_dfa(2)) + "\n"
    times, ok = [], True
    for _ in range(COLD_START_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *COLD_START_ARGV],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        ok = ok and done.returncode == 0 and done.stdout == expected
    return min(times), ok


def measure_cli_import() -> float:
    """Fastest of several imports of promata.cli in fresh interpreters, timed inside them."""
    code = (
        "import time; t = time.perf_counter(); import promata.cli; "
        "print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout))
    return min(times)


def plain_run(pm, jobs, args, first_setup_s: float) -> tuple[dict, Runner]:
    runner = Runner(pm, jobs)
    setups = SetupSamples(args.workload, args.seed, first_setup_s, args.seconds / SETUP_SAMPLES)
    passes: list[list[float]] = []
    run_passes(args.seconds, lambda: passes.append(runner.run_pass(setups.maybe)))
    values = metrics.end_to_end(
        passes,
        setup_s=setups.fastest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(
        f"passes: {len(passes)}, jobs per pass: {len(jobs)}, set-up samples: {len(setups.times)}"
    )
    return values, runner


def traced_run(pm, jobs, seconds: float) -> tuple[dict, Runner, bool]:
    tracer = tracing.Tracer()
    plain = Runner(pm, jobs)
    traced = Runner(pm, jobs, tracer)
    # Both runners check against the same cached references.
    traced.caches = plain.caches
    untraced_passes: list[list[float]] = []
    traced_passes: list[tuple[list[float], tracing.PassSummary, dict]] = []

    def pair() -> None:
        untraced_passes.append(plain.run_pass())
        tracer.install(pm)
        tracer.work = {}
        tracer.record_words = not traced_passes
        lo = tracer.mark()
        times = traced.run_pass()
        tracer.uninstall()
        summary = tracing.summarize(tracer, lo, tracer.mark())
        traced_passes.append((times, summary, tracer.work))

    run_passes(seconds, pair)
    # Self times of a job's spans lie inside the job's own timed call.
    bounded = all(
        summary.job_self_s.get(job.ident, 0.0) <= times[i] + 1e-9
        for times, summary, _ in traced_passes
        for i, job in enumerate(jobs)
    )
    if not bounded:
        print("trace: some job's self times sum to more than its wall time")
    cold_start_s, cold_ok = measure_cold_start(pm)
    if not cold_ok:
        print("cold start: the CLI did not print the expected machine")
    values = metrics.per_layer(
        jobs,
        untraced_passes,
        traced_passes,
        errors=tracer.errors,
        prefix_shared_frac=tracing.prefix_shared_frac(tracer.words),
        cli_import_s=measure_cli_import(),
        cli_cold_start_s=cold_start_s,
    )
    print(f"pass pairs: {len(traced_passes)}, jobs per pass: {len(jobs)}, spans: {tracer.mark()}")
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.failures += traced.failures
    return values, plain, bounded and cold_ok


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pm, jobs, setup_s = timed_setup(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(
        f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs, "
        f"inputs digest {workloads.digest(jobs)}"
    )
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}")
    if args.trace:
        values, runner, ok = traced_run(pm, jobs, args.seconds)
        table = metrics.PER_LAYER
    else:
        values, runner = plain_run(pm, jobs, args, setup_s)
        ok = True
        table = metrics.END_TO_END
    for line in runner.failures:
        print(f"FAILED {line}")
    print(f"jobs attempted {runner.attempted}, failed {runner.failed}, "
          f"failed_frac {runner.failed / runner.attempted:.6g}")
    for metric in table:
        print(f"{metric.name} = {values[metric.name]:.6g} {metric.unit}")
    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
