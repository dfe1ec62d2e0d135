"""Benchmark of the foldlab command line: one fresh process per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root.  A run sets up (writes the workload's INI
files in a seed-permuted order, compiles foldlab into a fresh bytecode
cache and checks that it imports, and checks the reference table) several
times, then runs passes over the workload's job list for ``--seconds``.
Jobs run one at a time in a closed loop: each is a
``python -m foldlab.cli run ... --json`` child, and the parent reads its
wall time, CPU time and peak RSS with ``os.wait4`` and checks its exit code
and report against ``reference.py``.

On a shared host the speed a process gets drifts by tens of percent within
minutes.  So the jobs share one CPU with ``calibrate.py``, which runs at
nice 10 and measures the speed of that CPU during each pass and each job.
Times are reported in reference-speed seconds: measured seconds times that
speed, relative to ``REFERENCE_RATE``.  The measured seconds and the speeds are in
the metadata line printed before the result.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``.  With ``--trace 1`` it alternates an untraced pass with
a pass in which each job runs under ``trace_child.py``, and reports the
per-layer metrics.  ``--all`` runs every workload both ways and prints
every metric.  All files the run writes go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from jobs import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Calibration units per CPU second that define a reference-speed second.
REFERENCE_RATE = 10_000.0
# Every job must end this long after the run starts, so that a run ends
# within its 180 s allowance even if a job hangs.
RUN_LIMIT_S = 150.0


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    job: Job
    wall: float
    cpu: float
    rss_kb: int
    exit: int  # negative: killed by that signal
    killed: bool
    window: tuple  # (start, end) on time.monotonic()
    speed: float = 1.0  # machine speed during the job, 1 = reference
    report: bytes | None = None
    trace: dict | None = None
    problems: list = field(default_factory=list)
    wrong: bool = False  # the program gave a wrong answer, not just no answer


@dataclass
class Pass:
    wall: float
    outcomes: list
    window: tuple  # (start, end) on time.monotonic()
    speed: float = 1.0  # machine speed during the pass, 1 = reference


# -- child processes ----------------------------------------------------


def job_env(pycache: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


class Launcher:
    """``launch.py``, which starts the jobs so that their peak RSS is their own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py")],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, stderr: Path, timeout: float) -> dict:
        request = {"argv": argv, "stderr": str(stderr), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchmarkError("the job launcher stopped")
        return json.loads(answer)

    def stop(self) -> None:
        """End of input ends the launcher; a job it still runs has its own deadline."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Calibrator:
    """``calibrate.py`` sharing the jobs' CPU, and the speed it measured."""

    def __init__(self, log: Path):
        self.log = log
        log.unlink(missing_ok=True)
        with open(log.with_suffix(".err"), "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py"), str(log)],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        self.samples, self.times = [], []
        give_up = time.monotonic() + 30.0
        while not self.read():
            if time.monotonic() > give_up:
                self.stop()
                raise BenchmarkError("the calibration process did not start")
            time.sleep(0.01)

    def read(self) -> list:
        """(units, its CPU seconds, monotonic time) of every line logged so far."""
        if self.log.exists():
            lines = self.log.read_text().split("\n")[:-1]
            self.samples = [(int(u), float(c), float(t)) for u, c, t in (line.split() for line in lines)]
            self.times = [t for _, _, t in self.samples]
        return self.samples

    def speed(self, start: float, end: float, fallback: float | None = None) -> float:
        """Units per CPU second between two monotonic times, over the
        reference rate; ``fallback`` if fewer than 3 samples fall inside."""
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_right(self.times, end) - 1
        if last - first < 2:
            if fallback is None:
                raise BenchmarkError(f"no calibration samples in a {end - start:.3f} s window")
            return fallback
        (u0, c0, _), (u1, c1, _) = self.samples[first], self.samples[last]
        return (u1 - u0) / (c1 - c0) / REFERENCE_RATE

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()


# -- set-up -------------------------------------------------------------


def set_up(workload: str, seed: int, rep: int):
    """Write the job configs, warm a fresh bytecode cache, check the references."""
    directory = WORK / workload / f"setup{rep}"
    shutil.rmtree(directory, ignore_errors=True)
    (directory / "out").mkdir(parents=True)
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    for i, job in enumerate(jobs):
        (directory / "out" / f"{i}.ini").write_text(job.ini)
    unpinned = [j.name for j in jobs if j.exit == 0 and j.name not in reference.SEED_SHA256]
    if unpinned:
        raise BenchmarkError(f"no recorded report for {unpinned}")
    env = job_env(directory / "pycache")
    warm = subprocess.run(
        [sys.executable, "-c", "import foldlab.cli"],
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    if warm.returncode != 0:
        raise BenchmarkError(f"foldlab does not import:\n{warm.stderr}")
    return directory, jobs, env


# -- passes -------------------------------------------------------------


def run_pass(directory: Path, jobs, launcher: Launcher, traced: bool, kill_at: float) -> Pass:
    out = directory / "out"
    runs = []
    window_start = time.monotonic()
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        report, summary = out / f"{i}.json", out / f"{i}.trace.json"
        report.unlink(missing_ok=True)
        summary.unlink(missing_ok=True)
        cli = ["run", str(out / f"{i}.ini"), *job.args, "--json", str(report)]
        if traced:
            argv = [str(HERE / "trace_child.py"), str(summary), *cli]
        else:
            argv = ["-m", "foldlab.cli", *cli]
        r = launcher.run(argv, out / f"{i}.err", kill_at - time.perf_counter())
        runs.append(Outcome(job, r["wall"], r["cpu"], r["rss_kb"], r["exit"], r["killed"], tuple(r["window"])))
        if r["killed"]:
            break
    pass_wall = time.perf_counter() - start
    window = (window_start, time.monotonic())
    for i, outcome in enumerate(runs):
        report, summary = out / f"{i}.json", out / f"{i}.trace.json"
        outcome.report = report.read_bytes() if report.exists() else None
        if traced and summary.exists():
            outcome.trace = json.loads(summary.read_text())
        judge(outcome)
    return Pass(pass_wall, runs, window)


def judge(o: Outcome) -> None:
    """Record why a job failed, and whether it gave a wrong answer."""
    job = o.job
    if o.killed:
        o.problems.append("killed at the run's time limit")
        return
    if o.exit != job.exit:
        o.problems.append(f"exit {o.exit}, expected {job.exit}")
        # Accepting bad input, or a brute-force count disagreeing with its
        # prediction, is a wrong answer; a crash or a refusal is no answer.
        o.wrong = o.exit == 5 or (o.exit == 0 and job.exit != 0)
    if o.exit != 0 or job.exit != 0:
        return
    if o.report is None:
        o.problems.append("no --json report written")
        return
    mismatches = reference.check_report(job, json.loads(o.report))
    if mismatches:
        o.problems += mismatches
        o.wrong = True
    if hashlib.sha256(o.report).hexdigest() != reference.SEED_SHA256[job.name]:
        o.problems.append("report bytes differ from the recorded report")


def check_trace(untraced: Pass, traced: Pass) -> None:
    """A traced job must end and report exactly as untraced, and its layer
    self times must add up to its root span."""
    plain = {o.job.name: o for o in untraced.outcomes}
    for o in traced.outcomes:
        if o.trace is None:
            if not o.killed:
                o.problems.append("traced job wrote no trace summary")
            continue
        twin = plain.get(o.job.name)
        if twin is not None and (twin.exit, twin.report) != (o.exit, o.report):
            o.problems.append("tracing changed the exit code or the report")
        total = sum(o.trace["self_s"].values())
        if abs(total - o.trace["root_s"]) > 1e-6:
            raise BenchmarkError(
                f"{o.job.name}: layer self times add to {total}, root span is {o.trace['root_s']}"
            )


# -- metrics ------------------------------------------------------------


def e2e_metrics(passes, setup_s: float) -> dict:
    """Times are in reference-speed seconds: measured seconds times the
    speed during the pass or job."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "wall_s": statistics.median(p.wall * p.speed for p in passes),
        "cpu_s": statistics.median(sum(o.cpu * o.speed for o in p.outcomes) for p in passes),
        "job_p50_s": statistics.median(o.wall * o.speed for o in outcomes),
        "slowest_job_s": statistics.median(max(o.wall * o.speed for o in p.outcomes) for p in passes),
        "peak_rss_mb": statistics.median(max(o.rss_kb for o in p.outcomes) / 1024 for p in passes),
        "ok_frac": (len(outcomes) - failed) / len(outcomes),
        "setup_s": setup_s,
    }


def layer_metrics(pairs, units: dict) -> dict:
    """Per-pass sums over the traced jobs' summaries, median over passes;
    times are in reference-speed seconds."""
    per_pass = []
    for untraced, traced in pairs:
        sums: dict = {}
        for o in traced.outcomes:
            if o.trace is None:
                continue
            values = {f"{layer}.self_s": s for layer, s in o.trace["self_s"].items()}
            values.update(o.trace["values"])
            values["cli.import_s"] = o.trace["import_s"]
            for key, value in values.items():
                sums[key] = sums.get(key, 0.0) + (value * o.speed if units.get(key) == "s" else value)
        closed = sums.get("weyl_closed_in_fixed", 0.0)
        sums["folding.fixed_weyl_yield"] = sums.get("fixed_weyl_order", 0.0) / closed if closed else 0.0
        sums["trace.overhead_frac"] = (traced.wall * traced.speed) / (untraced.wall * untraced.speed) - 1.0
        per_pass.append(sums)
    return {name: statistics.median(s.get(name, 0.0) for s in per_pass) for name in units}


# -- run metadata -------------------------------------------------------


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "foldlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# -- one run ------------------------------------------------------------


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    # Jobs and the calibrator share one CPU, so the calibrator samples the
    # speed each job actually got.
    os.sched_setaffinity(0, {min(cpus)})
    loads = [os.getloadavg()[0]]
    (WORK / workload).mkdir(parents=True, exist_ok=True)
    calibrator = Calibrator(WORK / workload / "calibrate.log")
    launcher = None
    try:
        setup_times = []
        setup_window = time.monotonic()
        for rep in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            directory, jobs, env = set_up(workload, seed, rep)
            setup_times.append(time.perf_counter() - t0)
        setup_window = (setup_window, time.monotonic())
        launcher = Launcher(env)

        kill_at = started + RUN_LIMIT_S
        timed_from = time.perf_counter()
        passes, pairs = [], []
        while True:
            plain = run_pass(directory, jobs, launcher, False, kill_at)
            passes.append(plain)
            if trace:
                traced = run_pass(directory, jobs, launcher, True, kill_at)
                check_trace(plain, traced)
                passes.append(traced)
                pairs.append((plain, traced))
            loads.append(os.getloadavg()[0])
            elapsed = time.perf_counter() - timed_from
            # Start another round only if it should end within --seconds.
            per_round = elapsed / (len(pairs) if trace else len(passes))
            if elapsed + per_round > seconds or any(o.killed for p in passes for o in p.outcomes):
                break
        calibrator.read()
    finally:
        if launcher is not None:
            launcher.stop()
        calibrator.stop()
        os.sched_setaffinity(0, cpus)
    for p in passes:
        p.speed = calibrator.speed(*p.window)
        for o in p.outcomes:
            o.speed = calibrator.speed(*o.window, fallback=p.speed)
    setup_speed = calibrator.speed(*setup_window)

    outcomes = [o for p in passes for o in p.outcomes]
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(pairs, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = e2e_metrics(passes, statistics.median(setup_times) * setup_speed)
    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "python": platform.python_version(),
        "nproc": nproc,
        "loadavg_before": loads[0],
        "loadavg_after": loads[-1],
        "loadavg_max": max(loads),
        "speed": [round(p.speed, 4) for p in passes],
        "setup_speed": round(setup_speed, 4),
        "measured_wall_s": [round(p.wall, 4) for p in passes],
        "measured_setup_s": [round(t, 4) for t in setup_times],
        "foldlab_git_rev": git_revision(),
        "foldlab_src_sha256": source_digest(),
    }
    # The run keeps two tasks runnable on one CPU (a job and the calibrator),
    # so other work competes for CPU once the load exceeds nproc + 1.
    if max(loads) > nproc + 1:
        print(
            f"warning: load average {max(loads):.2f} exceeded nproc + 1 = {nproc + 1} during the run",
            file=sys.stderr,
        )
    return {
        "meta": meta,
        "failures": sorted({(o.job.name, "; ".join(o.problems)) for o in outcomes if o.problems}),
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.problems),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def print_run(result: dict) -> None:
    meta = result["meta"]
    print(f"meta: {json.dumps(meta, sort_keys=True)}")
    for name, problem in result["failures"]:
        print(f"failed job {name}: {problem}")
    print(
        f"{meta['workload']} ({'traced' if meta['trace'] else 'untraced'}, {meta['passes']} passes):"
        f" {result['attempted'] - result['failed']}/{result['attempted']} jobs ok"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:14.6f} {metric['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "foldlab" / "cli.py").is_file():
            raise BenchmarkError(f"no foldlab sources under {SRC}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if args.all:
            summary = {}
            for trace in (False, True):
                for workload in WORKLOADS:
                    result = run_workload(spec, workload, args.seed, seconds, trace)
                    print_run(result)
                    summary.setdefault(workload, {}).update(result["metrics"])
            print(json.dumps(summary))
            return 0
        if args.workload not in WORKLOADS:
            ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
        result = run_workload(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_run(result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
