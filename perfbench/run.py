"""cyclogab benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``sweep`` (certify stored results and build
subcodes, sweep on) and ``patterns`` (check and randomized oracle; no field
arithmetic).  Every job is one in-process call of ``cyclogab.cli.main``; one
process, one thread.

Set-up (interpreter start, imports, inputs, stored results, one warm-up job)
runs SETUP_REPEATS times in fresh processes; ``setup_s`` is the median.  The
measured run repeats whole passes over the job list until ``--seconds`` have
passed, and makes at least MIN_PASSES passes.  With ``--trace 1`` it instead
runs one untraced and one traced pass over the same jobs and reports
per-layer metrics from the traced pass, plus traced over untraced wall time.  Every job's output is checked; the last
line of stdout is the JSON result.  Spans are written under .perfbench-work/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_library():
    """Import the checkout's own cyclogab from src/, never an installed one."""
    src = ROOT / "src"
    if not (src / "cyclogab" / "__init__.py").is_file():
        raise ImportError(f"no cyclogab sources under {src}")
    sys.path.insert(0, str(src))
    import cyclogab

    if Path(cyclogab.__file__).resolve().parent != (src / "cyclogab").resolve():
        raise ImportError(f"imported cyclogab from {cyclogab.__file__}, not {src}")


def run_job(job: dict, workdir: Path) -> tuple[float, object, str, str, dict]:
    """One timed in-process CLI call: (seconds, exit code, stdout, stderr, files)."""
    from workloads import clear_output, emitted_files, resolve_argv
    from cyclogab import cli

    argv = resolve_argv(job, workdir)
    clear_output(job, workdir)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed job, not a crashed run
            code = f"raised {exc!r}"
    took = time.perf_counter() - start
    return took, code, out.getvalue(), err.getvalue(), emitted_files(job, workdir)


class Pass:
    """Runs and checks jobs; remembers each job's first output digest."""

    def __init__(self, jobs: list[dict], workdir: Path) -> None:
        self.jobs = jobs
        self.workdir = workdir
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.bytes_written = 0
        self.times: dict[str, list[float]] = {job["id"]: [] for job in jobs}

    def run(self) -> float:
        """One pass over every job; returns its wall time."""
        from workloads import check_output, output_digest

        start = time.perf_counter()
        for job in self.jobs:
            took, code, stdout, stderr, files = run_job(job, self.workdir)
            self.times[job["id"]].append(took)
            self.attempted += 1
            self.bytes_written += len(stdout.encode()) + sum(len(b) for b in files.values())
            digest = output_digest(job, code, stdout, files)
            try:
                if self.digests.setdefault(job["id"], digest) != digest:
                    raise AssertionError("output differs from the job's first run")
                check_output(job, code, stdout, stderr, files)
            except Exception as exc:  # any wrong output counts as a failed job
                self.failures.append(f"{job['id']}: {exc!r}")
        return time.perf_counter() - start

    def digest(self) -> str:
        h = hashlib.sha256()
        for job in self.jobs:
            h.update(self.digests.get(job["id"], "missing").encode())
        return h.hexdigest()


def tail_percentile(jobs_per_pass: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND jobs above it in a
    run of MIN_PASSES passes.  It depends only on the job list, so runs of
    faster or slower code report the same percentile."""
    n = MIN_PASSES * jobs_per_pass
    return max(0, 100 * (n - TAIL_BEYOND) // n)


def percentile(times: list[float], pct: int) -> float:
    """Linear interpolation between the closest ranks."""
    n = len(times)
    ordered = sorted(times)
    pos = (n - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_setups(args, dirs: list[Path]) -> list[float]:
    """Run set-up in fresh interpreters; return their wall times.  Each
    set-up's directory is appended to dirs, which the caller removes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare", str(workdir),
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(time.perf_counter() - start)
        dirs.append(workdir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return samples


def prepare_main(args) -> int:
    """Set-up only: inputs, stored results and one warm-up job into a dir."""
    from workloads import clear_output, prepare

    workdir = Path(args.prepare)
    jobs = prepare(args.workload, args.seed, workdir)
    run_job(jobs[0], workdir)
    clear_output(jobs[0], workdir)
    (workdir / "jobs.json").write_text(json.dumps(jobs, sort_keys=True), encoding="utf-8")
    return 0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def measure(args) -> int:
    from workloads import dir_digest
    import tracing

    WORK.mkdir(exist_ok=True)
    dirs: list[Path] = []
    try:
        setup_samples = timed_setups(args, dirs)
        workdir = dirs[0]
        inputs_repeat = len({dir_digest(d) for d in dirs}) == 1
        jobs = json.loads((workdir / "jobs.json").read_text(encoding="utf-8"))
        run_job(jobs[0], workdir)  # warm-up in this process
        runner = Pass(jobs, workdir)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "python": platform.python_version(), "commit": _git_commit(),
                  "nproc": os.cpu_count(), "jobs_per_pass": len(jobs),
                  "setup_samples_s": setup_samples}
        if args.trace:
            plain_s = runner.run()
            tracer = tracing.Tracer()
            before = runner.bytes_written
            try:
                tracer.install()
                traced_s = runner.run()
            finally:
                tracer.uninstall()
            tracer.bytes_written = runner.bytes_written - before
            values = tracer.layer_metrics()
            values["trace.overhead_ratio"] = traced_s / plain_s
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, (unit, _) in tracing.LAYER_METRICS.items()}
            record.update(untraced_pass_s=plain_s, traced_pass_s=traced_s)
        else:
            pass_times = []
            deadline = time.perf_counter() + args.seconds
            while len(pass_times) < MIN_PASSES or time.perf_counter() < deadline:
                pass_times.append(runner.run())
            times = [t for job_times in runner.times.values() for t in job_times]
            pct = tail_percentile(len(jobs))
            values = {
                "jobs_per_s": len(times) / sum(pass_times),
                "job_p50_s": statistics.median(times),
                "job_tail_s": percentile(times, pct),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            record.update(passes=len(pass_times), pass_s=pass_times, job_samples=len(times),
                          tail_percentile=pct, job_s=runner.times)
        record.update(inputs_repeat=inputs_repeat, attempted=runner.attempted,
                      failed=len(runner.failures),
                      failed_share=len(runner.failures) / runner.attempted,
                      failures=runner.failures[:20], output_digest=runner.digest())
        if args.trace:
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl", record)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    print(json.dumps({"record": record}, sort_keys=True))
    correct = inputs_repeat and not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _load_library()
    except ImportError as exc:
        return _fail(str(exc))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.prepare:
        return prepare_main(args)
    try:
        return measure(args)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
