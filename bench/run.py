"""lpvident benchmark: time to a checked verdict, per workload.

Usage, from the repository root:

    python3 bench/run.py --workload chain --seed 0 --seconds 15 --trace 0

One process runs the workload's jobs one after another, in passes, until
the next pass would end after ``--seconds`` (at least two passes, so that
every job's report can be compared byte for byte with its first pass).
Each job is checked against the hand-written table in ``workloads.py``
outside its timed region.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` a third of the time goes to
untraced passes and the rest to traced passes, and the last line holds the
per-layer metrics.  Readable lines before it show every metric with its
unit, the tail percentiles and the share of time of each named layer.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import spans
import workloads

SETUP_REPEATS = 9


def _purge_lpvident() -> None:
    for name in [m for m in sys.modules
                 if m == "lpvident" or m.startswith("lpvident.")]:
        del sys.modules[name]


def set_up(root: Path, work: Path, workload: str, seed: int) -> tuple:
    """Set up SETUP_REPEATS times from a fresh import; keep the last.

    Each set-up writes its model files into a new directory: truncating a
    file that still has unwritten data makes ext4 flush it, which would
    time the disk rather than the set-up.
    """
    shutil.rmtree(work / "models", ignore_errors=True)
    times = []
    setup = None
    for k in range(SETUP_REPEATS):
        _purge_lpvident()
        t0 = perf_counter()
        setup = workloads.Setup(root, work / "models" / str(k), workload,
                                seed)
        times.append(perf_counter() - t0)
    return setup, times


class Runner:
    """Runs passes over the jobs and keeps per-job times and failures."""

    def __init__(self, setup, jobs: list, tracer: spans.Tracer | None = None):
        self.setup = setup
        self.jobs = jobs
        self.tracer = tracer
        self.verify = importlib.import_module("lpvident.verify")
        self.first_out: list = [None] * len(jobs)
        self.attempted = 0
        self.failures: list = []
        self.passes: list = []        # per pass: list of job seconds
        self.report_counts: list = []  # per pass: summed report timings
        self.job_span = tracer.name_id("job") if tracer else None

    def _call(self, job):
        """Run one job; returns (seconds, output bytes, error or None)."""
        if job.kind == "trajectory":
            model, iop, theta = self.setup.trajectory[job.model]
            t0 = perf_counter()
            rep = self.verify.discrete_trajectory_check(
                model, iop, theta, steps=workloads.TRAJECTORY_STEPS,
                seed=workloads.TRAJECTORY_SEED)
            dt = perf_counter() - t0
            out = f"ok={rep.ok} windows={rep.windows} max={rep.max_residual}"
            return dt, out, workloads.check_trajectory(rep, iop)
        argv = self.setup.argv(job)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = self.setup.cli.main(argv)
            dt = perf_counter() - t0
        out = buf.getvalue()
        report = json.loads(out)
        for key, value in report["timings"].items():
            if key != "units":
                self.report_counts[-1][key] = (
                    self.report_counts[-1].get(key, 0) + value)
        return dt, out, workloads.check_cli(job, code, report)

    def run_pass(self) -> list:
        times = []
        self.report_counts.append({})
        tracer = self.tracer
        for j, job in enumerate(self.jobs):
            self.attempted += 1
            if tracer is not None:
                tracer.job_id = len(self.passes) * len(self.jobs) + j
                span = tracer.open(self.job_span)
            try:
                dt, out, err = self._call(job)
            except Exception:  # a crash is a failed job, not a failed run
                dt, out, err = None, None, traceback.format_exc(limit=3)
            finally:
                if tracer is not None:
                    tracer.close(span)
            if err is None:
                if self.first_out[j] is None:
                    self.first_out[j] = out
                elif out != self.first_out[j]:
                    err = "report bytes differ from the first pass"
            if err is not None:
                self.failures.append((len(self.passes), job.label, err))
            times.append(dt if dt is not None else 0.0)
        self.passes.append(times)
        return times


def measure(runner: Runner, seconds: float, min_passes: int,
            after_pass=None) -> list:
    """Passes until the next one would end after ``seconds``."""
    out = []
    t0 = perf_counter()
    while True:
        out.append(runner.run_pass())
        if after_pass is not None:
            after_pass()
        elapsed = perf_counter() - t0
        if (len(out) >= min_passes
                and elapsed + elapsed / len(out) > seconds):
            return out


def tail(values: list):
    """(percentile, value) with ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(jobs: list, passes: list, setup_times: list) -> dict:
    walls = [sum(p) for p in passes]

    def mode_sum(mode):
        return statistics.median(
            sum(t for job, t in zip(jobs, p)
                if job.kind == "analyze" and job.mode == mode)
            for p in passes)

    per_job = [statistics.median(p[j] for p in passes)
               for j in range(len(jobs))]
    return {
        "wall_s": statistics.median(walls),
        "numeric_s": mode_sum("numeric"),
        "symbolic_s": mode_sum("symbolic"),
        "max_job_s": max(per_job),
        "job_p50_s": statistics.median(t for p in passes for t in p),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _unit(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    return "s" if name.endswith("_s") else "count"


def measure_traced(runner: Runner, tracer: spans.Tracer,
                   seconds: float) -> tuple:
    """A third of the time untraced, the rest traced (two passes or more)."""
    untraced = measure(runner, seconds / 3, 1)
    tracer.install()
    tracer.take_counts()
    counts = []
    try:
        traced = measure(runner, seconds * 2 / 3, 2,
                         lambda: counts.append(tracer.take_counts()))
    finally:
        tracer.uninstall()
    return untraced, traced, counts


def layer_row(tracer: spans.Tracer, jobs: range) -> dict:
    """Layer times of one traced pass, from its spans."""
    lt = spans.layer_times(tracer, jobs)
    tot, slf = lt["total"], lt["self"]
    return {
        "groebner.basis_s": tot.get("groebner.groebner_basis", 0.0),
        "classify.self_s": slf.get("classify.classify", 0.0),
        "classify.evaluate_summary_s":
            tot.get("classify.evaluate_summary", 0.0),
        "classify.jacobian_s": tot.get("classify.jacobian_local_test", 0.0),
        "poly.gcd_s": tot.get("poly.poly_gcd", 0.0),
        "poly.gcd_calls": lt["calls"].get("poly.poly_gcd", 0),
        "elimination.left_nullspace_self_s":
            slf.get("elimination.left_nullspace", 0.0),
        "verify.output_closure_s": tot.get("verify.output_closure", 0.0),
        "verify.stack_substitution_self_s":
            slf.get("verify.stack_substitution_check", 0.0),
        "verify.backsubstitution_self_s":
            slf.get("verify.backsubstitute_check", 0.0),
        "verify.trajectory_s":
            tot.get("verify.discrete_trajectory_check", 0.0),
        "model.parse_s": tot.get("model.parse_model", 0.0),
        "stacking.build_stack_s": tot.get("stacking.build_stack", 0.0),
        "iop.form_iop_s": tot.get("iop.form_iop", 0.0),
        "iop.extract_summary_s": tot.get("iop.extract_summary", 0.0),
        "cli.self_s": slf.get("cli.main", 0.0),
    }


# Printed but left out of the result line: each is exactly zero on the
# workloads that never call its layer (jacobian_local_test runs only in
# corpus, the trajectory check nowhere in high_order).
TEXT_ONLY = ("classify.jacobian_s", "verify.trajectory_s")


def layer_metrics(tracer, runner, first, traced, counts, untraced_wall):
    """Median layer times over the traced passes, counters and self-test.

    The self-test holds when every counter repeats exactly across the
    traced passes and the reports' own counts repeat across all passes,
    traced and untraced.
    """
    njobs = len(runner.jobs)
    rows = []
    for k, cnt in enumerate(counts, start=first):
        row = layer_row(tracer, range(k * njobs, (k + 1) * njobs))
        row.update(cnt)
        rows.append(row)
    counters = [n for n in rows[0] if _unit(n) == "count"]
    repeat = all(r[c] == rows[0][c] for r in rows for c in counters)
    reports_repeat = all(c == runner.report_counts[0]
                         for c in runner.report_counts)
    traced_wall = statistics.median(sum(p) for p in traced)
    metrics = {n: rows[0][n] if n in counters else
               statistics.median(r[n] for r in rows) for n in rows[0]}
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"traced: {len(traced)} passes, median wall_s {traced_wall:.6g} s")
    print(f"  self-test: counters repeat across traced passes: {repeat}; "
          f"report counts repeat traced and untraced: {reports_repeat}")
    print("  report counts per pass: " + ", ".join(
        f"{k}={v}" for k, v in sorted(runner.report_counts[0].items())))
    for name in sorted(metrics):
        print(f"  {name:<36} {metrics[name]:.6g} {_unit(name)}")
    verify_s = sum(metrics[n] for n in (
        "verify.output_closure_s", "verify.stack_substitution_self_s",
        "verify.backsubstitution_self_s", "verify.trajectory_s"))
    for label, value in (
            ("groebner.basis_s", metrics["groebner.basis_s"]),
            ("poly.gcd_s + elimination.left_nullspace_self_s",
             metrics["poly.gcd_s"]
             + metrics["elimination.left_nullspace_self_s"]),
            ("verify.* self", verify_s)):
        print(f"  share of traced wall_s, {label}: {value / traced_wall:.3f}")
    return metrics, repeat and reports_repeat


def print_end_to_end(args, runner: Runner, untraced: list, e2e: dict) -> None:
    walls = [sum(p) for p in untraced]
    job_times = [t for p in untraced for t in p]
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{len(untraced)} untraced passes of {len(runner.jobs)} jobs")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {_unit(name)}")
    for label, values in (("wall_s", walls), ("job time", job_times)):
        tp = tail(values)
        print(f"  {label}: median {statistics.median(values):.6g} s, "
              + (f"p{tp[0]:.1f} {tp[1]:.6g} s" if tp else
                 "no percentile with ten samples beyond it")
              + f", n={len(values)}")
    failed = len(runner.failures)
    print(f"  fail_share   {failed / runner.attempted:.6g} "
          f"({failed}/{runner.attempted} jobs)")
    for k, label, err in runner.failures[:20]:
        print(f"  FAILED pass {k} {label}: {err}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "lpvident" / "__init__.py").is_file() or not all(
            (root / "models" / f"{m}.lpv").is_file() for m in workloads.CORPUS):
        print(f"error: no lpvident sources or models under {root}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    work = root / ".bench_work"

    setup, setup_times = set_up(root, work, args.workload, args.seed)
    jobs = workloads.workload_jobs(args.workload)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(setup, jobs, tracer)

    if args.trace:
        untraced, traced, counts = measure_traced(runner, tracer,
                                                  args.seconds)
    else:
        untraced = measure(runner, args.seconds, 2)
    e2e = end_to_end(jobs, untraced, setup_times)
    print_end_to_end(args, runner, untraced, e2e)
    failed = len(runner.failures)
    correct = failed == 0
    metrics = e2e
    if args.trace:
        metrics, repeat = layer_metrics(tracer, runner, len(untraced),
                                        traced, counts, e2e["wall_s"])
        correct = correct and repeat
        span_file = work / f"spans-{args.workload}.csv"
        tracer.write(span_file)
        print(f"  {len(tracer.start)} spans in {span_file.relative_to(root)}")
        metrics = {k: v for k, v in metrics.items() if k not in TEXT_ONLY}

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
