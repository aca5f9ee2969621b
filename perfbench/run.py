"""Benchmark command for momentlab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds the workload's inputs from the
seed, times whole rounds of jobs for at least S seconds (one client, one job
at a time), checks the first round's outputs against perfbench/oracle.py and
prints one JSON object as the last line of standard output. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, their times
normalised to a reference machine speed (speed.py); with --trace 1 the same
rounds are run again with spans around every layer boundary and the metrics
are the per-layer ones, in wall seconds. Intermediate files go to
.perfbench_out/.
"""
from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# numpy's BLAS and OpenMP pools get one thread: the jobs are single-client
# and the benchmark machine has two cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
IMPORT_SAMPLES = 7
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import momentlab.cli; "
                "print(time.perf_counter() - t0)")
MODULES = ("moment_algebra", "semigroup", "stieltjes", "distributions",
           "divisibility", "simulator", "seqfile", "cli")


class Setup(Exception):
    """The checkout cannot run the benchmark."""


class Pass:
    """Timings and outputs of one pass of whole rounds."""

    def __init__(self):
        self.times = []     # wall time of every job
        self.norm = []      # normalised time of every job
        self.ok_norm = []   # normalised time of the jobs that did not fail
        self.first = []
        self.first_failed = []
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    @property
    def round_s(self):
        return sum(self.times) / self.rounds


def run_round(wl, jobs, p, clock, tracer=None, reference=None):
    """One round of jobs into the pass `p`. Outputs of the first round are
    kept; every later output (and every output of a traced pass) must fail
    or succeed as the kept one did, and equal it if it succeeded, else the
    job is recorded as a mismatch."""
    clock.restart()
    for i, job in enumerate(jobs):
        wl.before_job()
        span = tracer.begin() if tracer else None
        t0 = perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # counted as a failed operation
            out = exc
            traceback.print_exc(file=sys.stderr)
        t1 = perf_counter()
        norm = clock.normalise(t1 - t0)
        if span is not None:
            tracer.end(span, t0, t1)
        failed = wl.failed(job.label, out)
        p.times.append(t1 - t0)
        p.norm.append(norm)
        if not failed:
            p.ok_norm.append(norm)
        p.attempted += 1
        p.failed += failed
        if p.rounds == 0 and reference is None:
            p.first.append(out)
            p.first_failed.append(failed)
            if failed:
                print(f"perfbench: failed: {job.label}: {wl.failure_note(out)}", file=sys.stderr)
        elif failed != (reference or p).first_failed[i] or \
                (not failed and out != (reference or p).first[i]):
            p.mismatches.append(job.label)
    p.rounds += 1


def fresh_import_s(extra=()):
    """Time `import momentlab.cli` in a new interpreter; returns (seconds, stderr)."""
    proc = subprocess.run([sys.executable, *extra, "-c", IMPORT_PROBE],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1]), proc.stderr


def load_modules(names):
    mods = {name: importlib.import_module("momentlab." + name) for name in names}
    for name, mod in mods.items():
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise Setup(f"momentlab.{name} was imported from {mod.__file__}, not from {SRC}")
    return mods


class Namespace:
    """The loaded momentlab modules under short names; jobs look functions up
    here at call time, so the traced run's wrappers are seen."""

    SHORT = {"moment_algebra": "ma", "semigroup": "sg", "stieltjes": "st",
             "distributions": "dist", "divisibility": "dv", "seqfile": "sf", "cli": "cli"}

    def __init__(self, mods):
        for name, mod in mods.items():
            if name in self.SHORT:
                setattr(self, self.SHORT[name], mod)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (SRC / "momentlab" / "cli.py").is_file():
            raise Setup(f"no momentlab sources under {SRC}")
    except (OSError, ValueError, Setup) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans as tracing
    import speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, spec, tracing, speed.Clock(), WORKLOADS[args.workload], str(workdir))
    except Setup as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, tracing, clock, workload_cls, workdir) -> int:
    # byte-compile once, so no timed import pays for it
    compileall.compile_dir(str(SRC / "momentlab"), quiet=1)
    clock.restart()
    import_s = statistics.median(clock.normalise(fresh_import_s()[0])
                                 for _ in range(IMPORT_SAMPLES))
    # an untraced run imports only what its workload calls, so that
    # peak_rss_mb holds no module the jobs do not use
    mods = load_modules(MODULES if args.trace else workload_cls.modules)
    ml = Namespace(mods)

    clock.restart()
    t0 = perf_counter()
    wl = workload_cls(ml, args.seed, workdir)
    wl.warm_up()
    wall = perf_counter() - t0
    setup_s = import_s + clock.normalise(wall)
    print(f"perfbench: {wl.name} seed {args.seed}: import {import_s:.3f} s, "
          f"inputs and warm-up {wall:.3f} s wall", file=sys.stderr)

    in_process = bool(args.trace) or wl.name != "cli-session"
    jobs = wl.jobs(in_process)
    timed = Pass()
    traced = Pass()
    tracer = tracing.Tracer(mods) if args.trace else None
    start = perf_counter()
    while perf_counter() - start < args.seconds:
        run_round(wl, jobs, timed, clock)
        if tracer:
            # traced and untraced rounds alternate, so a drift in machine
            # speed does not show up as tracing overhead
            tracer.install()
            try:
                run_round(wl, jobs, traced, clock, tracer, reference=timed)
            finally:
                tracer.uninstall()
    problems = [f"{label}: output changed between rounds" for label in timed.mismatches]
    problems += [f"{label}: traced output differs" for label in traced.mismatches]

    if args.trace:
        tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
        values = tracing.layer_metrics(tracer.spans, traced.rounds, timed.round_s)
        values["cli.import_s"] = import_s
        values["cli.import_scipy_s"] = statistics.median(
            tracing.importtime_scipy_s(fresh_import_s(("-X", "importtime"))[1])
            for _ in range(IMPORT_SAMPLES))
        wanted = spec["per_layer"]
    else:
        if wl.name == "cli-session":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "jobs_per_s": len(timed.ok_norm) / sum(timed.norm),
            "job_p50_s": statistics.median(timed.ok_norm),
            "peak_rss_mb": rss_kb / 1024,
        }
        print(f"perfbench: wall clock: {len(timed.ok_norm) / sum(timed.times):.4f} jobs/s, "
              f"median job {statistics.median(timed.times):.4f} s (all jobs)", file=sys.stderr)
        wanted = spec["end_to_end"]

    t0 = perf_counter()
    problems += wl.check(timed.first)
    print(f"perfbench: checks took {perf_counter() - t0:.3f} s", file=sys.stderr)
    for p in problems:
        print(f"perfbench: CHECK FAILED: {p}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise Setup(f"metrics not produced: {', '.join(missing)}")
    print(f"perfbench: {timed.rounds} rounds, {timed.attempted} jobs, "
          f"{timed.failed} failed; median probe {statistics.median(clock.probes) * 1e3:.2f} ms "
          f"(reference {clock.REFERENCE_S * 1e3:.2f} ms)", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
