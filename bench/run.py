"""modhand benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload {envelop,workspace,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; nothing is installed.  The run measures for ``--seconds``
seconds, checks every output, and prints as its last stdout line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones.
The line before it holds the environment, output digests, sample counts and
any failed check.  The exit code is 1 when a check failed and 2 when the
program's source is missing.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in every child process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import Tracer, snapshot
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("modhand", "modhand.params", "modhand.drive", "modhand.ucm",
           "modhand.kinematics", "modhand.grasp", "modhand.hand", "modhand.cli")
SETUP_PROBES = 7


def set_up(args, workdir):
    """Import the program from this checkout and build the workload's inputs."""
    sys.path.insert(0, str(ROOT / "src"))
    modules = {name: importlib.import_module(name) for name in MODULES}
    return modules, WORKLOADS[args.workload](modules, args.seed, workdir)


def measure_setup(args) -> float:
    """Median wall time from starting a fresh benchmark process to the point
    where it would issue its first timed operation.  One unmeasured probe
    first fills the bytecode caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {err.decode()[-500:]}")
        if i:
            times.append(seconds)
    return statistics.median(times)


class Run:
    """Counts, timings and digests of one run."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0        # operations that failed, for any reason
        self.incorrect = 0     # operations with a failed output check
        self.problems = []
        self.digests = {}
        self.latencies = []    # untraced op seconds
        self.by_label = {label: [] for label in workload.labels}  # untraced
        self.pass_seconds = {False: [], True: []}
        self.rates = []        # untraced passes: work per second
        self.traced_work = 0
        self.statuses = {}

    def op(self, label, traced):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = label
        try:
            out = self.workload.run(label, traced)
        except Exception as exc:  # any exception is a failed operation
            self.failed += 1
            self.incorrect += 1
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        first = self.digests.setdefault(label, out.digest)
        if out.digest != first:
            out.problems.append(f"{label}: output digest differs from the first pass")
        if out.problems:
            self.incorrect += 1
            self.problems.extend(out.problems)
        if out.problems or out.failed:
            self.failed += 1
        if out.status:
            self.statuses[label] = out.status
        return out

    def one_pass(self, traced):
        seconds = work = 0
        for label in self.workload.labels:
            out = self.op(label, traced)
            if out is None:
                continue
            seconds += out.seconds
            work += out.work
            if not traced:
                self.latencies.append(out.seconds)
                self.by_label[label].append(out.seconds)
        self.pass_seconds[traced].append(seconds)
        if traced:
            self.traced_work += work
        elif seconds > 0:
            self.rates.append(work / seconds)


def end_to_end(run, setup_s, peak_rss_kb) -> dict:
    lat = run.latencies
    return {
        "setup_s": setup_s,
        "work_per_s": statistics.median(run.rates),
        "op_ms_p50": 1e3 * statistics.median(lat),
        "op_ms_p90": 1e3 * statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "success_ratio": 1.0 - run.failed / run.attempted,
    }


def per_layer(run, workload_name) -> dict:
    """Layer metrics; times are seconds per traced pass unless named per call."""
    tracer = run.tracer
    passes = len(run.pass_seconds[True])
    calls = lambda span: tracer.sum(tracer.calls, span)
    total = lambda span, op="": tracer.sum(tracer.total, span, op) / passes
    self_s = lambda span: tracer.sum(tracer.self_time, span) / passes
    # Equilibrium steps exist only on envelop, where work is counted in steps.
    steps = run.traced_work if workload_name == "envelop" else 0
    per_step = lambda n: n / steps if steps else 0.0
    fk_calls = calls("kinematics.forward_kinematics")
    fk_s = tracer.sum(tracer.total, "kinematics.forward_kinematics")
    untraced = lambda label: (statistics.median(run.by_label[label])
                              if label in run.by_label else 0.0)
    ucm_spans = ("transmission_jacobians", "stiffness_matrices", "constraint_rank",
                 "motion_subspaces")

    m = {
        "grasp.self_s": self_s("grasp.envelop_sweep"),
        "grasp.detect_s": total("grasp.detect_contacts"),
        "grasp.detect_calls_per_step": per_step(calls("grasp.detect_contacts")),
        "kinematics.fk_calls_per_step": per_step(fk_calls),
        "kinematics.fk_us_per_call": 1e6 * fk_s / fk_calls if fk_calls else 0.0,
        "ucm.stiffness_calls_per_step": per_step(calls("ucm.stiffness_matrices")),
        "ucm.stiffness_s": total("ucm.stiffness_matrices", "sweep_"),
        "ucm.transmission_state_s": total("ucm.transmission_state"),
        "kinematics.stream_s": self_s("kinematics.sample_workspace"),
        "kinematics.batch_fk_s": total("kinematics.batch_fingertips"),
        "kinematics.csv_s": total("kinematics.points_to_csv"),
        "hand.workspace_s": total("hand.hand_workspace"),
        "cli.self_s": self_s("cli.main"),
        "kinematics.sample_workspace_100k_s": total("kinematics.sample_workspace", "cli_workspace_free"),
        "kinematics.batch_fk_100k_s": total("kinematics.batch_fingertips", "cli_workspace_free"),
        "kinematics.csv_100k_s": total("kinematics.points_to_csv", "cli_workspace_free"),
        "params.resolve_s": total("params.resolve_params"),
        "ucm.report_s": sum(total(f"ucm.{span}", "ucm_") for span in ucm_spans),
        "hand.fk_s": total("hand.hand_fk"),
        "drive.map_s": total("drive.drive_to_mcp") + total("drive.rigid_coupled_flexion"),
        "bench.trace_overhead_s": (statistics.median(run.pass_seconds[True])
                                   - statistics.median(run.pass_seconds[False])),
    }
    for scene in ("30mm", "40mm", "50mm", "eject", "ceiling"):
        m[f"grasp.sweep_{scene}_s"] = untraced(f"sweep_{scene}")

    imports = getattr(run.workload, "imports", [])
    med = lambda key: statistics.median(i[key] for i in imports) if imports else 0.0
    short = [s for label, times in run.by_label.items()
             if label.startswith(getattr(run.workload, "SHORT_CALLS", ())) for s in times]
    call_p50 = statistics.median(run.latencies) if workload_name == "cli" else 0.0
    m.update({
        "cli.import_s": med("total"),
        "cli.import_numpy_s": med("numpy"),
        "cli.import_modhand_s": med("modhand"),
        "cli.import_share_of_call": med("total") / call_p50 if call_p50 else 0.0,
        "cli.process_start_ms": 1e3 * statistics.median(short) if short else 0.0,
    })
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def declared_metrics(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("envelop", "workspace", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modhand" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'modhand'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            set_up(args, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workdir) -> int:
    declared = declared_metrics(bool(args.trace))
    setup_s = None if args.trace else measure_setup(args)
    modules, workload = set_up(args, workdir)
    tracer = Tracer(modules) if args.trace else None
    run = Run(workload, tracer)
    run.op(workload.labels[0], False)  # warm-up, checked but not timed
    bound = snapshot(modules)
    start = perf_counter()
    traced = False

    while perf_counter() - start < args.seconds or (args.trace and not run.pass_seconds[True]):
        if traced:
            with tracer:
                run.one_pass(True)
            if snapshot(modules) != bound:
                run.failed += 1
                run.incorrect += 1
                run.problems.append("tracer left a wrapper in place")
        else:
            run.one_pass(False)
        traced = bool(args.trace) and not traced
    measured_s = perf_counter() - start

    if args.trace:
        values = per_layer(run, args.workload)
    else:
        rss_kb = getattr(workload, "peak_rss_kb", 0) or resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(run, setup_s, rss_kb)
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")

    lat = run.latencies
    p90 = statistics.quantiles(lat, n=10)[8]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "measured_s": measured_s,
        "passes": {"untraced": len(run.pass_seconds[False]),
                   "traced": len(run.pass_seconds[True])},
        "timed_ops": len(lat),
        "ops_beyond_p90": sum(t > p90 for t in lat),
        "digests": run.digests,
        "statuses": run.statuses,
        "problems": run.problems[:20],
        "environment": environment(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    correct = run.incorrect == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
