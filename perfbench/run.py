"""cdsplit benchmark.

    python3 perfbench/run.py --workload cd-grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

Run from the repository root.  Every operation calls ``cdsplit.cli.run`` in
this one process, on the shipped manifests, with CDSPLIT_THREADS unset and
the BLAS/OpenMP pools pinned to one thread.  Each operation's reports are
checked against ``reference.json``; a mismatch counts as a failed
operation.

``--trace 0`` repeats the workload's operations until ``--seconds`` have
passed and reports the end-to-end metrics, timed in reference seconds: wall
seconds rescaled by a machine-speed probe (``probe.py``), because the shared
CPU's speed drifts by up to 20% between runs.  ``--trace 1`` runs the
operations once untraced and once with spans recorded around the public
functions of each cdsplit layer, and reports the per-layer metrics; on
cd-grid it also times cd_verify on the twisted grid at CDSPLIT_THREADS=1
and 2.  The last line of
standard output is the JSON result; the lines before it record the
environment and print every metric by name with its unit.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import check_op, load_reference, report_digest
from metrics import END_TO_END, SPANS, WORK_UNITS, layer_metrics
from tracer import Tracer
from workloads import KNOWN_DEFECT, WORKLOADS, work_units

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 150
# A typical calibration() time of SETUP_CHILD on the machine described in
# probe.py; it only scales setup_s.
CALIBRATION_REF_S = 0.004

# A fresh interpreter times its first import of cdsplit and the geometry
# build of every manifest on the command line.  A fixed pure-Python loop,
# run three times before, three times after and every 0.05 s during the
# set-up (from SIGALRM, its time taken out of the set-up's), gives the
# machine's speed in the same process; it tracks import and parse cost
# better than the numpy kernel of probe.py.
SETUP_CHILD = """\
import signal, statistics, sys, time

def calibration():
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0

speed = [calibration() for _ in range(3)]
during = []
signal.signal(signal.SIGALRM, lambda signum, frame: during.append(calibration()))
t0 = time.perf_counter()
signal.setitimer(signal.ITIMER_REAL, 0.05, 0.05)
sys.path.insert(0, "src")
from cdsplit.manifest import build_geometry, parse_manifest
for path in sys.argv[1:]:
    build_geometry(parse_manifest(path))
signal.setitimer(signal.ITIMER_REAL, 0)
setup_s = time.perf_counter() - t0 - sum(during)
speed += during + [calibration() for _ in range(3)]
print(repr(setup_s), repr(statistics.median(speed)))
"""


def measure_setup(manifests) -> tuple[list[float], list[float]]:
    """One untimed warm-up child (byte-compiles, fills the file cache), then
    SETUP_RUNS timed fresh processes: their raw seconds, and their seconds
    rescaled by each child's own calibration time."""
    paths = [f"manifests/{m}.cdm" for m in manifests]
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, *paths], cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        if i:
            setup_s, calibration_s = map(float, proc.stdout.split())
            raw.append(setup_s)
            scaled.append(setup_s * CALIBRATION_REF_S / calibration_s)
    return raw, scaled


class Runner:
    """Runs operations through ``cli.run``, checks each against the
    reference, and compares the report digest of every repeat of an
    operation (another pass, the traced pass, the threaded pass) with its
    first run."""

    def __init__(self, cli, reference):
        self.cli = cli
        self.reference = reference
        self.probe = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def run(self, op, out_root: Path) -> tuple[float, int]:
        """Seconds spent in ``cli.run`` and bytes of reports written."""
        out = out_root / op.key
        shutil.rmtree(out, ignore_errors=True)
        buf = io.StringIO()
        if self.probe:
            self.probe.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.cli.run(op.subcommand, op.manifest_path, out, seed=op.seed)
        except Exception:  # a traceback is a failed operation, not a crash
            code = None
            buf.write(traceback.format_exc())
        seconds = self.probe.stop() if self.probe else time.perf_counter() - t0
        problems = check_op(op, code, out, self.reference)
        digest, size = report_digest(out) if out.is_dir() else ("", 0)
        if digest != self.digests.setdefault(op.key, digest):
            problems.append("reports differ from an earlier run of the same operation")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{op.key}: " + "; ".join(problems)
                                 + f" | output: {buf.getvalue().strip()[-300:]}")
        return seconds, size


def run_pass(runner, ops, out_root) -> tuple[float, int]:
    seconds = size = 0
    for op in ops:
        s, b = runner.run(op, out_root)
        seconds += s
        size += b
    return seconds, size


def measure(runner, ops, workload_seconds, reference) -> dict:
    """Whole passes until the wall clock passes ``workload_seconds``; the
    rate is their work over their reference seconds."""
    from probe import SpeedProbe

    passes = 0
    start = time.perf_counter()
    with SpeedProbe() as probe:
        runner.probe = probe
        try:
            while passes == 0 or time.perf_counter() - start < workload_seconds:
                run_pass(runner, ops, OUT / "plain")
                passes += 1
        finally:
            runner.probe = None
        raw_s, reference_s, samples = probe.take()
    work = passes * sum(work_units(op, reference) for op in ops)
    return {"passes": passes, "work": work, "busy_s": raw_s, "raw_work_per_s": work / raw_s,
            "probe_samples": samples, "work_per_s": work / reference_s}


def thread_pool_record(runner, ops) -> dict:
    """Least cd_verify µs per grid point over two runs each at
    CDSPLIT_THREADS=1 and 2, alternating, on the twisted grid with only
    cd_verify traced.  The sphere grid is left out: at two threads it alone
    takes about 45 s, which would push the traced run past its time limit."""
    op = next(op for op in ops if op.manifest == "twisted_flat")
    points = [p for p in SPANS if p.name == "weighted_curvature.cd_verify"]
    out = {}
    for threads in ("1", "2", "1", "2"):
        os.environ["CDSPLIT_THREADS"] = threads
        try:
            with Tracer(points) as tracer:
                runner.run(op, OUT / f"threads{threads}")
        finally:
            os.environ.pop("CDSPLIT_THREADS")
        _, seconds, _, grid_points = tracer.totals()["weighted_curvature.cd_verify"]
        us = seconds * 1e6 / grid_points
        out[threads] = min(us, out.get(threads, us))
    return out


def traced(runner, workload, ops) -> tuple[dict, dict]:
    """One untraced and one traced pass, both timed in reference seconds."""
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        runner.probe = probe
        try:
            run_pass(runner, ops, OUT / "plain")
            _, plain_s, _ = probe.take()
            with Tracer(SPANS) as tracer:
                _, report_bytes = run_pass(runner, ops, OUT / "traced")
            _, traced_s, _ = probe.take()
        finally:
            runner.probe = None
    threads = thread_pool_record(runner, ops) if workload.name == "cd-grid" else None
    metrics = layer_metrics(tracer.totals(), threads, report_bytes, traced_s / plain_s)
    return metrics, {"untraced_reference_s": plain_s, "traced_reference_s": traced_s}


def run_workload(args) -> dict:
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    reference = load_reference()
    setup_raw, setup_scaled = measure_setup(workload.manifests)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    from cdsplit import cli

    runner = Runner(cli, reference)
    per_pass = sum(work_units(op, reference) for op in ops)
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "cdsplit_threads": "unset" + (" (1, then 2, in the thread-pool record)"
                                      if args.trace and workload.name == "cd-grid" else ""),
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "operations_per_pass": len(ops),
        f"{WORK_UNITS[workload.name]}_work_per_pass": per_pass,
        "cli_seeds": sorted({op.seed for op in ops}),
        "known_defect_op": KNOWN_DEFECT if workload.name == "identity-probes" else None,
        "setup_raw_s": setup_raw,
        "setup_reference_s": setup_scaled,
    }
    if args.trace:
        metrics, timing = traced(runner, workload, ops)
        record.update(timing, passes=1, work=per_pass)
    else:
        loop = measure(runner, ops, args.seconds, reference)
        values = {
            "work_per_s": loop.pop("work_per_s"),
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update(loop)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _, _ in END_TO_END}
    record["attempted"], record["failed"] = runner.attempted, runner.failed
    record["fail_ratio"] = runner.failed / runner.attempted
    for line in runner.problems:
        print(f"FAILED {line}")
    print(json.dumps({"env": record}))
    print(f"{workload.name}: {record['passes']} pass(es), {record['work']} "
          f"{WORK_UNITS[workload.name].replace('_per_s', '')}")
    for name, m in metrics.items():
        alias = f"  ({WORK_UNITS[workload.name]})" if name == "work_per_s" else ""
        print(f"  {name:54s} {m['value']:.6g} {m['unit']}{alias}")
    print(f"  {'fail_ratio':54s} {record['fail_ratio']:.6g} "
          f"({runner.failed}/{runner.attempted})")
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, so each reports its own peak RSS."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"workload {name} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # numpy is not loaded yet, here or in any child: pin its pools to one thread
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("CDSPLIT_THREADS", None)
    missing = [p for p in ("src/cdsplit/__init__.py", "manifests") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"run from the cdsplit repository root: missing {', '.join(missing)}")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
