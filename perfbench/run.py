"""Run one workload of the starkwalk benchmark and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout; the package is imported from
./src, so nothing needs to be installed.  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-module
metrics with `--trace 1`.  The line before it records the environment,
fail_ratio and max_headroom, and each operation's gates and output
digests.  perfbench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify", "evolve", "walk", "reservoir")
# one thread everywhere: two BLAS threads made the twelve checks no faster
# on a 2-core machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"
SETUP_REPEATS = 9
MIN_PASSES = 2          # the determinism gate compares two runs of each op
PROBE_TIMEOUT_S = 60
# caps max_headroom so the result stays finite JSON when every gate failed
MAX_HEADROOM = 1e300


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def measure_setup(workload: str, seed: int) -> float:
    """Time from a fresh interpreter to imports done and inputs generated."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
        ready = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.communicate(timeout=PROBE_TIMEOUT_S)
    if probe.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
    return elapsed


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"seed": seed, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


class Tally:
    """Outcome of every op execution, and the first output digest of each CLI op."""

    def __init__(self):
        self.attempted = self.passed = self.failed = self.known = 0
        self.digests: dict = {}
        self.last: dict = {}       # op name -> summary of its latest execution

    def judge(self, op, out) -> list:
        """Run the op's gates on `out`; return measured/limit of its TOL gates."""
        status, note, gates = "pass", "", []
        if isinstance(out, Exception):
            status, note = "fail", f"{type(out).__name__}: {out}"
        elif op.known_defect and out.code == 2 and op.known_defect in out.stderr:
            status, note = "known defect", out.stderr.strip()
        else:
            if op.cli:
                digest = hashlib.sha256(out.stdout.encode()).hexdigest()
                first = self.digests.setdefault(op.name, digest)
                if digest != first:
                    status, note = "fail", "output bytes differ between passes"
            try:
                gates = op.gates(out)
            except Exception as exc:  # a gate that cannot read the output is a miss
                status, note = "fail", f"gate error {type(exc).__name__}: {exc}"
            if any(not g.ok for g in gates):
                status = "fail"
        self.attempted += 1
        self.passed += status == "pass"
        self.failed += status == "fail"
        self.known += status == "known defect"
        self.last[op.name] = {
            "status": status, "note": note, "sha256": self.digests.get(op.name),
            "gates": {g.name: [g.measured, g.limit] for g in gates}}
        # a NaN error is as far out as an error can be
        return [g.measured / g.limit if g.measured == g.measured else math.inf
                for g in gates if g.headroom]


def run_ops(ops, on_op=None) -> tuple[float, list]:
    """Run every op once, in order; return the wall time and the outputs."""
    outputs = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if on_op is not None:
            on_op(i)
        try:
            outputs.append(op.run())
        except Exception as exc:  # an op that raises is counted as failed
            outputs.append(exc)
    return time.perf_counter() - start, outputs


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:          # before numpy is first imported
        os.environ[var] = THREADS
    if not os.path.isfile(os.path.join(SRC, "starkwalk", "__init__.py")):
        print(f"error: no starkwalk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    if args.setup_probe:
        import workloads
        workloads.make_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    import tracing
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    ops = workloads.build_ops(args.workload, inputs)
    tally = Tally()

    # max_headroom is measured on pinned inputs, so it is deterministic per
    # commit and does not move with --seed: on one untimed pass when the
    # workload's inputs are seeded, else on the timed passes themselves
    headroom, reference = [], {}
    pinned = workloads.reference_inputs(args.workload)
    if pinned is not None:
        ref_ops = workloads.build_ops(args.workload, pinned)
        _, ref_out = run_ops(ref_ops)
        for op, out in zip(ref_ops, ref_out):
            headroom += tally.judge(op, out)
        reference = dict(tally.last)
        tally.digests.clear()

    tracer = tracing.Tracer() if args.trace else None
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None and len(plain) > len(traced):
            def on_op(i):
                tracer.op_id = i
            elapsed, outputs = tracer.run_pass(lambda: run_ops(ops, on_op))
            traced.append(elapsed)
        else:
            elapsed, outputs = run_ops(ops)
            plain.append(elapsed)
        for op, out in zip(ops, outputs):
            ratios = tally.judge(op, out)
            if pinned is None:
                headroom += ratios
        spent = time.perf_counter() - start
        if tracer is None:
            # set-up probes are spread over the run, so that they sample the
            # same machine states as the passes do
            due = min(SETUP_REPEATS, int(spent * SETUP_REPEATS / args.seconds))
            while len(setup) < due:
                setup.append(measure_setup(args.workload, args.seed))
            spent = time.perf_counter() - start
        if len(plain) + len(traced) >= MIN_PASSES and spent + elapsed > args.seconds:
            break
    while tracer is None and len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(args.workload, args.seed))

    worst = min(max(headroom, default=math.inf), MAX_HEADROOM)
    env = environment(args.seed)
    info = {"workload": args.workload, "environment": env,
            "passes": {"untraced_s": plain, "traced_s": traced, "setup_s": setup},
            "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "1"},
            "max_headroom": {"value": worst, "unit": "1"},
            "known_defects": tally.known,
            "reference_ops": reference, "ops": tally.last}
    if tracer is not None:
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = tracer.metrics(overhead)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "environment": env,
                       "ops": [op.name for op in ops],
                       "columns": ["pass", "op", "name", "start_s", "end_s", "parent"],
                       "spans": tracer.spans}, fh)
        info["spans_file"] = os.path.relpath(path, ROOT)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_ratio": {"value": tally.passed / tally.attempted, "unit": "1"},
            "headroom_digits": {"value": -math.log10(worst), "unit": "digits"},
            "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
    print(json.dumps(info, default=float))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
