"""Benchmark of the entropylab command line.

Usage (from the repository root, no install needed):

    python3 perfbench/run.py --workload static_entropy --seed 1 --seconds 26 --trace 0

One process, one client, closed loop: the workload's CLI operations run one
after another through ``entropylab.cli.main`` in this process, in passes,
each pass in a fresh output directory, for as many whole passes as fit in
``--seconds`` (at least one).  Times are corrected for host speed (see
``HostSpeed``).  Every output is checked.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics from spans with
``--trace 1``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3

# A fresh interpreter doing what this process does before its first
# operation; prints the monotonic clock (shared by all processes) when ready.
_SETUP_PROBE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.prepare(sys.argv[3], sys.argv[4], int(sys.argv[5]))
print(time.monotonic())
"""


class HostSpeed:
    """Times a fixed piece of CPU work between operations.

    On a shared host, CPU speed can drift by +-20% over minutes, and every
    wall time drifts with it.  Times are therefore reported in seconds of a
    host on which this work takes REF_S: wall time * REF_S / median sample.
    """

    REF_S = 0.025
    REPEAT = 5  # samples per call; their median shrugs off a single hiccup

    def __init__(self):
        import numpy as np

        self._np = np
        self._data = np.random.default_rng(0).standard_normal(300_000)
        # preallocated, so that no sample pays for page faults
        self._buf = np.empty_like(self._data)
        self._sums = np.empty_like(self._data)
        self.samples: list[float] = []
        self._work()  # first touch of the buffers, not recorded

    def _work(self):
        s = 0
        for i in range(100_000):
            s += i * i % 7
        for _ in range(3):
            self._buf[:] = self._data
            self._buf.sort()
            self._np.cumsum(self._buf, out=self._sums)

    def sample(self):
        for _ in range(self.REPEAT):
            t0 = time.perf_counter()
            self._work()
            self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return self.REF_S / statistics.median(self.samples)


def measure_setup(workload: str, scratch: str, seed: int, speed: HostSpeed) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could run an operation."""
    samples = []
    for k in range(SETUP_SAMPLES):
        inputs = os.path.join(scratch, f"setup-{k}")
        speed.sample()
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, SRC, HERE, workload, inputs, str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    speed.sample()
    return samples


def run_op(cli, op, out: str) -> tuple[float, str, bool]:
    """Run one operation; (wall seconds, failure message, expected failure)."""
    argv = op.argv + ["--out", out, "--tag", op.tag]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed operation, not a crashed benchmark
        rc, stderr = None, io.StringIO(traceback.format_exc())
    wall = time.perf_counter() - t0
    if rc != 0:
        return wall, f"exit {rc}: {stderr.getvalue().strip()[-2000:]}", False
    errs = op.check(os.path.join(out, op.tag))
    return wall, "; ".join(errs), bool(errs and op.known_fault)


def output_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # BLAS/OpenMP read these once, when numpy loads, so they are set before
    # the first import of numpy (cli applies ENTROPYLAB_THREADS too late).
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads
    if not os.path.isfile(os.path.join(SRC, "entropylab", "cli.py")):
        print(f"perfbench: no entropylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    t0 = time.perf_counter()
    from entropylab import cli
    import_s = time.perf_counter() - t0
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        return _run(args, scratch, cli, import_s, tracing, workloads)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(args, scratch, cli, import_s, tracing, workloads) -> int:
    speed = HostSpeed()
    setup = [] if args.trace else measure_setup(args.workload, scratch, args.seed, speed)
    ops = workloads.prepare(args.workload, os.path.join(scratch, "inputs"), args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    attempted = failed = 0
    correct = True
    pass_s, layer, passes, failures = [], [], [], []
    start = time.perf_counter()
    while True:
        out = os.path.join(scratch, f"pass-{len(pass_s)}")
        os.makedirs(out)
        total = 0.0
        for op in ops:
            speed.sample()
            wall, err, expected = run_op(cli, op, out)
            total += wall
            attempted += 1
            if err:
                failed += 1
                correct = correct and expected
                failures.append(f"pass {len(pass_s)} {op.name}: "
                                f"{'known fault, ' if expected else ''}{err}")
        speed.sample()
        pass_s.append(total)
        if tracer is not None:
            spans, counts = tracer.take()
            m = tracing.layer_metrics(spans, counts)
            m["cli.import_s"] = import_s
            m["cli.output_bytes"] = output_bytes(out)
            layer.append(m)
            passes.append({"run_s": total, "spans": spans})
        shutil.rmtree(out)
        gc.collect()
        # whole passes only: start another one if it should end within --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (len(pass_s) + 1) / len(pass_s) > args.seconds:
            break

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "passes": len(pass_s), "pass_wall_s": pass_s, "setup_wall_s": setup,
            "host_speed_samples_s": speed.samples, "time_scale": speed.scale(),
            "failures": failures}
    for f in failures:
        print(f, file=sys.stderr)
    if tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({k: info[k] for k in ("workload", "seed", "threads")}
                      | {"passes": passes}, fh)
        metrics = {k: {"value": v, "unit": tracing.unit(k)}
                   for k, v in tracing.median_metrics(layer).items()}
    else:
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup) * speed.scale(), "unit": "s"},
            "run_s": {"value": statistics.median(pass_s) * speed.scale(), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
