"""finlat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload maps --seed 0 --seconds 12 --trace 0

Paths are resolved from this file, and finlat is imported from ``src/`` of
the same checkout, so nothing has to be installed or built.

With ``--trace 0`` the workload's closed loop runs untraced for
``--seconds`` seconds (and at least MIN_REQUESTS requests), then the
workload's fixed gate runs once; the last stdout line carries every
end-to-end metric.  With ``--trace 1`` the workload's first
``trace_requests`` requests run untraced and then again traced, the gate
runs, and the last line carries every per-layer metric.  A run whose
outputs are wrong prints ``"correct": false`` with no timings and exits
with code 1.  The line before the result records the machine, the inputs
and the raw (unscaled) timings.
"""

import argparse
from array import array
from contextlib import nullcontext
import gc
import hashlib
import itertools
import json
import os
from pathlib import Path
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REQUESTS = 100     # the 90th percentile then has at least ten samples above it
IMPORT_PROBES = 5
TRACE_DIR = ".perfbench_out"
PROBE_EVERY_S = 0.05
SPEED_WINDOW = 7
# calibration_loop's duration at the reference speed: the usual slow speed
# level of the 2-vCPU x86-64 VM (2.1 GHz nominal, CPython 3.11) the
# benchmark was tuned on
REFERENCE_PROBE_S = 0.0043


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mutation", default=None,
                   help="install a finlat.verify mutation first (the run must then fail)")
    return p.parse_args(argv)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "finlat").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_info(args):
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "finlat_commit": git_commit(),
        "finlat_source_sha256": source_digest(),
    }


def import_probe():
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import finlat.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - t0


def percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 100)
    return ordered[max(1, rank) - 1]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problem = ""

    def add(self, checked):
        self.attempted += checked.checks
        self.failed += checked.failed
        if checked.failed and not self.problem:
            self.problem = checked.problem


_CALIBRATION_TABLE = dict.fromkeys(range(4096), 1)
# 8 MiB: reads scattered over it miss the 2 MiB L2 cache of the tuning host
_CALIBRATION_SPREAD = array("I", range(1 << 21))


def calibration_loop():
    """Fixed interpreter work whose duration tracks the host's current
    speed: dict lookups and integer arithmetic, then reads scattered over a
    buffer larger than L2, so that it slows down with cache misses the way
    the workloads do.  It allocates no container objects, so the garbage
    collector never runs inside it."""
    table = _CALIBRATION_TABLE
    spread = _CALIBRATION_SPREAD
    total = 0
    for i in range(8000):
        key = (i * 2654435761) & 4095
        total += table[key] + ((key >> 3) ^ (i & 7))
    for i in range(6000):
        total += spread[(i * 2654435761) & 0x1FFFFF] & 7
    return total


class SpeedGauge:
    """Converts request latencies into reference-speed latencies.

    The host this benchmark was tuned on switches between speed levels
    about 1.5x apart for seconds to minutes at a time, which no statistic
    over raw times removes.  The gauge times ``calibration_loop`` between
    requests, at least every PROBE_EVERY_S seconds.  A latency is
    multiplied by REFERENCE_PROBE_S over the median of the SPEED_WINDOW
    probes nearest to it.  Raw latencies are reported alongside.
    """

    def __init__(self):
        self.samples = []
        self.last = float("-inf")

    def probe(self):
        gc.disable()
        try:
            t0 = time.perf_counter()
            calibration_loop()
            took = time.perf_counter() - t0
        finally:
            gc.enable()
        self.samples.append(took)
        self.last = time.perf_counter()

    def mark(self):
        """Probe if one is due; returns the position of the next request
        in the probe sequence, for ``factor``."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()
        return len(self.samples)

    def factor(self, position):
        lo = max(0, min(position - SPEED_WINDOW // 2 - 1,
                        len(self.samples) - SPEED_WINDOW))
        return REFERENCE_PROBE_S / statistics.median(self.samples[lo:lo + SPEED_WINDOW])


def serve(pairs, tally, Checked, gauge):
    """Send requests one at a time, until the first failing one; returns
    (raw latencies, reference-speed latencies, checks)."""
    raw, marks = [], []
    checks = 0
    for run, verify in pairs:
        marks.append(gauge.mark())
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            tally.add(Checked(1, 1, traceback.format_exc(limit=3)))
            break
        raw.append(time.perf_counter() - t0)
        checked = verify(out)
        tally.add(checked)
        checks += checked.checks
        if checked.failed:
            break
    for _ in range(SPEED_WINDOW // 2 + 1):
        gauge.probe()
    scaled = [took * gauge.factor(mark) for took, mark in zip(raw, marks)]
    return raw, scaled, checks


def until(pairs, seconds, minimum):
    deadline = time.perf_counter() + seconds
    for count, pair in enumerate(pairs):
        if count >= minimum and time.perf_counter() >= deadline:
            return
        yield pair


def run_gate(workload, tally, Checked):
    """The workload's fixed steps, each checked; returns their raw seconds."""
    elapsed = 0.0
    for label, run, verify in workload.gate():
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            tally.add(Checked(1, 1, "%s: %s" % (label, traceback.format_exc(limit=3))))
            break
        elapsed += time.perf_counter() - t0
        tally.add(verify(out))
        if tally.failed:
            break
    return elapsed


def timed_run(workload, args, tally, Checked, generate_s, info):
    gauge = SpeedGauge()
    raw, scaled, checks = serve(
        until(workload.requests(), args.seconds, MIN_REQUESTS), tally, Checked, gauge)
    if tally.failed:
        return {}
    gate_s = run_gate(workload, tally, Checked)
    if tally.failed:
        return {}
    # set-up is mostly numpy and imports, which the gauge does not track,
    # so it is reported raw
    setup_s = statistics.median(import_probe() for _ in range(IMPORT_PROBES)) + generate_s
    info.update(requests=len(raw), gate_s=gate_s,
                speed_probe_ms=statistics.median(gauge.samples) * 1e3,
                raw={"checks_per_s": checks / sum(raw),
                     "req_p50_ms": percentile(raw, 50) * 1e3,
                     "req_p90_ms": percentile(raw, 90) * 1e3})
    return {
        "setup_s": (setup_s, "s"),
        "checks_per_s": (checks / sum(scaled), "1/s"),
        "req_p50_ms": (percentile(scaled, 50) * 1e3, "ms"),
        "req_p90_ms": (percentile(scaled, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(workload, args, tally, Checked, generate_s, info):
    import trace
    import workloads
    gauge = SpeedGauge()
    pairs = list(itertools.islice(workload.requests(), workload.trace_requests))
    workload.reset()
    _, untraced, _ = serve(pairs, tally, Checked, gauge)
    if tally.failed:
        return {}
    workload.reset()
    tracer = trace.Tracer(extra_modules=(workloads,))
    tracer.install()
    try:
        _, traced, _ = serve(pairs, tally, Checked, gauge)
    finally:
        tracer.restore()
    if tally.failed:
        return {}
    tracer.write(ROOT / TRACE_DIR / ("spans-%s-%d.npz" % (args.workload, args.seed)))
    info["gate_s"] = run_gate(workload, tally, Checked)
    if tally.failed:
        return {}
    extra = {"trace.overhead_s": sum(traced) - sum(untraced)}
    extra.update(workload.layer_extras())
    values = tracer.metrics(extra)
    return {name: (values[name], unit) for name, unit, _ in trace.per_layer_metrics()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "finlat" / "__init__.py").is_file():
        print("error: no finlat sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from finlat.verify import apply_mutation

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; known: %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    info = machine_info(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workloads.load_expected())
    tally = Tally()
    try:
        t0 = time.perf_counter()
        workload.setup()
        generate_s = time.perf_counter() - t0
        with apply_mutation(args.mutation) if args.mutation else nullcontext():
            body = traced_run if args.trace else timed_run
            metrics = body(workload, args, tally, workloads.Checked, generate_s, info)
    finally:
        workload.close()
    correct = tally.failed == 0
    if not correct:
        info["problem"] = tally.problem
        metrics = {}
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
