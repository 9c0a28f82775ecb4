"""Run one mixdiv benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. Each workload is a single-process,
single-threaded closed loop: one caller, and the next op starts only when the
previous one has returned. Inputs come from --seed alone. Every op's output is
checked outside the timed region; an op fails if it raises, returns a
non-finite number, or fails its workload's check.

With --trace 0 the op loop runs untraced for --seconds and the end-to-end
metrics are reported. With --trace 1 the loop runs untraced for half the time
and then under the span tracer (tracing.py) for the other half, in whole
rotations of the op inputs, and the per-layer metrics are reported per op,
with the tracer's overhead against the untraced half.

The second-to-last line of standard output is a JSON object with the run's
provenance; the last is the result: {"correct", "attempted", "failed",
"metrics"}. --size tiny shrinks every workload for smoke.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/mixdiv/__init__.py", "tests/oracles.py")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3


def _loop(workload, op, inputs, seconds, whole_cycles=False):
    """Closed loop of ops for `seconds`; with whole_cycles, it also ends on a
    rotation boundary. Returns (op times, [(k, record, error)], elapsed)."""
    times, outputs = [], []
    k = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        t0 = time.perf_counter()
        try:
            out, err = op(inputs, k), None
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        times.append(t1 - t0)
        outputs.append((k, None if err else workload.record(out), err))
        k += 1
        if t1 >= deadline and (not whole_cycles or k % workload.cycle == 0):
            return times, outputs, t1 - start


def _non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return any(_non_finite(v) for v in obj)
    return False


def failures(workload, inputs, outputs) -> dict:
    """{position: reason} for every failed op in outputs."""
    failed = {}
    good = []
    for pos, (k, out, err) in enumerate(outputs):
        if err is not None:
            failed[pos] = err
        elif _non_finite(out):
            failed[pos] = "non-finite value in output"
        else:
            good.append((pos, (k, out)))
    if good:
        for local, reason in workload.gate(inputs, [item for _, item in good]):
            failed.setdefault(good[local][0], reason)
    return failed


def _setup(workload):
    """Build the inputs and warm up with one untimed rotation of the ops."""
    t0 = time.perf_counter()
    inputs = workload.build()
    for k in range(workload.cycle):
        workload.op(inputs, k)
    return inputs, time.perf_counter() - t0


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(workload, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, seconds_taken = _setup(workload)
        setups.append(seconds_taken)
    times, outputs, elapsed = _loop(workload, workload.op, inputs, seconds)
    peak = _peak_rss_mb(children=workload.name == "cli_batch")
    failed = failures(workload, inputs, outputs)
    ms = sorted(t * 1e3 for t in times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / elapsed, "1/s"),
        "op_ms.p50": (_percentile(ms, 50), "ms"),
        "ok_ops_ratio": (1.0 - len(failed) / len(outputs), "ratio"),
        "peak_rss_mb": (peak, "MB"),
        "trials_per_s": (sum(workload.checks(inputs, k) for k, _, _ in outputs) / elapsed, "1/s"),
    }
    # p90 is reported here rather than as a bounded metric: on a host whose
    # speed changes in bursts, it swings with the share of a run spent in them
    p90 = _percentile(ms, 90)
    info = {"ops": len(times), "op_ms_p90": p90, "samples_above_p90": sum(t > p90 for t in ms),
            "setup_runs": setups} | workload.info(inputs, outputs)
    return outputs, failed, metrics, info


def per_layer(workload, seconds):
    import tracing

    inputs, _ = _setup(workload)
    half = seconds / 2.0
    times, plain, _ = _loop(workload, workload.op, inputs, half, whole_cycles=True)
    (traced_times, traced, _), spans = workload.traced_loop(
        lambda op: _loop(workload, op, inputs, half, whole_cycles=True))
    outputs = plain + traced
    failed = failures(workload, inputs, outputs)
    layers = tracing.layer_metrics(spans, len(traced)) | workload.layer_extras(inputs)
    # both halves cover whole rotations, so their mean op times compare like for like
    layers["trace.overhead_ratio"] = statistics.fmean(traced_times) / statistics.fmean(times)
    metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}
    info = {"ops_untraced": len(plain), "ops_traced": len(traced)}
    return outputs, failed, metrics, info


def _percentile(sorted_values, q):
    """Linear-interpolated percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _cache_sizes():
    """{"L2": "2048K", ...} for cpu0's unified and data caches, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mixdiv").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, workload):
    import numpy as np

    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(), "src_sha256": _source_sha256(),
        "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "sizes": workload.sizes,
        "closed_loop": {"callers": 1, "threads": 1},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        sys.stderr.write(f"run.py: not a mixdiv source tree, missing {', '.join(missing)}\n")
        return 2
    # one BLAS thread, set before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import mixdiv

    if Path(mixdiv.__file__).resolve().parent != ROOT / "src" / "mixdiv":
        sys.stderr.write(f"run.py: imported mixdiv from {mixdiv.__file__}, not from this tree\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"run.py: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    try:
        measure = per_layer if args.trace else end_to_end
        outputs, failed, metrics, info = measure(workload, args.seconds)
    finally:
        workload.close()
    for pos, reason in sorted(failed.items())[:10]:
        sys.stderr.write(f"run.py: op {pos} failed: {reason}\n")
    info = provenance(args, workload) | info | {"failures": len(failed)}
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outputs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
