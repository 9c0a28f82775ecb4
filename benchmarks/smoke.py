"""Smoke test of the benchmark itself.

    python3 benchmarks/smoke.py

For every workload, at a tiny size:
  - run.py with --trace 0 and --trace 1 prints, as its last line, exactly the
    end-to-end or per-layer metrics named in BENCHMARK.json, with their
    units, and every op passed;
  - the workload's gate rejects an output with one number perturbed by a
    relative 1e-6, and accepts the unperturbed output.
It also checks that layer_map.json covers exactly the per-layer metrics, and
that run.py exits non-zero, printing nothing, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message):
    sys.stderr.write(f"smoke: FAIL: {message}\n")
    sys.exit(1)


def perturb(obj):
    """(copy of obj with its first float scaled by 1 + 1e-6, whether one was found).
    Dict keys are walked in sorted order; strings holding JSON are walked too."""
    if isinstance(obj, float):
        return obj * (1.0 + 1e-6), True
    if isinstance(obj, dict):
        out = dict(obj)
        for key in sorted(obj):
            out[key], done = perturb(obj[key])
            if done:
                return out, True
        return obj, False
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        for i, item in enumerate(items):
            items[i], done = perturb(item)
            if done:
                return type(obj)(items), True
        return obj, False
    if isinstance(obj, str):
        try:
            parsed = json.loads(obj)
        except json.JSONDecodeError:
            return obj, False
        changed, done = perturb(parsed)
        return (json.dumps(changed, sort_keys=True, indent=2) + "\n", True) if done else (obj, False)
    return obj, False


def run_tiny(workload, trace, expected):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"{workload} --trace {trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
             f"units {[(n, got[n], expected[n]) for n in set(got) & set(expected) if got[n] != expected[n]]}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        fail(f"{workload} --trace {trace}: a metric value is not a number")


def gate_fires(workload_cls):
    import run

    workload = workload_cls(5, True)
    try:
        inputs = workload.build()
        raw = [workload.op(inputs, k) for k in range(2)]
        outputs = [(k, workload.record(out), None) for k, out in enumerate(raw)]
        if run.failures(workload, inputs, outputs):
            fail(f"{workload.name}: gate rejects unperturbed outputs")
        corrupted, done = perturb(raw[1])
        if not done:
            fail(f"{workload.name}: no number to perturb in an output")
        if 1 not in run.failures(workload, inputs, [outputs[0], (1, workload.record(corrupted), None)]):
            fail(f"{workload.name}: gate accepts a perturbed output")
    finally:
        workload.close()


def bare_directory_refused():
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
        proc = subprocess.run(command + ["--workload", "falsify_small", "--seed", "1",
                                         "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("run.py printed a result in a directory without the sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    mapped = set(json.loads((HERE / "layer_map.json").read_text())["map"])
    if mapped != set(layers):
        fail(f"layer_map.json and BENCHMARK.json per_layer differ: {sorted(mapped ^ set(layers))}")

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    names = [w["name"] for w in bench["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        fail(f"BENCHMARK.json workloads {names} != {sorted(workloads.WORKLOADS)}")
    for name in names:
        run_tiny(name, 0, e2e)
        run_tiny(name, 1, layers)
        gate_fires(workloads.WORKLOADS[name])
        print(f"smoke: {name} ok", flush=True)
    bare_directory_refused()
    print("smoke: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
