"""Benchmark of the profforce trainer: training steps and long sampling.

    python3 perfbench/run.py --workload pf-desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in worker processes of its own (``worker.py``) with one
BLAS thread.  Around the measured worker, ``SETUPS - 1`` workers only set
up and exit; ``setup_s`` is the median set-up time over all of them.
The report lists every metric with its unit, the work-mix counts and the
environment; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("pf-desk", "tf-desk", "sample-long")
SETUPS = 7
BUDGET_S = 170.0          # the whole command must end within 180 s

# name, unit, and what the metric is called on the training / sampling workloads
END_TO_END = (
    ("setup_s", "s", "setup_s", "setup_s"),
    ("op_ms.p10", "ms", "step_ms.p10", "sample_ms.p10"),
    ("op_ms.p50", "ms", "step_ms.p50", "sample_ms.p50"),
    ("op_ms.p90", "ms", "step_ms.p90", "sample_ms.p90"),
    ("symbols_per_s", "symbols/s", "train_symbols_per_s", "sample_symbols_per_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb", "peak_rss_mb"),
    ("final_nll_per_step", "nats", "final_nll_per_step", "final_nll_per_step"),
)


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker, wait for it, and return its result and its set-up time."""
    out = Path(spec["out"])
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), cwd=ROOT, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker for {spec['workload']} ran past the time budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise WorkerFailed(f"worker for {spec['workload']} exited with code {code}")
    result = json.loads((out / "result.json").read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}

    def setup_probes(first: int, count: int) -> list[float]:
        times = []
        for i in range(first, first + count):
            out = OUT / f"{workload}-setup{i}"
            times.append(run_worker({**base, "setup_only": True, "out": str(out)},
                                    deadline)["setup_s"])
            shutil.rmtree(out, ignore_errors=True)
        return times

    # Set-up is timed without tracing; the traced run reports per-layer numbers only.
    # Probes go before and after the measured worker, so that a slow spell of
    # the machine at either end does not decide the median alone.
    probes = 0 if trace else SETUPS - 1
    setups = setup_probes(0, probes // 2)
    result = run_worker({**base, "setup_only": False, "out": str(OUT / workload)}, deadline)
    setups += [result["setup_s"]] + setup_probes(probes // 2, probes - probes // 2)
    result["e2e"]["setup_s"] = statistics.median(setups)
    return result


def report(workload: str, r: dict, trace: int) -> None:
    print(f"== {workload}: {r['ops']} x {r['op']}, trace {trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in r["env"].items()))
    training = r["op"] == "train_step"
    for name, unit, train_name, sample_name in END_TO_END:
        alias = train_name if training else sample_name
        print(f"  {name:<22} {r['e2e'][name]:>14.6g} {unit:<10} {'' if alias == name else alias}")
    frac = r["failed"] / r["attempted"] if r["attempted"] else 1.0
    print(f"  {'failed_frac':<22} {frac:>14.6g} {'frac':<10} "
          f"{r['failed']} failed of {r['attempted']} operations and checks")
    print("repeat exactly per seed: "
          + " ".join(f"{k}={v!r}" for k, v in r["repeatable"].items()))
    for note in r["notes"]:
        print(f"  failure: {note}")
    if trace:
        print(f"per-layer (spans in {OUT / workload / 'spans.csv'}):")
        for name, value in r["per_layer"].items():
            print(f"  {name:<36} {value:.6g}")
        if r["absent"]:
            print("  absent from the package: " + ", ".join(r["absent"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # Termination unwinds through run_worker, which then stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, results[name], args.trace)
        line = result_line(results, args.trace)
    except (WorkerFailed, OSError, KeyError, json.JSONDecodeError) as e:
        print(f"error: {e!r}", file=sys.stderr)
        return 2
    print(json.dumps(line))
    return 0


def result_line(results: dict, trace: int) -> dict:
    """The JSON result; BENCHMARK.json names its metrics and their units."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    for name, r in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        for m in declared["per_layer" if trace else "end_to_end"]:
            # A per-layer metric whose layer is gone reads 0; an end-to-end one must exist.
            value = r["per_layer"].get(m["name"], 0.0) if trace else r["e2e"][m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
