"""georobust benchmark: replay one seeded workload and print its metrics.

    python3 perfbench/run.py --workload closed-sweep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
src/ directory. Each workload is one client in a closed loop in one worker
process (a fresh one per batch for `solve`, so no solver state carries over),
with BLAS pinned to one thread. --trace 0 prints the end-to-end metrics,
--trace 1 replays a fixed number of batches untraced and then traced and
prints the per-layer metrics. The last stdout line is the result object; the
line before it holds the run's details and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4          # extra fresh interpreters timed for setup_s
RUN_LIMIT_S = 170.0       # every run ends within this, whatever the budget
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_tail_ms": "ms"}


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREADS:
        env[var] = "1"
    env.pop("GEOROBUST_SEED_GRID", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: str, deadline: float):
        self.workload, self.seed, self.work_dir, self.deadline = workload, seed, work_dir, deadline
        self.env = child_env()
        self.spawned = 0

    def spawn(self, **spec) -> dict:
        """Run one worker to completion and return its result."""
        self.spawned += 1
        tag = f"p{self.spawned}"
        out_dir = os.path.join(self.work_dir, tag)
        os.makedirs(out_dir)
        spec.update(workload=self.workload, seed=self.seed, root=ROOT, out_dir=out_dir,
                    result=os.path.join(self.work_dir, tag + ".json"))
        spec_path = os.path.join(self.work_dir, tag + ".spec.json")
        timeout = max(1.0, self.deadline - time.monotonic())
        spec["spawned_at"] = time.monotonic()
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def batches(self, budget_s: float | None, max_batches: int, trace: bool) -> list[dict]:
        """Replay batches 0, 1, ... in as many workers as the workload allows,
        until max_batches are done or, once the workload's min_batches are
        done, the next batch would overrun budget_s."""
        per_process = WORKLOADS[self.workload]["batches_per_process"] or max_batches
        min_batches = min(WORKLOADS[self.workload]["min_batches"], max_batches)
        started = time.monotonic()
        results, walls, done = [], [], 0
        while done < max_batches:
            remaining = None if budget_s is None else budget_s - (time.monotonic() - started)
            if done >= min_batches and remaining is not None and statistics.median(walls) > remaining:
                break
            res = self.spawn(trace=trace, first_batch=done, budget_s=remaining,
                             min_batches=max(0, min_batches - done),
                             max_batches=min(per_process, max_batches - done))
            results.append(res)
            walls += res["batch_walls"]
            done += res["batches"]
        return results


def quantile(ordered: list[float], rank: int) -> float:
    """The order statistic at rank, smoothed as the mean of the (up to) five
    order statistics centred on it, so a run with few samples (25 in `solve`,
    15 in `open-sweep`) does not jump between neighbouring requests'
    latencies."""
    return statistics.fmean(ordered[max(0, rank - 2):rank + 3])


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile with at
    least ten samples beyond it; the maximum when there are not that many."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return quantile(ordered, n - 11), 100.0 * (n - 10) / n, 10


def end_to_end(probes: list[dict], results: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics: the raw timings scaled by the calibration kernel
    times of all the run's processes (calibration.py). The raw values go into
    the details."""
    setup_samples = [r["setup_s"] for r in probes + results]
    kernel_s = statistics.median(x for r in probes + results for x in r["calibration_s"])
    latencies = [x for r in results for x in r["latencies"]]
    walls = [x for r in results for x in r["batch_walls"]]
    tail_s, tail_p, beyond = tail(latencies)
    raw = {"setup_s": statistics.median(setup_samples),
           "wall_s": statistics.median(walls),
           "req_p50_ms": 1000.0 * quantile(sorted(latencies), (len(latencies) - 1) // 2),
           "req_tail_ms": 1000.0 * tail_s}
    scale = calibration.REFERENCE_S / kernel_s
    metrics = {name: {"value": value * scale, "unit": UNITS[name]} for name, value in raw.items()}
    metrics["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"}
    details = {"raw": raw, "calibration_kernel_s": kernel_s, "time_scale": scale,
               "setup_samples_s": setup_samples, "batches": len(walls), "requests": len(latencies),
               "req_tail_percentile": tail_p, "req_tail_samples_beyond": beyond}
    if len(latencies) <= 100:
        details["raw_latencies_s"] = sorted(latencies)
    return metrics, details


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    import tracer
    metrics = dict.fromkeys(tracer.metric_names(), 0.0)
    layer_self = {}
    absent = sorted({name for r in traced for name in r["absent"]})
    for r in traced:
        for name, value in r["layer_metrics"].items():
            metrics[name] += value
        for layer, value in r["layer_self_s"].items():
            layer_self[layer] = layer_self.get(layer, 0.0) + value
    solves = metrics["gates.solve_calls"]
    metrics["gates.propagations_per_solve"] = metrics["gates.propagations"] / solves if solves else 0.0
    traced_wall = sum(sum(r["batch_walls"]) for r in traced)
    untraced_wall = sum(sum(r["batch_walls"]) for r in untraced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    metrics["trace.absent_names"] = float(len(absent))
    dominant = max(layer_self, key=layer_self.get)
    predicted = WORKLOADS[workload]["predicted"]
    details = {"absent": absent, "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
               "layer_self_share": {k: v / traced_wall for k, v in layer_self.items()},
               "dominant_layer": dominant, "dominant_share": layer_self[dominant] / traced_wall,
               "predicted_dominant": predicted, "dominant_matches": dominant == predicted}
    return {k: {"value": v, "unit": tracer.unit(k)} for k, v in metrics.items()}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "georobust", "__init__.py")):
        print(f"no georobust sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    work_dir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    runner = Runner(args.workload, args.seed, work_dir, deadline)
    try:
        if args.trace:
            n = WORKLOADS[args.workload]["trace_batches"]
            untraced = runner.batches(None, n, trace=False)
            traced = runner.batches(None, n, trace=True)
            metrics, details = per_layer(args.workload, untraced, traced)
            results = untraced + traced
            details["spans"] = []
            for k in range(len(untraced) + 1, runner.spawned + 1):
                kept = os.path.join(HERE, "_work", f"spans-{args.workload}-{args.seed}-{k}.npz")
                shutil.move(os.path.join(work_dir, f"p{k}", "spans.npz"), kept)
                details["spans"].append(os.path.relpath(kept, ROOT))
        else:
            probes = [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)]
            results = runner.batches(args.seconds, 1 << 30, trace=False)
            metrics, details = end_to_end(probes, results)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, failed_frac=len(failures) / attempted,
                   failures=failures[:5], mix=WORKLOADS[args.workload]["mix"],
                   machine=machine())
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
