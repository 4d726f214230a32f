"""One benchmark process: set up, replay batches in a closed loop, check.

Run as ``python3 worker.py SPEC.json`` by run.py, with BLAS pinned to one
thread. The spec names the workload, seed, first batch, batch limit, time
budget, whether to trace, and where to write the result. Setup is importing
georobust and building every schedule the workload uses; it ends when the
first timed request can be issued. Each request is timed alone; its outputs are
read and checked right after it, outside the timed region, and only failures
are kept, so memory does not grow with the number of requests. Between
requests the calibration kernel is sampled (calibration.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
from calibration import Calibration
from workloads import WORKLOADS, batch_requests

PROBE_SAMPLES = 20   # calibration samples taken by a set-up-only process


def run_request(georobust, req: dict, schedules: dict):
    """Issue one request; returns (seconds, raw outcome)."""
    if req["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = georobust.cli.main(req["argv"])
            elapsed = time.perf_counter() - t0
        return elapsed, {"exit": code, "stdout": out.getvalue()}
    sched = schedules[(req["family"], req["gate"])]
    if req["op"] == "magnus_terms":
        call, args = georobust.magnus_terms, (sched,)
    elif req["op"] == "d_matrix_custom":
        v = checks.detuning(sched.system, req["detuning"])
        call, args = georobust.d_matrix, (sched, georobust.ErrorModel.custom(0.01, v))
    else:
        call, args = georobust.d_matrix, (sched,)
    t0 = time.perf_counter()
    value = call(*args)
    return time.perf_counter() - t0, {"exit": 0, "value": value}


def collect_files(req: dict, outcome: dict) -> None:
    """Move the request's output files into the outcome (untimed)."""
    for key, path in (("out_text", req.get("out")),
                      ("delta_text", req["out"] + ".delta.csv" if req.get("op") == "sweep-grid" else None)):
        if path is None:
            continue
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                outcome[key] = fh.read()
            os.remove(path)
        else:
            outcome[key] = None


def check(req: dict, outcome: dict, texts: dict) -> str | None:
    """Correctness of one outcome; texts maps (family, gate) to schedule text."""
    op = req["op"]
    if op == "build":
        return checks.check_build(req, outcome["exit"], outcome.get("out_text"))
    sched = checks.Schedule(texts[(req["family"], req["gate"])])
    if op in ("sweep-beta", "sweep-grid"):
        return checks.check_sweep(req, outcome["exit"], outcome.get("out_text"), sched,
                                  outcome.get("delta_text"))
    if op == "check-src":
        return checks.check_src_report(req, outcome["exit"], outcome["stdout"], sched)
    if op == "magnus_terms":
        return checks.check_magnus(req, outcome["value"], sched)
    return checks.check_d_matrix(req, outcome["value"], sched)


def setup(workload: str):
    """Import the package and build the workload's schedules."""
    import georobust
    import georobust.cli  # noqa: F401  (requests go through georobust.cli.main)
    schedules = {pair: georobust.family_build(pair[0], georobust.NAMED_GATES[pair[1]])
                 for pair in WORKLOADS[workload]["pairs"]}
    return georobust, schedules


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    georobust, schedules = setup(spec["workload"])
    setup_s = time.monotonic() - spec["spawned_at"]
    src = os.path.join(spec["root"], "src", "georobust")
    if os.path.dirname(os.path.abspath(georobust.__file__)) != src:
        print(f"georobust imported from {georobust.__file__}, not {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if spec.get("setup_only"):
        result["calibration_s"] = Calibration(PROBE_SAMPLES).samples
        _write(spec["result"], result)
        return 0

    cal = Calibration()
    texts = {pair: georobust.schedule_to_text(s) for pair, s in schedules.items()}
    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    timings, batch_sizes, failures = [], [], []
    started = time.monotonic()
    batch = spec["first_batch"]
    while len(batch_sizes) < spec["max_batches"]:
        if len(batch_sizes) >= max(1, spec["min_batches"]) and spec["budget_s"] is not None:
            per_batch = (time.monotonic() - started) / len(batch_sizes)
            if time.monotonic() - started + per_batch > spec["budget_s"]:
                break
        reqs = batch_requests(spec["workload"], spec["seed"], batch, spec["out_dir"])
        for req in reqs:
            cal.maybe_sample()
            t0 = time.perf_counter()
            try:
                elapsed, outcome = run_request(georobust, req, schedules)
            except Exception:  # a crash is a failed request, not a failed benchmark
                elapsed = time.perf_counter() - t0
                outcome = {"exit": None, "error": traceback.format_exc()}
            timings.append(elapsed)
            collect_files(req, outcome)
            try:
                reason = outcome.get("error") or check(req, outcome, texts)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                reason = f"unreadable outcome: {exc!r}"
            if reason is not None:
                failures.append(f"{spec['workload']} batch {batch} request {req['id']}: {reason}")
        batch_sizes.append(len(reqs))
        batch += 1
    cal.sample()
    result["calibration_s"] = cal.samples
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls, i = [], 0
    for size in batch_sizes:
        walls.append(sum(timings[i:i + size]))
        i += size
    if tracer is not None:
        tracer.uninstall()
        result["layer_metrics"], result["absent"] = tracer.metrics(sum(timings))
        result["layer_self_s"] = tracer.layer_self_times()
        tracer.save(os.path.join(spec["out_dir"], "spans.npz"))
    result.update(latencies=timings, batch_walls=walls, batches=len(batch_sizes),
                  peak_rss_mb=peak_kb / 1024.0,
                  attempted=len(timings), failures=failures)
    _write(spec["result"], result)
    return 0


def _write(path: str, result: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
