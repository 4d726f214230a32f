"""Self-test of the benchmark: tiny runs of every workload, every correctness
check shown to reject a wrong value, the tracer, and the run.py contract.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BATCH_SIZES = {"closed-sweep": 19, "open-sweep": 5, "solve": 25, "perturbative": 76}


@pytest.fixture(scope="module")
def package():
    import georobust
    import georobust.cli  # noqa: F401
    return georobust


def execute(package, workload, reqs, out_dir):
    """Run requests in-process as the worker does; (request, outcome) pairs."""
    schedules = {pair: package.family_build(pair[0], package.NAMED_GATES[pair[1]])
                 for pair in {(r["family"], r["gate"]) for r in reqs if r["op"] != "build"}}
    texts = {pair: package.schedule_to_text(s) for pair, s in schedules.items()}
    done = []
    for req in reqs:
        _, outcome = worker.run_request(package, req, schedules)
        worker.collect_files(req, outcome)
        done.append((req, outcome))
    return done, texts


def test_batches_are_seeded_and_fixed_size(tmp_path):
    for name, size in BATCH_SIZES.items():
        a = workloads.batch_requests(name, 7, 0, str(tmp_path))
        assert len(a) == size
        assert a == workloads.batch_requests(name, 7, 0, str(tmp_path))
        assert a != workloads.batch_requests(name, 8, 0, str(tmp_path))


def test_no_request_uses_undocumented_knobs(tmp_path):
    for name in BATCH_SIZES:
        for req in workloads.batch_requests(name, 1, 0, str(tmp_path)):
            assert not {"--steps-per-pi", "--jobs"} & set(req.get("argv", []))


def test_feasibility_table():
    infeasible = sorted(p for p in workloads.PAIRS if not checks.feasible(*p))
    assert infeasible == [("dg", "hadamard"), ("dg", "z90"), ("sr-ngqc", "hadamard"),
                          ("sr-ngqc", "identity"), ("sr-ngqc", "x90"), ("sr-ngqc", "z90")]


@pytest.mark.parametrize("name,pick", [
    ("closed-sweep", lambda r: True),
    ("open-sweep", lambda r: r["family"] in ("dg", "nhqc")),
    # the sr-ngqc refusals each walk the whole seed grid; keep the fast ones
    ("solve", lambda r: r["family"] != "sr-ngqc" or r["gate"] == "not"),
    ("perturbative", lambda r: True),
])
def test_tiny_workload_passes_its_checks(package, tmp_path, name, pick):
    reqs = [r for r in workloads.batch_requests(name, 3, 0, str(tmp_path)) if pick(r)][:8]
    if name == "solve":
        reqs.append(next(r for r in workloads.batch_requests(name, 3, 0, str(tmp_path))
                         if (r["family"], r["gate"]) == ("dg", "z90")))
    done, texts = execute(package, name, reqs, tmp_path)
    assert [worker.check(req, out, texts) for req, out in done] == [None] * len(done)


def _sweep_case(package, tmp_path, name, family):
    req = next(r for r in workloads.batch_requests(name, 5, 0, str(tmp_path))
               if r["family"] == family)
    (req, outcome), = execute(package, name, [req], tmp_path)[0]
    sched = checks.Schedule(package.schedule_to_text(
        package.family_build(family, package.NAMED_GATES[req["gate"]])))
    return req, outcome, sched


def _edit_csv(text, row, col, delta):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("name,family,col,delta", [
    ("closed-sweep", "dg", 3, 1e-8),          # fidelity against |cos(pi beta / 2)|
    ("closed-sweep", "sr-nhqc", 3, 1e-8),     # fidelity against the exact exponential
    ("closed-sweep", "nhqc", 5, 1e-8),        # leakage
    ("closed-sweep", "ngqc", 6, 1e-6),        # src_residual
    ("closed-sweep", "ngqc", 4, 1e-12),       # infidelity != 1 - fidelity
    ("open-sweep", "dg", 3, 1e-6),            # open fidelity against the Liouvillian
    ("open-sweep", "sr-nhqc", 5, 1e-6),       # open leakage
])
def test_sweep_check_rejects_wrong_values(package, tmp_path, name, family, col, delta):
    req, outcome, sched = _sweep_case(package, tmp_path, name, family)
    args = (req, 0, outcome["out_text"], sched, outcome.get("delta_text"))
    assert checks.check_sweep(*args) is None
    row = 2 if name == "open-sweep" else 3   # the open-system row of the grid
    wrong = _edit_csv(outcome["out_text"], row, col, delta)
    assert checks.check_sweep(req, 0, wrong, sched, outcome.get("delta_text")) is not None
    assert checks.check_sweep(req, 4, None, sched) is not None


def _build(package, tmp_path, family, gate):
    req = next(r for r in workloads.batch_requests("solve", 1, 0, str(tmp_path))
               if (r["family"], r["gate"]) == (family, gate))
    (req, outcome), = execute(package, "solve", [req], tmp_path)[0]
    return req, outcome


def test_build_check_rejects_wrong_outcomes(package, tmp_path):
    req, outcome = _build(package, tmp_path, "sr-nhqc", "hadamard")
    assert outcome["exit"] == 0 and checks.check_build(req, 0, outcome["out_text"]) is None
    assert checks.check_build(req, 2, None) is not None        # wrongly refused
    lines = outcome["out_text"].splitlines()
    dur, amp, phase = lines[1].split()
    lines[1] = f"{dur} {amp} {float(phase) + 1e-6!r}"
    assert "gate error" in checks.check_build(req, 0, "\n".join(lines))
    refused, out = _build(package, tmp_path, "dg", "z90")
    assert out["exit"] == 4 and checks.check_build(refused, 4, None) is None
    assert checks.check_build(refused, 2, None) is None         # either refusal code
    assert checks.check_build(refused, 0, outcome["out_text"]) is not None
    assert checks.check_build(refused, 3, None) is not None
    assert checks.check_build(refused, 4, "system=two theta=0.0 phi=0.0\n") is not None


def test_build_check_rejects_a_non_super_robust_schedule(package):
    # an ngqc NOT realizes the gate but has |SRC| = pi/2
    text = package.schedule_to_text(package.family_build("ngqc", package.NAMED_GATES["not"]))
    req = {"family": "sr-ngqc", "gate": "not"}
    assert "SRC" in checks.check_build(req, 0, text)


def test_check_src_rejects_wrong_reports(package, tmp_path):
    reqs = [r for r in workloads.batch_requests("perturbative", 2, 0, str(tmp_path))
            if r["op"] == "check-src" and r["family"] in ("sr-ngqc", "nhqc")]
    done, texts = execute(package, "perturbative", reqs, tmp_path)
    for req, outcome in done:
        sched = checks.Schedule(texts[(req["family"], req["gate"])])
        good = outcome["stdout"]
        assert checks.check_src_report(req, 0, good, sched) is None
        assert checks.check_src_report(req, 2, good, sched) is not None
        head, row = good.splitlines()
        cells = row.split()
        flipped = {"PASS": "FAIL", "info": "PASS"}[cells[4]]
        for wrong in (row.replace(cells[4], flipped),
                      row.replace(cells[3], "1.000e-06", 1),
                      " ".join([cells[0], cells[1], "2.000e+00", *cells[3:]])):
            assert checks.check_src_report(req, 0, f"{head}\n{wrong}\n", sched) is not None


@pytest.mark.parametrize("op", ["d_matrix", "d_matrix_custom", "magnus_terms"])
def test_api_checks_reject_wrong_values(package, tmp_path, op):
    req = next(r for r in workloads.batch_requests("perturbative", 4, 0, str(tmp_path))
               if r["op"] == op and r["family"] == "sr-nhqc")
    (req, outcome), = execute(package, "perturbative", [req], tmp_path)[0]
    sched = checks.Schedule(package.schedule_to_text(
        package.family_build("sr-nhqc", package.NAMED_GATES[req["gate"]])))
    if op == "magnus_terms":
        d_op, g_op = outcome["value"]
        assert checks.check_magnus(req, (d_op, g_op), sched) is None
        assert checks.check_magnus(req, (d_op + 1e-5, g_op), sched) is not None
        assert "bound" in checks.check_magnus(req, (d_op, 1.5 * g_op), sched)
        assert "bound" in checks.check_magnus(req, (d_op, 0 * g_op), sched)
    else:
        value = outcome["value"]
        assert checks.check_d_matrix(req, value, sched) is None
        wrong = value.copy()
        wrong[1, 2] += 1e-5
        assert checks.check_d_matrix(req, wrong, sched) is not None


def test_expm_matches_closed_form():
    theta = 0.7
    gen = -1j * theta * np.array([[0.0, 1.0], [1.0, 0.0]])
    expected = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
    assert np.allclose(checks.expm(gen), expected, atol=1e-14)
    assert np.allclose(checks.expm(40 * gen), checks.expm(gen) @ checks.expm(39 * gen), atol=1e-12)


def test_tracer_counts_layers_and_reports_absent_names(package, tmp_path, monkeypatch):
    import georobust.lindblad
    monkeypatch.delattr(georobust.lindblad, "lindblad_rhs")   # as if a later change removed it
    monkeypatch.delattr(package, "lindblad_rhs")
    reqs = workloads.batch_requests("closed-sweep", 1, 0, str(tmp_path))[:3]
    original = georobust.lindblad.open_gate_metrics
    trace = tracer.Tracer()
    trace.install()
    try:
        # bound where the caller looks it up, not only where it is defined
        assert package.sweep.open_gate_metrics.__wrapped__ is original
        propagator = package.pulses.schedule_propagator.__wrapped__
        assert package.gates.schedule_propagator.__wrapped__ is propagator
        done, _ = execute(package, "closed-sweep", reqs, tmp_path)
    finally:
        trace.uninstall()
    assert package.sweep.open_gate_metrics is original
    metrics, absent = trace.metrics(traced_wall=1.0)
    assert set(metrics) == set(tracer.metric_names())
    points = sum(len(r["betas"]) for r in reqs)
    assert metrics["cli.requests"] == 3 and metrics["sweep.points"] == points
    assert metrics["robustness.fidelity_calls"] == points
    assert metrics["sweep.bytes_written"] == sum(len(o["out_text"]) for _, o in done)
    assert absent == ["lindblad.lindblad_rhs"] and metrics["trace.absent_names"] == 1
    assert metrics["lindblad.rhs_calls"] == 0
    shares = trace.layer_self_times()
    assert set(shares) == set(tracer.LAYERS) and shares["pulses"] > 0


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, timeout=170):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def test_run_prints_every_end_to_end_metric():
    spec = _spec()
    proc = _run("--workload", "closed-sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 19
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_trace_run_prints_every_per_layer_metric():
    spec = _spec()
    proc = _run("--workload", "closed-sweep", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["cli.requests"]["value"] == 8 * BATCH_SIZES["closed-sweep"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", ".pytest_cache"))
    proc = _run("--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
