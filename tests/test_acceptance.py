"""Acceptance matrix for the five gate constructions.

Each test covers one numbered criterion and prints a single
``[criterion NN] PASS/FAIL`` line with the measured values and tolerances, so
a full run documents the whole matrix at a glance.
"""

import math

import numpy as np
import pytest

from georobust import (
    ErrorModel,
    GateSpec,
    SweepConfig,
    d_matrix,
    family_build,
    fidelity_prediction,
    gate_fidelity,
    geometric_phase,
    magnus_gate_approx,
    open_gate_metrics,
    order_fit,
    propagator_fidelity,
    quadratic_coefficient,
    rows_to_csv,
    run_sweep,
    schedule_propagator,
    solve_phase_jumps,
    src_residual,
    standard_channels,
    target_unitary,
)
from georobust.pulses import PulseSchedule, PulseSegment
from oracles import integrate_schedule

STEPS_PER_PI = 2000
FAMILIES = ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
SR = ("sr-ngqc", "sr-nhqc")
NOT = GateSpec.not_gate()
DURATIONS = {"dg": 1.0, "ngqc": 2.0, "sr-ngqc": 3.0, "nhqc": 2.0, "sr-nhqc": 4.0}


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def schedules():
    return {fam: family_build(fam, NOT) for fam in FAMILIES}


def test_criterion_01_builds(schedules):
    # every family realizes NOT: solver converged, documented gate time, and
    # closed-system infidelity <= 1e-7 for both the exact per-segment product
    # and a direct integrator at steps-per-pi = 2000
    target = target_unitary(NOT)
    worst = 0.0
    for fam, sched in schedules.items():
        sol = solve_phase_jumps(fam, NOT)
        assert sol.converged, fam
        assert sched.duration == pytest.approx(DURATIONS[fam] * math.pi, abs=1e-12), fam
        for u in (schedule_propagator(sched), integrate_schedule(sched, STEPS_PER_PI)):
            worst = max(worst, 1.0 - gate_fidelity(u, target))
    verdict(1, worst <= 1e-7,
            f"all five families build NOT, gate times (1,2,3,2,4)*pi, "
            f"worst infidelity {worst:.2e} (tol 1e-7)")


def quad_coeff(sched):
    betas = np.linspace(-0.05, 0.05, 21)
    infids = np.array([1.0 - propagator_fidelity(sched, b) for b in betas])
    return quadratic_coefficient(betas, infids)


def test_criterion_02_dg_quadratic(schedules):
    target = math.pi**2 / 8.0
    coeff = quad_coeff(schedules["dg"])
    rel = abs(coeff - target) / target
    infid_01 = 1.0 - propagator_fidelity(schedules["dg"], 0.1)
    dev = abs(infid_01 - 0.012337)
    ok = rel < 0.03 and dev <= 1e-4
    verdict(2, ok,
            f"dg quadratic coefficient {coeff:.6f} vs pi^2/8 = {target:.6f} "
            f"(rel dev {rel:.1e}, tol 3%); 1-F(0.1) = {infid_01:.7f} vs 0.012337 "
            f"(dev {dev:.1e}, tol 1e-4)")


def test_criterion_03_ngqc_quadratic(schedules):
    target = math.pi**2 / 8.0
    coeff = quad_coeff(schedules["ngqc"])
    rel = abs(coeff - target) / target
    verdict(3, rel < 0.03,
            f"ngqc quadratic coefficient {coeff:.6f} vs pi^2/8 = {target:.6f} "
            f"(rel dev {rel:.1e}, tol 3%)")


def test_criterion_04_nhqc_quadratic(schedules):
    target = math.pi**2 / 3.0
    coeff = quad_coeff(schedules["nhqc"])
    rel = abs(coeff - target) / target
    verdict(4, rel < 0.03,
            f"nhqc quadratic coefficient {coeff:.6f} vs pi^2/3 = {target:.6f} "
            f"(rel dev {rel:.1e}, tol 3%)")


def test_criterion_05_sr_quartic(schedules):
    betas = np.linspace(0.02, 0.1, 9)
    details = []
    ok = True
    for fam in SR:
        infids = np.array([1.0 - propagator_fidelity(schedules[fam], b) for b in betas])
        slope = order_fit(betas, infids)
        ok = ok and slope >= 3.7 and infids[-1] <= 5e-3
        details.append(f"{fam}: slope {slope:.3f} (tol >= 3.7), 1-F(0.1) = {infids[-1]:.2e} (tol 5e-3)")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_src_residuals(schedules):
    details = []
    ok = True
    for fam, sched in schedules.items():
        closed = src_residual(sched)
        d_op = d_matrix(sched)
        numeric = d_op[0, 1] if sched.dim == 2 else d_op[1, 2]
        agree_tol = 1e-7 if sched.dim == 2 else 1e-8
        agree = abs(closed - numeric)
        ok = ok and agree < agree_tol
        if fam in SR:
            ok = ok and abs(closed) < 1e-6 and abs(numeric) < 1e-6
            details.append(f"{fam}: |SRC| {abs(closed):.1e} (tol 1e-6), closed-vs-numeric {agree:.1e}")
        else:
            details.append(f"{fam}: closed-vs-numeric {agree:.1e} (tol {agree_tol:.0e})")
    verdict(6, ok, "; ".join(details))


def test_criterion_07_magnus_third_order(schedules):
    details = []
    ok = True
    for fam in ("dg", "ngqc"):
        sched = schedules[fam]
        remainders = []
        for beta in (0.1, 0.05, 0.025):
            exact = schedule_propagator(sched, beta=beta)
            approx = magnus_gate_approx(sched, ErrorModel.global_rabi(beta))
            remainders.append(np.linalg.norm(exact - approx))
        r1 = remainders[0] / remainders[1]
        r2 = remainders[1] / remainders[2]
        ok = ok and 6.0 < r1 < 10.0 and 6.0 < r2 < 10.0
        details.append(f"{fam}: halving ratios {r1:.2f}, {r2:.2f} (tol 6..10)")
    verdict(7, ok, "; ".join(details))


def test_criterion_08_prediction_envelope(schedules):
    betas = np.linspace(-0.1, 0.1, 41)
    worst_ratio = 0.0
    for fam, sched in schedules.items():
        d_op = d_matrix(sched)
        for beta in betas:
            if beta == 0.0:
                continue
            gap = abs(fidelity_prediction(d_op, beta) - propagator_fidelity(sched, beta))
            worst_ratio = max(worst_ratio, gap / (5.0 * beta**4 * math.pi**4))
    verdict(8, worst_ratio <= 1.0,
            f"|predicted - exact| <= 5 beta^4 pi^4 on all families over 41 betas "
            f"(worst envelope fraction {worst_ratio:.3f})")


def test_criterion_09_geometric_phase(schedules):
    details = []
    ok = True
    for fam in ("ngqc", "nhqc", "sr-nhqc"):
        value = geometric_phase(schedules[fam])
        dev = abs(math.remainder(value - math.pi, 2.0 * math.pi))
        ok = ok and dev < 1e-6
        details.append(f"{fam} NOT loop phase {value:.6f}")
    for dphi in (0.4, 1.0, 1.6, 2.5):
        sched = PulseSchedule(
            "lambda", (PulseSegment(math.pi, 1.0, 0.0), PulseSegment(math.pi, 1.0, dphi))
        )
        value = geometric_phase(sched)
        dev = abs(math.remainder(value - (math.pi - dphi), 2.0 * math.pi))
        ok = ok and dev < 1e-6
    details.append("orange-slice loops match half the enclosed solid angle pi - dphi")
    verdict(9, ok, "; ".join(details) + " (tol 1e-6)")


def test_criterion_10_decoherence_tradeoff(schedules):
    gamma = 1e-4
    infid = {}
    for fam in ("dg", "ngqc", "sr-ngqc"):
        channels = standard_channels("two", gamma, gamma)
        infid[fam] = 1.0 - open_gate_metrics(schedules[fam], channels, beta=0.0)[0]
    ordered = infid["dg"] < infid["ngqc"] < infid["sr-ngqc"]

    def gap(beta):
        channels = standard_channels("two", gamma, gamma)
        f_sr = open_gate_metrics(schedules["sr-ngqc"], channels, beta=beta)[0]
        f_dg = open_gate_metrics(schedules["dg"], channels, beta=beta)[0]
        return f_sr - f_dg

    low, high = gap(0.005), gap(0.03)
    crossover = low < 0.0 < high
    verdict(10, ordered and crossover,
            f"gamma=1e-4: beta=0 infidelities dg {infid['dg']:.2e} < ngqc {infid['ngqc']:.2e} "
            f"< sr-ngqc {infid['sr-ngqc']:.2e}; sr-ngqc-vs-dg gap {low:+.2e} at beta=0.005 "
            f"and {high:+.2e} at beta=0.03, so the crossover lies in [0.005, 0.03]")


def test_criterion_11_deterministic_sweeps():
    config = SweepConfig(families=("dg", "sr-ngqc"), beta_min=-0.1, beta_max=0.1,
                         beta_points=11)
    first = rows_to_csv(run_sweep(config))
    second = rows_to_csv(run_sweep(config))
    ok = first == second
    verdict(11, ok,
            f"repeated sweep CSV byte-identical across runs "
            f"({len(first.splitlines()) - 1} rows)")
