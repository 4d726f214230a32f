"""Open-system propagation: collapse channels, the master equation right-hand
side, density-matrix invariants, and the cardinal-state gate metrics."""

import math

import numpy as np
import pytest

from georobust import (
    CollapseChannel,
    GateSpec,
    InvariantError,
    PulseSchedule,
    PulseSegment,
    cardinal_states,
    check_density,
    family_build,
    lindblad_rhs,
    open_gate_metrics,
    propagate_density,
    schedule_propagator,
    standard_channels,
)

NOT = GateSpec.not_gate()


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_collapse_channel_validation():
    CollapseChannel(0.1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CollapseChannel(-0.1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CollapseChannel(0.1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CollapseChannel(0.1, np.full((2, 2), np.nan))


def test_standard_channels_layout():
    two = standard_channels("two", 1e-4, 2e-4)
    assert len(two) == 2
    assert two[0].operator.shape == (2, 2)
    lam = standard_channels("lambda", 1e-4, 2e-4)
    assert len(lam) == 3
    # the excited level decays into both qubit states at half rate each
    rates = sorted(ch.rate for ch in lam)
    assert rates == pytest.approx([5e-5, 5e-5, 2e-4])
    for ch in lam:
        assert ch.operator.shape == (3, 3)


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for system, dim in (("two", 2), ("lambda", 3)):
        channels = standard_channels(system, 3e-4, 1e-4)
        ham = random_density(rng, dim)  # any hermitian works as a test H
        for _ in range(4):
            rho = random_density(rng, dim)
            drho = lindblad_rhs(rho, ham, channels)
            assert abs(np.trace(drho)) < 1e-12
            np.testing.assert_allclose(drho, drho.conj().T, atol=1e-12)


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(2) / 2, np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(2) / 2, np.eye(2, dtype=complex), standard_channels("lambda", 1e-4, 0.0))


def test_check_density_rejects_bad_input():
    check_density(np.eye(2) / 2)
    with pytest.raises(InvariantError):
        check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(InvariantError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(InvariantError):
        check_density(np.diag([1.5, -0.5]).astype(complex))  # negative weight


def test_propagate_density_input_validation():
    sched = family_build("dg", NOT)
    with pytest.raises(InvariantError):
        propagate_density(sched, np.eye(2).astype(complex), steps_per_pi=100)


def test_zero_rates_match_unitary_evolution():
    for fam in ("dg", "nhqc"):
        sched = family_build(fam, NOT)
        dim = sched.dim
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        rho = np.outer(psi, psi.conj())
        rho_tau = propagate_density(sched, rho, (), steps_per_pi=400)
        u = schedule_propagator(sched)
        expect = np.outer(u @ psi, (u @ psi).conj())
        np.testing.assert_allclose(rho_tau, expect, atol=1e-7, err_msg=fam)


def test_pure_dephasing_closed_form():
    # no drive, only |1><1| at rate gamma2: coherence decays as e^(-gamma2 t / 2)
    gamma2 = 0.02
    duration = 30.0
    sched = PulseSchedule("two", (PulseSegment(duration, 0.0, 0.0),))
    channels = (CollapseChannel(gamma2, np.diag([0.0, 1.0]).astype(complex)),)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    rho_tau = propagate_density(sched, rho0, channels, steps_per_pi=200)
    expect = 0.5 * math.exp(-gamma2 * duration / 2.0)
    assert rho_tau[0, 1].real == pytest.approx(expect, abs=1e-8)
    assert abs(rho_tau[0, 1].imag) < 1e-12
    np.testing.assert_allclose(np.diag(rho_tau).real, [0.5, 0.5], atol=1e-10)


def test_amplitude_damping_closed_form():
    # no drive, |0><1| at rate gamma1: excited population decays as e^(-gamma1 t)
    gamma1 = 0.05
    duration = 20.0
    sched = PulseSchedule("two", (PulseSegment(duration, 0.0, 0.0),))
    channels = (CollapseChannel(gamma1, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    rho_tau = propagate_density(sched, rho0, channels, steps_per_pi=200)
    assert rho_tau[1, 1].real == pytest.approx(math.exp(-gamma1 * duration), abs=1e-8)
    assert rho_tau[0, 0].real == pytest.approx(1.0 - math.exp(-gamma1 * duration), abs=1e-8)


def test_propagate_density_stack():
    sched = family_build("dg", NOT)
    rng = np.random.default_rng(3)
    stack = np.array([random_density(rng, 2) for _ in range(4)])
    out = propagate_density(sched, stack, standard_channels("two", 1e-4, 1e-4), steps_per_pi=200)
    assert out.shape == (4, 2, 2)
    single = propagate_density(sched, stack[2], standard_channels("two", 1e-4, 1e-4), steps_per_pi=200)
    np.testing.assert_allclose(out[2], single, atol=1e-12)


def test_cardinal_states():
    states = cardinal_states(3)
    assert states.shape == (6, 3)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    # nothing starts in the excited level
    np.testing.assert_allclose(states[:, 2], 0.0, atol=0)


def test_open_metrics_zero_rates_are_ideal():
    for fam in ("dg", "nhqc"):
        sched = family_build(fam, NOT)
        fid, leak = open_gate_metrics(sched, (), beta=0.0, steps_per_pi=400)
        assert fid == pytest.approx(1.0, abs=1e-7), fam
        assert leak < 1e-7, fam


def test_open_metrics_match_manual_average():
    # cross-check the einsum bookkeeping against an explicit loop
    sched = family_build("dg", NOT)
    channels = standard_channels("two", 2e-4, 2e-4)
    fid, _ = open_gate_metrics(sched, channels, beta=0.02, steps_per_pi=300)
    u0 = schedule_propagator(sched)
    total = 0.0
    for psi in cardinal_states(2):
        rho = np.outer(psi, psi.conj())
        rho_tau = propagate_density(sched, rho, channels, beta=0.02, steps_per_pi=300)
        target = u0 @ psi
        total += float(np.real(target.conj() @ rho_tau @ target))
    assert fid == pytest.approx(total / 6.0, abs=1e-12)


def test_decoherence_cost_grows_with_duration():
    # at beta = 0 the only infidelity source is the decoherence exposure, so
    # the longer loops always lose: dg (pi) < ngqc (2 pi) < sr-ngqc (3 pi)
    gamma = 1e-4
    infids = []
    for fam in ("dg", "ngqc", "sr-ngqc"):
        sched = family_build(fam, NOT)
        fid = open_gate_metrics(sched, standard_channels("two", gamma, gamma), steps_per_pi=300)[0]
        infids.append(1.0 - fid)
    assert infids[0] < infids[1] < infids[2]
    # scale check: infidelity stays within a factor of the gamma * duration scale
    for fam, infid in zip(("dg", "ngqc", "sr-ngqc"), infids):
        duration = family_build(fam, NOT).duration
        assert 0.1 * gamma * duration < infid < 2.0 * gamma * duration, fam


def test_lambda_open_system_reports_leakage():
    sched = family_build("nhqc", NOT)
    _, leak = open_gate_metrics(sched, standard_channels("lambda", 1e-3, 0.0), steps_per_pi=300)
    assert 0.0 < leak < 0.05
