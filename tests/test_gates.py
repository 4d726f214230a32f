"""Gate targets, the five family layouts, and the closed-form phase laws."""

import math

import numpy as np
import pytest

from georobust import (
    FAMILIES,
    NAMED_GATES,
    ConfigError,
    GateSpec,
    SolverError,
    assemble_schedule,
    dynamical_integrals,
    family_build,
    gate_fidelity,
    schedule_propagator,
    solve_phase_jumps,
    src_phasors,
    src_residual,
    target_unitary,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
NOT = GateSpec.not_gate()


def block_matches_target(schedule, spec, atol=1e-8):
    """True if the computational block equals the target up to a global phase."""
    u = schedule_propagator(schedule)
    return 1.0 - gate_fidelity(u, target_unitary(spec)) < atol


def test_target_not_gate():
    np.testing.assert_allclose(target_unitary(NOT), 1j * SX, atol=1e-15)


def test_target_unitary_general_axis():
    spec = GateSpec(theta=0.8, phi=-0.5, gamma=1.7)
    u = target_unitary(spec)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
    # i (gamma/2) n.sigma exponentiated by series must agree
    n = np.array(
        [
            math.sin(spec.theta) * math.cos(spec.phi),
            math.sin(spec.theta) * math.sin(spec.phi),
            math.cos(spec.theta),
        ]
    )
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    gen = 1j * (spec.gamma / 2.0) * (n[0] * SX + n[1] * sy + n[2] * sz)
    ref = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 40):
        term = term @ gen / k
        ref = ref + term
    np.testing.assert_allclose(u, ref, atol=1e-12)


def test_gate_spec_validation():
    with pytest.raises(ValueError):
        GateSpec(theta=-0.1, phi=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        GateSpec(theta=3.5, phi=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        GateSpec(theta=1.0, phi=math.nan, gamma=1.0)


def test_dg_not_gate():
    sched = family_build("dg", NOT)
    assert len(sched.segments) == 1
    assert sched.duration == pytest.approx(math.pi)
    assert sched.segments[0].phase == pytest.approx(math.pi)
    # DG hits the target exactly, global phase included
    np.testing.assert_allclose(schedule_propagator(sched), 1j * SX, atol=1e-12)


def test_dg_partial_rotation():
    spec = GateSpec.x_rotation(math.pi / 2)
    sched = family_build("dg", spec)
    assert sched.duration == pytest.approx(math.pi / 2)
    assert block_matches_target(sched, spec, atol=1e-12)


def test_dg_identity_is_empty():
    sched = family_build("dg", GateSpec.identity())
    assert sched.segments == ()
    np.testing.assert_allclose(schedule_propagator(sched), np.eye(2))


def test_dg_rejects_off_equator_axis():
    # a resonant drive cannot reach these axes: a user error, not a solver failure
    with pytest.raises(ConfigError, match="needs detuning"):
        family_build("dg", GateSpec.z_rotation(math.pi / 2))
    with pytest.raises(ConfigError, match="needs detuning"):
        family_build("dg", GateSpec.hadamard())


def test_ngqc_not_gate():
    sched = family_build("ngqc", NOT)
    durations = [s.duration for s in sched.segments]
    assert durations == pytest.approx([math.pi / 2, math.pi, math.pi / 2])
    assert sched.duration == pytest.approx(2 * math.pi)
    assert block_matches_target(sched, NOT)
    # the middle segment carries its own phase variable
    sol = solve_phase_jumps("ngqc", NOT)
    assert sol.converged
    assert sol.residual_gate < 1e-8
    assert sched.segments[0].phase == pytest.approx(sched.segments[2].phase)


def test_ngqc_z_rotation_drops_zero_area_segment():
    sched = family_build("ngqc", GateSpec.z_rotation(math.pi / 2))
    assert len(sched.segments) == 2
    assert [s.area for s in sched.segments] == pytest.approx([math.pi, math.pi])
    assert block_matches_target(sched, GateSpec.z_rotation(math.pi / 2))


def test_ngqc_hadamard_converges():
    sched = family_build("ngqc", GateSpec.hadamard())
    assert sched.duration == pytest.approx(2 * math.pi)
    assert block_matches_target(sched, GateSpec.hadamard())


def test_ngqc_not_src_residual_is_large():
    # the conventional three-segment loop violates the super-robust sum
    sched = family_build("ngqc", NOT)
    assert abs(src_residual(sched)) == pytest.approx(math.pi / 2, abs=1e-6)


def test_two_pi_segments_cannot_reach_not():
    # exhaustive coarse scan over both phases: two pi-area segments compose
    # to phase gates only, so every (p, q) stays at unit infidelity from
    # i sigma_x; this pins down why the super-robust layout needs three
    from georobust import PulseSchedule, PulseSegment

    worst = 1.0
    for p in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
        for q in np.linspace(0.0, 2 * math.pi, 24, endpoint=False):
            sched = PulseSchedule(
                "two", (PulseSegment(math.pi, 1.0, p), PulseSegment(math.pi, 1.0, q))
            )
            u = schedule_propagator(sched)
            worst = min(worst, 1.0 - gate_fidelity(u, 1j * SX))
    assert worst > 0.9


def test_sr_ngqc_not_gate():
    sched = family_build("sr-ngqc", NOT)
    assert [s.area for s in sched.segments] == pytest.approx([math.pi] * 3)
    assert sched.duration == pytest.approx(3 * math.pi)
    assert block_matches_target(sched, NOT)
    sol = solve_phase_jumps("sr-ngqc", NOT)
    assert sol.converged
    assert sol.residual_src < 1e-8
    assert np.max(np.abs(dynamical_integrals(sched))) < 1e-8
    # the 120-degree phasor triangle: phases (a, a + 4 pi/3, a) with a = -2 pi/3
    assert sol.phases == pytest.approx((-2 * math.pi / 3, 2 * math.pi / 3, -2 * math.pi / 3))


def test_sr_ngqc_phasors_cancel():
    sched = family_build("sr-ngqc", NOT)
    terms = src_phasors(sched)
    np.testing.assert_allclose(np.abs(terms), math.pi / 2, atol=1e-9)
    assert abs(terms.sum()) < 1e-8


def test_sr_ngqc_off_equator_does_not_converge(monkeypatch):
    # three pi rotations always compose to an equatorial pi rotation, so every
    # other target is refused structurally, before any propagation
    def no_propagation(schedule):
        raise AssertionError("refusal must not propagate")

    monkeypatch.setattr("georobust.gates.schedule_propagator", no_propagation)
    for name in ("hadamard", "identity", "x90", "z90"):
        spec = NAMED_GATES[name]
        with pytest.raises(SolverError, match="equatorial pi rotations"):
            solve_phase_jumps("sr-ngqc", spec)
        with pytest.raises(SolverError, match="equatorial pi rotations"):
            family_build("sr-ngqc", spec)


def test_nhqc_not_gate():
    sched = family_build("nhqc", NOT)
    assert sched.system == "lambda"
    assert [s.area for s in sched.segments] == pytest.approx([math.pi, math.pi])
    assert sched.duration == pytest.approx(2 * math.pi)
    # orange-slice NOT needs no phase jump at all
    assert sched.segments[0].phase == pytest.approx(sched.segments[1].phase, abs=1e-9)
    assert block_matches_target(sched, NOT)


def test_nhqc_pulse_frame_mirrors_axis():
    sched = family_build("nhqc", NOT)
    assert sched.theta == pytest.approx(math.pi - NOT.theta)
    assert sched.phi == pytest.approx(-NOT.phi)


def test_nhqc_hadamard_and_leakage():
    sched = family_build("nhqc", GateSpec.hadamard())
    assert block_matches_target(sched, GateSpec.hadamard())
    u = schedule_propagator(sched)
    # the computational block must not leak into |e> at beta = 0
    assert np.linalg.norm(u[2, :2]) < 1e-9
    assert np.linalg.norm(u[:2, 2]) < 1e-9


def test_nhqc_arbitrary_axis_converges():
    spec = GateSpec(theta=0.8, phi=0.5, gamma=1.1)
    sched = family_build("nhqc", spec)
    assert block_matches_target(sched, spec)


def test_sr_nhqc_not_gate():
    sched = family_build("sr-nhqc", NOT)
    assert sched.system == "lambda"
    assert [s.area for s in sched.segments] == pytest.approx([math.pi] * 4)
    assert sched.duration == pytest.approx(4 * math.pi)
    assert block_matches_target(sched, NOT)
    sol = solve_phase_jumps("sr-nhqc", NOT)
    assert sol.converged
    assert sol.residual_src < 1e-8


def test_sr_nhqc_phasors_cancel():
    sched = family_build("sr-nhqc", NOT)
    terms = src_phasors(sched)
    assert abs(terms.sum()) < 1e-8


def test_all_families_realize_not():
    for family in FAMILIES:
        sched = family_build(family, NOT)
        assert block_matches_target(sched, NOT), family


def test_family_build_rejects_unknown_family():
    with pytest.raises(ConfigError):
        family_build("srr-ngqc", NOT)
    with pytest.raises(ConfigError):
        solve_phase_jumps("", NOT)


def test_solver_is_deterministic():
    # no cache: each call evaluates the law and its certificate afresh
    cases = [(family, NOT) for family in FAMILIES] + [("ngqc", GateSpec.hadamard())]
    for family, spec in cases:
        a = solve_phase_jumps(family, spec)
        b = solve_phase_jumps(family, spec)
        assert a == b
        assert a is not b
        assert all(-math.pi <= p <= math.pi for p in a.phases)


def test_assemble_schedule_takes_one_phase_per_segment():
    with pytest.raises(ValueError, match="3 segment phases"):
        assemble_schedule("ngqc", NOT, (0.0, 0.0))
    sol = solve_phase_jumps("ngqc", NOT)
    assert len(sol.phases) == 3
    assert assemble_schedule("ngqc", NOT, sol.phases) == family_build("ngqc", NOT)

