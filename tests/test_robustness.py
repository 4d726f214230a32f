"""Auxiliary frames, the error matrix D, the super-robust sum, Magnus terms,
fidelity laws, and geometric phases."""

import math
import warnings

import numpy as np
import pytest

from georobust import (
    ErrorModel,
    GateSpec,
    NAMED_GATES,
    InvariantError,
    PulseSchedule,
    PulseSegment,
    auxiliary_basis,
    auxiliary_frame,
    d_matrix,
    dynamical_integrals,
    family_build,
    fidelity_prediction,
    frame_anchor,
    gate_fidelity,
    geometric_phase,
    leakage,
    magnus_gate_approx,
    magnus_terms,
    order_fit,
    propagator_fidelity,
    quadratic_coefficient,
    schedule_propagator,
    segment_hamiltonian,
    src_phasors,
    src_residual,
    target_unitary,
)
from georobust import robustness
from oracles import (
    FEASIBLE_PAIRS,
    hamiltonian,
    mat_exp_hermitian,
    sampled_dynamical_integrals,
    stepped_custom_samples,
    trapezoid_error_integrals,
    two_trajectory_d_matrix,
)

NOT = GateSpec.not_gate()
FAMILIES = ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
SR = ("sr-ngqc", "sr-nhqc")
SZ = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def not_schedules():
    return {fam: family_build(fam, NOT) for fam in FAMILIES}


def angle_distance(a, b):
    return abs(math.remainder(a - b, 2.0 * math.pi))


def pancharatnam(schedule, column, samples_per_segment=512):
    """Discrete Berry phase of one frame column around the schedule's loop.

    The product of successive overlaps closed by <chi(tau)|chi(0)> is gauge
    invariant, so it gives the loop phase without touching the frame
    construction being tested.
    """
    basis = auxiliary_basis(schedule, samples_per_segment)
    chis = basis.frames[:, :, column]
    overlaps = np.einsum("ti,ti->t", chis[:-1].conj(), chis[1:])
    closure = np.vdot(chis[-1], chis[0])
    return float(np.angle(np.prod(overlaps) * closure))


def test_frame_anchor_values(not_schedules):
    assert frame_anchor(not_schedules["ngqc"]) == pytest.approx(NOT.theta)
    assert frame_anchor(not_schedules["nhqc"]) == 0.0
    assert frame_anchor(not_schedules["sr-ngqc"]) == 0.0


def test_frames_are_orthonormal(not_schedules):
    for fam, sched in not_schedules.items():
        basis = auxiliary_basis(sched, samples_per_segment=32)
        eye = np.eye(sched.dim)
        for frame in basis.frames:
            np.testing.assert_allclose(frame.conj().T @ frame, eye, atol=1e-12, err_msg=fam)


def test_frames_solve_the_schroedinger_equation(not_schedules):
    # each frame column must stay parallel to the propagated initial column;
    # the cumulative propagator is exact per segment, so the overlap magnitude
    # must be 1 at every sampled time
    for fam, sched in not_schedules.items():
        bounds = sched.boundaries()
        u = np.eye(sched.dim, dtype=complex)
        frame0 = auxiliary_frame(sched, 0.0)
        for j, seg in enumerate(sched.segments):
            ham = segment_hamiltonian(sched, seg)
            for frac in (0.25, 0.5, 0.9):
                t = bounds[j] + frac * seg.duration
                u_t = mat_exp_hermitian(ham, frac * seg.duration) @ u
                frame_t = auxiliary_frame(sched, t)
                overlaps = np.abs(np.einsum("ik,ik->k", frame_t.conj(), u_t @ frame0))
                np.testing.assert_allclose(overlaps, 1.0, atol=1e-9, err_msg=fam)
            u = mat_exp_hermitian(ham, seg.duration) @ u


def test_frame_loop_closure(not_schedules):
    # cyclic families return to the starting frame; the pi-area families come
    # back with the two tracked columns exchanged
    for fam in ("ngqc", "nhqc", "sr-nhqc"):
        overlap = np.abs(auxiliary_basis(not_schedules[fam]).end_overlap())
        np.testing.assert_allclose(overlap, np.eye(not_schedules[fam].dim), atol=1e-9, err_msg=fam)
    for fam, cols in (("dg", (0, 1)), ("sr-ngqc", (0, 1))):
        overlap = np.abs(auxiliary_basis(not_schedules[fam]).end_overlap())
        swap = np.zeros_like(overlap)
        swap[cols[0], cols[1]] = swap[cols[1], cols[0]] = 1.0
        np.testing.assert_allclose(overlap, swap, atol=1e-9, err_msg=fam)


def test_dynamical_integrals_vanish(not_schedules):
    for fam, sched in not_schedules.items():
        assert np.max(np.abs(dynamical_integrals(sched))) < 1e-10, fam


def test_dynamical_integrals_match_frame_sampled_quadrature(not_schedules):
    # the diagonal of the exact segment sum against trapezoid quadrature over
    # the analytic co-moving frames, which shares no code with it
    for fam, sched in not_schedules.items():
        exact = dynamical_integrals(sched)
        assert exact.shape == (sched.dim,), fam
        np.testing.assert_allclose(exact, sampled_dynamical_integrals(sched), rtol=0,
                                   atol=1e-10, err_msg=fam)


def test_exact_error_integrals_match_trapezoid_integration():
    # D and the Magnus pair against trapezoid quadrature along a
    # midpoint-integrated trajectory at 2000 steps per pi, on every feasible
    # pair; for V = H the integrands are piecewise constant or linear, so the
    # quadrature is exact up to roundoff
    for fam, gate in FEASIBLE_PAIRS:
        sched = family_build(fam, NAMED_GATES[gate])
        d_frame, d_op, g_op = trapezoid_error_integrals(sched, steps_per_pi=2000)
        exact_d, exact_g = magnus_terms(sched)
        np.testing.assert_allclose(d_matrix(sched), d_frame, rtol=0, atol=1e-9,
                                   err_msg=f"{fam} {gate}")
        np.testing.assert_allclose(exact_d, d_op, rtol=0, atol=1e-9, err_msg=f"{fam} {gate}")
        np.testing.assert_allclose(exact_g, g_op, rtol=0, atol=1e-9, err_msg=f"{fam} {gate}")


def test_empty_schedule_error_integrals_vanish():
    for sched in (PulseSchedule("two", ()), PulseSchedule("lambda", (), theta=0.4),
                  family_build("dg", GateSpec.identity())):
        zero = np.zeros((sched.dim, sched.dim))
        np.testing.assert_array_equal(d_matrix(sched), zero)
        np.testing.assert_array_equal(d_matrix(sched, ErrorModel.custom(0.0, v=lambda t: SZ)), zero)
        d_op, g_op = magnus_terms(sched)
        np.testing.assert_array_equal(d_op, zero)
        np.testing.assert_array_equal(g_op, zero)
        np.testing.assert_array_equal(dynamical_integrals(sched), np.zeros(sched.dim))


def test_custom_error_with_odd_step_count_matches_two_trajectories():
    # a pi/3 segment takes ceil(2000/3) = 667 steps; the single trajectory
    # rounds that up to 668 and checks itself on the even-indexed samples.
    # Both grids carry a trapezoid error near 2.4e-7, which changes by about
    # 2/667 of itself with the extra step
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.2), PulseSegment(math.pi, 1.0, 1.1))
    )
    v = lambda t: math.cos(0.3 * t) * SZ  # noqa: E731
    single = d_matrix(sched, ErrorModel.custom(0.0, v))
    np.testing.assert_allclose(single, two_trajectory_d_matrix(sched, v), rtol=0, atol=1e-9)


def test_custom_drive_error_matches_global_rabi():
    # V(t) = H(t) through the custom quadrature reproduces the exact global
    # Rabi sums; one segment per schedule, so no sample sits on a phase jump
    for sched in (family_build("dg", NOT),
                  PulseSchedule("lambda", (PulseSegment(2 * math.pi, 1.0, 0.7),), theta=0.9)):
        custom = ErrorModel.custom(0.0, v=lambda t, s=sched: hamiltonian(s, t))
        np.testing.assert_allclose(d_matrix(sched, custom), d_matrix(sched), atol=1e-9)
        for got, want in zip(magnus_terms(sched, custom), magnus_terms(sched)):
            np.testing.assert_allclose(got, want, atol=1e-9)


def test_dg_d_matrix():
    sched = family_build("dg", NOT)
    d_op = d_matrix(sched, steps_per_pi=600)
    # resonant drives put nothing on the frame diagonal
    assert abs(d_op[0, 0]) < 1e-12
    assert abs(d_op[1, 1]) < 1e-12
    # a pi pulse leaves the full half-area in the off-diagonal slot
    assert abs(d_op[0, 1]) == pytest.approx(math.pi / 2, abs=1e-9)


def test_constant_phase_full_loop_src():
    # one 2*pi segment at constant phase: the phasor sum has a single term of
    # magnitude pi, so the loop is maximally non-super-robust
    sched = PulseSchedule("two", (PulseSegment(2 * math.pi, 1.0, 0.7),))
    val = src_residual(sched)
    assert abs(val) == pytest.approx(math.pi, abs=1e-12)
    terms = src_phasors(sched)
    assert len(terms) == 1
    assert np.angle(terms[0]) == pytest.approx(0.7, abs=1e-12)


def test_src_closed_form_matches_integral(not_schedules):
    for fam, sched in not_schedules.items():
        closed = src_residual(sched)
        d_op = d_matrix(sched, steps_per_pi=600)
        numeric = d_op[0, 1] if sched.dim == 2 else d_op[1, 2]
        tol = 1e-7 if sched.dim == 2 else 1e-8
        assert abs(closed - numeric) < tol, fam


def test_sr_families_satisfy_the_condition(not_schedules):
    for fam in SR:
        assert abs(src_residual(not_schedules[fam])) < 1e-6, fam
    for fam in ("dg", "ngqc", "nhqc"):
        assert abs(src_residual(not_schedules[fam])) > 1e-2, fam


def test_src_fallback_warns_on_misaligned_jumps():
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.0), PulseSegment(2 * math.pi, 1.0, 1.0))
    )
    with pytest.raises(ValueError):
        src_phasors(sched)
    with pytest.warns(UserWarning):
        val = src_residual(sched)
    assert np.isfinite(val)


def test_d_matrix_custom_static_error():
    # DG NOT drive with V = sigma_z: the frame off-diagonal integrand is
    # i sin(t), whose integral over [0, pi] is exactly 2i
    sched = family_build("dg", NOT)
    sz = np.diag([1.0, -1.0]).astype(complex)
    err = ErrorModel.custom(0.0, v=lambda t: sz)
    d_op = d_matrix(sched, err, steps_per_pi=2000)
    assert abs(d_op[0, 1] - 2.0j) < 2e-6


def test_d_matrix_rejects_underresolved_grid():
    sched = family_build("dg", NOT)
    sz = np.diag([1.0, -1.0]).astype(complex)
    err = ErrorModel.custom(0.0, v=lambda t: math.cos(40.0 * t) * sz)
    with pytest.raises(InvariantError):
        d_matrix(sched, err, steps_per_pi=100)
    # the same call must pass with validation off
    d_op = d_matrix(sched, err, steps_per_pi=100, validate=False)
    assert np.all(np.isfinite(d_op))


def _test_v(dim):
    """A slowly varying Hermitian V(t) with a detuning and an off-diagonal part."""
    proj = np.zeros((dim, dim), dtype=complex)
    proj[-1, -1] = 1.0
    hop = np.zeros((dim, dim), dtype=complex)
    hop[0, 1], hop[1, 0] = 0.03j, -0.03j
    return lambda t: (0.1 + 0.05 * math.cos(0.6 * t + 0.4)) * proj + math.sin(0.9 * t) * hop


def _assert_matches_stepped(sched, monkeypatch):
    """D, D_op and G_op for a custom V on the package's closed-form trajectory
    agree with the same integrals on the stepped reference trajectory."""
    err = ErrorModel.custom(0.0, _test_v(sched.dim))
    closed = (d_matrix(sched, err), *magnus_terms(sched, err))
    with monkeypatch.context() as patch:
        patch.setattr(robustness, "_custom_samples", stepped_custom_samples)
        stepped = (d_matrix(sched, err), *magnus_terms(sched, err))
    for got, want in zip(closed, stepped):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11)


@pytest.mark.parametrize("family,gate", FEASIBLE_PAIRS)
def test_custom_trajectory_matches_stepped_reference(family, gate, monkeypatch):
    _assert_matches_stepped(family_build(family, NAMED_GATES[gate]), monkeypatch)


@pytest.mark.parametrize("system", ["two", "lambda"])
def test_custom_trajectory_through_zero_amplitude_segment(system, monkeypatch):
    # an undriven segment holds U(t) fixed: with a static V the integrand is
    # constant there, and the trajectory still matches the stepped reference
    segs = (PulseSegment(math.pi / 2, 1.0, 0.3), PulseSegment(0.7, 0.0, 1.2),
            PulseSegment(math.pi, 1.0, -0.5))
    sched = PulseSchedule(system, segs, theta=0.8)
    _assert_matches_stepped(sched, monkeypatch)
    static = np.diag(np.arange(1.0, sched.dim + 1)).astype(complex)
    samples = robustness._custom_samples(sched, lambda t: static, 2000)
    u_mid = schedule_propagator(PulseSchedule(system, segs[:1], theta=0.8))
    want = u_mid.conj().T @ static @ u_mid
    np.testing.assert_allclose(samples[1][1], np.broadcast_to(want, samples[1][1].shape),
                               rtol=0, atol=1e-12)


def test_custom_v_is_called_once_per_grid_point():
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.2), PulseSegment(math.pi, 1.0, 1.1))
    )
    # ceil(600 / 3) = 200 and 600 steps, both already even
    expected = (200 + 1) + (600 + 1)
    calls = []

    def v(t):
        calls.append(t)
        return math.cos(t) * SZ

    for validate in (True, False):
        calls.clear()
        d_matrix(sched, ErrorModel.custom(0.0, v), steps_per_pi=600, validate=validate)
        assert len(calls) == expected
    calls.clear()
    magnus_terms(sched, ErrorModel.custom(0.0, v), steps_per_pi=600)
    assert len(calls) == expected


@pytest.mark.parametrize(
    "v,match",
    [
        (lambda t: np.full((2, 2), np.nan), r"not finite at t=0\.0"),
        (lambda t: np.diag([1.0, np.inf]) if t > 1.0 else SZ, r"not finite at t=1\.00"),
        (lambda t: np.eye(3), r"\(2, 2\) matrix, got shape \(3, 3\)"),
        (lambda t: 0.5, r"\(2, 2\) matrix, got shape \(\)"),
    ],
    ids=["nan", "inf-later", "wrong-shape", "scalar"],
)
def test_custom_v_rejects_bad_samples(v, match):
    sched = family_build("dg", NOT)
    err = ErrorModel.custom(0.0, v)
    with pytest.raises(ValueError, match=match):
        d_matrix(sched, err)
    with pytest.raises(ValueError, match=match):
        magnus_terms(sched, err)


def test_d_matrix_rejects_overflowing_integral():
    # finite samples whose integral overflows give a NaN grid deviation,
    # which must fail the convergence guard rather than pass it
    sched = family_build("dg", NOT)
    err = ErrorModel.custom(0.0, v=lambda t: np.full((2, 2), 1e307))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantError):
        d_matrix(sched, err, steps_per_pi=100)


def test_magnus_terms_constant_drive():
    # DG: U(t) commutes with H, so D = H * tau and G = (H * tau)^2
    sched = family_build("dg", NOT)
    ham = segment_hamiltonian(sched, sched.segments[0])
    d_op, g_op = magnus_terms(sched, steps_per_pi=400)
    np.testing.assert_allclose(d_op, math.pi * ham, atol=1e-9)
    np.testing.assert_allclose(g_op, (math.pi * ham) @ (math.pi * ham), atol=1e-8)


def test_magnus_remainder_is_third_order(not_schedules):
    # halving beta must shrink |U' - U_magnus| by about 8x
    for fam in ("dg", "ngqc"):
        sched = not_schedules[fam]
        remainders = []
        for beta in (0.1, 0.05, 0.025):
            err = ErrorModel.global_rabi(beta)
            exact = schedule_propagator(sched, beta=beta)
            approx = magnus_gate_approx(sched, err, steps_per_pi=400)
            remainders.append(np.linalg.norm(exact - approx))
        assert 6.0 < remainders[0] / remainders[1] < 10.0, fam
        assert 6.0 < remainders[1] / remainders[2] < 10.0, fam


def test_fidelity_prediction_tracks_exact(not_schedules):
    # the first-order D term predicts the trace infidelity to quartic accuracy
    betas = np.linspace(-0.1, 0.1, 21)
    for fam, sched in not_schedules.items():
        d_op = d_matrix(sched, steps_per_pi=400)
        for beta in betas:
            if beta == 0:
                continue
            pred = fidelity_prediction(d_op, beta)
            exact = propagator_fidelity(sched, beta)
            assert abs(pred - exact) <= 5.0 * beta**4 * math.pi**4, (fam, beta)


def test_propagator_fidelity_dg_closed_form():
    # scaling a pi pulse by 1 + beta rotates by pi(1 + beta); the full-space
    # overlap with the ideal gate is |cos(pi beta / 2)|
    sched = family_build("dg", NOT)
    for beta in (0.02, 0.1, -0.07):
        expect = abs(math.cos(math.pi * beta / 2.0))
        assert propagator_fidelity(sched, beta) == pytest.approx(expect, abs=1e-12)


def test_gate_fidelity_variants():
    u = np.diag([1.0, 1.0, 0.0]).astype(complex)
    target = np.eye(2, dtype=complex)
    # leading 2x2 block comparison ignores the third level
    assert gate_fidelity(u, target) == pytest.approx(1.0)
    assert gate_fidelity(np.exp(0.3j) * np.eye(2), target) == pytest.approx(1.0)
    # square arguments compare the full matrices, up to a global phase
    assert gate_fidelity(np.eye(3), 1j * np.eye(3)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        gate_fidelity(np.eye(2), np.eye(2), subspace_dim=4)


def test_leakage_values(not_schedules):
    assert leakage(not_schedules["dg"], beta=0.1) == 0.0
    assert leakage(not_schedules["nhqc"], beta=0.0) < 1e-12
    # an amplitude error drives population out through the excited state
    assert leakage(not_schedules["nhqc"], beta=0.1) > 1e-4


def test_geometric_phase_not_gates(not_schedules):
    for fam in ("ngqc", "nhqc", "sr-nhqc"):
        assert angle_distance(geometric_phase(not_schedules[fam]), math.pi) < 1e-9, fam


def test_geometric_phase_matches_pancharatnam(not_schedules):
    # two-level gate angle is minus twice the per-state loop phase; the
    # Lambda holonomy is minus the bright-track loop phase
    for fam in ("ngqc", "nhqc", "sr-nhqc"):
        sched = not_schedules[fam]
        if sched.dim == 2:
            oracle = -2.0 * pancharatnam(sched, 0)
        else:
            oracle = -pancharatnam(sched, 1)
        assert angle_distance(geometric_phase(sched), oracle) < 1e-6, fam


def test_geometric_phase_orange_slice():
    # two meridian traversals whose azimuths differ by dphi enclose a lune;
    # the loop phase is half the enclosed solid angle, pi - dphi here, and the
    # Pancharatnam product confirms it independently of the jump bookkeeping
    for dphi in (0.4, 1.0, 1.6, 2.5):
        sched = PulseSchedule(
            "lambda",
            (PulseSegment(math.pi, 1.0, 0.0), PulseSegment(math.pi, 1.0, dphi)),
            theta=0.6,
            phi=0.3,
        )
        value = geometric_phase(sched)
        assert angle_distance(value, math.pi - dphi) < 1e-9
        assert angle_distance(value, -pancharatnam(sched, 1)) < 1e-6


def test_geometric_phase_two_level_jump_law():
    for dphi in (0.4, 1.2):
        sched = PulseSchedule(
            "two", (PulseSegment(math.pi, 1.0, 0.0), PulseSegment(math.pi, 1.0, dphi))
        )
        value = geometric_phase(sched)
        assert angle_distance(value, 2.0 * (math.pi + dphi)) < 1e-9
        assert angle_distance(value, -2.0 * pancharatnam(sched, 0)) < 1e-6


def test_geometric_phase_rejects_open_loops(not_schedules):
    with pytest.raises(ValueError):
        geometric_phase(not_schedules["dg"])  # area pi
    with pytest.raises(ValueError):
        geometric_phase(not_schedules["sr-ngqc"])  # area 3*pi


def test_geometric_phase_rejects_misaligned_jumps():
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.0), PulseSegment(2 * math.pi - math.pi / 3, 1.0, 1.0))
    )
    with pytest.raises(ValueError):
        geometric_phase(sched)


def test_geometric_phase_empty_schedule():
    assert geometric_phase(PulseSchedule("two", ())) == 0.0


def test_order_fit_recovers_power_laws():
    betas = np.array([0.02, 0.04, 0.06, 0.08, 0.1])
    assert order_fit(betas, 3.0 * betas**2) == pytest.approx(2.0, abs=1e-9)
    assert order_fit(betas, 0.5 * betas**4) == pytest.approx(4.0, abs=1e-9)
    with pytest.raises(ValueError):
        order_fit(np.array([0.1]), np.array([0.01]))


def test_quadratic_coefficient_recovers_curvature():
    betas = np.linspace(-0.05, 0.05, 11)
    assert quadratic_coefficient(betas, 1.7 * betas**2) == pytest.approx(1.7, abs=1e-12)
    with pytest.raises(ValueError):
        quadratic_coefficient(np.zeros(3), np.zeros(3))


def test_quadratic_coefficients_of_families(not_schedules):
    # frozen fidelity laws: quadratic curvature pi^2/8 for the dynamical and
    # conventional-geometric loops, pi^2/3 for the orange slice
    betas = np.linspace(-0.05, 0.05, 21)
    targets = {"dg": math.pi**2 / 8, "ngqc": math.pi**2 / 8, "nhqc": math.pi**2 / 3}
    for fam, target in targets.items():
        infids = np.array([1.0 - propagator_fidelity(not_schedules[fam], b) for b in betas])
        coeff = quadratic_coefficient(betas, infids)
        assert abs(coeff - target) / target < 0.03, fam


def test_sr_families_are_quartic(not_schedules):
    betas = np.linspace(0.02, 0.1, 9)
    for fam in SR:
        infids = np.array([1.0 - propagator_fidelity(not_schedules[fam], b) for b in betas])
        assert order_fit(betas, infids) > 3.7, fam
        assert infids[-1] < 5e-3, fam
