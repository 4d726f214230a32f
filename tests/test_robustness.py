"""Auxiliary frames, the error matrix D, the super-robust sum, Magnus terms,
fidelity laws, and geometric phases."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    open_gate_metrics,
    order_fit,
    propagator_fidelity,
    quadratic_coefficient,
    schedule_propagator,
    segment_hamiltonian,
    src_phasors,
    src_residual,
    standard_channels,
    target_unitary,
)
from georobust import robustness
from oracles import (
    FEASIBLE_PAIRS,
    dyson_error_operators,
    gauss_legendre_error_integrals,
    hamiltonian,
    mat_exp_hermitian,
    reference_frame,
    sampled_dynamical_integrals,
    trapezoid_error_integrals,
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


def test_auxiliary_basis_matches_one_point_frames():
    # one kernel call per segment gives the bits of one call per time; a
    # segment's last sample is its own end, where auxiliary_frame would take
    # the next segment at an interior boundary. The reachable gates have
    # phi = 0, where the frames also match the column-by-column reference.
    per_segment = 9
    for family, gate in FEASIBLE_PAIRS:
        sched = family_build(family, NAMED_GATES[gate])
        if not sched.segments:
            continue
        basis = auxiliary_basis(sched, per_segment)
        last = len(basis.times) - 1
        for k, (t, frame) in enumerate(zip(basis.times.tolist(), basis.frames)):
            j = k // per_segment
            assert np.array_equal(frame, reference_frame(sched, j, t)), (family, gate, k)
            if k % per_segment != per_segment - 1 or k == last:
                assert np.array_equal(frame, auxiliary_frame(sched, t)), (family, gate, k)


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


@pytest.mark.parametrize("family,gate", FEASIBLE_PAIRS)
def test_error_integrals_match_exact_dyson_terms(family, gate):
    # the segment sums (V = H) and the Clenshaw-Curtis rule (a static custom
    # V) against the Dyson blocks of one scipy exponential per segment. The
    # static V has spectral norm 1/3, like each part of _random_hermitian_v:
    # G_op grows as |V|^2, and at norm 1 it reaches 94 on sr-nhqc z90, where
    # roundoff alone is 2e-13
    sched = family_build(family, NAMED_GATES[gate])
    frame0 = reference_frame(sched, 0, 0.0) if sched.segments else np.eye(sched.dim)
    rng = np.random.default_rng(FEASIBLE_PAIRS.index((family, gate)))
    m = rng.normal(size=(sched.dim, sched.dim)) + 1j * rng.normal(size=(sched.dim, sched.dim))
    static = (m + m.conj().T) / (3.0 * np.linalg.norm(m + m.conj().T, 2))
    for v, err in ((None, None), (static, ErrorModel.custom(0.0, v=lambda t: static))):
        d_op, g_op = dyson_error_operators(sched, v)
        got_d, got_g = magnus_terms(sched, err)
        np.testing.assert_allclose(got_d, d_op, rtol=0, atol=1e-13)
        np.testing.assert_allclose(got_g, g_op, rtol=0, atol=1e-13)
        np.testing.assert_allclose(d_matrix(sched, err), frame0.conj().T @ d_op @ frame0,
                                   rtol=0, atol=1e-13)


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
    d_op = d_matrix(sched)
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
        d_op = d_matrix(sched)
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
    d_op = d_matrix(sched, err)
    assert abs(d_op[0, 1] - 2.0j) < 2e-6


def test_d_matrix_rejects_underresolved_grid():
    # cos(4000 t) needs about 2000 pi / 2 Chebyshev modes on [0, pi], more
    # than the node cap allows; a uniform grid of step pi / 2000 reads
    # cos = 1 at every sample and would return the static answer 2i
    sched = family_build("dg", NOT)
    err = ErrorModel.custom(0.0, v=lambda t: math.cos(4000.0 * t) * SZ)
    cap = robustness.CC_MAX_NODES
    with pytest.raises(InvariantError, match=rf"segment 0: \|I_{cap} - I_{cap // 2}\|"):
        d_matrix(sched, err)
    with pytest.raises(InvariantError, match=rf"with {cap + 1} nodes"):
        magnus_terms(sched, err)
    # a kink inside a segment converges only algebraically: refused as well
    with pytest.raises(InvariantError, match=r"segment 0"):
        d_matrix(sched, ErrorModel.custom(0.0, v=lambda t: abs(t - 1.0) * SZ))


def _test_v(dim):
    """A slowly varying Hermitian V(t) with a detuning and an off-diagonal part."""
    proj = np.zeros((dim, dim), dtype=complex)
    proj[-1, -1] = 1.0
    hop = np.zeros((dim, dim), dtype=complex)
    hop[0, 1], hop[1, 0] = 0.03j, -0.03j
    return lambda t: (0.1 + 0.05 * math.cos(0.6 * t + 0.4)) * proj + math.sin(0.9 * t) * hop


def _detuning_v(dim, rng):
    """The benchmark's detuning error (a + b cos(w t + p)) |last><last|, with
    its parameters drawn from the benchmark's ranges."""
    a, b = rng.uniform(0.05, 0.2), rng.uniform(0.0, 0.1)
    w, p = rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * math.pi)
    proj = np.zeros((dim, dim), dtype=complex)
    proj[-1, -1] = 1.0
    return lambda t: (a + b * math.cos(w * t + p)) * proj


def _random_hermitian_v(dim, rng):
    """V(t) = A + cos(w1 t + p) B + sin(w2 t) C with random Hermitian A, B, C
    of spectral norm 1/3 each, so |V(t)| <= 1 like a unit error operator."""
    herm = []
    for _ in range(3):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = m + m.conj().T
        herm.append(m / (3.0 * np.linalg.norm(m, 2)))
    w1, w2, p = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi)
    return lambda t: herm[0] + math.cos(w1 * t + p) * herm[1] + math.sin(w2 * t) * herm[2]


def _assert_matches_stepped(sched, v):
    """D, D_op and G_op for a custom V on the package's closed-form trajectory
    agree with the Gauss-Legendre oracle on its stepped trajectory."""
    err = ErrorModel.custom(0.0, v)
    got = (d_matrix(sched, err), *magnus_terms(sched, err))
    want = gauss_legendre_error_integrals(sched, v)
    for name, g, w in zip(("D", "D_op", "G_op"), got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=1e-11, err_msg=name)


@pytest.mark.parametrize("family,gate", FEASIBLE_PAIRS)
def test_custom_trajectory_matches_stepped_reference(family, gate):
    sched = family_build(family, NAMED_GATES[gate])
    rng = np.random.default_rng(FEASIBLE_PAIRS.index((family, gate)))
    for v in (_detuning_v(sched.dim, rng), _random_hermitian_v(sched.dim, rng)):
        _assert_matches_stepped(sched, v)


@pytest.mark.parametrize("system", ["two", "lambda"])
def test_custom_trajectory_through_zero_amplitude_segment(system):
    # an undriven segment holds U(t) fixed, so a static V gives a constant
    # integrand there
    segs = (PulseSegment(math.pi / 2, 1.0, 0.3), PulseSegment(0.7, 0.0, 1.2),
            PulseSegment(math.pi, 1.0, -0.5))
    sched = PulseSchedule(system, segs, theta=0.8)
    static = np.diag(np.arange(1.0, sched.dim + 1)).astype(complex)
    for v in (_test_v(sched.dim), lambda t: static):
        _assert_matches_stepped(sched, v)


def test_custom_error_on_unequal_segments():
    # a pi/3 segment next to a pi segment: the two converge at their own node
    # counts
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.2), PulseSegment(math.pi, 1.0, 1.1))
    )
    _assert_matches_stepped(sched, lambda t: math.cos(0.3 * t) * SZ)
    _assert_matches_stepped(sched, _random_hermitian_v(2, np.random.default_rng(3)))


def _assert_lobatto_nodes(sched, calls):
    """Each segment's calls are the Chebyshev-Lobatto nodes of some n = 2^k,
    and no time is sampled twice; returns each segment's n."""
    assert len(calls) == len(set(calls))
    calls = np.sort(calls)
    bounds = sched.boundaries()
    counts = []
    for j, seg in enumerate(sched.segments):
        # the shared boundary node belongs to both segments
        mine = calls[(calls >= bounds[j]) & (calls <= bounds[j + 1])]
        n = len(mine) - 1
        assert n >= 2 * robustness.CC_FIRST_NODES and n & (n - 1) == 0, (j, n)
        want = bounds[j] + 0.5 * seg.duration * (1.0 - np.cos(np.pi * np.arange(n + 1) / n))
        np.testing.assert_allclose(mine, want, rtol=0, atol=1e-14)
        counts.append(n)
    return counts


def test_custom_v_is_called_once_per_grid_point():
    sched = PulseSchedule(
        "two", (PulseSegment(math.pi / 3, 1.0, 0.2), PulseSegment(math.pi, 1.0, 1.1),
                PulseSegment(2 * math.pi, 1.0, 0.4))
    )
    calls = []

    def v(t):
        calls.append(t)
        return math.cos(3.0 * t) * SZ

    d_matrix(sched, ErrorModel.custom(0.0, v))
    _assert_lobatto_nodes(sched, calls)
    first = list(calls)
    calls.clear()
    magnus_terms(sched, ErrorModel.custom(0.0, v))
    assert calls == first


def test_node_integrals_match_chebint_on_a_full_degree_series():
    # the running integral at the Lobatto points against numpy.polynomial's
    # chebint/chebval of the interpolant, with a top coefficient as large as
    # the rest: its integral's T_{n+1} term folds onto T_{n-1} at the points,
    # which converged V(t) samples, whose top coefficients are tiny, cannot show
    from numpy.polynomial.chebyshev import chebint, chebval

    rng = np.random.default_rng(7)
    for n, tau in ((8, 1.7), (16, 0.4)):
        x = np.cos(np.pi * np.arange(n + 1) / n)
        coef = rng.normal(size=(n + 1, 2, 2)) + 1j * rng.normal(size=(n + 1, 2, 2))
        samples = np.moveaxis(chebval(x, coef), -1, 0)
        want = np.moveaxis(chebval(x, chebint(coef, lbnd=1, scl=-0.5 * tau, axis=0)), -1, 0)
        np.testing.assert_allclose(robustness._node_integrals(tau, samples), want,
                                   rtol=0, atol=1e-12)


def test_stacked_segments_leave_the_loop_at_their_own_node_counts():
    # all segments double together; each leaves the stack once converged, at
    # n = 16, 64 and 128 here, and keeps its own Lobatto set of V(t) calls
    sched = PulseSchedule(
        "two", (PulseSegment(0.3, 1.0, 0.2), PulseSegment(math.pi, 1.0, 1.1),
                PulseSegment(3 * math.pi, 1.0, 0.4))
    )
    calls = []

    def v(t):
        calls.append(t)
        return math.cos(3.0 * t) * SZ

    d_matrix(sched, ErrorModel.custom(0.0, v))
    assert _assert_lobatto_nodes(sched, calls) == [16, 64, 128]
    _assert_matches_stepped(sched, lambda t: math.cos(3.0 * t) * SZ)


@pytest.mark.parametrize("fast,named", [((1,), 1), ((2,), 2), ((1, 2), 1)])
def test_unconverged_error_names_the_lowest_unresolved_segment(fast, named):
    # cos(4000 t) under a sin^2 window inside the fast segments only: every
    # segment sees a V that is smooth on it, and only the fast ones need more
    # than the node cap
    sched = PulseSchedule(
        "two", tuple(PulseSegment(math.pi, 1.0, ph) for ph in (0.2, 1.1, 0.4))
    )
    bounds = sched.boundaries()

    def v(t):
        scale = math.cos(0.3 * t)
        for j in fast:
            if bounds[j] < t < bounds[j + 1]:
                window = math.sin(math.pi * (t - bounds[j]) / sched.segments[j].duration)
                scale += math.cos(4000.0 * t) * window**2
        return scale * SZ

    cap = robustness.CC_MAX_NODES
    for call in (d_matrix, magnus_terms):
        with pytest.raises(InvariantError, match=rf"segment {named}: .* with {cap + 1} nodes"):
            call(sched, ErrorModel.custom(0.0, v))


def test_non_finite_v_on_the_last_segment_names_a_time_there():
    sched = PulseSchedule(
        "lambda", tuple(PulseSegment(d, 1.0, ph) for d, ph in ((1.0, 0.2), (2.0, 1.1), (1.5, 0.4))),
        theta=0.8,
    )
    bounds = sched.boundaries()
    ok = np.diag([1.0, 0.5, -1.0]).astype(complex)

    def v(t):
        return np.full((3, 3), np.nan) if t > bounds[2] else math.cos(t) * ok

    for call in (d_matrix, magnus_terms):
        with pytest.raises(ValueError, match=r"not finite at t=") as info:
            call(sched, ErrorModel.custom(0.0, v))
        bad_t = float(str(info.value).rpartition("t=")[2])
        assert bounds[2] < bad_t <= bounds[3]


@pytest.mark.parametrize(
    "v,match",
    [
        (lambda t: np.full((2, 2), np.nan), r"not finite at t=0\.0"),
        (lambda t: np.diag([1.0, np.inf]) if t > 1.0 else SZ, r"not finite at t=1\.5707963"),
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
    # finite samples whose integral overflows give a NaN deviation, which
    # must fail the convergence guard rather than pass it; large samples
    # that do not overflow integrate to a result that scales linearly
    sched = family_build("dg", NOT)
    err = ErrorModel.custom(0.0, v=lambda t: np.full((2, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvariantError):
        d_matrix(sched, err)
    big = d_matrix(sched, ErrorModel.custom(0.0, v=lambda t: np.full((2, 2), 1e150)))
    unit = d_matrix(sched, ErrorModel.custom(0.0, v=lambda t: np.ones((2, 2))))
    np.testing.assert_allclose(big / 1e150, unit, rtol=1e-12)


def test_custom_v_convergence_does_not_depend_on_scale():
    # the deviation and the integral are compared after dividing both by the
    # integral's largest entry: past about 1e154 the plain Frobenius norm of
    # the integral overflows to inf, and an unresolved V used to pass
    sched = family_build("dg", NOT)

    def scaled(scale, omega):
        return ErrorModel.custom(0.0, v=lambda t: scale * math.cos(omega * t) * SZ)

    cap = robustness.CC_MAX_NODES
    for scale in (1.0, 1e160, 1e200):
        with pytest.raises(InvariantError, match=rf"segment 0: .* with {cap + 1} nodes"):
            d_matrix(sched, scaled(scale, 4000.0))
    big = d_matrix(sched, scaled(1e150, 0.3))
    np.testing.assert_allclose(big / 1e150, d_matrix(sched, scaled(1.0, 0.3)), rtol=1e-12)


def test_magnus_terms_constant_drive():
    # DG: U(t) commutes with H, so D = H * tau and G = (H * tau)^2
    sched = family_build("dg", NOT)
    ham = segment_hamiltonian(sched, sched.segments[0])
    d_op, g_op = magnus_terms(sched)
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
            approx = magnus_gate_approx(sched, err)
            remainders.append(np.linalg.norm(exact - approx))
        assert 6.0 < remainders[0] / remainders[1] < 10.0, fam
        assert 6.0 < remainders[1] / remainders[2] < 10.0, fam


def test_fidelity_prediction_tracks_exact(not_schedules):
    # the first-order D term predicts the trace infidelity to quartic accuracy
    betas = np.linspace(-0.1, 0.1, 21)
    for fam, sched in not_schedules.items():
        d_op = d_matrix(sched)
        for beta in betas:
            if beta == 0:
                continue
            pred = fidelity_prediction(d_op, beta)
            exact = propagator_fidelity(sched, beta)
            assert abs(pred - exact) <= 5.0 * beta**4 * math.pi**4, (fam, beta)


@pytest.mark.parametrize("family, power, coefficient", [
    ("dg", 2, math.pi**2 / 8.0),
    ("ngqc", 2, math.pi**2 / 8.0),
    ("nhqc", 2, math.pi**2 / 3.0),
    ("sr-ngqc", 4, 3.0 * math.pi**4 / 128.0),
    ("sr-nhqc", 4, math.pi**4 / 12.0),
])
def test_fidelity_law_coefficients(family, power, coefficient):
    # 1 - F = coefficient * beta^power + O(beta^(power + 2)); at beta = 0.005
    # the next term is below 1e-4 of the first
    beta = 0.005
    infidelity = 1.0 - propagator_fidelity(family_build(family, NOT), beta)
    assert infidelity / beta**power == pytest.approx(coefficient, rel=1e-3)


def test_closed_gate_metrics_match_one_beta_calls():
    # one stack of propagators per call gives the bits of the one-beta
    # propagations, fidelity and leakage alike
    betas = np.concatenate([np.linspace(-0.1, 0.1, 41), np.linspace(-0.3, 0.05, 7)])
    for family, gate in FEASIBLE_PAIRS:
        sched = family_build(family, NAMED_GATES[gate])
        u0 = schedule_propagator(sched)
        points = robustness._closed_gate_metrics(sched, betas)
        assert len(points) == len(betas)
        for beta, point in zip(betas.tolist(), points):
            u = schedule_propagator(sched, beta)
            leak = 0.0 if sched.dim == 2 else float(0.5 * (abs(u[2, 0]) ** 2 + abs(u[2, 1]) ** 2))
            assert point == (gate_fidelity(u, u0), leak), (family, gate, beta)
            assert point == (propagator_fidelity(sched, beta), leakage(sched, beta))


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
    # a block of fewer than one row is no fidelity: -1 gave -1.99 and 0 NaN
    ub = schedule_propagator(family_build("nhqc", NOT), 0.05)
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"subspace_dim must be >= 1, got {bad}"):
            gate_fidelity(ub, target_unitary(NOT), subspace_dim=bad)


def test_fidelity_prediction_rejects_empty_subspace():
    d_op = d_matrix(family_build("nhqc", NOT))
    assert fidelity_prediction(d_op, 0.05, subspace_dim=2) < 1.0
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"subspace_dim must be >= 1, got {bad}"):
            fidelity_prediction(d_op, 0.05, subspace_dim=bad)
    with pytest.raises(ValueError, match="exceeds D-matrix dimension 3"):
        fidelity_prediction(d_op, 0.05, subspace_dim=4)


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


@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(offset=st.floats(min_value=-2 * math.pi, max_value=2 * math.pi),
       beta=st.sampled_from([0.0, 0.07, -0.04]))
@example(offset=0.3, beta=0.0)
@example(offset=-2.1, beta=0.07)
@example(offset=math.pi, beta=-0.04)
def test_phase_offset_leaves_metrics_unchanged(offset, beta):
    # adding c to every segment phase conjugates the drive by a diagonal
    # unitary, which no closed- or open-system metric can see
    for family, gate in FEASIBLE_PAIRS:
        sched = family_build(family, NAMED_GATES[gate])
        shifted = dataclasses.replace(sched, segments=tuple(
            dataclasses.replace(seg, phase=seg.phase + offset) for seg in sched.segments))
        chans = standard_channels(sched.system, 1e-3, 1e-3)
        pairs = [
            (propagator_fidelity(shifted, beta), propagator_fidelity(sched, beta)),
            (leakage(shifted, beta), leakage(sched, beta)),
            (abs(src_residual(shifted)), abs(src_residual(sched))),
            *zip(open_gate_metrics(shifted, chans, 0.05), open_gate_metrics(sched, chans, 0.05)),
        ]
        for got, want in pairs:
            assert abs(got - want) <= 1e-12, (family, gate)
