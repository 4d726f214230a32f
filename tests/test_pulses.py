"""Schedule construction, drive Hamiltonians, error models, text round-trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from georobust import (
    ErrorModel,
    PulseSchedule,
    PulseSegment,
    SerializationError,
    bright_dark,
    load_schedule,
    pulse_area,
    save_schedule,
    schedule_from_text,
    schedule_propagator,
    schedule_to_text,
    segment_hamiltonian,
    segment_propagator,
)
from georobust import pulses, robustness
from oracles import (
    TimeGrid,
    hamiltonian,
    mat_exp_hermitian,
    propagate_unitary,
    reference_frame,
    reference_segment_propagator,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)


def two_level(*segs, theta=0.0, phi=0.0):
    return PulseSchedule("two", tuple(segs), theta=theta, phi=phi)


def lam(*segs, theta=0.0, phi=0.0):
    return PulseSchedule("lambda", tuple(segs), theta=theta, phi=phi)


def drive(sched):
    """Hamiltonian of the schedule's first segment."""
    return segment_hamiltonian(sched, sched.segments[0])


def test_segment_validation():
    with pytest.raises(ValueError):
        PulseSegment(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PulseSegment(-1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        PulseSegment(1.0, -0.5, 0.0)
    with pytest.raises(ValueError):
        PulseSegment(math.inf, 1.0, 0.0)
    with pytest.raises(ValueError):
        PulseSegment(1.0, 1.0, math.nan)
    assert PulseSegment(2.0, 0.5, 0.1).area == pytest.approx(1.0)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PulseSchedule("qutrit", (PulseSegment(1.0, 1.0, 0.0),))
    with pytest.raises(TypeError):
        PulseSchedule("two", ("not a segment",))
    with pytest.raises(ValueError):
        PulseSchedule("two", (), theta=math.nan)
    sched = two_level(PulseSegment(1.0, 1.0, 0.0), PulseSegment(2.0, 0.5, 0.3))
    assert sched.dim == 2
    assert lam(PulseSegment(1.0, 1.0, 0.0)).dim == 3
    assert sched.duration == pytest.approx(3.0)
    np.testing.assert_allclose(sched.boundaries(), [0.0, 1.0, 3.0])


def test_segment_index_and_area_at():
    sched = two_level(PulseSegment(1.0, 1.0, 0.0), PulseSegment(2.0, 0.5, 0.3))
    assert sched.segment_index(0.0) == 0
    assert sched.segment_index(0.999) == 0
    # boundaries belong to the later segment
    assert sched.segment_index(1.0) == 1
    assert sched.segment_index(3.0) == 1
    with pytest.raises(ValueError):
        sched.segment_index(3.1)
    with pytest.raises(ValueError):
        sched.segment_index(-0.1)
    assert sched.area_at(0.5) == pytest.approx(0.5)
    assert sched.area_at(2.0) == pytest.approx(1.5)
    assert sched.area_at(3.0) == pytest.approx(pulse_area(sched))


def test_pulse_area_empty_schedule():
    assert pulse_area(two_level()) == 0.0


def test_two_level_hamiltonian_values():
    sched = two_level(PulseSegment(1.0, 1.0, 0.0))
    np.testing.assert_allclose(drive(sched), 0.5 * SX, atol=1e-15)
    sched = two_level(PulseSegment(1.0, 1.0, math.pi / 2))
    # H = (1/2)[[0, e^{i phi}], [e^{-i phi}, 0]] at phi = pi/2 is -(1/2) sigma_y
    np.testing.assert_allclose(drive(sched), -0.5 * SY, atol=1e-15)


def test_two_level_amplitude_scales_hamiltonian():
    sched = two_level(PulseSegment(1.0, 0.25, 0.7))
    base = two_level(PulseSegment(1.0, 1.0, 0.7))
    np.testing.assert_allclose(drive(sched), 0.25 * drive(base))


def test_three_level_bright_coupling():
    # theta = pi/2, phi = 0: bright state (|0> + |1>)/sqrt(2), so the drive
    # couples both qubit levels to |e> with element (1/2)(1/sqrt(2))
    sched = lam(PulseSegment(1.0, 1.0, 0.0), theta=math.pi / 2, phi=0.0)
    ham = drive(sched)
    expect = 1.0 / (2.0 * math.sqrt(2.0))
    assert ham[0, 2] == pytest.approx(expect)
    assert ham[1, 2] == pytest.approx(expect)
    assert abs(ham[0, 1]) < 1e-15
    np.testing.assert_allclose(ham, ham.conj().T, atol=1e-15)


def test_dark_state_is_annihilated():
    rng = np.random.default_rng(5)
    for _ in range(6):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        phase = float(rng.uniform(-math.pi, math.pi))
        sched = lam(PulseSegment(1.0, 1.0, phase), theta=theta, phi=phi)
        _, dark = bright_dark(theta, phi)
        residual = drive(sched) @ dark
        assert np.linalg.norm(residual) < 1e-14


def test_bright_block_reduces_to_two_level():
    # in the (bright, excited) basis the Lambda drive is the two-level drive
    # with the opposite phase sign
    theta, phi, phase = 1.1, -0.4, 0.8
    sched3 = lam(PulseSegment(1.0, 1.0, phase), theta=theta, phi=phi)
    bright, _ = bright_dark(theta, phi)
    exc = np.array([0.0, 0.0, 1.0], dtype=complex)
    basis = np.column_stack([bright, exc])
    block = basis.conj().T @ drive(sched3) @ basis
    sched2 = two_level(PulseSegment(1.0, 1.0, -phase))
    np.testing.assert_allclose(block, drive(sched2), atol=1e-14)


def test_hamiltonian_at_boundary_uses_later_segment():
    sched = two_level(PulseSegment(1.0, 1.0, 0.0), PulseSegment(1.0, 1.0, math.pi / 2))
    np.testing.assert_allclose(hamiltonian(sched, 1.0), -0.5 * SY, atol=1e-15)


def test_error_model_validation():
    with pytest.raises(ValueError):
        ErrorModel.global_rabi(0.6)
    with pytest.warns(UserWarning):
        ErrorModel.global_rabi(0.2)
    with pytest.raises(ValueError):
        ErrorModel.custom(0.1, v=None)
    err = ErrorModel.global_rabi(0.05)
    assert err.kind == "global_rabi"
    assert err.beta == 0.05


def test_segment_propagator_matches_exponential():
    segs = [PulseSegment(1.3, 0.8, 0.4), PulseSegment(0.7, 1.0, -2.0)]
    for system, theta in (("two", 0.0), ("lambda", 1.0)):
        sched = PulseSchedule(system, tuple(segs), theta=theta, phi=0.2)
        for seg in segs:
            direct = mat_exp_hermitian(segment_hamiltonian(sched, seg), seg.duration)
            np.testing.assert_allclose(segment_propagator(sched, seg), direct, atol=1e-12)


def test_schedule_propagator_matches_integrator():
    sched = two_level(PulseSegment(math.pi, 1.0, 0.2), PulseSegment(math.pi / 2, 0.5, -1.0))
    # integrate one segment at a time so no step straddles the phase jump
    bounds = sched.boundaries()
    u_int = np.eye(2, dtype=complex)
    for j in range(len(sched.segments)):
        grid = TimeGrid(float(bounds[j]), float(bounds[j + 1]), 1000)
        u_int = propagate_unitary(lambda t: hamiltonian(sched, t), grid) @ u_int
    np.testing.assert_allclose(schedule_propagator(sched), u_int, atol=1e-9)


def test_schedule_propagator_beta_equals_scaled_amplitudes():
    segs = (PulseSegment(1.0, 1.0, 0.3), PulseSegment(2.0, 0.5, -0.7))
    sched = two_level(*segs)
    beta = 0.07
    scaled = two_level(*(PulseSegment(s.duration, s.amplitude * (1 + beta), s.phase) for s in segs))
    np.testing.assert_allclose(
        schedule_propagator(sched, beta=beta), schedule_propagator(scaled), atol=1e-12
    )


def test_empty_schedule_propagator_is_identity():
    np.testing.assert_allclose(schedule_propagator(two_level()), np.eye(2))
    for sched in (two_level(), lam()):
        stack = schedule_propagator(sched, np.array([-0.1, 0.0, 0.2]))
        assert stack.shape == (3, sched.dim, sched.dim)
        assert np.array_equal(stack, np.broadcast_to(np.eye(sched.dim), stack.shape))


KERNEL_ANGLE = st.floats(-10.0, 10.0)
KERNEL_SEGMENTS = st.lists(
    st.builds(PulseSegment,
              duration=st.floats(0.01, 5.0),
              amplitude=st.just(0.0) | st.floats(0.0, 3.0),
              phase=KERNEL_ANGLE),
    max_size=4,
)
BETA_ARRAYS = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=8).map(np.array)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(system=st.sampled_from(["two", "lambda"]), segments=KERNEL_SEGMENTS,
       theta=KERNEL_ANGLE, phi=KERNEL_ANGLE, betas=BETA_ARRAYS)
def test_stacked_propagators_match_scalar_reference_bit_for_bit(system, segments, theta, phi,
                                                                betas):
    sched = PulseSchedule(system, tuple(segments), theta=theta, phi=phi)
    stack = schedule_propagator(sched, betas)
    assert stack.shape == (len(betas), sched.dim, sched.dim)
    seg_stacks = [segment_propagator(sched, seg, scale=1.0 + betas) for seg in sched.segments]
    for i, beta in enumerate(betas.tolist()):
        ref = np.eye(sched.dim, dtype=complex)
        for seg, seg_stack in zip(sched.segments, seg_stacks):
            seg_ref = reference_segment_propagator(sched, seg, 1.0 + beta)
            assert np.array_equal(seg_stack[i], seg_ref)
            assert np.array_equal(segment_propagator(sched, seg, 1.0 + beta), seg_ref)
            ref = seg_ref @ ref
        assert np.array_equal(stack[i], ref)
        assert np.array_equal(schedule_propagator(sched, beta), ref)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(system=st.sampled_from(["two", "lambda"]), segments=KERNEL_SEGMENTS.filter(bool),
       theta=KERNEL_ANGLE, phi=st.just(0.0) | KERNEL_ANGLE,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8), data=st.data())
def test_stacked_frames_match_scalar_reference(system, segments, theta, phi, fractions, data):
    sched = PulseSchedule(system, tuple(segments), theta=theta, phi=phi)
    j = data.draw(st.integers(0, len(segments) - 1))
    times = sched.boundaries()[j] + np.array(fractions) * segments[j].duration
    stack = robustness._frame_in_segment(sched, j, times)
    for frame, t in zip(stack, times.tolist()):
        assert np.array_equal(frame, robustness._frame_in_segment(sched, j, t))
        ref = reference_frame(sched, j, t)
        if system == "two" or phi == 0.0:
            assert np.array_equal(frame, ref)
        else:
            # the Lambda kernel rotates (dark, bright, e) by one matrix product,
            # which may round a complex bright entry's products differently
            np.testing.assert_allclose(frame, ref, rtol=0.0, atol=1e-15)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(system=st.sampled_from(["two", "lambda"]), theta=KERNEL_ANGLE, phi=KERNEL_ANGLE,
       phases=st.lists(KERNEL_ANGLE, min_size=1, max_size=4), width=st.integers(1, 6),
       data=st.data())
def test_frame_kernel_broadcasts_phase_bit_for_bit(system, theta, phi, phases, width, data):
    # one segment per row: a column of phases against a row of half-angles
    # gives every member the bits of its scalar call
    sched = PulseSchedule(system, (), theta=theta, phi=phi)
    halves = data.draw(st.lists(st.lists(KERNEL_ANGLE, min_size=width, max_size=width),
                                min_size=len(phases), max_size=len(phases)))
    stack = pulses._segment_frame(sched, np.array(halves), np.array(phases)[:, None])
    assert stack.shape == (len(phases), width, sched.dim, sched.dim)
    for row, members, phase in zip(halves, stack, phases):
        for half, frame in zip(row, members):
            assert np.array_equal(frame, pulses._segment_frame(sched, half, phase))


def test_text_round_trip_is_exact():
    sched = PulseSchedule(
        "lambda",
        (PulseSegment(math.pi, 1.0, math.pi / 3), PulseSegment(2 * math.pi / 7, 0.31, -2.123456789)),
        theta=0.7,
        phi=-0.2,
    )
    text = schedule_to_text(sched)
    back = schedule_from_text(text)
    assert back == sched  # repr round-trip keeps every float bit-exact
    assert schedule_to_text(back) == text


def test_text_format_shape():
    sched = two_level(PulseSegment(1.5, 1.0, 0.25))
    text = schedule_to_text(sched)
    lines = text.splitlines()
    assert lines[0].startswith("system=two ")
    assert len(lines) == 2
    assert len(lines[1].split()) == 3
    assert text.endswith("\n")


def test_save_and_load(tmp_path):
    sched = two_level(PulseSegment(2.0, 0.9, 1.25), theta=0.3)
    path = tmp_path / "pulse.txt"
    save_schedule(sched, path)
    assert load_schedule(path) == sched


@pytest.mark.parametrize(
    "text",
    [
        "",
        "theta=0.0 phi=0.0\n1.0 1.0 0.0\n",           # missing system key
        "system=two theta=0.0 phi=0.0\n1.0 1.0\n",    # wrong column count
        "system=two theta=0.0 phi=0.0\n1.0 1.0 abc\n",
        "system=two theta=0.0 phi=0.0\n-1.0 1.0 0.0\n",
        "system=four theta=0.0 phi=0.0\n1.0 1.0 0.0\n",
        "system=two theta=0.0 phi=0.0 bogus=1 theta=5\n1.0 1.0 0.0\n",  # unknown key
        "system=two theta=0.0 phi=0.0 theta=5\n1.0 1.0 0.0\n",  # repeated key
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(SerializationError):
        schedule_from_text(text)


@pytest.mark.parametrize(
    "header, message",
    [
        ("system=two theta=0.0 phi=0.0 bogus=1 theta=5", "unknown header key 'bogus' on line 1"),
        ("system=two theta=0.0 phi=0.0 theta=5",
         "header key 'theta' is given more than once on line 1"),
    ],
)
def test_parse_names_the_bad_header_key(header, message):
    with pytest.raises(SerializationError, match=message):
        schedule_from_text(header + "\n1.0 1.0 0.0\n")


def test_parse_error_reports_line_number():
    text = "system=two theta=0.0 phi=0.0\n1.0 1.0 0.0\n1.0 oops 0.0\n"
    with pytest.raises(SerializationError) as exc:
        schedule_from_text(text)
    assert "line 3" in str(exc.value)


def _bits(sched):
    """Every float of a schedule as float.hex, so -0.0 and 0.0 differ."""
    fields = [sched.theta, sched.phi]
    for seg in sched.segments:
        fields += [seg.duration, seg.amplitude, seg.phase]
    return sched.system, [float(x).hex() for x in fields]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SEGMENTS = st.lists(
    st.builds(PulseSegment,
              duration=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
              amplitude=st.floats(min_value=-0.0, allow_infinity=False),
              phase=FINITE),
    max_size=4,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(system=st.sampled_from(["two", "lambda"]), segments=SEGMENTS, theta=FINITE, phi=FINITE)
@example(system="two", segments=[PulseSegment(5e-324, -0.0, -0.0)], theta=-0.0, phi=2.2e-308)
@example(system="lambda", segments=[PulseSegment(1.7976931348623157e308, 1e300, -1e-310)],
         theta=-1.7976931348623157e308, phi=-0.0)
def test_schedule_text_round_trips_bit_for_bit(system, segments, theta, phi):
    sched = PulseSchedule(system, tuple(segments), theta=theta, phi=phi)
    text = schedule_to_text(sched)
    back = schedule_from_text(text)
    assert _bits(back) == _bits(sched)
    assert schedule_to_text(back) == text
