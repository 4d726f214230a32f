"""Property tests of the closed-form phase laws over random gate specs.

Each law is certified by one propagation; these tests check the certificate
and its physics independently of the named gates: the gate is exact, the
super-robust families cancel the SRC, the Lambda families do not leak, the
drive is resonant (no dynamical phase), and sr-ngqc refuses every target
outside its reachable class before propagating anything.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from georobust import (
    FAMILIES,
    NAMED_GATES,
    SR_FAMILIES,
    ConfigError,
    GateSpec,
    SolverError,
    dynamical_integrals,
    family_build,
    leakage,
    schedule_propagator,
    solve_phase_jumps,
    src_residual,
    target_unitary,
)
from georobust.gates import CERTIFICATE_TOL, _certificate
from oracles import FEASIBLE_PAIRS, numpy_gate_residual

TOL = 1e-12
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def angles(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


any_spec = st.builds(GateSpec, theta=angles(0.0, math.pi), phi=angles(-math.pi, math.pi),
                     gamma=angles(-7.0, 7.0))
equatorial_spec = st.builds(GateSpec, theta=st.just(math.pi / 2), phi=angles(-math.pi, math.pi),
                            gamma=angles(-7.0, 7.0))
# the sr-ngqc class: equatorial pi rotations, gamma = pi mod 2*pi
sr_ngqc_spec = st.builds(
    GateSpec, theta=st.just(math.pi / 2), phi=angles(-math.pi, math.pi),
    gamma=st.integers(min_value=-3, max_value=3).map(lambda k: math.pi + 2 * math.pi * k),
)


def in_sr_ngqc_class(spec):
    off_axis = abs(spec.theta - math.pi / 2)
    off_angle = abs((spec.gamma - math.pi + math.pi) % (2 * math.pi) - math.pi)
    return off_axis <= 1e-9 and off_angle <= 1e-9


def check_certified(family, spec):
    sol = solve_phase_jumps(family, spec)
    assert sol.converged, (family, spec)
    assert sol.residual_gate <= TOL, (family, spec, sol.residual_gate)
    sched = family_build(family, spec)
    if family in SR_FAMILIES:
        assert sol.residual_src <= TOL, (family, spec, sol.residual_src)
        assert abs(src_residual(sched)) <= TOL
    if sched.system == "lambda":
        assert leakage(sched, 0.0) <= TOL, (family, spec)
    assert float(np.max(np.abs(dynamical_integrals(sched)), initial=0.0)) <= TOL
    if family != "dg":  # dg keeps pi - phi unwrapped
        assert all(-math.pi <= p <= math.pi for p in sol.phases), sol.phases


@pytest.mark.parametrize("family", ["ngqc", "nhqc", "sr-nhqc"])
@PROPERTY
@given(spec=any_spec)
def test_any_axis_law_is_certified(family, spec):
    check_certified(family, spec)


@PROPERTY
@given(spec=equatorial_spec)
def test_dg_law_is_certified(spec):
    check_certified("dg", spec)


@PROPERTY
@given(spec=sr_ngqc_spec)
def test_sr_ngqc_law_is_certified(spec):
    check_certified("sr-ngqc", spec)


@PROPERTY
@given(spec=any_spec)
def test_sr_ngqc_refuses_outside_its_class_without_propagating(spec):
    if in_sr_ngqc_class(spec):
        check_certified("sr-ngqc", spec)
        return
    with mock.patch("georobust.gates.schedule_propagator",
                    side_effect=AssertionError("a refusal must not propagate")):
        with pytest.raises(SolverError, match=r"equatorial pi rotations \(axis theta = pi/2, "
                                              r"gamma = pi mod 2\*pi\)"):
            solve_phase_jumps("sr-ngqc", spec)


# the refused pairs are tested in test_gates (dg needs detuning off the
# equator; sr-ngqc reaches only equatorial pi rotations)
@pytest.mark.parametrize("family,gate", FEASIBLE_PAIRS)
def test_named_gates_are_certified(family, gate):
    check_certified(family, NAMED_GATES[gate])


@pytest.mark.parametrize("family", FAMILIES)
@PROPERTY
@given(spec=any_spec)
def test_scalar_residual_matches_numpy_construction(family, spec):
    # the certificate sums residual_gate in Python complex arithmetic; the
    # numpy construction agrees to roundoff and on the verdict, and the
    # propagator it hands on is the schedule's own
    try:
        sched, sol, u0 = _certificate(family, spec)
    except (ConfigError, SolverError):
        return
    reference = numpy_gate_residual(u0, target_unitary(spec))
    assert abs(sol.residual_gate - reference) <= 1e-14, (family, spec)
    src_ok = sol.residual_src <= CERTIFICATE_TOL or family not in SR_FAMILIES
    assert sol.converged == (reference <= CERTIFICATE_TOL and src_ok)
    assert np.array_equal(u0, schedule_propagator(sched))
