"""The five standard gate constructions and their closed-form phase laws.

Families
--------
dg        dynamical gate: one resonant segment, duration = rotation angle.
ngqc      single-loop geometric gate on a two-level drive: the frame traverses
          an orange-slice loop through both poles; segment areas
          (pi - theta, pi, theta) with phases (p, q, p). Duration 2*pi.
sr-ngqc   super-robust variant: three pi-area segments anchored at a pole, so
          the per-segment SRC phasors (each of magnitude pi/2) can cancel.
          Duration 3*pi. Realizes the equatorial pi-rotation class only.
nhqc      holonomic gate on a Lambda system: one 2*pi bright-state loop split
          into two pi segments. Duration 2*pi.
sr-nhqc   two consecutive 2*pi loops (four pi segments) with phases chosen so
          the four SRC phasors cancel pairwise. Duration 4*pi.

All segments run at unit amplitude, so durations equal areas.

Phase laws
----------
For a target exp(i (gamma/2) n.sigma) with axis angles (theta, phi), one
phase per segment:

dg        (pi - phi). Only equatorial axes (theta = pi/2) are reachable with a
          resonant drive; the identity is the empty schedule.
ngqc      p = -phi - pi/2, q = p + gamma/2, phases (p, q, p).
nhqc      (0, pi - gamma).
sr-nhqc   delta = pi - gamma/2, phases (0, delta, eps, eps + delta). Each 2*pi
          loop carries the jump delta, which fixes the gate, and the SRC
          phasor sum is (pi/2)(1 + e^{i delta})(1 + e^{i(2 delta - eps)}), so
          eps = 2 delta - pi cancels it.
sr-ngqc   a = -phi - 2*pi/3, phases (a, a + 4*pi/3, a). Three pi rotations
          always multiply to an equatorial pi rotation, so any other target
          (theta != pi/2 or gamma != pi mod 2*pi, beyond 1e-9) is refused with
          SolverError before anything is propagated. The three SRC phasors
          form a 120-degree triangle and sum to zero.

Phases other than dg's are wrapped into [-pi, pi), which is exact because
they enter only through e^{i phase}. solve_phase_jumps() certifies the laws
with one propagation: the phase-aligned distance to the target block,
leakage elements for Lambda systems, and the closed-form SRC sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .pulses import LAMBDA, TWO_LEVEL, PulseSchedule, PulseSegment, schedule_propagator
from .robustness import src_residual

FAMILIES = ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
SR_FAMILIES = ("sr-ngqc", "sr-nhqc")

CERTIFICATE_TOL = 1e-8
_AREA_EPS = 1e-12
_CLASS_TOL = 1e-9
_TWO_PI = 2.0 * math.pi

@dataclass(frozen=True)
class GateSpec:
    """Target rotation exp(i (gamma/2) n.sigma) with axis n given by polar
    angle theta and azimuth phi."""

    theta: float
    phi: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("theta", "phi", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"axis polar angle must lie in [0, pi], got {self.theta!r}")

    @classmethod
    def not_gate(cls) -> "GateSpec":
        return cls(theta=math.pi / 2, phi=0.0, gamma=math.pi)

    @classmethod
    def hadamard(cls) -> "GateSpec":
        return cls(theta=math.pi / 4, phi=0.0, gamma=math.pi)

    @classmethod
    def identity(cls) -> "GateSpec":
        return cls(theta=math.pi / 2, phi=0.0, gamma=0.0)

    @classmethod
    def x_rotation(cls, gamma: float) -> "GateSpec":
        return cls(theta=math.pi / 2, phi=0.0, gamma=gamma)

    @classmethod
    def z_rotation(cls, gamma: float) -> "GateSpec":
        return cls(theta=0.0, phi=0.0, gamma=gamma)


NAMED_GATES = {
    "not": GateSpec.not_gate(),
    "hadamard": GateSpec.hadamard(),
    "identity": GateSpec.identity(),
    "x90": GateSpec.x_rotation(math.pi / 2),
    "z90": GateSpec.z_rotation(math.pi / 2),
}


def target_unitary(spec: GateSpec) -> np.ndarray:
    """The 2x2 target exp(i (gamma/2) n.sigma)."""
    nx = math.sin(spec.theta) * math.cos(spec.phi)
    ny = math.sin(spec.theta) * math.sin(spec.phi)
    nz = math.cos(spec.theta)
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
    half = spec.gamma / 2.0
    return math.cos(half) * np.eye(2, dtype=complex) + 1j * math.sin(half) * n_sigma


@dataclass(frozen=True)
class PhaseJumpSolution:
    """The segment phases of a family's law and the residuals certifying them."""

    family: str
    phases: tuple[float, ...]
    residual_gate: float
    residual_src: float
    converged: bool


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}, expected one of {FAMILIES}")


def _dg_angle(spec: GateSpec) -> float:
    """The dg pulse area: gamma reduced to [0, 2*pi), with a full turn read as 0."""
    gamma = spec.gamma % _TWO_PI
    return 0.0 if gamma < _AREA_EPS or _TWO_PI - gamma < _AREA_EPS else gamma


def _family_layout(family: str, spec: GateSpec):
    """(segment areas, system, frame theta, frame phi)."""
    if family == "dg":
        angle = _dg_angle(spec)
        return ([angle] if angle else []), TWO_LEVEL, 0.0, 0.0
    if family == "ngqc":
        th = spec.theta
        return [math.pi - th, math.pi, th], TWO_LEVEL, th, 0.0
    if family == "sr-ngqc":
        return [math.pi] * 3, TWO_LEVEL, 0.0, 0.0
    # Lambda families: bright/dark mixing chosen so |b><b| - |d><d| equals the
    # requested axis n.sigma on the computational block.
    pulse_theta = math.pi - spec.theta
    pulse_phi = -spec.phi
    if family == "nhqc":
        return [math.pi] * 2, LAMBDA, pulse_theta, pulse_phi
    return [math.pi] * 4, LAMBDA, pulse_theta, pulse_phi


def assemble_schedule(family: str, spec: GateSpec, phases) -> PulseSchedule:
    """Build the family's schedule from one phase per segment (zero-area segments dropped)."""
    _check_family(family)
    areas, system, th, ph = _family_layout(family, spec)
    if len(phases) != len(areas):
        raise ValueError(f"{family} takes {len(areas)} segment phases, got {len(phases)}")
    segments = tuple(
        PulseSegment(duration=a, amplitude=1.0, phase=float(p))
        for a, p in zip(areas, phases)
        if a > _AREA_EPS
    )
    return PulseSchedule(system=system, segments=segments, theta=th, phi=ph)


def _wrap(phase: float) -> float:
    return (phase + math.pi) % _TWO_PI - math.pi


def _phase_law(family: str, spec: GateSpec) -> tuple[float, ...]:
    """The segment phases realizing spec (see the module docstring).

    Raises ConfigError for a dg axis off the equator and SolverError for an
    sr-ngqc target outside the equatorial pi-rotation class.
    """
    if family == "dg":
        if not _dg_angle(spec):
            return ()
        if abs(spec.theta - math.pi / 2) > _CLASS_TOL:
            raise ConfigError(
                "dg realizes only equatorial rotation axes with a resonant drive "
                f"(axis polar angle {spec.theta!r} needs detuning)"
            )
        return (math.pi - spec.phi,)
    if family == "ngqc":
        p = -spec.phi - math.pi / 2
        phases = (p, p + spec.gamma / 2, p)
    elif family == "nhqc":
        phases = (0.0, math.pi - spec.gamma)
    elif family == "sr-nhqc":
        delta = math.pi - spec.gamma / 2
        phases = (0.0, delta, 2 * delta - math.pi, 3 * delta - math.pi)
    else:
        if (abs(spec.theta - math.pi / 2) > _CLASS_TOL
                or abs(_wrap(spec.gamma - math.pi)) > _CLASS_TOL):
            raise SolverError(
                "sr-ngqc reaches only equatorial pi rotations (axis theta = pi/2, "
                f"gamma = pi mod 2*pi); got axis=(theta={spec.theta!r}, "
                f"phi={spec.phi!r}), gamma={spec.gamma!r}"
            )
        a = -spec.phi - 2 * math.pi / 3
        phases = (a, a + 4 * math.pi / 3, a)
    return tuple(_wrap(p) for p in phases)


def _certificate(
    family: str, spec: GateSpec
) -> tuple[PulseSchedule, PhaseJumpSolution, np.ndarray]:
    """(schedule, solution, U0): the family's schedule for spec, the solution
    certifying it and the schedule's ideal propagator, from one assembly, one
    propagation and one src_residual call (see solve_phase_jumps). The
    residuals are summed in Python complex arithmetic over the entries of U0
    and target_unitary. A failed certificate is reported, not raised."""
    _check_family(family)
    phases = _phase_law(family, spec)
    sched = assemble_schedule(family, spec, phases)
    u0 = schedule_propagator(sched)
    rows = u0.tolist()
    block = [*rows[0][:2], *rows[1][:2]]
    target = [z for row in target_unitary(spec).tolist() for z in row]
    tr = sum(t.conjugate() * z for t, z in zip(target, block))
    aligned = tr / abs(tr) if abs(tr) > 1e-12 else 1.0
    parts = [z - aligned * t for z, t in zip(block, target)]
    if sched.system == LAMBDA:
        parts += [*rows[2][:2], rows[0][2], rows[1][2]]
    gate_res = math.hypot(*(abs(z) for z in parts))
    src_res = abs(src_residual(sched))
    src_ok = src_res <= CERTIFICATE_TOL or family not in SR_FAMILIES
    return sched, PhaseJumpSolution(
        family=family, phases=phases, residual_gate=gate_res, residual_src=src_res,
        converged=gate_res <= CERTIFICATE_TOL and src_ok,
    ), u0


def _certified(
    family: str, spec: GateSpec
) -> tuple[PulseSchedule, PhaseJumpSolution, np.ndarray]:
    """_certificate, with SolverError if the certificate fails."""
    sched, sol, u0 = _certificate(family, spec)
    if not sol.converged:
        raise SolverError(
            f"{family} phase law failed its certificate for axis=(theta={spec.theta!r}, "
            f"phi={spec.phi!r}), gamma={spec.gamma!r}: residual_gate="
            f"{sol.residual_gate:.3e}, residual_src={sol.residual_src:.3e}"
        )
    return sched, sol, u0


def solve_phase_jumps(family: str, spec: GateSpec) -> PhaseJumpSolution:
    """The family's phase law for spec, certified by one propagation.

    residual_gate stacks the phase-aligned distance of the computational
    block to the target and, for Lambda systems, the leakage elements;
    residual_src is |closed-form SRC sum|. converged requires residual_gate
    (and, for the sr-* families, residual_src) within CERTIFICATE_TOL.
    """
    return _certificate(family, spec)[1]


def family_build(family: str, spec: GateSpec) -> PulseSchedule:
    """Solve and assemble by family name; SolverError if the certificate fails.

    The dg identity is an empty schedule.
    """
    return _certified(family, spec)[0]
