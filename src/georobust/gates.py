"""The five standard gate constructions and the phase-jump solver.

Families
--------
dg        dynamical gate: one resonant segment, duration = rotation angle.
ngqc      single-loop geometric gate on a two-level drive: the frame traverses
          an orange-slice loop through both poles; segment areas
          (pi - theta, pi, theta) with phases (p, q, p). Duration 2*pi.
sr-ngqc   super-robust variant: three pi-area segments anchored at a pole, so
          the per-segment SRC phasors (each of magnitude pi/2) can cancel.
          Duration 3*pi. Realizes the equatorial pi-rotation class.
nhqc      holonomic gate on a Lambda system: one 2*pi bright-state loop split
          into two pi segments. Duration 2*pi.
sr-nhqc   two consecutive 2*pi loops (four pi segments) with phases chosen so
          the four SRC phasors cancel pairwise. Duration 4*pi.

All segments run at unit amplitude, so durations equal areas.

The solver walks a deterministic seed grid (spacing pi/6 per free phase,
override with the GEOROBUST_SEED_GRID environment variable, e.g. "pi/4" or a
float in radians), runs a damped Gauss-Newton iteration on each seed in
lexicographic order, and returns the first seed that converges. The residual
stacks the phase-aligned distance to the target block, leakage elements for
Lambda systems, and (for the sr-* families) the real and imaginary parts of
the closed-form SRC sum.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, SolverError
from .pulses import LAMBDA, TWO_LEVEL, PulseSchedule, PulseSegment, schedule_propagator
from .robustness import dynamical_integrals, src_residual

FAMILIES = ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
SR_FAMILIES = ("sr-ngqc", "sr-nhqc")

DEFAULT_TOL = 1e-8
DEFAULT_SEED_SPACING = math.pi / 6
_AREA_EPS = 1e-12
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
    """Solver report: the segment phases and the residuals certifying them."""

    family: str
    phases: tuple[float, ...]
    residual_gate: float
    residual_src: float
    residual_dynamical: float
    converged: bool
    iterations: int
    seed: tuple[float, ...] | None


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}, expected one of {FAMILIES}")


def _family_layout(family: str, spec: GateSpec):
    """(areas, phase-variable index per segment, system, frame theta, frame phi)."""
    if family == "dg":
        return [_dg_angle(spec)], [0], TWO_LEVEL, 0.0, 0.0
    if family == "ngqc":
        th = spec.theta
        return [math.pi - th, math.pi, th], [0, 1, 0], TWO_LEVEL, th, 0.0
    if family == "sr-ngqc":
        return [math.pi] * 3, [0, 1, 2], TWO_LEVEL, 0.0, 0.0
    # Lambda families: bright/dark mixing chosen so |b><b| - |d><d| equals the
    # requested axis n.sigma on the computational block.
    pulse_theta = math.pi - spec.theta
    pulse_phi = -spec.phi
    if family == "nhqc":
        return [math.pi] * 2, [0, 1], LAMBDA, pulse_theta, pulse_phi
    return [math.pi] * 4, [0, 1, 2, 3], LAMBDA, pulse_theta, pulse_phi


def _n_vars(family: str) -> int:
    return {"dg": 1, "ngqc": 2, "sr-ngqc": 3, "nhqc": 2, "sr-nhqc": 4}[family]


def assemble_schedule(family: str, spec: GateSpec, phases) -> PulseSchedule:
    """Build the family's schedule for a given phase vector (zero-area segments dropped)."""
    _check_family(family)
    areas, idx, system, th, ph = _family_layout(family, spec)
    segments = tuple(
        PulseSegment(duration=a, amplitude=1.0, phase=float(phases[i]))
        for a, i in zip(areas, idx)
        if a > _AREA_EPS
    )
    return PulseSchedule(system=system, segments=segments, theta=th, phi=ph)


def _residual_vector(family: str, spec: GateSpec, phases, t2: np.ndarray) -> np.ndarray:
    sched = assemble_schedule(family, spec, phases)
    u = schedule_propagator(sched)
    block = u if sched.system == TWO_LEVEL else u[:2, :2]
    tr = np.trace(t2.conj().T @ block)
    chi = np.angle(tr) if abs(tr) > 1e-12 else 0.0
    diff = block - np.exp(1j * chi) * t2
    parts = [diff.real.ravel(), diff.imag.ravel()]
    if sched.system == LAMBDA:
        leak = np.concatenate([u[2, :2], u[:2, 2]])
        parts.extend([leak.real, leak.imag])
    if family in SR_FAMILIES:
        src = src_residual(sched)
        parts.append(np.array([src.real, src.imag]))
    return np.concatenate(parts)


def _solution_scalars(family: str, spec: GateSpec, phases) -> tuple[float, float, float]:
    """(residual_gate, residual_src, residual_dynamical) at a phase vector."""
    t2 = target_unitary(spec)
    vec = _residual_vector(family, spec, phases, t2)
    n_src = 2 if family in SR_FAMILIES else 0
    gate_res = float(np.linalg.norm(vec[: len(vec) - n_src]))
    sched = assemble_schedule(family, spec, phases)
    src_res = abs(src_residual(sched))
    dyn_res = float(np.max(np.abs(dynamical_integrals(sched))))
    return gate_res, src_res, dyn_res


def _gauss_newton(fun, x0: np.ndarray, tol: float, max_iter: int):
    """Damped Gauss-Newton with numerical Jacobian; returns (x, iterations, ok)."""
    x = np.array(x0, dtype=float)
    r = fun(x)
    h = 1e-6
    done = 0
    for it in range(1, max_iter + 1):
        if np.max(np.abs(r)) <= tol:
            break
        jac = np.empty((len(r), len(x)))
        for k in range(len(x)):
            bump = np.zeros_like(x)
            bump[k] = h
            jac[:, k] = (fun(x + bump) - fun(x - bump)) / (2.0 * h)
        try:
            dx = np.linalg.lstsq(jac, r, rcond=None)[0]
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        base = float(np.linalg.norm(r))
        for _ in range(12):
            x_try = x - lam * dx
            r_try = fun(x_try)
            if float(np.linalg.norm(r_try)) < base:
                x, r = x_try, r_try
                improved = True
                break
            lam /= 2.0
        if not improved:
            break
        done = it
        # deterministic early abandonment of hopeless seeds
        if it >= 4 and np.max(np.abs(r)) > 0.5:
            break
        if it >= 8 and np.max(np.abs(r)) > 1e-2:
            break
    return x, r, done, bool(np.max(np.abs(r)) <= tol)


def seed_spacing(override: float | None = None) -> float:
    """Seed-grid spacing: explicit override, else GEOROBUST_SEED_GRID, else pi/6."""
    if override is not None:
        value = float(override)
    else:
        raw = os.environ.get("GEOROBUST_SEED_GRID")
        if raw is None:
            return DEFAULT_SEED_SPACING
        raw = raw.strip().lower()
        try:
            value = math.pi / float(raw[3:]) if raw.startswith("pi/") else float(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad GEOROBUST_SEED_GRID value {raw!r}: {exc}") from exc
    if not 0.0 < value <= _TWO_PI:
        raise ConfigError(f"seed spacing must lie in (0, 2*pi], got {value!r}")
    return value


def _dg_angle(spec: GateSpec) -> float:
    """The dg pulse area: gamma reduced to [0, 2*pi), with a full turn read as 0."""
    gamma = spec.gamma % _TWO_PI
    return 0.0 if _TWO_PI - gamma < 1e-12 else gamma


def _dg_solution(spec: GateSpec, tol: float) -> PhaseJumpSolution:
    if _dg_angle(spec) < 1e-12:
        return PhaseJumpSolution(
            family="dg", phases=(), residual_gate=0.0, residual_src=0.0,
            residual_dynamical=0.0, converged=True, iterations=0, seed=None,
        )
    if abs(spec.theta - math.pi / 2) > 1e-9:
        raise ConfigError(
            "dg realizes only equatorial rotation axes with a resonant drive "
            f"(axis polar angle {spec.theta!r} needs detuning)"
        )
    phase = math.pi - spec.phi
    gate_res, src_res, dyn_res = _solution_scalars("dg", spec, [phase])
    return PhaseJumpSolution(
        family="dg", phases=(phase,), residual_gate=gate_res, residual_src=src_res,
        residual_dynamical=dyn_res, converged=gate_res <= tol, iterations=0, seed=None,
    )


def solve_phase_jumps(
    family: str,
    spec: GateSpec,
    seed_grid: float | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = 60,
) -> PhaseJumpSolution:
    """Solve for the segment phases realizing spec within the family's layout.

    Deterministic: the seed grid is fixed, seeds are visited in lexicographic
    order, and the first converged seed wins. The returned solution carries
    converged=False (with the best residuals found) when no seed converges;
    build_schedule() turns that into a SolverError.
    """
    _check_family(family)
    if family == "dg":
        return _dg_solution(spec, tol)
    spacing = seed_spacing(seed_grid)
    return _solve_grid(family, spec, spacing, tol, max_iter)


@lru_cache(maxsize=None)
def _solve_grid(family: str, spec: GateSpec, spacing: float, tol: float, max_iter: int) -> PhaseJumpSolution:
    t2 = target_unitary(spec)
    fun = lambda x: _residual_vector(family, spec, x, t2)  # noqa: E731
    n = _n_vars(family)
    values = np.arange(0.0, _TWO_PI - 1e-12, spacing)
    inner_tol = tol / 10.0
    best = None  # (score, x, iters, seed) for the non-converged report
    for seed in itertools.product(values, repeat=n):
        x, r, iters, ok = _gauss_newton(fun, np.array(seed), inner_tol, max_iter)
        if ok:
            # wrapping into [-pi, pi) is exactly gate-preserving (phases only
            # enter through e^{i phi}) and avoids precision loss from large args
            x = (x + math.pi) % _TWO_PI - math.pi
            gate_res, src_res, dyn_res = _solution_scalars(family, spec, x)
            src_ok = src_res <= tol if family in SR_FAMILIES else True
            if gate_res <= tol and src_ok and dyn_res <= max(tol, 1e-8):
                return PhaseJumpSolution(
                    family=family, phases=tuple(float(v) for v in x),
                    residual_gate=gate_res, residual_src=src_res,
                    residual_dynamical=dyn_res, converged=True,
                    iterations=iters, seed=tuple(float(v) for v in seed),
                )
        score = float(np.linalg.norm(r))
        if best is None or score < best[0]:
            best = (score, x, iters, tuple(float(v) for v in seed))
    assert best is not None
    _, x, iters, seed = best
    gate_res, src_res, dyn_res = _solution_scalars(family, spec, x)
    return PhaseJumpSolution(
        family=family, phases=tuple(float(v) for v in x),
        residual_gate=gate_res, residual_src=src_res, residual_dynamical=dyn_res,
        converged=False, iterations=iters, seed=seed,
    )


def build_schedule(family: str, spec: GateSpec, seed_grid: float | None = None) -> PulseSchedule:
    """Solve and assemble; raises SolverError when the solver does not converge."""
    sol = solve_phase_jumps(family, spec, seed_grid=seed_grid)
    if not sol.converged:
        raise SolverError(
            f"{family} solver did not converge for axis=(theta={spec.theta!r}, "
            f"phi={spec.phi!r}), gamma={spec.gamma!r}: best residual_gate="
            f"{sol.residual_gate:.3e}, residual_src={sol.residual_src:.3e}"
        )
    return assemble_schedule(family, spec, sol.phases)


def family_build(family: str, spec: GateSpec) -> PulseSchedule:
    """Solve and assemble by family name (the CLI entry point).

    The dg identity is an empty schedule: its single segment has zero area
    and is dropped before its phase is read.
    """
    return build_schedule(family, spec)
