"""Reference implementations the tests compare the package against.

The package evaluates every global-Rabi quantity exactly, from closed-form
segment exponentials. The references here integrate the same quantities
directly in time instead: a midpoint-sampled propagator on segment-aligned
grids, trapezoid quadrature along the propagated trajectory, and the
frame-sampled dynamical-phase quadrature. They share no code path with the
exact segment sums they check. The unitarity check the integrator applies
lives here too, since only the references use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from georobust import (
    InvariantError,
    auxiliary_basis,
    auxiliary_frame,
    mat_exp_hermitian,
    segment_hamiltonian,
)

UNITARY_TOL = 1e-9


def check_unitary(op: np.ndarray, tol: float = UNITARY_TOL, name: str = "operator") -> None:
    """Raise InvariantError unless op^dag op = 1 within tol (max entrywise deviation)."""
    op = np.asarray(op)
    eye = np.eye(op.shape[0])
    dev = float(np.max(np.abs(op.conj().T @ op - eye)))
    if not np.isfinite(dev) or dev > tol:
        raise InvariantError(
            f"{name} is not unitary: max |U^dag U - 1| = {dev:.3e} exceeds tol {tol:.1e}"
        )


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of `steps` integration steps on [t_start, t_end]."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self) -> None:
        if int(self.steps) != self.steps or self.steps < 1:
            raise ValueError(f"steps must be a positive integer, got {self.steps!r}")
        if not self.t_end > self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start!r}, {self.t_end!r}]"
            )

    @property
    def step(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    @property
    def times(self) -> np.ndarray:
        """The steps + 1 grid points, endpoints included."""
        return np.linspace(self.t_start, self.t_end, self.steps + 1)


def _sample(hamiltonian, t: float) -> np.ndarray:
    ham = np.asarray(hamiltonian(t), dtype=complex)
    if ham.ndim != 2 or ham.shape[0] != ham.shape[1]:
        raise ValueError(f"Hamiltonian at t={t!r} is not square: shape {ham.shape}")
    if not np.all(np.isfinite(ham)):
        raise ValueError(f"Hamiltonian at t={t!r} contains NaN or Inf")
    return ham


def propagate_unitary(hamiltonian, grid: TimeGrid, return_trajectory: bool = False):
    """Time-ordered propagator U(t_end, t_start) for H(t) = hamiltonian(t).

    Each step multiplies on the left by exp(-1j * H(t_mid) * dt) with t_mid the
    step midpoint. With return_trajectory=True, returns (times, traj) where
    traj[k] is U(times[k], t_start), traj[0] = identity.
    """
    dt = grid.step
    times = grid.times
    ham0 = _sample(hamiltonian, times[0] + dt / 2.0)
    dim = ham0.shape[0]
    u = np.eye(dim, dtype=complex)
    traj = [u] if return_trajectory else None
    for k in range(grid.steps):
        ham = ham0 if k == 0 else _sample(hamiltonian, times[k] + dt / 2.0)
        u = mat_exp_hermitian(ham, dt) @ u
        if return_trajectory:
            traj.append(u)
    check_unitary(u, UNITARY_TOL, name="propagator")
    if return_trajectory:
        return times, np.array(traj)
    return u


def propagate_state(hamiltonian, grid: TimeGrid, psi0: np.ndarray):
    """Integrate a state through H(t); returns (times, traj) with traj[0] = psi0.

    Uses the same midpoint-sampled step exponentials as propagate_unitary, so
    traj[-1] agrees with propagate_unitary(...) @ psi0 to machine precision.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    dt = grid.step
    times = grid.times
    traj = [psi.copy()]
    for k in range(grid.steps):
        ham = _sample(hamiltonian, times[k] + dt / 2.0)
        psi = mat_exp_hermitian(ham, dt) @ psi
        traj.append(psi.copy())
    norm = float(np.linalg.norm(traj[-1]))
    if abs(norm - np.linalg.norm(psi0)) > UNITARY_TOL:
        raise InvariantError(f"state norm drifted to {norm!r} during propagation")
    return times, np.array(traj)


def hamiltonian(schedule, t: float) -> np.ndarray:
    """Drive Hamiltonian at time t; a boundary belongs to the later segment."""
    return segment_hamiltonian(schedule, schedule.segments[schedule.segment_index(t)])


def segment_grids(schedule, steps_per_pi: int) -> list[TimeGrid]:
    """One grid per segment, ceil(steps_per_pi * duration / pi) steps each."""
    bounds = schedule.boundaries()
    return [
        TimeGrid(float(bounds[j]), float(bounds[j + 1]),
                 max(1, math.ceil(steps_per_pi * seg.duration / math.pi)))
        for j, seg in enumerate(schedule.segments)
    ]


def integrate_schedule(schedule, steps_per_pi: int) -> np.ndarray:
    """Propagator by direct time-ordered integration, segment-aligned grids."""
    u = np.eye(schedule.dim, dtype=complex)
    for grid in segment_grids(schedule, steps_per_pi):
        u = propagate_unitary(lambda t: hamiltonian(schedule, t), grid) @ u
    return u


def trapezoid_error_integrals(schedule, v=None, steps_per_pi: int = 2000):
    """(D in the frame basis, D_op, G_op) by trapezoid quadrature.

    V_H(t) = U^dag(t) V(t) U(t) is sampled on segment-aligned grids along the
    midpoint-integrated trajectory; v=None is the global Rabi error, V = H of
    the segment being integrated. D_op accumulates the trapezoid rule, and
    G_op = integral [V_H, D(t)] dt + D_op^2 uses the cumulative trapezoid D(t).
    """
    dim = schedule.dim
    u = np.eye(dim, dtype=complex)
    d_cum = np.zeros((dim, dim), dtype=complex)
    g_comm = np.zeros((dim, dim), dtype=complex)
    for seg, grid in zip(schedule.segments, segment_grids(schedule, steps_per_pi)):
        ham = segment_hamiltonian(schedule, seg)
        times, traj = propagate_unitary(lambda t: ham, grid, return_trajectory=True)
        traj = traj @ u
        u = traj[-1]
        v_t = np.array([ham if v is None else np.asarray(v(t), dtype=complex) for t in times])
        v_h = np.einsum("tji,tjk,tkm->tim", traj.conj(), v_t, traj)
        dt = grid.step
        incr = 0.5 * dt * (v_h[1:] + v_h[:-1])
        d_t = np.concatenate([[d_cum], d_cum + np.cumsum(incr, axis=0)])
        comm = v_h @ d_t - d_t @ v_h
        g_comm += dt * (comm.sum(axis=0) - 0.5 * (comm[0] + comm[-1]))
        d_cum = d_t[-1]
    if schedule.segments:
        frame0 = auxiliary_frame(schedule, 0.0)
        d_frame = frame0.conj().T @ d_cum @ frame0
    else:
        d_frame = d_cum
    return d_frame, d_cum, g_comm + d_cum @ d_cum


def two_trajectory_d_matrix(schedule, v, steps_per_pi: int = 2000) -> np.ndarray:
    """The custom-V D matrix checked on a second, coarse trajectory.

    The result is the trapezoid integral at steps_per_pi; the integral is
    repeated from a fresh trajectory at max(50, steps_per_pi // 2) and the two
    must agree within 1e-5 of the result's norm.
    """
    fine = trapezoid_error_integrals(schedule, v, steps_per_pi)[0]
    coarse = trapezoid_error_integrals(schedule, v, max(50, steps_per_pi // 2))[0]
    scale = max(1.0, float(np.linalg.norm(fine)))
    dev = float(np.linalg.norm(fine - coarse))
    if dev > 1e-5 * scale:
        raise InvariantError(f"reference grid not converged: {dev:.3e}")
    return fine


def sampled_dynamical_integrals(schedule, samples_per_segment: int = 64) -> np.ndarray:
    """Trapezoid integrals of <zeta_k(t)| H |zeta_k(t)> over the analytic frames."""
    basis = auxiliary_basis(schedule, samples_per_segment)
    totals = np.zeros(schedule.dim, dtype=complex)
    for j, seg in enumerate(schedule.segments):
        rows = slice(j * samples_per_segment, (j + 1) * samples_per_segment)
        frames, ts = basis.frames[rows], basis.times[rows]
        ham = segment_hamiltonian(schedule, seg)
        vals = np.einsum("tik,ij,tjk->tk", frames.conj(), ham, frames)
        dt = ts[1] - ts[0]
        totals += dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))
    return totals
