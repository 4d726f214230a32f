"""Reference implementations the tests compare the package against.

The package evaluates every global-Rabi quantity exactly, from closed-form
segment exponentials, and every open-system channel as one Liouvillian
exponential per segment. The references here compute the same quantities
another way. A midpoint-sampled propagator on segment-aligned grids, built
from the eigendecomposition exponential, integrates the schedule directly in
time, and trapezoid quadrature over the column-by-column co-moving frames
gives the dynamical phases. For the global Rabi error or any V that is
constant on each segment, the Dyson terms are blocks of one block-triangular
exponential per segment, taken by scipy (Van Loan, IEEE Trans. Autom.
Control 23, 395 (1978)). The package integrates a custom V(t) by a
Clenshaw-Curtis rule on closed-form trajectories; its reference is
Gauss-Legendre quadrature on a trajectory stepped from node to node by
eigendecomposition exponentials, nested for the cumulative integral inside
the Magnus commutator term. The Kronecker-product Liouvillian gives tests a
second, independently assembled generator for scipy's exponential. These
references share no code path with the exact segment sums and channels they
check. The scalar segment propagator and co-moving frame are also written out
here, one matrix at a time with Python floats, as bit references for the
package's broadcasting rotation kernel; so is the per-segment channel
construction (per-beta segment_hamiltonian, one lindblad_rhs and one _expm
call per segment), as the bit reference for the stack of every segment's
channels. The certificate's residuals and the open-system scores are also
kept here in the numpy form the package used before it summed the residuals
in Python arithmetic and scored a block of betas at once. The Hermitian and
unitarity checks the integrator applies live here too, since only the
references use them, and so does the list of reachable (family, gate) pairs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from georobust import (
    FAMILIES,
    NAMED_GATES,
    InvariantError,
    bright_dark,
    cardinal_states,
    frame_anchor,
    lindblad_rhs,
    segment_hamiltonian,
)
from georobust.lindblad import _expm
from georobust.robustness import SRC_ALIGNMENT_TOL

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-9

# every (family, gate) pair the family can reach: one resonant dg segment
# needs an equatorial axis (or no rotation at all), and three equatorial pi
# rotations (sr-ngqc) compose to an equatorial pi rotation, so NOT only
FEASIBLE_PAIRS = [
    (family, gate) for family in FAMILIES for gate in sorted(NAMED_GATES)
    if not (family == "dg" and gate in ("hadamard", "z90"))
    and not (family == "sr-ngqc" and gate != "not")
]


def check_hermitian(op: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> None:
    """Raise InvariantError unless op equals its conjugate transpose within tol.

    The error message carries the maximum deviation so failures are diagnosable.
    """
    op = np.asarray(op)
    dev = float(np.max(np.abs(op - op.conj().T)))
    if not np.isfinite(dev) or dev > tol:
        raise InvariantError(
            f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} exceeds tol {tol:.1e}"
        )


def mat_exp_hermitian(ham: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Return exp(-1j * scale * ham) for a Hermitian matrix, via eigendecomposition."""
    ham = np.asarray(ham, dtype=complex)
    check_hermitian(ham, name="mat_exp_hermitian argument")
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T


def check_unitary(op: np.ndarray, tol: float = UNITARY_TOL, name: str = "operator") -> None:
    """Raise InvariantError unless op^dag op = 1 within tol (max entrywise deviation)."""
    op = np.asarray(op)
    eye = np.eye(op.shape[0])
    dev = float(np.max(np.abs(op.conj().T @ op - eye)))
    if not np.isfinite(dev) or dev > tol:
        raise InvariantError(
            f"{name} is not unitary: max |U^dag U - 1| = {dev:.3e} exceeds tol {tol:.1e}"
        )


def reference_segment_propagator(schedule, seg, scale: float = 1.0) -> np.ndarray:
    """exp(-1j * H_seg * duration) with the amplitude scaled, as cos/sin of half
    the scaled area; on Lambda the rotation is basis @ block @ basis^dag in the
    (dark, bright, e) basis."""
    half = 0.5 * scale * seg.area
    c, s = math.cos(half), math.sin(half)
    ph = np.exp(1j * seg.phase)
    if schedule.system == "two":
        return np.array([[c, -1j * s * ph], [-1j * s / ph, c]], dtype=complex)
    bright, dark = bright_dark(schedule.theta, schedule.phi)
    exc = np.array([0.0, 0.0, 1.0], dtype=complex)
    basis = np.column_stack([dark, bright, exc])
    block = np.array(
        [[1.0, 0.0, 0.0], [0.0, c, -1j * s / ph], [0.0, -1j * s * ph, c]], dtype=complex
    )
    return basis @ block @ basis.conj().T


def reference_frame(schedule, seg_index: int, t: float) -> np.ndarray:
    """The co-moving frame at time t on segment seg_index (the conventions of
    the robustness module docstring), built column by column."""
    seg = schedule.segments[seg_index]
    bounds = schedule.boundaries()
    area = sum(s.area for s in schedule.segments[:seg_index])
    alpha = frame_anchor(schedule) + area + (t - bounds[seg_index]) * seg.amplitude
    half = alpha / 2.0
    c, s = math.cos(half), math.sin(half)
    ph = np.exp(1j * seg.phase)
    if schedule.system == "two":
        return np.array([[c, -1j * s * ph], [-1j * s / ph, c]], dtype=complex)
    bright, dark = bright_dark(schedule.theta, schedule.phi)
    exc = np.array([0.0, 0.0, 1.0], dtype=complex)
    mu2 = c * bright - 1j * s * ph * exc
    mu3 = -1j * s / ph * bright + c * exc
    return np.column_stack([dark, mu2, mu3])


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


def propagate_unitary(hamiltonian, grid: TimeGrid) -> np.ndarray:
    """Time-ordered propagator U(t_end, t_start) for H(t) = hamiltonian(t).

    Each step multiplies on the left by exp(-1j * H(t_mid) * dt) with t_mid the
    step midpoint.
    """
    dt = grid.step
    times = grid.times
    ham0 = _sample(hamiltonian, times[0] + dt / 2.0)
    u = np.eye(ham0.shape[0], dtype=complex)
    for k in range(grid.steps):
        ham = ham0 if k == 0 else _sample(hamiltonian, times[k] + dt / 2.0)
        u = mat_exp_hermitian(ham, dt) @ u
    check_unitary(u, UNITARY_TOL, name="propagator")
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
    """Drive Hamiltonian at time t in [0, duration]; a boundary belongs to the
    later segment, and the end to the last one."""
    j = int(np.searchsorted(schedule.boundaries(), t, side="right")) - 1
    return segment_hamiltonian(schedule, schedule.segments[min(j, len(schedule.segments) - 1)])


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


def _gl_interaction(schedule, seg, t0: float, u: np.ndarray, v, offsets: np.ndarray) -> np.ndarray:
    """U^dag V U at the increasing times t0 + offsets on one segment. U steps
    from node to node by products of eigendecomposition exponentials of the
    segment Hamiltonian, starting from u at t0."""
    ham = segment_hamiltonian(schedule, seg)
    check_hermitian(ham, name="segment Hamiltonian")
    w, vecs = np.linalg.eigh(ham)
    steps = np.diff(offsets, prepend=0.0)
    step_props = (vecs * np.exp(-1j * np.multiply.outer(steps, w))[:, None, :]) @ vecs.conj().T
    props = np.empty_like(step_props)
    for k, step in enumerate(step_props):
        u = step @ u
        props[k] = u
    v_t = np.array([np.asarray(v(t0 + s), dtype=complex) for s in offsets])
    return np.einsum("tji,tjk,tkm->tim", props.conj(), v_t, props)


def gauss_legendre_error_integrals(schedule, v, nodes: int = 40):
    """(D in the frame basis, D_op, G_op) for a custom V(t) by Gauss-Legendre
    quadrature on each segment.

    V_H(t) = U^dag(t) V(t) U(t) uses a trajectory stepped through the nodes
    (see _gl_interaction), not the package's closed form. D(t) at every outer
    node is a Gauss-Legendre integral of the same order over the
    segment up to that node, added to the earlier segments' total, and
    G_op = integral [V_H, D(t)] dt + D_op^2 is the outer rule applied to the
    commutator.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    dim = schedule.dim
    bounds = schedule.boundaries()
    u = np.eye(dim, dtype=complex)
    d_cum = np.zeros((dim, dim), dtype=complex)
    g_comm = np.zeros((dim, dim), dtype=complex)
    for j, seg in enumerate(schedule.segments):
        sample = functools.partial(_gl_interaction, schedule, seg, float(bounds[j]), u, v)
        outer = 0.5 * seg.duration * (x + 1.0)
        v_h = sample(outer)
        d_t = np.array([
            d_cum + 0.5 * s * np.einsum("t,tij->ij", w, sample(0.5 * s * (x + 1.0)))
            for s in outer
        ])
        g_comm += 0.5 * seg.duration * np.einsum("t,tij->ij", w, v_h @ d_t - d_t @ v_h)
        d_cum = d_cum + 0.5 * seg.duration * np.einsum("t,tij->ij", w, v_h)
        u = mat_exp_hermitian(segment_hamiltonian(schedule, seg), seg.duration) @ u
    if schedule.segments:
        frame0 = reference_frame(schedule, 0, 0.0)
        d_frame = frame0.conj().T @ d_cum @ frame0
    else:
        d_frame = d_cum
    return d_frame, d_cum, g_comm + d_cum @ d_cum


def dyson_error_operators(schedule, v=None):
    """(D_op, G_op) of magnus_terms from exact exponentials, for V = H
    (v=None, the global Rabi error) or a static matrix v.

    With A = -i H_j and B = -i V_j on segment j,
    M_j = expm(tau_j [[A, B, 0], [0, A, B], [0, 0, A]]) carries U_j on its
    diagonal and the first- and second-order Dyson integrals in blocks (1, 2)
    and (1, 3). The product of the M_j keeps that form, and
    U'(tau) = U (1 - i beta D_op - (beta^2 / 2) G_op) + O(beta^3) reads off
    D_op = i U^dag M_12 and G_op = -2 U^dag M_13.
    """
    dim = schedule.dim
    total = np.eye(3 * dim, dtype=complex)
    for seg in schedule.segments:
        ham = segment_hamiltonian(schedule, seg)
        a = -1j * ham
        b = -1j * (ham if v is None else np.asarray(v, dtype=complex))
        zero = np.zeros_like(a)
        gen = np.block([[a, b, zero], [zero, a, b], [zero, zero, a]])
        total = scipy.linalg.expm(seg.duration * gen) @ total
    u_dag = total[:dim, :dim].conj().T
    return 1j * u_dag @ total[:dim, dim:2 * dim], -2.0 * u_dag @ total[:dim, 2 * dim:]


def sampled_frames(schedule, samples_per_segment: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """(times, frames): reference_frame at samples_per_segment evenly spaced
    times on each segment, its ends included. A segment's last sample is its
    own end, so at an interior boundary both segments' frames appear."""
    bounds = schedule.boundaries()
    times = np.concatenate([
        np.linspace(t0, t1, samples_per_segment) for t0, t1 in zip(bounds, bounds[1:])
    ])
    frames = [
        reference_frame(schedule, k // samples_per_segment, t) for k, t in enumerate(times)
    ]
    return times, np.array(frames)


def sampled_dynamical_integrals(schedule, samples_per_segment: int = 64) -> np.ndarray:
    """Trapezoid integrals of <zeta_k(t)| H |zeta_k(t)> over the analytic frames."""
    times, frames = sampled_frames(schedule, samples_per_segment)
    totals = np.zeros(schedule.dim, dtype=complex)
    for j, seg in enumerate(schedule.segments):
        rows = slice(j * samples_per_segment, (j + 1) * samples_per_segment)
        ham = segment_hamiltonian(schedule, seg)
        vals = np.einsum("tik,ij,tjk->tk", frames[rows].conj(), ham, frames[rows])
        dt = times[rows][1] - times[rows][0]
        totals += dt * (vals.sum(axis=0) - 0.5 * (vals[0] + vals[-1]))
    return totals


def segment_channels(schedule, channels, betas) -> np.ndarray:
    """Every segment's exact channels, one per beta, built segment by segment
    as a (segments, len(betas), d^2, d^2) stack: per-beta segment_hamiltonian
    calls, then one lindblad_rhs and one _expm call per segment. This is the
    package's construction before it stacked all segments; the stacked one
    must keep its bits."""
    d = schedule.dim
    n = d * d
    units = np.eye(n, dtype=complex).reshape(n, d, d)
    out = np.empty((len(schedule.segments), len(betas), n, n), dtype=complex)
    for j, seg in enumerate(schedule.segments):
        hams = np.array([segment_hamiltonian(schedule, seg, scale=1.0 + b) for b in betas])
        gen = lindblad_rhs(units, hams[:, None], channels).reshape(len(hams), n, n)
        out[j] = _expm(seg.duration * gen)
    return out


def kron_liouvillian(ham, channels=()) -> np.ndarray:
    """The master-equation generator acting on row-major vec(rho) column vectors,
    assembled from Kronecker products: vec(A X B) = (A kron B^T) vec(X)."""
    ham = np.asarray(ham, dtype=complex)
    eye = np.eye(ham.shape[0])
    gen = -1j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for ch in channels:
        op = ch.operator
        opdop = op.conj().T @ op
        gen = gen + ch.rate * (np.kron(op, op.conj()) - 0.5 * np.kron(opdop, eye)
                               - 0.5 * np.kron(eye, opdop.T))
    return gen


def numpy_src_phasors(schedule) -> np.ndarray:
    """src_phasors with the pole parities and phasor angles as numpy arrays:
    alpha = anchor + cumsum(areas) at the interior boundaries, rounded to
    multiples of pi. ValueError off the poles."""
    if not schedule.segments:
        return np.zeros(0, dtype=complex)
    areas = np.array([s.area for s in schedule.segments])
    m = (frame_anchor(schedule) + np.cumsum(areas)[:-1]) / math.pi
    if np.any(np.abs(m - np.round(m)) > SRC_ALIGNMENT_TOL):
        raise ValueError("phase jumps are not aligned with frame poles")
    parities = np.round(m).astype(int)
    sign = 1.0 if schedule.system == "two" else -1.0
    eff = sign * np.array([s.phase for s in schedule.segments])
    theta_ph = np.empty(len(eff))
    theta_ph[0] = eff[0]
    for j in range(1, len(eff)):
        flip = -1.0 if parities[j - 1] % 2 else 1.0
        theta_ph[j] = theta_ph[j - 1] + flip * (eff[j] - eff[j - 1])
    return 0.5 * areas * np.exp(1j * theta_ph)


def numpy_gate_residual(u: np.ndarray, target: np.ndarray) -> float:
    """The certificate's residual_gate by numpy: the distance of the
    computational block of u to the 2x2 target after aligning its global
    phase by the angle of the trace overlap, stacked with the leakage
    elements of a 3x3 u."""
    block = u[:2, :2]
    tr = np.trace(target.conj().T @ block)
    chi = np.angle(tr) if abs(tr) > 1e-12 else 0.0
    parts = [(block - np.exp(1j * chi) * target).ravel()]
    if u.shape[0] == 3:
        parts.extend([u[2, :2], u[:2, 2]])
    return float(np.linalg.norm(np.concatenate(parts)))


def open_scores_per_beta(u0: np.ndarray, rho_stack: np.ndarray) -> list[tuple[float, float]]:
    """(average fidelity, average leakage) of each beta's six final cardinal
    states in rho_stack (betas, 6, d, d), scored one beta at a time against
    the targets u0 |psi_k>."""
    dim = u0.shape[0]
    targets = cardinal_states(dim) @ u0.T
    out = []
    for rho_tau in rho_stack:
        fid = np.einsum("ki,kij,kj->k", targets.conj(), rho_tau, targets).real
        pops = np.einsum("kii->ki", rho_tau).real
        leak = pops[:, 2:].sum(axis=1) if dim > 2 else np.zeros(len(targets))
        out.append((float(fid.mean()), float(leak.mean())))
    return out
