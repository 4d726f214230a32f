"""Open-system propagation: the Lindblad master equation

    drho/dt = -i [H(t), rho]
              + sum_c rate_c (L_c rho L_c^dag - (1/2){L_c^dag L_c, rho}),

solved exactly. H is constant within each segment, so each segment is one
channel exp(duration * G), with the constant d^2 x d^2 generator G built by
applying lindblad_rhs to the matrix units. A density matrix flattened
row-major (Havel, J. Math. Phys. 44, 534 (2003)) is a row vector v, mapped to
v @ exp(duration * G).

A propagation is one stack: the generators of every segment at every
requested error beta are built by one lindblad_rhs call, so the dissipator is
built once, and exponentiated by one _expm call. The segments are then applied
in order, and the input and every segment's states over all betas are checked
with one check_density call. Each member of the stack keeps its own scaling,
so a batched result has the same bits as the one-beta case; propagate_density
and open_gate_metrics are that case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError
from .pulses import LAMBDA, TWO_LEVEL, PulseSchedule, _drive, schedule_propagator

DENSITY_HERMITIAN_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-9
DENSITY_EIG_FLOOR = -1e-8


@dataclass(frozen=True)
class CollapseChannel:
    """One Lindblad channel: a collapse operator and its nonnegative rate."""

    rate: float
    operator: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate) or self.rate < 0:
            raise ValueError(f"channel rate must be finite and >= 0, got {self.rate!r}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"collapse operator must be square, got shape {op.shape}")
        if not np.all(np.isfinite(op)):
            raise ValueError("collapse operator contains NaN or Inf")
        object.__setattr__(self, "operator", op)


def standard_channels(system: str, gamma1: float, gamma2: float) -> tuple[CollapseChannel, ...]:
    """Relaxation (gamma1) and dephasing (gamma2) channels for either system.

    Two-level: |0><1| at gamma1 and |1><1| at gamma2. Lambda: the excited
    state decays into |0> and |1> at gamma1/2 each, and |e><e| dephases at
    gamma2; the computational subspace itself is decoherence-free.
    """
    if system == TWO_LEVEL:
        lower = np.zeros((2, 2), dtype=complex)
        lower[0, 1] = 1.0
        proj1 = np.zeros((2, 2), dtype=complex)
        proj1[1, 1] = 1.0
        return (CollapseChannel(gamma1, lower), CollapseChannel(gamma2, proj1))
    if system == LAMBDA:
        dec0 = np.zeros((3, 3), dtype=complex)
        dec0[0, 2] = 1.0
        dec1 = np.zeros((3, 3), dtype=complex)
        dec1[1, 2] = 1.0
        proj_e = np.zeros((3, 3), dtype=complex)
        proj_e[2, 2] = 1.0
        return (
            CollapseChannel(gamma1 / 2.0, dec0),
            CollapseChannel(gamma1 / 2.0, dec1),
            CollapseChannel(gamma2, proj_e),
        )
    raise ValueError(f"unknown system {system!r}")


def check_density(rho: np.ndarray, name: str = "density matrix") -> None:
    """Hermiticity, unit trace, and positivity checks with diagnostic messages.

    rho is one (d, d) matrix or a (k, d, d) stack, checked with one batched
    eigvalsh; for a stack the message names the index of the first failing
    state.
    """
    rho = np.asarray(rho)
    if rho.ndim not in (2, 3) or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a (d, d) matrix or a (k, d, d) stack, got shape {rho.shape}")
    stack = rho.reshape(-1, *rho.shape[-2:])
    adj = stack.conj().transpose(0, 2, 1)

    def first(bad: np.ndarray) -> tuple[int, str]:
        i = int(np.argmax(bad))
        return i, name if rho.ndim == 2 else f"{name} (state {i})"

    herm = np.abs(stack - adj).max(axis=(1, 2))
    bad = ~(herm <= DENSITY_HERMITIAN_TOL)  # a NaN or Inf entry fails here
    if bad.any():
        i, label = first(bad)
        raise InvariantError(
            f"{label} not Hermitian: max deviation {herm[i]:.3e} "
            f"exceeds {DENSITY_HERMITIAN_TOL:.1e}"
        )
    tr_dev = np.abs(np.trace(stack, axis1=1, axis2=2).real - 1.0)
    bad = tr_dev > DENSITY_TRACE_TOL
    if bad.any():
        i, label = first(bad)
        raise InvariantError(
            f"{label} trace deviates from 1 by {tr_dev[i]:.3e} (tol {DENSITY_TRACE_TOL:.1e})"
        )
    eig_min = np.linalg.eigvalsh(0.5 * (stack + adj)).min(axis=1)
    bad = eig_min < DENSITY_EIG_FLOOR
    if bad.any():
        i, label = first(bad)
        raise InvariantError(
            f"{label} has negative eigenvalue {eig_min[i]:.3e} below floor {DENSITY_EIG_FLOOR:.1e}"
        )


def lindblad_rhs(rho: np.ndarray, ham: np.ndarray, channels=()) -> np.ndarray:
    """Right-hand side of the master equation. rho may be a (..., d, d) stack and
    ham a (..., d, d) stack of Hamiltonians; the two broadcast against each other."""
    rho = np.asarray(rho, dtype=complex)
    ham = np.asarray(ham, dtype=complex)
    d = ham.shape[-1]
    if rho.shape[-2:] != (d, d) or ham.shape[-2] != d:
        raise ValueError(f"dimension mismatch: rho block {rho.shape[-2:]}, H {ham.shape}")
    out = -1j * (ham @ rho - rho @ ham)
    for ch in channels:
        op = ch.operator
        if op.shape != (d, d):
            raise ValueError(f"channel operator shape {op.shape} does not match H {ham.shape[-2:]}")
        opd = op.conj().T
        opdop = opd @ op
        out = out + ch.rate * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def _expm(mats: np.ndarray) -> np.ndarray:
    """exp of each matrix of an (..., n, n) stack by Taylor scaling and squaring
    (Moler & Van Loan, SIAM Rev. 45, 3, 2003): each member is scaled to 1-norm
    <= 1/2 with its own squaring count, and 18 terms leave a remainder below
    1e-22 of the norm. A member's bits do not depend on the rest of the stack."""
    norms = np.abs(mats).sum(axis=-2).max(axis=-1)
    counts = [
        math.ceil(math.log2(x) + 1.0) if 0.5 < x < math.inf else 0 for x in norms.ravel().tolist()
    ]
    squarings = np.array(counts).reshape(norms.shape + (1, 1))
    scaled = mats * 0.5**squarings
    out = term = np.eye(mats.shape[-1], dtype=complex)
    for k in range(1, 19):
        term = term @ scaled / k
        out = out + term
    for i in range(max(counts, default=0)):
        # members that need fewer squarings keep their value
        out = out @ out if i < min(counts) else np.where(squarings > i, out @ out, out)
    return out


def _segment_channels(schedule: PulseSchedule, channels, betas) -> np.ndarray:
    """The exact channel of every segment at every beta, as one
    (segments, len(betas), d^2, d^2) stack acting on row-major vec(rho) rows.

    The Hamiltonians of all segments and betas come from one broadcast _drive
    call, each member bit-equal to segment_hamiltonian; one lindblad_rhs call
    on the matrix units builds the generators, so the dissipator is built
    once; and one _expm call exponentiates them all.
    """
    d = schedule.dim
    n = d * d
    segs = schedule.segments
    scale = 1.0 + np.asarray(betas, dtype=float)
    amp = np.array([seg.amplitude for seg in segs])[:, None]
    phase = np.array([seg.phase for seg in segs])[:, None]
    hams = _drive(schedule, scale, amp, phase)
    units = np.eye(n, dtype=complex).reshape(n, d, d)
    gen = lindblad_rhs(units, hams[:, :, None], channels).reshape(len(segs), len(scale), n, n)
    durations = np.array([seg.duration for seg in segs])
    return _expm(durations[:, None, None, None] * gen)


def _propagate(schedule: PulseSchedule, rho: np.ndarray, channels, betas) -> np.ndarray:
    """rho, one (d, d) matrix or a (k, d, d) stack, after the schedule at each
    beta, as a (len(betas), k, d, d) stack (k = 1 for a matrix).

    The segments are applied in order, then rho and every segment's states
    over all betas are checked with one check_density call. If it fails, the
    input and each segment's states are checked in turn, so the error names
    the earliest failing stage and its state.
    """
    d = schedule.dim
    flat = rho.reshape(1, -1, d * d).repeat(len(betas), axis=0)
    stages = [rho.reshape(-1, d, d)]
    for chan in _segment_channels(schedule, channels, betas):
        flat = flat @ chan
        stages.append(flat.reshape(-1, d, d))
    try:
        check_density(np.concatenate(stages))
    except InvariantError:
        check_density(rho, name="initial density matrix")
        for j, states in enumerate(stages[1:]):
            check_density(states, name=f"density matrix after segment {j}")
        raise
    return flat.reshape(len(betas), -1, d, d)


def propagate_density(
    schedule: PulseSchedule, rho0: np.ndarray, channels=(), beta: float = 0.0
) -> np.ndarray:
    """Evolve rho0 (one (d, d) matrix or a (k, d, d) stack) through the schedule,
    one exact channel per segment.

    The density invariants are checked on the input and after every segment;
    violations raise InvariantError.
    """
    rho = np.array(rho0, dtype=complex)
    d = schedule.dim
    if rho.ndim not in (2, 3) or rho.shape[-2:] != (d, d):
        raise ValueError(f"rho0 must be ({d}, {d}) or (k, {d}, {d}), got shape {rho.shape}")
    return _propagate(schedule, rho, channels, (beta,)).reshape(rho.shape)


def cardinal_states(dim: int) -> np.ndarray:
    """The six cardinal states of the computational qubit, embedded in dim dims."""
    inv = 1.0 / math.sqrt(2.0)
    pairs = [
        (1.0, 0.0),
        (0.0, 1.0),
        (inv, inv),
        (inv, -inv),
        (inv, 1j * inv),
        (inv, -1j * inv),
    ]
    states = np.zeros((6, dim), dtype=complex)
    for i, (a, b) in enumerate(pairs):
        states[i, 0] = a
        states[i, 1] = b
    return states


def open_gate_metrics(schedule: PulseSchedule, channels=(), beta: float = 0.0) -> tuple[float, float]:
    """(average fidelity, average leakage) over the six cardinal input states.

    Target states are the ideal (beta = 0, closed) propagator applied to each
    input; fidelity is <psi_t| rho(tau) |psi_t> averaged over the six inputs,
    and leakage is the average population outside the computational subspace.
    """
    return _open_gate_metrics(schedule, channels, (beta,), schedule_propagator(schedule))[0]


def _open_gate_metrics(
    schedule: PulseSchedule, channels, betas, u0: np.ndarray
) -> list[tuple[float, float]]:
    """open_gate_metrics at each beta, propagating all betas as one stack and
    scoring them together, with targets from the ideal propagator u0."""
    dim = schedule.dim
    psis = cardinal_states(dim)
    targets = psis @ u0.T
    rho0 = np.einsum("ki,kj->kij", psis, psis.conj())
    rho_tau = _propagate(schedule, rho0, channels, betas)
    fid = np.einsum("ki,bkij,kj->bk", targets.conj(), rho_tau, targets).real
    pops = np.einsum("bkii->bki", rho_tau).real
    leak = pops[:, :, 2:].sum(axis=2) if dim > 2 else np.zeros(fid.shape)
    return list(zip(fid.mean(axis=1).tolist(), leak.mean(axis=1).tolist()))
