"""Co-moving frames, the super-robust condition (SRC), and perturbative tools.

For a systematic control error H' = H + beta * V, first-order time-dependent
perturbation theory is organized around the matrix

    D[k, m] = integral_0^tau  <psi_k(t)| V(t) |psi_m(t)> dt,

where psi_k(t) are the ideally-propagated co-moving frame states. Ordinary
geometric gates only guarantee D[k, k] = 0 (parallel transport); the SRC
additionally demands the off-diagonal elements vanish, removing the error at
first order and leaving a quartic infidelity law.

Frame conventions
-----------------
Two-level ("two") schedules: with alpha(t) = schedule.theta + accumulated area
and phi the current segment phase,

    zeta_1 = (cos(alpha/2), -i sin(alpha/2) e^{-i phi}),
    zeta_2 = (-i sin(alpha/2) e^{i phi}, cos(alpha/2)).

Lambda ("lambda") schedules: alpha(t) is the accumulated area (anchor 0), and
with |b>, |d> the bright/dark states and |e> the excited state,

    mu_1 = |d>,
    mu_2 = cos(alpha/2)|b> - i sin(alpha/2) e^{+i phi}|e>,
    mu_3 = -i sin(alpha/2) e^{-i phi}|b> + cos(alpha/2)|e>.

Both frames satisfy the Schrodinger equation segment-by-segment up to a pure
gauge phase and have identically vanishing diagonal drive elements, so the
dynamical phase is erased by construction.

For the global Rabi error V = H the interaction-picture operator
U^dag(t) H_j U(t) is constant on segment j, because H_j commutes with its own
exponential. D and the second-order Magnus term are then exact finite sums
over segments (see _segment_sums); no time grid is involved. In the frame
basis the only nonzero off-diagonal element of segment j's term is
(area_j / 2) e^{i Theta_j}, with a phasor angle Theta_j that jumps by +/- the
segment phase jump at each frame pole crossing. src_residual() evaluates that
closed-form phasor sum; d_matrix() evaluates the segment sum of propagated
drive operators. Only a custom, time-dependent V(t) needs quadrature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantError
from .pulses import (
    TWO_LEVEL,
    ErrorModel,
    PulseSchedule,
    _segment_frame,
    pulse_area,
    schedule_propagator,
    segment_hamiltonian,
    segment_propagator,
)

SRC_ALIGNMENT_TOL = 1e-9

# Clenshaw-Curtis rule for a custom V(t): each segment starts with the n + 1
# Chebyshev-Lobatto nodes of n = 8 and doubles n until its integral moves by
# at most CC_TOL of its norm. n stops at CC_MAX_NODES, which bounds the V(t)
# calls per segment at 4097.
CC_FIRST_NODES = 8
CC_MAX_NODES = 4096
CC_TOL = 1e-12


def frame_anchor(schedule: PulseSchedule) -> float:
    """Initial frame angle alpha(0): stored in theta for two-level, 0 for Lambda."""
    return float(schedule.theta) if schedule.system == TWO_LEVEL else 0.0


def auxiliary_frame(schedule: PulseSchedule, t: float) -> np.ndarray:
    """Frame vectors at time t, as the columns of a unitary matrix.

    At a segment boundary the later segment's phase applies (frames are
    right-continuous; the pole-crossing makes the physical states continuous
    anyway).
    """
    return _frame_in_segment(schedule, schedule.segment_index(t), t)


@dataclass(frozen=True)
class AuxiliaryBasis:
    """Sampled frame trajectory: frames[k] is the column matrix at times[k]."""

    times: np.ndarray
    frames: np.ndarray

    def end_overlap(self) -> np.ndarray:
        """Overlap matrix frame(tau)^dag frame(0).

        For a cyclic loop this is diagonal with unit-modulus entries, up to an
        index permutation for families whose frame swaps after an odd number
        of pi arcs.
        """
        return self.frames[-1].conj().T @ self.frames[0]


def auxiliary_basis(schedule: PulseSchedule, samples_per_segment: int = 64) -> AuxiliaryBasis:
    """Sample the analytic co-moving frame across the schedule, one frame
    kernel call per segment. A segment's last sample is its own end, so at an
    interior boundary it keeps the earlier segment's phase."""
    if not schedule.segments:
        raise ValueError("schedule has no segments")
    bounds = schedule.boundaries()
    times = [np.linspace(t0, t1, samples_per_segment) for t0, t1 in zip(bounds, bounds[1:])]
    frames = [_frame_in_segment(schedule, j, t) for j, t in enumerate(times)]
    return AuxiliaryBasis(times=np.concatenate(times), frames=np.concatenate(frames))


def _frame_in_segment(schedule: PulseSchedule, seg_index: int, t) -> np.ndarray:
    """auxiliary_frame with the segment pinned explicitly (boundary-safe); t may
    be an array of times, giving a stack of frames."""
    seg = schedule.segments[seg_index]
    bounds = schedule.boundaries()
    area = sum(s.area for s in schedule.segments[:seg_index])
    alpha = frame_anchor(schedule) + area + (t - bounds[seg_index]) * seg.amplitude
    return _segment_frame(schedule, alpha / 2.0, seg.phase)


def _segment_sums(schedule: PulseSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Exact lab-basis (D_op, G_op) of magnus_terms for the global Rabi error.

    On segment j, U(t) = exp(-i H_j s) U_{j-1} and H_j commutes with its own
    exponential, so V_H = U_{j-1}^dag H_j U_{j-1} is constant and integrates
    to A_j = tau_j V_H. Inside the segment D(t) grows linearly from D_{j-1}
    (the sum over earlier segments) to D_{j-1} + A_j, so the segment's
    commutator integral is exactly [A_j, D_{j-1}].
    """
    dim = schedule.dim
    u = np.eye(dim, dtype=complex)
    d_op = np.zeros((dim, dim), dtype=complex)
    g_comm = np.zeros((dim, dim), dtype=complex)
    for seg in schedule.segments:
        a_j = seg.duration * (u.conj().T @ segment_hamiltonian(schedule, seg) @ u)
        g_comm += a_j @ d_op - d_op @ a_j
        d_op += a_j
        u = segment_propagator(schedule, seg) @ u
    return d_op, g_comm + d_op @ d_op


def _v_samples(v, times: np.ndarray, dim: int) -> np.ndarray:
    """V(t) at each time, checked to be a finite (dim, dim) matrix."""
    v_t = np.array([v(t) for t in times], dtype=complex)
    if v_t.shape[1:] != (dim, dim):
        raise ValueError(
            f"custom V(t) must return a ({dim}, {dim}) matrix, got shape {v_t.shape[1:]}"
        )
    if not np.isfinite(v_t).all():
        bad_t = float(times[np.argmin(np.isfinite(v_t).all(axis=(1, 2)))])
        raise ValueError(f"custom V(t) is not finite at t={bad_t!r}")
    return v_t


def _lobatto(n: int) -> np.ndarray:
    """The n + 1 Chebyshev-Lobatto points x_j = cos(pi j / n), from 1 down to -1."""
    return np.cos(np.pi * np.arange(n + 1) / n)


def _dct1(values: np.ndarray) -> np.ndarray:
    """The DCT-I along axis 0, y_j = v_0 + (-1)^j v_n + 2 sum_{0<k<n} v_k cos(pi j k / n),
    as one FFT of the even extension."""
    n = len(values) - 1
    return np.fft.fft(np.concatenate([values, values[-2:0:-1]]), axis=0)[: n + 1]


def _chebyshev_coefficients(samples: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients a_0..a_n of the interpolant through samples[j] at
    x_j = cos(pi j / n)."""
    n = len(samples) - 1
    coef = _dct1(samples) / n
    coef[0] /= 2.0
    coef[n] /= 2.0
    return coef


@lru_cache(maxsize=16)
def _cc_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights of the n + 1 Chebyshev-Lobatto points: sum_j w_j f(x_j)
    is the integral over [-1, 1] of f's interpolant. They are one DCT-I of the
    moments 2 / (1 - k^2) of the even T_k, end weights halved (Waldvogel,
    BIT 46, 195 (2006)); read-only."""
    moments = np.zeros(n + 1)
    moments[::2] = 2.0 / (1.0 - np.arange(0, n + 1, 2) ** 2)
    weights = _dct1(moments).real / n
    weights[0] /= 2.0
    weights[n] /= 2.0
    weights.flags.writeable = False
    return weights


def _cc_integral(tau, samples: np.ndarray) -> np.ndarray:
    """Clenshaw-Curtis integral over segments of length tau of (d, d) samples at
    the Lobatto points (axis -3); an array tau matches the leading axes."""
    *lead, nodes, rows, cols = samples.shape
    total = np.matmul(_cc_weights(nodes - 1), samples.reshape(*lead, nodes, rows * cols))
    return (0.5 * np.asarray(tau))[..., None, None] * total.reshape(*lead, rows, cols)


def _node_integrals(tau: float, samples: np.ndarray) -> np.ndarray:
    """The integral of (d, d) samples at the Lobatto points from the segment
    start to each point.

    Their Chebyshev series a_k integrates term by term to
    b_k = (c_{k-1} a_{k-1} - a_{k+1}) / 2k (c_0 = 2, else 1), k = 1..n+1.
    At the points T_{n+1} = T_{n-1}, so b_{n+1} folds onto b_{n-1} and one
    DCT-I sums the series there; the value at x = 1 is subtracted. t
    decreases as x runs from 1 to -1, so dt = -(tau / 2) dx.
    """
    coef = _chebyshev_coefficients(samples)
    n = len(coef) - 1
    lower = coef.copy()
    lower[0] *= 2.0
    upper = np.zeros_like(coef)
    upper[: n - 1] = coef[2:]
    b = (lower - upper) / (2.0 * np.arange(1, n + 2))[:, None, None]
    series = np.zeros_like(coef)
    series[1:] = b[:n]
    series[n - 1] += b[n]
    series[1:n] *= 0.5  # the DCT-I doubles the interior terms
    values = _dct1(series)
    return (-0.5 * tau) * (values - values[0])


def _custom_segments(schedule: PulseSchedule, v) -> list[tuple]:
    """A custom V(t) in each segment's frame basis, on the segment's
    converged nodes.

    On segment j, U(t0 + s) = F_j(amp s) s_j, with F_j the frame kernel and
    s_j = F_j(0)^dag U(t0) the segment's start propagator from the closed
    form, so V_H = U^dag V U = s_j^dag v_f s_j with v_f = F_j^dag V F_j.
    Returns (tau, s_j, v_f, integral) per segment: v_f at the
    Chebyshev-Lobatto points x, from 1 down to -1 (the times
    t0 + (tau / 2)(1 - x)), and the Clenshaw-Curtis integral of V_H.

    All segments start with CC_FIRST_NODES + 1 points and double n
    together, so each level is one stack over every unconverged segment:
    one V(t) call per new point, one frame kernel call and one frame-basis
    product. The points at 2n contain those at n, and a segment's first
    point is the previous segment's last, so V(t) is called once per
    distinct time. A segment has converged once its integral of v_f moves
    by at most CC_TOL of its norm (at least 1) under a doubling. Both
    Frobenius norms are those of V_H, since s_j is unitary, and are taken
    after dividing by the integral's largest entry, so they cannot
    overflow; only a converged integral is turned into the lab basis. A
    segment unconverged at CC_MAX_NODES raises InvariantError, naming the
    lowest such index. Every V(t) sample is checked for shape and finiteness
    before use.
    """
    segs = schedule.segments
    if not segs:
        return []
    dim = schedule.dim
    tau = np.array([seg.duration for seg in segs])
    half_rate = 0.5 * np.array([seg.amplitude for seg in segs])[:, None]
    phase = np.array([seg.phase for seg in segs])[:, None]
    t0 = schedule.boundaries()[:-1, None]
    areas = np.array([seg.area for seg in segs])
    # every segment's frame at its start (angle 0) and at its end (its area)
    edges = _segment_frame(schedule, (0.5 * areas)[:, None] * [0.0, 1.0], phase)
    starts = np.empty((len(segs), dim, dim), dtype=complex)
    u = np.eye(dim, dtype=complex)
    for j, (first, last) in enumerate(edges):
        starts[j] = first.conj().T @ u
        u = last @ starts[j]

    def frame_basis(half, phase, v_t):
        """F^dag V F at frame angles 2 * half, one row per segment."""
        frames = _segment_frame(schedule, half, phase)
        return np.conj(frames).swapaxes(-1, -2) @ (v_t @ frames)

    n = CC_FIRST_NODES
    index = np.arange(len(segs))
    s = (0.5 * tau)[:, None] * (1.0 - _lobatto(n))
    # t = 0, then every segment's points after its first, which is the
    # previous segment's last: segment j reads samples jn .. jn + n
    fresh = _v_samples(v, np.append(0.0, t0 + s[:, 1:]), dim)
    v_f = frame_basis(half_rate * s, phase, fresh[n * index[:, None] + np.arange(n + 1)])
    integral = _cc_integral(tau, v_f)
    out = [None] * len(segs)
    while True:
        if n == CC_MAX_NODES:
            raise InvariantError(
                f"custom V(t) quadrature not converged on segment {index[0]}: "
                f"|I_{n} - I_{n // 2}| / max(1, |I_{n}|) = {dev[0]:.3e} with {n + 1} nodes"
            )
        n *= 2
        s = (0.5 * tau)[:, None] * (1.0 - _lobatto(n)[1::2])
        v_t = _v_samples(v, (t0 + s).ravel(), dim).reshape(len(index), -1, dim, dim)
        fine = np.empty((len(index), n + 1, dim, dim), dtype=complex)
        fine[:, ::2] = v_f
        fine[:, 1::2] = frame_basis(half_rate * s, phase, v_t)
        v_f = fine
        coarse, integral = integral, _cc_integral(tau, v_f)
        scale = np.maximum(1.0, np.abs(integral).max(axis=(1, 2)))
        change, norm = np.linalg.norm(
            np.stack([integral - coarse, integral]) / scale[:, None, None], axis=(2, 3))
        dev = change / np.maximum(1.0 / scale, norm)
        done = dev <= CC_TOL
        if done.any():
            start = starts[done]
            totals = np.conj(start).swapaxes(-1, -2) @ integral[done] @ start
            for j, *result in zip(index[done].tolist(), start, v_f[done], totals):
                out[j] = (segs[j].duration, *result)
            if done.all():
                return out
            index, tau, t0, half_rate, phase, starts, v_f, integral, dev = (
                a[~done] for a in (index, tau, t0, half_rate, phase, starts, v_f, integral, dev))


def d_matrix(schedule: PulseSchedule, error: ErrorModel | None = None) -> np.ndarray:
    """First-order error matrix D in the frame-state basis (full square matrix).

    error selects V (its beta is irrelevant here); the default is the global
    Rabi error V = H, whose D is the exact segment sum of propagated drive
    operators. An ErrorModel.custom V(t) is integrated by a Clenshaw-Curtis
    rule on each segment, with the node count of every segment doubled
    together until each segment's integral converges to 1e-12 of its norm
    (see _custom_segments). A segment still unconverged at CC_MAX_NODES
    raises InvariantError, and a V(t) sample that is not a finite (dim, dim)
    matrix raises ValueError.
    """
    dim = schedule.dim
    if not schedule.segments:
        return np.zeros((dim, dim), dtype=complex)
    if error is None or error.kind == "global_rabi":
        d_lab = _segment_sums(schedule)[0]
    else:
        d_lab = sum(total for *_, total in _custom_segments(schedule, error.v))
    frame0 = auxiliary_frame(schedule, 0.0)
    return frame0.conj().T @ d_lab @ frame0


def _boundary_parities(schedule: PulseSchedule) -> np.ndarray | None:
    """Frame angle alpha in units of pi at interior boundaries, if pole-aligned."""
    areas = np.array([s.area for s in schedule.segments])
    alphas = frame_anchor(schedule) + np.cumsum(areas)[:-1]
    m = alphas / math.pi
    if np.any(np.abs(m - np.round(m)) > SRC_ALIGNMENT_TOL):
        return None
    return np.round(m).astype(int)


def src_phasors(schedule: PulseSchedule) -> np.ndarray:
    """Per-segment closed-form contributions to the SRC off-diagonal element.

    Term j equals (area_j / 2) e^{i Theta_j}. The phasor angle starts at the
    first segment's effective phase and, at a pole crossing with alpha = m pi,
    jumps by (-1)^m times the phase jump (the gauge bookkeeping of the frame).
    For Lambda schedules the effective phase is the negated segment phase,
    mirroring the two-level <-> bright/excited block correspondence.

    Raises ValueError when an interior boundary is not pole-aligned (no closed
    form there; use d_matrix instead).
    """
    if not schedule.segments:
        return np.zeros(0, dtype=complex)
    parities = _boundary_parities(schedule)
    if parities is None:
        raise ValueError("phase jumps are not aligned with frame poles")
    sign = 1.0 if schedule.system == TWO_LEVEL else -1.0
    eff = sign * np.array([s.phase for s in schedule.segments])
    theta_ph = np.empty(len(eff))
    theta_ph[0] = eff[0]
    for j in range(1, len(eff)):
        flip = -1.0 if parities[j - 1] % 2 else 1.0
        theta_ph[j] = theta_ph[j - 1] + flip * (eff[j] - eff[j - 1])
    areas = np.array([s.area for s in schedule.segments])
    return 0.5 * areas * np.exp(1j * theta_ph)


def src_residual(schedule: PulseSchedule) -> complex:
    """The SRC off-diagonal element from the closed-form phasor sum.

    Equals d_matrix()[0, 1] for two-level schedules and d_matrix()[1, 2] for
    Lambda schedules under the global Rabi error. Falls back to d_matrix's
    exact segment sum (with a warning) when the closed form does not apply.
    """
    try:
        return complex(src_phasors(schedule).sum())
    except ValueError:
        warnings.warn(
            "phase jumps off the frame poles: falling back to the d_matrix segment sum",
            stacklevel=2,
        )
        d_op = d_matrix(schedule)
        return complex(d_op[0, 1] if schedule.system == TWO_LEVEL else d_op[1, 2])


def dynamical_integrals(schedule: PulseSchedule) -> np.ndarray:
    """Integrals of the drive's frame-diagonal elements, one per frame state.

    This is the diagonal D[k, k] of d_matrix(), the parallel-transport
    condition. It vanishes identically for resonant drives; the exact segment
    sum returns roundoff-level values and exists as a check.
    """
    return np.diag(d_matrix(schedule)).copy()


def magnus_terms(
    schedule: PulseSchedule,
    error: ErrorModel | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """First- and second-order error operators (D_op, G_op) in the lab basis.

    With V_H(t) = U^dag(t) V(t) U(t):

        D_op = integral V_H dt,
        G_op = integral [V_H(t), D(t)] dt + D_op^2,   D(t) = cumulative integral.

    The perturbed propagator is then
    U'(tau) = U(tau) (1 - i beta D_op - (beta^2/2) G_op) + O(beta^3).
    The global Rabi error (the default) is summed exactly over segments. For
    ErrorModel.custom, D_op is d_matrix's Clenshaw-Curtis rule in the lab
    basis; D(t) at the same nodes is the integral of V_H's Chebyshev
    interpolant (see _node_integrals), and the commutator is integrated by
    the same rule, on the same V(t) calls as d_matrix.
    """
    if error is None or error.kind == "global_rabi":
        return _segment_sums(schedule)
    dim = schedule.dim
    d_cum = np.zeros((dim, dim), dtype=complex)
    g_comm = np.zeros((dim, dim), dtype=complex)
    for tau, start, v_f, total in _custom_segments(schedule, error.v):
        # V_H = start^dag v_f start: the commutator is taken in the frame basis
        d_t = start @ d_cum @ start.conj().T + _node_integrals(tau, v_f)
        g_comm += start.conj().T @ _cc_integral(tau, v_f @ d_t - d_t @ v_f) @ start
        d_cum = d_cum + total
    return d_cum, g_comm + d_cum @ d_cum


def magnus_gate_approx(schedule: PulseSchedule, error: ErrorModel) -> np.ndarray:
    """Second-order perturbative approximation to the perturbed propagator."""
    d_op, g_op = magnus_terms(schedule, error)
    u0 = schedule_propagator(schedule)
    beta = error.beta
    eye = np.eye(schedule.dim, dtype=complex)
    return u0 @ (eye - 1j * beta * d_op - 0.5 * beta**2 * g_op)


def gate_fidelity(u_actual: np.ndarray, u_target: np.ndarray, subspace_dim: int | None = None) -> float:
    """|Tr(T^dag A)| / M over the leading M-dimensional block.

    M defaults to the target's dimension; both matrices are truncated to their
    leading MxM block, so a 2x2 target against a 3x3 propagator compares the
    computational block only (leakage shows up as lost fidelity).
    """
    u_actual = np.asarray(u_actual)
    u_target = np.asarray(u_target)
    m = subspace_dim if subspace_dim is not None else u_target.shape[0]
    if m < 1:
        raise ValueError(f"subspace_dim must be >= 1, got {m!r}")
    if m > u_actual.shape[0] or m > u_target.shape[0]:
        raise ValueError(
            f"subspace_dim {m} exceeds matrix dimensions "
            f"{u_actual.shape[0]} / {u_target.shape[0]}"
        )
    block_a = u_actual[:m, :m]
    block_t = u_target[:m, :m]
    return float(abs(np.trace(block_t.conj().T @ block_a)) / m)


def propagator_fidelity(schedule: PulseSchedule, beta: float) -> float:
    """Trace fidelity of the beta-perturbed schedule against its own ideal."""
    return _closed_gate_metrics(schedule, [beta])[0][0]


def leakage(schedule: PulseSchedule, beta: float = 0.0) -> float:
    """Mean population leaked out of the computational subspace (0 for two-level)."""
    return _closed_gate_metrics(schedule, [beta])[0][1]


def _closed_gate_metrics(schedule: PulseSchedule, betas) -> list[tuple[float, float]]:
    """(propagator_fidelity, leakage) at each beta from one stack of propagators,
    u0 (beta = 0) first. Each modulus is taken alone, because numpy's
    vectorized complex abs can differ from the scalar one in the last bit."""
    props = schedule_propagator(schedule, np.array([0.0, *betas]))
    traces = np.trace(props[0].conj().T @ props[1:], axis1=1, axis2=2)
    leaks = [abs(u[2, 0]) ** 2 + abs(u[2, 1]) ** 2 if schedule.dim > 2 else 0.0 for u in props[1:]]
    return [(float(abs(tr) / schedule.dim), float(0.5 * lk)) for tr, lk in zip(traces, leaks)]


def fidelity_prediction(d_op: np.ndarray, beta: float, subspace_dim: int | None = None) -> float:
    """Quadratic fidelity estimate 1 - (beta^2 / 2M) sum_{k<M, all m} |D[k,m]|^2.

    d_op is a d_matrix() result (frame-state indices). With subspace_dim=None
    the sum runs over the full matrix, matching the trace fidelity over the
    full dimension; subspace_dim=M restricts the rows to the logical frame
    states.
    """
    d_op = np.asarray(d_op)
    m = subspace_dim if subspace_dim is not None else d_op.shape[0]
    if m < 1:
        raise ValueError(f"subspace_dim must be >= 1, got {m!r}")
    if m > d_op.shape[0]:
        raise ValueError(f"subspace_dim {m} exceeds D-matrix dimension {d_op.shape[0]}")
    weight = float(np.sum(np.abs(d_op[:m, :]) ** 2))
    return 1.0 - 0.5 * beta**2 * weight / m


def geometric_phase(schedule: PulseSchedule) -> float:
    """Geometric phase of the schedule's cyclic frame loop, in (-pi, pi].

    Each completed 2*pi area loop contributes pi (frame antiperiodicity), and
    each pole-aligned phase jump contributes the jump weighted by
    (1 - cos(alpha))/2 for two-level frames or (cos(alpha) - 1)/2 for Lambda
    frames, i.e. +/- the jump at odd poles and nothing at even poles. For a
    two-level schedule the returned value is the gate's rotation angle (twice
    the per-state loop phase); for a Lambda schedule it is the bright-track
    loop phase, which is the holonomic rotation angle directly.

    Raises ValueError for non-cyclic schedules (total area not a multiple of
    2*pi) and for phase jumps away from the frame poles.
    """
    area = pulse_area(schedule)
    n_loops = area / (2.0 * math.pi)
    if abs(n_loops - round(n_loops)) > 1e-9:
        raise ValueError(
            f"schedule is not cyclic: total area {area!r} is not a multiple of 2*pi"
        )
    n_loops = int(round(n_loops))
    if not schedule.segments:
        return 0.0
    parities = _boundary_parities(schedule)
    if parities is None:
        raise ValueError("phase jumps are not aligned with frame poles")
    phases = [s.phase for s in schedule.segments]
    jump_sum = 0.0
    for j in range(1, len(phases)):
        if parities[j - 1] % 2:
            jump_sum += phases[j] - phases[j - 1]
    if schedule.system == TWO_LEVEL:
        value = 2.0 * (math.pi * n_loops + jump_sum)
    else:
        value = math.pi * n_loops - jump_sum
    wrapped = math.fmod(value, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    # map the branch cut to +pi, with a tolerance so roundoff-level values just
    # below -pi do not flip the sign of a phase that is exactly pi
    if wrapped <= -math.pi + 1e-9:
        wrapped += 2.0 * math.pi
    return wrapped


def order_fit(betas: np.ndarray, infidelities: np.ndarray) -> float:
    """Log-log slope of infidelity vs |beta| (2 for quadratic, 4 for quartic laws)."""
    betas = np.asarray(betas, dtype=float)
    infid = np.asarray(infidelities, dtype=float)
    mask = (betas > 0) & (infid > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive (beta, infidelity) points")
    return float(np.polyfit(np.log(betas[mask]), np.log(infid[mask]), 1)[0])


def quadratic_coefficient(betas: np.ndarray, infidelities: np.ndarray) -> float:
    """Least-squares coefficient c in infidelity = c * beta^2 (zero intercept)."""
    betas = np.asarray(betas, dtype=float)
    infid = np.asarray(infidelities, dtype=float)
    mask = betas != 0
    denom = float(np.sum(betas[mask] ** 4))
    if denom == 0.0:
        raise ValueError("need nonzero beta values")
    return float(np.sum(infid[mask] * betas[mask] ** 2) / denom)
