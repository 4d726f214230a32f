"""Piecewise-constant pulse schedules, drive Hamiltonians, and error models.

Units: the reference Rabi amplitude is 1, times are in units of its inverse,
hbar = 1. Segment amplitudes are in units of the reference amplitude.

Two systems are supported:

* ``"two"``: a resonant two-level drive,
  H = (amp/2) * (e^{i phase}|0><1| + e^{-i phase}|1><0|).
  ``theta`` stores the co-moving frame's initial polar angle alpha(0); ``phi``
  is unused and kept at 0 by convention.
* ``"lambda"``: a three-level Lambda system with basis (|0>, |1>, |e>), driven
  on the bright state |b> = sin(theta/2) e^{i phi}|0> + cos(theta/2)|1>,
  H = (amp/2) * (e^{-i phase}|b><e| + h.c.).
  The dark state |d> = cos(theta/2) e^{i phi}|0> - sin(theta/2)|1> is
  annihilated by H for every segment.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SerializationError

TWO_LEVEL = "two"
LAMBDA = "lambda"
SYSTEMS = (TWO_LEVEL, LAMBDA)

BETA_HARD_LIMIT = 0.5
BETA_WARN_LIMIT = 0.1


@dataclass(frozen=True)
class PulseSegment:
    """One constant-drive interval: duration > 0, amplitude >= 0, any phase."""

    duration: float
    amplitude: float
    phase: float

    def __post_init__(self) -> None:
        for name in ("duration", "amplitude", "phase"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"segment {name} must be finite, got {val!r}")
        if self.duration <= 0:
            raise ValueError(f"segment duration must be positive, got {self.duration!r}")
        if self.amplitude < 0:
            raise ValueError(f"segment amplitude must be >= 0, got {self.amplitude!r}")

    @property
    def area(self) -> float:
        return self.duration * self.amplitude


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered tuple of segments plus frame parameters (see module docstring)."""

    system: str
    segments: tuple[PulseSegment, ...]
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"unknown system {self.system!r}, expected one of {SYSTEMS}")
        object.__setattr__(self, "segments", tuple(self.segments))
        for seg in self.segments:
            if not isinstance(seg, PulseSegment):
                raise TypeError(f"segments must be PulseSegment, got {type(seg).__name__}")
        for name in ("theta", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def dim(self) -> int:
        return 2 if self.system == TWO_LEVEL else 3

    @property
    def duration(self) -> float:
        return float(sum(s.duration for s in self.segments))

    def boundaries(self) -> np.ndarray:
        """Cumulative segment boundary times, starting at 0.0."""
        return np.concatenate([[0.0], np.cumsum([s.duration for s in self.segments])])

    def segment_index(self, t: float) -> int:
        """Index of the segment containing time t (boundaries belong to the later one)."""
        if not self.segments:
            raise ValueError("schedule has no segments")
        bounds = self.boundaries()
        if t < -1e-12 or t > bounds[-1] + 1e-12:
            raise ValueError(f"t={t!r} lies outside the schedule [0, {bounds[-1]!r}]")
        idx = int(np.searchsorted(bounds, min(max(t, 0.0), bounds[-1]), side="right")) - 1
        return min(idx, len(self.segments) - 1)

    def area_at(self, t: float) -> float:
        """Accumulated pulse area between 0 and t."""
        idx = self.segment_index(t)
        bounds = self.boundaries()
        done = sum(s.area for s in self.segments[:idx])
        return float(done + (t - bounds[idx]) * self.segments[idx].amplitude)


def pulse_area(schedule: PulseSchedule) -> float:
    """Total integrated Rabi area of the schedule; 0.0 for an empty schedule."""
    return float(sum(s.area for s in schedule.segments))


def bright_dark(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Bright and dark combinations of |0>, |1> as length-3 vectors (last entry 0)."""
    half = theta / 2.0
    bright = np.array([math.sin(half) * np.exp(1j * phi), math.cos(half), 0.0], dtype=complex)
    dark = np.array([math.cos(half) * np.exp(1j * phi), -math.sin(half), 0.0], dtype=complex)
    return bright, dark


def segment_hamiltonian(schedule: PulseSchedule, seg: PulseSegment, scale: float = 1.0) -> np.ndarray:
    """Hamiltonian of one segment, with the amplitude multiplied by `scale`."""
    if schedule.system == TWO_LEVEL:
        off = 0.5 * scale * seg.amplitude * np.exp(1j * seg.phase)
        return np.array([[0.0, off], [np.conj(off), 0.0]], dtype=complex)
    bright, _ = bright_dark(schedule.theta, schedule.phi)
    exc = np.array([0.0, 0.0, 1.0], dtype=complex)
    ham = 0.5 * scale * seg.amplitude * np.exp(-1j * seg.phase) * np.outer(bright, exc.conj())
    return ham + ham.conj().T


@dataclass(frozen=True)
class ErrorModel:
    """Systematic control error H' = H + beta * V.

    kind="global_rabi" scales the drive itself (V = H, i.e. amplitude -> (1 +
    beta) * amplitude). kind="custom" adds beta * v(t) for a user-supplied
    callable returning a Hermitian matrix.
    """

    kind: str
    beta: float
    v: object = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ("global_rabi", "custom"):
            raise ValueError(f"unknown error kind {self.kind!r}")
        if not math.isfinite(self.beta) or abs(self.beta) > BETA_HARD_LIMIT:
            raise ValueError(
                f"beta={self.beta!r} outside the supported range |beta| <= {BETA_HARD_LIMIT}"
            )
        if abs(self.beta) > BETA_WARN_LIMIT:
            warnings.warn(
                f"beta={self.beta!r} exceeds {BETA_WARN_LIMIT}; perturbative "
                "predictions will be loose",
                stacklevel=2,
            )
        if self.kind == "custom" and not callable(self.v):
            raise ValueError("custom error models need a callable v(t)")

    @classmethod
    def global_rabi(cls, beta: float) -> "ErrorModel":
        return cls(kind="global_rabi", beta=beta)

    @classmethod
    def custom(cls, beta: float, v) -> "ErrorModel":
        return cls(kind="custom", beta=beta, v=v)


def _segment_frame(schedule: PulseSchedule, half: float | np.ndarray,
                   phase: float | np.ndarray) -> np.ndarray:
    """The co-moving frame F at frame angle 2 * half on a segment of phase
    `phase`, as a column matrix (conventions in the robustness module): the
    rotation by that angle about the segment's equatorial axis, which on
    Lambda turns the bright/excited pair of F(0) = (dark, bright, e). A
    segment of area A propagates by F(A) F(0)^dag. Array half and phase
    broadcast to a shape S and give an S + (d, d) stack whose members have
    the bits of the scalar calls, so one call serves several segments.
    Callers halve the angle themselves: halving is not exact for subnormals."""
    c, s = np.cos(half), np.sin(half)
    ph = np.exp(1j * phase)
    a, b = -1j * s * ph, -1j * s / ph
    if schedule.system == TWO_LEVEL:
        frame = np.empty(a.shape + (2, 2), dtype=complex)
        frame[..., 0, 0] = frame[..., 1, 1] = c
        frame[..., 0, 1] = a
        frame[..., 1, 0] = b
        return frame
    block = np.zeros(a.shape + (3, 3), dtype=complex)
    block[..., 0, 0] = 1.0
    block[..., 1, 1] = block[..., 2, 2] = c
    block[..., 1, 2] = b
    block[..., 2, 1] = a
    return _lambda_basis(schedule.theta, schedule.phi) @ block


@lru_cache(maxsize=64)
def _lambda_basis(theta: float, phi: float) -> np.ndarray:
    """F(0) of a Lambda schedule, the columns (dark, bright, e); read-only."""
    bright, dark = bright_dark(theta, phi)
    basis = np.column_stack([dark, bright, [0.0, 0.0, 1.0]])
    basis.flags.writeable = False
    return basis


def segment_propagator(schedule: PulseSchedule, seg: PulseSegment, scale=1.0) -> np.ndarray:
    """Closed-form exp(-1j * H_seg * duration) with the amplitude scaled: the
    rotation F(scale * area) F(0)^dag of the frame kernel. An array scale of
    shape S gives an S + (d, d) stack."""
    rotated = _segment_frame(schedule, 0.5 * scale * seg.area, seg.phase)
    if schedule.system == TWO_LEVEL:
        return rotated
    return rotated @ _lambda_basis(schedule.theta, schedule.phi).conj().T


def schedule_propagator(schedule: PulseSchedule, beta: float | np.ndarray = 0.0) -> np.ndarray:
    """Exact propagator of the whole schedule: the ordered product of segment
    exponentials, with every amplitude scaled by (1 + beta) (the global Rabi
    error); the identity for an empty schedule. A 1-D array of n betas gives
    an (n, d, d) stack whose members have the bits of the scalar calls."""
    dim = schedule.dim
    u = np.full(np.asarray(beta).shape + (dim, dim), np.eye(dim), dtype=complex)
    for seg in schedule.segments:
        u = segment_propagator(schedule, seg, scale=1.0 + beta) @ u
    return u


def schedule_to_text(schedule: PulseSchedule) -> str:
    """Serialize to the plain-text format (header line, then one line per segment).

    Floats are written with repr(), which round-trips bit-exactly.
    """
    lines = [
        f"system={schedule.system} theta={float(schedule.theta)!r} phi={float(schedule.phi)!r}"
    ]
    for seg in schedule.segments:
        lines.append(f"{float(seg.duration)!r} {float(seg.amplitude)!r} {float(seg.phase)!r}")
    return "\n".join(lines) + "\n"


_HEADER_KEYS = ("system", "theta", "phi")


def schedule_from_text(text: str) -> PulseSchedule:
    """Parse the text format produced by schedule_to_text (strict)."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise SerializationError("empty schedule text")
    header = lines[0].split()
    fields: dict[str, str] = {}
    for tok in header:
        if "=" not in tok:
            raise SerializationError(f"malformed header token {tok!r} on line 1")
        key, _, val = tok.partition("=")
        if key not in _HEADER_KEYS:
            raise SerializationError(f"unknown header key {key!r} on line 1")
        if key in fields:
            raise SerializationError(f"header key {key!r} is given more than once on line 1")
        fields[key] = val
    missing = set(_HEADER_KEYS) - fields.keys()
    if missing:
        raise SerializationError(f"header missing fields: {sorted(missing)}")
    if fields["system"] not in SYSTEMS:
        raise SerializationError(f"unknown system {fields['system']!r} on line 1")
    try:
        theta = float(fields["theta"])
        phi = float(fields["phi"])
    except ValueError as exc:
        raise SerializationError(f"bad header number: {exc}") from exc
    segments = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 3:
            raise SerializationError(
                f"line {lineno}: expected 'duration amplitude phase', got {line!r}"
            )
        try:
            duration, amplitude, phase = (float(p) for p in parts)
        except ValueError as exc:
            raise SerializationError(f"line {lineno}: {exc}") from exc
        try:
            segments.append(PulseSegment(duration, amplitude, phase))
        except ValueError as exc:
            raise SerializationError(f"line {lineno}: {exc}") from exc
    return PulseSchedule(
        system=fields["system"], segments=tuple(segments), theta=theta, phi=phi
    )


def save_schedule(schedule: PulseSchedule, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(schedule_to_text(schedule))


def load_schedule(path) -> PulseSchedule:
    with open(path, "r", encoding="ascii") as fh:
        return schedule_from_text(fh.read())
