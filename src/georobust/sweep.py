"""Error and decoherence sweeps with a byte-deterministic CSV surface.

Closed-system points (gamma = 0) score the full-dimension trace fidelity of
the perturbed propagator against the ideal one. Open points (gamma > 0) apply
the exact per-segment Lindblad channels (as lindblad.open_gate_metrics does)
and average state fidelity over the six cardinal inputs. The two metrics are
different by construction, so the gamma -> 0 limit of the open metric does not
join the gamma = 0 column; the gamma = 0 column is defined to match the plain
beta sweep exactly.

Sweeps run serially in one process. Each family's schedule, SRC residual and
ideal propagator come from one certificate, the family's only beta = 0
propagation. Each column of a family is scored against that propagator and
propagated in blocks of BETA_BLOCK betas, which bounds the memory a long beta
grid needs: the gamma = 0 column as one stack of closed-form propagators, a
gamma > 0 column as one stack of the channels of every segment at every beta
of the block. A batched point has the same bits as a lone one.

CSV rows are sorted by (family, beta, gamma) and floats are written with
repr(), so rerunning a sweep reproduces the file byte for byte.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ConfigError, InvariantError
from .gates import FAMILIES, NAMED_GATES, GateSpec, _certified, _family_layout
from .lindblad import _open_gate_metrics, standard_channels
from .robustness import (
    _closed_gate_metrics,
    _src_element,
    d_matrix,
    order_fit,
    quadratic_coefficient,
)

CSV_HEADER = "family,beta,gamma,fidelity,infidelity,leakage,src_residual"
DELTA_HEADER = "pair,beta,gamma,delta_fidelity"
DELTA_PAIRS = (("sr-ngqc", "dg"), ("ngqc", "dg"))
BETA_BLOCK = 64  # betas per batched propagation

QUADRATIC_TARGETS = {
    "dg": math.pi**2 / 8.0,
    "ngqc": math.pi**2 / 8.0,
    "nhqc": math.pi**2 / 3.0,
}


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
    gate: str = "not"
    beta_min: float = -0.1
    beta_max: float = 0.1
    beta_points: int = 41
    gammas: tuple[float, ...] = (0.0,)
    out: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "families", tuple(self.families))
        # + 0.0 turns -0.0 into 0.0, so "-0" neither prints nor counts apart from 0
        object.__setattr__(self, "gammas", tuple(float(g) + 0.0 for g in self.gammas))
        _check_families(self.families)
        _check_gate(self.gate)
        if not self.beta_min <= self.beta_max:
            raise ConfigError(f"beta_min {self.beta_min!r} exceeds beta_max {self.beta_max!r}")
        if max(abs(self.beta_min), abs(self.beta_max)) > 0.5:
            raise ConfigError("|beta| beyond 0.5 is outside the supported error range")
        if self.beta_points < 1:
            raise ConfigError(f"beta_points must be >= 1, got {self.beta_points!r}")
        if not self.gammas:
            raise ConfigError("gammas must not be empty")
        for g in self.gammas:
            if not math.isfinite(g) or g < 0:
                raise ConfigError(f"decoherence rates must be finite and >= 0, got {g!r}")
        _reject_repeats("gamma", self.gammas)
        _check_rate_bound(self.families, NAMED_GATES[self.gate], max(self.gammas))


def _reject_repeats(what: str, values) -> None:
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"{what} {v!r} is given more than once")
        seen.add(v)


def _check_rate_bound(families, spec: GateSpec, gamma: float) -> None:
    """A ConfigError if gamma times a segment duration of a family's schedule
    overflows, which would make that segment's channel generator infinite.
    Segments run at unit amplitude, so their durations are the layout's areas."""
    for fam in families:
        longest = max(_family_layout(fam, spec)[0], default=0.0)
        bound = sys.float_info.max / longest if longest else math.inf
        if gamma > bound:
            raise ConfigError(
                f"decoherence rate {gamma!r} exceeds {bound!r}, the largest float "
                f"divided by the longest {fam} segment duration {longest!r}"
            )


def _check_families(families) -> None:
    """A ConfigError unless families is a non-empty list of distinct known families."""
    if not families:
        raise ConfigError("families must not be empty")
    for fam in families:
        if fam not in FAMILIES:
            raise ConfigError(f"unknown family {fam!r}, expected one of {FAMILIES}")
    _reject_repeats("family", families)


def _check_gate(gate: str) -> None:
    if gate not in NAMED_GATES:
        raise ConfigError(f"unknown gate {gate!r}, expected one of {sorted(NAMED_GATES)}")


@dataclass(frozen=True)
class SweepRow:
    family: str
    beta: float
    gamma: float
    fidelity: float
    infidelity: float
    leakage: float
    src_residual: float


def beta_grid(config: SweepConfig) -> np.ndarray:
    return np.linspace(config.beta_min, config.beta_max, config.beta_points)


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """All rows of the configured sweep, already in canonical order."""
    betas = [float(b) for b in beta_grid(config)]
    gammas = sorted(config.gammas)
    spec = NAMED_GATES[config.gate]
    certified = {family: _certified(family, spec) for family in config.families}
    rows = []
    for family in sorted(config.families):
        schedule, sol, u0 = certified[family]
        src = sol.residual_src
        columns = []
        for gamma in gammas:
            if gamma == 0.0:
                metrics = partial(_closed_gate_metrics, schedule)
            else:
                channels = standard_channels(schedule.system, gamma, gamma)
                metrics = partial(_open_gate_metrics, schedule, channels)
            columns.append([
                point
                for i in range(0, len(betas), BETA_BLOCK)
                for point in metrics(betas[i:i + BETA_BLOCK], u0)
            ])
        for i, beta in enumerate(betas):
            for gamma, column in zip(gammas, columns):
                fid, leak = column[i]
                rows.append(SweepRow(
                    family=family, beta=beta, gamma=gamma,
                    fidelity=fid, infidelity=1.0 - fid, leakage=leak, src_residual=src,
                ))
    for row in rows:
        _check_row(row)
    return rows


def _check_row(row: SweepRow) -> None:
    values = (row.beta, row.gamma, row.fidelity, row.infidelity, row.leakage, row.src_residual)
    if not all(math.isfinite(v) for v in values):
        raise InvariantError(f"non-finite sweep value in {row}")
    if row.fidelity < -1e-9 or row.fidelity > 1.0 + 1e-9:
        raise InvariantError(f"fidelity {row.fidelity!r} outside [0, 1] in {row}")


def sweep_beta(config: SweepConfig) -> list[SweepRow]:
    """Closed-system beta sweep (any configured gammas are ignored)."""
    return run_sweep(replace(config, gammas=(0.0,)))


def delta_rows(rows: list[SweepRow]) -> list[tuple[str, float, float, float]]:
    """Fidelity differences for the standard family pairs, per (beta, gamma)."""
    table = {(r.family, r.beta, r.gamma): r.fidelity for r in rows}
    out = []
    for fam_a, fam_b in DELTA_PAIRS:
        # a pair with an absent family has no common keys
        keys = sorted(
            {(r.beta, r.gamma) for r in rows if r.family == fam_a}
            & {(r.beta, r.gamma) for r in rows if r.family == fam_b}
        )
        for beta, gamma in keys:
            out.append(
                (
                    f"{fam_a}-minus-{fam_b}",
                    beta,
                    gamma,
                    table[(fam_a, beta, gamma)] - table[(fam_b, beta, gamma)],
                )
            )
    return out


def rows_to_csv(rows: list[SweepRow]) -> str:
    ordered = sorted(rows, key=lambda r: (r.family, r.beta, r.gamma))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(
            f"{r.family},{float(r.beta)!r},{float(r.gamma)!r},{float(r.fidelity)!r},"
            f"{float(r.infidelity)!r},{float(r.leakage)!r},{float(r.src_residual)!r}"
        )
    return "\n".join(lines) + "\n"


def deltas_to_csv(drows: list[tuple[str, float, float, float]]) -> str:
    lines = [DELTA_HEADER]
    for pair, beta, gamma, delta in drows:
        lines.append(f"{pair},{float(beta)!r},{float(gamma)!r},{float(delta)!r}")
    return "\n".join(lines) + "\n"


def write_text(path: str, text: str) -> None:
    """Write an output file as its ASCII bytes (binary mode, so no text codec is
    looked up); an unwritable path (e.g. a missing directory) is a ConfigError."""
    data = text.encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def report_table1() -> str:
    """Gate times and error-scaling laws of the five NOT constructions.

    Quadratic families report the fitted beta^2 coefficient against its
    analytic value (3% tolerance); super-robust families report the log-log
    slope over beta in [0.02, 0.1] (>= 3.7) and the infidelity at beta = 0.1
    (<= 5e-3).
    """
    spec = GateSpec.not_gate()
    header = (
        f"{'family':<9} {'duration':<10} {'measure':<22} {'value':<12} "
        f"{'expected':<16} status"
    )
    lines = [header, "-" * len(header)]
    for family in FAMILIES:
        schedule, _, u0 = _certified(family, spec)
        dur = f"{schedule.duration / math.pi:.4g}*pi"
        quadratic = family in QUADRATIC_TARGETS
        betas = np.linspace(-0.05, 0.05, 21) if quadratic else np.linspace(0.02, 0.1, 9)
        infs = np.array([1.0 - fid for fid, _ in _closed_gate_metrics(schedule, betas, u0)])
        if quadratic:
            coeff = quadratic_coefficient(betas, infs)
            target = QUADRATIC_TARGETS[family]
            ok = abs(coeff - target) <= 0.03 * target
            lines.append(
                f"{family:<9} {dur:<10} {'beta^2 coefficient':<22} "
                f"{coeff:<12.6f} {target:<16.6f} {'PASS' if ok else 'FAIL'}"
            )
        else:
            slope = order_fit(betas, infs)
            worst = float(infs[-1])  # linspace ends exactly at 0.1
            ok = slope >= 3.7
            lines.append(
                f"{family:<9} {dur:<10} {'log-log slope':<22} "
                f"{slope:<12.4f} {'>= 3.7':<16} {'PASS' if ok else 'FAIL'}"
            )
            lines.append(
                f"{'':<9} {'':<10} {'infidelity at 0.1':<22} "
                f"{worst:<12.3e} {'<= 5e-3':<16} {'PASS' if worst <= 5e-3 else 'FAIL'}"
            )
    return "\n".join(lines) + "\n"


def check_src_report(families=FAMILIES, gate: str = "not") -> tuple[str, bool]:
    """Closed-form phasor sums vs the exact d_matrix segment sums of the SRC
    element; ok only if every sr-* family passes 1e-6."""
    _check_families(families)
    _check_gate(gate)
    spec = NAMED_GATES[gate]
    lines = [f"{'family':<9} {'closed form':<14} {'numeric':<14} {'difference':<12} status"]
    all_ok = True
    for family in families:
        schedule, sol, _ = _certified(family, spec)
        closed = sol.residual_src
        numeric = abs(complex(d_matrix(schedule)[_src_element(schedule)]))
        agree = abs(closed - numeric)
        if family in ("sr-ngqc", "sr-nhqc"):
            ok = closed <= 1e-6 and numeric <= 1e-6
            all_ok = all_ok and ok
            status = "PASS" if ok else "FAIL"
        else:
            status = "info"
        lines.append(
            f"{family:<9} {closed:<14.3e} {numeric:<14.3e} {agree:<12.3e} {status}"
        )
    return "\n".join(lines) + "\n", all_ok
