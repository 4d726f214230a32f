"""Independent references and per-request correctness checks.

Nothing here imports georobust. The references are built from the physics the
package documents (segment Hamiltonians, frame conventions, Lindblad channels,
the schedule text format), with numpy only:

* exponentials come from a Taylor scaling-and-squaring ``expm`` written here;
* the global-Rabi error matrix uses the exact identity U^dag H U = const inside
  a segment, so D_lab = sum_j tau_j U_{j-1}^dag H_j U_{j-1};
* custom V(t) integrals use Gauss-Legendre quadrature of exact propagators;
* open-system points use the exponential of the Liouvillian of each segment.

Each ``check_*`` function returns None when the outcome is correct and a short
reason string when it is not. A refused request is correct only when the pair
is structurally infeasible and no file was written.
"""

from __future__ import annotations

import math

import numpy as np

# Target rotations exp(i (gamma/2) n.sigma), axis n at polar angle theta and
# azimuth phi, as the README names them.
GATES = {
    "not": (math.pi / 2, 0.0, math.pi),
    "hadamard": (math.pi / 4, 0.0, math.pi),
    "identity": (math.pi / 2, 0.0, 0.0),
    "x90": (math.pi / 2, 0.0, math.pi / 2),
    "z90": (0.0, 0.0, math.pi / 2),
}
FAMILIES = ("dg", "ngqc", "sr-ngqc", "nhqc", "sr-nhqc")
SR_FAMILIES = ("sr-ngqc", "sr-nhqc")
CSV_HEADER = "family,beta,gamma,fidelity,infidelity,leakage,src_residual"
DELTA_HEADER = "pair,beta,gamma,delta_fidelity"
REFUSAL_CODES = (2, 4)

GATE_TOL = 1e-8          # |U_block - e^{i chi} T|_F for a built schedule
LEAK_TOL = 1e-8          # leaked population of a built Lambda schedule
SRC_TOL = 1e-6           # |SRC| of a super-robust schedule
CLOSED_TOL = 1e-10       # closed-system fidelity / leakage against the reference
OPEN_TOL = 1e-8          # open-system fidelity / leakage (RK4 vs exact channel)
SRC_COLUMN_TOL = 1e-9    # src_residual column against the exact |D_frame| element
DMATRIX_TOL = 1e-6       # d_matrix / magnus D_op against the exact integrals
QUAD_ALLOWANCE = 1e-8    # quadrature error allowed on top of the Dyson bound


def feasible(family: str, gate: str) -> bool:
    """Structural reachability of a named gate by a family.

    dg is one resonant segment, so it rotates only about equatorial axes (or
    not at all). sr-ngqc is three equatorial pi rotations; their product is an
    equatorial pi rotation, so only NOT is reachable among the named gates.
    """
    theta, _, gamma = GATES[gate]
    if family == "dg":
        return gamma % (2 * math.pi) < 1e-12 or abs(theta - math.pi / 2) < 1e-12
    if family == "sr-ngqc":
        return abs(theta - math.pi / 2) < 1e-12 and abs(gamma - math.pi) < 1e-12
    return True


def target(gate: str) -> np.ndarray:
    theta, phi, gamma = GATES[gate]
    nx, ny, nz = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)
    n_sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
    return math.cos(gamma / 2) * np.eye(2) + 1j * math.sin(gamma / 2) * n_sigma


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a square matrix or a stack of them: Taylor series after scaling
    the norm below 1/2, then repeated squaring."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    a = a / 2.0**squarings
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    result = eye.copy()
    term = eye.copy()
    for k in range(1, 19):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


class Schedule:
    """A schedule parsed from the documented text format."""

    def __init__(self, text: str):
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        header = dict(tok.split("=", 1) for tok in lines[0])
        self.system = header["system"]
        self.theta = float(header["theta"])
        self.phi = float(header["phi"])
        self.segments = [tuple(float(x) for x in ln) for ln in lines[1:]]
        if self.system not in ("two", "lambda") or any(len(s) != 3 for s in self.segments):
            raise ValueError("malformed schedule text")
        self.dim = 2 if self.system == "two" else 3

    def bright(self) -> np.ndarray:
        h = self.theta / 2
        return np.array([math.sin(h) * np.exp(1j * self.phi), math.cos(h), 0.0])

    def dark(self) -> np.ndarray:
        h = self.theta / 2
        return np.array([math.cos(h) * np.exp(1j * self.phi), -math.sin(h), 0.0])

    def hamiltonians(self) -> list[np.ndarray]:
        """Segment Hamiltonians: (amp/2)(e^{i phase}|0><1| + h.c.) on two
        levels, (amp/2)(e^{-i phase}|b><e| + h.c.) on the Lambda system."""
        out = []
        for _, amp, phase in self.segments:
            if self.system == "two":
                h = np.zeros((2, 2), dtype=complex)
                h[0, 1] = 0.5 * amp * np.exp(1j * phase)
            else:
                exc = np.array([0.0, 0.0, 1.0])
                h = 0.5 * amp * np.exp(-1j * phase) * np.outer(self.bright(), exc)
            out.append(h + h.conj().T)
        return out

    def frame0(self) -> np.ndarray:
        """Co-moving frame vectors at t = 0 (columns), per the documented
        conventions: zeta_1, zeta_2 at alpha = theta with the first segment's
        phase; (|d>, |b>, |e>) for the Lambda system."""
        if self.system == "two":
            c, s = math.cos(self.theta / 2), math.sin(self.theta / 2)
            ph = np.exp(1j * self.segments[0][2]) if self.segments else 1.0
            return np.array([[c, -1j * s * ph], [-1j * s / ph, c]])
        return np.column_stack([self.dark(), self.bright(), np.array([0.0, 0.0, 1.0])])

    def propagators(self, betas) -> np.ndarray:
        """Exact U(beta) for each beta (global Rabi error), shape (n, d, d)."""
        betas = np.atleast_1d(np.asarray(betas, dtype=float))
        u = np.broadcast_to(np.eye(self.dim, dtype=complex), (len(betas), self.dim, self.dim))
        for (dur, _, _), h in zip(self.segments, self.hamiltonians()):
            u = expm(-1j * dur * (1.0 + betas)[:, None, None] * h) @ u
        return u

    def src_element(self, d_frame: np.ndarray) -> complex:
        return complex(d_frame[0, 1] if self.system == "two" else d_frame[1, 2])

    def d_lab_rabi(self) -> np.ndarray:
        """integral U^dag H U dt for the global Rabi error, exactly."""
        u = np.eye(self.dim, dtype=complex)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        for (dur, _, _), h in zip(self.segments, self.hamiltonians()):
            total += dur * (u.conj().T @ h @ u)
            u = expm(-1j * dur * h) @ u
        return total

    def d_frame_rabi(self) -> np.ndarray:
        if not self.segments:
            return np.zeros((self.dim, self.dim), dtype=complex)
        f0 = self.frame0()
        return f0.conj().T @ self.d_lab_rabi() @ f0

    def d_frame_custom(self, v, nodes: int = 32) -> np.ndarray:
        """integral <psi_k|V(t)|psi_m> dt by Gauss-Legendre per segment."""
        if not self.segments:
            return np.zeros((self.dim, self.dim), dtype=complex)
        x, w = np.polynomial.legendre.leggauss(nodes)
        u = np.eye(self.dim, dtype=complex)
        total = np.zeros((self.dim, self.dim), dtype=complex)
        start = 0.0
        for (dur, _, _), h in zip(self.segments, self.hamiltonians()):
            s = 0.5 * dur * (x + 1.0)
            states = expm(-1j * s[:, None, None] * h) @ u
            vt = np.array([v(start + si) for si in s])
            integrand = np.einsum("tji,tjk,tkm->tim", states.conj(), vt, states)
            total += 0.5 * dur * np.einsum("t,tij->ij", w, integrand)
            u = expm(-1j * dur * h) @ u
            start += dur
        f0 = self.frame0()
        return f0.conj().T @ total @ f0


def detuning(system: str, params):
    """Detuning error V(t) = (a + b cos(w t + p)) P, with P = |1><1| on two
    levels and |e><e| on the Lambda system."""
    a, b, w, p = params
    dim = 2 if system == "two" else 3
    proj = np.zeros((dim, dim), dtype=complex)
    proj[dim - 1, dim - 1] = 1.0
    return lambda t: (a + b * math.cos(w * t + p)) * proj


def channels(system: str, gamma: float):
    """Relaxation and dephasing at rate gamma (README): two levels |0><1| and
    |1><1|; Lambda |0><e| and |1><e| at gamma/2 each plus |e><e|."""
    def op(dim, i, j):
        m = np.zeros((dim, dim), dtype=complex)
        m[i, j] = 1.0
        return m
    if system == "two":
        return [(gamma, op(2, 0, 1)), (gamma, op(2, 1, 1))]
    return [(gamma / 2, op(3, 0, 2)), (gamma / 2, op(3, 1, 2)), (gamma, op(3, 2, 2))]


def liouvillian(h: np.ndarray, chans) -> np.ndarray:
    """Generator acting on row-major vec(rho): vec(A rho B) = (A kron B^T) vec(rho)."""
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, c in chans:
        cdc = c.conj().T @ c
        gen = gen + rate * (np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T))
    return gen


def cardinal_states(dim: int) -> np.ndarray:
    r = 1 / math.sqrt(2)
    pairs = [(1, 0), (0, 1), (r, r), (r, -r), (r, 1j * r), (r, -1j * r)]
    out = np.zeros((6, dim), dtype=complex)
    out[:, :2] = pairs
    return out


def open_metrics(sched: Schedule, beta: float, gamma: float) -> tuple[float, float]:
    """(mean cardinal-state fidelity, mean leaked population) under the
    exact Lindblad channel of each segment."""
    d = sched.dim
    psis = cardinal_states(d)
    rho = np.einsum("ki,kj->kij", psis, psis.conj()).reshape(6, d * d)
    chans = channels(sched.system, gamma)
    for (dur, _, _), h in zip(sched.segments, sched.hamiltonians()):
        rho = rho @ expm(dur * liouvillian((1.0 + beta) * h, chans)).T
    rho = rho.reshape(6, d, d)
    targets = psis @ sched.propagators([0.0])[0].T
    fid = np.einsum("ki,kij,kj->k", targets.conj(), rho, targets).real
    leak = np.einsum("kii->ki", rho).real[:, 2:].sum(axis=1)
    return float(fid.mean()), float(leak.mean())


def closed_metrics(sched: Schedule, betas) -> tuple[np.ndarray, np.ndarray]:
    """(trace fidelity, leaked population) of U(beta) against U(0)."""
    betas = np.asarray(betas, dtype=float)
    u = sched.propagators(np.concatenate([[0.0], betas]))
    fid = np.abs(np.einsum("ji,bji->b", u[0].conj(), u[1:])) / sched.dim
    if sched.dim == 2:
        return fid, np.zeros(len(betas))
    return fid, 0.5 * (np.abs(u[1:, 2, 0]) ** 2 + np.abs(u[1:, 2, 1]) ** 2)


def dg_fidelity(gate: str, betas) -> np.ndarray:
    """dg is one segment of area gamma: F = |cos(gamma * beta / 2)|."""
    gamma = GATES[gate][2]
    return np.abs(np.cos(gamma * np.asarray(betas, dtype=float) / 2))


def check_schedule(sched: Schedule, family: str, gate: str) -> str | None:
    """A built schedule realizes the target up to global phase, leaks nothing
    and, for sr-* families, satisfies the SRC."""
    u = sched.propagators([0.0])[0]
    t2 = target(gate)
    block = u[:2, :2]
    tr = np.trace(t2.conj().T @ block)
    chi = np.angle(tr) if abs(tr) > 1e-12 else 0.0
    err = float(np.linalg.norm(block - np.exp(1j * chi) * t2))
    if err > GATE_TOL:
        return f"{family}/{gate}: gate error {err:.3e} > {GATE_TOL:g}"
    if sched.dim == 3:
        leak = 0.5 * (abs(u[2, 0]) ** 2 + abs(u[2, 1]) ** 2)
        if leak > LEAK_TOL:
            return f"{family}/{gate}: leakage {leak:.3e} > {LEAK_TOL:g}"
    if family in SR_FAMILIES:
        src = abs(sched.src_element(sched.d_frame_rabi()))
        if src > SRC_TOL:
            return f"{family}/{gate}: |SRC| {src:.3e} > {SRC_TOL:g}"
    return None


def check_build(req, exit_code: int, out_text: str | None) -> str | None:
    fam, gate = req["family"], req["gate"]
    if not feasible(fam, gate):
        if exit_code not in REFUSAL_CODES:
            return f"infeasible {fam}/{gate}: exit {exit_code}, expected 2 or 4"
        if out_text is not None:
            return f"infeasible {fam}/{gate}: a schedule was written"
        return None
    if exit_code != 0:
        return f"feasible {fam}/{gate}: exit {exit_code}"
    if out_text is None:
        return f"{fam}/{gate}: no schedule written"
    try:
        sched = Schedule(out_text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{fam}/{gate}: unreadable schedule ({exc})"
    return check_schedule(sched, fam, gate)


def _parse_csv(text: str, header: str):
    lines = text.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("bad header or missing final newline")
    return [ln.split(",") for ln in lines[1:-1]]


def check_sweep(req, exit_code: int, out_text: str | None, sched: Schedule,
                delta_text: str | None = None) -> str | None:
    """Rows of a sweep-beta / sweep-grid CSV against the references."""
    if exit_code != 0 or out_text is None:
        return f"sweep exit {exit_code}, output {'present' if out_text else 'missing'}"
    fam, gate = req["family"], req["gate"]
    betas = np.asarray(req["betas"], dtype=float)
    gammas = sorted(req["gammas"])
    try:
        rows = _parse_csv(out_text, CSV_HEADER)
    except ValueError as exc:
        return f"csv: {exc}"
    if len(rows) != len(betas) * len(gammas):
        return f"csv: {len(rows)} rows, expected {len(betas) * len(gammas)}"
    keys = [(b, g) for b in betas for g in gammas]
    if fam == "dg":
        closed_fid = dg_fidelity(gate, betas)
        closed_leak = np.zeros(len(betas))
    else:
        closed_fid, closed_leak = closed_metrics(sched, betas)
    src = abs(sched.src_element(sched.d_frame_rabi())) if sched.segments else 0.0
    for i, (row, (beta, gamma)) in enumerate(zip(rows, keys)):
        if len(row) != 7 or row[0] != fam:
            return f"row {i}: malformed {row!r}"
        vals = [float(x) for x in row[1:]]
        if abs(vals[0] - beta) > 1e-12 or vals[1] != gamma:
            return f"row {i}: (beta, gamma) = ({vals[0]}, {vals[1]}), expected ({beta}, {gamma})"
        if gamma == 0.0:
            ref_f, ref_l, tol = closed_fid[i // len(gammas)], closed_leak[i // len(gammas)], CLOSED_TOL
        else:
            ref_f, ref_l = open_metrics(sched, beta, gamma)
            tol = OPEN_TOL
        if abs(vals[2] - ref_f) > tol:
            return f"row {i}: fidelity {vals[2]!r} vs reference {ref_f!r}"
        if abs(vals[3] - (1.0 - vals[2])) > 1e-15:
            return f"row {i}: infidelity {vals[3]!r} is not 1 - fidelity"
        if abs(vals[4] - ref_l) > tol:
            return f"row {i}: leakage {vals[4]!r} vs reference {ref_l!r}"
        if abs(vals[5] - src) > SRC_COLUMN_TOL:
            return f"row {i}: src_residual {vals[5]!r} vs reference {src!r}"
    if delta_text is not None:
        try:
            if _parse_csv(delta_text, DELTA_HEADER):
                return "delta csv: rows for a single-family sweep"
        except ValueError as exc:
            return f"delta csv: {exc}"
    return None


# criterion 06: closed form vs numeric agree within these, by system
_SRC_AGREE_TOL = {"two": 1e-7, "lambda": 1e-8}


def check_src_report(req, exit_code: int, stdout: str, sched: Schedule) -> str | None:
    fam = req["family"]
    if exit_code != 0:
        return f"check-src exit {exit_code}"
    lines = [ln.split() for ln in stdout.splitlines() if ln.strip()]
    if len(lines) != 2 or lines[0][0] != "family" or lines[1][0] != fam or len(lines[1]) != 5:
        return f"check-src: unexpected output {stdout!r}"
    closed, numeric, diff = (float(x) for x in lines[1][1:4])
    status = lines[1][4]
    ref = abs(sched.src_element(sched.d_frame_rabi()))
    expected_status = "PASS" if fam in SR_FAMILIES else "info"
    if status != expected_status:
        return f"check-src: status {status}, expected {expected_status}"
    # values are printed with 4 significant digits
    for name, val in (("closed form", closed), ("numeric", numeric)):
        if abs(val - ref) > max(1e-3 * ref, 1e-9):
            return f"check-src: {name} {val!r} vs reference {ref!r}"
    if diff > _SRC_AGREE_TOL[sched.system]:
        return f"check-src: closed-vs-numeric {diff!r} > {_SRC_AGREE_TOL[sched.system]:g}"
    return None


def check_d_matrix(req, value, sched: Schedule) -> str | None:
    value = np.asarray(value)
    if req["op"] == "d_matrix_custom":
        ref = sched.d_frame_custom(detuning(sched.system, req["detuning"]))
    else:
        ref = sched.d_frame_rabi()
    if value.shape != ref.shape:
        return f"d_matrix shape {value.shape}, expected {ref.shape}"
    err = float(np.max(np.abs(value - ref)))
    if not err <= DMATRIX_TOL:
        return f"{req['op']}: max deviation {err:.3e} > {DMATRIX_TOL:g}"
    return None


def check_magnus(req, value, sched: Schedule) -> str | None:
    """D_op equals the exact integral, and U0 (1 - i b D - b^2/2 G) matches
    the exact U(b) within the Dyson remainder bound sum_{n>=3} (b L)^n / n!,
    L = sum_j tau_j |H_j| (spectral norm)."""
    d_op, g_op = (np.asarray(v) for v in value)
    ref_d = sched.d_lab_rabi()
    err_d = float(np.max(np.abs(d_op - ref_d))) if d_op.shape == ref_d.shape else math.inf
    if not err_d <= DMATRIX_TOL:
        return f"magnus D_op: deviation {err_d:.3e} > {DMATRIX_TOL:g}"
    beta = req["beta"]
    u0, ub = sched.propagators([0.0, beta])
    approx = u0 @ (np.eye(sched.dim) - 1j * beta * d_op - 0.5 * beta**2 * g_op)
    err = float(np.linalg.norm(ub - approx, 2))
    lam = abs(beta) * sum(dur * np.linalg.norm(h, 2)
                          for (dur, _, _), h in zip(sched.segments, sched.hamiltonians()))
    bound = math.exp(lam) - 1 - lam - lam**2 / 2 + QUAD_ALLOWANCE
    if not err <= bound:
        return f"magnus: |U(b) - approx| {err:.3e} > third-order bound {bound:.3e} at b={beta}"
    return None
