"""Dense linear algebra for small driven systems: the Hermitian check and
the Hermitian matrix exponential.

Everything operates on plain complex ndarrays of shape (d, d), with d = 2 or 3
in practice. Schedules are piecewise constant, so their propagators are
products of segment exponentials (pulses.segment_propagator) and need no time
stepping here.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantError

HERMITIAN_TOL = 1e-12


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
    """Return exp(-1j * scale * ham) for a Hermitian matrix, via eigendecomposition.

    Exact up to the eigensolver's accuracy; used for the step exponentials of
    the custom-V(t) quadrature in robustness.d_matrix and magnus_terms.
    """
    ham = np.asarray(ham, dtype=complex)
    check_hermitian(ham, name="mat_exp_hermitian argument")
    w, v = np.linalg.eigh(ham)
    return (v * np.exp(-1j * scale * w)) @ v.conj().T
