"""The reference validators, Hermitian exponential and direct time-stepping
integrator in oracles.py that other tests compare the package against."""

import math

import numpy as np
import pytest

from georobust import InvariantError
from oracles import (
    TimeGrid,
    check_hermitian,
    check_unitary,
    mat_exp_hermitian,
    propagate_state,
    propagate_unitary,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def series_exp(mat, terms=80):
    """Matrix exponential by plain Taylor summation, independent of eigh."""
    out = np.eye(mat.shape[0], dtype=complex)
    term = np.eye(mat.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ mat / k
        out = out + term
    return out


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


def test_timegrid_properties():
    grid = TimeGrid(0.0, 2.0, 4)
    assert grid.step == pytest.approx(0.5)
    np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_timegrid_rejects_bad_input():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, -3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 10)


def test_check_hermitian_accepts_and_rejects():
    check_hermitian(SX)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(InvariantError) as exc:
        check_hermitian(bad, name="drive")
    assert "drive" in str(exc.value)


def test_check_unitary_accepts_and_rejects():
    check_unitary(mat_exp_hermitian(SX, 0.3))
    with pytest.raises(InvariantError):
        check_unitary(1.01 * np.eye(2, dtype=complex))


def test_mat_exp_pi_pulse():
    # exp(-i (pi/2) sigma_x) = -i sigma_x
    u = mat_exp_hermitian(0.5 * SX, math.pi)
    np.testing.assert_allclose(u, -1j * SX, atol=1e-12)


def test_mat_exp_matches_taylor_series():
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(4):
            ham = random_hermitian(rng, dim)
            scale = float(rng.uniform(0.1, 1.2))
            ref = series_exp(-1j * scale * ham)
            np.testing.assert_allclose(mat_exp_hermitian(ham, scale), ref, atol=1e-10)


def test_mat_exp_is_unitary_and_inverts():
    rng = np.random.default_rng(11)
    ham = random_hermitian(rng, 3)
    u = mat_exp_hermitian(ham, 0.9)
    check_unitary(u)
    np.testing.assert_allclose(u @ mat_exp_hermitian(ham, -0.9), np.eye(3), atol=1e-12)


def rotating_field(t):
    return 0.5 * (math.cos(0.7 * t) * SX + math.sin(0.7 * t) * SY)


def test_propagate_constant_hamiltonian_exact():
    # with H constant every step exponential is exact, any step count works
    u = propagate_unitary(lambda t: 0.5 * SX, TimeGrid(0.0, math.pi, 3))
    np.testing.assert_allclose(u, -1j * SX, atol=1e-12)


def test_propagate_unitary_composition():
    # splitting the interval reproduces the same midpoint samples
    whole = propagate_unitary(rotating_field, TimeGrid(0.0, 2.0, 800))
    first = propagate_unitary(rotating_field, TimeGrid(0.0, 1.0, 400))
    second = propagate_unitary(rotating_field, TimeGrid(1.0, 2.0, 400))
    np.testing.assert_allclose(second @ first, whole, atol=1e-12)


def test_propagate_unitary_second_order_convergence():
    ref = propagate_unitary(rotating_field, TimeGrid(0.0, 4.0, 6400))
    err = []
    for steps in (100, 200, 400):
        u = propagate_unitary(rotating_field, TimeGrid(0.0, 4.0, steps))
        err.append(np.linalg.norm(u - ref))
    # midpoint exponential stepping halves the error by 4x per refinement
    assert 3.5 < err[0] / err[1] < 4.5
    assert 3.5 < err[1] / err[2] < 4.5


def test_propagate_rejects_nonfinite_hamiltonian():
    def bad(t):
        return np.full((2, 2), np.nan)

    with pytest.raises(ValueError):
        propagate_unitary(bad, TimeGrid(0.0, 1.0, 10))


def test_propagate_rejects_nonsquare_hamiltonian():
    with pytest.raises(ValueError):
        propagate_unitary(lambda t: np.zeros((2, 3)), TimeGrid(0.0, 1.0, 10))


def test_propagate_state_matches_unitary():
    psi0 = np.array([1.0, 0.0], dtype=complex)
    grid = TimeGrid(0.0, 2.0, 300)
    times, traj = propagate_state(rotating_field, grid, psi0)
    u = propagate_unitary(rotating_field, grid)
    np.testing.assert_allclose(traj[-1], u @ psi0, atol=1e-12)
    norms = np.linalg.norm(traj, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-10)
    assert traj.shape == (301, 2)
    assert len(times) == 301
