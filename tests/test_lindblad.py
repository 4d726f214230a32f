"""Open-system propagation: collapse channels, the master equation right-hand
side, density-matrix invariants, the stacked exact channels against their
per-segment construction and against a Kronecker-product reference, and
the cardinal-state gate metrics."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from georobust import (
    NAMED_GATES,
    CollapseChannel,
    GateSpec,
    InvariantError,
    PulseSchedule,
    PulseSegment,
    cardinal_states,
    check_density,
    family_build,
    lindblad_rhs,
    open_gate_metrics,
    propagate_density,
    schedule_propagator,
    segment_hamiltonian,
    standard_channels,
)
from georobust import lindblad
from georobust.lindblad import _expm, _open_gate_metrics, _propagate, _segment_channels
from oracles import FEASIBLE_PAIRS, kron_liouvillian, open_scores_per_beta, segment_channels

NOT = GateSpec.not_gate()
PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_collapse_channel_validation():
    CollapseChannel(0.1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CollapseChannel(-0.1, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        CollapseChannel(0.1, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        CollapseChannel(0.1, np.full((2, 2), np.nan))


def test_standard_channels_layout():
    two = standard_channels("two", 1e-4, 2e-4)
    assert len(two) == 2
    assert two[0].operator.shape == (2, 2)
    lam = standard_channels("lambda", 1e-4, 2e-4)
    assert len(lam) == 3
    # the excited level decays into both qubit states at half rate each
    rates = sorted(ch.rate for ch in lam)
    assert rates == pytest.approx([5e-5, 5e-5, 2e-4])
    for ch in lam:
        assert ch.operator.shape == (3, 3)


def test_rhs_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for system, dim in (("two", 2), ("lambda", 3)):
        channels = standard_channels(system, 3e-4, 1e-4)
        ham = random_density(rng, dim)  # any hermitian works as a test H
        for _ in range(4):
            rho = random_density(rng, dim)
            drho = lindblad_rhs(rho, ham, channels)
            assert abs(np.trace(drho)) < 1e-12
            np.testing.assert_allclose(drho, drho.conj().T, atol=1e-12)


def test_rhs_dimension_mismatch():
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(2) / 2, np.eye(3, dtype=complex))
    with pytest.raises(ValueError):
        lindblad_rhs(np.eye(2) / 2, np.eye(2, dtype=complex), standard_channels("lambda", 1e-4, 0.0))


def test_check_density_rejects_bad_input():
    check_density(np.eye(2) / 2)
    with pytest.raises(InvariantError):
        check_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(InvariantError):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(InvariantError):
        check_density(np.diag([1.5, -0.5]).astype(complex))  # negative weight


@pytest.mark.parametrize(
    "bad,match",
    [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), r"\(state 2\) not Hermitian"),
        (np.eye(2), r"\(state 2\) trace deviates"),
        (np.diag([1.5, -0.5]), r"\(state 2\) has negative eigenvalue"),
    ],
    ids=["hermitian", "trace", "positivity"],
)
def test_check_density_names_first_bad_state_of_a_stack(bad, match):
    good = random_density(np.random.default_rng(5), 2)
    check_density(np.array([good, good]))
    stack = np.array([good, good, bad, bad], dtype=complex)
    with pytest.raises(InvariantError, match=match):
        check_density(stack, name="rho")
    with pytest.raises(ValueError, match="got shape"):
        check_density(np.ones(4))


def test_propagate_density_checks_each_segment_once(monkeypatch):
    sched = family_build("sr-nhqc", NOT)
    seen = []
    real = lindblad.check_density

    def counting(rho, name="density matrix"):
        seen.append(np.shape(rho))
        real(rho, name)

    monkeypatch.setattr(lindblad, "check_density", counting)
    open_gate_metrics(sched, standard_channels("lambda", 1e-4, 1e-4))
    assert seen == [((1 + len(sched.segments)) * 6, 3, 3)]


def corrupt_segments(monkeypatch, bad):
    """Make _segment_channels add value to entry (row, col) of the channel of
    segment j at beta index b, for each (j, b): (row, col, value) in bad; the
    image of matrix unit `row` gains `value` at entry `col`."""
    real = lindblad._segment_channels

    def corrupted(schedule, channels, betas):
        chans = real(schedule, channels, betas)
        for (j, b), (row, col, value) in bad.items():
            chans[j, b, row, col] += value
        return chans

    monkeypatch.setattr(lindblad, "_segment_channels", corrupted)


def test_propagate_names_earliest_failing_segment_and_state(monkeypatch):
    # three undriven segments without decay leave every state in place. At
    # segment 1 the image of |1><1| (vec row 3) gains trace, so |1> (state 1)
    # is the first to fail; segment 2 breaks hermiticity for every state,
    # which one check of the whole stack meets first, but later in
    # propagation order.
    sched = PulseSchedule("two", (PulseSegment(1.0, 0.0, 0.0),) * 3)
    rho0 = cardinal_densities(2)
    corrupt_segments(monkeypatch, {(1, 0): (3, 0, 0.5), (2, 0): (0, 1, 0.3)})
    with pytest.raises(InvariantError,
                       match=r"^density matrix after segment 1 \(state 1\) trace deviates"):
        _propagate(sched, rho0, (), (0.0,))
    with pytest.raises(InvariantError, match=r"^initial density matrix \(state 0\) trace"):
        _propagate(sched, 2.0 * rho0, (), (0.0,))
    # states are numbered beta-major: |1> at the second beta is state 6 + 1
    monkeypatch.undo()
    corrupt_segments(monkeypatch, {(1, 1): (3, 0, 0.5), (2, 0): (0, 1, 0.3)})
    with pytest.raises(InvariantError,
                       match=r"^density matrix after segment 1 \(state 7\) trace deviates"):
        _propagate(sched, rho0, (), (0.0, 0.01))


def test_propagate_density_input_validation():
    sched = family_build("dg", NOT)
    with pytest.raises(InvariantError, match=r"^initial density matrix trace deviates"):
        propagate_density(sched, np.eye(2).astype(complex))


def test_zero_rates_match_unitary_evolution():
    for fam in ("dg", "nhqc"):
        sched = family_build(fam, NOT)
        dim = sched.dim
        psi = np.zeros(dim, dtype=complex)
        psi[0] = 1.0
        rho = np.outer(psi, psi.conj())
        rho_tau = propagate_density(sched, rho, ())
        u = schedule_propagator(sched)
        expect = np.outer(u @ psi, (u @ psi).conj())
        np.testing.assert_allclose(rho_tau, expect, atol=1e-7, err_msg=fam)


def test_pure_dephasing_closed_form():
    # no drive, only |1><1| at rate gamma2: coherence decays as e^(-gamma2 t / 2)
    gamma2 = 0.02
    duration = 30.0
    sched = PulseSchedule("two", (PulseSegment(duration, 0.0, 0.0),))
    channels = (CollapseChannel(gamma2, np.diag([0.0, 1.0]).astype(complex)),)
    rho0 = np.full((2, 2), 0.5, dtype=complex)
    rho_tau = propagate_density(sched, rho0, channels)
    expect = 0.5 * math.exp(-gamma2 * duration / 2.0)
    assert rho_tau[0, 1].real == pytest.approx(expect, abs=1e-12)
    assert abs(rho_tau[0, 1].imag) < 1e-12
    np.testing.assert_allclose(np.diag(rho_tau).real, [0.5, 0.5], atol=1e-10)


def test_amplitude_damping_closed_form():
    # no drive, |0><1| at rate gamma1: excited population decays as e^(-gamma1 t)
    gamma1 = 0.05
    duration = 20.0
    sched = PulseSchedule("two", (PulseSegment(duration, 0.0, 0.0),))
    channels = (CollapseChannel(gamma1, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),)
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    rho_tau = propagate_density(sched, rho0, channels)
    assert rho_tau[1, 1].real == pytest.approx(math.exp(-gamma1 * duration), abs=1e-12)
    assert rho_tau[0, 0].real == pytest.approx(1.0 - math.exp(-gamma1 * duration), abs=1e-12)


def test_propagate_density_stack():
    sched = family_build("dg", NOT)
    rng = np.random.default_rng(3)
    stack = np.array([random_density(rng, 2) for _ in range(4)])
    out = propagate_density(sched, stack, standard_channels("two", 1e-4, 1e-4))
    assert out.shape == (4, 2, 2)
    single = propagate_density(sched, stack[2], standard_channels("two", 1e-4, 1e-4))
    np.testing.assert_allclose(out[2], single, atol=1e-12)


def test_cardinal_states():
    states = cardinal_states(3)
    assert states.shape == (6, 3)
    np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-12)
    # nothing starts in the excited level
    np.testing.assert_allclose(states[:, 2], 0.0, atol=0)


def test_open_metrics_zero_rates_are_ideal():
    for fam in ("dg", "nhqc"):
        sched = family_build(fam, NOT)
        fid, leak = open_gate_metrics(sched, (), beta=0.0)
        assert fid == pytest.approx(1.0, abs=1e-7), fam
        assert leak < 1e-7, fam


def test_open_metrics_match_manual_average():
    # cross-check the einsum bookkeeping against an explicit loop
    sched = family_build("dg", NOT)
    channels = standard_channels("two", 2e-4, 2e-4)
    fid, _ = open_gate_metrics(sched, channels, beta=0.02)
    u0 = schedule_propagator(sched)
    total = 0.0
    for psi in cardinal_states(2):
        rho = np.outer(psi, psi.conj())
        rho_tau = propagate_density(sched, rho, channels, beta=0.02)
        target = u0 @ psi
        total += float(np.real(target.conj() @ rho_tau @ target))
    assert fid == pytest.approx(total / 6.0, abs=1e-12)


def test_decoherence_cost_grows_with_duration():
    # at beta = 0 the only infidelity source is the decoherence exposure, so
    # the longer loops always lose: dg (pi) < ngqc (2 pi) < sr-ngqc (3 pi)
    gamma = 1e-4
    infids = []
    for fam in ("dg", "ngqc", "sr-ngqc"):
        sched = family_build(fam, NOT)
        fid = open_gate_metrics(sched, standard_channels("two", gamma, gamma))[0]
        infids.append(1.0 - fid)
    assert infids[0] < infids[1] < infids[2]
    # scale check: infidelity stays within a factor of the gamma * duration scale
    for fam, infid in zip(("dg", "ngqc", "sr-ngqc"), infids):
        duration = family_build(fam, NOT).duration
        assert 0.1 * gamma * duration < infid < 2.0 * gamma * duration, fam


def test_lambda_open_system_reports_leakage():
    sched = family_build("nhqc", NOT)
    _, leak = open_gate_metrics(sched, standard_channels("lambda", 1e-3, 0.0))
    assert 0.0 < leak < 0.05


def cardinal_densities(dim):
    psis = cardinal_states(dim)
    return np.einsum("ki,kj->kij", psis, psis.conj())


def test_expm_matches_scipy():
    rng = np.random.default_rng(5)
    assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex)), np.eye(4))
    for dim in (4, 9):
        for norm in (0.3, 0.5, 50.0):  # 0.3 and 0.5 need no squaring, 50 needs 7
            mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mat *= norm / np.linalg.norm(mat, 1)
            ref = scipy.linalg.expm(mat)
            err = np.linalg.norm(_expm(mat) - ref) / np.linalg.norm(ref)
            assert err < 1e-12, (dim, norm, err)


def test_stacked_expm_matches_each_member():
    # norms on both sides of 1/2, 1 and 2 give the members 0, 1, 2 and 3
    # squarings, so the stack squares some members more often than others
    rng = np.random.default_rng(11)
    norms = (0.0, 0.3, 0.49, 0.51, 0.99, 1.01, 1.9, 2.1, 50.0)
    for dim in (4, 9):
        mats = rng.normal(size=(len(norms), dim, dim)) + 1j * rng.normal(size=(len(norms), dim, dim))
        mats *= np.array(norms)[:, None, None] / np.abs(mats).sum(axis=1).max(axis=1)[:, None, None]
        stacked = _expm(mats)
        assert stacked.shape == mats.shape
        for mat, out in zip(mats, stacked):
            assert np.array_equal(out, _expm(mat)), dim
        assert np.array_equal(_expm(mats[::-1]), stacked[::-1])


def test_batched_open_metrics_match_single_beta():
    betas = [-0.1, -0.03, 0.0, 0.02, 0.1]
    for fam, gate in FEASIBLE_PAIRS:
        sched = family_build(fam, NAMED_GATES[gate])
        for gamma in (1e-4, 1e-2):
            chans = standard_channels(sched.system, gamma, gamma)
            batched = _open_gate_metrics(sched, chans, betas, schedule_propagator(sched))
            single = [open_gate_metrics(sched, chans, beta=b) for b in betas]
            assert batched == single, (fam, gate, gamma)


@pytest.mark.parametrize("fam,gate", FEASIBLE_PAIRS)
@settings(max_examples=6, derandomize=True, database=None, deadline=None)
@given(log_gamma=st.floats(min_value=-5.0, max_value=1.0),
       betas=st.lists(st.floats(min_value=-0.1, max_value=0.1), min_size=1, max_size=64))
def test_block_scoring_matches_per_beta_loop(fam, gate, log_gamma, betas):
    # one einsum over the block scores each beta with the bits of the
    # per-beta loop, at rates from 1e-5 (near-ideal) to 10 (relaxed)
    sched = family_build(fam, NAMED_GATES[gate])
    u0 = schedule_propagator(sched)
    chans = standard_channels(sched.system, 10.0**log_gamma, 10.0**log_gamma)
    block = _open_gate_metrics(sched, chans, betas, u0)
    loop = open_scores_per_beta(u0, _propagate(sched, cardinal_densities(sched.dim), chans, betas))
    assert np.array_equal(np.array(block), np.array(loop))


def test_exact_channel_matches_kron_liouvillian():
    assert len(FEASIBLE_PAIRS) == 19
    for fam, gate in FEASIBLE_PAIRS:
        sched = family_build(fam, NAMED_GATES[gate])
        rho0 = cardinal_densities(sched.dim)
        for gamma in (1e-4, 1e-2):
            chans = standard_channels(sched.system, gamma, gamma)
            for beta in (0.0, 0.03):
                flat = rho0.reshape(6, -1)
                for seg in sched.segments:
                    ham = segment_hamiltonian(sched, seg, scale=1.0 + beta)
                    flat = flat @ scipy.linalg.expm(seg.duration * kron_liouvillian(ham, chans)).T
                ref = flat.reshape(rho0.shape)
                exact = propagate_density(sched, rho0, chans, beta=beta)
                np.testing.assert_allclose(exact, ref, rtol=0, atol=1e-12,
                                           err_msg=f"{fam} {gate} {gamma} {beta}")


def unit_interval():
    return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@PROPERTY
@given(system=st.sampled_from(["two", "lambda"]), gamma1=unit_interval(), gamma2=unit_interval(),
       duration=st.floats(min_value=1e-3, max_value=4 * math.pi),
       amplitude=st.floats(min_value=0.0, max_value=2.0),
       phase=st.floats(min_value=-math.pi, max_value=math.pi),
       theta=st.floats(min_value=0.0, max_value=math.pi),
       phi=st.floats(min_value=-math.pi, max_value=math.pi))
def test_segment_channel_is_trace_preserving_and_completely_positive(
        system, gamma1, gamma2, duration, amplitude, phase, theta, phi):
    seg = PulseSegment(duration, amplitude, phase)
    sched = PulseSchedule(system, (seg,), theta=theta, phi=phi if system == "lambda" else 0.0)
    d = sched.dim
    chans = _segment_channels(sched, standard_channels(system, gamma1, gamma2), (0.0,))
    assert chans.shape == (1, 1, d * d, d * d)
    chan = chans[0, 0]
    # Tr(rho') = vec(rho) . (chan @ vec(1)), so trace preservation is chan @ vec(1) = vec(1)
    vec_eye = np.eye(d).reshape(-1)
    assert np.max(np.abs(chan @ vec_eye - vec_eye)) <= 1e-12
    # Choi matrix: block (i, j) is the image of the matrix unit |i><j|
    choi = chan.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    assert np.max(np.abs(choi - choi.conj().T)) <= 1e-12
    assert np.linalg.eigvalsh(0.5 * (choi + choi.conj().T)).min() >= -1e-12


@PROPERTY
@given(system=st.sampled_from(["two", "lambda"]),
       durations=st.lists(st.floats(min_value=1e-3, max_value=4 * math.pi),
                          min_size=1, max_size=5, unique=True),
       amplitudes=st.lists(st.floats(min_value=0.0, max_value=3.0),
                           min_size=5, max_size=5, unique=True),
       phases=st.lists(st.floats(min_value=-math.pi, max_value=math.pi), min_size=5, max_size=5),
       betas=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=4),
       gamma=st.floats(min_value=0.0, max_value=1.0),
       theta=st.floats(min_value=0.0, max_value=math.pi),
       phi=st.floats(min_value=-math.pi, max_value=math.pi))
def test_segment_channels_stack_matches_per_segment_oracle(
        system, durations, amplitudes, phases, betas, gamma, theta, phi):
    # unequal durations and amplitudes give the members of the stack their
    # own squaring counts, so some are squared more often than others
    segs = tuple(PulseSegment(t, a, p) for t, a, p in zip(durations, amplitudes, phases))
    sched = PulseSchedule(system, segs, theta=theta, phi=phi if system == "lambda" else 0.0)
    chans = standard_channels(system, gamma, gamma / 2)
    stacked = _segment_channels(sched, chans, betas)
    assert stacked.shape == (len(segs), len(betas), sched.dim**2, sched.dim**2)
    assert np.array_equal(stacked, segment_channels(sched, chans, betas))


def test_segment_channels_of_an_empty_schedule():
    sched = family_build("dg", GateSpec.identity())
    assert _segment_channels(sched, standard_channels("two", 1e-3, 1e-3), (0.0, 0.1)).shape == (
        0, 2, 4, 4)
    rho0 = cardinal_densities(2)
    assert np.array_equal(_propagate(sched, rho0, (), (0.0, 0.1)), np.array([rho0, rho0]))
