import numpy as np
import pytest
import scipy.linalg

from comdyn import classical, oracle, qubit
from comdyn.errors import OverflowInExponentialError
from comdyn.superop import SuperOperator
from comdyn.timefn import Constant, DampedTrig

from conftest import random_matrix


def noncommuting_rotation(t):
    """Unitary generator -i [H(t), .] with H(t) rotating in the x-z plane;
    generators at different times genuinely fail to commute."""
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    h = np.cos(t) * sx + np.sin(t) * sz
    eye = np.eye(2)
    return -1j * (np.kron(eye, h) - np.kron(h.T, eye))


# ---------------------------------------------------------------------------
# expm
# ---------------------------------------------------------------------------

def test_expm_of_zero_is_identity():
    assert np.array_equal(oracle.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_nilpotent_truncates():
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.max(np.abs(oracle.expm(nilpotent) - (np.eye(2) + nilpotent))) < 1e-15


def test_expm_inverse(rng):
    m = random_matrix(rng, 4)
    product = oracle.expm(m) @ oracle.expm(-m)
    assert np.max(np.abs(product - np.eye(4))) < 1e-11


def test_expm_superoperator_wrapper():
    op = SuperOperator.zero(2)
    out = oracle.expm(op)
    assert isinstance(out, SuperOperator)
    assert np.array_equal(out.matrix, np.eye(4))


def test_expm_reports_overflow():
    with np.errstate(over="ignore"):
        with pytest.raises(OverflowInExponentialError):
            oracle.expm(2000.0 * np.eye(2))


# ---------------------------------------------------------------------------
# ordered exponential
# ---------------------------------------------------------------------------

def test_ordered_exp_exact_for_constant(rng):
    m = random_matrix(rng, 3)
    for steps in (1, 7):
        out = oracle.ordered_exp(lambda t: m, 0.0, 1.3, steps)
        assert np.max(np.abs(out - oracle.expm(1.3 * m))) < 1e-12


def test_ordered_exp_matches_commuting_closed_form():
    spec = qubit.QubitGeneratorSpec(
        epsilon=Constant(0.3), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.1), Constant(0.0)), (Constant(0.0), Constant(0.2))),
        mu=0.45)
    closed = qubit.propagate(spec, 0.0, 2.0)
    product = oracle.ordered_exp(
        lambda u: qubit.build_generator(spec, u).matrix, 0.0, 2.0, 4096)
    assert np.max(np.abs(closed.matrix - product)) < 1e-7


def test_ordered_exp_detects_ordering_effects():
    t1 = 2.0
    product = oracle.ordered_exp(noncommuting_rotation, 0.0, t1, 4096)
    # naive exp of the integrated generator ignores time ordering
    nodes = np.linspace(0.0, t1, 20001)
    samples = np.stack([noncommuting_rotation(t) for t in nodes])
    integrated = np.trapezoid(samples, nodes, axis=0)
    naive = oracle.expm(integrated)
    assert np.max(np.abs(product - naive)) > 1e-3


def test_richardson_order_two():
    spec = qubit.QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.sin(offset=1.5),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.5)
    closed = qubit.propagate(spec, 0.0, 2.0).matrix

    def run(steps):
        return oracle.ordered_exp(
            lambda u: qubit.build_generator(spec, u).matrix, 0.0, 2.0, steps)

    err_n = np.linalg.norm(run(64) - closed)
    err_2n = np.linalg.norm(run(128) - closed)
    assert 3.0 < err_n / err_2n < 5.5


def test_ordered_exp_of_a_real_generator_is_real():
    a = np.array([[-1.0, 0.5, 0.2], [0.7, -0.9, 0.1], [0.3, 0.4, -0.3]])
    b = np.array([[0.2, -0.1, 0.0], [0.0, 0.3, -0.4], [0.1, 0.0, 0.2]])

    def lfun(u):
        return a + np.sin(u) * b

    steps, t0, t1 = 300, 0.2, 1.7
    product = oracle.ordered_exp(lfun, t0, t1, steps)
    assert product.dtype == np.float64
    h = (t1 - t0) / steps
    reference = np.eye(3, dtype=complex)
    for j in range(steps):
        reference = scipy.linalg.expm(h * lfun(t0 + (j + 0.5) * h)) @ reference
    assert np.max(np.abs(product - reference)) <= 1e-14


@pytest.mark.parametrize("chunk_bytes", [None, 200])
def test_ordered_exp_calls_lfun_once_per_midpoint_in_order(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:  # six 2x2 steps per chunk
        monkeypatch.setattr(oracle, "CHUNK_BYTES", chunk_bytes)
    m = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for steps in (1, 7, 300):
        times = []

        def lfun(u):
            times.append(u)
            return m

        oracle.ordered_exp(lfun, 0.5, 2.0, steps)
        h = 1.5 / steps
        assert times == [0.5 + (j + 0.5) * h for j in range(steps)]


def test_ordered_exp_takes_one_stacked_expm_per_chunk(monkeypatch):
    spec = qubit.QubitGeneratorSpec.constant(epsilon=0.3, gamma=1.0, mu=0.25)
    calls = []
    expm = scipy.linalg.expm

    def counting(m):
        calls.append(m.shape)
        return expm(m)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    steps = 1024
    oracle.ordered_exp(lambda u: qubit.build_generator(spec, u).matrix, 0.0, 1.0, steps)
    chunk = oracle.CHUNK_BYTES // (16 * 4 * 4)
    assert len(calls) == -(-steps // chunk) <= 4
    assert sum(shape[0] for shape in calls) == steps


def test_ordered_exp_overflow_names_the_first_bad_step(monkeypatch):
    # two 2x2 steps per chunk; the generator blows up from t = 0.6 on, so
    # steps 5, 6 and 7 of 8 (midpoints 0.6875, 0.8125, 0.9375) overflow
    # and the witness is step 5, the second of its chunk
    monkeypatch.setattr(oracle, "CHUNK_BYTES", 64)

    def lfun(u):
        return (1e4 if u > 0.6 else 1.0) * np.eye(2)

    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowInExponentialError) as caught:
            oracle.ordered_exp(lfun, 0.0, 1.0, 8)
    assert str(caught.value) == ("matrix exponential overflowed at step 5 of 8 "
                                 "(midpoint t=0.6875, step norm 1.768e+03)")
    assert caught.value.exit_code == 2


# ---------------------------------------------------------------------------
# state evolution
# ---------------------------------------------------------------------------

def test_evolve_state_constant_under_zero_generator():
    rho0 = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    trajectory = oracle.evolve_state(lambda t: SuperOperator.zero(2), rho0,
                                     np.linspace(0, 1, 5), steps_per_unit=16)
    for rho in trajectory:
        assert np.max(np.abs(rho - rho0)) < 1e-13


def test_evolve_state_dephasing_decay():
    rate = 0.8
    spec = qubit.QubitGeneratorSpec.constant(c=((rate, 0.0), (0.0, rate)), mu=0.5)
    rho0 = np.array([[0.6, 0.5], [0.5, 0.4]], dtype=complex)
    times = np.linspace(0.0, 2.0, 9)
    trajectory = oracle.evolve_state(
        lambda t: qubit.build_generator(spec, t), rho0, times,
        steps_per_unit=256)
    for t, rho in zip(times, trajectory):
        expected = 0.5 * np.exp(-rate * t)
        assert abs(rho[0, 1] - expected) < 1e-6
        assert abs(np.trace(rho) - 1.0) < 1e-10
        assert abs(rho[0, 0] - 0.6) < 1e-10


def test_evolve_state_diagonal_matches_classical():
    from comdyn.weyl import WeylCoefficientField, diagonal_action, map_from_coeffs
    values = np.array([-1.3, 0.4, 0.2, 0.0, 0.3, 0.1, 0.2, 0.05, 0.05])
    field = WeylCoefficientField.constant(3, 1, values)
    p0 = np.array([0.5, 0.3, 0.2])
    rho0 = np.diag(p0).astype(complex)
    times = np.linspace(0.0, 1.0, 5)
    trajectory = oracle.evolve_state(
        lambda t: map_from_coeffs(field), rho0, times, steps_per_unit=512)
    pop_gen = diagonal_action(field)
    for t, rho in zip(times, trajectory):
        kernel = classical.propagate(pop_gen, 0.0, float(t))
        expected = classical.convolve(
            kernel, classical.LatticeField(3, 1, p0)).values.real
        assert np.max(np.abs(np.diag(rho).real - expected)) < 1e-6
        assert abs(np.trace(rho) - 1.0) < 1e-10
