from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from comdyn import oracle
from comdyn.errors import OverflowInExponentialError, PreconditionFailedError
from comdyn.qubit import (E00, E11, HERMITIAN_TOL, IDENTITY2, SIGMA3, SIGMA_MINUS,
                          SIGMA_PLUS, QubitGeneratorSpec, _modes, _require_hermitian,
                          _sign_check, build_generator, classify, damping_basis,
                          gamma_eigenvalue, propagate, spectral_projector,
                          v_conjugation)
from comdyn.superop import DEFAULT_TOL, SuperOperator, validate_channel
from comdyn.classical import condition_grid
from comdyn.timefn import Constant, DampedTrig, Polynomial

from conftest import multiset_residual, random_matrix


# ---------------------------------------------------------------------------
# damping basis
# ---------------------------------------------------------------------------

def test_damping_basis_exact_rational_biorthogonality():
    for mu in (Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 11)):
        g, h = damping_basis(mu)
        for a in range(4):
            for b in range(4):
                # entries are rational, so the adjoint is the plain transpose
                value = sum(g[a][j, i] * h[b][j, i]
                            for i in range(2) for j in range(2))
                assert value == (1 if a == b else 0)


def test_damping_basis_floats():
    g, h = damping_basis(0.3)
    gram = np.array([[np.vdot(g[a], h[b]) for b in range(4)] for a in range(4)])
    assert np.max(np.abs(gram - np.eye(4))) < 1e-15


def test_conventions():
    assert np.array_equal(SIGMA_PLUS @ SIGMA_MINUS, E11)   # pi_1
    assert np.array_equal(SIGMA_MINUS @ SIGMA_PLUS, E00)   # pi_0
    assert np.array_equal(SIGMA3, E11 - E00)


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------

def test_zero_spec_gives_zero_generator():
    spec = QubitGeneratorSpec.constant()
    assert np.max(np.abs(build_generator(spec).matrix)) == 0.0


def test_balanced_pumping_spectrum():
    spec = QubitGeneratorSpec.constant(gamma=1.0, mu=0.5)
    eigs = np.linalg.eigvals(build_generator(spec).matrix)
    assert multiset_residual(eigs, [0.0, -0.5, -0.5, -1.0]) < 1e-12


def test_invariant_state_is_killed(rng):
    spec = QubitGeneratorSpec.constant(epsilon=0.4, gamma=1.3,
                                       c=((0.6, 0.25), (0.25, 0.9)), mu=0.37)
    g, _ = damping_basis(spec.mu)
    gen = build_generator(spec)
    assert np.max(np.abs(gen.apply(g[0]))) < 1e-15


def test_mode_actions():
    spec = QubitGeneratorSpec.constant(epsilon=0.8, gamma=1.1,
                                       c=((0.3, 0.1), (0.1, 0.5)), mu=0.6)
    gen = build_generator(spec)
    big_gamma = gamma_eigenvalue(spec)
    assert np.max(np.abs(gen.apply(SIGMA_PLUS) - big_gamma * SIGMA_PLUS)) < 1e-13
    assert np.max(np.abs(gen.apply(SIGMA_MINUS)
                         - np.conj(big_gamma) * SIGMA_MINUS)) < 1e-13
    assert np.max(np.abs(gen.apply(SIGMA3) + 1.1 * SIGMA3)) < 1e-13


def test_generators_commute_at_different_times():
    spec = QubitGeneratorSpec(
        epsilon=DampedTrig.cos(amplitude=0.5),
        gamma=DampedTrig.sin(amplitude=0.5, offset=1.0),
        c=((Constant(0.2), Constant(0.1)), (Constant(0.1), Constant(0.4))),
        mu=0.25)
    for t, s in ((0.0, 1.0), (0.3, 2.1), (1.7, 0.9)):
        a = build_generator(spec, t).matrix
        b = build_generator(spec, s).matrix
        assert np.linalg.norm(a @ b - b @ a, 2) < 1e-11


def test_hermitian_c_enforced():
    spec = QubitGeneratorSpec.constant(c=((0.0, 0.5), (0.2, 0.0)))
    with pytest.raises(ValueError, match="Hermitian"):
        build_generator(spec)


def test_mu_range_enforced():
    with pytest.raises(ValueError, match="mixing"):
        QubitGeneratorSpec.constant(mu=1.5)


# ---------------------------------------------------------------------------
# the coherence eigenvalue
# ---------------------------------------------------------------------------

def test_gamma_eigenvalue_pure_decay():
    spec = QubitGeneratorSpec.constant(gamma=1.0, mu=0.5)
    assert abs(gamma_eigenvalue(spec) + 0.5) < 1e-14


def test_gamma_eigenvalue_pure_rotation():
    spec = QubitGeneratorSpec.constant(epsilon=1.0, mu=0.5)
    assert abs(gamma_eigenvalue(spec) + 1.0j) < 1e-14


def test_gamma_eigenvalue_dephasing_free_direction():
    spec = QubitGeneratorSpec.constant(c=((1.0, 1.0), (1.0, 1.0)), mu=0.5)
    assert abs(gamma_eigenvalue(spec)) < 1e-14


def test_gamma_eigenvalue_matches_spectrum():
    spec = QubitGeneratorSpec.constant(epsilon=0.7, gamma=0.9,
                                       c=((0.4, 0.15), (0.15, 0.6)), mu=0.3)
    gen = build_generator(spec)
    big_gamma = gamma_eigenvalue(spec)
    expected = [0.0, big_gamma, np.conj(big_gamma), -0.9]
    assert multiset_residual(np.linalg.eigvals(gen.matrix), expected) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mode_eigenvalues_refuse_a_non_finite_bank_row():
    # exp(800 t) exceeds a double past t = 0.887: the modes would read
    # -inf+nanj there, so it refuses, without a numpy warning
    spec = QubitGeneratorSpec(0.0, DampedTrig(decay=800.0), ((0.0, 0.0), (0.0, 0.0)), 0.5)
    with pytest.raises(ValueError, match=r"^coefficients have non-finite values at t=1\.0$"):
        gamma_eigenvalue(spec, 1.0)
    assert np.isfinite(gamma_eigenvalue(spec, 0.5))


def test_gamma_eigenvalue_complex_offdiagonal():
    # complex c10: the closed form matches both the sigma+ eigenvalue and
    # the literal expression
    c10 = 0.2 + 0.3j
    spec = QubitGeneratorSpec.constant(
        epsilon=0.4, gamma=0.8, c=((0.5, np.conj(c10)), (c10, 0.7)), mu=0.5)
    gen = build_generator(spec)
    value = gamma_eigenvalue(spec)
    assert np.max(np.abs(gen.apply(SIGMA_PLUS) - value * SIGMA_PLUS)) < 1e-12
    literal = -0.5 * (0.8 + 0.5 + 0.7 - 2 * c10 + 2j * 0.4)
    assert abs(value - literal) < 1e-12


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_initial_condition():
    spec = QubitGeneratorSpec.constant(gamma=1.0, mu=0.2)
    out = propagate(spec, 0.6, 0.6)
    assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-14


def test_propagate_constant_matches_exponential():
    spec = QubitGeneratorSpec.constant(epsilon=0.5, gamma=1.2,
                                       c=((0.3, 0.1), (0.1, 0.6)), mu=0.4)
    tau = 1.7
    closed = propagate(spec, 0.2, 0.2 + tau)
    reference = scipy.linalg.expm(tau * build_generator(spec).matrix)
    assert np.max(np.abs(closed.matrix - reference)) < 1e-10


def test_propagate_time_dependent_matches_ordered_product():
    spec = QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.sin(offset=1.0),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.4)
    closed = propagate(spec, 0.0, 2.0)
    reference = oracle.ordered_exp(
        lambda u: build_generator(spec, u), 0.0, 2.0, 4096)
    assert np.max(np.abs(closed.matrix - reference)) < 1e-7


def test_propagate_fixes_invariant_state():
    spec = QubitGeneratorSpec.constant(epsilon=0.3, gamma=0.9,
                                       c=((0.2, 0.05), (0.05, 0.4)), mu=0.7)
    out = propagate(spec, 0.0, 2.5)
    g, _ = damping_basis(spec.mu)
    assert np.max(np.abs(out.apply(g[0]) - g[0])) < 1e-10


def test_propagate_hermiticity_and_trace(rng):
    spec = QubitGeneratorSpec.constant(epsilon=0.4, gamma=1.0,
                                       c=((0.3, 0.0), (0.0, 0.3)), mu=0.5)
    out = propagate(spec, 0.0, 1.3)
    for _ in range(10):
        x = random_matrix(rng, 2)
        rho = x @ x.conj().T
        rho /= np.trace(rho)
        image = out.apply(rho)
        assert np.max(np.abs(image - image.conj().T)) < 1e-12
        assert abs(np.trace(image) - 1.0) < 1e-12
    assert validate_channel(out).cptp


def test_propagate_coherence_and_population_factors():
    spec = QubitGeneratorSpec.constant(epsilon=0.6, gamma=1.1,
                                       c=((0.5, 0.2), (0.2, 0.3)), mu=0.35)
    tau = 0.9
    out = propagate(spec, 0.0, tau)
    integrals = _modes(spec.bank.integrals(0.0, tau)[0])
    # coherences multiply by exp(int Gamma)
    assert np.max(np.abs(out.apply(SIGMA_PLUS)
                         - np.exp(integrals[1]) * SIGMA_PLUS)) < 1e-12
    # populations relax toward the invariant state at rate exp(-int gamma):
    # rho0 decomposes as tr(rho0) omega + tr(sigma rho0) sigma_3 exactly
    g, _ = damping_basis(spec.mu)
    rho0 = E11
    image = out.apply(rho0)
    weight = np.exp(integrals[3])
    sigma = (1 - spec.mu) * E11 - spec.mu * E00
    expected = g[0] * np.trace(rho0) + weight * np.trace(sigma @ rho0) * SIGMA3
    assert np.max(np.abs(image - expected)) < 1e-12


def test_propagate_markov_precondition():
    spec = QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.cos(),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.5)
    with pytest.raises(PreconditionFailedError) as excinfo:
        propagate(spec, 0.0, 3.0, "markov")
    assert excinfo.value.witness[0] == "gamma"
    # integrated conditions hold on (0, pi), so the homogeneous mode works
    out = propagate(spec, 0.0, 3.0, "nonmarkov")
    assert validate_channel(out).cptp


def test_propagate_nonmarkov_precondition():
    spec = QubitGeneratorSpec.constant(gamma=-0.5, mu=0.5)
    with pytest.raises(PreconditionFailedError):
        propagate(spec, 0.0, 1.0, "nonmarkov")


def _c_matrix_reference(spec, t):
    """c(t) from scalar coefficient calls, refused when not Hermitian."""
    cmat = np.array([[f(t) for f in row] for row in spec.c], dtype=complex)
    return _require_hermitian(cmat, t)


def _scalar_markov_witness(spec, grid, tol=1e-10):
    """Reference check: scalar gamma and c evaluations, point by point."""
    for u in grid:
        if float(np.real(spec.gamma(u))) < -tol:
            return "gamma", float(u)
        cmat = _c_matrix_reference(spec, float(u))
        if np.min(np.linalg.eigvalsh((cmat + cmat.conj().T) / 2.0)) < -tol:
            return "c", float(u)
    return None


_PSD_C = ((Constant(0.4), Constant(0.1)), (Constant(0.1), Constant(0.3)))


@pytest.mark.parametrize("gamma, c, which, window", [
    # cos(t) + 0.5 < 0 on (2 pi / 3, 4 pi / 3)
    (DampedTrig(amplitude=1.0, frequency=1.0, offset=0.5), _PSD_C,
     "gamma", (2 * np.pi / 3, 2 * np.pi / 3 + 0.015)),
    # det c = 0.3 (0.5 - 0.4 t) - 0.01 < 0 for t > 7/6
    (Constant(1.0), ((Polynomial([0.5, -0.4]), Constant(0.1)),
                     (Constant(0.1), Constant(0.3))),
     "c", (7 / 6, 7 / 6 + 0.015)),
])
def test_markov_witness_matches_scalar_loop(gamma, c, which, window):
    spec = QubitGeneratorSpec(epsilon=Constant(0.2), gamma=gamma, c=c, mu=0.4)
    expected = _scalar_markov_witness(spec, condition_grid(0.0, 3.0))
    assert expected[0] == which and window[0] < expected[1] <= window[1]
    with pytest.raises(PreconditionFailedError) as excinfo:
        propagate(spec, 0.0, 3.0, "markov")
    assert excinfo.value.witness == expected
    u = expected[1]
    message = (f"gamma({u}) = {spec.gamma(u)} negative" if which == "gamma"
               else f"c({u}) not positive semidefinite")
    assert str(excinfo.value) == f"{message} (markov mode)"
    report = classify(spec, 0.0, 3.0)
    assert report.first_markov_violation == (u, f"{which} pointwise")


def test_markov_check_raises_on_non_hermitian_c():
    c = ((Constant(0.4), Polynomial([0.0, 0.1])), (Constant(0.0), Constant(0.3)))
    spec = QubitGeneratorSpec(epsilon=Constant(0.0), gamma=Constant(1.0), c=c, mu=0.5)
    with pytest.raises(ValueError, match="not Hermitian at t=0.015"):
        propagate(spec, 0.0, 3.0, "markov")


def test_nonmarkov_check_raises_on_non_hermitian_c():
    # the integral of c01 = 0.1 t is 0.05 tau^2 while c10 integrates to 0,
    # so the integrated c is not Hermitian from the first nonzero tau on
    c = ((Constant(0.4), Polynomial([0.0, 0.1])), (Constant(0.0), Constant(0.3)))
    spec = QubitGeneratorSpec(epsilon=Constant(0.0), gamma=Constant(1.0), c=c, mu=0.5)
    with pytest.raises(ValueError) as caught:
        propagate(spec, 0.0, 3.0, "nonmarkov")
    assert str(caught.value) == "int_0^t c is not Hermitian at t=0.015"


# ---------------------------------------------------------------------------
# the diagonalizing map V
# ---------------------------------------------------------------------------

def test_v_maps_the_reference_basis():
    mu = 0.3
    vc = v_conjugation(mu)
    g, h = damping_basis(mu)
    assert np.max(np.abs(vc.v.apply(E00) - SIGMA3)) < 1e-14
    assert np.max(np.abs(vc.v.apply(E11) - g[0])) < 1e-14
    assert np.max(np.abs(vc.v.apply(SIGMA_PLUS) - SIGMA_PLUS)) < 1e-14
    assert np.max(np.abs(vc.v_inverse_dual.apply(E00) - h[3])) < 1e-14
    assert np.max(np.abs(vc.v_inverse_dual.apply(E11) - IDENTITY2)) < 1e-14


def test_v_boundary_mu_zero():
    vc = v_conjugation(0.0)
    # omega collapses onto the ground projector
    assert np.max(np.abs(vc.v.apply(E11) - E00)) < 1e-15


def test_v_inverse_identity():
    for mu in (0.0, 0.3, 1.0):
        vc = v_conjugation(mu)
        assert np.max(np.abs((vc.v @ vc.v_inverse).matrix - np.eye(4))) < 1e-13
        assert np.max(np.abs((vc.v_inverse @ vc.v).matrix - np.eye(4))) < 1e-13


def test_v_diagonalizes_the_generator():
    spec = QubitGeneratorSpec.constant(epsilon=0.9, gamma=1.4,
                                       c=((0.6, 0.2), (0.2, 0.8)), mu=0.65)
    gen = build_generator(spec)
    big_gamma = gamma_eigenvalue(spec)
    modes = [0.0, big_gamma, np.conj(big_gamma), -1.4]
    vc = v_conjugation(spec.mu)
    total = sum(lam * (vc.v @ spectral_projector(i) @ vc.v_inverse).matrix
                for i, lam in enumerate(modes))
    assert np.max(np.abs(total - gen.matrix)) < 1e-10


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_constant_markovian():
    spec = QubitGeneratorSpec.constant(gamma=1.0, c=((0.2, 0.0), (0.0, 0.2)),
                                       mu=0.5)
    report = classify(spec, 0.0, 5.0)
    assert report.markovian and report.nonmarkovian_valid


def test_classify_cosine_gamma():
    spec = QubitGeneratorSpec(
        epsilon=Constant(0.0), gamma=DampedTrig.cos(),
        c=((Constant(0.0), Constant(0.0)), (Constant(0.0), Constant(0.0))),
        mu=0.5)
    horizon = np.pi - 1e-9
    report = classify(spec, 0.0, horizon)
    assert not report.markovian
    assert report.nonmarkovian_valid
    time, condition = report.first_markov_violation
    assert condition == "gamma pointwise"
    assert abs(time - np.pi / 2) < horizon / 200 + 1e-12


def test_classify_negative_gamma_rejected_in_both_senses():
    spec = QubitGeneratorSpec.constant(gamma=-1.0, mu=0.5)
    report = classify(spec, 0.0, 1.0)
    assert not report.markovian
    assert not report.nonmarkovian_valid


# ---------------------------------------------------------------------------
# the generator as a bank row contracted with a fixed basis
# ---------------------------------------------------------------------------

def _dissipator_reference(jump):
    jj = jump.conj().T @ jump
    return (np.kron(jump.conj(), jump)
            - 0.5 * (np.kron(IDENTITY2, jj) + np.kron(jj.T, IDENTITY2)))


def build_generator_reference(spec, t=0.0):
    """The generator assembled term by term from scalar coefficient calls."""
    eps = complex(spec.epsilon(t))
    gam = complex(spec.gamma(t))
    cmat = _c_matrix_reference(spec, t)
    mu = float(spec.mu)
    matrix = np.zeros((4, 4), dtype=complex)
    matrix += (-0.5j * eps) * (np.kron(IDENTITY2, SIGMA3) - np.kron(SIGMA3.T, IDENTITY2))
    matrix += gam * (mu * _dissipator_reference(SIGMA_PLUS)
                     + (1.0 - mu) * _dissipator_reference(SIGMA_MINUS))
    projectors = (E00, E11)
    for alpha in range(2):
        for beta in range(2):
            coeff = cmat[alpha, beta]
            if coeff == 0:
                continue
            sandwich = np.kron(projectors[beta].T, projectors[alpha])
            product = projectors[beta] @ projectors[alpha]
            anti = 0.5 * (np.kron(IDENTITY2, product) + np.kron(product.T, IDENTITY2))
            matrix += coeff * (sandwich - anti)
    return matrix


def random_qubit_spec(rng, mu):
    """Polynomial and damped-trig coefficients with a Hermitian c whose
    off-diagonal pair is complex."""
    def trig():
        return DampedTrig(amplitude=rng.uniform(-1, 1), decay=-rng.uniform(0, 0.5),
                          frequency=rng.uniform(0, 3), phase=rng.uniform(0, 6),
                          offset=rng.uniform(-1, 1))
    off_re, off_im = rng.uniform(-0.5, 0.5, size=2)
    c = ((Polynomial(rng.uniform(0, 1, size=2)), Constant(off_re - 1j * off_im)),
         (Constant(off_re + 1j * off_im), trig()))
    return QubitGeneratorSpec(trig(), Polynomial(rng.uniform(0, 1, size=3)), c, mu)


@pytest.mark.parametrize("mu", [0.3, 0.0, 1.0, Fraction(2, 7), Fraction(1, 2)])
def test_build_generator_matches_term_by_term_assembly(rng, mu):
    for _ in range(5):
        spec = random_qubit_spec(rng, mu)
        for t in rng.uniform(0.0, 3.0, size=4):
            got = build_generator(spec, float(t)).matrix
            assert np.max(np.abs(got - build_generator_reference(spec, float(t)))) <= 1e-15


@pytest.mark.parametrize("mu", [0.3, Fraction(2, 7)])
def test_build_generator_block_is_bit_identical_to_one_time_calls(rng, mu):
    spec = random_qubit_spec(rng, mu)
    times = np.linspace(0.0, 3.0, 301)
    block = build_generator(spec, times)
    one_time = np.stack([build_generator(spec, float(t)).matrix for t in times])
    assert block.dtype == one_time.dtype and np.array_equal(block, one_time)
    for n in (1, 2, 256):
        assert np.array_equal(build_generator(spec, times[:n]), one_time[:n])


def _drifting_c_spec():
    """c01 - conj(c10) = 1e-6 t^2: Hermitian within 1e-9 up to t = 0.0316."""
    return QubitGeneratorSpec(Constant(0.1), Constant(0.5),
                              ((Constant(0.2), Polynomial([0.1, 0.0, 1e-6])),
                               (Constant(0.1), Constant(0.4))), 0.5)


def test_build_generator_block_names_the_first_non_hermitian_time():
    spec = _drifting_c_spec()
    times = np.linspace(0.0, 0.1, 11)
    with pytest.raises(ValueError) as caught:
        build_generator(spec, times)
    assert str(caught.value) == "c(t) is not Hermitian at t=0.04"
    assert np.array_equal(build_generator(spec, times[:4]),
                          np.stack([build_generator(spec, float(t)).matrix
                                    for t in times[:4]]))


@pytest.mark.parametrize("chunk_bytes", [None, 512])
def test_ordered_exp_refuses_the_first_non_hermitian_midpoint(monkeypatch, chunk_bytes):
    if chunk_bytes is not None:  # two 4x4 complex steps per chunk
        monkeypatch.setattr(oracle, "CHUNK_BYTES", chunk_bytes)
    spec = _drifting_c_spec()
    steps, h = 64, 1.0 / 64
    expected = None
    for j in range(steps):
        try:
            build_generator(spec, 0.0 + (j + 0.5) * h)
        except ValueError as error:
            expected = str(error)
            break
    assert expected == "c(t) is not Hermitian at t=0.0390625"
    with pytest.raises(ValueError) as caught:
        oracle.ordered_exp(lambda u: build_generator(spec, u), 0.0, 1.0, steps)
    assert str(caught.value) == expected


def test_ordered_exp_overflow_of_a_qubit_generator_names_the_same_step():
    # -gamma = 4000 t: the steps' exponentials overflow from a middle step on
    spec = QubitGeneratorSpec(Constant(0.0), Polynomial([0.0, -4000.0]),
                              ((Constant(0.0), Constant(0.0)),
                               (Constant(0.0), Constant(0.0))), 0.5)
    steps, h = 8, 2.0 / 8
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            step = h * build_generator(spec, (j + 0.5) * h).matrix
            if not np.isfinite(scipy.linalg.expm(step)).all():
                break
        with pytest.raises(OverflowInExponentialError) as caught:
            oracle.ordered_exp(lambda u: build_generator(spec, u), 0.0, 2.0, steps)
    assert str(caught.value) == (
        f"matrix exponential overflowed at step {j} of {steps} (midpoint "
        f"t={(j + 0.5) * h!r}, step norm {np.linalg.norm(step):.3e})")
    assert 0 < j < steps - 1


@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_every_check_of_c_draws_the_hermitian_line_at_one_threshold(side):
    """A constant c whose skew sits a millionth below (-1) or above (+1)
    HERMITIAN_TOL max |c|: each check that reads c, on one time, a block or
    the running integrals, accepts the first and refuses the second."""
    cmat = np.array([[1e4, 1j * HERMITIAN_TOL * 1e4 * (1.0 + side * 1e-6)],
                     [0.0, 1e4]])
    spec = QubitGeneratorSpec(Constant(0.0), Constant(1.0),
                              tuple(tuple(map(Constant, row)) for row in cmat), 0.5)
    checks = [lambda: _require_hermitian(cmat, 0.0),
              lambda: build_generator(spec, 0.0),
              lambda: build_generator(spec, np.linspace(0.0, 1.0, 5)),
              lambda: _sign_check(spec, 0.0, 1.0, "markov", DEFAULT_TOL),
              lambda: _sign_check(spec, 0.0, 1.0, "nonmarkov", DEFAULT_TOL)]
    for check in checks:
        if side < 0:
            check()
        else:
            with pytest.raises(ValueError, match="is not Hermitian at t=0"):
                check()
    if side < 0:
        assert all(_sign_check(spec, 0.0, 1.0, mode, DEFAULT_TOL) is None
                   for mode in ("markov", "nonmarkov"))


def test_build_generator_refuses_non_hermitian_c_with_the_same_message():
    spec = QubitGeneratorSpec(Constant(0.1), Constant(0.5),
                              ((Constant(0.2), Polynomial([0.1, 0.3])),
                               (Constant(0.1), Constant(0.4))), 0.5)
    assert np.max(np.abs(build_generator(spec, 0.0).matrix
                         - build_generator_reference(spec, 0.0))) <= 1e-15
    for builder in (build_generator, build_generator_reference):
        with pytest.raises(ValueError) as caught:
            builder(spec, 0.5)
        assert str(caught.value) == "c(t) is not Hermitian at t=0.5"


# ---------------------------------------------------------------------------
# the propagator on the spec's fixed mode projectors
# ---------------------------------------------------------------------------

def _assemble_reference(mu, mode_values):
    """The propagator as a sum of rank-one terms, the damping basis rebuilt
    for every call."""
    g, h = damping_basis(float(mu))
    matrix = np.zeros((4, 4), dtype=complex)
    for value, gm, hm in zip(mode_values, g, h):
        col = np.asarray(gm, dtype=complex).reshape(-1, order="F")
        row = np.asarray(hm, dtype=complex).reshape(-1, order="F")
        matrix += value * np.outer(col, row.conj())
    return SuperOperator(2, matrix)


@pytest.mark.parametrize("mu", [0.3, 0.0, 1.0, Fraction(2, 7), Fraction(1, 2)])
def test_propagate_equals_the_rank_one_reference(rng, mu):
    for _ in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        cmat = 0.2 * a @ a.conj().T
        spec = QubitGeneratorSpec(
            DampedTrig(amplitude=rng.uniform(-1, 1), decay=-0.3,
                       frequency=rng.uniform(0, 3), phase=rng.uniform(0, 6)),
            Polynomial(rng.uniform(0, 1, size=2)),
            tuple(tuple(Constant(complex(v)) for v in row) for row in cmat), mu)
        t0 = float(rng.uniform(0.0, 1.0))
        t = t0 + float(rng.uniform(0.0, 2.0))
        for mode, window in (("markov", (t0, t)), ("nonmarkov", (0.0, t - t0))):
            modes = np.exp(_modes(spec.bank.integrals(*window)[0]))
            assert np.array_equal(propagate(spec, t0, t, mode).matrix,
                                  _assemble_reference(spec.mu, modes).matrix)
        modes = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.array_equal(np.einsum("a,aij->ij", modes, spec.projectors),
                              _assemble_reference(mu, modes).matrix)


def test_classify_checks_the_propagation_windows():
    # gamma = 1.5 - t: pointwise fine on [0, 1.5], negative past 1.5; its
    # running integral stays positive until tau = 3
    spec = QubitGeneratorSpec(Constant(0.0), Polynomial([1.5, -1.0]),
                              ((Constant(0.0), Constant(0.0)),
                               (Constant(0.0), Constant(0.0))), 0.5)
    report = classify(spec, 1.0, 2.5)
    assert report.horizon == 1.5
    markov_time, condition = report.first_markov_violation
    assert condition == "gamma pointwise" and 1.5 < markov_time <= 1.5 + 1.5 / 200
    assert report.nonmarkovian_valid
    with pytest.raises(PreconditionFailedError) as excinfo:
        propagate(spec, 1.0, 2.5, "markov")
    assert excinfo.value.witness == ("gamma", markov_time)
    propagate(spec, 1.0, 2.5, "nonmarkov")
    assert classify(spec, 0.0, 1.5).markovian
    with pytest.raises(ValueError, match="need t >= t0"):
        classify(spec, 2.0, 1.0)
