import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from comdyn.errors import (InvalidWeightsError, QuadratureNotConvergedError,
                           SingularEigenvalueError, SingularResolventError)
from comdyn.generators import (CommutingGeneratorSet, MixtureSpec,
                               mixture_generator_eigenvalues, mixture_map,
                               resolvent_channel, resolvent_generator,
                               weighted_generator)
from comdyn.superop import SuperOperator, validate_channel
from comdyn.classical import condition_grid, integration_window
from comdyn.timefn import Constant, DampedTrig, Polynomial, Tabulated
from comdyn.weyl import WeylCoefficientField, map_from_coeffs

from conftest import random_unital_tp_generator


def dephasing_pair():
    """Two commuting qubit generators built from coefficient fields."""
    v1 = np.array([-0.8, 0.5, 0.3, 0.0])
    v2 = np.array([-1.1, 0.2, 0.0, 0.9])
    return (map_from_coeffs(WeylCoefficientField.constant(2, 1, v1)),
            map_from_coeffs(WeylCoefficientField.constant(2, 1, v2)))


def rotation_generator(eps):
    """Trace-annihilating unitary rotation generator -i eps/2 [sigma_z, .]."""
    sz = np.diag([1.0, -1.0])
    matrix = -0.5j * eps * (np.kron(np.eye(2), sz) - np.kron(sz.T, np.eye(2)))
    return SuperOperator(2, matrix)


# ---------------------------------------------------------------------------
# commuting sets
# ---------------------------------------------------------------------------

def test_commuting_set_construction():
    l1, l2 = dephasing_pair()
    cset = CommutingGeneratorSet.from_generators([l1, l2])
    assert len(cset) == 2
    for idx, gen in enumerate((l1, l2)):
        rebuilt = cset.basis.assemble(cset.eigenvalues[idx])
        assert np.max(np.abs(rebuilt.matrix - gen.matrix)) < 1e-10


def test_commuting_set_rejects_noncommuting(rng):
    l1 = random_unital_tp_generator(rng, 2)
    l2 = random_unital_tp_generator(rng, 2)
    with pytest.raises(ValueError, match="commute"):
        CommutingGeneratorSet.from_generators([l1, l2])


def test_commuting_set_rejects_trace_breaking():
    bad = SuperOperator(2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        CommutingGeneratorSet.from_generators([bad])


# ---------------------------------------------------------------------------
# mixtures
# ---------------------------------------------------------------------------

def exp_weights():
    return (DampedTrig.exp(amplitude=1.0, decay=-1.0),
            DampedTrig.exp(amplitude=-1.0, decay=-1.0, offset=1.0))


def test_mixture_map_initial_condition():
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec(exp_weights(), cset)
    out = mixture_map(spec, 0.4, 0.4)
    assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-12


def test_single_generator_mixture_is_exponential():
    l1, _ = dephasing_pair()
    cset = CommutingGeneratorSet.from_generators([l1])
    spec = MixtureSpec((Constant(1.0),), cset)
    tau = 1.3
    out = mixture_map(spec, 0.0, tau)
    assert np.max(np.abs(out.matrix - scipy.linalg.expm(tau * l1.matrix))) < 1e-12


def test_mixture_matches_direct_sum_of_exponentials():
    gens = dephasing_pair()
    cset = CommutingGeneratorSet.from_generators(gens)
    spec = MixtureSpec(exp_weights(), cset)
    tau = 1.2
    out = mixture_map(spec, 0.3, 0.3 + tau)
    weights = spec.weight_values(tau)
    direct = sum(w * scipy.linalg.expm(tau * g.matrix)
                 for w, g in zip(weights, gens))
    assert np.max(np.abs(out.matrix - direct)) < 1e-12


def test_mixture_map_is_homogeneous():
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec(exp_weights(), cset)
    a = mixture_map(spec, 0.5, 1.75)
    b = mixture_map(spec, 0.0, 1.25)
    assert np.array_equal(a.matrix, b.matrix)


def test_mixture_rejects_bad_weights():
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec((Constant(0.4), Constant(0.4)), cset)
    with pytest.raises(InvalidWeightsError):
        mixture_map(spec, 0.0, 1.0)
    with pytest.raises(InvalidWeightsError):
        MixtureSpec((Constant(1.0),), cset)


def validate_weights_reference(spec, t0, t, tol=1e-10):
    """The weight check as a scalar loop: every weight called at every tau
    of the homogeneous window's condition grid."""
    for tau in condition_grid(*integration_window(t0, t, "nonmarkov")):
        values = np.array([w(float(tau)) for w in spec.weights])
        if float(np.max(np.abs(values.imag))) > tol:
            raise InvalidWeightsError(f"weights not real at tau={tau}")
        real = values.real
        if float(np.min(real)) < -tol:
            raise InvalidWeightsError(
                f"negative weight {np.min(real):.3e} at tau={tau}")
        if abs(float(np.sum(real)) - 1.0) > tol:
            raise InvalidWeightsError(
                f"weights sum to {np.sum(real)} at tau={tau}")


def _verdict(check, *args):
    try:
        check(*args)
    except (InvalidWeightsError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("weights, window, expected", [
    (exp_weights(), (0.3, 2.3), None),
    # 0.7 - 1.2 tau^2 turns negative after tau = 0.764
    ((Polynomial([0.7, 0.0, -1.2]), Polynomial([0.3, 0.0, 1.2])), (0.0, 1.0),
     "negative weight -2.270e-03 at tau=0.765"),
    ((Constant(0.4), Constant(0.4)), (0.5, 1.5), "weights sum to 0.8 at tau=0.0"),
    ((Constant(0.5 + 0.1j), Constant(0.5 - 0.1j)), (0.0, 1.0),
     "weights not real at tau=0.0"),
    # read on [0, 1], past the tabulated domain [0, 0.5]: an input error
    ((Tabulated([0.0, 0.5], [0.7, 0.7]), Tabulated([0.0, 0.5], [0.3, 0.3])),
     (0.0, 1.0), "t=0.505 outside tabulated domain [0.0, 0.5]"),
    # t < t0 is refused by the window rule, as for every other check
    (exp_weights(), (2.0, 1.0), "need t >= t0, got t0=2.0, t=1.0"),
])
def test_validate_weights_matches_the_scalar_loop(weights, window, expected):
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec(weights, cset)
    got = _verdict(spec.validate_weights, *window)
    assert got == _verdict(validate_weights_reference, spec, *window)
    assert (got and got[1]) == expected
    if expected is not None and "weight" not in expected:
        assert got[0] is ValueError
        with pytest.raises(ValueError):
            mixture_map(spec, *window)
    for tau in condition_grid(0.0, 0.5):
        assert np.array_equal(spec.weight_values(tau),
                              np.array([w(tau) for w in spec.weights]))


def test_mixture_eigenvalues_integrate_to_map():
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec(exp_weights(), cset)
    tau = 1.1
    for alpha in range(4):
        re = quad(lambda u: mixture_generator_eigenvalues(spec, u)[alpha].real,
                  0.0, tau, limit=200)[0]
        im = quad(lambda u: mixture_generator_eigenvalues(spec, u)[alpha].imag,
                  0.0, tau, limit=200)[0]
        closed = spec.eigenvalue_mixture(tau)[alpha]
        assert abs(np.exp(re + 1j * im) - closed) < 1e-8


def test_constant_weights_reduce_to_weightless_ratio():
    cset = CommutingGeneratorSet.from_generators(dephasing_pair())
    spec = MixtureSpec((Constant(0.3), Constant(0.7)), cset)
    for t in (0.2, 0.9, 2.4):
        exact = mixture_generator_eigenvalues(spec, t)
        literal = mixture_generator_eigenvalues(spec, t, literal=True)
        assert np.max(np.abs(exact - literal)) < 1e-12


def test_single_generator_eigenvalues_are_constant():
    l1, _ = dephasing_pair()
    cset = CommutingGeneratorSet.from_generators([l1])
    spec = MixtureSpec((Constant(1.0),), cset)
    a = mixture_generator_eigenvalues(spec, 0.3)
    b = mixture_generator_eigenvalues(spec, 1.9)
    assert np.max(np.abs(a - b)) < 1e-12


def test_singular_eigenvalue_detected_at_crossing():
    # opposite rotations with equal weights: c(t) on the coherence mode is
    # cos(t), which vanishes at pi/2 while the map itself stays regular
    cset = CommutingGeneratorSet.from_generators(
        [rotation_generator(1.0), rotation_generator(-1.0)])
    spec = MixtureSpec((Constant(0.5), Constant(0.5)), cset)
    mixture_generator_eigenvalues(spec, 0.3)
    with pytest.raises(SingularEigenvalueError):
        mixture_generator_eigenvalues(spec, np.pi / 2)
    # the dynamical map at the singular time is still finite
    out = mixture_map(spec, 0.0, np.pi / 2)
    assert np.all(np.isfinite(out.matrix))


# ---------------------------------------------------------------------------
# resolvent channels
# ---------------------------------------------------------------------------

def test_resolvent_of_zero_generator_is_identity():
    zero = SuperOperator.zero(2)
    for k in (0, 1, 3):
        out = resolvent_channel(zero, 0.7, k)
        assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-12
        gen = resolvent_generator(zero, 0.7, k)
        assert np.max(np.abs(gen.matrix)) < 1e-12


def test_resolvent_scalar_eigenvalue_on_coherence():
    gamma, s = 0.9, 1.4
    # dephasing: sigma_x relaxes at rate gamma... eigenvalue s/(s + 2 gamma)
    values = np.array([-gamma, gamma, 0.0, 0.0])
    gen = map_from_coeffs(WeylCoefficientField.constant(2, 1, values))
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rate = np.vdot(sx, gen.apply(sx)) / 2.0     # eigenvalue of L on sigma_x
    out = resolvent_channel(gen, s, 0)
    expected = s / (s - rate)
    image = out.apply(sx)
    assert np.max(np.abs(image - expected * sx)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_resolvent_channels_cptp_unital(rng, k):
    gen = random_unital_tp_generator(rng, 2)
    for s in (0.5, 1.0, 10.0):
        report = validate_channel(resolvent_channel(gen, s, k))
        assert report.cp and report.tp and report.unital
        assert report.choi_min_eigenvalue >= -1e-10


def test_resolvent_generators_commute(rng):
    gen = random_unital_tp_generator(rng, 2)
    l1 = resolvent_generator(gen, 0.7, 1)
    l3 = resolvent_generator(gen, 0.7, 3)
    comm = l1.matrix @ l3.matrix - l3.matrix @ l1.matrix
    assert np.linalg.norm(comm, 2) < 1e-11


def test_resolvent_generator_annihilates_identity(rng):
    gen = random_unital_tp_generator(rng, 3)
    out = resolvent_generator(gen, 2.0, 2)
    assert np.max(np.abs(out.apply(np.eye(3)))) < 1e-11


def test_resolvent_laplace_representation(rng):
    # Phi_s^k = s^(k+1)/k! int_0^inf e^(-st) t^k e^(tL) dt, by dense quadrature
    import math
    gen = random_unital_tp_generator(rng, 2)
    s, k = 1.3, 2
    algebraic = resolvent_channel(gen, s, k)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    horizon = 60.0
    ts = 0.5 * horizon * (nodes + 1.0)
    ws = 0.5 * horizon * weights
    integral = np.zeros_like(gen.matrix)
    for t, w in zip(ts, ws):
        integral += w * np.exp(-s * t) * t ** k * scipy.linalg.expm(t * gen.matrix)
    integral *= s ** (k + 1) / math.factorial(k)
    assert np.max(np.abs(integral - algebraic.matrix)) < 1e-6


def test_resolvent_guards():
    zero = SuperOperator.zero(2)
    with pytest.raises(ValueError):
        resolvent_channel(zero, -1.0, 0)
    bad = SuperOperator(2, np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="unital"):
        resolvent_channel(bad, 1.0, 0)


def test_singular_resolvent_detected():
    # anti-dissipative (still unital and trace preserving): L = id - conj(sz)
    # has eigenvalue 2, so s = 2 is a genuine pole
    sz = np.diag([1.0, -1.0])
    matrix = np.eye(4) - np.kron(sz.conj(), sz)
    gen = SuperOperator(2, matrix)
    with pytest.raises(SingularResolventError):
        resolvent_channel(gen, 2.0, 0)


# ---------------------------------------------------------------------------
# weighted generators
# ---------------------------------------------------------------------------

def test_weighted_generator_zero_weight(rng):
    gen = random_unital_tp_generator(rng, 2)
    out = weighted_generator([lambda t, s: 0.0], [1], gen, 0.5)
    assert np.max(np.abs(out.matrix)) < 1e-14


def test_weighted_generator_narrow_bump_approaches_node(rng):
    gen = random_unital_tp_generator(rng, 2)
    s0, k = 2.0, 1
    target = resolvent_generator(gen, s0, k).matrix
    previous_error = None
    for width in (0.3, 0.1):
        def bump(t, s, width=width):
            x = np.log(s / s0)
            return np.exp(-0.5 * (x / width) ** 2) / (width * np.sqrt(2 * np.pi) * s)
        out = weighted_generator([bump], [k], gen, 0.0,
                                 s_range=(0.05, 80.0), nodes=256)
        error = np.max(np.abs(out.matrix - target))
        if previous_error is not None:
            assert error < previous_error
        previous_error = error
    assert previous_error < 0.05


def test_weighted_generators_commute_across_time(rng):
    gen = random_unital_tp_generator(rng, 2)

    def f1(t, s):
        return (1.0 + t) * np.exp(-np.log(s) ** 2)

    def f2(t, s):
        return np.exp(-t) / (1.0 + s)

    lt1 = weighted_generator([f1, f2], [0, 2], gen, 0.4)
    lt2 = weighted_generator([f1, f2], [0, 2], gen, 1.9)
    comm = lt1.matrix @ lt2.matrix - lt2.matrix @ lt1.matrix
    assert np.linalg.norm(comm, 2) < 1e-9


def test_weighted_generator_rejects_negative_weights(rng):
    gen = random_unital_tp_generator(rng, 2)
    with pytest.raises(ValueError, match="negative"):
        weighted_generator([lambda t, s: -1.0], [0], gen, 0.0)


def test_weighted_generator_convergence_guard(rng):
    gen = random_unital_tp_generator(rng, 2)

    def spike(t, s):
        # too narrow for the node count: doubling the nodes moves the result
        return np.exp(-0.5 * (np.log(s / 3.0) / 0.2) ** 2)

    with pytest.raises(QuadratureNotConvergedError):
        weighted_generator([spike], [0], gen, 0.0, nodes=16, tol=1e-12)
