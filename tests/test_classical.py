import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comdyn import oracle
from comdyn.classical import (CirculantGenerator, KolmogorovViolation, LatticeField,
                              _dft_kernel, circulant_matrix,
                              composition_check, condition_grid, convolve,
                              dft, fft_axes, fourier_modes, idft,
                              kolmogorov_check, kolmogorov_check_markov,
                              kolmogorov_check_nonmarkov, propagate, relaxation)
from comdyn.errors import (DimensionMismatchError, NonProbabilisticResultError,
                           PreconditionFailedError)
from comdyn.timefn import Constant, DampedTrig, Polynomial, Tabulated

from conftest import mixed_realness_generator, multiset_residual, random_kolmogorov_rates


# ---------------------------------------------------------------------------
# fields, convolution, transforms
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(DimensionMismatchError):
        LatticeField(2, 1, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        LatticeField(2, 1, [np.nan, 0.0])
    field = LatticeField.unit(3, 2)
    assert field.values[0] == 1.0 and field.values.sum() == 1.0


def test_convolution_unit(rng):
    x = LatticeField(3, 2, rng.normal(size=9) + 1j * rng.normal(size=9))
    e = LatticeField.unit(3, 2)
    assert np.max(np.abs(convolve(x, e).values - x.values)) < 1e-14
    assert np.max(np.abs(convolve(e, x).values - x.values)) < 1e-14


def test_convolution_hand_expansion():
    a = LatticeField(2, 1, [1.0, 2.0])
    b = LatticeField(2, 1, [3.0, 5.0])
    out = convolve(a, b)
    # (a0 b0 + a1 b1, a0 b1 + a1 b0)
    assert np.allclose(out.values, [13.0, 11.0])


def test_convolution_commutative(rng):
    x = LatticeField(4, 1, rng.normal(size=4))
    y = LatticeField(4, 1, rng.normal(size=4))
    assert np.max(np.abs(convolve(x, y).values - convolve(y, x).values)) < 1e-13


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_theorem(seed):
    rng = np.random.default_rng(seed)
    d, naxes = 3, 2
    x = LatticeField(d, naxes, rng.normal(size=9) + 1j * rng.normal(size=9))
    y = LatticeField(d, naxes, rng.normal(size=9) + 1j * rng.normal(size=9))
    lhs = dft(convolve(x, y)).values
    rhs = dft(x).values * dft(y).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_dft_of_unit_is_ones():
    e = LatticeField.unit(5, 1)
    assert np.max(np.abs(dft(e).values - 1.0)) < 1e-14


def test_dft_two_point():
    p = 0.3
    field = LatticeField(2, 1, [p, 1 - p])
    assert np.allclose(dft(field).values, [1.0, 2 * p - 1.0])


def test_dft_roundtrip(rng):
    x = LatticeField(4, 2, rng.normal(size=16) + 1j * rng.normal(size=16))
    assert np.max(np.abs(idft(dft(x)).values - x.values)) < 1e-12
    assert np.max(np.abs(dft(idft(x)).values - x.values)) < 1e-12


@pytest.mark.parametrize("d, naxes", [(2, 1), (3, 2), (4, 3), (5, 2), (2, 9)])
def test_fft_transforms_match_dense_kernel(rng, d, naxes):
    size = d ** naxes
    x = LatticeField(d, naxes, rng.normal(size=size) + 1j * rng.normal(size=size))
    kernel = _dft_kernel(d, naxes)
    forward = kernel @ x.values
    inverse = kernel.conj() @ x.values / size
    assert np.max(np.abs(dft(x).values - forward)) < 1e-12 * np.max(np.abs(forward))
    assert np.max(np.abs(idft(x).values - inverse)) < 1e-12 * np.max(np.abs(inverse))


#: drawn on purpose: signed zeros, subnormals and the least normal, and
#: values whose sums and differences overflow
_TINY_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 3e-310, -2.2250738585072014e-308])
_HUGE_VALUES = np.array([1.7e308, -1.7e308, 9e307])


def _numpy_and_fft_axes(grid, axes, forward_norm, inverse):
    """The two transforms of ``grid`` and the warnings each raised."""
    reference = np.fft.ifftn if inverse else np.fft.fftn
    results = []
    for transform in (lambda: reference(grid, axes=axes,
                                        norm="forward" if forward_norm else "backward"),
                      lambda: fft_axes(grid, axes, forward_norm, inverse)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results.append((transform(), [str(w.message) for w in caught]))
    return results


@settings(max_examples=400, deadline=None)
@given(naxes=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
       tiny=st.floats(0.0, 1.0), huge=st.integers(0, 2), forward_norm=st.booleans(),
       inverse=st.booleans(), is_complex=st.booleans(), data=st.data())
def test_fft_axes_has_numpys_bits_on_z2_lattices(naxes, seed, tiny, huge, forward_norm,
                                                  inverse, is_complex, data):
    # numpy.fft is the reference; a length-2 DFT is one addition and one
    # subtraction, so the butterflies must give its bits, and a result that
    # overflows must warn as numpy warns. A share ``tiny`` of the entries
    # are signed zeros and subnormals, and ``huge`` of them near overflow.
    rng = np.random.default_rng(seed)
    size = 2 ** naxes

    def part():
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-320, 300, size)
        special = rng.random(size) < tiny
        values[special] = rng.choice(_TINY_VALUES, int(special.sum()))
        values[rng.integers(0, size, huge)] = rng.choice(_HUGE_VALUES, huge)
        return values

    grid = (part() + 1j * part() if is_complex else part()).reshape((2,) * naxes)
    axes = data.draw(st.one_of(
        st.none(), st.lists(st.integers(0, naxes - 1), min_size=1, max_size=naxes,
                            unique=True).map(sorted)))
    (expected, numpy_warnings), (got, our_warnings) = _numpy_and_fft_axes(
        grid, axes, forward_norm, inverse)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    assert our_warnings == numpy_warnings


@pytest.mark.parametrize("axes", [None, [1], [0, 2]])
@pytest.mark.parametrize("forward_norm, inverse", [(True, True), (True, False), (False, False)])
def test_fft_axes_falls_back_to_numpy_past_z2(rng, axes, forward_norm, inverse):
    grid = rng.normal(size=(3, 3, 3)) + 1j * rng.normal(size=(3, 3, 3))
    (expected, _), (got, _) = _numpy_and_fft_axes(grid, axes, forward_norm, inverse)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


# ---------------------------------------------------------------------------
# circulant structure
# ---------------------------------------------------------------------------

def test_circulant_matrix_of_unit_is_identity():
    gen = CirculantGenerator.constant(4, 1, [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(circulant_matrix(gen), np.eye(4))


def test_circulant_matrix_structure():
    gamma = 0.8
    gen = CirculantGenerator.constant(3, 1, [-2 * gamma, gamma, gamma])
    mat = circulant_matrix(gen)
    assert np.max(np.abs(mat - mat.T)) < 1e-14
    assert np.max(np.abs(mat.sum(axis=0))) < 1e-14
    assert np.max(np.abs(np.diag(mat) + 2 * gamma)) < 1e-14


def test_circulants_commute(rng):
    a = CirculantGenerator.constant(4, 1, rng.normal(size=4))
    b = CirculantGenerator.constant(4, 1, rng.normal(size=4))
    ma, mb = circulant_matrix(a), circulant_matrix(b)
    assert np.max(np.abs(ma @ mb - mb @ ma)) < 1e-12


BLOCK_GENERATORS = {
    "real": lambda: CirculantGenerator(2, 2, tuple(
        DampedTrig(amplitude=0.1 * k, decay=-0.2, frequency=0.5 + k, phase=0.3, offset=0.4)
        for k in range(4))),
    "complex": lambda: CirculantGenerator(3, 1, (
        Constant(-0.5 + 0.2j), Polynomial([0.1, 0.3j, -0.05]),
        DampedTrig(amplitude=0.3, decay=-0.1, frequency=2.0, phase=1.0, offset=0.2))),
    "mixed": mixed_realness_generator,
    "mixed, complex first": lambda: mixed_realness_generator(complex_first=True),
    "tabulated": lambda: CirculantGenerator(2, 1, (
        Tabulated([0.0, 0.7, 1.4, 2.1], [-0.3, -0.5, -0.2, -0.4]),
        Tabulated([0.0, 0.7, 1.4, 2.1], [0.3, 0.5, 0.2, 0.4]))),
}


@pytest.mark.parametrize("kind", sorted(BLOCK_GENERATORS))
def test_circulant_matrix_block_is_bit_identical_to_one_time_calls(kind):
    gen = BLOCK_GENERATORS[kind]()
    times = np.linspace(0.01, 2.0, 53)
    one_time = [circulant_matrix(gen, float(t)) for t in times]
    stacked = np.stack(one_time)
    block = circulant_matrix(gen, times)
    # the stack's dtype is the one np.stack gives the one-time matrices
    assert block.dtype == stacked.dtype
    assert np.array_equal(block, stacked)
    for n in (1, 2, 7):
        assert np.array_equal(circulant_matrix(gen, times[:n]), stacked[:n])
    realness = {m.dtype for m in one_time}
    assert realness == ({np.dtype(float)} if kind in ("real", "tabulated") else
                        {np.dtype(complex)} if kind == "complex" else
                        {np.dtype(float), np.dtype(complex)})


def test_circulant_matrix_block_refuses_a_non_finite_rate():
    gen = CirculantGenerator(2, 1, (DampedTrig(decay=800.0), Constant(0.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in (1.0, np.array([0.1, 1.0])):
            with pytest.raises(ValueError, match="field has non-finite values"):
                circulant_matrix(gen, t)


def test_spectrum_two_site():
    gamma = 0.6
    gen = CirculantGenerator.constant(2, 1, [-gamma, gamma])
    assert np.allclose(dft(gen.rates(0.0)).values, [0.0, -2 * gamma])


def test_spectrum_of_unit():
    gen = CirculantGenerator.constant(3, 1, [1.0, 0.0, 0.0])
    assert np.max(np.abs(dft(gen.rates(0.0)).values - 1.0)) < 1e-14


def test_spectrum_matches_dense_eigensolver(rng):
    gen = CirculantGenerator.constant(3, 2, rng.normal(size=9))
    closed = dft(gen.rates(0.0)).values
    dense = np.linalg.eigvals(circulant_matrix(gen))
    assert multiset_residual(closed, dense) < 1e-10


def test_fourier_modes_are_eigenvectors(rng):
    gen = CirculantGenerator.constant(4, 1, rng.normal(size=4))
    mat = circulant_matrix(gen)
    modes = fourier_modes(4, 1)
    spectrum = dft(gen.rates(0.0)).values
    for m in range(4):
        value = spectrum[(-m) % 4]
        assert np.max(np.abs(mat @ modes[:, m] - value * modes[:, m])) < 1e-12


def test_fourier_modes_symmetric_rates_pair_directly(rng):
    # reflection-symmetric rates: mode m pairs with spectrum index m itself
    gen = CirculantGenerator.constant(4, 1, [-1.0, 0.3, 0.4, 0.3])
    mat = circulant_matrix(gen)
    modes = fourier_modes(4, 1)
    spectrum = dft(gen.rates(0.0)).values
    for m in range(4):
        assert np.max(np.abs(mat @ modes[:, m] - spectrum[m] * modes[:, m])) < 1e-12


# ---------------------------------------------------------------------------
# Kolmogorov conditions
# ---------------------------------------------------------------------------

def test_markov_check_passes_for_valid_rates():
    gen = CirculantGenerator.constant(2, 1, [-0.5, 0.5])
    assert kolmogorov_check_markov(gen, condition_grid(0, 2)).passed


def test_markov_check_fails_on_sign_change():
    # rate sin(t) turns negative beyond pi
    gen = CirculantGenerator(2, 1, (DampedTrig.sin(amplitude=-1.0),
                                    DampedTrig.sin(amplitude=1.0)))
    report = kolmogorov_check_markov(gen, condition_grid(0, 2 * np.pi))
    assert not report.passed
    assert np.pi < report.first_violation.time < 2 * np.pi
    assert report.first_violation.index == 1


def test_markov_check_fails_on_conservation():
    gen = CirculantGenerator.constant(2, 1, [-0.4, 0.5])
    report = kolmogorov_check_markov(gen, [0.0])
    assert not report.passed
    assert "conservation" in report.first_violation.condition


def test_nonmarkov_check_constant_valid():
    gen = CirculantGenerator.constant(3, 1, [-1.0, 0.4, 0.6])
    assert kolmogorov_check_nonmarkov(gen, condition_grid(0, 5)).passed


def test_nonmarkov_allows_pointwise_negative_rates():
    # rate cos(t): pointwise negative on (pi/2, pi) but integral sin(t) >= 0
    gen = CirculantGenerator(2, 1, (DampedTrig.cos(amplitude=-1.0),
                                    DampedTrig.cos(amplitude=1.0)))
    taus = condition_grid(0, np.pi - 1e-9)
    assert kolmogorov_check_nonmarkov(gen, taus).passed
    assert not kolmogorov_check_markov(gen, taus).passed


def test_nonmarkov_fails_on_negative_constant():
    gen = CirculantGenerator.constant(2, 1, [1.0, -1.0])
    report = kolmogorov_check_nonmarkov(gen, condition_grid(0, 1))
    assert not report.passed
    assert report.first_violation.time <= 0.005 + 1e-12


def _check_rate_field(values, t, tol, prefix):
    """The first failed condition of one rate field, in priority order:
    imaginary part, nonnegativity off the origin, zero sum, origin sign."""
    imag_max = float(np.max(np.abs(values.imag)))
    if imag_max > tol:
        return KolmogorovViolation(t, int(np.argmax(np.abs(values.imag))),
                                   imag_max, f"{prefix} rates must be real")
    real = values.real
    idx = int(np.argmin(real[1:])) + 1
    if real[idx] < -tol:
        return KolmogorovViolation(t, idx, float(real[idx]),
                                   f"{prefix} nonnegativity off the origin")
    total = float(np.sum(real))
    if abs(total) > tol * max(1.0, float(np.max(np.abs(real)))):
        return KolmogorovViolation(t, 0, total, f"{prefix} zero-sum conservation")
    if real[0] > tol:
        return KolmogorovViolation(t, 0, float(real[0]),
                                   f"{prefix} origin rate must be <= 0")
    return None


def _scalar_first_violation(gen, times, integrated, tol=1e-10):
    """Reference check: one scalar call per coefficient and grid point."""
    for t in times:
        if integrated and t == 0.0:
            continue
        values = np.array([f.integrate(0.0, t) if integrated else f(t)
                           for f in gen.coefficients], dtype=complex)
        violation = _check_rate_field(values, float(t), tol,
                                      "integrated" if integrated else "pointwise")
        if violation is not None:
            return violation
    return None


# site 1 turns negative after t = 4/3, site 2 after t = acos(-0.2) ~ 1.77
_SITE1 = Polynomial([0.6, -0.45])
_SITE2 = DampedTrig(amplitude=1.0, frequency=1.0, offset=0.2)


@pytest.mark.parametrize("origin, index, condition, window", [
    (-(_SITE1 + _SITE2), 1, "pointwise nonnegativity off the origin", (4 / 3, 4 / 3 + 0.015)),
    (-(_SITE1 + _SITE2) + Polynomial([0.0, 0.0, 0.01]), 0,
     "pointwise zero-sum conservation", (0.0, 0.015 + 1e-12)),
])
def test_markov_witness_matches_scalar_loop(origin, index, condition, window):
    gen = CirculantGenerator(3, 1, (origin, _SITE1, _SITE2))
    grid = condition_grid(0.0, 3.0)
    report = kolmogorov_check_markov(gen, grid)
    expected = _scalar_first_violation(gen, grid, integrated=False)
    assert report.first_violation == expected
    assert expected.index == index and expected.condition == condition
    assert window[0] < expected.time <= window[1]


def test_nonmarkov_witness_matches_scalar_loop():
    # int_0^tau (cos u - 0.3) du = sin(tau) - 0.3 tau turns negative near 2.35
    rate = DampedTrig(amplitude=1.0, frequency=1.0, offset=-0.3)
    gen = CirculantGenerator(2, 1, (-rate, rate))
    taus = condition_grid(0.0, 4.0)
    report = kolmogorov_check_nonmarkov(gen, taus)
    expected = _scalar_first_violation(gen, taus, integrated=True)
    assert report.first_violation == expected
    assert expected.index == 1
    assert expected.condition == "integrated nonnegativity off the origin"
    assert 2.35 < expected.time < 2.37


def test_nonmarkov_check_rejects_negative_tau_after_clean_prefix():
    gen = CirculantGenerator.constant(2, 1, [-1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        kolmogorov_check_nonmarkov(gen, [0.0, 0.5, -0.5])
    bad = CirculantGenerator.constant(2, 1, [1.0, -1.0])
    assert not kolmogorov_check_nonmarkov(bad, [0.0, 0.5, -0.5]).passed


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def test_propagate_initial_condition():
    gen = CirculantGenerator.constant(3, 1, [-1.0, 0.5, 0.5])
    out = propagate(gen, 0.7, 0.7)
    assert np.max(np.abs(out.values - LatticeField.unit(3, 1).values)) < 1e-14


def test_propagate_two_site_analytic_law():
    gamma, t = 0.8, 1.7
    gen = CirculantGenerator.constant(2, 1, [-gamma, gamma])
    out = propagate(gen, 0.0, t)
    expected = np.array([(1 + np.exp(-2 * gamma * t)) / 2,
                         (1 - np.exp(-2 * gamma * t)) / 2])
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_propagate_matches_exponential_oracle(rng):
    gen = CirculantGenerator.constant(3, 2, random_kolmogorov_rates(rng, 3, 2))
    t0, t = 0.4, 1.9
    closed = propagate(gen, t0, t).values
    dense = oracle.expm((t - t0) * circulant_matrix(gen))
    reference = dense @ LatticeField.unit(3, 2).values
    assert np.max(np.abs(closed - reference)) < 1e-9


def test_propagate_is_stochastic(rng):
    gen = CirculantGenerator.constant(5, 1, random_kolmogorov_rates(rng, 5, 1))
    out = propagate(gen, 0.0, 2.5)
    assert abs(out.values.sum() - 1.0) < 1e-12
    assert out.values.min() > -1e-10


def test_propagate_rejects_invalid_rates():
    gen = CirculantGenerator.constant(2, 1, [0.5, -0.5])
    with pytest.raises(PreconditionFailedError) as excinfo:
        propagate(gen, 0.0, 1.0)
    assert excinfo.value.witness is not None
    assert not excinfo.value.witness.passed


@pytest.mark.parametrize("mode", ["markov", "nonmarkov"])
def test_kolmogorov_check_reads_the_mode_window(mode):
    # the off-origin rate 1 - t turns negative after t = 1; its integral
    # t - t^2/2 only after t = 2
    gen = CirculantGenerator(2, 1, (Polynomial([-1.0, 1.0]), Polynomial([1.0, -1.0])))
    report = kolmogorov_check(gen, 0.5, 2.0, mode)
    if mode == "markov":
        expected = kolmogorov_check_markov(gen, condition_grid(0.5, 2.0))
    else:
        expected = kolmogorov_check_nonmarkov(gen, condition_grid(0.0, 1.5))
    assert report.mode == mode
    assert report.passed == (mode == "nonmarkov")
    assert np.array_equal(report.grid, expected.grid)
    assert report.first_violation == expected.first_violation
    with pytest.raises(ValueError):
        kolmogorov_check(gen, 2.0, 0.5, mode)


def test_relaxation_is_the_spectral_core_of_propagate(rng):
    gen = CirculantGenerator.constant(3, 2, random_kolmogorov_rates(rng, 3, 2))
    relax = relaxation(gen, 0.2, 1.1)
    expected = np.exp(dft(LatticeField(3, 2, gen.bank.integrals(0.2, 1.1)[0])).values)
    assert np.array_equal(relax.values, expected)
    assert np.array_equal(idft(relax).values.real, propagate(gen, 0.2, 1.1).values)
    bad = CirculantGenerator.constant(2, 1, [0.5, -0.5])
    with pytest.raises(PreconditionFailedError, match=r"failed at t=0\.0: .*\(index 1,"):
        relaxation(bad, 0.0, 1.0)
    assert np.all(np.abs(relaxation(bad, 0.0, 1.0, check=False).values) > 0)


def test_unchecked_propagation_flags_negative_output():
    gen = CirculantGenerator.constant(2, 1, [0.8, -0.8])
    with pytest.raises(NonProbabilisticResultError):
        propagate(gen, 0.0, 2.0, check=False)


def test_nonmarkov_homogeneity():
    gen = CirculantGenerator(2, 1, (DampedTrig.sin(amplitude=-1.0, offset=-1.0),
                                    DampedTrig.sin(amplitude=1.0, offset=1.0)))
    a = propagate(gen, 0.25, 1.25, "nonmarkov")
    b = propagate(gen, 0.75, 1.75, "nonmarkov")
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_markov_composition_law_constant(rng):
    gen = CirculantGenerator.constant(3, 1, random_kolmogorov_rates(rng, 3, 1))
    report = composition_check(gen, 2.0, 1.2, 0.3, "markov")
    assert report.composition_residual < 1e-10


def test_markov_composition_law_time_dependent():
    gen = CirculantGenerator(2, 1, (DampedTrig.sin(amplitude=-1.0, offset=-1.5),
                                    DampedTrig.sin(amplitude=1.0, offset=1.5)))
    report = composition_check(gen, 2.0, 1.0, 0.5, "markov")
    assert report.composition_residual < 1e-10


def test_nonmarkov_composition_violated_homogeneity_kept():
    # genuinely time-dependent rate exp(-t): integral is strictly concave
    gen = CirculantGenerator(2, 1, (DampedTrig.exp(amplitude=-1.0, decay=-1.0),
                                    DampedTrig.exp(amplitude=1.0, decay=-1.0)))
    report = composition_check(gen, 2.0, 1.0, 0.0, "nonmarkov")
    assert report.composition_residual > 1e-2
    assert report.homogeneity_residual < 1e-12


def test_monotone_fourier_relaxation_for_nonnegative_rates():
    gen = CirculantGenerator(3, 1, (DampedTrig.sin(amplitude=-2.0, offset=-2.5),
                                    DampedTrig.sin(amplitude=1.0, offset=1.0),
                                    DampedTrig.sin(amplitude=1.0, offset=1.5)))
    taus = np.linspace(0.1, 4.0, 40)
    previous = np.ones(3)
    for tau in taus:
        integ = LatticeField(3, 1, gen.bank.integrals(0.0, tau)[0])
        moduli = np.abs(np.exp(dft(integ).values))
        assert np.all(moduli <= previous + 1e-12)
        previous = moduli
