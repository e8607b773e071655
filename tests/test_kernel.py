import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from comdyn import kernel
from comdyn.errors import DivergentTransformError, PoleEncounteredError
from comdyn.kernel import (ExponentialMixtureSignal, MemoryKernel, RateModeSignal,
                           kernel_hat, laplace, laplace_table,
                           laplace_with_error, memory_kernel, volterra_check)
from comdyn.timefn import Constant, DampedTrig, Polynomial


def quad_complex(f, a, b):
    re = quad(lambda t: np.real(f(t)), a, b, limit=400)[0]
    im = quad(lambda t: np.imag(f(t)), a, b, limit=400)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# mode signals
# ---------------------------------------------------------------------------

def test_zero_rate_mode():
    sig = RateModeSignal(Constant(0.0))
    for t in (0.0, 0.7, 3.0):
        assert sig.c(t) == 1.0
        assert sig.f(t) == 0.0


def test_constant_rate_closed_form():
    lam = -0.8
    sig = RateModeSignal(Constant(lam))
    for t in (0.0, 0.5, 2.0):
        assert abs(sig.c(t) - np.exp(lam * t)) < 1e-14
        assert abs(sig.f(t) - lam * np.exp(lam * t)) < 1e-14


def test_oscillating_rate_against_quadrature():
    # rate -1 - sin t
    sig = RateModeSignal(DampedTrig.sin(amplitude=-1.0, offset=-1.0))
    for t in (0.4, 1.3, 2.7):
        integral = quad(lambda u: -1.0 - np.sin(u), 0.0, t, limit=200)[0]
        assert abs(sig.c(t) - np.exp(integral)) < 1e-9
        assert abs(sig.f(t) - (-1.0 - np.sin(t)) * np.exp(integral)) < 1e-9


def test_relaxation_is_integral_of_its_derivative():
    sig = RateModeSignal(DampedTrig.cos(amplitude=0.4, offset=-0.9))
    for t in (0.5, 1.7):
        integral = quad_complex(sig.f, 0.0, t)
        assert abs(sig.c(t) - 1.0 - integral) < 1e-9


def test_mixture_signal_consistency():
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    assert abs(sig.c(0.0) - 1.0) < 1e-14
    h = 1e-6
    for t in (0.3, 1.1):
        numeric = (sig.c(t + h) - sig.c(t - h)) / (2 * h)
        assert abs(sig.f(t) - numeric) < 1e-7


def test_mixture_signal_takes_arrays():
    sig = ExponentialMixtureSignal([0.3, 0.5, 0.2], [-0.6, -1.7 + 2j, -0.2 - 0.5j])
    times = np.array([[0.0, 0.3], [1.1, 4.0]])
    for fn in (sig.c, sig.f):
        assert isinstance(fn(0.3), complex)
        assert np.array_equal(fn(times), [[fn(float(t)) for t in row] for row in times])


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def test_textbook_transform():
    sig = RateModeSignal(Constant(-1.0))
    assert abs(laplace(sig, 1.0) - (-0.5)) < 1e-14
    value = laplace(sig, 1.0, method="quadrature")
    assert abs(value - (-0.5)) < 1e-9


def test_zero_signal_transforms_to_zero():
    sig = RateModeSignal(Constant(0.0))
    for s in (0.5, 2.0):
        assert laplace(sig, s) == 0.0


def test_mixture_rational_matches_quadrature():
    # the second signal is complex, so both parts are integrated in one pass
    for sig in (ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7]),
                ExponentialMixtureSignal([0.4, 0.6], [-0.6 + 2j, -1.7])):
        for s in (0.4, 1.0, 3.0):
            analytic = laplace(sig, s, method="analytic")
            numeric = laplace(sig, s, method="quadrature")
            assert abs(analytic - numeric) < 1e-8


def test_one_gauss_kronrod_panel_is_exact_to_degree_31(rng):
    a, b = np.array([-0.3]), np.array([1.1])
    for degree in range(32):
        poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1)
                                        + 1j * rng.standard_normal(degree + 1))
        value, _ = kernel._gk21_panels(poly, a, b)
        exact = poly.integ()(b[0]) - poly.integ()(a[0])
        assert abs(value[0] - exact) <= 1e-14 * max(1.0, abs(exact))
    # degree 32 is the first the rule does not integrate exactly
    value, _ = kernel._gk21_panels(lambda t: t ** 32, np.array([-1.0]), np.array([1.0]))
    assert abs(value[0] - 2.0 / 33.0) > 1e-12


@pytest.mark.parametrize("frequency", [500.0, 5000.0, 1e5])
@pytest.mark.parametrize("paired", [True, False])
def test_limit_capped_quadrature_never_under_reports(monkeypatch, frequency, paired):
    # e^(-s t) f(t) oscillates too fast for QUAD_LIMIT panels on the horizon
    exponents = [-0.5 + 1j * frequency] + ([-0.5 - 1j * frequency] if paired else [])
    sig = ExponentialMixtureSignal(np.ones(len(exponents)) / len(exponents), exponents)
    panels = []
    gk21 = kernel._gk21_panels
    monkeypatch.setattr(kernel, "_gk21_panels",
                        lambda fun, lo, hi: panels.append(lo.size) or gk21(fun, lo, hi))
    value, error = laplace_with_error(sig, 0.5, method="quadrature")
    # the first panel, then two halves per bisection up to the cap
    assert sum(panels) == 2 * kernel.QUAD_LIMIT - 1
    assert abs(value - sig.f_hat_analytic(0.5)) <= error


def test_quadrature_error_estimate_is_honest():
    sig = RateModeSignal(DampedTrig.sin(amplitude=-1.0, offset=-1.0))
    value, error = laplace_with_error(sig, 1.5)
    reference = quad_complex(lambda t: np.exp(-1.5 * t) * sig.f(t), 0.0, 60.0)
    assert abs(value - reference) <= max(error, 1e-10)


def test_growth_beyond_the_probe_window_is_refused():
    # c(t) = exp(t^2 / 2 - 25 t): the rate t - 25 is negative on [0, 20],
    # yet the transform diverges for every s
    sig = RateModeSignal(Polynomial([-25.0, 1.0]))
    assert sig.growth_bound() == np.inf
    with pytest.raises(DivergentTransformError,
                       match=r"rate Polynomial\(\[-25.0, 1.0\]\) is unbounded above"):
        laplace_with_error(sig, 0.5)


@pytest.mark.parametrize("rate, bound", [
    (Polynomial([0.5, 2.0, -1.0]), 1.5),                 # the maximum at t = 1
    (Polynomial([-1.0, 0.0, 0.0]), -1.0),                # trailing zeros
    (Polynomial([-30.0, 1.0, -0.02]), -17.5),            # at t = 25, past the probes
    (Polynomial([0.5, 1j]), 0.5),                        # a real part constant in t
    (DampedTrig.sin(amplitude=-1.0, offset=-1.0), 0.0),  # -1 - sin t at t = 3 pi / 2
    (DampedTrig.exp(amplitude=-0.3, decay=-0.5, offset=-0.8), -0.8),  # as t -> inf
    (DampedTrig(amplitude=1.0, decay=2.0, phase=np.pi), -1.0),  # -e^(2t) from t = 0
    (DampedTrig(amplitude=1.0, decay=0.1, frequency=1.0, offset=-5.0), np.inf),
    (DampedTrig.exp(amplitude=1.0, decay=0.1, offset=-5.0), np.inf),
])
def test_growth_bound_is_the_supremum_over_all_times(rate, bound):
    assert RateModeSignal(rate).growth_bound() == pytest.approx(bound, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(amplitude=st.floats(-2, 2), decay=st.floats(-1, 0),
       frequency=st.one_of(st.just(0.0), st.floats(0.5, 3), st.floats(-3, -0.5)),
       phase=st.floats(-np.pi, np.pi), offset=st.floats(-1, 1))
def test_damped_trig_growth_bound_is_the_sampled_supremum(amplitude, decay, frequency,
                                                          phase, offset):
    rate = DampedTrig(amplitude, decay, frequency, phase, offset)
    bound = RateModeSignal(rate).growth_bound()
    # [0, 40] holds every maximum that the damping has not yet lowered
    sampled = float(np.max(np.real(rate(np.linspace(0.0, 40.0, 40001)))))
    if decay < 0:
        sampled = max(sampled, offset)
    assert sampled - 1e-12 <= bound <= sampled + 1e-4


def test_divergent_transform_guard():
    sig = RateModeSignal(Constant(0.5))
    with pytest.raises(DivergentTransformError):
        laplace(sig, 0.3)


# ---------------------------------------------------------------------------
# kernel transform
# ---------------------------------------------------------------------------

def test_kernel_hat_of_zero():
    assert kernel_hat(0.0, 1.0) == 0.0


def test_constant_rate_kernel_is_flat():
    lam = -0.8
    sig = RateModeSignal(Constant(lam))
    for s in (0.3, 1.0, 7.0):
        assert abs(kernel_hat(laplace(sig, s), s) - lam) < 1e-12


def test_kernel_hat_pole_guard():
    with pytest.raises(PoleEncounteredError):
        kernel_hat(-1.0 + 1e-13, 2.0)


def test_laplace_master_identity():
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    s_values = np.linspace(0.3, 5.0, 10)
    table = laplace_table(sig, s_values)
    for s, fh, kh in zip(table.s_values, table.f_hat, table.k_hat):
        chat = (1.0 + fh) / s
        assert abs(s * chat - 1.0 - kh * chat) < 1e-12
        direct = quad_complex(lambda t: np.exp(-s * t) * sig.c(t), 0.0, 80.0)
        assert abs(chat - direct) < 1e-7
        assert abs((1.0 + laplace(sig, float(s))) / s - chat) < 1e-14


# ---------------------------------------------------------------------------
# time-domain kernels
# ---------------------------------------------------------------------------

def test_two_exponential_kernel_partial_fractions():
    # oracle: symbolic partial fractions of K^ = s - 1/c^ for
    # c(t) = 0.35 e^(-0.6 t) + 0.65 e^(-1.7 t) give
    # K^ = -263/200 + (11011/40000) / (s + 197/200)
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    kernel = memory_kernel(sig)
    assert abs(kernel.delta_weight - (-263.0 / 200.0)) < 1e-12
    assert kernel.amplitudes.size == 1
    assert abs(kernel.amplitudes[0] - 11011.0 / 40000.0) < 1e-12
    assert abs(kernel.rates[0] - (-197.0 / 200.0)) < 1e-12


def test_memoryless_kernel_from_single_exponential():
    kernel = memory_kernel(ExponentialMixtureSignal([1.0], [-1.0]))
    assert kernel.delta_weight == -1.0
    assert kernel.amplitudes.size == 0


def test_kernel_transform_consistency():
    sig = ExponentialMixtureSignal([0.2, 0.3, 0.5], [-0.4, -1.1, -2.3])
    kernel = memory_kernel(sig)
    for s in (0.6, 1.7, 4.0):
        from_kernel = kernel.delta_weight + np.sum(
            kernel.amplitudes / (s - kernel.rates))
        from_transform = kernel_hat(laplace(sig, s), s)
        assert abs(from_kernel - from_transform) < 1e-11


def test_memory_kernel_requires_normalized_weights():
    with pytest.raises(ValueError, match="sum to 1"):
        memory_kernel(ExponentialMixtureSignal([0.4, 0.4], [-1.0, -2.0]))


# ---------------------------------------------------------------------------
# Volterra cross-check
# ---------------------------------------------------------------------------

def test_volterra_recovers_memoryless_decay():
    sig = RateModeSignal(Constant(-1.0))
    kernel = memory_kernel(ExponentialMixtureSignal([1.0], [-1.0]))
    report = volterra_check(sig, kernel, horizon=1.0, step=2e-4)
    assert report.max_rel_residual < 1e-8


def test_volterra_two_exponential():
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    report = volterra_check(sig, memory_kernel(sig), horizon=2.0, step=1e-3)
    assert report.max_rel_residual < 1e-5


def test_volterra_step_refinement_improves():
    sig = ExponentialMixtureSignal([0.35, 0.65], [-0.6, -1.7])
    kernel = memory_kernel(sig)
    coarse = volterra_check(sig, kernel, horizon=1.0, step=4e-3)
    fine = volterra_check(sig, kernel, horizon=1.0, step=1e-3)
    # second-order scheme: factor ~16 between the two step sizes
    assert fine.max_abs_residual < coarse.max_abs_residual / 8.0


def test_volterra_zero_kernel_keeps_constant_mode():
    sig = RateModeSignal(Constant(0.0))
    kernel = MemoryKernel(0.0, np.zeros(0, dtype=complex), np.zeros(0, dtype=complex))
    report = volterra_check(sig, kernel, horizon=1.0, step=1e-3)
    assert report.max_abs_residual < 1e-14
