"""Per-mode memory-kernel correspondence in the Laplace domain.

Commutative dynamics diagonalizes once and for all, so the nonlocal
(memory-kernel) description reduces to independent scalar relations, one per
eigenmode. For a mode with relaxation c(t) (c(0) = 1) and f(t) = c'(t), the
kernel of the nonlocal equation c'(t) = int_0^t K(t - u) c(u) du satisfies

    K^(s) = s f^(s) / (1 + f^(s)),     c^(s) = (1 + f^(s)) / s,

where hats are Laplace transforms. Transforms are evaluated analytically for
constant-rate and exponential-mixture modes (rational f^) and by truncated
adaptive quadrature otherwise; no general numerical inverse Laplace is
attempted. Time-domain claims are restricted to rational cases, where the
kernel is an explicit delta weight plus exponentials and a Volterra
integration can be checked directly against the closed-form c(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.integrate

from .errors import DivergentTransformError, PoleEncounteredError
from .timefn import TimeFunction, as_time_function

#: |1 + f^| floor below which the kernel transform is reported as a pole.
POLE_FLOOR = 1e-10

#: Target for the truncated-tail bound of the numeric Laplace transform.
TAIL_TARGET = 1e-14

#: Safety margin required between s and the mode's growth-rate estimate.
GROWTH_MARGIN = 1e-6

#: Horizon over which a time-dependent rate is probed for its growth bound.
PROBE_HORIZON = 20.0


# ---------------------------------------------------------------------------
# eigenmode signals
# ---------------------------------------------------------------------------

class EigenmodeSignal:
    """One spectral mode: relaxation c(t) with c(0) = 1 and f(t) = c'(t)."""

    def c(self, t: float) -> complex:
        raise NotImplementedError

    def f(self, t: float) -> complex:
        raise NotImplementedError

    def growth_bound(self) -> float:
        """Estimate of the exponential growth rate of f; Laplace transforms
        need s strictly above this."""
        raise NotImplementedError

    def f_hat_analytic(self, s: float) -> Optional[complex]:
        """Closed-form Laplace transform of f when one exists, else None."""
        return None


class RateModeSignal(EigenmodeSignal):
    """Mode driven by a scalar rate: c(t) = exp(int_0^t rate), f = rate * c."""

    def __init__(self, rate: TimeFunction):
        self.rate = as_time_function(rate)

    def c(self, t):
        return np.exp(self.rate.integrate(0.0, t))

    def f(self, t):
        return self.rate(t) * self.c(t)

    def growth_bound(self):
        if self.rate.is_constant:
            return float(np.real(self.rate(0.0)))
        probes = np.linspace(0.0, PROBE_HORIZON, 513)
        return float(max(np.real(self.rate(t)) for t in probes))

    def f_hat_analytic(self, s):
        if not self.rate.is_constant:
            return None
        lam = complex(self.rate(0.0))
        return lam / (s - lam)


class ExponentialMixtureSignal(EigenmodeSignal):
    """c(t) = sum_i w_i exp(lambda_i t); rational Laplace transforms."""

    def __init__(self, weights: Sequence[complex], exponents: Sequence[complex]):
        self.weights = np.asarray(weights, dtype=complex)
        self.exponents = np.asarray(exponents, dtype=complex)
        if self.weights.shape != self.exponents.shape or self.weights.ndim != 1:
            raise ValueError("weights and exponents must be 1-d and matched")

    def c(self, t):
        return complex(np.sum(self.weights * np.exp(self.exponents * t)))

    def f(self, t):
        return complex(np.sum(self.weights * self.exponents * np.exp(self.exponents * t)))

    def growth_bound(self):
        return float(np.max(self.exponents.real))

    def f_hat_analytic(self, s):
        return complex(np.sum(self.weights * self.exponents / (s - self.exponents)))


def mode_signal(rate) -> RateModeSignal:
    """Signal for a mode with Fourier-space rate a~(t)."""
    return RateModeSignal(rate)


# ---------------------------------------------------------------------------
# Laplace transforms
# ---------------------------------------------------------------------------

def _truncation_horizon(s: float, growth: float) -> float:
    return float(np.log(1.0 / TAIL_TARGET) / (s - growth))


def laplace_with_error(signal: EigenmodeSignal, s: float,
                       method: str = "auto") -> tuple:
    """Laplace transform of f at real s > growth rate; returns (value, error).

    The error combines the quadrature estimate with the truncated-tail
    bound; it is zero on the analytic path.
    """
    growth = signal.growth_bound()
    if s <= growth + GROWTH_MARGIN:
        raise DivergentTransformError(
            f"s={s} does not dominate the growth-rate estimate {growth:.6g}")
    if method not in ("auto", "analytic", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "analytic"):
        value = signal.f_hat_analytic(s)
        if value is not None:
            return complex(value), 0.0
        if method == "analytic":
            raise ValueError("signal has no analytic transform")

    horizon = _truncation_horizon(s, growth)

    def integrand_real(t):
        return np.real(np.exp(-s * t) * signal.f(t))

    def integrand_imag(t):
        return np.imag(np.exp(-s * t) * signal.f(t))

    re, re_err = scipy.integrate.quad(integrand_real, 0.0, horizon, limit=400)
    im, im_err = scipy.integrate.quad(integrand_imag, 0.0, horizon, limit=400)
    tail = abs(signal.f(horizon)) * np.exp(-(s - growth) * horizon) / (s - growth)
    return complex(re, im), float(re_err + im_err + tail)


def laplace(signal: EigenmodeSignal, s: float, method: str = "auto") -> complex:
    return laplace_with_error(signal, s, method)[0]


def c_hat(signal: EigenmodeSignal, s: float, method: str = "auto") -> complex:
    """Laplace transform of c, via c^ = (1 + f^) / s."""
    return (1.0 + laplace(signal, s, method)) / s


def kernel_hat(f_hat: complex, s: float, floor: float = POLE_FLOOR) -> complex:
    """Memory-kernel transform K^ = s f^ / (1 + f^)."""
    denom = 1.0 + f_hat
    if abs(denom) < floor:
        raise PoleEncounteredError(
            f"1 + f^ = {denom} within pole floor {floor:.1e} at s={s}")
    return s * f_hat / denom


@dataclass(frozen=True)
class LaplaceSample:
    """Sampled transforms on a real s-grid; K^ (1 + f^) = s f^ by construction."""

    s_values: np.ndarray
    f_hat: np.ndarray
    k_hat: np.ndarray
    errors: np.ndarray


def laplace_table(signal: EigenmodeSignal, s_values: Sequence[float],
                  method: str = "auto", floor: float = POLE_FLOOR) -> LaplaceSample:
    s_values = np.asarray(s_values, dtype=float)
    f_vals = np.empty(s_values.size, dtype=complex)
    k_vals = np.empty(s_values.size, dtype=complex)
    errors = np.empty(s_values.size)
    for i, s in enumerate(s_values):
        f_vals[i], errors[i] = laplace_with_error(signal, float(s), method)
        k_vals[i] = kernel_hat(f_vals[i], float(s), floor)
    return LaplaceSample(s_values, f_vals, k_vals, errors)


# ---------------------------------------------------------------------------
# time-domain kernels for rational modes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MemoryKernel:
    """K(t) = delta_weight * delta(t) + sum_i amplitudes_i exp(rates_i t)."""

    delta_weight: complex
    amplitudes: np.ndarray
    rates: np.ndarray

    def smooth(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.amplitudes.size == 0:
            return np.zeros(t.shape, dtype=complex)
        return np.einsum("i,i...->...", self.amplitudes,
                         np.exp(np.multiply.outer(self.rates, t)))


def memory_kernel(signal: ExponentialMixtureSignal) -> MemoryKernel:
    """Exact kernel of an exponential-mixture mode by partial fractions.

    Uses K^ = s - 1/c^ with c^ = N(s)/D(s): the delta weight is the constant
    part of the polynomial division and the smooth part collects the simple
    poles at the roots of N.
    """
    w, lam = signal.weights, signal.exponents
    if abs(np.sum(w) - 1.0) > 1e-12:
        raise ValueError(f"mode weights must sum to 1, got {np.sum(w)}")
    if w.size == 1:
        return MemoryKernel(complex(lam[0]), np.zeros(0, dtype=complex),
                            np.zeros(0, dtype=complex))
    # N(s) = sum_i w_i prod_{j != i} (s - lambda_j): monic of degree n - 1
    numer = np.zeros(w.size, dtype=complex)
    for i in range(w.size):
        others = np.delete(lam, i)
        numer += w[i] * np.poly(others)
    denom = np.poly(lam)                      # D(s) = prod (s - lambda_i)
    quotient, remainder = np.polydiv(denom, numer)
    # K^ = s - D/N = s - (s + q0) - R/N = -q0 - R/N
    delta_weight = -quotient[-1]
    poles = np.roots(numer)
    numer_deriv = np.polyder(numer)
    amplitudes = np.array([-np.polyval(remainder, r) / np.polyval(numer_deriv, r)
                           for r in poles])
    return MemoryKernel(complex(delta_weight), amplitudes, poles)


@dataclass(frozen=True)
class VolterraReport:
    """Residuals of a direct Volterra integration against the closed form."""

    step: float
    horizon: float
    max_abs_residual: float
    max_rel_residual: float


def volterra_check(signal: EigenmodeSignal, kernel: MemoryKernel,
                   horizon: float, step: float) -> VolterraReport:
    """Integrate c'(t) = A c(t) + int_0^t K_s(t-u) c(u) du by the implicit
    trapezoid rule and compare with the closed-form c(t)."""
    n_steps = int(round(horizon / step))
    grid = step * np.arange(n_steps + 1)
    kernel_vals = kernel.smooth(grid)
    a = kernel.delta_weight
    k0 = kernel_vals[0]

    c = np.empty(n_steps + 1, dtype=complex)
    cdot = np.empty(n_steps + 1, dtype=complex)
    c[0] = 1.0
    cdot[0] = a * c[0]
    for n in range(n_steps):
        m = n + 1
        # trapezoid memory integral, endpoint term (h/2) K(0) c_m kept implicit
        if m == 1:
            partial = 0.5 * step * kernel_vals[1] * c[0]
        else:
            partial = step * (0.5 * kernel_vals[m] * c[0]
                              + np.dot(kernel_vals[1:m][::-1], c[1:m]))
        rhs = c[n] + 0.5 * step * (cdot[n] + partial)
        denom = 1.0 - 0.5 * step * a - 0.25 * step * step * k0
        c[m] = rhs / denom
        cdot[m] = a * c[m] + partial + 0.5 * step * k0 * c[m]

    exact = np.array([signal.c(t) for t in grid])
    abs_res = np.abs(c - exact)
    scale = max(1.0, float(np.max(np.abs(exact))))
    return VolterraReport(step=step, horizon=horizon,
                          max_abs_residual=float(np.max(abs_res)),
                          max_rel_residual=float(np.max(abs_res)) / scale)
