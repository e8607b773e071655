"""Per-mode memory-kernel correspondence in the Laplace domain.

Commutative dynamics diagonalizes once and for all, so the nonlocal
(memory-kernel) description reduces to independent scalar relations, one per
eigenmode. For a mode with relaxation c(t) (c(0) = 1) and f(t) = c'(t), the
kernel of the nonlocal equation c'(t) = int_0^t K(t - u) c(u) du satisfies

    K^(s) = s f^(s) / (1 + f^(s)),     c^(s) = (1 + f^(s)) / s,

where hats are Laplace transforms. Transforms are evaluated analytically for
constant-rate and exponential-mixture modes (rational f^) and otherwise by
truncated adaptive Gauss-Kronrod 10/21 quadrature (QUADPACK's rule and
error estimate, over numpy arrays); no general numerical inverse Laplace is
attempted. Time-domain claims are restricted to rational cases, where the
kernel is an explicit delta weight plus exponentials and a Volterra
integration can be checked directly against the closed-form c(t).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DivergentTransformError, PoleEncounteredError
from .timefn import (DampedTrig, Polynomial, TimeFunction, _complex_result,
                     as_time_function)

#: |1 + f^| floor below which the kernel transform is reported as a pole.
POLE_FLOOR = 1e-10

#: Target for the truncated-tail bound of the numeric Laplace transform.
TAIL_TARGET = 1e-14

#: Safety margin required between s and the mode's growth-rate estimate.
GROWTH_MARGIN = 1e-6

#: Horizon over which a rate without a certified growth bound is probed.
PROBE_HORIZON = 20.0

#: Absolute and relative tolerances of the adaptive quadrature (scipy's
#: ``quad`` defaults) and its cap on the number of panels.
QUAD_EPSABS = 1.49e-8
QUAD_EPSREL = 1.49e-8
QUAD_LIMIT = 400

#: The Gauss-Kronrod 10/21 rule on [-1, 1] (QUADPACK's qk21): the 21
#: Kronrod nodes in ascending order, their weights, and the 10-point Gauss
#: weights on the same nodes (zero at the nodes Kronrod added).
_XGK = np.array([0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                 0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                 0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                 0.294392862701460198131126603103866, 0.148874338981631210884826001129720])
_WGK = np.array([0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                 0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                 0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                 0.142775938577060080797094273138717, 0.147739104901338491374841515972068])
_WG = np.array([0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
                0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
                0.0, 0.295524224714752870173892994651338])
GK21_NODES = np.concatenate([-_XGK, [0.0], _XGK[::-1]])
GK21_WEIGHTS = np.concatenate([_WGK, [0.149445554002916905664936468389821], _WGK[::-1]])
G10_WEIGHTS = np.concatenate([_WG, [0.0], _WG[::-1]])


# ---------------------------------------------------------------------------
# eigenmode signals
# ---------------------------------------------------------------------------

class EigenmodeSignal:
    """One spectral mode: relaxation c(t) with c(0) = 1 and f(t) = c'(t).

    ``c`` and ``f`` take a time or an array of times; the quadrature
    evaluates ``f`` on a whole array of nodes at once.
    """

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
        """sup of Re rate(t) over t >= 0, +inf when unbounded above. Certified
        for constant, polynomial (at t = 0 and the real critical points in
        (0, inf)) and damped-trig rates, else probed on [0, PROBE_HORIZON]."""
        rate = self.rate
        if rate.is_constant:
            return float(np.real(rate(0.0)))
        if isinstance(rate, Polynomial):
            poly = np.polynomial.Polynomial(np.real(rate.coeffs)).trim()
            if poly.degree() >= 1 and poly.coef[-1] > 0:
                return np.inf
            critical = poly.deriv().roots().real
            return float(np.max(poly(np.append(critical[critical > 0], 0.0))))
        if isinstance(rate, DampedTrig) and np.isrealobj(
                [rate.decay, rate.frequency, rate.phase]):
            return _damped_trig_sup(rate)
        probes = np.linspace(0.0, PROBE_HORIZON, 513)
        return float(max(np.real(rate(t)) for t in probes))

    def f_hat_analytic(self, s):
        if not self.rate.is_constant:
            return None
        lam = complex(self.rate(0.0))
        return lam / (s - lam)


def _damped_trig_sup(rate: DampedTrig) -> float:
    """sup of Re(offset + A e^(a t) cos(w t + phase)) over t >= 0 for real
    a, w and phase. It is +inf when a > 0 and the rate grows; otherwise the
    largest of the value at t = 0, the values at the first period's critical
    points w t + phase = atan2(a, w) + k pi (later maxima are damped) and,
    when a < 0, the limit offset."""
    a, w, phase = rate.decay, rate.frequency, rate.phase
    amplitude = np.real(rate.amplitude)
    # with w = 0 the rate is monotone, increasing when A cos(phase) > 0
    if a > 0 and (w != 0 and amplitude != 0 or amplitude * np.cos(phase) > 0):
        return np.inf
    points = [0.0]
    if w != 0:
        first = ((np.arctan2(a, w) - phase) / w) % (np.pi / abs(w))
        points += [first, first + np.pi / abs(w)]
    values = np.real(rate(np.array(points)))
    return float(max(values.max(), np.real(rate.offset)) if a < 0 else values.max())


class ExponentialMixtureSignal(EigenmodeSignal):
    """c(t) = sum_i w_i exp(lambda_i t); rational Laplace transforms."""

    def __init__(self, weights: Sequence[complex], exponents: Sequence[complex]):
        self.weights = np.asarray(weights, dtype=complex)
        self.exponents = np.asarray(exponents, dtype=complex)
        if self.weights.shape != self.exponents.shape or self.weights.ndim != 1:
            raise ValueError("weights and exponents must be 1-d and matched")

    def c(self, t):
        return _complex_result(np.sum(self.weights * self._exp(t), axis=-1))

    def f(self, t):
        return _complex_result(np.sum(self.weights * self.exponents * self._exp(t), axis=-1))

    def _exp(self, t):
        """exp(lambda_i t) with the modes on a last axis; ``t`` a time or an array."""
        return np.exp(self.exponents * np.asarray(t, dtype=float)[..., None])

    def growth_bound(self):
        return float(np.max(self.exponents.real))

    def f_hat_analytic(self, s):
        return complex(np.sum(self.weights * self.exponents / (s - self.exponents)))


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
        unbounded = (f": rate {signal.rate!r} is unbounded above on t >= 0"
                     if growth == np.inf else "")
        raise DivergentTransformError(
            f"s={s} does not dominate the growth-rate estimate {growth:.6g}{unbounded}")
    if method not in ("auto", "analytic", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "analytic"):
        value = signal.f_hat_analytic(s)
        if value is not None:
            return complex(value), 0.0
        if method == "analytic":
            raise ValueError("signal has no analytic transform")

    horizon = _truncation_horizon(s, growth)
    value, quad_err = gauss_kronrod(lambda t: np.exp(-s * t) * signal.f(t), 0.0, horizon)
    tail = abs(signal.f(horizon)) * np.exp(-(s - growth) * horizon) / (s - growth)
    return value, float(quad_err + tail)


def gauss_kronrod(fun, a: float, b: float) -> tuple:
    """Adaptive Gauss-Kronrod 10/21 quadrature of a complex integrand on [a, b].

    ``fun`` takes an array of times and returns its values. The panel with
    the largest error estimate in a part (real or imaginary) that has not
    met ``max(QUAD_EPSABS, QUAD_EPSREL |integral|)`` is bisected, both
    halves evaluated in one call, until both parts meet it or there are
    ``QUAD_LIMIT`` panels. Returns the integral and the error estimate:
    the real part's plus the imaginary part's, each a sum of QUADPACK's
    per-panel estimates.
    """
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    values, errors = _gk21_panels(fun, lo, hi)
    while True:
        total = values.sum()
        part_err = errors.sum(axis=0)
        open_parts = part_err > np.maximum(QUAD_EPSABS,
                                           QUAD_EPSREL * np.abs([total.real, total.imag]))
        if not open_parts.any() or lo.size >= QUAD_LIMIT:
            return complex(total), float(part_err.sum())
        worst = int(np.argmax(errors @ open_parts))
        mid = 0.5 * (lo[worst] + hi[worst])
        halves = _gk21_panels(fun, np.array([lo[worst], mid]), np.array([mid, hi[worst]]))
        lo = np.append(lo, mid)
        hi = np.append(hi, hi[worst])
        hi[worst] = mid
        values = np.append(values, halves[0][1])
        values[worst] = halves[0][0]
        errors = np.vstack([errors, halves[1][1]])
        errors[worst] = halves[1][0]


def _gk21_panels(fun, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The 21-point Kronrod integral of each panel [lo_i, hi_i] and QUADPACK's
    error estimate (dqk21) of its real and imaginary parts, shape (k, 2)."""
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    points = center[:, None] + half[:, None] * GK21_NODES
    f = np.ascontiguousarray(fun(points.ravel()), dtype=complex).reshape(points.shape)
    parts = f.view(float).reshape(*f.shape, 2)              # (k, 21, [re, im])
    kronrod = np.einsum("j,kjp->kp", GK21_WEIGHTS, parts)
    gauss = np.einsum("j,kjp->kp", G10_WEIGHTS, parts)
    width = np.abs(half)[:, None]
    resabs = np.einsum("j,kjp->kp", GK21_WEIGHTS, np.abs(parts)) * width
    resasc = np.einsum("j,kjp->kp", GK21_WEIGHTS,
                       np.abs(parts - 0.5 * kronrod[:, None])) * width
    err = np.abs(kronrod - gauss) * width
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    eps = np.finfo(float).eps
    err = np.where(resabs > np.finfo(float).tiny / (50 * eps),
                   np.maximum(50 * eps * resabs, err), err)
    return np.ascontiguousarray(kronrod * half[:, None]).view(complex)[:, 0], err


def laplace(signal: EigenmodeSignal, s: float, method: str = "auto") -> complex:
    return laplace_with_error(signal, s, method)[0]


def kernel_hat(f_hat: complex, s: float) -> complex:
    """Memory-kernel transform K^ = s f^ / (1 + f^)."""
    denom = 1.0 + f_hat
    if abs(denom) < POLE_FLOOR:
        raise PoleEncounteredError(
            f"1 + f^ = {denom} within pole floor {POLE_FLOOR:.1e} at s={s}")
    return s * f_hat / denom


@dataclass(frozen=True)
class LaplaceSample:
    """Sampled transforms on a real s-grid; K^ (1 + f^) = s f^ by construction."""

    s_values: np.ndarray
    f_hat: np.ndarray
    k_hat: np.ndarray
    errors: np.ndarray


def laplace_table(signal: EigenmodeSignal, s_values: Sequence[float]) -> LaplaceSample:
    s_values = np.asarray(s_values, dtype=float)
    f_vals = np.empty(s_values.size, dtype=complex)
    k_vals = np.empty(s_values.size, dtype=complex)
    errors = np.empty(s_values.size)
    for i, s in enumerate(s_values):
        f_vals[i], errors[i] = laplace_with_error(signal, float(s))
        k_vals[i] = kernel_hat(f_vals[i], float(s))
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
