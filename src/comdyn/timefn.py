"""Scalar time-dependent coefficients with exact definite integrals.

Every rate, weight, and Fourier coefficient in this package is a
:class:`TimeFunction`: a scalar function of time exposing point evaluation,
the exact definite integral over an interval, and the derivative. The
analytic kinds (constant, polynomial, damped trigonometric) integrate and
differentiate in closed form; tabulated data is interpolated by a cubic
spline whose piecewise-polynomial integral and derivative are themselves
exact. Closed-form propagation therefore never accumulates time-stepping
error from the coefficients. A :class:`CoefficientBank` evaluates or
integrates a whole tuple of them over an array of times in one call.
"""

from __future__ import annotations

import numbers
from typing import Sequence

import numpy as np
from numpy.polynomial import Polynomial as _NPoly


class TimeFunction:
    """Base class: a scalar (possibly complex) function of time."""

    def __call__(self, t: float) -> complex:
        raise NotImplementedError

    def integrate(self, t0: float, t1: float) -> complex:
        """Definite integral over [t0, t1]."""
        raise NotImplementedError

    def derivative(self, t: float) -> complex:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False

    def __add__(self, other) -> "TimeFunction":
        return SumFunction((self, as_time_function(other)))

    __radd__ = __add__

    def __mul__(self, factor) -> "TimeFunction":
        if not isinstance(factor, numbers.Number):
            return NotImplemented
        return ScaledFunction(factor, self)

    __rmul__ = __mul__

    def __neg__(self) -> "TimeFunction":
        return ScaledFunction(-1.0, self)


class Constant(TimeFunction):
    def __init__(self, value: complex):
        self.value = complex(value) if isinstance(value, complex) else float(value)

    def __call__(self, t):
        return self.value

    def integrate(self, t0, t1):
        return self.value * (t1 - t0)

    def derivative(self, t):
        return 0.0

    @property
    def is_constant(self):
        return True

    def __repr__(self):
        return f"Constant({self.value!r})"


class Polynomial(TimeFunction):
    """c0 + c1*t + c2*t**2 + ... with ascending coefficients."""

    def __init__(self, coeffs: Sequence[complex]):
        self._poly = _NPoly(np.asarray(coeffs))

    @property
    def coeffs(self):
        return self._poly.coef

    def __call__(self, t):
        return self._poly(t)

    def integrate(self, t0, t1):
        anti = self._poly.integ()
        return anti(t1) - anti(t0)

    def derivative(self, t):
        return self._poly.deriv()(t)

    @property
    def is_constant(self):
        return self._poly.degree() == 0 or not np.any(self._poly.coef[1:])

    def __repr__(self):
        return f"Polynomial({list(self._poly.coef)!r})"


class DampedTrig(TimeFunction):
    """offset + amplitude * exp(decay*t) * cos(frequency*t + phase).

    With frequency 0 this is an exponential, with decay 0 a pure
    oscillation; ``sin`` shapes come from a -pi/2 phase (see :meth:`sin`).
    """

    def __init__(self, amplitude=1.0, decay=0.0, frequency=0.0, phase=0.0,
                 offset=0.0):
        self.amplitude = amplitude
        self.decay = decay
        self.frequency = frequency
        self.phase = phase
        self.offset = offset

    @classmethod
    def sin(cls, amplitude=1.0, decay=0.0, frequency=1.0, offset=0.0):
        """amplitude * exp(decay*t) * sin(frequency*t) + offset."""
        return cls(amplitude=amplitude, decay=decay, frequency=frequency,
                   phase=-np.pi / 2.0, offset=offset)

    @classmethod
    def cos(cls, amplitude=1.0, decay=0.0, frequency=1.0, offset=0.0):
        return cls(amplitude=amplitude, decay=decay, frequency=frequency,
                   offset=offset)

    @classmethod
    def exp(cls, amplitude=1.0, decay=-1.0, offset=0.0):
        """amplitude * exp(decay*t) + offset."""
        return cls(amplitude=amplitude, decay=decay, offset=offset)

    def __call__(self, t):
        a, w = self.decay, self.frequency
        return self.offset + self.amplitude * np.exp(a * t) * np.cos(w * t + self.phase)

    def _antiderivative(self, t):
        a, w = self.decay, self.frequency
        if a == 0 and w == 0:
            core = t * np.cos(self.phase)
        else:
            arg = w * t + self.phase
            core = np.exp(a * t) * (a * np.cos(arg) + w * np.sin(arg)) / (a * a + w * w)
        return self.offset * t + self.amplitude * core

    def integrate(self, t0, t1):
        return self._antiderivative(t1) - self._antiderivative(t0)

    def derivative(self, t):
        a, w = self.decay, self.frequency
        arg = w * t + self.phase
        return self.amplitude * np.exp(a * t) * (a * np.cos(arg) - w * np.sin(arg))

    @property
    def is_constant(self):
        return self.amplitude == 0 or (self.decay == 0 and self.frequency == 0)

    def __repr__(self):
        return (f"DampedTrig(amplitude={self.amplitude!r}, decay={self.decay!r}, "
                f"frequency={self.frequency!r}, phase={self.phase!r}, "
                f"offset={self.offset!r})")


class Tabulated(TimeFunction):
    """Cubic-spline interpolant of sampled values on [times[0], times[-1]].

    Integration and differentiation act on the spline itself, so they are
    exact for the interpolant; evaluation outside the sampled window raises.
    Every method also takes arrays of times.
    """

    def __init__(self, times: Sequence[float], values: Sequence[complex]):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values)
        if times.ndim != 1 or times.size < 2:
            raise ValueError("tabulated kind needs at least two samples")
        # imported here: scipy.interpolate costs ~0.1 s and only this kind needs it
        from scipy.interpolate import CubicSpline
        self.times = times
        self.values = values
        self._spline = CubicSpline(times, values, extrapolate=False)

    def _clipped(self, t):
        """``t`` clipped onto the sampled window; raises for any ``t`` outside it."""
        lo, hi = self.times[0], self.times[-1]
        t = np.asarray(t, dtype=float)
        outside = (t < lo - 1e-12) | (t > hi + 1e-12)
        if np.any(outside):
            raise ValueError(
                f"t={float(t[outside].flat[0])} outside tabulated domain [{lo}, {hi}]")
        return np.clip(t, lo, hi)

    def __call__(self, t):
        return _complex_result(self._spline(self._clipped(t)))

    def integrate(self, t0, t1):
        pairs = np.broadcast(self._clipped(t0), self._clipped(t1))
        return _complex_result(np.reshape(
            [self._spline.integrate(a, b) for a, b in pairs], pairs.shape))

    def derivative(self, t):
        return _complex_result(self._spline(self._clipped(t), 1))

    def __repr__(self):
        return f"Tabulated(<{self.times.size} samples on [{self.times[0]}, {self.times[-1]}]>)"


def _complex_result(values):
    """A Python complex for a scalar result, a complex array otherwise."""
    values = np.asarray(values, dtype=complex)
    return complex(values) if values.ndim == 0 else values


class SumFunction(TimeFunction):
    def __init__(self, terms: Sequence[TimeFunction]):
        flat = []
        for term in terms:
            if isinstance(term, SumFunction):
                flat.extend(term.terms)
            else:
                flat.append(term)
        self.terms = tuple(flat)

    def __call__(self, t):
        return sum(term(t) for term in self.terms)

    def integrate(self, t0, t1):
        return sum(term.integrate(t0, t1) for term in self.terms)

    def derivative(self, t):
        return sum(term.derivative(t) for term in self.terms)

    @property
    def is_constant(self):
        return all(term.is_constant for term in self.terms)


class ScaledFunction(TimeFunction):
    def __init__(self, factor: complex, inner: TimeFunction):
        self.factor = factor
        self.inner = inner

    def __call__(self, t):
        return self.factor * self.inner(t)

    def integrate(self, t0, t1):
        return self.factor * self.inner.integrate(t0, t1)

    def derivative(self, t):
        return self.factor * self.inner.derivative(t)

    @property
    def is_constant(self):
        return self.factor == 0 or self.inner.is_constant


class CoefficientBank:
    """A tuple of time functions evaluated or integrated as one block.

    Rows of a block are times and columns are the functions, in order.
    Constants, polynomials and damped-trig functions are held as parameter
    arrays, so a block costs a few array operations whatever the number of
    functions; tabulated, sum and scaled functions are called once per block
    with the whole array of times. Each entry follows the operation order of
    the function's own scalar method, so blocks agree with scalar calls to
    rounding.
    """

    def __init__(self, functions: Sequence[TimeFunction]):
        functions = tuple(functions)
        self.size = len(functions)
        kinds = {Constant: [], Polynomial: [], DampedTrig: []}
        other = []
        for j, f in enumerate(functions):
            kinds.get(type(f), other).append(j)
        self._other = [(j, functions[j]) for j in other]

        self._constant = np.array(kinds[Constant], dtype=np.intp)
        self._constant_values = np.array(
            [functions[j].value for j in self._constant], dtype=complex)

        self._poly = np.array(kinds[Polynomial], dtype=np.intp)
        self._poly_coeffs = _padded([functions[j].coeffs for j in self._poly])
        self._poly_anti = _padded([functions[j]._poly.integ().coef for j in self._poly])

        self._trig = np.array(kinds[DampedTrig], dtype=np.intp)
        trig = [functions[j] for j in self._trig]
        self._amplitude, self._decay, self._frequency, self._phase, self._offset = (
            np.array([getattr(f, name) for f in trig]) for name in
            ("amplitude", "decay", "frequency", "phase", "offset"))
        # the antiderivative's a = w = 0 branch (DampedTrig._antiderivative)
        self._flat = (self._decay == 0) & (self._frequency == 0)
        self._trig_denominator = np.where(
            self._flat, 1.0, self._decay * self._decay + self._frequency * self._frequency)

    def values(self, times) -> np.ndarray:
        """Block of f_j(t_i), shape (len(times), size)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        column = t[:, None]
        out = np.empty((t.size, self.size), dtype=complex)
        out[:, self._constant] = self._constant_values
        if self._poly.size:
            out[:, self._poly] = _horner(self._poly_coeffs, column)
        if self._trig.size:
            out[:, self._trig] = (self._offset + self._amplitude
                                  * np.exp(self._decay * column)
                                  * np.cos(self._frequency * column + self._phase))
        for j, f in self._other:
            out[:, j] = f(t)
        return out

    def integrals(self, t0, t1) -> np.ndarray:
        """Block of int_{t0}^{t1} f_j per window, shape (windows, size);
        ``t0`` and ``t1`` broadcast against each other."""
        t0, t1 = np.broadcast_arrays(np.atleast_1d(np.asarray(t0, dtype=float)),
                                     np.atleast_1d(np.asarray(t1, dtype=float)))
        lo, hi = t0[:, None], t1[:, None]
        out = np.empty((t1.size, self.size), dtype=complex)
        out[:, self._constant] = self._constant_values * (hi - lo)
        if self._poly.size:
            out[:, self._poly] = (_horner(self._poly_anti, hi)
                                  - _horner(self._poly_anti, lo))
        if self._trig.size:
            out[:, self._trig] = self._trig_antiderivative(hi) - self._trig_antiderivative(lo)
        for j, f in self._other:
            out[:, j] = f.integrate(t0, t1)
        return out

    def _trig_antiderivative(self, t):
        a, w = self._decay, self._frequency
        arg = w * t + self._phase
        core = np.exp(a * t) * (a * np.cos(arg) + w * np.sin(arg)) / self._trig_denominator
        core = np.where(self._flat, t * np.cos(self._phase), core)
        return self._offset * t + self._amplitude * core


def _padded(rows) -> np.ndarray:
    """Coefficient rows zero-padded on the right into one matrix."""
    width = max((len(r) for r in rows), default=0)
    out = np.zeros((len(rows), width),
                   dtype=np.result_type(float, *{r.dtype for r in rows}))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ascending coefficient rows evaluated at a column of times, in the
    operation order of ``numpy.polynomial.polynomial.polyval``."""
    acc = coeffs[:, -1] + t * 0
    for k in range(coeffs.shape[1] - 2, -1, -1):
        acc = coeffs[:, k] + acc * t
    return acc


def as_time_function(value) -> TimeFunction:
    """Coerce a scalar or TimeFunction to a TimeFunction."""
    if isinstance(value, TimeFunction):
        return value
    if isinstance(value, numbers.Number):
        return Constant(value)
    raise TypeError(f"cannot interpret {value!r} as a time function")


def from_spec(spec: dict) -> TimeFunction:
    """Build a TimeFunction from its JSON description.

    Recognized kinds: ``constant`` {value}, ``polynomial`` {coeffs},
    ``damped-trig`` {amplitude, decay, frequency, phase, offset},
    ``tabulated`` {times, values}.
    """
    kind = spec.get("kind")
    if kind == "constant":
        return Constant(spec["value"])
    if kind == "polynomial":
        return Polynomial(spec["coeffs"])
    if kind == "damped-trig":
        return DampedTrig(amplitude=spec.get("amplitude", 1.0),
                          decay=spec.get("decay", 0.0),
                          frequency=spec.get("frequency", 0.0),
                          phase=spec.get("phase", 0.0),
                          offset=spec.get("offset", 0.0))
    if kind == "tabulated":
        return Tabulated(spec["times"], spec["values"])
    raise ValueError(f"unknown time-function kind: {kind!r}")
