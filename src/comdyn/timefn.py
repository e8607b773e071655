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
from typing import NamedTuple, Optional, Sequence

import numpy as np


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
    """c0 + c1*t + c2*t**2 + ... with ascending coefficients, held as the
    coefficient row a :class:`CoefficientBank` holds and evaluated,
    integrated and differentiated as the bank does."""

    def __init__(self, coeffs: Sequence[complex]):
        self.coeffs = _padded([coeffs])[0]
        if not self.coeffs.size:
            raise ValueError("a polynomial needs at least one coefficient")

    def __call__(self, t):
        return _horner(self.coeffs, t)

    def integrate(self, t0, t1):
        anti = _antiderivative(self.coeffs)
        return _horner(anti, t1) - _horner(anti, t0)

    def derivative(self, t):
        return _horner(_derivative(self.coeffs), t)

    @property
    def is_constant(self):
        return not np.any(self.coeffs[1:])

    def __repr__(self):
        return f"Polynomial({self.coeffs.tolist()!r})"


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
        values = _numbers(values)
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


#: The spec kind of each class that :class:`CoefficientBank` holds as
#: parameter arrays.
_SPEC_KINDS = {Constant: "constant", Polynomial: "polynomial", DampedTrig: "damped-trig"}
#: A damped-trig spec's parameters, in DampedTrig's order, with the
#: defaults of a missing one.
_TRIG_DEFAULTS = {"amplitude": 1.0, "decay": 0.0, "frequency": 0.0, "phase": 0.0,
                  "offset": 0.0}

#: Entries per chunk of :meth:`CoefficientBank.values`: 8 rows of 4,096
#: functions, 512 rows of 64. A 201 x 4,096 damped-trig block costs about
#: twice as much per entry when it is evaluated whole.
_BLOCK_ENTRIES = 1 << 15


class CoefficientBank:
    """A tuple of time functions evaluated or integrated as one block.

    Rows of a block are times and columns are the functions, in order.
    Constants, polynomials and damped-trig functions are held as parameter
    arrays, so a block costs a few array operations whatever the number of
    functions; tabulated, sum and scaled functions are called once per block
    with the whole array of times. Each entry follows the operation order of
    the function's own scalar method, so blocks agree with scalar calls to
    rounding. :meth:`values` runs the parameter arrays over row chunks of
    about ``_BLOCK_ENTRIES`` entries, so their temporaries stay in cache;
    every entry meets the same ufuncs in the same order, so a block is
    bit-identical to its rows evaluated one at a time.

    Each function may also be given as a number or as its JSON spec (see
    :func:`from_spec`). A constant, polynomial or damped-trig spec is read
    straight into the parameter arrays, without a TimeFunction, into the
    same arrays its TimeFunction gives.
    """

    def __init__(self, functions: Sequence):
        functions = tuple(functions)
        self.size = len(functions)
        # per parametric kind: the functions' positions and their specs
        kinds = {kind: ([], []) for kind in ("constant", "polynomial", "damped-trig")}
        self._other = []
        for j, f in enumerate(functions):
            if type(f) is dict:
                kind, spec = f.get("kind"), f
            elif type(f) in _SPEC_KINDS:
                # each keeps its parameters under its spec's keys
                kind, spec = _SPEC_KINDS[type(f)], vars(f)
            elif isinstance(f, numbers.Number):
                kind, spec = "constant", {"value": f}
            else:
                kind = None
            if kind in kinds:
                kinds[kind][0].append(j)
                kinds[kind][1].append(spec)
            else:
                self._other.append((j, as_time_function(f)))
        (self._constant, constant), (self._poly, poly), (self._trig, trig) = (
            (np.array(index, dtype=np.intp), specs) for index, specs in kinds.values())

        self._constant_values = np.array([s["value"] for s in constant], dtype=complex)
        self._poly_coeffs = _padded([s["coeffs"] for s in poly])
        self._poly_anti = _antiderivative(self._poly_coeffs)
        self._amplitude, self._decay, self._frequency, self._phase, self._offset = (
            _numbers([s.get(name, default) for s in trig])
            for name, default in _TRIG_DEFAULTS.items())
        # the antiderivative's a = w = 0 branch (DampedTrig._antiderivative)
        self._flat = (self._decay == 0) & (self._frequency == 0)
        self._trig_denominator = np.where(
            self._flat, 1.0, self._decay * self._decay + self._frequency * self._frequency)

    def values(self, times) -> np.ndarray:
        """Block of f_j(t_i), shape (len(times), size)."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        out = np.empty((t.size, self.size), dtype=complex)
        step = max(1, _BLOCK_ENTRIES // max(self.size, 1))
        for lo in range(0, t.size, step):
            self._parametric_values(t[lo:lo + step, None], out[lo:lo + step])
        for j, f in self._other:
            out[:, j] = f(t)
        return out

    def _parametric_values(self, column, out):
        """The constant, polynomial and damped-trig columns of ``out`` at a
        column of times."""
        out[:, self._constant] = self._constant_values
        if self._poly.size:
            out[:, self._poly] = _horner(self._poly_coeffs, column)
        if self._trig.size:
            out[:, self._trig] = (self._offset + self._amplitude
                                  * np.exp(self._decay * column)
                                  * np.cos(self._frequency * column + self._phase))

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

    @np.errstate(all="ignore")
    def window_bounds(self, lo: float, hi: float) -> Optional[WindowBounds]:
        """Each function's real minimum and maximum over [lo, hi], read off
        its endpoints and critical points, and a bound on the sum of all of
        them; None when a function is tabulated, a sum or scaled, has a
        complex or non-finite parameter, or a bound is not finite.

        A constant is its value. A polynomial's candidates are the
        endpoints and the real parts of its derivative's roots (batched
        companion eigenvalues, one stack per degree). A damped-trig
        function is critical where ``w t + phase = atan2(decay, w) + k pi``;
        its critical values alternate in sign with a magnitude monotone in
        k, so the first two and last two critical points in the window hold
        its extremes (with w = 0, the endpoints alone). The sum is bounded
        by the extremes of three parts: the summed polynomial coefficients
        with the constants and offsets added to the first, and one
        damped-trig function per exact (decay, frequency) pair, its phasors
        summed. Candidates are evaluated in the operation order of
        :meth:`values`; ``margin`` bounds the rounding of both."""
        params = (self._constant_values, self._poly_coeffs, self._amplitude,
                  self._decay, self._frequency, self._phase, self._offset)
        if (self._other or not np.isfinite([lo, hi]).all()
                or any(np.iscomplexobj(p) and np.any(p.imag) for p in params)
                or not all(np.isfinite(p).all() for p in params)):
            return None
        const, coeffs, amp, decay, freq, phase, offset = (np.real(p) for p in params)
        low, low_at, high, high_at = (np.empty(self.size) for _ in range(4))
        r = max(abs(lo), abs(hi))
        growth = np.exp(np.maximum(decay * lo, decay * hi))
        magnitude = np.concatenate([
            np.abs(const), _horner(np.abs(coeffs), r),
            np.abs(offset) + np.abs(amp) * growth
            * (2.0 + (np.abs(decay) + np.abs(freq)) * r + np.abs(phase))])
        # the sum's parts: one polynomial, one damped-trig function per group
        total = np.zeros((1, max(coeffs.shape[1], 1)))
        total[0, :coeffs.shape[1]] = coeffs.sum(axis=0)
        total[0, 0] += const.sum() + offset.sum()
        kinds = [(self._constant, const[None], np.full((1, const.size), float(lo)))]
        parts = [_poly_candidates(total, lo, hi)]
        if self._poly.size:
            kinds.append((self._poly, *_poly_candidates(coeffs, lo, hi)))
        if self._trig.size:
            kinds.append((self._trig,
                          *_trig_candidates(amp, decay, freq, phase, offset, lo, hi)))
            keys, group = np.unique(decay + 1j * freq, return_inverse=True)
            phasor = (np.bincount(group, amp * np.cos(phase), keys.size)
                      + 1j * np.bincount(group, amp * np.sin(phase), keys.size))
            parts.append(_trig_candidates(np.abs(phasor), keys.real, keys.imag,
                                          np.angle(phasor), 0.0, lo, hi))
        for index, values, times in kinds:
            low[index], low_at[index], high[index], high_at[index] = _extremes(values, times)
        peaks = [_extremes(np.abs(values), times)[2:] for values, times in parts]
        # eps bounds a step's relative rounding; a step whose result is
        # subnormal can also err by half the smallest subnormal
        bounds = WindowBounds(low, low_at, high, high_at,
                              float(sum(peak.sum() for peak, _ in peaks)),
                              np.concatenate([at for _, at in peaks]),
                              float((self.size + 2 * total.shape[1] + 8)
                                    * (np.finfo(float).eps * magnitude.sum()
                                       + np.finfo(float).smallest_subnormal)))
        finite = np.isfinite([low, high, magnitude]).all() and np.isfinite(bounds.total)
        return bounds if finite else None


class WindowBounds(NamedTuple):
    """Certified bounds of a :class:`CoefficientBank` over one window."""

    low: np.ndarray        # min_t f_j(t), one per function
    low_at: np.ndarray     # a time where f_j takes it
    high: np.ndarray       # max_t f_j(t)
    high_at: np.ndarray
    total: float           # upper bound of max_t |sum_j f_j(t)|
    total_at: np.ndarray   # where each part of that bound peaks
    margin: float          # (n + 2 width + 8) (eps sum_j max|f_j| + min subnormal)


def _extremes(values: np.ndarray, times: np.ndarray) -> tuple:
    """Per column of candidate values: the minimum, its time, the maximum
    and its time."""
    columns = np.arange(values.shape[1])
    lowest, highest = np.argmin(values, axis=0), np.argmax(values, axis=0)
    return (values[lowest, columns], times[lowest, columns],
            values[highest, columns], times[highest, columns])


def _poly_candidates(coeffs: np.ndarray, lo: float, hi: float) -> tuple:
    """Values and times, one column per coefficient row: the endpoints and
    the real parts of the derivative's roots, as companion eigenvalues and
    after two Newton steps, clipped into [lo, hi]. Leading terms no larger
    on the window than eps times the whole row are left out of the roots,
    which keeps the companion well scaled; they move a value by less than
    the bank's margin."""
    rows, width = coeffs.shape
    deriv = _derivative(coeffs)
    curve = _derivative(deriv)
    times = np.full((2 * max(width, 2) - 2, rows), float(lo))
    times[1] = hi
    size = np.abs(coeffs) * max(abs(lo), abs(hi)) ** np.arange(width)
    kept = size[:, 1:] > np.finfo(float).eps * size.sum(axis=1, keepdims=True)
    degree = np.max(np.where(kept, np.arange(width - 1), -1), axis=1, initial=-1)
    for k in range(1, width - 1):
        which = np.flatnonzero(degree == k)
        if which.size:
            column = -deriv[which, :k] / deriv[which, k, None]
            finite = np.isfinite(column).all(axis=1)
            if k == 1:          # a line's root is the column itself
                roots = column.T
            else:
                companion = np.zeros((which.size, k, k))
                companion[:, 1:, :-1] = np.eye(k - 1)
                companion[:, :, -1] = np.where(finite[:, None], column, 0.0)
                roots = np.linalg.eigvals(companion).real.T
            polished = roots
            for _ in range(2):
                step = _horner(deriv[which], polished) / _horner(curve[which], polished)
                polished = np.where(np.isfinite(step), polished - step, polished)
            # an overflowing companion leaves NaN times, so no bounds
            times[2:2 + k, which] = np.where(finite, roots, np.nan)
            times[width:width + k, which] = np.where(finite, polished, np.nan)
    times = np.clip(times, lo, hi)
    return _horner(coeffs, times), times


def _trig_candidates(amplitude, decay, frequency, phase, offset, lo, hi) -> tuple:
    """Values and times, one column per damped-trig function: the endpoints
    and the first two and last two critical points in [lo, hi]."""
    w = np.where(frequency == 0, 1.0, frequency)
    base = np.arctan2(decay, frequency) - phase
    ends = (np.array([[lo], [hi]]) * w - base) / np.pi
    first, last = np.ceil(ends.min(axis=0)), np.floor(ends.max(axis=0))
    k = np.clip(np.stack([first, first + 1, last - 1, last]), first, np.maximum(first, last))
    inside = (frequency != 0) & (first <= last)
    crit = np.where(inside, np.clip((base + k * np.pi) / w, lo, hi), lo)
    times = np.concatenate([np.full((2, w.size), float(lo)), crit])
    times[1] = hi
    return offset + amplitude * np.exp(decay * times) * np.cos(frequency * times + phase), times


def _numbers(values) -> np.ndarray:
    """``values`` as an array that ufuncs take: an int past int64, which
    numpy holds as an object, is read as a double, as ``float`` reads it."""
    out = np.asarray(values)
    return out if out.dtype != object else out.astype(
        np.result_type(float, *{type(v) for v in out.reshape(-1).tolist()}))


def _padded(rows) -> np.ndarray:
    """Coefficient rows zero-padded on the right into one matrix."""
    rows = [_numbers(r) for r in rows]
    width = max((len(r) for r in rows), default=1)
    out = np.zeros((len(rows), width),
                   dtype=np.result_type(float, *{r.dtype for r in rows}))
    for i, r in enumerate(rows):
        out[i, :len(r)] = r
    return out


def _horner(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Ascending coefficient rows evaluated at a column of times (or one
    row at ``t``), in the operation order of
    ``numpy.polynomial.polynomial.polyval``."""
    acc = coeffs[..., -1] + t * 0
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        acc = coeffs[..., k] + acc * t
    return acc


def _antiderivative(coeffs: np.ndarray) -> np.ndarray:
    """The coefficient rows of the antiderivatives that vanish at t = 0,
    each coefficient divided by its power + 1, as ``polyint`` divides."""
    anti = np.zeros(coeffs.shape[:-1] + (coeffs.shape[-1] + 1,), dtype=coeffs.dtype)
    anti[..., 1:] = coeffs / np.arange(1, anti.shape[-1])
    return anti


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    """The coefficient rows of the derivatives, each coefficient times its
    power, as ``polyder`` multiplies; a constant row gives c0 * 0."""
    scaled = coeffs * np.arange(coeffs.shape[-1])
    return scaled[..., 1:] if coeffs.shape[-1] > 1 else scaled


def as_time_function(value) -> TimeFunction:
    """Coerce a scalar, a JSON spec (see :func:`from_spec`) or a
    TimeFunction to a TimeFunction."""
    if isinstance(value, TimeFunction):
        return value
    if isinstance(value, numbers.Number):
        return Constant(value)
    if isinstance(value, dict):
        return from_spec(value)
    raise TypeError(f"cannot interpret {value!r} as a time function")


def from_spec(spec) -> TimeFunction:
    """Build a TimeFunction from its JSON description: a bare number is a
    constant, and an object names its kind.

    Recognized kinds: ``constant`` {value}, ``polynomial`` {coeffs},
    ``damped-trig`` {amplitude, decay, frequency, phase, offset},
    ``tabulated`` {times, values}.
    """
    if isinstance(spec, (int, float)):
        return Constant(spec)
    kind = spec.get("kind")
    if kind == "constant":
        return Constant(spec["value"])
    if kind == "polynomial":
        return Polynomial(spec["coeffs"])
    if kind == "damped-trig":
        return DampedTrig(**{name: spec.get(name, default)
                             for name, default in _TRIG_DEFAULTS.items()})
    if kind == "tabulated":
        return Tabulated(spec["times"], spec["values"])
    raise ValueError(f"unknown time-function kind: {kind!r}")

