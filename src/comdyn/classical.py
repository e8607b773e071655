"""Circulant stochastic dynamics on the lattice Z_d^N.

A circulant generator L(m, n) = a(m - n) (indices mod d per axis) is fixed
by a single vector a on the lattice, commutes with every other circulant,
and is diagonalized by the discrete Fourier transform. The propagated
probability vector has the closed form

    P(m) = d^-N sum_k lambda^{-m.k} exp(I(k)),   lambda = exp(2 pi i / d),

where I(k) is the time integral of the Fourier-transformed rate vector:
over [t0, t] for inhomogeneous Markovian dynamics and over [0, t - t0] for
the homogeneous (memory-keeping) variant. Kolmogorov sign/conservation
conditions are checked pointwise in the Markovian case and on the running
integrals in the homogeneous case. :func:`relaxation` runs that check and
returns exp(I); it is the one checked core that :func:`propagate` and
:func:`comdyn.weyl.evolve` share.

Fields on Z_d^n are stored flat in row-major order (first axis slowest).
The lattice transforms are DFTs on the (d,) * n grid, O(d^n log d^n), with
the +m.k phase kernel on the forward leg, all run by :func:`fft_axes`:
radix-2 butterflies on Z_2 axes, with numpy.fft's bits, and numpy.fft for
other d. The dense kernel is built only for the explicit eigenvector matrix
:func:`fourier_modes`. Generator rates live in a
:class:`~comdyn.timefn.CoefficientBank`, so a condition check evaluates its
whole time grid in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatchError, NonProbabilisticResultError,
                     PreconditionFailedError)
from .superop import DEFAULT_TOL
from .timefn import CoefficientBank

#: Default number of uniform grid points for condition checks on an interval.
DEFAULT_GRID_POINTS = 201

PropagationMode = Literal["markov", "nonmarkov"]


# ---------------------------------------------------------------------------
# lattice fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeField:
    """Complex function on Z_d^naxes, stored flat (row-major multi-index)."""

    d: int
    naxes: int
    values: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"site dimension must be >= 2, got {self.d}")
        if self.naxes < 1:
            raise ValueError(f"need at least one axis, got {self.naxes}")
        values = np.asarray(self.values, dtype=complex).reshape(-1)
        if values.size != self.d ** self.naxes:
            raise DimensionMismatchError(
                f"field on Z_{self.d}^{self.naxes} needs {self.d ** self.naxes} "
                f"values, got {values.size}")
        if not np.all(np.isfinite(values)):
            raise ValueError("field has non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def unit(cls, d: int, naxes: int) -> "LatticeField":
        """The convolution unit e: mass 1 at the origin."""
        values = np.zeros(d ** naxes)
        values[0] = 1.0
        return cls(d, naxes, values)

    @property
    def size(self) -> int:
        return self.d ** self.naxes

    @property
    def grid(self) -> np.ndarray:
        """View of the values shaped (d,) * naxes."""
        return self.values.reshape((self.d,) * self.naxes)

    def _require_same_lattice(self, other: "LatticeField"):
        if (self.d, self.naxes) != (other.d, other.naxes):
            raise DimensionMismatchError(
                f"lattice mismatch: Z_{self.d}^{self.naxes} vs "
                f"Z_{other.d}^{other.naxes}")


def lattice_digits(d: int, naxes: int) -> tuple:
    """The digits of every flat index of Z_d^naxes, shape (naxes, d^naxes),
    first axis slowest, and the place values d^(naxes-1), ..., d, 1: a
    lattice point with digits x has flat index ``place @ x``."""
    digits = np.indices((d,) * naxes).reshape(naxes, d ** naxes)
    return digits, d ** np.arange(naxes - 1, -1, -1)


@lru_cache(maxsize=None)
def _difference_index_map(d: int, naxes: int) -> np.ndarray:
    """idx[m, n] = flat index of (m_vec - n_vec) mod d; the circulant pattern."""
    digits, place = lattice_digits(d, naxes)
    return sum(p * ((x[:, None] - x[None, :]) % d) for p, x in zip(place, digits))


@lru_cache(maxsize=None)
def _dft_kernel(d: int, naxes: int) -> np.ndarray:
    """W[m, k] = lambda^(m.k) with lambda = exp(2 pi i / d)."""
    digits, _ = lattice_digits(d, naxes)
    return np.exp((2j * np.pi / d) * ((digits.T @ digits) % d))


def fft_axes(grid: np.ndarray, axes=None, forward_norm: bool = False,
             inverse: bool = False) -> np.ndarray:
    """numpy's ``fftn`` of ``grid`` over the nonnegative ``axes`` (all if
    None), or its ``ifftn`` if ``inverse``, with ``norm="forward"`` if
    ``forward_norm`` and ``"backward"`` otherwise: every lattice transform
    of comdyn runs here.

    When every transformed axis has length 2, the transform runs as
    radix-2 butterflies (a + b, a - b) on a complex copy, one axis at a
    time, last axis first, each axis halved where the norm scales that
    direction by 1/2, as numpy's per-axis transforms do. A length-2 DFT is
    exactly that addition and subtraction, so the bits are numpy's, and a
    Z_2 lattice never imports numpy.fft. A result that is not finite is
    recomputed by numpy.fft, so its overflow warnings are numpy's too."""
    axes = tuple(range(grid.ndim)) if axes is None else tuple(axes)
    if all(grid.shape[axis] == 2 for axis in axes):
        out = np.array(grid, dtype=complex)
        # a complex array viewed as floats is its (re, im) pairs: halving
        # them is exact, where a complex product by 0.5 + 0j is not
        parts = out.view(float)
        with np.errstate(all="ignore"):
            for axis in reversed(axes):
                pairs = out.reshape(math.prod(grid.shape[:axis]), 2, -1)
                a, b = pairs[:, 0], pairs[:, 1]
                diff = a - b
                a += b
                b[...] = diff
                if forward_norm != inverse:
                    parts *= 0.5
        if np.isfinite(parts).all():
            return out
    transform = np.fft.ifftn if inverse else np.fft.fftn
    return transform(grid, axes=axes, norm="forward" if forward_norm else "backward")


def dft(x: LatticeField) -> LatticeField:
    """Forward transform x~(m) = sum_k lambda^(m.k) x(k).

    This is the unnormalized inverse FFT (d^naxes * ifftn) on the grid.
    """
    return LatticeField(x.d, x.naxes,
                        fft_axes(x.grid, forward_norm=True, inverse=True).reshape(-1))


def idft(x: LatticeField) -> LatticeField:
    """Inverse transform x(k) = d^-naxes sum_m lambda^(-m.k) x~(m),
    which is fftn / d^naxes on the grid."""
    return LatticeField(x.d, x.naxes, fft_axes(x.grid, forward_norm=True).reshape(-1))


def convolve(x: LatticeField, y: LatticeField) -> LatticeField:
    """Cyclic convolution (x * y)(n) = sum_k x(n - k) y(k), per-axis mod d."""
    x._require_same_lattice(y)
    circulant = x.values[_difference_index_map(x.d, x.naxes)]
    return LatticeField(x.d, x.naxes, circulant @ y.values)


def circulant_from_field(a: LatticeField) -> np.ndarray:
    """Dense matrix L with L[m, n] = a(m - n)."""
    return a.values[_difference_index_map(a.d, a.naxes)]


# ---------------------------------------------------------------------------
# time-dependent generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CirculantGenerator:
    """Per-site rates a_t(m) on Z_d^naxes, evaluated together through one
    :class:`CoefficientBank`. Each rate is a :class:`TimeFunction`, a number
    or a JSON spec (:func:`~comdyn.timefn.from_spec`), kept as given: the
    bank reads parametric specs straight into its arrays, and
    :func:`~comdyn.timefn.as_time_function` makes a TimeFunction of a rate
    where one is needed."""

    d: int
    naxes: int
    coefficients: tuple
    bank: CoefficientBank = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if len(self.coefficients) != self.d ** self.naxes:
            raise DimensionMismatchError(
                f"generator on Z_{self.d}^{self.naxes} needs "
                f"{self.d ** self.naxes} coefficients, got {len(self.coefficients)}")
        object.__setattr__(self, "bank", CoefficientBank(self.coefficients))

    @classmethod
    def constant(cls, d: int, naxes: int, values: Sequence[float]) -> "CirculantGenerator":
        return cls(d, naxes, tuple(values))

    def rates(self, t: float) -> LatticeField:
        return LatticeField(self.d, self.naxes, self.bank.values(t)[0])

    def rate_rows(self, times) -> np.ndarray:
        """The rates at each of ``times``, one row per time, refused as
        :meth:`rates` refuses a non-finite field."""
        rows = self.bank.values(times)
        if not np.isfinite(rows).all():
            raise ValueError("field has non-finite values")
        return rows


def circulant_matrix(gen: CirculantGenerator, t=0.0) -> np.ndarray:
    """Dense generator matrix L(m, n) = a_t(m - n), real when the rates are
    real to rounding (every rate is an entry of L, so the rates decide).

    An array of times gives the stack of their matrices from one bank
    block: real when every row is real, and otherwise complex, with the
    imaginary part of each real row dropped, as stacking the one-time
    matrices gives."""
    rows = gen.rate_rows(t)
    scale = np.maximum(1.0, np.max(np.abs(rows), axis=1))
    real = np.max(np.abs(rows.imag), axis=1) <= 1e-14 * scale
    if real.all():
        rows = rows.real
    else:
        rows.imag[real] = 0.0
    stack = rows[:, _difference_index_map(gen.d, gen.naxes)]
    return stack if np.ndim(t) else stack[0]


def fourier_modes(d: int, naxes: int) -> np.ndarray:
    """Columns are the normalized circulant eigenvectors
    psi_m(n) = lambda^(m.n) / sqrt(d^naxes).

    Column m pairs with the eigenvalue (dft a)(-m) of circulant_matrix; the
    reflection drops out for reflection-symmetric rates, and the eigenvalue
    multiset is (dft a) either way.
    """
    kernel = _dft_kernel(d, naxes)
    return kernel.T / np.sqrt(d ** naxes)


# ---------------------------------------------------------------------------
# Kolmogorov condition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KolmogorovViolation:
    time: float
    index: int
    value: float
    condition: str

    def __str__(self) -> str:
        return f"{self.condition} (index {self.index}, value {self.value:.6e})"


@dataclass(frozen=True)
class KolmogorovReport:
    mode: PropagationMode
    passed: bool
    first_violation: Optional[KolmogorovViolation]
    grid: np.ndarray
    tol: float
    #: whether the window certificate, not the grid, decided the result
    certified: bool = False

    def as_dict(self) -> dict:
        out = {"mode": self.mode, "passed": self.passed, "certified": self.certified,
               "tol": self.tol}
        if self.first_violation is not None:
            v = self.first_violation
            out["first_violation"] = {
                "time": v.time, "index": v.index,
                "value": v.value, "condition": v.condition,
            }
        return out


_CONDITIONS = ("rates must be real", "nonnegativity off the origin",
               "zero-sum conservation", "origin rate must be <= 0")


def _first_violation(block: np.ndarray, times: np.ndarray, tol: float,
                     condition_prefix: str) -> Optional[KolmogorovViolation]:
    """The earliest row of a (times, sites) rate block that fails a
    condition, with the first condition it fails in :data:`_CONDITIONS`
    order (see :func:`first_failing_row`). A non-finite row that comes
    first raises like the LatticeField it would have made."""
    def failures(rows):
        real = rows.real
        return np.stack([
            np.max(np.abs(rows.imag), axis=1) > tol,
            np.min(real[:, 1:], axis=1) < -tol,
            np.abs(np.sum(real, axis=1)) > tol * np.maximum(1.0, np.max(np.abs(real), axis=1)),
            real[:, 0] > tol])

    found = first_failing_row(block, failures)
    if found is None:
        return None
    row, which = found
    if which is None:
        raise ValueError("field has non-finite values")
    real, imag = block[row].real, np.abs(block[row].imag)
    index = (int(np.argmax(imag)), int(np.argmin(real[1:])) + 1, 0, 0)[which]
    value = (np.max(imag), real[index], np.sum(real), real[0])[which]
    return KolmogorovViolation(float(times[row]), index, float(value),
                               f"{condition_prefix} {_CONDITIONS[which]}")


def kolmogorov_check_markov(gen: CirculantGenerator, grid: Sequence[float],
                            tol: float = DEFAULT_TOL) -> KolmogorovReport:
    """Pointwise conditions: a_t(m) >= 0 for m != 0, sum_m a_t(m) = 0.

    Certified first on the window [min grid, max grid] by the bank's
    :meth:`~comdyn.timefn.CoefficientBank.window_bounds`: when every
    condition holds there with the rounding margin to spare, the report
    passes without evaluating the grid. Otherwise the grid is screened, and
    its first violation is the witness. If the grid passes but the bounds
    fail beyond the margin, the rates are screened at the certificate points
    where they fail, earliest first, and the first violation there is the
    witness. ``certified`` marks the reports the certificate decided."""
    grid = np.asarray(grid, dtype=float)
    bounds = gen.bank.window_bounds(grid.min(), grid.max()) if grid.size else None
    if bounds is not None and _certified(bounds, tol):
        return KolmogorovReport("markov", True, None, grid, tol, True)
    # a non-finite row is refused, so its overflow need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        violation = _first_violation(gen.bank.values(grid), grid, tol, "pointwise")
    certified = False
    if violation is None and bounds is not None:
        violation = _violation_at_bounds(gen, bounds, tol)
        certified = violation is not None
    return KolmogorovReport("markov", violation is None, violation, grid, tol, certified)


def _certified(bounds, tol: float) -> bool:
    """Whether window bounds with real rates show the conditions of
    :data:`_CONDITIONS` holding with ``bounds.margin`` to spare; the zero
    sum is held to ``tol`` times the least the largest |rate| can be."""
    margin = bounds.margin
    floor = np.max(np.maximum(bounds.low, -bounds.high)) - margin
    return bool(np.all(bounds.low[1:] >= margin - tol) and bounds.high[0] <= tol - margin
                and bounds.total + margin <= tol * max(1.0, floor))


def _violation_at_bounds(gen: CirculantGenerator, bounds,
                         tol: float) -> Optional[KolmogorovViolation]:
    """The first violation of the rates at the certificate points whose
    bounds fail beyond the margin (an off-origin minimum, the origin's
    maximum, the peaks of the sum's parts), screened earliest first, 64
    times a block; None if none fails there."""
    rows = 64
    margin = bounds.margin
    off = bounds.low < -tol - margin
    off[0] = False
    times = [bounds.low_at[off], bounds.high_at[:int(bounds.high[0] > tol + margin)]]
    if bounds.total > tol + margin:
        times.append(bounds.total_at)
    times = np.unique(np.concatenate(times))
    for lo in range(0, times.size, rows):
        block = times[lo:lo + rows]
        violation = _first_violation(gen.bank.values(block), block, tol, "pointwise")
        if violation is not None:
            return violation
    return None


def kolmogorov_check_nonmarkov(gen: CirculantGenerator, taus: Sequence[float],
                               tol: float = DEFAULT_TOL) -> KolmogorovReport:
    """Integrated conditions on int_0^tau a_u(m) du at each grid tau.

    The grid is checked in order up to its first negative tau, which raises
    ``ValueError`` unless a violation comes before it.
    """
    taus = np.asarray(taus, dtype=float)
    negative = np.flatnonzero(taus < 0)
    checked = taus[:negative[0]] if negative.size else taus
    checked = checked[checked != 0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        violation = _first_violation(gen.bank.integrals(0.0, checked), checked, tol,
                                     "integrated")
    if violation is None and negative.size:
        raise ValueError("tau grid must be nonnegative")
    return KolmogorovReport("nonmarkov", violation is None, violation, taus, tol)


def condition_grid(a: float, b: float) -> np.ndarray:
    # as doubles: numpy holds an int past int64 as an object
    return np.linspace(float(a), float(b), DEFAULT_GRID_POINTS)


# ---------------------------------------------------------------------------
# closed-form propagation
# ---------------------------------------------------------------------------

def integration_window(t0: float, t, mode: PropagationMode) -> tuple:
    """Integration interval for the rate integrals: [t0, t] for the Markovian
    mode, [0, t - t0] for the homogeneous (non-Markovian) mode. An array of
    end times ``t`` gives an array of upper ends, one per row."""
    early = np.extract(np.less(t, t0), t)
    if early.size:
        raise ValueError(f"need t >= t0, got t0={t0}, t={early[0]}")
    if mode == "markov":
        return t0, t
    if mode == "nonmarkov":
        return 0.0, t - t0
    raise ValueError(f"unknown mode {mode!r}")


def window_grid(t0: float, times, mode: PropagationMode) -> np.ndarray:
    """The condition grids of the windows ending at ``times`` (one end time
    or an array), in row order, each point kept where it first occurs. Its
    first violation is the one the rows' own grids give in turn: the rows
    before the first failing row pass at all of their points."""
    lo, hi = integration_window(t0, np.atleast_1d(times), mode)
    grid = np.concatenate([condition_grid(lo, end) for end in hi.tolist()])
    _, first = np.unique(grid, return_index=True)
    return grid[np.sort(first)]


def first_failing_row(block: np.ndarray, conditions) -> Optional[tuple]:
    """The earliest row of a (times, functions) ``block`` that fails one of
    a kind's conditions or is not finite, as ``(row, which)``: ``which`` is
    the index of the first condition the row fails, or None where the row
    is not finite; None if every row passes. ``conditions(rows)`` stacks
    one failure mask per condition over ``rows``, the block's rows before
    its first non-finite one, so no mask reads a NaN, which fails no
    comparison."""
    finite = np.all(np.isfinite(block), axis=1)
    end = len(block) if finite.all() else int(np.argmin(finite))
    failed = conditions(block[:end])
    flagged = np.any(failed, axis=0)
    if flagged.any():
        row = int(np.argmax(flagged))
        return row, int(np.argmax(failed[:, row]))
    return None if end == len(block) else (end, None)


def kolmogorov_check(gen: CirculantGenerator, t0: float, t,
                     mode: PropagationMode = "markov",
                     tol: float = DEFAULT_TOL) -> KolmogorovReport:
    """The Kolmogorov report for ``mode`` on the windows ending at ``t`` (one
    end time or an array): the pointwise conditions over [t0, t] or the
    integrated ones over [0, t - t0], screened once on :func:`window_grid`."""
    grid = window_grid(t0, t, mode)
    if mode == "markov":
        return kolmogorov_check_markov(gen, grid, tol)
    return kolmogorov_check_nonmarkov(gen, grid, tol)


def relaxation(gen: CirculantGenerator, t0: float, t,
               mode: PropagationMode = "markov", check: bool = True):
    """The spectral core shared by every closed form: exp(I~(k)), where I~
    is the transform of the rates integrated over the mode's window.

    An array of end times ``t`` (a run's rows) gets one check and one bank
    call for all windows, and a list of fields, one per row. With
    ``check`` the matching Kolmogorov report must pass first; a violation
    raises :class:`PreconditionFailedError` carrying the witness.
    """
    lo, hi = integration_window(t0, np.atleast_1d(t), mode)
    if check:
        report = kolmogorov_check(gen, t0, t, mode)
        if not report.passed:
            v = report.first_violation
            raise PreconditionFailedError(
                f"Kolmogorov {report.mode} check failed at t={v.time}: {v}", witness=report)
    # an overflowing exponent is refused by LatticeField, without a warning
    with np.errstate(over="ignore"):
        fields = [LatticeField(gen.d, gen.naxes,
                               np.exp(dft(LatticeField(gen.d, gen.naxes, rates)).values))
                  for rates in gen.bank.integrals(lo, hi)]
    return fields if np.ndim(t) else fields[0]


def propagate(gen: CirculantGenerator, t0: float, t,
              mode: PropagationMode = "markov", check: bool = True):
    """Closed-form stochastic vector P(m) = d^-naxes sum_k lambda^(-m.k) exp(I(k)).

    The inverse transform of :func:`relaxation`, which checks the window
    unless ``check`` is false; an array of end times gives one per row. A
    negative output beyond tolerance (possible only for inconsistent
    inputs) raises :class:`NonProbabilisticResultError`.
    """
    fields = []
    for relax in relaxation(gen, t0, np.atleast_1d(t), mode, check):
        values = idft(relax).values.real
        worst = float(np.min(values))
        if worst < -DEFAULT_TOL:
            raise NonProbabilisticResultError(
                f"propagated vector has negative entry {worst:.3e} at index "
                f"{int(np.argmin(values))}")
        fields.append(LatticeField(gen.d, gen.naxes, values))
    return fields if np.ndim(t) else fields[0]


@dataclass(frozen=True)
class CompositionReport:
    mode: PropagationMode
    composition_residual: float
    homogeneity_residual: Optional[float]


def composition_check(gen: CirculantGenerator, t: float, s: float, u: float,
                      mode: PropagationMode = "markov") -> CompositionReport:
    """Residuals of P_{t,s} * P_{s,u} = P_{t,u} (and, for the homogeneous
    mode, of the time-shift invariance P_{t+h,u+h} = P_{t,u} at h = 0.5)."""
    if not t >= s >= u:
        raise ValueError(f"need t >= s >= u, got {t}, {s}, {u}")
    p_ts = propagate(gen, s, t, mode)
    p_su = propagate(gen, u, s, mode)
    p_tu = propagate(gen, u, t, mode)
    comp = float(np.max(np.abs(convolve(p_ts, p_su).values - p_tu.values)))
    homogeneity = None
    if mode == "nonmarkov":
        shifted = propagate(gen, u + 0.5, t + 0.5, mode)
        homogeneity = float(np.max(np.abs(shifted.values - p_tu.values)))
    return CompositionReport(mode, comp, homogeneity)
