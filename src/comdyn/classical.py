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
The lattice transforms are FFTs on the (d,) * n grid, O(d^n log d^n), with
the +m.k phase kernel on the forward leg; the dense kernel is built only for
the explicit eigenvector matrix :func:`fourier_modes`. Generator rates live
in a :class:`~comdyn.timefn.CoefficientBank`, so a condition check
evaluates its whole time grid in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from typing import Literal, Optional, Sequence

import numpy as np

from .errors import (DimensionMismatchError, NonProbabilisticResultError,
                     PreconditionFailedError)
from .superop import DEFAULT_TOL
from .timefn import CoefficientBank, as_time_function

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


@lru_cache(maxsize=None)
def _difference_index_map(d: int, naxes: int) -> np.ndarray:
    """idx[m, n] = flat index of (m_vec - n_vec) mod d; the circulant pattern."""
    size = d ** naxes
    coords = np.indices((d,) * naxes).reshape(naxes, size)
    diff = (coords[:, :, None] - coords[:, None, :]) % d
    flat = np.zeros((size, size), dtype=np.intp)
    for axis in range(naxes):
        flat = flat * d + diff[axis]
    return flat


@lru_cache(maxsize=None)
def _dft_kernel(d: int, naxes: int) -> np.ndarray:
    """W[m, k] = lambda^(m.k) with lambda = exp(2 pi i / d)."""
    size = d ** naxes
    coords = np.indices((d,) * naxes).reshape(naxes, size)
    dots = np.einsum("am,ak->mk", coords, coords) % d
    return np.exp((2j * np.pi / d) * dots)


def dft(x: LatticeField) -> LatticeField:
    """Forward transform x~(m) = sum_k lambda^(m.k) x(k).

    This is the unnormalized inverse FFT (d^naxes * ifftn) on the grid.
    """
    return LatticeField(x.d, x.naxes,
                        np.fft.ifftn(x.grid, norm="forward").reshape(-1))


def idft(x: LatticeField) -> LatticeField:
    """Inverse transform x(k) = d^-naxes sum_m lambda^(-m.k) x~(m),
    which is fftn / d^naxes on the grid."""
    return LatticeField(x.d, x.naxes,
                        np.fft.fftn(x.grid, norm="forward").reshape(-1))


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
    """Per-site rates a_t(m) on Z_d^naxes, each a :class:`TimeFunction`,
    evaluated together through one :class:`CoefficientBank`."""

    d: int
    naxes: int
    coefficients: tuple
    bank: CoefficientBank = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        funcs = tuple(as_time_function(c) for c in self.coefficients)
        if len(funcs) != self.d ** self.naxes:
            raise DimensionMismatchError(
                f"generator on Z_{self.d}^{self.naxes} needs "
                f"{self.d ** self.naxes} coefficients, got {len(funcs)}")
        object.__setattr__(self, "coefficients", funcs)
        object.__setattr__(self, "bank", CoefficientBank(funcs))

    @classmethod
    def constant(cls, d: int, naxes: int, values: Sequence[float]) -> "CirculantGenerator":
        return cls(d, naxes, tuple(values))

    def rates(self, t: float) -> LatticeField:
        return LatticeField(self.d, self.naxes, self.bank.values(t)[0])

    def integrated_rates(self, t0: float, t1: float) -> LatticeField:
        return LatticeField(self.d, self.naxes, self.bank.integrals(t0, t1)[0])


def circulant_matrix(gen: CirculantGenerator, t: float = 0.0) -> np.ndarray:
    """Dense generator matrix L(m, n) = a_t(m - n), real when the rates are
    real to rounding (every rate is an entry of L, so the rates decide)."""
    values = gen.rates(t).values
    if np.max(np.abs(values.imag)) <= 1e-14 * max(1.0, np.max(np.abs(values))):
        values = values.real
    return values[_difference_index_map(gen.d, gen.naxes)]


def circulant_spectrum(gen: CirculantGenerator, t: float = 0.0) -> LatticeField:
    """Eigenvalues l(m) = (dft a_t)(m); eigenvectors are the Fourier modes."""
    return dft(gen.rates(t))


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


@dataclass(frozen=True)
class KolmogorovReport:
    mode: PropagationMode
    passed: bool
    first_violation: Optional[KolmogorovViolation]
    grid: np.ndarray
    tol: float

    def as_dict(self) -> dict:
        out = {"mode": self.mode, "passed": self.passed, "tol": self.tol}
        if self.first_violation is not None:
            v = self.first_violation
            out["first_violation"] = {
                "time": v.time, "index": v.index,
                "value": v.value, "condition": v.condition,
            }
        return out


def _check_rate_field(values: np.ndarray, t: float, tol: float,
                      condition_prefix: str) -> Optional[KolmogorovViolation]:
    """The first failed condition of one rate field, in priority order:
    imaginary part, nonnegativity off the origin, zero sum, origin sign."""
    imag_max = float(np.max(np.abs(values.imag)))
    if imag_max > tol:
        return KolmogorovViolation(t, int(np.argmax(np.abs(values.imag))),
                                   imag_max, f"{condition_prefix} rates must be real")
    real = values.real
    off = real[1:]
    if off.size and float(np.min(off)) < -tol:
        idx = int(np.argmin(off)) + 1
        return KolmogorovViolation(t, idx, float(real[idx]),
                                   f"{condition_prefix} nonnegativity off the origin")
    total = float(np.sum(real))
    if abs(total) > tol * max(1.0, float(np.max(np.abs(real)))):
        return KolmogorovViolation(t, 0, total, f"{condition_prefix} zero-sum conservation")
    if real[0] > tol:
        return KolmogorovViolation(t, 0, float(real[0]),
                                   f"{condition_prefix} origin rate must be <= 0")
    return None


def _first_violation(gen: CirculantGenerator, block: np.ndarray, times: np.ndarray,
                     tol: float, condition_prefix: str) -> Optional[KolmogorovViolation]:
    """The earliest row of a (times, sites) rate block that fails a condition.

    The conditions of :func:`_check_rate_field` are screened for all rows at
    once; the witness is then built from the first flagged row alone. A
    non-finite row raises like the LatticeField it would have made.
    """
    real = block.real
    scale = np.maximum(1.0, np.max(np.abs(real), axis=1))
    flagged = (~np.all(np.isfinite(block), axis=1)
               | (np.max(np.abs(block.imag), axis=1) > tol)
               | (np.min(real[:, 1:], axis=1) < -tol)
               | (np.abs(np.sum(real, axis=1)) > tol * scale)
               | (real[:, 0] > tol))
    for row in np.flatnonzero(flagged):
        values = LatticeField(gen.d, gen.naxes, block[row]).values
        violation = _check_rate_field(values, float(times[row]), tol, condition_prefix)
        if violation is not None:
            return violation
    return None


def kolmogorov_check_markov(gen: CirculantGenerator, grid: Sequence[float],
                            tol: float = DEFAULT_TOL) -> KolmogorovReport:
    """Pointwise conditions: a_t(m) >= 0 for m != 0, sum_m a_t(m) = 0."""
    grid = np.asarray(grid, dtype=float)
    violation = _first_violation(gen, gen.bank.values(grid), grid, tol, "pointwise")
    return KolmogorovReport("markov", violation is None, violation, grid, tol)


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
    violation = _first_violation(gen, gen.bank.integrals(0.0, checked), checked,
                                 tol, "integrated")
    if violation is None and negative.size:
        raise ValueError("tau grid must be nonnegative")
    return KolmogorovReport("nonmarkov", violation is None, violation, taus, tol)


def condition_grid(a: float, b: float) -> np.ndarray:
    return np.linspace(a, b, DEFAULT_GRID_POINTS)


# ---------------------------------------------------------------------------
# closed-form propagation
# ---------------------------------------------------------------------------

def integration_window(t0: float, t: float, mode: PropagationMode) -> tuple:
    """Integration interval for the rate integrals: [t0, t] for the Markovian
    mode, [0, t - t0] for the homogeneous (non-Markovian) mode."""
    if t < t0:
        raise ValueError(f"need t >= t0, got t0={t0}, t={t}")
    if mode == "markov":
        return t0, t
    if mode == "nonmarkov":
        return 0.0, t - t0
    raise ValueError(f"unknown mode {mode!r}")


def kolmogorov_check(gen: CirculantGenerator, t0: float, t: float,
                     mode: PropagationMode = "markov",
                     tol: float = DEFAULT_TOL) -> KolmogorovReport:
    """The Kolmogorov report for ``mode`` on its integration window: the
    pointwise conditions over [t0, t] or the integrated ones over
    [0, t - t0], sampled on :data:`DEFAULT_GRID_POINTS` points."""
    grid = condition_grid(*integration_window(t0, t, mode))
    if mode == "markov":
        return kolmogorov_check_markov(gen, grid, tol)
    return kolmogorov_check_nonmarkov(gen, grid, tol)


def relaxation(gen: CirculantGenerator, t0: float, t: float,
               mode: PropagationMode = "markov", tol: float = DEFAULT_TOL,
               check: bool = True) -> LatticeField:
    """The spectral core shared by every closed form: exp(I~(k)), where I~
    is the transform of the rates integrated over the mode's window.

    With ``check`` the matching Kolmogorov report must pass first; a
    violation raises :class:`PreconditionFailedError` carrying the witness.
    """
    lo, hi = integration_window(t0, t, mode)
    if check:
        report = kolmogorov_check(gen, t0, t, mode, tol)
        if not report.passed:
            v = report.first_violation
            raise PreconditionFailedError(
                f"Kolmogorov {report.mode} check failed at t={v.time}: "
                f"{v.condition} (index {v.index}, value {v.value:.6e})",
                witness=report)
    return LatticeField(gen.d, gen.naxes,
                        np.exp(dft(gen.integrated_rates(lo, hi)).values))


def propagate(gen: CirculantGenerator, t0: float, t: float,
              mode: PropagationMode = "markov", tol: float = DEFAULT_TOL,
              check: bool = True) -> LatticeField:
    """Closed-form stochastic vector P(m) = d^-naxes sum_k lambda^(-m.k) exp(I(k)).

    The inverse transform of :func:`relaxation`, which checks the window
    unless ``check`` is false. A negative output beyond tolerance (possible
    only for inconsistent inputs) raises :class:`NonProbabilisticResultError`.
    """
    values = idft(relaxation(gen, t0, t, mode, tol, check)).values.real
    worst = float(np.min(values))
    if worst < -max(tol, 1e-12):
        raise NonProbabilisticResultError(
            f"propagated vector has negative entry {worst:.3e} at index "
            f"{int(np.argmin(values))}")
    return LatticeField(gen.d, gen.naxes, values)


@dataclass(frozen=True)
class CompositionReport:
    mode: PropagationMode
    composition_residual: float
    homogeneity_residual: Optional[float]


def composition_check(gen: CirculantGenerator, t: float, s: float, u: float,
                      mode: PropagationMode = "markov", shift: float = 0.5,
                      tol: float = DEFAULT_TOL) -> CompositionReport:
    """Residuals of P_{t,s} * P_{s,u} = P_{t,u} (and, for the homogeneous
    mode, of the time-shift invariance P_{t+h,u+h} = P_{t,u})."""
    if not t >= s >= u:
        raise ValueError(f"need t >= s >= u, got {t}, {s}, {u}")
    p_ts = propagate(gen, s, t, mode, tol)
    p_su = propagate(gen, u, s, mode, tol)
    p_tu = propagate(gen, u, t, mode, tol)
    comp = float(np.max(np.abs(convolve(p_ts, p_su).values - p_tu.values)))
    homogeneity = None
    if mode == "nonmarkov":
        shifted = propagate(gen, u + shift, t + shift, mode, tol)
        homogeneity = float(np.max(np.abs(shifted.values - p_tu.values)))
    return CompositionReport(mode, comp, homogeneity)
