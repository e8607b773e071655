"""Weyl (generalized Pauli) operators on C_d and their N-partite products.

The unitaries u_{m,n}, defined by u_{m,n} e_k = lambda^{m k} e_{n+k} with
lambda = exp(2 pi i / d), form a projective representation of Z_d x Z_d:

    u_{m,n} u_{r,s} = lambda^{m.s} u_{m+r, n+s}
    u_{m,n}^dag     = lambda^{m.n} u_{-m,-n}
    tr(u_{m,n}^dag u_{k,l}) = d^N delta_mk delta_nl

N-partite operators are tensor products component-wise. A coefficient
field a(m, n) on the doubled lattice Z_d^N x Z_d^N induces the map

    A x = sum_{m,n} a(m, n) u_{n,-m} x u_{n,-m}^dag,

which is diagonal on the Weyl basis with eigenvalues given by the doubled
lattice Fourier transform: A u_{k,l} = a~(k, l) u_{k,l} with
a~(k, l) = sum_{m,n} a(m, n) lambda^{k.m + l.n}. All dynamics built here
(channels from probability fields, Lindblad generators from zero-sum rate
fields, propagators from time integrals of the rates) share the fixed
rank-one spectral projectors P_{m,n} x = u_{m,n} tr(u_{m,n}^dag x) / d^N,
so maps from different coefficient fields always commute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field
from functools import lru_cache, reduce
from typing import Optional, Sequence, Union

import numpy as np

from . import classical
from .classical import CirculantGenerator, LatticeField, PropagationMode, dft
from .errors import DimensionMismatchError, NormalizationError
from .superop import DEFAULT_TOL, ChannelReport, SuperOperator, vec
from .timefn import Constant, as_time_function

Index = Union[int, Sequence[int]]

#: Cap on every residual of :func:`relations_check` for the relations to hold.
RELATIONS_TOL = 1e-12


def _as_index_tuple(value: Index, nparties: int, d: int) -> tuple:
    if isinstance(value, (int, np.integer)):
        if nparties != 1:
            raise DimensionMismatchError(
                f"scalar index given for an {nparties}-partite family")
        value = (int(value),)
    else:
        value = tuple(int(v) for v in value)
        if len(value) != nparties:
            raise DimensionMismatchError(
                f"index {value} has {len(value)} components, expected {nparties}")
    return tuple(v % d for v in value)


@lru_cache(maxsize=None)
def _tables(d: int, nparties: int) -> tuple:
    """The clock and shift tables of the Weyl family of Z_d^N, D = d^N,
    read-only: column c of u_{m,n} (m, n, c flat) holds
    clocks[m, c] = lambda^(m.c) at row shifts[n, c], the flat index of
    c + n. The clocks multiply the parties' phases from left to right, as
    ``reduce(np.kron, ...)`` does, so they equal the nonzero entries of
    :func:`weyl_unitary` to the bit."""
    digits, place = classical.lattice_digits(d, nparties)
    cols = np.arange(d)
    single = np.exp((2j * np.pi / d) * (np.outer(cols, cols) % d))
    clocks = reduce(np.kron, [single] * nparties)
    shifts = np.tensordot(place, (digits[:, :, None] + digits[:, None, :]) % d, 1)
    clocks.setflags(write=False)
    shifts.setflags(write=False)
    return clocks, shifts


@lru_cache(maxsize=None)
def _single_weyl(d: int, m: int, n: int) -> np.ndarray:
    cols = np.arange(d)
    u = np.zeros((d, d), dtype=complex)
    u[(cols + n) % d, cols] = _tables(d, 1)[0][m]
    u.setflags(write=False)
    return u


def weyl_unitary(d: int, m: Index, n: Index) -> np.ndarray:
    """The unitary u_{m,n}; for sequences m, n the tensor product over parties."""
    if isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer)):
        return _single_weyl(d, int(m) % d, int(n) % d).copy()
    m = tuple(int(v) for v in np.atleast_1d(m))
    n = tuple(int(v) for v in np.atleast_1d(n))
    if len(m) != len(n):
        raise DimensionMismatchError("m and n must have the same number of parties")
    factors = [_single_weyl(d, mi % d, ni % d) for mi, ni in zip(m, n)]
    return reduce(np.kron, factors).copy()


class WeylFamily:
    """All d^(2N) Weyl unitaries of Z_d^N, held as their D x D clock and
    shift tables (see :func:`_tables`): u_{m,n}, for flat m and n, has
    flat index m D + n. Dense unitaries are scattered from the tables,
    with +0.0 off their support, only where they are asked for."""

    def __init__(self, d: int, nparties: int = 1):
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        if nparties < 1:
            raise ValueError(f"need nparties >= 1, got {nparties}")
        self.d = d
        self.nparties = nparties
        self.dim = d ** nparties          # Hilbert space dimension
        self.count = self.dim ** 2        # number of (m, n) pairs, d^(2N)
        self.clocks, self.shifts = _tables(d, nparties)
        self._digits, self._place = classical.lattice_digits(d, nparties)
        self._vec_columns: Optional[np.ndarray] = None
        self._conjugation: Optional[np.ndarray] = None

    # -- index bookkeeping ---------------------------------------------------

    def flat_index(self, m: Index, n: Index) -> int:
        """Row-major flat index of (m_1..m_N, n_1..n_N)."""
        m = _as_index_tuple(m, self.nparties, self.d)
        n = _as_index_tuple(n, self.nparties, self.d)
        return int(self._place @ m) * self.dim + int(self._place @ n)

    def index_pair(self, flat: int) -> tuple:
        m, n = divmod(int(flat), self.dim)
        return tuple(self._digits[:, m].tolist()), tuple(self._digits[:, n].tolist())

    # -- unitaries -------------------------------------------------------------

    def unitaries(self, flats) -> np.ndarray:
        """The dense u_k for the flat indices ``flats``, shape (len, D, D)."""
        m, n = np.divmod(np.asarray(flats), self.dim)
        out = np.zeros((m.size, self.dim, self.dim), dtype=complex)
        out[np.arange(m.size)[:, None], self.shifts[n], np.arange(self.dim)] = self.clocks[m]
        return out

    def unitary(self, m: Index, n: Index) -> np.ndarray:
        return self.unitary_flat(self.flat_index(m, n))

    def unitary_flat(self, flat: int) -> np.ndarray:
        return self.unitaries([flat])[0]

    def conjugation_index(self) -> np.ndarray:
        """Flat index of u_{n,-m}, the unitary that the coefficient a(m, n)
        at each flat (m, n) conjugates with; computed once."""
        if self._conjugation is None:
            neg = self._place @ ((-self._digits) % self.d)     # flat index of -m
            self._conjugation = (np.arange(self.dim) * self.dim + neg[:, None]).reshape(-1)
        return self._conjugation

    def vec_columns(self) -> np.ndarray:
        """(dim^2, count) array whose columns are vec(u_{m,n}) in flat order:
        vec(u_{m,n}) holds clocks[m, c] at c D + shifts[n, c]."""
        if self._vec_columns is None:
            dim, axis = self.dim, np.arange(self.dim)
            cols = np.zeros((dim * dim, dim, dim), dtype=complex)
            cols[self.shifts + dim * axis, axis[:, None, None], axis[:, None]] = \
                self.clocks[:, None, :]
            self._vec_columns = cols.reshape(dim * dim, self.count)
        return self._vec_columns


# ---------------------------------------------------------------------------
# algebra checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylRelationsReport:
    d: int
    nparties: int
    product_residual: float
    adjoint_residual: float
    orthogonality_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.product_residual, self.adjoint_residual,
                   self.orthogonality_residual)

    def passed(self) -> bool:
        return self.max_residual < RELATIONS_TOL

    def as_dict(self) -> dict:
        return {**asdict(self), "max_residual": self.max_residual}


def relations_check(family: WeylFamily) -> WeylRelationsReport:
    """Exhaustively verify the product and adjoint rules on the family's
    tables, and the orthogonality relations on its dense vec columns.

    Every column of a table family holds one entry, so the residuals are
    those of dense products. For a = (m_a, n_a) and b = (m_b, n_b), column
    j of u_a u_b holds p = clocks[m_a, r] clocks[m_b, j] at row
    shifts[n_a, r], r = shifts[n_b, j], and column j of
    lambda^(m_a.n_b) u_(a+b) holds q = lambda^(m_a.n_b) clocks[m_a + m_b, j]
    at row shifts[n_a + n_b, j]: the residual is |p - q| where the shift
    rows compose and max(|p|, |q|) where they do not, in O(D^4) work, as p
    and q do not depend on n_a. Column r = shifts[n, c] of u_{m,n}^dag
    holds conj(clocks[m, c]) at row c, and column r of
    lambda^(m.n) u_{-m,-n} holds its entry at row shifts[-n, r]; as each
    shift row is a permutation, these are all the entries of either.
    """
    d, npar, dim = family.d, family.nparties, family.dim
    clocks, shifts = family.clocks, family.shifts
    # the index arithmetic, independent of the tables under test
    digits, place = classical.lattice_digits(d, npar)
    dots = (digits.T @ digits) % d                   # m.n mod d
    plus = np.tensordot(place, (digits[:, :, None] + digits[:, None, :]) % d, 1)
    neg = place @ ((-digits) % d)
    powers = np.exp((2j * np.pi / d) * np.arange(d))

    # [n_a, n_b, j]: whether u_a u_b and u_(a+b) put column j on different
    # rows; differences, not integer comparisons, whose kernel would page
    # in 128 KB of library text that nothing else in a run touches
    moved = (shifts[:, shifts] - shifts[plus]).astype(bool)
    apart, level = moved.any(axis=0), ~moved.all(axis=0)
    composed = not apart.any()
    phased = powers[:, None, None] * clocks
    product_residual = 0.0
    for ma in range(dim):
        p = clocks[ma][shifts] * clocks[:, None, :]          # [m_b, n_b, j]
        q = phased[dots[ma], plus[ma][:, None]]
        res = np.abs(p - q)
        if not composed:
            res = np.maximum(np.where(level, res, 0.0), np.where(
                apart, np.maximum(np.abs(p), np.abs(q)), 0.0))
        product_residual = max(product_residual, float(np.max(res)))

    dag = clocks.conj()[:, None, :]
    target = powers[dots][:, :, None] * clocks[neg][:, shifts]   # [m, n, c]
    res = np.abs(dag - target)
    off = (shifts[neg[:, None], shifts] - np.arange(dim)).astype(bool)
    if off.any():
        res = np.where(off, np.maximum(np.abs(dag), np.abs(target)), res)
    adjoint_residual = float(np.max(res))

    cols = family.vec_columns()
    gram = cols.conj().T @ cols
    gram.reshape(-1)[::family.count + 1] -= family.dim
    orthogonality_residual = float(np.max(np.abs(gram, out=gram).real))

    return WeylRelationsReport(d, npar, product_residual, adjoint_residual,
                               orthogonality_residual)


# ---------------------------------------------------------------------------
# coefficient fields on the doubled lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylCoefficientField:
    """Coefficients a_t(m, n) on Z_d^N x Z_d^N (flat order: m axes then n axes).

    A probability field induces a CPTP unital channel; a real zero-sum field
    induces a (generally time-dependent) Lindblad generator.
    """

    d: int
    nparties: int
    coefficients: tuple    # as CirculantGenerator's: TimeFunctions, numbers or specs
    _circulant: CirculantGenerator = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        expected = self.d ** (2 * self.nparties)
        if len(self.coefficients) != expected:
            raise DimensionMismatchError(
                f"field on Z_{self.d}^{self.nparties} x Z_{self.d}^{self.nparties} "
                f"needs {expected} coefficients, got {len(self.coefficients)}")
        object.__setattr__(self, "_circulant", CirculantGenerator(
            self.d, 2 * self.nparties, self.coefficients))

    @classmethod
    def constant(cls, d: int, nparties: int, values: Sequence[complex]) -> "WeylCoefficientField":
        return cls(d, nparties, tuple(values))

    @property
    def is_constant(self) -> bool:
        return all(as_time_function(f).is_constant for f in self.coefficients)

    def family(self) -> WeylFamily:
        return WeylFamily(self.d, self.nparties)

    def as_circulant(self) -> CirculantGenerator:
        """The same coefficients viewed as rates on the doubled lattice
        (built once, with its coefficient bank)."""
        return self._circulant


# ---------------------------------------------------------------------------
# maps from coefficient fields
# ---------------------------------------------------------------------------

def map_from_values(family: WeylFamily, values) -> Union[SuperOperator, np.ndarray]:
    """A x = sum a(m, n) u_{n,-m} x u_{n,-m}^dag for a fixed coefficient field.

    With each u = u_{n,-m} flattened into a row of U, in flat (m, n) order,
    the sum over (m, n) of a(m, n) conj(u)[i, j] u[k, l] is the one matrix
    product (a conj(U))^T U; reordered from rows (i, j) and columns (k, l)
    to rows (i, k) and columns (j, l), it is the sum of the Kronecker
    products a(m, n) conj(u) (x) u.

    ``values`` is one field, giving its :class:`SuperOperator`, or a
    (rows, count) block of coefficient rows in flat order, giving the
    (rows, D^2, D^2) stack of their matrices, each the same product as for
    its row alone. U is scattered once per call.
    """
    if isinstance(values, LatticeField):
        if (values.d, values.naxes) != (family.d, 2 * family.nparties):
            raise DimensionMismatchError(
                f"coefficient field lives on Z_{values.d}^{values.naxes}, family "
                f"needs Z_{family.d}^{2 * family.nparties}")
        block = values.values[None]
    else:
        block = np.asarray(values)
        if block.ndim != 2 or block.shape[1] != family.count:
            raise DimensionMismatchError(
                f"coefficient rows of shape {block.shape}, family needs "
                f"(rows, {family.count})")
    dim = family.dim
    stack = family.unitaries(family.conjugation_index()).reshape(family.count, dim * dim)
    products = (block[:, :, None] * stack.conj()).transpose(0, 2, 1) @ stack
    maps = products.reshape((-1,) + (dim,) * 4).transpose(0, 1, 3, 2, 4).reshape(
        -1, dim * dim, dim * dim)
    if isinstance(values, LatticeField):
        return SuperOperator(dim, maps[0])
    if not np.isfinite(maps).all():
        raise ValueError("superoperator matrix has non-finite entries")
    return maps


def map_from_coeffs(field: WeylCoefficientField, t=0.0,
                    family: Optional[WeylFamily] = None) -> Union[SuperOperator, np.ndarray]:
    """The map of the field at time ``t``; an array of times gives the
    stack of their matrices from one bank block and one
    :func:`map_from_values` call."""
    if family is None:
        family = field.family()
    if np.ndim(t):
        return map_from_values(family, field.as_circulant().rate_rows(t))
    return map_from_values(family, field.as_circulant().rates(t))


@dataclass(frozen=True)
class WeylSpectrum:
    """Eigenvalue field a~(k, l) on Z_d^N x Z_d^N over the fixed Weyl
    projector family of C_d^(x N); it builds no :class:`WeylFamily`."""

    eigenvalues: LatticeField

    @property
    def d(self) -> int:
        return self.eigenvalues.d

    @property
    def nparties(self) -> int:
        return self.eigenvalues.naxes // 2

    @property
    def dim(self) -> int:
        return self.d ** self.nparties

    def projector(self, m: Index, n: Index) -> SuperOperator:
        """P_{m,n} x = u_{m,n} tr(u_{m,n}^dag x) / d^N."""
        col = vec(weyl_unitary(self.d, m, n))
        return SuperOperator(self.dim, np.outer(col, col.conj()) / self.dim)

    def support(self) -> tuple:
        """Where :meth:`assemble` can be nonzero, and its D^2 values there:
        ``(values, positions, differences)``, in O(D^2 log D) work.

        vec(u_{m,n}) holds lambda^(m.c) at position c D + shifts[n, c] for
        each column c (see :func:`_tables`). Projectors with different
        shifts n share no position, so the map is one D x D block per shift,
        ``values[n, differences]``, on the rows and columns
        ``positions[n]``, and +0.0 off the blocks. Its entry (c, c') is
        D^-1 sum_m a~(m, n) lambda^(m.(c - c')): the inverse transform of
        a~ over the m axes at ``differences[c, c']``, the flat index of
        c' - c."""
        npar, dim = self.nparties, self.dim
        positions = _tables(self.d, npar)[1] + dim * np.arange(dim)
        q = classical.fft_axes(self.eigenvalues.grid, range(npar),
                               forward_norm=True).reshape(dim, dim)
        return q.T, positions, classical._difference_index_map(self.d, npar).T

    def assemble(self) -> SuperOperator:
        """sum_{m,n} a~(m, n) P_{m,n} over the stored eigenvalues: the
        blocks of :meth:`support` scattered into the dense D^2 x D^2 matrix,
        O(D^3) work beside its D^4 zeros."""
        values, positions, differences = self.support()
        matrix = np.zeros((positions.size,) * 2, dtype=complex)
        matrix[positions[:, :, None], positions[:, None, :]] = values[:, differences]
        return SuperOperator(self.dim, matrix)

    def channel_report(self, tol: float = DEFAULT_TOL) -> ChannelReport:
        """The :func:`~comdyn.superop.validate_channel` report of
        :meth:`assemble`, from the eigenvalues alone in O(D^2 log D).

        The assembled map is sum p(m, n) u_{n,-m} x u_{n,-m}^dag with the
        coefficient field p = idft(a~). Its Choi matrix c is normal, with
        eigenvalues D p(m, n), and c - c^dag = 2i sum Im p(m, n)
        |vec u_{n,-m}><vec u_{n,-m}|, whose entries for each shift m are
        sums of Im p(m, n) lambda^(n.j) over n: the transform of Im p over
        the field's n axes, the phase index of u_{n,-m}. The map sends the
        identity to a~(0, 0) times the identity, and its dual sends it to
        conj(a~(0, 0)) times the identity. Hence:

        * choi_min_eigenvalue = D min Re p
        * hermiticity_residual = 2 max |fftn(Im p, n axes)|
        * tp_residual = unital_residual = |a~(0, 0) - 1|

        and the flags follow with ``tol`` as in ``validate_channel``. The
        figures equal the dense ones in exact arithmetic; in floating point
        they agree within :meth:`rounding_bound`.
        """
        npar = self.nparties
        field = classical.idft(self.eigenvalues)
        skew = classical.fft_axes(field.grid.imag, range(npar, 2 * npar))
        herm_residual = 2.0 * float(np.max(np.abs(skew)))
        herm_ok = herm_residual <= tol
        min_eig = self.dim * float(np.min(field.values.real))
        residual = float(abs(self.eigenvalues.values[0] - 1.0))
        return ChannelReport(
            cp=herm_ok and min_eig >= -tol,
            tp=residual <= tol,
            unital=residual <= tol,
            hermiticity_preserving=herm_ok,
            choi_min_eigenvalue=min_eig,
            tp_residual=residual,
            unital_residual=residual,
            hermiticity_residual=herm_residual,
            tol=tol,
        )

    def rounding_bound(self) -> float:
        """How far the figures of :meth:`channel_report` and of the dense
        ``validate_channel`` on :meth:`assemble` may drift apart by
        rounding: D^2 eps times D max(1, |a~|), a dense eigensolver's error
        on the D^2 x D^2 Choi matrix, whose norm D max |p| is at most
        D max |a~|; the other figures round far less."""
        values = self.eigenvalues.values
        dim = self.dim
        eps = float(np.finfo(values.dtype).eps)
        return dim ** 3 * eps * max(1.0, float(np.max(np.abs(values))))


def spectrum_convention_residual(d: int, nparties: int = 1) -> float:
    """Exhaustive check that A u_{k,l} = a~(k, l) u_{k,l} for a generic field.

    Guards the phase-kernel convention a~(k,l) = sum a(m,n) lambda^(k.m+l.n)
    against drift; returns the max residual over all (k, l).
    """
    family = WeylFamily(d, nparties)
    idx = np.arange(family.count)
    field = LatticeField(d, 2 * nparties, 1.0 / (idx + 2.0) + 1j / (3.0 * idx + 7.0))
    # one (D^2, D^2) temporary at a time beside the family's own arrays
    image = map_from_values(family, field).matrix @ family.vec_columns()
    image -= family.vec_columns() * dft(field).values
    return float(np.max(np.abs(image)))


# ---------------------------------------------------------------------------
# Lindblad structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LindbladDecomposition:
    """Jump-operator form of a Weyl generator: no Hamiltonian part, jump
    operators u_{n,-m} with rates a(m, n) for (m, n) != 0; the origin
    coefficient is fixed by the zero-sum normalization."""

    family: WeylFamily
    jump_indices: tuple              # flat (m, n) indices, origin excluded
    rates: np.ndarray                # coefficients a(m, n) in the same order
    origin_rate: complex             # a(0, 0) = -sum of rates

    @property
    def markovian(self) -> bool:
        return bool(np.max(np.abs(self.rates.imag)) <= 1e-12
                    and np.min(self.rates.real) >= -1e-12)

    def jump_operator(self, position: int) -> np.ndarray:
        return self.family.unitary_flat(
            int(self.family.conjugation_index()[self.jump_indices[position]]))

    def assemble(self) -> SuperOperator:
        """sum' a(m,n) (u x u^dag - x); equals the generator it came from."""
        dim = self.family.dim
        matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
        eye = np.eye(dim * dim)
        for pos, rate in enumerate(self.rates):
            if rate == 0:
                continue
            u = self.jump_operator(pos)
            matrix += rate * (SuperOperator.from_conjugation(u).matrix - eye)
        return SuperOperator(dim, matrix)


def lindblad_decomposition(field: WeylCoefficientField,
                           t: float = 0.0) -> LindbladDecomposition:
    family = field.family()
    values = field.as_circulant().rates(t).values
    total = complex(np.sum(values))
    if abs(total) > DEFAULT_TOL:
        raise NormalizationError(
            f"generator coefficients must sum to zero, got {total}")
    indices = tuple(k for k in range(family.count) if k != 0)
    rates = values[np.array(indices)]
    return LindbladDecomposition(family, indices, rates, -complex(np.sum(rates)))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def evolve(field: WeylCoefficientField, t0: float, t: float,
           mode: PropagationMode = "markov") -> SuperOperator:
    """Closed-form dynamical map A_{t,t0} = sum exp(I~(m,n)) P_{m,n}.

    The relaxation factors exp(I~) come from :func:`classical.relaxation`
    of the field viewed as a classical generator on the doubled lattice, so
    the field must pass the matching Kolmogorov check.
    """
    return WeylSpectrum(classical.relaxation(field.as_circulant(), t0, t, mode)).assemble()


def diagonal_action(field: WeylCoefficientField) -> CirculantGenerator:
    """Circulant rates governing the populations (diagonal matrix elements).

    The map sends e_ii to sum_{m,n} a(m,n) e_{i-m,i-m}, so the population
    vector obeys the classical master equation with the reflected row sum
    b(m) = sum_n a(-m, n).
    """
    d, npar = field.d, field.nparties
    size = d ** npar
    grid = np.array([as_time_function(f) for f in field.coefficients],
                    dtype=object).reshape(size, size)
    summed = [reduce(lambda x, y: x + y, row) for row in grid]

    digits, place = classical.lattice_digits(d, npar)
    flat = place @ ((-digits) % d)

    out = [summed[flat[k]] for k in range(size)]
    folded = [Constant(f(0.0)) if f.is_constant else f for f in out]
    return CirculantGenerator(d, npar, tuple(folded))


def embed_stochastic_matrix(transition: np.ndarray) -> SuperOperator:
    """Quantum rewriting of a stochastic map: rho -> sum T(m,n) e_mn rho e_nm.

    On a diagonal state diag(p) this reproduces the classical action
    diag(T p); it is the channel whose Kraus operators are sqrt(T(m,n)) e_mn
    when T is entrywise nonnegative.
    """
    transition = np.asarray(transition, dtype=complex)
    dim = transition.shape[0]
    if transition.shape != (dim, dim):
        raise DimensionMismatchError("transition matrix must be square")
    matrix = np.zeros((dim * dim, dim * dim), dtype=complex)
    for m in range(dim):
        for n in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[m, n] = 1.0
            matrix += transition[m, n] * np.kron(unit, unit)
    return SuperOperator(dim, matrix)
