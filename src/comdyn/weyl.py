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

from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache, reduce
from typing import Optional, Sequence, Union

import numpy as np

from . import classical
from .classical import CirculantGenerator, LatticeField, PropagationMode, dft
from .errors import DimensionMismatchError, NormalizationError
from .superop import DEFAULT_TOL, ChannelReport, SuperOperator
from .timefn import Constant, as_time_function

Index = Union[int, Sequence[int]]


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
def _single_weyl(d: int, m: int, n: int) -> np.ndarray:
    cols = np.arange(d)
    u = np.zeros((d, d), dtype=complex)
    u[(cols + n) % d, cols] = np.exp((2j * np.pi / d) * ((m * cols) % d))
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
    """All d^(2N) Weyl unitaries of Z_d^N, built once as one stack."""

    def __init__(self, d: int, nparties: int = 1):
        if d < 2:
            raise ValueError(f"need d >= 2, got {d}")
        if nparties < 1:
            raise ValueError(f"need nparties >= 1, got {nparties}")
        self.d = d
        self.nparties = nparties
        self.dim = d ** nparties          # Hilbert space dimension
        self.count = self.dim ** 2        # number of (m, n) pairs, d^(2N)
        self._stack = self._build_stack()
        self._vec_columns: Optional[np.ndarray] = None
        self._conjugation: Optional[np.ndarray] = None

    # -- index bookkeeping ---------------------------------------------------

    def flat_index(self, m: Index, n: Index) -> int:
        """Row-major flat index of (m_1..m_N, n_1..n_N)."""
        m = _as_index_tuple(m, self.nparties, self.d)
        n = _as_index_tuple(n, self.nparties, self.d)
        flat = 0
        for v in m + n:
            flat = flat * self.d + v
        return flat

    def index_pair(self, flat: int) -> tuple:
        digits = []
        for _ in range(2 * self.nparties):
            digits.append(flat % self.d)
            flat //= self.d
        digits.reverse()
        return tuple(digits[:self.nparties]), tuple(digits[self.nparties:])

    # -- unitaries -------------------------------------------------------------

    def _build_stack(self) -> np.ndarray:
        """Every u_{m,n} in flat order, as one batched Kronecker product.

        Party k's factor of each unitary is the single-site u_{m_k,n_k}. The
        stack, viewed with one row and one column axis per party, takes the
        first party's factors and is multiplied in place by each next
        party's, the left-to-right products ``reduce(np.kron, ...)`` forms;
        so the stack is bit-identical to :func:`weyl_unitary`, and nothing
        larger than one party's factors is allocated beside it."""
        d, npar, count = self.d, self.nparties, self.count
        singles = np.stack([_single_weyl(d, m, n) for m in range(d) for n in range(d)])
        # rows 0..N-1: the m digits of every flat index, rows N..2N-1: its
        # n digits, first party first
        digits = np.indices((d,) * (2 * npar)).reshape(2 * npar, count)
        stack = np.empty((count, self.dim, self.dim), dtype=complex)
        view = stack.reshape((count,) + (d,) * (2 * npar))
        for party in range(npar):
            shape = [count] + [1] * (2 * npar)
            shape[1 + party] = shape[1 + npar + party] = d
            factor = singles[digits[party] * d + digits[npar + party]].reshape(shape)
            if party == 0:
                view[...] = factor
            else:
                view *= factor
        return stack

    def unitary(self, m: Index, n: Index) -> np.ndarray:
        return self._stack[self.flat_index(m, n)].copy()

    def unitary_flat(self, flat: int) -> np.ndarray:
        return self._stack[flat].copy()

    def conjugation_index(self) -> np.ndarray:
        """Flat index of u_{n,-m}, the unitary that the coefficient a(m, n)
        at each flat (m, n) conjugates with; computed once."""
        if self._conjugation is None:
            d, npar = self.d, self.nparties
            digits = np.indices((d,) * (2 * npar)).reshape(2 * npar, self.count)
            swapped = np.concatenate([digits[npar:], (-digits[:npar]) % d])
            self._conjugation = d ** np.arange(2 * npar - 1, -1, -1) @ swapped
        return self._conjugation

    def vec_columns(self) -> np.ndarray:
        """(dim^2, count) array whose columns are vec(u_{m,n}) in flat order."""
        if self._vec_columns is None:
            cols = np.empty((self.dim * self.dim, self.count), dtype=complex)
            # vec stacks columns: cols[j dim + i, k] = u_k[i, j]
            cols.reshape(self.dim, self.dim, self.count)[...] = \
                self._stack.transpose(2, 1, 0)
            self._vec_columns = cols
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

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_residual < tol

    def as_dict(self) -> dict:
        return {
            "d": self.d, "nparties": self.nparties,
            "product_residual": self.product_residual,
            "adjoint_residual": self.adjoint_residual,
            "orthogonality_residual": self.orthogonality_residual,
            "max_residual": self.max_residual,
        }


def _product_residual(stack: np.ndarray, digits: np.ndarray, d: int) -> float:
    """Residual of u_a u_b = lambda^(m_a.n_b) u_(a+b) over every pair (a, b),
    checked on the column form of the stack in O(D^5) work rather than the
    O(D^6) of dense products.

    Column j of u_k holds vals[k, j] at row rows[k, j] (its largest entry),
    plus entries off that support of modulus at most ``off`` (0 for a Weyl
    family). Column j of M_a M_b, for the monomial parts M, is
    p = vals[a, r] vals[b, j] at row rows[a, r] with r = rows[b, j]; against
    the entry q of phi_ab M_(a+b) it differs by |p - q| where the two rows
    agree and by max(|p|, |q|) where they do not. The off-support parts E
    add at most |M_a E_b| + |E_a u_b| + |phi E_c| <= (2 D s + 1) off to any
    entry of u_a u_b - phi_ab u_(a+b), where s bounds every entry, and the
    residual includes that bound: it bounds the dense residual from above,
    exactly in real arithmetic and up to the rounding of one complex
    product in floating point, and equals it when ``off`` is 0.
    """
    count, dim = stack.shape[:2]
    npar = digits.shape[1] // 2
    moduli = np.abs(stack)
    rows = np.argmax(moduli, axis=1)
    vals = np.take_along_axis(stack, rows[:, None, :], axis=1)[:, 0, :]
    scale = float(np.max(moduli))
    np.put_along_axis(moduli, rows[:, None, :], 0.0, axis=1)
    off = float(np.max(moduli))
    del moduli

    # row k count + c of `phased` is lambda^k vals[c], and keys[a, b] picks
    # the row for phi_ab M_(a+b): k = m_a.n_b mod d, c the flat index of a + b
    lam = 2j * np.pi / d
    phased = (np.exp(lam * np.arange(d))[:, None, None] * vals).reshape(-1, dim)
    place = d ** np.arange(2 * npar - 1, -1, -1)
    keys = (digits[:, :npar] @ digits[:, npar:].T) % d * count
    for k in range(2 * npar):
        keys += (digits[:, k, None] + digits[:, k]) % d * place[k]
    # rows[a][rows[b]] = rows[a + b] for every pair once it holds for every
    # a and each unit step b = place[k], by induction over sums of unit
    # steps; differences, not integer comparisons, whose kernel would page
    # in 128 KB of library text that nothing else in a run touches
    composed = not any((rows[:, rows[g]] - rows[keys[:, g] % count]).any()
                       for g in place)

    residual = 0.0
    for a in range(count):
        p = vals[a][rows]
        p *= vals
        q = phased[keys[a]]
        res = np.abs(p - q)
        if not composed:
            apart = (rows[a][rows] - rows[keys[a] % count]).astype(bool)
            res[apart] = np.maximum(np.abs(p[apart]), np.abs(q[apart]))
        residual = max(residual, float(np.max(res)))
    return residual + (2 * dim * scale + 1) * off


def relations_check(family: WeylFamily) -> WeylRelationsReport:
    """Exhaustively verify the product rule (on the unitaries' column form,
    see :func:`_product_residual`), the adjoint rule, and the
    orthogonality relations over all index pairs."""
    d, npar = family.d, family.nparties
    count = family.count
    stack = family._stack
    # row k: the digits (m_1..m_N, n_1..n_N) of flat index k, first slowest
    digits = np.indices((d,) * (2 * npar)).reshape(2 * npar, count).T
    place = d ** np.arange(2 * npar - 1, -1, -1)
    ms, ns = digits[:, :npar], digits[:, npar:]
    product_residual = _product_residual(stack, digits, d)

    lam = 2j * np.pi / d
    phases = np.exp(lam * (np.sum(ms * ns, axis=1) % d))
    targets = ((-digits) % d) @ place
    adjoint_residual = float(np.max(np.abs(
        stack.conj().swapaxes(1, 2) - phases[:, None, None] * stack[targets])))

    cols = family.vec_columns()
    gram = cols.conj().T @ cols
    orthogonality_residual = float(np.max(np.abs(
        gram - family.dim * np.eye(count))))

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
    coefficients: tuple
    _circulant: CirculantGenerator = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        funcs = tuple(as_time_function(c) for c in self.coefficients)
        expected = self.d ** (2 * self.nparties)
        if len(funcs) != expected:
            raise DimensionMismatchError(
                f"field on Z_{self.d}^{self.nparties} x Z_{self.d}^{self.nparties} "
                f"needs {expected} coefficients, got {len(funcs)}")
        object.__setattr__(self, "coefficients", funcs)
        object.__setattr__(self, "_circulant",
                           CirculantGenerator(self.d, 2 * self.nparties, funcs))

    @classmethod
    def constant(cls, d: int, nparties: int, values: Sequence[complex]) -> "WeylCoefficientField":
        return cls(d, nparties, tuple(values))

    @property
    def is_constant(self) -> bool:
        return all(f.is_constant for f in self.coefficients)

    def family(self) -> WeylFamily:
        return WeylFamily(self.d, self.nparties)

    def as_circulant(self) -> CirculantGenerator:
        """The same coefficients viewed as rates on the doubled lattice
        (built once, with its coefficient bank)."""
        return self._circulant


# ---------------------------------------------------------------------------
# maps from coefficient fields
# ---------------------------------------------------------------------------

def map_from_values(family: WeylFamily, values: LatticeField) -> SuperOperator:
    """A x = sum a(m, n) u_{n,-m} x u_{n,-m}^dag for a fixed coefficient field.

    With each u = u_{n,-m} flattened into a row of U, in flat (m, n) order,
    the sum over (m, n) of a(m, n) conj(u)[i, j] u[k, l] is the one matrix
    product (a conj(U))^T U; reordered from rows (i, j) and columns (k, l)
    to rows (i, k) and columns (j, l), it is the sum of the Kronecker
    products a(m, n) conj(u) (x) u.
    """
    if (values.d, values.naxes) != (family.d, 2 * family.nparties):
        raise DimensionMismatchError(
            f"coefficient field lives on Z_{values.d}^{values.naxes}, family "
            f"needs Z_{family.d}^{2 * family.nparties}")
    dim = family.dim
    stack = family._stack[family.conjugation_index()].reshape(family.count, dim * dim)
    products = (values.values[:, None] * stack.conj()).T @ stack
    matrix = products.reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, -1)
    return SuperOperator(dim, matrix)


def map_from_coeffs(field: WeylCoefficientField, t: float = 0.0,
                    family: Optional[WeylFamily] = None) -> SuperOperator:
    if family is None:
        family = field.family()
    return map_from_values(family, field.as_circulant().rates(t))


def _support(d: int, nparties: int) -> tuple:
    """Where sum_{m,n} a~(m, n) P_{m,n} on Z_d^N, D = d^N, can be nonzero.

    vec(u_{m,n}) holds lambda^(m.c) at position c D + (c + n) for each
    column c, with addition per party mod d. Projectors with different
    shifts n share no position, so the map is one D x D block per shift, on
    rows and columns ``positions[n]``. Its entry (c, c') is
    D^-1 sum_m a~(m, n) lambda^(m.(c - c')): the inverse transform of a~
    over the m axes at ``differences[c, c']``, the flat index of c' - c."""
    dim = d ** nparties
    digits = np.indices((d,) * nparties).reshape(nparties, dim)
    place = d ** np.arange(nparties - 1, -1, -1)
    plus = np.tensordot(place, (digits[:, :, None] + digits[:, None, :]) % d, 1)
    differences = np.tensordot(place, (digits[:, None, :] - digits[:, :, None]) % d, 1)
    return plus + dim * np.arange(dim), differences


def _scatter_support(blocks: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The D^2 x D^2 matrix with ``blocks[n]`` on the rows and columns
    ``positions[n]``, and +0.0 everywhere else."""
    size = positions.size
    matrix = np.zeros((size, size), dtype=complex)
    matrix[positions[:, :, None], positions[:, None, :]] = blocks
    return matrix


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
        col = weyl_unitary(self.d, m, n).reshape(-1, order="F")
        return SuperOperator(self.dim, np.outer(col, col.conj()) / self.dim)

    def assemble(self) -> SuperOperator:
        """sum_{m,n} a~(m, n) P_{m,n} over the stored eigenvalues, built
        block by block on its D^3 support (see :func:`_support`) in
        O(D^3) work."""
        npar, dim = self.nparties, self.dim
        positions, differences = _support(self.d, npar)
        # q[k, n] = D^-1 sum_m lambda^(-m.k) a~(m, n)
        q = np.fft.fftn(self.eigenvalues.grid, axes=tuple(range(npar)),
                        norm="forward").reshape(dim, dim)
        return SuperOperator(dim, _scatter_support(q.T[:, differences], positions))

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
        skew = np.fft.fftn(field.grid.imag, axes=tuple(range(npar, 2 * npar)))
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


def map_spectrum(field: WeylCoefficientField, t: float = 0.0) -> WeylSpectrum:
    """Spectral data of map_from_coeffs(field, t): the eigenvalue on u_{k,l}
    is the doubled-lattice Fourier transform a~(k, l)."""
    return WeylSpectrum(dft(field.as_circulant().rates(t)))


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
            matrix += rate * (np.kron(u.conj(), u) - eye)
        return SuperOperator(dim, matrix)


def lindblad_decomposition(field: WeylCoefficientField, t: float = 0.0,
                           tol: float = DEFAULT_TOL) -> LindbladDecomposition:
    family = field.family()
    values = field.as_circulant().rates(t).values
    total = complex(np.sum(values))
    if abs(total) > tol:
        raise NormalizationError(
            f"generator coefficients must sum to zero, got {total}")
    indices = tuple(k for k in range(family.count) if k != 0)
    rates = values[np.array(indices)]
    return LindbladDecomposition(family, indices, rates, -complex(np.sum(rates)))


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def evolve(field: WeylCoefficientField, t0: float, t: float,
           mode: PropagationMode = "markov", tol: float = DEFAULT_TOL) -> SuperOperator:
    """Closed-form dynamical map A_{t,t0} = sum exp(I~(m,n)) P_{m,n}.

    The relaxation factors exp(I~) come from :func:`classical.relaxation`
    of the field viewed as a classical generator on the doubled lattice, so
    the field must pass the matching Kolmogorov check.
    """
    return WeylSpectrum(classical.relaxation(
        field.as_circulant(), t0, t, mode, tol)).assemble()


def diagonal_action(field: WeylCoefficientField) -> CirculantGenerator:
    """Circulant rates governing the populations (diagonal matrix elements).

    The map sends e_ii to sum_{m,n} a(m,n) e_{i-m,i-m}, so the population
    vector obeys the classical master equation with the reflected row sum
    b(m) = sum_n a(-m, n).
    """
    d, npar = field.d, field.nparties
    size = d ** npar
    grid = np.array(field.coefficients, dtype=object).reshape(size, size)
    summed = [reduce(lambda x, y: x + y, row) for row in grid]

    coords = np.indices((d,) * npar).reshape(npar, size)
    reflected = (-coords) % d
    flat = np.zeros(size, dtype=np.intp)
    for axis in range(npar):
        flat = flat * d + reflected[axis]

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
