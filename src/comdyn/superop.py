"""Hilbert-Schmidt linear algebra on maps M_D -> M_D.

Operators a, b, rho are dense D x D complex arrays with the inner product
(a, b) = tr(a^dag b). Linear maps on that space are stored as dense
D^2 x D^2 matrices acting on column-stacked vectorizations:

    vec(x) = x.reshape(-1, order="F"),   vec(a x b) = kron(b.T, a) vec(x).

The column-stacking convention is fixed here once; every other module goes
through :func:`vec` / :func:`devec` and the :class:`SuperOperator`
constructors, except three places that scatter Weyl unitaries straight
into the order: ``weyl._support``, ``WeylFamily.vec_columns`` and
``weyl.map_from_values``, which the Weyl tests check against :func:`vec`
and :meth:`SuperOperator.from_conjugation`.

Besides the representation itself this module provides the two natural
orthonormal superoperator bases (sandwich maps f_a x f_b^dag and rank-one
maps f_a (f_b, .)), the complete-positivity test through the coefficient
matrix of the sandwich basis (the Choi matrix when matrix units are used),
and diagonalization into a bi-orthogonal ("damping") eigenbasis for
non-normal maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DefectiveMapError, DimensionMismatchError

DEFAULT_TOL = 1e-10

#: Condition-number cap on the eigenvector matrix beyond which a map is
#: treated as defective (Jordan blocks of size > 1).
DEFAULT_COND_CAP = 1e8


# ---------------------------------------------------------------------------
# vectorization
# ---------------------------------------------------------------------------

def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization of a square matrix."""
    return np.asarray(x).reshape(-1, order="F")


def devec(v: np.ndarray, dim: Optional[int] = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if dim is None:
        dim = int(round(np.sqrt(v.size)))
    if dim * dim != v.size:
        raise DimensionMismatchError(f"cannot devec length {v.size} into a square matrix")
    return v.reshape((dim, dim), order="F")


def _vec_stack(mats: np.ndarray) -> np.ndarray:
    """Column-stack each matrix in a (n, D, D) stack; returns (n, D*D)."""
    return mats.transpose(0, 2, 1).reshape(mats.shape[0], -1)


# ---------------------------------------------------------------------------
# matrix-level helpers
# ---------------------------------------------------------------------------

def check_finite_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b), conjugate-linear in a."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def matrix_units(dim: int) -> np.ndarray:
    """Stack of matrix units E_ij, flattened row-major: index alpha = i*dim + j."""
    units = np.zeros((dim * dim, dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            units[i * dim + j, i, j] = 1.0
    return units


# ---------------------------------------------------------------------------
# SuperOperator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuperOperator:
    """Dense linear map on M_dim in the column-stacking representation."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        n = self.dim * self.dim
        if m.shape != (n, n):
            raise DimensionMismatchError(
                f"superoperator on M_{self.dim} needs a {n}x{n} matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("superoperator matrix has non-finite entries")
        object.__setattr__(self, "matrix", m)

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "SuperOperator":
        return cls(dim, np.eye(dim * dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "SuperOperator":
        return cls(dim, np.zeros((dim * dim, dim * dim), dtype=complex))

    @classmethod
    def from_left_right(cls, a: np.ndarray, b: np.ndarray) -> "SuperOperator":
        """The map x -> a x b."""
        a = check_finite_matrix(a)
        b = check_finite_matrix(b)
        if a.shape != b.shape:
            raise DimensionMismatchError("left and right factors must share a dimension")
        return cls(a.shape[0], np.kron(b.T, a))

    @classmethod
    def from_conjugation(cls, u: np.ndarray) -> "SuperOperator":
        """The map x -> u x u^dag."""
        u = check_finite_matrix(u)
        return cls(u.shape[0], np.kron(u.conj(), u))

    @classmethod
    def from_action(cls, action: Callable[[np.ndarray], np.ndarray], dim: int) -> "SuperOperator":
        """Build the matrix of an arbitrary map by applying it to matrix units."""
        n = dim * dim
        m = np.zeros((n, n), dtype=complex)
        for col in range(n):
            basis_vec = np.zeros(n, dtype=complex)
            basis_vec[col] = 1.0
            m[:, col] = vec(action(devec(basis_vec, dim)))
        return cls(dim, m)

    # -- algebra -----------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected a {self.dim}x{self.dim} operand, got {x.shape}")
        return devec(self.matrix @ vec(x), self.dim)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return compose(self, other)

    def __add__(self, other: "SuperOperator") -> "SuperOperator":
        self._require_same_space(other)
        return SuperOperator(self.dim, self.matrix + other.matrix)

    def __sub__(self, other: "SuperOperator") -> "SuperOperator":
        self._require_same_space(other)
        return SuperOperator(self.dim, self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "SuperOperator":
        return SuperOperator(self.dim, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SuperOperator":
        return SuperOperator(self.dim, -self.matrix)

    def _require_same_space(self, other: "SuperOperator"):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"superoperators act on M_{self.dim} vs M_{other.dim}")

    def norm(self) -> float:
        """Spectral (operator-2) norm of the representing matrix."""
        return float(np.linalg.norm(self.matrix, 2))


def dual(a: SuperOperator) -> SuperOperator:
    """Adjoint map under the Hilbert-Schmidt inner product.

    With column stacking the dual is the conjugate transpose of the
    representing matrix: (dual(A) x, y) = (x, A y) for all x, y.
    """
    return SuperOperator(a.dim, a.matrix.conj().T)


def compose(a: SuperOperator, b: SuperOperator) -> SuperOperator:
    """The map x -> a(b(x))."""
    a._require_same_space(b)
    return SuperOperator(a.dim, a.matrix @ b.matrix)


def superop_inner(a: SuperOperator, b: SuperOperator) -> complex:
    """<<A, B>> = sum_alpha (A f_alpha, B f_alpha), basis independent."""
    a._require_same_space(b)
    return complex(np.vdot(a.matrix, b.matrix))


# ---------------------------------------------------------------------------
# F / E representations
# ---------------------------------------------------------------------------

def _check_orthonormal(basis: np.ndarray, tol: float) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    n, d1, d2 = basis.shape
    if d1 != d2 or n != d1 * d1:
        raise DimensionMismatchError(
            f"operator basis must be (D^2, D, D), got {basis.shape}")
    stack = _vec_stack(basis)
    gram = stack.conj() @ stack.T
    deviation = float(np.max(np.abs(gram - np.eye(n))))
    if deviation > tol:
        raise ValueError(
            f"operator basis is not orthonormal (Gram deviation {deviation:.3e})")
    return basis


def f_coefficients(a: SuperOperator, basis: Optional[np.ndarray] = None,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coefficient matrix of A over the sandwich basis F_ab x = f_a x f_b^dag.

    Returns c with A = sum_ab c[a, b] F_ab. Over matrix units this is the
    Choi matrix of A, so A is completely positive iff c is positive
    semidefinite. Without an explicit basis the matrix units are used, and
    c[(k, l), (i, j)] = A[(i, k), (j, l)] is an index reshuffle of A.
    """
    dim = a.dim
    tensor = a.matrix.reshape(dim, dim, dim, dim)
    if basis is None:
        return tensor.transpose(1, 3, 0, 2).reshape(dim * dim, dim * dim)
    basis = _check_orthonormal(basis, tol)
    return np.einsum("bij,akl,ikjl->ab", basis, basis.conj(), tensor, optimize=True)


def f_reconstruct(coeffs: np.ndarray, basis: Optional[np.ndarray] = None,
                  tol: float = DEFAULT_TOL) -> SuperOperator:
    """Assemble sum_ab c[a, b] F_ab back into a SuperOperator."""
    coeffs = np.asarray(coeffs, dtype=complex)
    dim = int(round(np.sqrt(coeffs.shape[0])))
    if basis is None:
        basis = matrix_units(dim)
    basis = _check_orthonormal(basis, tol)
    tensor = np.einsum("ab,bij,akl->ikjl", coeffs, basis.conj(), basis, optimize=True)
    return SuperOperator(dim, tensor.reshape(dim * dim, dim * dim))


def e_coefficients(a: SuperOperator, basis: Optional[np.ndarray] = None,
                   tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coefficient matrix over the rank-one basis E_ab x = f_a (f_b, x).

    This representation is a homomorphism for composition:
    e_coefficients(A o B) = e_coefficients(A) @ e_coefficients(B).
    """
    if basis is None:
        basis = matrix_units(a.dim)
    basis = _check_orthonormal(basis, tol)
    stack = _vec_stack(basis)          # rows are vec(f_a)
    return stack.conj() @ a.matrix @ stack.T


def e_reconstruct(coeffs: np.ndarray, basis: Optional[np.ndarray] = None,
                  tol: float = DEFAULT_TOL) -> SuperOperator:
    coeffs = np.asarray(coeffs, dtype=complex)
    dim = int(round(np.sqrt(coeffs.shape[0])))
    if basis is None:
        basis = matrix_units(dim)
    basis = _check_orthonormal(basis, tol)
    stack = _vec_stack(basis)
    return SuperOperator(dim, stack.T @ coeffs @ stack.conj())


# ---------------------------------------------------------------------------
# channel validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelReport:
    """Physicality report for a map; residuals act as witnesses."""

    cp: bool
    tp: bool
    unital: bool
    hermiticity_preserving: bool
    choi_min_eigenvalue: float
    tp_residual: float
    unital_residual: float
    hermiticity_residual: float
    tol: float

    @property
    def cptp(self) -> bool:
        return self.cp and self.tp

    def agrees_with(self, other: "ChannelReport", atol: float) -> bool:
        """Whether two reports on the same map, computed two ways, say the
        same: equal tolerance and flags, and every figure within ``atol``."""
        flags = ("cp", "tp", "unital", "hermiticity_preserving", "tol")
        figures = ("choi_min_eigenvalue", "tp_residual", "unital_residual",
                   "hermiticity_residual")
        return (all(getattr(self, f) == getattr(other, f) for f in flags)
                and all(abs(getattr(self, f) - getattr(other, f)) <= atol
                        for f in figures))

    def as_dict(self) -> dict:
        return {
            "cp": self.cp,
            "tp": self.tp,
            "unital": self.unital,
            "hermiticity_preserving": self.hermiticity_preserving,
            "choi_min_eigenvalue": self.choi_min_eigenvalue,
            "tp_residual": self.tp_residual,
            "unital_residual": self.unital_residual,
            "hermiticity_residual": self.hermiticity_residual,
            "tol": self.tol,
        }


def validate_channel(a: SuperOperator, tol: float = DEFAULT_TOL) -> ChannelReport:
    """Check complete positivity, trace preservation, unitality and
    hermiticity preservation of a map."""
    coeffs = f_coefficients(a)
    # one (D^2, D^2) buffer beside coeffs holds c - c^dag, then the
    # Hermitian part (c^dag + c) / 2: the same values as out-of-place
    # arithmetic, with two fewer temporaries of the map's size
    skew = np.conjugate(coeffs.T)
    np.subtract(coeffs, skew, out=skew)
    herm_residual = float(np.max(np.abs(skew)))
    herm_ok = herm_residual <= tol
    if herm_ok:
        herm = np.conjugate(coeffs.T, out=skew)
        herm += coeffs
        herm /= 2.0
        min_eig = float(np.min(np.linalg.eigvalsh(herm)))
    else:
        min_eig = float(np.min(np.linalg.eigvals(coeffs).real))

    ident = np.eye(a.dim, dtype=complex)
    tp_residual = float(np.max(np.abs(dual(a).apply(ident) - ident)))
    unital_residual = float(np.max(np.abs(a.apply(ident) - ident)))

    return ChannelReport(
        cp=herm_ok and min_eig >= -tol,
        tp=tp_residual <= tol,
        unital=unital_residual <= tol,
        hermiticity_preserving=herm_ok,
        choi_min_eigenvalue=min_eig,
        tp_residual=tp_residual,
        unital_residual=unital_residual,
        hermiticity_residual=herm_residual,
        tol=tol,
    )


# ---------------------------------------------------------------------------
# spectral decomposition with bi-orthogonal bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues d_a with paired right/left matrices (g_a, h_a).

    Stored so that tr(g_a^dag h_b) = delta_ab; the map reconstructs as
    A x = sum_a d_a g_a tr(h_a^dag x).
    """

    dim: int
    eigenvalues: np.ndarray      # (dim^2,)
    right_vectors: np.ndarray    # (dim^2, dim, dim) stack of g_a
    left_vectors: np.ndarray     # (dim^2, dim, dim) stack of h_a

    def assemble(self, values: Optional[np.ndarray] = None) -> SuperOperator:
        """sum_a v_a g_a tr(h_a^dag . ); defaults to the stored eigenvalues."""
        if values is None:
            values = self.eigenvalues
        values = np.asarray(values, dtype=complex)
        g = _vec_stack(self.right_vectors)    # rows vec(g_a)
        h = _vec_stack(self.left_vectors)
        matrix = g.T @ (values[:, None] * h.conj())
        return SuperOperator(self.dim, matrix)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients tr(h_a^dag x) of x over the g basis."""
        return _vec_stack(self.left_vectors).conj() @ vec(x)


def _cluster_orthonormalize(vals: np.ndarray, vecs: np.ndarray,
                            cluster_tol: float) -> np.ndarray:
    """QR-orthonormalize eigenvector columns within clusters of (numerically)
    equal eigenvalues; a Gram-Schmidt pass that leaves eigenspaces intact.

    A rank-deficient cluster means the geometric multiplicity falls short of
    the algebraic one, i.e. a nontrivial Jordan block."""
    out = vecs.copy()
    start = 0
    n = vals.size
    while start < n:
        stop = start + 1
        while stop < n and abs(vals[stop] - vals[start]) <= cluster_tol:
            stop += 1
        if stop - start > 1:
            block = out[:, start:stop]
            singular = np.linalg.svd(block, compute_uv=False)
            if singular[-1] < 1e-7 * singular[0]:
                raise DefectiveMapError(
                    f"eigenvalue cluster at {vals[start]:.6g} is rank deficient "
                    "(Jordan blocks of size > 1)")
            q, _ = np.linalg.qr(block)
            out[:, start:stop] = q
        else:
            out[:, start] /= np.linalg.norm(out[:, start])
        start = stop
    return out


def diagonalize(a: SuperOperator) -> SpectralDecomposition:
    """Diagonalize a (generally non-normal) map into a bi-orthogonal basis.

    Eigenpairs are sorted by (real, imaginary) part; each g_a has unit
    Frobenius norm with its largest-magnitude entry made real positive, and
    the left family is fixed by tr(g_a^dag h_b) = delta_ab.

    Raises :class:`DefectiveMapError` when the eigenvector matrix condition
    number exceeds :data:`DEFAULT_COND_CAP` (Jordan blocks of size > 1).
    """
    vals, vecs = np.linalg.eig(a.matrix)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]

    scale = max(1.0, float(np.max(np.abs(vals))))
    vecs = _cluster_orthonormalize(vals, vecs, cluster_tol=1e-9 * scale)

    # phase convention: largest-magnitude entry of each g_a real positive
    for col in range(vecs.shape[1]):
        idx = int(np.argmax(np.abs(vecs[:, col])))
        pivot = vecs[idx, col]
        if abs(pivot) > 0:
            vecs[:, col] *= abs(pivot) / pivot

    cond = np.linalg.cond(vecs)
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        raise DefectiveMapError(
            f"eigenvector matrix condition number {cond:.3e} exceeds cap "
            f"{DEFAULT_COND_CAP:.1e}; the map appears defective (Jordan blocks > 1)")

    left = np.linalg.inv(vecs).conj().T   # columns vec(h_a), h^dag g = I

    dim = a.dim
    right_mats = np.stack([devec(vecs[:, k], dim) for k in range(vecs.shape[1])])
    left_mats = np.stack([devec(left[:, k], dim) for k in range(left.shape[1])])
    decomposition = SpectralDecomposition(dim=dim, eigenvalues=vals,
                                          right_vectors=right_mats,
                                          left_vectors=left_mats)

    # final guard: the assembled spectral form must reproduce the map, which
    # fails exactly when near-defectiveness slipped past the cluster checks
    residual = np.max(np.abs(decomposition.assemble().matrix - a.matrix))
    if residual > 1e-8 * scale:
        raise DefectiveMapError(
            f"spectral reconstruction residual {residual:.3e}; the map is too "
            "close to defective for a bi-orthogonal eigenbasis")
    return decomposition


def spectral_function(dec: SpectralDecomposition,
                      phi: Callable[[np.ndarray], np.ndarray]) -> SuperOperator:
    """Apply a scalar function to a map through its spectral decomposition."""
    values = np.asarray(phi(dec.eigenvalues), dtype=complex)
    if values.shape != dec.eigenvalues.shape:
        values = np.broadcast_to(values, dec.eigenvalues.shape).astype(complex)
    if not np.all(np.isfinite(values)):
        bad = dec.eigenvalues[~np.isfinite(values)]
        raise ValueError(f"function undefined at eigenvalue(s) {bad}")
    return dec.assemble(values)
