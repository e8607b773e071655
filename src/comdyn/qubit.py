"""Commutative two-level dynamics in closed form.

The generator combines a sigma_3 rotation at rate eps(t), pumping between
the levels at rate gamma(t) split by a mixing parameter mu, and a dephasing
block with a Hermitian 2x2 coefficient matrix c(t) over the level
projectors. All of these commute at different times, so the dynamics
diagonalizes once in the mu-dependent damping basis

    g = (omega, sigma+, sigma-, sigma_3),   h = (I, sigma+, sigma-, sigma),

with omega = mu pi_1 + (1 - mu) pi_0 the invariant state and
sigma = (1 - mu) pi_1 - mu pi_0. The eigenvalues are (0, Gamma(t),
conj(Gamma(t)), -gamma(t)) with

    Gamma(t) = -1/2 [gamma + c_00 + c_11 - 2 c_10 + 2 i eps],

so the propagator is a sum of four scalar exponentials of coefficient
integrals. Matrix conventions are fixed as sigma+ = |1><0|, pi_0 = |0><0|,
pi_1 = |1><1|, sigma_3 = pi_1 - pi_0, which makes the bi-orthogonality
tr(g_a^dag h_b) = delta exact (and exact in rational arithmetic when mu is
a Fraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Optional

import numpy as np

from .classical import PropagationMode, condition_grid, integration_window
from .errors import PreconditionFailedError
from .superop import DEFAULT_TOL, SuperOperator
from .timefn import CoefficientBank, TimeFunction, as_time_function

E00 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
E11 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)   # |1><0|
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
PI0 = E00   # sigma- sigma+
PI1 = E11   # sigma+ sigma-
SIGMA3 = PI1 - PI0
IDENTITY2 = np.eye(2, dtype=complex)
#: The orthonormal family (e11, sigma+, sigma-, e00) that V maps onto g.
_F = (E11, SIGMA_PLUS, SIGMA_MINUS, E00)


def _is_exact_number(mu) -> bool:
    return isinstance(mu, (Fraction, int)) and not isinstance(mu, bool)


def damping_basis(mu):
    """Bi-orthogonal pair (g, h) diagonalizing every generator of the family.

    For an exact ``mu`` (int or Fraction) the arrays are object-dtype and
    tr(g_a^dag h_b) = delta_ab holds exactly in rational arithmetic.
    """
    if _is_exact_number(mu):
        zero, one = Fraction(0), Fraction(1)
        mu = Fraction(mu)
        omega = np.array([[one - mu, zero], [zero, mu]], dtype=object)
        sigma = np.array([[-mu, zero], [zero, one - mu]], dtype=object)
        sp = np.array([[zero, zero], [one, zero]], dtype=object)
        sm = np.array([[zero, one], [zero, zero]], dtype=object)
        s3 = np.array([[-one, zero], [zero, one]], dtype=object)
        ident = np.array([[one, zero], [zero, one]], dtype=object)
    else:
        mu = float(mu)
        omega = np.array([[1.0 - mu, 0.0], [0.0, mu]], dtype=complex)
        sigma = np.array([[-mu, 0.0], [0.0, 1.0 - mu]], dtype=complex)
        sp, sm, s3, ident = SIGMA_PLUS, SIGMA_MINUS, SIGMA3, IDENTITY2
    g = (omega, sp, sm, s3)
    h = (ident, sp, sm, sigma)
    return g, h


@dataclass(frozen=True)
class QubitGeneratorSpec:
    """Coefficients of the two-level generator family.

    ``c`` is a 2x2 nest of TimeFunctions that must be Hermitian at every
    sampled time; ``mu`` is the mixing parameter in [0, 1]. ``bank`` holds
    (epsilon, gamma, c00, c01, c10, c11) in that column order, ``basis``
    the generator's (6, 4, 4) coefficient matrices in the same order (see
    :func:`build_generator`), and ``projectors`` the (4, 4, 4) stack of
    mode projectors vec(g_a) vec(h_a)^dag of the damping basis.
    """

    epsilon: TimeFunction
    gamma: TimeFunction
    c: tuple
    mu: float
    bank: CoefficientBank = dataclass_field(init=False, repr=False, compare=False)
    basis: np.ndarray = dataclass_field(init=False, repr=False, compare=False)
    projectors: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "epsilon", as_time_function(self.epsilon))
        object.__setattr__(self, "gamma", as_time_function(self.gamma))
        rows = tuple(tuple(as_time_function(f) for f in row) for row in self.c)
        if len(rows) != 2 or any(len(row) != 2 for row in rows):
            raise ValueError("c must be a 2x2 nest of coefficients")
        object.__setattr__(self, "c", rows)
        if not 0.0 <= float(self.mu) <= 1.0:
            raise ValueError(f"mixing parameter must lie in [0, 1], got {self.mu}")
        object.__setattr__(self, "bank", CoefficientBank(
            (self.epsilon, self.gamma) + rows[0] + rows[1]))
        object.__setattr__(self, "basis", _generator_basis(float(self.mu)))
        object.__setattr__(self, "projectors",
                           _rank_one_stack(*damping_basis(float(self.mu))))

    @classmethod
    def constant(cls, epsilon=0.0, gamma=0.0, c=((0.0, 0.0), (0.0, 0.0)),
                 mu=0.5) -> "QubitGeneratorSpec":
        return cls(epsilon, gamma, c, mu)


def _require_hermitian(cmat: np.ndarray, t: float, tol: float = 1e-9,
                       name: str = "c(t)") -> np.ndarray:
    """``cmat``, unless max |c - c^dag| exceeds ``tol`` max(1, max |c|);
    ``name`` says what ``cmat`` is in the refusal.

    Scalar arithmetic on the four entries: |c_ab - conj(c_ba)| is the same
    for (0, 1) and (1, 0), and |c_aa - conj(c_aa)| = 2 |Im c_aa| exactly.
    """
    c00, c01, c10, c11 = cmat.ravel().tolist()
    scale = max(1.0, abs(c00), abs(c01), abs(c10), abs(c11))
    skew = max(2.0 * abs(c00.imag), abs(c01 - c10.conjugate()), 2.0 * abs(c11.imag))
    if skew > tol * scale:
        raise ValueError(f"{name} is not Hermitian at t={t}")
    return cmat


def _dissipator(jump: np.ndarray) -> np.ndarray:
    jj = jump.conj().T @ jump
    return (np.kron(jump.conj(), jump)
            - 0.5 * (np.kron(IDENTITY2, jj) + np.kron(jj.T, IDENTITY2)))


def _generator_basis(mu: float) -> np.ndarray:
    """The generator's coefficient matrices, shape (6, 4, 4), in the bank's
    column order (epsilon, gamma, c00, c01, c10, c11)."""
    # Hamiltonian rotation -i/2 eps [sigma_3, .]
    rotation = -0.5j * (np.kron(IDENTITY2, SIGMA3) - np.kron(SIGMA3.T, IDENTITY2))
    # pumping gamma (mu D[sigma+] + (1 - mu) D[sigma-])
    pumping = mu * _dissipator(SIGMA_PLUS) + (1.0 - mu) * _dissipator(SIGMA_MINUS)
    # dephasing sum c_ab (pi_a rho pi_b - 1/2 {pi_b pi_a, rho})
    dephasing = []
    projectors = (PI0, PI1)
    for alpha in range(2):
        for beta in range(2):
            sandwich = np.kron(projectors[beta].T, projectors[alpha])
            product = projectors[beta] @ projectors[alpha]
            anti = 0.5 * (np.kron(IDENTITY2, product) + np.kron(product.T, IDENTITY2))
            dephasing.append(sandwich - anti)
    return np.stack([rotation, pumping] + dephasing)


def build_generator(spec: QubitGeneratorSpec, t: float = 0.0) -> SuperOperator:
    """Assemble the generator at time t as a 4x4 superoperator: the bank's
    row at t contracted with the spec's fixed basis, summed term by term
    in column order."""
    row = spec.bank.values(t)[0]
    _require_hermitian(row[2:].reshape(2, 2), t)
    return SuperOperator(2, np.einsum("k,kij->ij", row, spec.basis))


def _modes(row: np.ndarray) -> np.ndarray:
    """The four mode eigenvalues (0, Gamma, conj Gamma, -gamma) from a bank
    row (epsilon, gamma, c00, c01, c10, c11) of values or integrals."""
    eps, gamma, c00, _, c10, c11 = row
    big_gamma = -0.5 * (gamma + c00 + c11 - 2.0 * c10 + 2.0j * eps)
    return np.array([0.0, big_gamma, np.conj(big_gamma), -gamma])


def gamma_eigenvalue(spec: QubitGeneratorSpec, t: float = 0.0) -> complex:
    """The complex eigenvalue on sigma+,
    Gamma = -1/2 [gamma + c_00 + c_11 - 2 c_10 + 2 i eps], exact for every
    Hermitian c (complex c_10 included)."""
    row = spec.bank.values(t)[0]
    _require_hermitian(row[2:].reshape(2, 2), t)
    return complex(_modes(row)[1])


def eigenvalue_integrals(spec: QubitGeneratorSpec, t0: float, t1: float) -> np.ndarray:
    """Integrals over [t0, t1] of the four mode eigenvalues
    (0, Gamma, conj Gamma, -gamma)."""
    return _modes(spec.bank.integrals(t0, t1)[0])


def _rank_one_stack(lefts, rights) -> np.ndarray:
    """The stack vec(l_a) vec(r_a)^dag of superoperator matrices, with vec
    stacking columns; shape (len(lefts), 4, 4)."""
    cols = np.stack([np.asarray(m, dtype=complex).reshape(-1, order="F") for m in lefts])
    rows = np.stack([np.asarray(m, dtype=complex).reshape(-1, order="F") for m in rights])
    return cols[:, :, None] * rows.conj()[:, None, :]


def _sign_check(spec: QubitGeneratorSpec, t0: float, t: float,
                mode: PropagationMode, tol: float) -> tuple:
    """The mode's integration window, and the first sign violation on its
    condition grid: (time, "gamma" or "c") at the first point where
    gamma < -tol or c is not positive semidefinite, gamma first at equal
    times; None if none.

    Markovian mode checks the values pointwise on [t0, t]; the homogeneous
    mode checks int_0^tau over the nonzero taus of [0, t - t0]. In both, c
    (or its integral) must also be Hermitian, raising at the first point
    where it is not.
    """
    lo, hi = integration_window(t0, t, mode)
    grid = condition_grid(lo, hi)
    pointwise = mode == "markov"
    if pointwise:
        block = spec.bank.values(grid)
    else:
        grid = grid[grid != 0.0]
        block = spec.bank.integrals(0.0, grid)
    cmats = block[:, 2:].reshape(-1, 2, 2)
    adjoints = cmats.conj().swapaxes(1, 2)
    min_eigs = np.min(np.linalg.eigvalsh((cmats + adjoints) / 2.0), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(cmats), axis=(1, 2)))
    flagged = ((block[:, 1].real < -tol) | (min_eigs < -tol)
               | (np.max(np.abs(cmats - adjoints), axis=(1, 2)) > 1e-9 * scale))
    if not np.any(flagged):
        return (lo, hi), None
    row = int(np.argmax(flagged))
    u = float(grid[row])
    if block[row, 1].real < -tol:
        return (lo, hi), (u, "gamma")
    _require_hermitian(cmats[row], u, name="c(t)" if pointwise else "int_0^t c")
    return (lo, hi), (u, "c")


def propagate(spec: QubitGeneratorSpec, t0: float, t: float,
              mode: PropagationMode = "markov", tol: float = DEFAULT_TOL) -> SuperOperator:
    """Closed-form propagator sum_a exp(int lambda_a) g_a tr(h_a^dag .).

    Markovian mode requires gamma(u) > -tol and c(u) >= 0 pointwise on
    [t0, t]; the homogeneous mode requires the running integrals over
    [0, tau] to satisfy the same signs for tau <= t - t0.
    """
    (lo, hi), violation = _sign_check(spec, t0, t, mode, tol)
    if violation is not None:
        u, which = violation
        if mode == "markov":
            message = (f"gamma({u}) = {spec.gamma(u)} negative" if which == "gamma"
                       else f"c({u}) not positive semidefinite")
            raise PreconditionFailedError(f"{message} (markov mode)",
                                          witness=(which, u))
        message = (f"int_0^{u} gamma < 0" if which == "gamma"
                   else f"int_0^{u} c not positive semidefinite")
        raise PreconditionFailedError(f"{message} (nonmarkov mode)",
                                      witness=(f"{which}-integral", u))
    factors = np.exp(eigenvalue_integrals(spec, lo, hi))
    return SuperOperator(2, np.einsum("a,aij->ij", factors, spec.projectors))


@dataclass(frozen=True)
class VConjugation:
    """The basis-change map V with V f_a = g_a for f = (e11, s+, s-, e00)."""

    v: SuperOperator
    v_inverse: SuperOperator
    v_inverse_dual: SuperOperator


def v_conjugation(mu: float) -> VConjugation:
    """Construct V, V^-1 and V^-1# from the damping basis.

    V x = sum_a g_a (f_a, x) maps the orthonormal family
    f = (e11, sigma+, sigma-, e00) onto the damping basis g, and
    V^-1# maps it onto h; conjugating the diagonal projectors
    P_a x = f_a (f_a, x) with V therefore diagonalizes the whole family.
    """
    if not 0.0 <= float(mu) <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {mu}")
    g, h = damping_basis(float(mu))
    return VConjugation(
        v=SuperOperator(2, _rank_one_stack(g, _F).sum(axis=0)),
        v_inverse=SuperOperator(2, _rank_one_stack(_F, h).sum(axis=0)),
        v_inverse_dual=SuperOperator(2, _rank_one_stack(h, _F).sum(axis=0)),
    )


def spectral_projector(index: int) -> SuperOperator:
    """P_index x = f_index (f_index, x) over f = (e11, s+, s-, e00)."""
    f = (_F[index],)
    return SuperOperator(2, _rank_one_stack(f, f)[0])


@dataclass(frozen=True)
class ClassificationReport:
    markovian: bool
    nonmarkovian_valid: bool
    first_markov_violation: Optional[tuple]      # (time, condition)
    first_nonmarkov_violation: Optional[tuple]
    horizon: float

    def as_dict(self) -> dict:
        return {
            "markovian": self.markovian,
            "nonmarkovian_valid": self.nonmarkovian_valid,
            "first_markov_violation": self.first_markov_violation,
            "first_nonmarkov_violation": self.first_nonmarkov_violation,
            "horizon": self.horizon,
        }


def classify(spec: QubitGeneratorSpec, t0: float, t: float,
             tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Check the pointwise (Markovian) conditions on [t0, t] and the
    integrated (non-Markovian) ones on [0, t - t0]: the windows
    :func:`propagate` checks in each mode."""
    _, markov_violation = _sign_check(spec, t0, t, "markov", tol)
    if markov_violation is not None:
        markov_violation = (markov_violation[0], f"{markov_violation[1]} pointwise")
    _, nonmarkov_violation = _sign_check(spec, t0, t, "nonmarkov", tol)
    if nonmarkov_violation is not None:
        nonmarkov_violation = (nonmarkov_violation[0], f"{nonmarkov_violation[1]} integral")
    return ClassificationReport(
        markovian=markov_violation is None,
        nonmarkovian_valid=nonmarkov_violation is None,
        first_markov_violation=markov_violation,
        first_nonmarkov_violation=nonmarkov_violation,
        horizon=t - t0,
    )
