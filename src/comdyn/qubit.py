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
from typing import Optional, Sequence

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
    (epsilon, gamma, c00, c01, c10, c11) in that column order, and
    ``basis`` the generator's (6, 4, 4) coefficient matrices in the same
    order (see :func:`build_generator`).
    """

    epsilon: TimeFunction
    gamma: TimeFunction
    c: tuple
    mu: float
    bank: CoefficientBank = dataclass_field(init=False, repr=False, compare=False)
    basis: np.ndarray = dataclass_field(init=False, repr=False, compare=False)

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

    @classmethod
    def constant(cls, epsilon=0.0, gamma=0.0, c=((0.0, 0.0), (0.0, 0.0)),
                 mu=0.5) -> "QubitGeneratorSpec":
        return cls(epsilon, gamma, c, mu)

    def c_matrix(self, t: float, tol: float = 1e-9) -> np.ndarray:
        cmat = np.array([[self.c[0][0](t), self.c[0][1](t)],
                         [self.c[1][0](t), self.c[1][1](t)]], dtype=complex)
        return _require_hermitian(cmat, t, tol)


def _require_hermitian(cmat: np.ndarray, t: float, tol: float = 1e-9) -> np.ndarray:
    """``cmat``, unless max |c - c^dag| exceeds ``tol`` max(1, max |c|).

    Scalar arithmetic on the four entries: |c_ab - conj(c_ba)| is the same
    for (0, 1) and (1, 0), and |c_aa - conj(c_aa)| = 2 |Im c_aa| exactly.
    """
    c00, c01, c10, c11 = cmat.ravel().tolist()
    scale = max(1.0, abs(c00), abs(c01), abs(c10), abs(c11))
    skew = max(2.0 * abs(c00.imag), abs(c01 - c10.conjugate()), 2.0 * abs(c11.imag))
    if skew > tol * scale:
        raise ValueError(f"c(t) is not Hermitian at t={t}")
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


def gamma_eigenvalue(spec: QubitGeneratorSpec, t: float = 0.0) -> complex:
    """The complex eigenvalue on sigma+.

    For real c_10 this is the closed form
    -1/2 [gamma + c_00 + c_11 - 2 c_10 + 2 i eps]; for complex c_10 the
    value is extracted from the assembled generator instead.
    """
    cmat = spec.c_matrix(t)
    if abs(cmat[1, 0].imag) <= 1e-12 * max(1.0, float(np.max(np.abs(cmat)))):
        return -0.5 * (complex(spec.gamma(t)) + cmat[0, 0] + cmat[1, 1]
                       - 2.0 * cmat[1, 0] + 2.0j * complex(spec.epsilon(t)))
    gen = build_generator(spec, t)
    return complex(np.vdot(SIGMA_PLUS, gen.apply(SIGMA_PLUS)))


def eigenvalue_integrals(spec: QubitGeneratorSpec, t0: float, t1: float) -> np.ndarray:
    """Integrals over [t0, t1] of the four mode eigenvalues
    (0, Gamma, conj Gamma, -gamma)."""
    eps_int, gamma_int, c00, _, c10, c11 = spec.bank.integrals(t0, t1)[0]
    big_gamma = -0.5 * (gamma_int + c00 + c11 - 2.0 * c10 + 2.0j * eps_int)
    return np.array([0.0, big_gamma, np.conj(big_gamma), -gamma_int])


def _assemble(mu: float, mode_values: Sequence[complex]) -> SuperOperator:
    g, h = damping_basis(float(mu))
    matrix = np.zeros((4, 4), dtype=complex)
    for value, gm, hm in zip(mode_values, g, h):
        col = np.asarray(gm, dtype=complex).reshape(-1, order="F")
        row = np.asarray(hm, dtype=complex).reshape(-1, order="F")
        matrix += value * np.outer(col, row.conj())
    return SuperOperator(2, matrix)


def _first_sign_violation(spec: QubitGeneratorSpec, grid: np.ndarray, tol: float,
                          integrated: bool) -> Optional[tuple]:
    """(time, "gamma" or "c") at the first grid point where gamma < -tol or
    c is not positive semidefinite, gamma first at equal times; None if none.

    Pointwise (``integrated`` false) c must also be Hermitian, as in
    :meth:`QubitGeneratorSpec.c_matrix`, which raises at the first point
    where it is not. Integrated checks use int_0^tau over the nonzero taus.
    """
    if integrated:
        grid = grid[grid != 0.0]
        block = spec.bank.integrals(0.0, grid)
    else:
        block = spec.bank.values(grid)
    cmats = block[:, 2:].reshape(-1, 2, 2)
    adjoints = cmats.conj().swapaxes(1, 2)
    min_eigs = np.min(np.linalg.eigvalsh((cmats + adjoints) / 2.0), axis=1)
    flagged = (block[:, 1].real < -tol) | (min_eigs < -tol)
    if not integrated:
        scale = np.maximum(1.0, np.max(np.abs(cmats), axis=(1, 2)))
        flagged |= np.max(np.abs(cmats - adjoints), axis=(1, 2)) > 1e-9 * scale
    if not np.any(flagged):
        return None
    row = int(np.argmax(flagged))
    t = float(grid[row])
    if block[row, 1].real < -tol:
        return t, "gamma"
    if not integrated:
        spec.c_matrix(t)  # raises when c(t) is not Hermitian
    return t, "c"


def propagate(spec: QubitGeneratorSpec, t0: float, t: float,
              mode: PropagationMode = "markov", tol: float = DEFAULT_TOL) -> SuperOperator:
    """Closed-form propagator sum_a exp(int lambda_a) g_a tr(h_a^dag .).

    Markovian mode requires gamma(u) > -tol and c(u) >= 0 pointwise on
    [t0, t]; the homogeneous mode requires the running integrals over
    [0, tau] to satisfy the same signs for tau <= t - t0.
    """
    lo, hi = integration_window(t0, t, mode)
    violation = _first_sign_violation(spec, condition_grid(lo, hi), tol,
                                      integrated=mode != "markov")
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
    integrals = eigenvalue_integrals(spec, lo, hi)
    return _assemble(spec.mu, np.exp(integrals))


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
    f = (E11, SIGMA_PLUS, SIGMA_MINUS, E00)

    def rank_one_sum(lefts, rights):
        matrix = np.zeros((4, 4), dtype=complex)
        for lm, rm in zip(lefts, rights):
            col = np.asarray(lm, dtype=complex).reshape(-1, order="F")
            row = np.asarray(rm, dtype=complex).reshape(-1, order="F")
            matrix += np.outer(col, row.conj())
        return SuperOperator(2, matrix)

    return VConjugation(
        v=rank_one_sum(g, f),
        v_inverse=rank_one_sum(f, h),
        v_inverse_dual=rank_one_sum(h, f),
    )


def spectral_projector(index: int) -> SuperOperator:
    """P_index x = f_index (f_index, x) over f = (e11, s+, s-, e00)."""
    f = (E11, SIGMA_PLUS, SIGMA_MINUS, E00)[index]
    col = f.reshape(-1, order="F")
    return SuperOperator(2, np.outer(col, col.conj()))


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


def classify(spec: QubitGeneratorSpec, horizon: float,
             tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Check the pointwise (Markovian) and integrated (non-Markovian)
    admissibility conditions on [0, horizon]."""
    grid = condition_grid(0.0, horizon)
    markov_violation = _first_sign_violation(spec, grid, tol, integrated=False)
    if markov_violation is not None:
        markov_violation = (markov_violation[0], f"{markov_violation[1]} pointwise")
    nonmarkov_violation = _first_sign_violation(spec, grid, tol, integrated=True)
    if nonmarkov_violation is not None:
        nonmarkov_violation = (nonmarkov_violation[0], f"{nonmarkov_violation[1]} integral")
    return ClassificationReport(
        markovian=markov_violation is None,
        nonmarkovian_valid=nonmarkov_violation is None,
        first_markov_violation=markov_violation,
        first_nonmarkov_violation=nonmarkov_violation,
        horizon=horizon,
    )
