"""Constructions of commuting generator families and their mixtures.

Three building blocks:

* Semigroup mixtures: given mutually commuting generators L_k with a shared
  damping basis and time-dependent weights p_k, the map
  A_tau = sum_k p_k(tau) exp(tau L_k) is diagonal in the common basis with
  eigenvalue functions c_a(tau) = sum_k p_k(tau) exp(lambda_a^k tau). Its
  local generator has eigenvalues mu_a(t) = c_a'(t) / c_a(t), which may blow
  up where c_a crosses zero even though the map itself stays regular.

* Resolvent channels: for a generator L of a unital trace-preserving
  semigroup and s > 0, Phi_s^k = s^(k+1) (s - L)^-(k+1) is a CPTP unital
  channel, and L_s^k = Phi_s^k - id is again a generator; all of them
  commute with each other and with L.

* Weighted generators: s-integrals sum_k int f_k(t, s) L_s^k ds with
  nonnegative weights give a family of time-dependent generators that
  commute across t, evaluated here by Gauss-Legendre quadrature on a
  log-transformed s axis with node-doubling convergence control.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np

from .classical import window_grid
from .errors import (DefectiveMapError, InvalidWeightsError,
                     QuadratureNotConvergedError, SingularEigenvalueError,
                     SingularResolventError)
from .superop import (DEFAULT_TOL, SpectralDecomposition, SuperOperator,
                      diagonalize, dual)
from .timefn import CoefficientBank, as_time_function

#: Pairwise commutator cap for a set to count as commuting.
COMMUTATOR_TOL = 1e-10

#: Default |c_a(t)| floor below which the local generator is singular.
SINGULARITY_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# commuting sets with a shared damping basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CommutingGeneratorSet:
    """Mutually commuting trace-annihilating generators, simultaneously
    diagonalized by one bi-orthogonal basis."""

    generators: tuple                  # SuperOperators
    basis: SpectralDecomposition       # shared (g_a, h_a) pair
    eigenvalues: np.ndarray            # (n_generators, dim^2)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def __len__(self) -> int:
        return len(self.generators)

    @classmethod
    def from_generators(cls, generators: Sequence[SuperOperator],
                        tol: float = DEFAULT_TOL) -> "CommutingGeneratorSet":
        generators = tuple(generators)
        if not generators:
            raise ValueError("need at least one generator")
        dim = generators[0].dim
        ident = np.eye(dim, dtype=complex)
        for idx, gen in enumerate(generators):
            gen._require_same_space(generators[0])
            trace_defect = float(np.max(np.abs(dual(gen).apply(ident))))
            if trace_defect > tol * max(1.0, gen.norm()):
                raise ValueError(
                    f"generator {idx} does not annihilate the trace functional "
                    f"(residual {trace_defect:.3e})")
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                a, b = generators[i].matrix, generators[j].matrix
                comm = float(np.linalg.norm(a @ b - b @ a, 2))
                if comm > COMMUTATOR_TOL * max(1.0, np.linalg.norm(a, 2) * np.linalg.norm(b, 2)):
                    raise ValueError(
                        f"generators {i} and {j} do not commute "
                        f"(commutator norm {comm:.3e})")

        basis, eigenvalues = _common_damping_basis(generators, tol)
        return cls(generators, basis, eigenvalues)


def _common_damping_basis(generators, tol):
    """Diagonalize a generic linear combination and read every generator's
    eigenvalues off the shared basis; rejects sets without a common basis."""
    scale = max(1.0, max(g.norm() for g in generators))
    # a few deterministic generic weight sets, in case one hits a degeneracy
    for attempt in range(4):
        weights = np.array([1.0 / (k + np.sqrt(2.0) + attempt * 0.37)
                            for k in range(len(generators))])
        combined = SuperOperator(
            generators[0].dim,
            sum(w * g.matrix for w, g in zip(weights, generators)))
        try:
            basis = diagonalize(combined)
        except DefectiveMapError:
            continue
        eigenvalues = np.empty((len(generators), basis.eigenvalues.size), dtype=complex)
        ok = True
        for idx, gen in enumerate(generators):
            rep = _in_basis(gen, basis)
            off = rep - np.diag(np.diag(rep))
            if float(np.max(np.abs(off))) > 1e3 * tol * scale:
                ok = False
                break
            eigenvalues[idx] = np.diag(rep)
        if ok:
            return basis, eigenvalues
    raise ValueError("generators do not share a damping basis "
                     "(simultaneous diagonalization failed)")


def _in_basis(gen: SuperOperator, basis: SpectralDecomposition) -> np.ndarray:
    """Matrix elements tr(h_a^dag L g_b) of a map in the damping basis."""
    g = basis.right_vectors.transpose(0, 2, 1).reshape(len(basis.eigenvalues), -1)
    h = basis.left_vectors.transpose(0, 2, 1).reshape(len(basis.eigenvalues), -1)
    return h.conj() @ gen.matrix @ g.T


# ---------------------------------------------------------------------------
# semigroup mixtures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureSpec:
    """Time-dependent probability weights over a commuting generator set,
    evaluated together through one :class:`CoefficientBank`."""

    weights: tuple                     # TimeFunctions p_k
    generator_set: CommutingGeneratorSet
    bank: CoefficientBank = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        funcs = tuple(as_time_function(w) for w in self.weights)
        if len(funcs) != len(self.generator_set):
            raise InvalidWeightsError(
                f"{len(funcs)} weights for {len(self.generator_set)} generators")
        object.__setattr__(self, "weights", funcs)
        object.__setattr__(self, "bank", CoefficientBank(funcs))

    def weight_values(self, tau: float) -> np.ndarray:
        return self.bank.values(tau)[0]

    def validate_weights(self, t0: float, t: float, tol: float = DEFAULT_TOL):
        """Require a probability distribution at every tau of the condition
        grid on the homogeneous window [0, t - t0], evaluated in one bank
        call; raises :class:`InvalidWeightsError` at the first tau that
        fails (complex, then negative, then not summing to 1)."""
        taus = window_grid(t0, t, "nonmarkov")
        block = self.bank.values(taus)
        lowest, totals = np.min(block.real, axis=1), np.sum(block.real, axis=1)
        failed = np.stack([np.max(np.abs(block.imag), axis=1) > tol,
                           lowest < -tol, np.abs(totals - 1.0) > tol])
        flagged = np.any(failed, axis=0)
        if np.any(flagged):
            row = int(np.argmax(flagged))
            tau = taus[row]
            raise InvalidWeightsError((
                f"weights not real at tau={tau}",
                f"negative weight {lowest[row]:.3e} at tau={tau}",
                f"weights sum to {totals[row]} at tau={tau}",
            )[int(np.argmax(failed[:, row]))])

    def eigenvalue_mixture(self, tau: float) -> np.ndarray:
        """c_a(tau) = sum_k p_k(tau) exp(lambda_a^k tau)."""
        p = self.weight_values(tau)
        return np.einsum("k,ka->a", p, np.exp(self.generator_set.eigenvalues * tau))

    def eigenvalue_mixture_derivative(self, tau: float) -> np.ndarray:
        """c_a'(tau) = sum_k (p_k'(tau) + p_k(tau) lambda_a^k) exp(lambda_a^k tau)."""
        p = self.weight_values(tau)
        pdot = np.array([w.derivative(tau) for w in self.weights])
        lam = self.generator_set.eigenvalues
        return np.einsum("ka,ka->a", pdot[:, None] + p[:, None] * lam,
                         np.exp(lam * tau))


def mixture_map(spec: MixtureSpec, t0: float, t: float,
                tol: float = DEFAULT_TOL) -> SuperOperator:
    """A_{t,t0} = sum_k p_k(t-t0) exp((t-t0) L_k), assembled spectrally.

    Depends on t and t0 only through tau = t - t0 (homogeneous by
    construction); the weights must form a probability distribution on
    [0, tau] (see :meth:`MixtureSpec.validate_weights`).
    """
    spec.validate_weights(t0, t, tol)
    return spec.generator_set.basis.assemble(spec.eigenvalue_mixture(t - t0))


def mixture_generator_eigenvalues(spec: MixtureSpec, t: float,
                                  literal: bool = False) -> np.ndarray:
    """Eigenvalues mu_a(t) of the local (in general non-Markovian) generator.

    The exact value is the logarithmic derivative c_a'(t)/c_a(t), including
    the weight-derivative terms; ``literal=True`` instead evaluates the
    weight-derivative-free ratio sum p_k lambda e^(lambda t) / sum p_j
    e^(lambda t), which agrees with the exact one only for constant weights.
    """
    c = spec.eigenvalue_mixture(t)
    small = np.abs(c) < SINGULARITY_FLOOR
    if np.any(small):
        idx = int(np.argmax(small))
        raise SingularEigenvalueError(
            f"|c_{idx}(t)| = {abs(c[idx]):.3e} below floor {SINGULARITY_FLOOR:.1e} "
            f"at t={t}; the local generator is singular there")
    if literal:
        p = spec.weight_values(t)
        lam = spec.generator_set.eigenvalues
        numer = np.einsum("ka,ka->a", p[:, None] * lam, np.exp(lam * t))
        return numer / c
    return spec.eigenvalue_mixture_derivative(t) / c


# ---------------------------------------------------------------------------
# resolvent channels and generators
# ---------------------------------------------------------------------------

def _require_unital_tp_generator(gen: SuperOperator, tol: float):
    ident = np.eye(gen.dim, dtype=complex)
    scale = max(1.0, gen.norm())
    unital_defect = float(np.max(np.abs(gen.apply(ident))))
    trace_defect = float(np.max(np.abs(dual(gen).apply(ident))))
    if unital_defect > tol * scale or trace_defect > tol * scale:
        raise ValueError(
            "resolvent construction needs a generator of a unital "
            f"trace-preserving semigroup (L(I) residual {unital_defect:.3e}, "
            f"dual residual {trace_defect:.3e})")


def resolvent_channel(gen: SuperOperator, s: float, k: int = 0,
                      tol: float = DEFAULT_TOL) -> SuperOperator:
    """The channel s^(k+1) (s - L)^-(k+1), CPTP and unital for valid input."""
    if s <= 0:
        raise ValueError(f"need s > 0, got {s}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    _require_unital_tp_generator(gen, tol)
    shifted = s * np.eye(gen.matrix.shape[0], dtype=complex) - gen.matrix
    cond = np.linalg.cond(shifted)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularResolventError(
            f"(s - L) numerically singular at s={s} (condition {cond:.3e})")
    result = np.eye(gen.matrix.shape[0], dtype=complex)
    try:
        for _ in range(k + 1):
            result = np.linalg.solve(shifted, result)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(f"(s - L) singular at s={s}") from exc
    return SuperOperator(gen.dim, (s ** (k + 1)) * result)


def resolvent_generator(gen: SuperOperator, s: float, k: int = 0,
                        tol: float = DEFAULT_TOL) -> SuperOperator:
    """The derived Markovian generator Phi_s^k - id."""
    channel = resolvent_channel(gen, s, k, tol)
    return channel - SuperOperator.identity(channel.dim)


# ---------------------------------------------------------------------------
# weighted generators
# ---------------------------------------------------------------------------

def _gauss_legendre_log_nodes(s_min: float, s_max: float, nodes: int):
    """Gauss-Legendre nodes/weights for int f(s) ds under s = exp(x)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = np.log(s_min), np.log(s_max)
    xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x
    s = np.exp(xm)
    return s, 0.5 * (hi - lo) * w * s


def weighted_generator(weight_funcs: Sequence[Callable[[float, float], float]],
                       ks: Sequence[int], gen: SuperOperator, t: float,
                       s_range: tuple = (1e-3, 1e3), nodes: int = 64,
                       tol: float = 1e-8) -> SuperOperator:
    """sum_k int f_k(t, s) (Phi_s^k - id) ds over the truncated s-range.

    The weights f_k must be nonnegative on the range. Convergence is checked
    by doubling the Gauss-Legendre nodes; the doubled-node result is
    returned.
    """
    if len(weight_funcs) != len(ks):
        raise ValueError("need one weight function per k value")
    _require_unital_tp_generator(gen, DEFAULT_TOL)

    def assemble(n_nodes: int) -> np.ndarray:
        s_nodes, s_weights = _gauss_legendre_log_nodes(*s_range, n_nodes)
        total = np.zeros_like(gen.matrix)
        for s, w in zip(s_nodes, s_weights):
            for f, k in zip(weight_funcs, ks):
                fval = float(f(t, s))
                if fval < 0:
                    raise ValueError(f"weight for k={k} negative at (t={t}, s={s})")
                if fval == 0.0:
                    continue
                total += w * fval * resolvent_generator(gen, s, k).matrix
        return total

    coarse = assemble(nodes)
    fine = assemble(2 * nodes)
    drift = float(np.linalg.norm(fine - coarse))
    if drift > tol * max(1.0, float(np.linalg.norm(fine))):
        raise QuadratureNotConvergedError(
            f"s-quadrature not converged: doubling {nodes} nodes moved the "
            f"result by {drift:.3e}")
    return SuperOperator(gen.dim, fine)
