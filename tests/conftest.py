"""Shared helpers for the test suite."""

import numpy as np
import pytest
import scipy.stats

from comdyn.classical import CirculantGenerator
from comdyn.superop import SuperOperator
from comdyn.timefn import DampedTrig, Polynomial
from comdyn.weyl import WeylFamily


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def stacked(fn):
    """A matrix function of one time as the oracle's block function: the
    stack of ``fn`` at each of an array of times."""
    return lambda times: np.stack([fn(t) for t in times])


def mixed_realness_generator(complex_first=False):
    """Rates on Z_3 that are real to rounding (imaginary part at most 1e-14
    of the largest modulus) on about [0, 1) and complex after it, or, with
    ``complex_first``, complex before t = 1 and real after it: the imaginary
    part of the first rate is 1e-14 t^4, or 1e-14 (2 - t)^4."""
    imag = [16.0, -32.0, 24.0, -8.0, 1.0] if complex_first else [0.0] * 4 + [1.0]
    return CirculantGenerator(3, 1, (
        Polynomial([-0.9 + 1e-14j * imag[0]] + [1e-14j * c for c in imag[1:]]),
        DampedTrig(amplitude=0.2, decay=-0.3, frequency=1.1, phase=0.4, offset=0.5),
        Polynomial([0.4, 0.05])))


def random_superoperator(rng, dim):
    n = dim * dim
    return SuperOperator(dim, rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


def random_unitary(rng, dim):
    return scipy.stats.unitary_group.rvs(dim, random_state=rng)


def random_unital_tp_generator(rng, dim, n_jumps=3):
    """Random generator of a unital trace-preserving semigroup: a sum of
    unitary-conjugation dissipators gamma_i (u_i . u_i^dag - id)."""
    n = dim * dim
    matrix = np.zeros((n, n), dtype=complex)
    eye = np.eye(n)
    for _ in range(n_jumps):
        u = random_unitary(rng, dim)
        matrix += rng.uniform(0.2, 1.0) * (np.kron(u.conj(), u) - eye)
    return SuperOperator(dim, matrix)


def random_kolmogorov_rates(rng, d, naxes):
    """Constant circulant rates satisfying the sign and conservation laws."""
    values = rng.uniform(0.05, 1.0, size=d ** naxes)
    values[0] = 0.0
    values[0] = -values.sum()
    return values


def random_probability_values(rng, size):
    values = rng.uniform(0.05, 1.0, size=size)
    return values / values.sum()


def multiset_residual(a, b):
    """Best-match distance between two complex multisets (assignment problem)."""
    from scipy.optimize import linear_sum_assignment
    a = np.asarray(a).reshape(-1)
    b = np.asarray(b).reshape(-1)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def assemble_reference(spectrum):
    """sum a~(m, n) P_{m,n} as the dense GEMM (cols a~) cols^dag / D over
    the vec(u_{m,n}) columns of the family, independent of the
    support that :meth:`WeylSpectrum.assemble` scatters onto."""
    family = WeylFamily(spectrum.d, spectrum.nparties)
    cols = family.vec_columns()
    return (cols * spectrum.eigenvalues.values) @ cols.conj().T / family.dim
