"""Brute-force reference propagators.

Everything here is deliberately independent of the closed spectral forms in
the other modules: the matrix exponential goes through scaling-and-squaring,
and time-ordered evolution is a plain midpoint-rule product of short-time
exponentials (earliest factor applied first). For commuting generator
families the ordering is immaterial and the product converges at second
order to exp of the integrated generator; for noncommuting ones it converges
to the genuinely time-ordered propagator, which is exactly what makes it a
useful negative control.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence, Union

import numpy as np
import scipy.linalg

from .errors import OverflowInExponentialError
from .superop import SuperOperator

#: Default number of product steps per unit time for state evolution.
DEFAULT_STEPS_PER_UNIT = 4096

#: Bytes of step generators :func:`ordered_exp` exponentiates per stacked
#: call: 256 4x4 complex steps, or two 64x64 real ones.
CHUNK_BYTES = 1 << 16

MatrixFunction = Callable[[float], np.ndarray]


def expm(m: Union[np.ndarray, SuperOperator]) -> Union[np.ndarray, SuperOperator]:
    """Dense matrix exponential (Pade scaling-and-squaring).

    Accepts a plain square matrix or a :class:`SuperOperator` and returns
    the same kind. Overflow is reported, never clamped.
    """
    if isinstance(m, SuperOperator):
        return SuperOperator(m.dim, expm(m.matrix))
    m = np.asarray(m)
    result = scipy.linalg.expm(m)
    if not np.all(np.isfinite(result)):
        raise OverflowInExponentialError(
            f"matrix exponential overflowed (input norm {np.linalg.norm(m):.3e})")
    return result


def ordered_exp(lfun: MatrixFunction, t0: float, t: float, steps: int) -> np.ndarray:
    """Time-ordered exponential by a midpoint product of step exponentials.

    Computes prod_j exp(h L(t_j + h/2)) with the earliest factor rightmost,
    i.e. applied first. Exact for constant generators; order h^2 otherwise.

    ``lfun`` is called once per step, at each midpoint in turn. The step
    generators are exponentiated a chunk at a time by one stacked
    ``scipy.linalg.expm`` (the same per-matrix computation, without the
    per-call overhead), and a chunk holds about ``CHUNK_BYTES`` of them, so
    memory stays small for any step count. The product is multiplied up one
    factor at a time in the dtype of the factors: real generators give a
    real product. Overflow names the first step whose exponential is not
    finite.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    h = (t - t0) / steps
    generators = (h * np.asarray(lfun(t0 + (j + 0.5) * h)) for j in range(steps))
    first = next(generators)
    chunk = max(1, CHUNK_BYTES // first.nbytes)
    generators = itertools.chain([first], generators)
    total = np.eye(first.shape[0], dtype=first.dtype)
    for start in range(0, steps, chunk):
        stack = np.stack(list(itertools.islice(generators, chunk)))
        factors = scipy.linalg.expm(stack)
        finite = np.isfinite(factors).all(axis=(1, 2))
        if not finite.all():
            bad = int(np.argmin(finite))
            raise OverflowInExponentialError(
                f"matrix exponential overflowed at step {start + bad} of {steps} "
                f"(midpoint t={t0 + (start + bad + 0.5) * h!r}, step norm "
                f"{np.linalg.norm(stack[bad]):.3e})")
        for factor in factors:
            total = factor @ total
    return total


def evolve_state(lfun: Callable[[float], SuperOperator], rho0: np.ndarray,
                 times: Sequence[float],
                 steps_per_unit: int = DEFAULT_STEPS_PER_UNIT) -> list:
    """March a state along a time grid with cumulative ordered products.

    ``lfun`` returns the generator at a given time as a SuperOperator; the
    trajectory starts from rho0 at times[0].
    """
    times = np.asarray(times, dtype=float)
    rho = np.asarray(rho0, dtype=complex).copy()
    trajectory = [rho.copy()]
    for left, right in zip(times[:-1], times[1:]):
        span = right - left
        steps = max(1, int(np.ceil(span * steps_per_unit)))
        segment = ordered_exp(lambda u: lfun(u).matrix, left, right, steps)
        rho = (segment @ rho.reshape(-1, order="F")).reshape(rho.shape, order="F")
        trajectory.append(rho.copy())
    return trajectory
