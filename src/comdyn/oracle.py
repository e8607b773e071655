"""Brute-force reference propagators.

Everything here is deliberately independent of the closed spectral forms in
the other modules: the matrix exponential goes through scaling-and-squaring,
and time-ordered evolution is a plain midpoint-rule product of short-time
exponentials (earliest factor applied first). For commuting generator
families the ordering is immaterial and the product converges at second
order to exp of the integrated generator; for noncommuting ones it converges
to the genuinely time-ordered propagator, which is exactly what makes it a
useful negative control. The generator is called once per chunk of steps,
with the chunk's midpoints, and returns their stacked matrices; each kind's
block builder gives the same bits as its one-time call at every midpoint.
"""

from __future__ import annotations

from typing import Callable, Union

import numpy as np
import scipy.linalg

from .errors import OverflowInExponentialError
from .superop import SuperOperator

#: Bytes of step generators :func:`ordered_exp` exponentiates per stacked
#: call: 256 4x4 complex steps, or two 64x64 real ones.
CHUNK_BYTES = 1 << 16

#: Midpoints in, their stacked step generators out: shape (len, n, n).
MatrixBlockFunction = Callable[[np.ndarray], np.ndarray]


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


def ordered_exp(lfun: MatrixBlockFunction, t0: float, t: float, steps: int) -> np.ndarray:
    """Time-ordered exponential by a midpoint product of step exponentials.

    Computes prod_j exp(h L(t_j + h/2)) with the earliest factor rightmost,
    i.e. applied first. Exact for constant generators; order h^2 otherwise.

    ``lfun`` takes an array of midpoints and returns their stacked
    generators. It is called once per chunk of steps, in order, and once
    before that on the first midpoint alone, whose step generator fixes the
    chunk: about ``CHUNK_BYTES`` of steps, so memory stays small for any
    step count. Every midpoint is evaluated exactly once; the first chunk
    is that first step followed by the rest of its midpoints. Each chunk is
    exponentiated by one stacked ``scipy.linalg.expm`` (the same per-matrix
    computation, without the per-call overhead) in the dtype its steps
    share. The product is multiplied up one factor at a time in the dtype
    of the factors: real generators give a real product. Overflow names the
    first step whose exponential is not finite.
    """
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    h = (t - t0) / steps
    midpoints = t0 + (np.arange(steps) + 0.5) * h
    first = h * np.asarray(lfun(midpoints[:1]))
    chunk = max(1, CHUNK_BYTES // first[0].nbytes)
    total = np.eye(first.shape[1], dtype=first.dtype)
    for start in range(0, steps, chunk):
        stop = min(start + chunk, steps)
        if start:
            stack = h * np.asarray(lfun(midpoints[start:stop]))
        elif stop > 1:
            stack = np.concatenate([first, h * np.asarray(lfun(midpoints[1:stop]))])
        else:
            stack = first
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

