"""Brute-force reference propagators.

Everything here is deliberately independent of the closed spectral forms in
the other modules: the matrix exponential is this module's own Pade
scaling-and-squaring over a stack of matrices, and time-ordered evolution
is a plain midpoint-rule product of short-time exponentials (earliest
factor applied first). For commuting generator
families the ordering is immaterial and the product converges at second
order to exp of the integrated generator; for noncommuting ones it converges
to the genuinely time-ordered propagator, which is exactly what makes it a
useful negative control. The generator is called once per chunk of steps,
with the chunk's midpoints, and returns their stacked matrices; each kind's
block builder gives the same bits as its one-time call at every midpoint.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import OverflowInExponentialError

#: Bytes of step generators :func:`ordered_exp` exponentiates per stacked
#: call: 256 4x4 complex steps, or two 64x64 real ones.
CHUNK_BYTES = 1 << 16

#: Midpoints in, their stacked step generators out: shape (len, n, n).
MatrixBlockFunction = Callable[[np.ndarray], np.ndarray]

#: (m, theta_m): the degree-m Pade approximant of exp meets double-precision
#: backward error for 1-norms up to theta_m (Higham, SIAM J. Matrix Anal.
#: Appl. 26, 1179, 2005, Table 2.3). Above theta_13 a matrix is scaled by
#: 2^-s into range and its approximant squared s times.
PADE_THETA = ((3, 1.495585217958292e-2), (5, 2.539398330063230e-1),
              (7, 9.504178996162932e-1), (9, 2.097847961257068e0),
              (13, 5.371920351148152e0))

#: Coefficients b_0 .. b_m of the degree-m Pade numerator, b_m = 1.
PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def stacked_expm(stack: np.ndarray) -> np.ndarray:
    """exp of every matrix in a (k, n, n) stack, in the stack's dtype.

    Pade scaling and squaring (Higham 2005, Algorithm 2.3) by the 1-norm of
    each slice: the lowest degree whose theta bounds it, else degree 13
    after scaling by 2^-s, with s chosen per slice. Slices of one degree
    share stacked products and one stacked solve, and the squarings run
    over the slices that still need them. A slice with non-finite entries,
    and one whose exponential overflows, comes out non-finite: callers
    report it, nothing is clamped. ``exp(0)`` is exactly the identity.
    """
    a = np.asarray(stack)
    if a.dtype.kind not in "fc":
        a = a.astype(float)
    norms = np.abs(a).sum(axis=1).max(axis=1)
    out = np.full_like(a, np.nan)
    left = np.isfinite(norms)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, theta in PADE_THETA:
            pick = left & (norms <= theta) if m < 13 else left
            if not pick.any():
                continue
            # zero below theta_13, where the scaling by 2^0 is exact
            squarings = np.ceil(np.log2(np.maximum(norms[pick], theta) / theta)).astype(int)
            r = _pade(a[pick] * np.ldexp(1.0, -squarings)[:, None, None], m)
            for k in range(1, squarings.max() + 1):
                more = squarings >= k
                r[more] = r[more] @ r[more]
            out[pick] = r
            left &= ~pick
    return out


def _pade(a: np.ndarray, m: int) -> np.ndarray:
    """The degree-m Pade approximant (V - U)^-1 (V + U) of exp on a stack,
    with U the odd and V the even part of the numerator."""
    b = PADE_COEFFS[m]
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    a2 = a @ a
    if m < 13:
        powers = [ident, a2]                  # a^0, a^2, ..., a^(m - 1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return np.linalg.solve(v - u, v + u)


def expm(m: np.ndarray) -> np.ndarray:
    """Dense matrix exponential: :func:`stacked_expm` of one square matrix.
    Overflow is reported, never clamped."""
    m = np.asarray(m)
    result = stacked_expm(m[None])[0]
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
    exponentiated by one :func:`stacked_expm` in the dtype its steps
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
        factors = stacked_expm(stack)
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

