"""Correctness gate, run by the benchmark after each pass, outside the timing.

References are computed here without comdyn: time functions are integrated
by Gauss-Legendre quadrature, generators are built from their action on
matrix units, small propagators come from ``scipy.linalg.expm`` of the
integrated generator and large ones (Z_2^12, Weyl relaxation factors) from
``numpy.fft``. Every family here commutes at different times, so the exact
propagator is the exponential of the integrated generator.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import scipy.integrate
import scipy.linalg

from workloads import REJECT_ROOT, REJECT_WINDOW

#: Largest absolute difference allowed between a table entry and its reference.
TOL = 1e-9

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def evaluate(spec, t):
    """Value of a JSON time-function spec at the times ``t``."""
    t = np.asarray(t, dtype=float)
    if isinstance(spec, (int, float)):
        return np.full_like(t, float(spec))
    if spec["kind"] == "constant":
        return np.full_like(t, float(spec["value"]))
    if spec["kind"] == "polynomial":
        return sum(c * t ** i for i, c in enumerate(spec["coeffs"]))
    if spec["kind"] == "damped-trig":
        return (spec.get("offset", 0.0) + spec.get("amplitude", 1.0)
                * np.exp(spec.get("decay", 0.0) * t)
                * np.cos(spec.get("frequency", 0.0) * t + spec.get("phase", 0.0)))
    raise ValueError(f"no reference for time-function kind {spec['kind']!r}")


def integral(spec, a: float, b: float) -> float:
    """Gauss-Legendre integral over [a, b]; exact to rounding for the
    polynomials and the slowly varying damped-trig functions generated."""
    half = 0.5 * (b - a)
    return float(half * np.dot(_WEIGHTS, evaluate(spec, a + half * (_NODES + 1.0))))


def _window(config) -> tuple:
    t0, t = config["time"]["t0"], config["time"]["t"]
    return (t0, t) if config.get("mode", "markov") == "markov" else (0.0, t - t0)


def _last_row(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    return np.array([float(v) for v in lines[-1].split(",")])


def _sidecar(path: str) -> dict:
    with open(path + ".meta.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- references -----------------------------------------------------------------

def classical_reference(config) -> np.ndarray:
    d, n = config["dims"]["d"], config["dims"]["N"]
    lo, hi = _window(config)
    a = np.array([integral(r, lo, hi) for r in config["rates"]])
    if d ** n > 512:
        # P(m) = d^-n sum_k lambda^(-m.k) exp(I(k)), I(k) = sum_j lambda^(k.j) a(j)
        spectrum = d ** n * np.fft.ifftn(a.reshape((d,) * n))
        return (np.fft.fftn(np.exp(spectrum)) / d ** n).real.reshape(-1)
    coords = np.array(np.unravel_index(np.arange(d ** n), (d,) * n))
    diff = (coords[:, :, None] - coords[:, None, :]) % d
    generator = a[np.ravel_multi_index(tuple(diff), (d,) * n)]
    return scipy.linalg.expm(generator)[:, 0]


def weyl_relaxation(config) -> np.ndarray:
    d, n = config["dims"]["d"], config["dims"]["N"]
    lo, hi = _window(config)
    a = np.array([integral(r, lo, hi) for r in config["rates"]])
    return np.exp(d ** (2 * n) * np.fft.ifftn(a.reshape((d,) * (2 * n)))).reshape(-1)


def _superop(action, dim: int) -> np.ndarray:
    """Matrix of a linear map on dim x dim matrices, column-stacking vec."""
    cols = []
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        cols.append(action(unit.reshape((dim, dim), order="F")).reshape(-1, order="F"))
    return np.array(cols).T


def qubit_generator(eps, gamma, c, mu) -> np.ndarray:
    s3 = np.diag([-1.0, 1.0]).astype(complex)
    plus = np.array([[0, 0], [1, 0]], dtype=complex)      # |1><0|
    minus = plus.T.copy()
    pis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))

    def dissipate(jump, rho):
        jj = jump.conj().T @ jump
        return jump @ rho @ jump.conj().T - 0.5 * (jj @ rho + rho @ jj)

    def action(rho):
        out = -0.5j * eps * (s3 @ rho - rho @ s3)
        out += gamma * (mu * dissipate(plus, rho) + (1 - mu) * dissipate(minus, rho))
        for a in range(2):
            for b in range(2):
                prod = pis[b] @ pis[a]
                out += c[a][b] * (pis[a] @ rho @ pis[b] - 0.5 * (prod @ rho + rho @ prod))
        return out
    return _superop(action, 2)


def qubit_reference(config) -> np.ndarray:
    lo, hi = _window(config)
    c = config.get("c", [[0.0, 0.0], [0.0, 0.0]])
    generator = qubit_generator(integral(config.get("epsilon", 0.0), lo, hi),
                                integral(config["gamma"], lo, hi),
                                [[integral(f, lo, hi) for f in row] for row in c],
                                config["mu"])
    rho0 = np.array([[complex(*e) for e in row] for row in config["initial_state"]])
    rho = (scipy.linalg.expm(generator) @ rho0.reshape(-1, order="F")).reshape(
        (2, 2), order="F")
    return np.array([rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
                     np.trace(rho @ rho).real])


def weyl_unitary(d: int, m: int, n: int) -> np.ndarray:
    """u_{m,n} e_k = lambda^(m k) e_(n + k) on C^d."""
    u = np.zeros((d, d), dtype=complex)
    for k in range(d):
        u[(n + k) % d, k] = np.exp(2j * np.pi * m * k / d)
    return u


def weyl_generator(d: int, coeffs) -> np.ndarray:
    """x -> sum_{m,n} a(m, n) u_{n,-m} x u_{n,-m}^dag for one party."""
    terms = []
    for flat, value in enumerate(coeffs):
        m, n = divmod(flat, d)
        terms.append((value, weyl_unitary(d, n, -m % d)))
    return _superop(lambda x: sum(v * u @ x @ u.conj().T for v, u in terms), d)


def mixture_reference(config) -> np.ndarray:
    d = config["dims"]["d"]
    tau = config["time"]["t"] - config["time"]["t0"]
    amap = sum(evaluate(w, tau) * scipy.linalg.expm(tau * weyl_generator(d, g))
               for w, g in zip(config["weights"], config["generators"]))
    return np.linalg.eigvals(amap)


def kernel_reference(config) -> tuple:
    s = config["s_values"][-1]
    w = np.array(config["weights"])
    lam = np.array(config["exponents"])
    f_hat = complex(np.sum(w * lam / (s - lam)))
    return f_hat, s * f_hat / (1.0 + f_hat)


# -- the gate -------------------------------------------------------------------

def _same_multiset(values: np.ndarray, reference: np.ndarray) -> float:
    remaining = list(values)
    worst = 0.0
    for ref in reference:
        idx = int(np.argmin([abs(v - ref) for v in remaining]))
        worst = max(worst, abs(remaining.pop(idx) - ref))
    return worst


def _closed_form_residual(job) -> float:
    config, row = job["config"], _last_row(job["out"])
    kind = config["kind"]
    if job["cls"] == "oracle":
        row = row[:-1]
    if kind == "classical":
        return float(np.max(np.abs(row[1:] - classical_reference(config))))
    if kind == "weyl":
        relax = weyl_relaxation(config)
        return float(max(np.max(np.abs(row[1::2] - relax.real)),
                         np.max(np.abs(row[2::2] - relax.imag))))
    if kind == "qubit":
        return float(np.max(np.abs(row[1:] - qubit_reference(config))))
    if kind == "mixture":
        return _same_multiset(row[1::2] + 1j * row[2::2], mixture_reference(config))
    if kind == "kernel":
        f_hat, k_hat = kernel_reference(config)
        return float(max(abs(complex(row[1], row[2]) - f_hat),
                         abs(complex(row[3], row[4]) - k_hat)))
    raise ValueError(f"no closed-form reference for kind {kind!r}")


def _resolvent_problem(job):
    with open(job["out"], encoding="utf-8") as handle:
        lines = handle.read().strip().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, map(float, line.split(","))))
        if not (row["cp"] == row["tp"] == row["unital"] == 1.0):
            return f"resolvent row s={row['s']} k={row['k']} is not a unital CPTP map"
    return None


def _reject_problem(job, rc, stderr):
    if rc != 2:
        return f"expected exit 2, got {rc}"
    if os.path.exists(job["out"]):
        return "a refused run wrote a table"
    bad = [i for i, r in enumerate(job["config"]["rates"]) if i and r["coeffs"][1] < 0]
    match = re.search(r"failed at t=([-+0-9.eE]+):.*\(index (\d+),", stderr)
    if not match:
        return f"no witness on stderr: {stderr.strip()[:200]!r}"
    t, index = float(match.group(1)), int(match.group(2))
    if index != bad[0] or not REJECT_ROOT < t <= REJECT_WINDOW:
        return f"witness index {index} at t={t}, expected index {bad[0]} after {REJECT_ROOT}"
    return None


def problem(job: dict, rc, stderr: str):
    """None when the job's exit code and output are right, else the reason."""
    if job["cls"] == "reject":
        return _reject_problem(job, rc, stderr)
    if rc != 0:
        return f"exit {rc}: {stderr.strip()[:200]!r}"
    if job["cls"] == "validate":
        with open(job["out"], encoding="utf-8") as handle:
            if not json.load(handle)["passed"]:
                return "validate report did not pass"
        return None
    if job["config"]["kind"] == "resolvent":
        return _resolvent_problem(job)
    if job["cls"] == "oracle" and not _sidecar(job["out"])["reports"]["oracle"]["passed"]:
        return "oracle comparison did not pass"
    residual = _closed_form_residual(job)
    if not residual <= TOL:
        return f"final row differs from the reference by {residual:.3e} > {TOL:g}"
    return None
