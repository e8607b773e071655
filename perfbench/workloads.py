"""Seeded workload generator: each workload is a fixed list of CLI jobs.

The seed changes every coefficient value but never a size, a sample count,
a time-function kind or where the reject config turns inadmissible, so the
work done per pass is the same for every seed. Every config that is meant
to run is admissible by construction: off-origin rates are nonnegative on
the whole window, and the origin rate is minus their sum in the same
time-function kind, so the zero-sum condition holds to rounding.

A job is a dict with keys ``id``, ``cls`` (``run``, ``oracle``, ``validate``
or ``reject``), ``argv`` (arguments for ``comdyn.cli.main``), ``config``
(or None for the self-test) and ``out`` (the table or report path).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random

#: Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "small-state": "many samples and all oracle/validate/self-test traffic on small "
                   "state spaces: checks+timefn dominate runs, oracle the rest; "
                   "transforms ~0%, so an FFT change must not move it",
    "large-state": "few samples on Z_2^12 and Weyl D=32: transforms, Weyl assembly, "
                   "channel validation, CLI output and memory weigh here; no oracle, "
                   "so oracle changes must not move it",
}

WORKLOADS = tuple(WHY)

# Where the reject config's bad rate crosses zero, inside its window [0, 4].
REJECT_ROOT = 3.4
REJECT_WINDOW = 4.0


def _damped(amplitude, decay, frequency, phase, offset) -> dict:
    return {"kind": "damped-trig", "amplitude": amplitude, "decay": decay,
            "frequency": frequency, "phase": phase, "offset": offset}


def _poly(coeffs) -> dict:
    return {"kind": "polynomial", "coeffs": list(coeffs)}


def damped_rates(rng: random.Random, sites: int, scale: float, fmax: float = 2.0) -> list:
    """Zero-sum damped-trig rates, nonnegative off the origin for t >= 0.

    All sites share decay (<= 0) and frequency, so the origin rate, minus
    the phasor sum of the others, is again one damped-trig function; each
    offset exceeds its amplitude, which keeps the rate nonnegative.
    """
    decay = -rng.uniform(0.1, 0.5)
    frequency = rng.uniform(0.25 * fmax, fmax)
    phasor, offsets, rates = 0j, 0.0, [None]
    for _ in range(sites - 1):
        amplitude = scale * rng.uniform(0.2, 1.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        offset = amplitude * rng.uniform(1.05, 1.5)
        phasor += amplitude * cmath.exp(1j * phase)
        offsets += offset
        rates.append(_damped(amplitude, decay, frequency, phase, offset))
    rates[0] = _damped(abs(phasor), decay, frequency,
                       cmath.phase(-phasor), -offsets)
    return rates


def poly_rates(rng: random.Random, sites: int, scale: float, degree: int) -> list:
    """Zero-sum polynomial rates with nonnegative coefficients off the origin."""
    rates, totals = [None], [0.0] * (degree + 1)
    for _ in range(sites - 1):
        coeffs = [scale * rng.uniform(0.0, 1.0) for _ in range(degree + 1)]
        totals = [a + b for a, b in zip(totals, coeffs)]
        rates.append(_poly(coeffs))
    rates[0] = _poly([-c for c in totals])
    return rates


def reject_rates(rng: random.Random, sites: int, bad_site: int) -> list:
    """Polynomial rates where ``bad_site`` equals k (REJECT_ROOT - t), so the
    off-origin sign condition fails on the whole tail (REJECT_ROOT, 4]."""
    rates = poly_rates(rng, sites, 0.01, 2)
    slope = rng.uniform(0.02, 0.05)
    rates[bad_site] = _poly([slope * REJECT_ROOT, -slope, 0.0])
    totals = [sum(r["coeffs"][i] for r in rates[1:]) for i in range(3)]
    rates[0] = _poly([-c for c in totals])
    return rates


def _time(t, samples) -> dict:
    return {"t0": 0.0, "t": t, "samples": samples}


def _qubit_config(rng: random.Random, t: float, samples: int, scale: float = 1.0,
                  fmax: float = 2.0) -> dict:
    gamma_amp = scale * rng.uniform(0.2, 0.6)
    a, b = scale * rng.uniform(0.1, 0.4), scale * rng.uniform(0.1, 0.4)
    off = rng.uniform(-0.9, 0.9) * math.sqrt(a * b)
    c00 = _poly([a, scale * rng.uniform(0.0, 0.1)])
    c11 = _poly([b, scale * rng.uniform(0.0, 0.1)])
    return {
        "kind": "qubit",
        "epsilon": _damped(scale * rng.uniform(0.5, 1.5), -rng.uniform(0.0, 0.3),
                           rng.uniform(0.25 * fmax, fmax), rng.uniform(0.0, 6.28),
                           scale * rng.uniform(-0.5, 0.5)),
        "gamma": _damped(gamma_amp, -rng.uniform(0.1, 0.5), rng.uniform(0.25 * fmax, fmax),
                         rng.uniform(0.0, 6.28), gamma_amp * rng.uniform(1.05, 1.5)),
        "c": [[c00, _poly([off])], [_poly([off]), c11]],
        "mu": rng.uniform(0.1, 0.9),
        "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "time": _time(t, samples),
        "mode": "markov",
    }


def _weyl_config(rng, d, n, t, samples, scale, fmax=2.0) -> dict:
    return {"kind": "weyl", "dims": {"d": d, "N": n},
            "rates": damped_rates(rng, d ** (2 * n), scale, fmax),
            "time": _time(t, samples), "mode": "markov"}


def _classical_config(rates, d, n, t, samples, mode) -> dict:
    return {"kind": "classical", "dims": {"d": d, "N": n}, "rates": rates,
            "time": _time(t, samples), "mode": mode}


def _mixture_config(rng, samples) -> dict:
    gens = [_const_zero_sum(rng, 4, 0.6) for _ in range(2)]
    decay = -rng.uniform(0.5, 1.5)
    return {"kind": "mixture", "dims": {"d": 2, "N": 1}, "generators": gens,
            "weights": [_damped(1.0, decay, 0.0, 0.0, 0.0),
                        _damped(-1.0, decay, 0.0, 0.0, 1.0)],
            "time": _time(2.0, samples)}


def _const_zero_sum(rng, sites, scale) -> list:
    off = [scale * rng.uniform(0.1, 1.0) for _ in range(sites - 1)]
    return [-sum(off)] + off


def _trajectory(rng):
    return [
        ("classical-z4x3-markov", "run",
         _classical_config(damped_rates(rng, 64, 0.02), 4, 3, 2.0, 16, "markov")),
        ("classical-z2x3-nonmarkov", "run",
         _classical_config(poly_rates(rng, 8, 0.2, 2), 2, 3, 2.0, 4, "nonmarkov")),
        ("qubit-markov", "run", _qubit_config(rng, 4.0, 32)),
        ("classical-z4x3-reject", "reject",
         _classical_config(reject_rates(rng, 64, rng.randrange(1, 64)),
                           4, 3, REJECT_WINDOW, 16, "markov")),
    ]


def _large_state(rng):
    return [
        ("classical-z2x12-markov", "run",
         _classical_config(damped_rates(rng, 4096, 1e-3), 2, 12, 1.0, 2, "markov")),
        ("weyl-d2n5-markov", "run", _weyl_config(rng, 2, 5, 1.0, 3, 2e-3)),
    ]


def _verify(rng):
    kernel_rate = _damped(rng.uniform(0.1, 0.4), -0.5, 1.0, rng.uniform(0.0, 6.28),
                          -rng.uniform(0.6, 1.0))
    return [
        ("oracle-classical-z3x2", "oracle",
         _classical_config(poly_rates(rng, 9, 0.3, 1), 3, 2, 1.0, 6, "markov"),
         ["--steps", "512"]),
        # rates small and smooth enough that the second-order midpoint oracle
        # stays well inside its 1e-7 tolerance at these step counts
        ("oracle-qubit", "oracle", _qubit_config(rng, 1.0, 2, scale=0.3, fmax=1.0),
         ["--steps", "1024"]),
        ("oracle-weyl-d2n1", "oracle", _weyl_config(rng, 2, 1, 1.0, 3, 0.05, fmax=1.0),
         ["--steps", "512"]),
        ("oracle-mixture-d2", "oracle", _mixture_config(rng, 5), []),
        ("validate-classical", "validate",
         _classical_config(poly_rates(rng, 9, 0.3, 2), 3, 2, 1.0, 5, "markov")),
        ("validate-weyl-d2n4", "validate", _weyl_config(rng, 2, 4, 1.0, 3, 0.01)),
        ("validate-qubit", "validate", _qubit_config(rng, 1.0, 5)),
        ("validate-mixture", "validate", _mixture_config(rng, 5)),
        ("validate-resolvent", "validate", _resolvent_config(rng)),
        ("validate-kernel-rate", "validate",
         {"kind": "kernel", "rate": kernel_rate, "s_values": [0.5, 1.0, 2.0]}),
        ("run-resolvent", "run", _resolvent_config(rng)),
        ("run-kernel-mixture", "run", _kernel_mixture_config(rng)),
        ("self-test", "validate", None),
    ]


def _resolvent_config(rng) -> dict:
    return {"kind": "resolvent", "dims": {"d": 2, "N": 1},
            "rates": _const_zero_sum(rng, 4, 0.5),
            "s_values": [0.5, 1.0, 4.0], "k_values": [0, 1, 2]}


def _kernel_mixture_config(rng) -> dict:
    w = rng.uniform(0.2, 0.8)
    return {"kind": "kernel", "weights": [w, 1.0 - w],
            "exponents": [-rng.uniform(0.3, 1.0), -rng.uniform(1.2, 2.5)],
            "s_values": [0.5, 1.0, 2.0, 4.0]}


# The trajectory and verify job lists run as one workload: with two
# workloads, each run is long enough for steady medians.
_JOB_LISTS = {"small-state": lambda rng: _trajectory(rng) + _verify(rng),
              "large-state": _large_state}


def make_jobs(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's configs under ``workdir`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for spec in _JOB_LISTS[workload](rng):
        job_id, cls, config = spec[:3]
        extra = list(spec[3]) if len(spec) > 3 else []
        out = os.path.join(workdir, job_id + (".report.json" if cls == "validate"
                                              else ".csv"))
        if config is None:
            argv = ["validate", "--out", out]
        else:
            path = os.path.join(workdir, job_id + ".json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            if cls == "validate":
                argv = ["validate", path, "--out", out]
            else:
                argv = ["run", path, "--out", out] + extra
                if cls == "oracle":
                    argv.append("--oracle")
        jobs.append({"id": job_id, "cls": cls, "argv": argv, "config": config,
                     "out": out})
    return jobs
