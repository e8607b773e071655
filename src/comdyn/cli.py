"""Command-line entry point: declarative experiment configs in, CSV/JSON out.

Two subcommands:

* ``run CONFIG``: dispatch one experiment (classical, weyl, mixture,
  resolvent, qubit, kernel) and write a results table plus a JSON sidecar
  with the config echo, condition reports, oracle residuals and wall time.
* ``validate [CONFIG]``: run the structural checkers (Weyl relations,
  Kolmogorov conditions, channel validation, commutativity) for a config,
  or the built-in self-test suite when no config is given; emits a
  machine-readable pass/fail report.

Exit codes: 0 success, 1 I/O or schema error, 2 precondition failure (the
witness is reported). Identical configs produce byte-identical output: the
core is deterministic and floats are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np
import jsonschema

from . import classical, generators, kernel, oracle, qubit, timefn, weyl
from .errors import (NonProbabilisticResultError, PoleEncounteredError,
                     PreconditionFailedError)
from .superop import validate_channel

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM, "minItems": 1}

TIMEFN_SCHEMA = {
    "oneOf": [
        _NUM,
        {"type": "object",
         "properties": {"kind": {"const": "constant"}, "value": _NUM},
         "required": ["kind", "value"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "polynomial"}, "coeffs": _NUM_ARRAY},
         "required": ["kind", "coeffs"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "damped-trig"}, "amplitude": _NUM,
                        "decay": _NUM, "frequency": _NUM, "phase": _NUM,
                        "offset": _NUM},
         "required": ["kind"], "additionalProperties": False},
        {"type": "object",
         "properties": {"kind": {"const": "tabulated"}, "times": _NUM_ARRAY,
                        "values": _NUM_ARRAY},
         "required": ["kind", "times", "values"], "additionalProperties": False},
    ]
}

_TIMEFN_ARRAY = {"type": "array", "items": TIMEFN_SCHEMA, "minItems": 1}
_DIMS = {"type": "object",
         "properties": {"d": {"type": "integer", "minimum": 2},
                        "N": {"type": "integer", "minimum": 1}},
         "required": ["d", "N"], "additionalProperties": False}
_TIME = {"type": "object",
         "properties": {"t0": _NUM, "t": _NUM,
                        "samples": {"type": "integer", "minimum": 1}},
         "required": ["t0", "t", "samples"], "additionalProperties": False}
_MODE = {"enum": ["markov", "nonmarkov"]}
_ORACLE = {"type": "object",
           "properties": {"tol": _NUM, "steps": {"type": "integer", "minimum": 1}},
           "additionalProperties": False}
_OUTPUT = {"type": "string"}
_COMPLEX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

KIND_SCHEMAS = {
    "classical": {
        "type": "object",
        "properties": {"kind": {"const": "classical"}, "dims": _DIMS,
                       "rates": _TIMEFN_ARRAY, "time": _TIME, "mode": _MODE,
                       "oracle": _ORACLE, "output": _OUTPUT},
        "required": ["kind", "dims", "rates", "time"],
        "additionalProperties": False,
    },
    "weyl": {
        "type": "object",
        "properties": {"kind": {"const": "weyl"}, "dims": _DIMS,
                       "rates": _TIMEFN_ARRAY, "time": _TIME, "mode": _MODE,
                       "oracle": _ORACLE, "output": _OUTPUT},
        "required": ["kind", "dims", "rates", "time"],
        "additionalProperties": False,
    },
    "mixture": {
        "type": "object",
        "properties": {"kind": {"const": "mixture"}, "dims": _DIMS,
                       "generators": {"type": "array", "items": _TIMEFN_ARRAY,
                                      "minItems": 1},
                       "weights": _TIMEFN_ARRAY, "time": _TIME,
                       "oracle": _ORACLE, "output": _OUTPUT},
        "required": ["kind", "dims", "generators", "weights", "time"],
        "additionalProperties": False,
    },
    "resolvent": {
        "type": "object",
        "properties": {"kind": {"const": "resolvent"}, "dims": _DIMS,
                       "rates": _TIMEFN_ARRAY, "s_values": _NUM_ARRAY,
                       "k_values": {"type": "array", "minItems": 1,
                                    "items": {"type": "integer", "minimum": 0}},
                       "output": _OUTPUT},
        "required": ["kind", "dims", "rates", "s_values", "k_values"],
        "additionalProperties": False,
    },
    "qubit": {
        "type": "object",
        "properties": {"kind": {"const": "qubit"}, "epsilon": TIMEFN_SCHEMA,
                       "gamma": TIMEFN_SCHEMA,
                       "c": {"type": "array", "minItems": 2, "maxItems": 2,
                             "items": {"type": "array", "minItems": 2,
                                       "maxItems": 2, "items": TIMEFN_SCHEMA}},
                       "mu": {"type": "number", "minimum": 0, "maximum": 1},
                       "initial_state": {"type": "array", "minItems": 2,
                                         "maxItems": 2,
                                         "items": {"type": "array", "minItems": 2,
                                                   "maxItems": 2,
                                                   "items": _COMPLEX}},
                       "time": _TIME, "mode": _MODE, "oracle": _ORACLE,
                       "output": _OUTPUT},
        "required": ["kind", "gamma", "mu", "initial_state", "time"],
        "additionalProperties": False,
    },
    "kernel": {
        "type": "object",
        "properties": {"kind": {"const": "kernel"}, "rate": TIMEFN_SCHEMA,
                       "weights": _NUM_ARRAY, "exponents": _NUM_ARRAY,
                       "s_values": _NUM_ARRAY, "output": _OUTPUT},
        "required": ["kind", "s_values"],
        "additionalProperties": False,
    },
}


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(config)


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("config must be an object with a 'kind' field")
    kind = config["kind"]
    if kind not in KIND_SCHEMAS:
        raise ConfigError(
            f"unknown kind {kind!r}; expected one of {sorted(KIND_SCHEMAS)}")
    try:
        jsonschema.validate(config, KIND_SCHEMAS[kind])
    except jsonschema.ValidationError as exc:
        path = ".".join(str(p) for p in exc.absolute_path) or "(root)"
        raise ConfigError(f"config invalid at {path}: {exc.message}") from exc
    if kind == "kernel" and ("rate" in config) == ("weights" in config):
        raise ConfigError(
            "kernel config needs exactly one of 'rate' or 'weights'+'exponents'")
    if kind == "kernel" and "weights" in config and "exponents" not in config:
        raise ConfigError("kernel 'weights' requires 'exponents'")
    return config


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _timefn(spec) -> timefn.TimeFunction:
    if isinstance(spec, (int, float)):
        return timefn.Constant(spec)
    return timefn.from_spec(spec)


def _complex_entry(pair) -> complex:
    return complex(pair[0], pair[1])


def _classical_generator(config) -> classical.CirculantGenerator:
    d, n = config["dims"]["d"], config["dims"]["N"]
    return classical.CirculantGenerator(d, n, tuple(_timefn(r) for r in config["rates"]))


def _weyl_field(config) -> weyl.WeylCoefficientField:
    d, n = config["dims"]["d"], config["dims"]["N"]
    return weyl.WeylCoefficientField(d, n, tuple(_timefn(r) for r in config["rates"]))


def _qubit_spec(config) -> qubit.QubitGeneratorSpec:
    c = config.get("c", [[0.0, 0.0], [0.0, 0.0]])
    return qubit.QubitGeneratorSpec(
        epsilon=_timefn(config.get("epsilon", 0.0)),
        gamma=_timefn(config["gamma"]),
        c=tuple(tuple(_timefn(f) for f in row) for row in c),
        mu=config["mu"],
    )


def _kernel_signal(config) -> kernel.EigenmodeSignal:
    if "rate" in config:
        return kernel.mode_signal(_timefn(config["rate"]))
    return kernel.ExponentialMixtureSignal(config["weights"], config["exponents"])


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_table(path: str, fmt: str, header: list, rows: list):
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        payload = {"columns": header,
                   "rows": [[float(_fmt(v)) for v in row] for row in rows]}
        text = json.dumps(payload, indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_channel(path: str, matrix: np.ndarray):
    """One ``row,col,re,im`` line per matrix entry, row-major, in the
    17-digit format of :func:`_fmt`; written a row at a time, so no text
    for the whole matrix is held in memory."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("row,col,re,im\n")
        for i, row in enumerate(matrix):
            handle.write("".join(
                f"{i},{j},{re:.17g},{im:.17g}\n"
                for j, (re, im) in enumerate(zip(row.real.tolist(),
                                                 row.imag.tolist()))))


def write_sidecar(path: str, config: dict, reports: dict, elapsed: float):
    payload = {"config": config, "reports": reports,
               "wall_time_seconds": round(elapsed, 6)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")


# ---------------------------------------------------------------------------
# run: per-kind experiments
# ---------------------------------------------------------------------------

def _time_grid(config) -> np.ndarray:
    window = config["time"]
    return np.linspace(window["t0"], window["t"], window["samples"])


def _oracle_settings(config, args):
    cfg = config.get("oracle", {})
    tol = args.tol if args.tol is not None else cfg.get("tol", 1e-7)
    steps = args.steps if args.steps is not None else cfg.get("steps", 2048)
    return tol, steps


def _run_classical(config, args):
    gen = _classical_generator(config)
    mode = config.get("mode", "markov")
    t0 = config["time"]["t0"]
    grid = _time_grid(config)
    header = ["t"] + [f"P{i}" for i in range(gen.d ** gen.naxes)]
    use_oracle = args.oracle
    tol, steps = _oracle_settings(config, args)
    if use_oracle:
        header.append("oracle_residual")
    rows, worst = [], 0.0
    for t in grid:
        field = classical.propagate(gen, t0, float(t), mode)
        row = [float(t)] + [float(v) for v in field.values.real]
        if use_oracle:
            lo, hi = classical.integration_window(t0, float(t), mode)
            if hi > lo:
                prop = oracle.ordered_exp(
                    lambda u: classical.circulant_matrix(gen, u), lo, hi, steps)
            else:
                prop = np.eye(gen.d ** gen.naxes)
            reference = prop @ classical.LatticeField.unit(gen.d, gen.naxes).values
            residual = float(np.max(np.abs(field.values - reference)))
            worst = max(worst, residual)
            row.append(residual)
        rows.append(row)
    reports = {"mode": mode}
    if use_oracle:
        reports["oracle"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol, "steps": steps}
    return header, rows, reports


def _run_weyl(config, args):
    field = _weyl_field(config)
    mode = config.get("mode", "markov")
    t0 = config["time"]["t0"]
    grid = _time_grid(config)
    family = field.family()
    labels = []
    for flat in range(family.count):
        m, n = family.index_pair(flat)
        tag = "".join(str(v) for v in m) + "_" + "".join(str(v) for v in n)
        labels.extend([f"re_relax_{tag}", f"im_relax_{tag}"])
    header = ["t"] + labels
    use_oracle = args.oracle
    tol, steps = _oracle_settings(config, args)
    if use_oracle:
        header.append("oracle_residual")
    rows, worst = [], 0.0
    for t in grid:
        lo, hi = classical.integration_window(t0, float(t), mode)
        relax = np.exp(classical.dft(field.integrated(lo, hi)).values)
        row = [float(t)]
        for value in relax:
            row.extend([float(value.real), float(value.imag)])
        if use_oracle:
            channel = weyl.evolve(field, t0, float(t), mode, family=family)
            if hi > lo:
                prop = oracle.ordered_exp(
                    lambda u: weyl.map_from_coeffs(field, u, family).matrix,
                    lo, hi, steps)
            else:
                prop = np.eye(family.dim ** 2)
            residual = float(np.max(np.abs(channel.matrix - prop)))
            worst = max(worst, residual)
            row.append(residual)
        rows.append(row)
    final_map = weyl.evolve(field, t0, float(grid[-1]), mode, family=family)
    reports = {"mode": mode,
               "final_channel": validate_channel(final_map).as_dict()}
    if use_oracle:
        reports["oracle"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol, "steps": steps}
    return header, rows, reports, {"channel_matrix": final_map.matrix}


def _run_mixture(config, args):
    d, n = config["dims"]["d"], config["dims"]["N"]
    gens = [weyl.map_from_coeffs(
        weyl.WeylCoefficientField(d, n, tuple(_timefn(r) for r in rates)))
        for rates in config["generators"]]
    cset = generators.CommutingGeneratorSet.from_generators(gens)
    spec = generators.MixtureSpec(tuple(_timefn(w) for w in config["weights"]), cset)
    t0 = config["time"]["t0"]
    grid = _time_grid(config)
    n_modes = cset.basis.eigenvalues.size
    header = ["t"] + [v for a in range(n_modes) for v in (f"re_c{a}", f"im_c{a}")]
    use_oracle = args.oracle
    tol, _ = _oracle_settings(config, args)
    if use_oracle:
        header.append("oracle_residual")
    rows, worst = [], 0.0
    for t in grid:
        tau = float(t) - t0
        values = spec.eigenvalue_mixture(tau)
        row = [float(t)]
        for value in values:
            row.extend([float(value.real), float(value.imag)])
        if use_oracle:
            amap = generators.mixture_map(spec, t0, float(t))
            weights = spec.weight_values(tau)
            direct = sum(w * oracle.expm(tau * g.matrix)
                         for w, g in zip(weights, gens))
            residual = float(np.max(np.abs(amap.matrix - direct)))
            worst = max(worst, residual)
            row.append(residual)
        rows.append(row)
    reports = {"n_generators": len(gens)}
    if use_oracle:
        reports["oracle"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol}
    return header, rows, reports


def _run_resolvent(config, args):
    field = _weyl_field(config)
    gen = weyl.map_from_coeffs(field)
    header = ["s", "k", "cp", "tp", "unital", "choi_min_eigenvalue",
              "tp_residual", "unital_residual"]
    rows = []
    for s in config["s_values"]:
        for k in config["k_values"]:
            channel = generators.resolvent_channel(gen, float(s), int(k))
            rep = validate_channel(channel)
            rows.append([float(s), float(k), float(rep.cp), float(rep.tp),
                         float(rep.unital), rep.choi_min_eigenvalue,
                         rep.tp_residual, rep.unital_residual])
    return header, rows, {"generator_norm": gen.norm()}


def _run_qubit(config, args):
    spec = _qubit_spec(config)
    mode = config.get("mode", "markov")
    rho0 = np.array([[_complex_entry(e) for e in row]
                     for row in config["initial_state"]])
    t0 = config["time"]["t0"]
    grid = _time_grid(config)
    header = ["t", "rho00", "rho11", "re_rho01", "im_rho01", "purity"]
    use_oracle = args.oracle
    tol, steps = _oracle_settings(config, args)
    if use_oracle:
        header.append("oracle_residual")
    rows, worst = [], 0.0
    for t in grid:
        amap = qubit.propagate(spec, t0, float(t), mode)
        rho = amap.apply(rho0)
        purity = float(np.real(np.trace(rho @ rho)))
        row = [float(t), float(rho[0, 0].real), float(rho[1, 1].real),
               float(rho[0, 1].real), float(rho[0, 1].imag), purity]
        if use_oracle:
            lo, hi = classical.integration_window(t0, float(t), mode)
            if hi > lo:
                prop = oracle.ordered_exp(
                    lambda u: qubit.build_generator(spec, u).matrix, lo, hi, steps)
            else:
                prop = np.eye(4)
            residual = float(np.max(np.abs(amap.matrix - prop)))
            worst = max(worst, residual)
            row.append(residual)
        rows.append(row)
    reports = {"mode": mode,
               "classification": qubit.classify(
                   spec, config["time"]["t"] - t0).as_dict()}
    if use_oracle:
        reports["oracle"] = {"max_residual": worst, "tol": tol,
                             "passed": worst <= tol, "steps": steps}
    return header, rows, reports


def _run_kernel(config, args):
    signal = _kernel_signal(config)
    header = ["s", "re_f_hat", "im_f_hat", "re_k_hat", "im_k_hat", "quad_error"]
    table = kernel.laplace_table(signal, config["s_values"])
    rows = []
    identity_residual = 0.0
    for s, fh, kh, err in zip(table.s_values, table.f_hat, table.k_hat,
                              table.errors):
        chat = (1.0 + fh) / s
        identity_residual = max(identity_residual,
                                abs(s * chat - 1.0 - kh * chat))
        rows.append([float(s), fh.real, fh.imag, kh.real, kh.imag, float(err)])
    return header, rows, {"laplace_identity_residual": identity_residual}


_RUNNERS = {
    "classical": _run_classical,
    "weyl": _run_weyl,
    "mixture": _run_mixture,
    "resolvent": _run_resolvent,
    "qubit": _run_qubit,
    "kernel": _run_kernel,
}


def run_experiment(config: dict, args) -> int:
    started = time.perf_counter()
    out_path = args.out or config.get("output")
    if out_path is None:
        print("error: no output path (use --out or the 'output' field)",
              file=sys.stderr)
        return 1
    result = _RUNNERS[config["kind"]](config, args)
    header, rows, reports = result[0], result[1], result[2]
    extra = result[3] if len(result) > 3 else {}
    try:
        write_table(out_path, args.format, header, rows)
        if "channel_matrix" in extra:
            channel_path = out_path + ".channel.csv"
            write_channel(channel_path, extra["channel_matrix"])
            reports["channel_matrix_path"] = channel_path
        write_sidecar(out_path + ".meta.json", config, reports,
                      time.perf_counter() - started)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _validate_classical(config, tol):
    gen = _classical_generator(config)
    window = config["time"]
    grid = classical.condition_grid(window["t0"], window["t"])
    taus = classical.condition_grid(0.0, window["t"] - window["t0"])
    return [
        {"name": "kolmogorov_markov",
         **classical.kolmogorov_check_markov(gen, grid, tol).as_dict()},
        {"name": "kolmogorov_nonmarkov",
         **classical.kolmogorov_check_nonmarkov(gen, taus, tol).as_dict()},
    ]


def _validate_weyl(config, tol):
    field = _weyl_field(config)
    window = config["time"]
    mode = config.get("mode", "markov")
    checks = []
    relations = weyl.relations_check(field.family())
    checks.append({"name": "weyl_relations", "passed": relations.passed(),
                   **relations.as_dict()})
    convention = weyl.spectrum_convention_residual(field.d, field.nparties)
    checks.append({"name": "spectrum_convention", "passed": convention < 1e-10,
                   "residual": convention})
    gen = field.as_circulant()
    if mode == "markov":
        grid = classical.condition_grid(window["t0"], window["t"])
        report = classical.kolmogorov_check_markov(gen, grid, tol)
    else:
        taus = classical.condition_grid(0.0, window["t"] - window["t0"])
        report = classical.kolmogorov_check_nonmarkov(gen, taus, tol)
    checks.append({"name": f"kolmogorov_{mode}", **report.as_dict()})
    if report.passed:
        amap = weyl.evolve(field, window["t0"], window["t"], mode)
        rep = validate_channel(amap)
        checks.append({"name": "channel_cptp_unital",
                       "passed": rep.cp and rep.tp and rep.unital,
                       **rep.as_dict()})
    return checks


def _validate_qubit(config, tol):
    spec = _qubit_spec(config)
    window = config["time"]
    horizon = window["t"] - window["t0"]
    classification = qubit.classify(spec, horizon)
    samples = np.linspace(window["t0"], window["t"], 7)
    worst = 0.0
    for i, u in enumerate(samples):
        gen_u = qubit.build_generator(spec, float(u))
        for v in samples[i + 1:]:
            gen_v = qubit.build_generator(spec, float(v))
            comm = gen_u.matrix @ gen_v.matrix - gen_v.matrix @ gen_u.matrix
            worst = max(worst, float(np.linalg.norm(comm, 2)))
    mode = config.get("mode", "markov")
    admissible = (classification.markovian if mode == "markov"
                  else classification.nonmarkovian_valid)
    return [
        {"name": "commutativity", "passed": worst < 1e-10,
         "max_commutator": worst},
        {"name": f"admissible_{mode}", "passed": admissible,
         **classification.as_dict()},
    ]


def _validate_mixture(config, tol):
    d, n = config["dims"]["d"], config["dims"]["N"]
    gens = [weyl.map_from_coeffs(
        weyl.WeylCoefficientField(d, n, tuple(_timefn(r) for r in rates)))
        for rates in config["generators"]]
    checks = []
    try:
        cset = generators.CommutingGeneratorSet.from_generators(gens)
        checks.append({"name": "commuting_set", "passed": True})
    except ValueError as exc:
        return [{"name": "commuting_set", "passed": False, "detail": str(exc)}]
    spec = generators.MixtureSpec(tuple(_timefn(w) for w in config["weights"]), cset)
    window = config["time"]
    try:
        spec.validate_weights(np.linspace(0.0, window["t"] - window["t0"], 101), tol)
        checks.append({"name": "weights_probability", "passed": True})
    except Exception as exc:
        checks.append({"name": "weights_probability", "passed": False,
                       "detail": str(exc)})
    return checks


def _validate_resolvent(config, tol):
    field = _weyl_field(config)
    gen = weyl.map_from_coeffs(field)
    checks = []
    for s in config["s_values"]:
        for k in config["k_values"]:
            rep = validate_channel(generators.resolvent_channel(gen, float(s), int(k)))
            checks.append({"name": f"resolvent_s{s}_k{k}",
                           "passed": rep.cp and rep.tp and rep.unital,
                           **rep.as_dict()})
    return checks


def _validate_kernel(config, tol):
    signal = _kernel_signal(config)
    table = kernel.laplace_table(signal, config["s_values"])
    worst = 0.0
    for s, fh, kh in zip(table.s_values, table.f_hat, table.k_hat):
        chat = (1.0 + fh) / s
        worst = max(worst, abs(s * chat - 1.0 - kh * chat))
    return [{"name": "laplace_identity", "passed": worst < 1e-12,
             "residual": worst}]


_VALIDATORS = {
    "classical": _validate_classical,
    "weyl": _validate_weyl,
    "mixture": _validate_mixture,
    "resolvent": _validate_resolvent,
    "qubit": _validate_qubit,
    "kernel": _validate_kernel,
}


def self_test(tol: float = 1e-10) -> list:
    """Built-in structural checks over small dimensions (no config needed)."""
    checks = []
    for d in (2, 3):
        for n in (1, 2):
            rep = weyl.relations_check(weyl.WeylFamily(d, n))
            checks.append({"name": f"weyl_relations_d{d}_N{n}",
                           "passed": rep.passed(), **rep.as_dict()})
            residual = weyl.spectrum_convention_residual(d, n)
            checks.append({"name": f"spectrum_convention_d{d}_N{n}",
                           "passed": residual < 1e-10, "residual": residual})
    gen = classical.CirculantGenerator.constant(3, 1, [-1.5, 1.0, 0.5])
    report = classical.kolmogorov_check_markov(
        gen, classical.condition_grid(0.0, 1.0), tol)
    checks.append({"name": "kolmogorov_canonical", **report.as_dict()})
    size = 9
    values = np.arange(1.0, size + 1.0)
    values /= values.sum()
    field = weyl.WeylCoefficientField.constant(3, 1, values)
    rep = validate_channel(weyl.map_from_coeffs(field))
    checks.append({"name": "probability_field_cptp",
                   "passed": rep.cp and rep.tp and rep.unital, **rep.as_dict()})
    other = weyl.WeylCoefficientField.constant(
        3, 1, np.arange(2.0, size + 2.0) / np.arange(2.0, size + 2.0).sum())
    a = weyl.map_from_coeffs(field).matrix
    b = weyl.map_from_coeffs(other).matrix
    comm = float(np.linalg.norm(a @ b - b @ a, 2))
    checks.append({"name": "coefficient_maps_commute", "passed": comm < 1e-11,
                   "commutator": comm})
    spec = qubit.QubitGeneratorSpec.constant(epsilon=0.3, gamma=1.0,
                                             c=((0.4, 0.1), (0.1, 0.2)), mu=0.25)
    lam = np.sort_complex(np.linalg.eigvals(qubit.build_generator(spec).matrix))
    big_gamma = qubit.gamma_eigenvalue(spec)
    expected = np.sort_complex(np.array([0.0, big_gamma, np.conj(big_gamma), -1.0]))
    spectral = float(np.max(np.abs(lam - expected)))
    checks.append({"name": "qubit_spectrum", "passed": spectral < 1e-10,
                   "residual": spectral})
    return checks


def validate_command(config: Optional[dict], tol: float, out_path: Optional[str],
                     ) -> int:
    if config is None:
        checks = self_test(tol)
    else:
        checks = _VALIDATORS[config["kind"]](config, tol)
    passed = all(c.get("passed", False) for c in checks)
    payload = {"passed": passed, "checks": checks}
    text = json.dumps(payload, indent=2, default=str) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comdyn",
        description="Closed-form propagation of commutative open-system dynamics")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--out", help="output table path (overrides config)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--oracle", action="store_true",
                       help="add brute-force cross-check columns")
    run_p.add_argument("--tol", type=float, default=None,
                       help="oracle comparison tolerance")
    run_p.add_argument("--steps", type=int, default=None,
                       help="oracle time-ordered product steps")

    val_p = sub.add_parser("validate", help="run validation checks")
    val_p.add_argument("config", nargs="?", default=None,
                       help="optional config; omit for the built-in self test")
    val_p.add_argument("--out", help="write the JSON report here instead of stdout")
    val_p.add_argument("--tol", type=float, default=1e-10)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            return run_experiment(config, args)
        config = load_config(args.config) if args.config else None
        return validate_command(config, args.tol, args.out)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionFailedError, NonProbabilisticResultError,
            PoleEncounteredError) as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
