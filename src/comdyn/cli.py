"""Command-line entry point: declarative experiment configs in, CSV/JSON out.

Two subcommands:

* ``run CONFIG``: dispatch one experiment (classical, weyl, mixture,
  resolvent, qubit, kernel) and write a results table plus a JSON sidecar
  with the config echo, condition reports, oracle residuals, the comdyn,
  numpy and scipy versions, and wall time.
* ``validate [CONFIG]``: run the structural checkers (Weyl relations,
  Kolmogorov conditions, channel validation, commutativity) for a config,
  or the built-in self-test suite when no config is given; emits a
  machine-readable pass/fail report.

Exit codes: 0 success, 1 I/O, schema or other input error, 2 refusal: a
precondition fails or a result cannot be trusted (the witness is reported).
Each :class:`~comdyn.errors.ComdynError` carries its code. Identical
configs produce byte-identical output: the core is deterministic and floats
are serialized with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

import numpy as np
import scipy

from . import __version__, classical, generators, kernel, oracle, qubit, timefn, weyl
from .errors import ComdynError, InvalidWeightsError, PreconditionFailedError
from .superop import DEFAULT_TOL, validate_channel

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


# ---------------------------------------------------------------------------
# config checking
# ---------------------------------------------------------------------------
#
# The schemas above are the one definition of the config format. They are
# compiled once, at import, into checkers that walk a config in one pass.
# The checkers implement exactly the JSON Schema (Draft 2020-12) keywords
# in _KEYWORDS, with two deliberate differences: ``integer`` accepts only
# ints, not integer-valued floats such as 3.0, which numpy refuses later;
# and ``number`` refuses the non-finite floats NaN and +-Infinity, which
# json.load accepts and which would otherwise fail later without a path.
# Compiling refuses any other keyword, so a schema can never loosen silently.

_TYPES = {
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                         or isinstance(v, float) and math.isfinite(v)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
}
_KEYWORDS = frozenset({
    "type", "const", "enum", "minimum", "maximum", "minItems", "maxItems",
    "items", "properties", "required", "additionalProperties", "oneOf"})


class _Invalid:
    """The first violation found: its message, formatted only when it is
    reported, and the path to the offending value, innermost key first (each
    caller appends its key on the way out)."""

    __slots__ = ("template", "args", "path")

    def __init__(self, template: str, *args):
        self.template, self.args, self.path = template, args, []

    @property
    def message(self) -> str:
        return self.template.format(*self.args)

    def at(self, key) -> "_Invalid":
        self.path.append(key)
        return self


def _equal(a, b) -> bool:
    """JSON equality: ``1 == 1.0``, but a bool equals only a bool."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _type_error(v, name: str) -> _Invalid:
    if name == "number" and isinstance(v, float):
        return _Invalid("{!r} is not a finite number", v)
    return _Invalid("{!r} is not of type {!r}", v, name)


def _check_bounds(schema):
    lo, hi = schema.get("minimum"), schema.get("maximum")
    is_number = _TYPES["number"]

    def check(v):
        if not is_number(v):
            return None
        if lo is not None and v < lo:
            return _Invalid("{!r} is less than the minimum of {!r}", v, lo)
        if hi is not None and v > hi:
            return _Invalid("{!r} is greater than the maximum of {!r}", v, hi)
        return None
    return check


def _check_array(schema):
    lo, hi = schema.get("minItems"), schema.get("maxItems")
    item = _compile(schema["items"]) if "items" in schema else None

    def check(v):
        if not isinstance(v, list):
            return None
        if lo is not None and len(v) < lo:
            return _Invalid("{!r} should be non-empty" if lo == 1
                            else "{!r} is too short", v)
        if hi is not None and len(v) > hi:
            return _Invalid("{!r} is too long", v)
        if item is not None:
            for i, x in enumerate(v):
                error = item(x)
                if error is not None:
                    return error.at(i)
        return None
    return check


def _check_object(schema):
    properties = {k: _compile(s) for k, s in schema.get("properties", {}).items()}
    required = schema.get("required", [])
    closed = "additionalProperties" in schema
    if closed and schema["additionalProperties"] is not False:
        raise ValueError("config schema 'additionalProperties' must be false")

    def check(v):
        if not isinstance(v, dict):
            return None
        for key in required:
            if key not in v:
                return _Invalid("{!r} is a required property", key)
        if closed:
            extra = [key for key in v if key not in properties]
            if extra:
                return _Invalid("Additional properties are not allowed ({} {} unexpected)",
                                ", ".join(map(repr, extra)),
                                "was" if len(extra) == 1 else "were")
        for key, sub in properties.items():
            if key in v:
                error = sub(v[key])
                if error is not None:
                    return error.at(key)
        return None
    return check


def _claims(branch: dict):
    """Whether a failing value still belongs to ``branch``: an object that
    carries the branch's tag (its properties fixed by 'const', such as a
    time function's kind), or, for an untagged branch, a value of the
    branch's type apart from finiteness (so a NaN rate belongs to the
    number branch)."""
    tag = {k: s["const"] for k, s in branch.get("properties", {}).items() if "const" in s}
    if tag:
        return lambda v: (isinstance(v, dict)
                          and all(k in v and _equal(v[k], c) for k, c in tag.items()))
    name = branch.get("type")
    if name is None:
        return lambda v: False
    is_type = _TYPES[name]
    return lambda v: is_type(v) or name == "number" and isinstance(v, float)


def _check_one_of(schema):
    branches = [_compile(b) for b in schema["oneOf"]]
    # a value that belongs to one branch gets that branch's error instead
    # of the generic one
    claims = [_claims(b) for b in schema["oneOf"]]

    def check(v):
        errors = [branch(v) for branch in branches]
        matched = sum(error is None for error in errors)
        if matched == 1:
            return None
        if matched > 1:
            return _Invalid("{!r} is valid under more than one of the given schemas", v)
        claimed = [error for error, claim in zip(errors, claims) if claim(v)]
        if len(claimed) == 1:
            return claimed[0]
        return _Invalid("{!r} is not valid under any of the given schemas", v)
    return check


def _compile(schema: dict):
    """``schema`` as a function from a value to its first ``_Invalid``, or
    None when the value is valid."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"config schema keywords {sorted(unknown)} are not implemented")
    checks = []
    if "type" in schema:
        name = schema["type"]
        if name not in _TYPES:
            raise ValueError(f"config schema type {name!r} is not implemented")
        is_type = _TYPES[name]
        checks.append(lambda v: None if is_type(v) else _type_error(v, name))
    if "const" in schema:
        const = schema["const"]
        checks.append(lambda v: None if _equal(v, const)
                      else _Invalid("{!r} was expected", const))
    if "enum" in schema:
        options = schema["enum"]
        checks.append(lambda v: None if any(_equal(v, o) for o in options)
                      else _Invalid("{!r} is not one of {!r}", v, options))
    if "minimum" in schema or "maximum" in schema:
        checks.append(_check_bounds(schema))
    if {"minItems", "maxItems", "items"} & set(schema):
        checks.append(_check_array(schema))
    if {"properties", "required", "additionalProperties"} & set(schema):
        checks.append(_check_object(schema))
    if "oneOf" in schema:
        checks.append(_check_one_of(schema))
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for each in checks:
            error = each(v)
            if error is not None:
                return error
        return None
    return check


_KIND_CHECKERS = {kind: _compile(schema) for kind, schema in KIND_SCHEMAS.items()}


class ConfigError(ComdynError, ValueError):
    exit_code = 1


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
    if not isinstance(kind, str) or kind not in KIND_SCHEMAS:
        raise ConfigError(
            f"unknown kind {kind!r}; expected one of {sorted(KIND_SCHEMAS)}")
    error = _KIND_CHECKERS[kind](config)
    if error is not None:
        path = ".".join(str(p) for p in reversed(error.path)) or "(root)"
        raise ConfigError(f"config invalid at {path}: {error.message}")
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


def _kernel_table(config) -> tuple:
    """The config's Laplace table and the worst residual over its s values
    of the identity s C^ - 1 = K^ C^, where C^ = (1 + f^) / s."""
    if "rate" in config:
        signal = kernel.mode_signal(_timefn(config["rate"]))
    else:
        signal = kernel.ExponentialMixtureSignal(config["weights"], config["exponents"])
    table = kernel.laplace_table(signal, config["s_values"])
    worst = 0.0
    for s, fh, kh in zip(table.s_values, table.f_hat, table.k_hat):
        chat = (1.0 + fh) / s
        worst = max(worst, abs(s * chat - 1.0 - kh * chat))
    return table, worst


def _mixture_fields(config, tol) -> list:
    """Each generator field of the config with its Kolmogorov report. A
    mixture assembles its generators once, at t = 0, so a field must be
    constant, and then the report at t = 0 holds at every time."""
    d, n = config["dims"]["d"], config["dims"]["N"]
    fields = []
    for k, rates in enumerate(config["generators"]):
        field = weyl.WeylCoefficientField(d, n, tuple(_timefn(r) for r in rates))
        if not field.is_constant:
            raise ConfigError(f"config invalid at generators.{k}: a mixture "
                              "generator must be constant in time")
        fields.append((field, classical.kolmogorov_check_markov(
            field.as_circulant(), [0.0], tol)))
    return fields


def _mixture_generators(config) -> list:
    """The config's generators as maps; each must be a Markov generator."""
    maps = []
    for k, (field, report) in enumerate(_mixture_fields(config, DEFAULT_TOL)):
        if not report.passed:
            v = report.first_violation
            raise PreconditionFailedError(
                f"generators.{k} is not a Markov generator: {v.condition} "
                f"(index {v.index}, value {v.value:.6e})", witness=report)
        maps.append(weyl.map_from_coeffs(field))
    return maps


def _mixture_spec(config, cset) -> generators.MixtureSpec:
    return generators.MixtureSpec(tuple(_timefn(w) for w in config["weights"]), cset)


def _resolvent_channels(config, tol) -> tuple:
    """The base generator, and (s, k, channel report at ``tol``) for every
    resolvent channel of the config, s slowest."""
    gen = weyl.map_from_coeffs(_weyl_field(config))
    return gen, [(s, k, validate_channel(
        generators.resolvent_channel(gen, float(s), int(k)), tol))
        for s in config["s_values"] for k in config["k_values"]]


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
    for the whole matrix is held in memory.

    A Weyl channel has D^3 nonzero entries out of D^4, so each row starts
    from the lines of +0.0 entries, ``col,0,0``, built once per matrix, and
    formats only the entries whose bits are not all zero (``-0.0`` and NaN
    are formatted like any other value)."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    zeros = [f"{j},0,0\n" for j in range(matrix.shape[1])]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("row,col,re,im\n")
        for i, row in enumerate(matrix):
            lines = zeros.copy()
            # an entry is +0.0 exactly when its 128 bits are all zero
            nonzero = np.flatnonzero(row.view(np.int64).reshape(-1, 2).any(axis=1))
            for j, value in zip(nonzero.tolist(), row[nonzero].tolist()):
                lines[j] = f"{j},{_fmt(value.real)},{_fmt(value.imag)}\n"
            prefix = f"{i},"
            handle.write(prefix + prefix.join(lines))


def write_sidecar(path: str, config: dict, reports: dict, elapsed: float):
    versions = {"comdyn": __version__, "numpy": np.__version__,
                "scipy": scipy.__version__}
    payload = {"config": config, "reports": reports, "versions": versions,
               "wall_time_seconds": round(elapsed, 6)}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")


# ---------------------------------------------------------------------------
# run: per-kind experiments
# ---------------------------------------------------------------------------

def _ordered_propagator(lfun, t0: float, t: float, mode: str, steps: int,
                        size: int) -> np.ndarray:
    """The oracle's time-ordered product over the mode's integration window;
    the identity on an empty window."""
    lo, hi = classical.integration_window(t0, t, mode)
    if hi > lo:
        return oracle.ordered_exp(lfun, lo, hi, steps)
    return np.eye(size)


def _tabulate(config, args, header: list, row, residual,
              report_steps: bool = True) -> tuple:
    """The table of ``row(t)`` over the config's time grid.

    ``row(t)`` returns the table row and the closed form behind it. With
    ``--oracle`` each row gains the column ``residual(t, closed form,
    steps)`` and the worst residual is reported. Returns the header, the
    rows, the last closed form and ``{"oracle": report}``, which is empty
    without ``--oracle``.
    """
    window, settings = config["time"], config.get("oracle", {})
    tol = args.tol if args.tol is not None else settings.get("tol", 1e-7)
    steps = args.steps if args.steps is not None else settings.get("steps", 2048)
    rows, worst, closed = [], 0.0, None
    for t in np.linspace(window["t0"], window["t"], window["samples"]).tolist():
        values, closed = row(t)
        if args.oracle:
            values.append(residual(t, closed, steps))
            worst = max(worst, values[-1])
        rows.append(values)
    if not args.oracle:
        return header, rows, closed, {}
    report = {"max_residual": worst, "tol": tol, "passed": worst <= tol}
    if report_steps:
        report["steps"] = steps
    return header + ["oracle_residual"], rows, closed, {"oracle": report}


def _run_classical(config, args):
    gen = _classical_generator(config)
    mode = config.get("mode", "markov")
    t0 = config["time"]["t0"]
    size = gen.d ** gen.naxes
    unit = classical.LatticeField.unit(gen.d, gen.naxes).values

    def row(t):
        field = classical.propagate(gen, t0, t, mode)
        return [t] + [float(v) for v in field.values.real], field

    def residual(t, field, steps):
        prop = _ordered_propagator(lambda u: classical.circulant_matrix(gen, u),
                                   t0, t, mode, steps, size)
        return float(np.max(np.abs(field.values - prop @ unit)))

    header, rows, _, oracle_report = _tabulate(
        config, args, ["t"] + [f"P{i}" for i in range(size)], row, residual)
    return header, rows, {"mode": mode, **oracle_report}, None


def _weyl_final_channel(relax, tol: float = DEFAULT_TOL) -> tuple:
    """The assembled channel of the relaxation factors ``relax``, its
    report from the spectrum, and how far a dense report of the same map
    may round apart from it."""
    spectrum = weyl.WeylSpectrum(relax)
    return (spectrum.assemble(), spectrum.channel_report(tol),
            spectrum.rounding_bound())


def _run_weyl(config, args):
    field = _weyl_field(config)
    gen = field.as_circulant()
    mode = config.get("mode", "markov")
    t0 = config["time"]["t0"]
    npar = field.nparties
    labels = []
    for digits in np.ndindex((field.d,) * (2 * npar)):
        tag = "".join(map(str, digits[:npar])) + "_" + "".join(map(str, digits[npar:]))
        labels.extend([f"re_relax_{tag}", f"im_relax_{tag}"])

    def row(t):
        relax = classical.relaxation(gen, t0, t, mode)
        values = [t]
        for value in relax.values:
            values.extend([float(value.real), float(value.imag)])
        return values, relax

    # the oracle time-orders the dense generator, assembled on the family's
    # unitaries and not on the support the closed form is scattered onto
    family = field.family() if args.oracle else None

    def residual(t, relax, steps):
        channel = weyl.WeylSpectrum(relax).assemble()
        prop = _ordered_propagator(
            lambda u: weyl.map_from_coeffs(field, u, family).matrix,
            t0, t, mode, steps, family.dim ** 2)
        return float(np.max(np.abs(channel.matrix - prop)))

    header, rows, relax, oracle_report = _tabulate(
        config, args, ["t"] + labels, row, residual)
    final_map, final, atol = _weyl_final_channel(relax)
    if args.oracle:
        # the dense report of the written channel must say the same
        report = oracle_report["oracle"]
        report["final_channel_agrees"] = final.agrees_with(
            validate_channel(final_map), atol)
        report["passed"] = report["passed"] and report["final_channel_agrees"]
    reports = {"mode": mode, "final_channel": final.as_dict(), **oracle_report}
    return header, rows, reports, final_map.matrix


def _run_mixture(config, args):
    cset = generators.CommutingGeneratorSet.from_generators(
        _mixture_generators(config))
    spec = _mixture_spec(config, cset)
    t0 = config["time"]["t0"]
    spec.validate_weights(t0, config["time"]["t"])
    n_modes = cset.basis.eigenvalues.size

    def row(t):
        values = [t]
        for value in spec.eigenvalue_mixture(t - t0):
            values.extend([float(value.real), float(value.imag)])
        return values, None

    def residual(t, _, steps):
        # the weights were checked above on [0, t - t0], which holds every
        # row's window, so the map is assembled without a second check
        tau = t - t0
        amap = spec.generator_set.basis.assemble(spec.eigenvalue_mixture(tau))
        direct = sum(w * oracle.expm(tau * g.matrix)
                     for w, g in zip(spec.weight_values(tau), cset.generators))
        return float(np.max(np.abs(amap.matrix - direct)))

    header = ["t"] + [v for a in range(n_modes) for v in (f"re_c{a}", f"im_c{a}")]
    header, rows, _, oracle_report = _tabulate(config, args, header, row, residual,
                                               report_steps=False)
    return header, rows, {"n_generators": len(cset), **oracle_report}, None


def _run_resolvent(config, args):
    gen, channels = _resolvent_channels(config, DEFAULT_TOL)
    header = ["s", "k", "cp", "tp", "unital", "choi_min_eigenvalue",
              "tp_residual", "unital_residual"]
    rows = [[float(s), float(k), float(rep.cp), float(rep.tp), float(rep.unital),
             rep.choi_min_eigenvalue, rep.tp_residual, rep.unital_residual]
            for s, k, rep in channels]
    return header, rows, {"generator_norm": gen.norm()}, None


def _run_qubit(config, args):
    spec = _qubit_spec(config)
    mode = config.get("mode", "markov")
    rho0 = np.array([[complex(*e) for e in row]
                     for row in config["initial_state"]])
    t0 = config["time"]["t0"]

    def row(t):
        amap = qubit.propagate(spec, t0, t, mode)
        rho = amap.apply(rho0)
        purity = float(np.real(np.trace(rho @ rho)))
        return [t, float(rho[0, 0].real), float(rho[1, 1].real),
                float(rho[0, 1].real), float(rho[0, 1].imag), purity], amap

    def residual(t, amap, steps):
        prop = _ordered_propagator(lambda u: qubit.build_generator(spec, u).matrix,
                                   t0, t, mode, steps, 4)
        return float(np.max(np.abs(amap.matrix - prop)))

    header, rows, _, oracle_report = _tabulate(
        config, args, ["t", "rho00", "rho11", "re_rho01", "im_rho01", "purity"],
        row, residual)
    reports = {"mode": mode,
               "classification": qubit.classify(
                   spec, t0, config["time"]["t"]).as_dict(),
               **oracle_report}
    return header, rows, reports, None


def _run_kernel(config, args):
    table, identity_residual = _kernel_table(config)
    header = ["s", "re_f_hat", "im_f_hat", "re_k_hat", "im_k_hat", "quad_error"]
    rows = [[float(s), fh.real, fh.imag, kh.real, kh.imag, float(err)]
            for s, fh, kh, err in zip(table.s_values, table.f_hat, table.k_hat,
                                      table.errors)]
    return header, rows, {"laplace_identity_residual": identity_residual}, None


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
    header, rows, reports, channel = _RUNNERS[config["kind"]](config, args)
    try:
        write_table(out_path, args.format, header, rows)
        if channel is not None:
            channel_path = out_path + ".channel.csv"
            write_channel(channel_path, channel)
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
    return [{"name": f"kolmogorov_{mode}",
             **classical.kolmogorov_check(gen, window["t0"], window["t"], mode,
                                          tol).as_dict()}
            for mode in ("markov", "nonmarkov")]


def _validate_weyl(config, tol):
    field = _weyl_field(config)
    gen = field.as_circulant()
    t0, t = config["time"]["t0"], config["time"]["t"]
    mode = config.get("mode", "markov")
    checks = []
    relations = weyl.relations_check(field.family())
    checks.append({"name": "weyl_relations", "passed": relations.passed(),
                   **relations.as_dict()})
    convention = weyl.spectrum_convention_residual(field.d, field.nparties)
    checks.append({"name": "spectrum_convention", "passed": convention < 1e-10,
                   "residual": convention})
    report = classical.kolmogorov_check(gen, t0, t, mode, tol)
    checks.append({"name": f"kolmogorov_{mode}", **report.as_dict()})
    if report.passed:
        # the report above is the check relaxation would repeat
        relax = classical.relaxation(gen, t0, t, mode, tol, check=False)
        amap, spectral, atol = _weyl_final_channel(relax, tol)
        rep = validate_channel(amap, tol)
        checks.append({"name": "channel_cptp_unital",
                       "passed": rep.cp and rep.tp and rep.unital,
                       **rep.as_dict()})
        checks.append({"name": "channel_spectral_agrees",
                       "passed": spectral.agrees_with(rep, atol), "atol": atol,
                       **spectral.as_dict()})
    return checks


def _validate_qubit(config, tol):
    spec = _qubit_spec(config)
    window = config["time"]
    classification = qubit.classify(spec, window["t0"], window["t"], tol)
    # L(t) = sum_k f_k(t) B_k over the fixed basis, so commuting B_k
    # certify [L(t), L(s)] = 0 at every pair of times
    basis = spec.basis
    worst = max(float(np.linalg.norm(a @ b - b @ a, 2))
                for i, a in enumerate(basis) for b in basis[i + 1:])
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
    fields = _mixture_fields(config, tol)
    checks = [{"name": f"generator_{k}_markov", **report.as_dict()}
              for k, (_, report) in enumerate(fields)]
    try:
        cset = generators.CommutingGeneratorSet.from_generators(
            [weyl.map_from_coeffs(field) for field, _ in fields])
    except ValueError as exc:
        return checks + [{"name": "commuting_set", "passed": False,
                          "detail": str(exc)}]
    checks.append({"name": "commuting_set", "passed": True})
    spec = _mixture_spec(config, cset)
    window = config["time"]
    try:
        spec.validate_weights(window["t0"], window["t"], tol)
        checks.append({"name": "weights_probability", "passed": True})
    except InvalidWeightsError as exc:
        checks.append({"name": "weights_probability", "passed": False,
                       "detail": str(exc)})
    return checks


def _validate_resolvent(config, tol):
    _, channels = _resolvent_channels(config, tol)
    return [{"name": f"resolvent_s{s}_k{k}",
             "passed": rep.cp and rep.tp and rep.unital, **rep.as_dict()}
            for s, k, rep in channels]


def _validate_kernel(config, tol):
    _, worst = _kernel_table(config)
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
    report = classical.kolmogorov_check(gen, 0.0, 1.0, "markov", tol)
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
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 1
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
    except ComdynError as exc:
        prefix = "error" if exc.exit_code == 1 else "precondition failed"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
