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
import sys
import time
from functools import partial
from typing import Optional

import numpy as np
import scipy

from . import __version__, classical, generators, kernel, oracle, qubit, weyl
from .config import ConfigError, validate_config
from .errors import ComdynError, InvalidWeightsError, PreconditionFailedError
from .superop import DEFAULT_TOL, validate_channel


def load_config(path: str) -> tuple:
    """The checked config and the text it was parsed from, which
    :func:`write_sidecar` echoes."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        config = json.loads(text)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8, too many digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(config), text


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _classical_generator(config) -> classical.CirculantGenerator:
    return classical.CirculantGenerator(config["dims"]["d"], config["dims"]["N"],
                                        config["rates"])


def _weyl_field(config, rates) -> weyl.WeylCoefficientField:
    return weyl.WeylCoefficientField(config["dims"]["d"], config["dims"]["N"], rates)


def _qubit_spec(config) -> qubit.QubitGeneratorSpec:
    return qubit.QubitGeneratorSpec(
        epsilon=config.get("epsilon", 0.0), gamma=config["gamma"],
        c=config.get("c", [[0.0, 0.0], [0.0, 0.0]]), mu=config["mu"])


def _kernel_table(config) -> tuple:
    """The config's Laplace table and the worst residual over its s values
    of the identity s C^ - 1 = K^ C^, where C^ = (1 + f^) / s."""
    if "rate" in config:
        rate = config["rate"]
        if isinstance(rate, dict) and rate["kind"] == "tabulated":
            raise ConfigError("config invalid at rate: the transform needs the rate on all "
                              f"t >= 0; a tabulated rate ends at t={max(rate['times'])}")
        signal = kernel.RateModeSignal(rate)
    else:
        signal = kernel.ExponentialMixtureSignal(config["weights"], config["exponents"])
    table = kernel.laplace_table(signal, config["s_values"])
    chat = (1.0 + table.f_hat) / table.s_values
    return table, max(0.0, *np.abs(table.s_values * chat - 1.0 - table.k_hat * chat).tolist())


def _constant_field(config, rates, path: str, what: str) -> weyl.WeylCoefficientField:
    """The field of ``rates``; a ``what`` is built at t = 0 only, so must be constant."""
    field = _weyl_field(config, rates)
    if not field.is_constant:
        raise ConfigError(f"config invalid at {path}: a {what} must be constant in time")
    return field


def _mixture_fields(config, tol) -> list:
    """Each generator field of the config with its Kolmogorov report. A
    mixture assembles its generators once, at t = 0, so a field must be
    constant, and then the report at t = 0 holds at every time."""
    fields = []
    for k, rates in enumerate(config["generators"]):
        field = _constant_field(config, rates, f"generators.{k}", "mixture generator")
        fields.append((field, classical.kolmogorov_check_markov(
            field.as_circulant(), [0.0], tol)))
    return fields


def _mixture_generators(config) -> list:
    """The config's generators as maps; each must be a Markov generator."""
    maps = []
    for k, (field, report) in enumerate(_mixture_fields(config, DEFAULT_TOL)):
        if not report.passed:
            raise PreconditionFailedError(
                f"generators.{k} is not a Markov generator: {report.first_violation}",
                witness=report)
        maps.append(weyl.map_from_coeffs(field))
    return maps


def _resolvent_channels(config, tol) -> tuple:
    """The base generator, and (s, k, channel report at ``tol``) for every
    resolvent channel of the config, s slowest."""
    gen = weyl.map_from_coeffs(_constant_field(config, config["rates"], "rates",
                                               "resolvent generator"))
    return gen, [(s, k, validate_channel(
        generators.resolvent_channel(gen, float(s), int(k)), tol))
        for s in config["s_values"] for k in config["k_values"]]


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _json_list(items: list, pad: str) -> str:
    """A flat list as ``json.dumps(..., indent=2)`` lays it out with ``pad``,
    a newline and its brackets' indent, from the C encoder."""
    return (f"[{pad}  " + json.dumps(items, separators=(f",{pad}  ", ""))[1:-1] + f"{pad}]"
            if items else "[]")


def write_table(path: str, fmt: str, header: list, rows: list):
    """A CSV of 17-digit floats (each row one %-format, the bytes of
    :func:`_fmt`), or the JSON that ``json.dumps(indent=2)`` writes of
    ``{"columns", "rows"}`` (a double's repr reads back as it)."""
    if fmt == "csv":
        text = "\n".join([",".join(header)] + [",".join(["%.17g"] * len(row)) % tuple(row)
                                                for row in rows]) + "\n"
    else:
        body = ",\n    ".join(_json_list(list(map(float, row)), "\n    ") for row in rows)
        text = ('{\n  "columns": ' + _json_list(header, "\n  ") + ',\n  "rows": '
                + (f"[\n    {body}\n  ]" if rows else "[]") + "\n}\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_channel(path: str, spectrum: weyl.WeylSpectrum):
    """One ``row,col,re,im`` line per entry of the spectrum's D^2 x D^2
    map, row-major, in the 17-digit format of :func:`_fmt`, streamed from
    its D^3 support (see :meth:`~comdyn.weyl.WeylSpectrum.support`) with no
    dense matrix: :func:`_fmt` runs once on each part of the D^2 support
    values, and each row starts from the lines of +0.0 entries,
    ``col,0,0``, built once, and takes its D support columns. Rows are
    written D at a time."""
    values, positions, differences = spectrum.support()
    dim, size = values.shape[0], positions.size
    texts = [f"{_fmt(z.real)},{_fmt(z.imag)}\n" for z in values.reshape(-1).tolist()]
    # row positions[n, c] holds values[n, differences[c]] at columns positions[n]
    n, c = np.divmod(np.argsort(positions.reshape(-1)), dim)
    cols = positions[n].tolist()
    which = (n[:, None] * dim + differences[c]).tolist()
    zeros = [f"{j},0,0\n" for j in range(size)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("row,col,re,im\n")
        for start in range(0, size, dim):
            batch = []
            for i in range(start, start + dim):
                lines = zeros.copy()
                for j, k in zip(cols[i], which[i]):
                    lines[j] = f"{j},{texts[k]}"
                prefix = f"{i},"
                batch.append(prefix + prefix.join(lines))
            handle.write("".join(batch))


def write_sidecar(path: str, config_text: str, reports: dict, elapsed: float):
    """The sidecar's ``config`` is ``config_text``, a config that
    :func:`load_config` parsed as one JSON value, spliced in without its
    outer JSON whitespace (space, tab, LF, CR); the rest is indented JSON."""
    rest = json.dumps({"reports": reports, "versions": {
                           "comdyn": __version__, "numpy": np.__version__,
                           "scipy": scipy.__version__},
                       "wall_time_seconds": round(elapsed, 6)}, indent=2, default=str)
    # rest[2:] drops the dump's opening "{\n"
    text = '{\n  "config": ' + config_text.strip(" \t\n\r") + ",\n" + rest[2:] + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# run: per-kind experiments
# ---------------------------------------------------------------------------

def _times(config) -> list:
    """The end times of the config's rows."""
    window = config["time"]
    # as doubles: numpy holds an int past int64 as an object
    return np.linspace(float(window["t0"]), float(window["t"]), window["samples"]).tolist()


def _oracle_settings(config, args) -> tuple:
    """``(tol, steps)``: the options over the config's ``oracle`` block."""
    settings = config.get("oracle", {})
    return (args.tol if args.tol is not None else settings.get("tol", 1e-7),
            args.steps if args.steps is not None else settings.get("steps", 2048))


def _oracle_column(header: list, rows: list, residuals, tol: float) -> tuple:
    """Appends each row's residual; the header with their column, and the
    report. A residual over ``tol`` refuses the run at the worst row."""
    for values, residual in zip(rows, residuals):
        values.append(residual)
    worst = max(rows, key=lambda values: values[-1])
    if not worst[-1] <= tol:
        raise PreconditionFailedError(
            f"oracle residual {worst[-1]:.6e} at t={worst[0]} exceeds tol {tol}")
    return header + ["oracle_residual"], {"max_residual": worst[-1], "tol": tol, "passed": True}


def _run_spectral(config, args, kind):
    """A classical, Weyl or qubit run. ``kind(config, mode, t0, times,
    oracle)`` gives the header, the rows (time first) and their closed forms,
    the generator's block builder and size, ``residual(closed form, product)``
    and ``finish(oracle report or None)``, run last, which gives the kind's
    extra reports and the spectrum of its final channel or None. ``--oracle``
    compares each closed form with the time-ordered product over its row's
    window."""
    mode = config.get("mode", "markov")
    t0, times = config["time"]["t0"], _times(config)
    header, rows, closed, block, size, residual, finish = kind(
        config, mode, t0, times, args.oracle)
    oracle_reports = {}
    if args.oracle:
        tol, steps = _oracle_settings(config, args)
        windows = (classical.integration_window(t0, t, mode) for t in times)
        products = (oracle.ordered_exp(block, lo, hi, steps) if hi > lo
                    else np.eye(size) for lo, hi in windows)
        # row by row: the closed form, then its product, then the residual
        header, oracle_reports["oracle"] = _oracle_column(
            header, rows, map(residual, closed, products), tol)
        oracle_reports["oracle"]["steps"] = steps
    extra, spectrum = finish(oracle_reports.get("oracle"))
    return header, rows, {"mode": mode, **extra, **oracle_reports}, spectrum


def _classical(config, mode, t0, times, with_oracle) -> tuple:
    """The classical kind of :func:`_run_spectral`: lattice populations."""
    gen = _classical_generator(config)
    size = gen.d ** gen.naxes
    unit = classical.LatticeField.unit(gen.d, gen.naxes).values
    fields = classical.propagate(gen, t0, times, mode)
    rows = [[t] + field.values.real.tolist() for t, field in zip(times, fields)]
    return (["t"] + [f"P{i}" for i in range(size)], rows, fields,
            lambda u: classical.circulant_matrix(gen, u), size,
            lambda field, prop: float(np.max(np.abs(field.values - prop @ unit))),
            lambda oracle_report: ({}, None))


def _weyl(config, mode, t0, times, with_oracle) -> tuple:
    """The Weyl kind of :func:`_run_spectral`: relaxation factors, final channel."""
    field = _weyl_field(config, config["rates"])
    npar = field.nparties
    tags = ["".join(map(str, digits[:npar])) + "_" + "".join(map(str, digits[npar:]))
            for digits in classical.lattice_digits(field.d, 2 * npar)[0].T.tolist()]
    relaxes = classical.relaxation(field.as_circulant(), t0, times, mode)
    # a complex array viewed as floats is its (re, im) pairs
    rows = [[t] + relax.values.view(float).tolist() for t, relax in zip(times, relaxes)]
    # the oracle time-orders the dense generator, assembled on the family's
    # unitaries and not on the support the closed form is scattered onto
    family = field.family() if with_oracle else None

    def finish(oracle_report):
        spectrum = weyl.WeylSpectrum(relaxes[-1])
        final = spectrum.channel_report()
        if oracle_report is not None:
            # the dense report of the written channel must say the same
            dense, atol = validate_channel(spectrum.assemble()), spectrum.rounding_bound()
            if not final.agrees_with(dense, atol):
                raise PreconditionFailedError(
                    f"oracle: the final channel's spectral report {final.as_dict()} "
                    f"disagrees with its dense report {dense.as_dict()} (atol {atol:.6e})")
            oracle_report["final_channel_agrees"] = True
        return {"final_channel": final.as_dict()}, spectrum

    # a row's channel is assembled when the oracle reaches the row
    return (["t"] + [f"{p}_relax_{tag}" for tag in tags for p in ("re", "im")], rows,
            (weyl.WeylSpectrum(relax).assemble() for relax in relaxes),
            lambda u: weyl.map_from_coeffs(field, u, family), field.d ** (2 * npar),
            lambda channel, prop: float(np.max(np.abs(channel.matrix - prop))), finish)


def _qubit(config, mode, t0, times, with_oracle) -> tuple:
    """The qubit kind of :func:`_run_spectral`: the evolved initial state."""
    spec = _qubit_spec(config)
    rho0 = np.array([[complex(*e) for e in row] for row in config["initial_state"]])
    defect = qubit.state_defect(rho0)
    if defect is not None:
        raise ConfigError(f"config invalid at initial_state: {defect}")
    maps = qubit.propagate(spec, t0, times, mode)
    rows = []
    for t, amap in zip(times, maps):
        rho = amap.apply(rho0)
        rows.append([t, float(rho[0, 0].real), float(rho[1, 1].real),
                     float(rho[0, 1].real), float(rho[0, 1].imag),
                     float(np.real(np.trace(rho @ rho)))])
    return (["t", "rho00", "rho11", "re_rho01", "im_rho01", "purity"], rows, maps,
            lambda u: qubit.build_generator(spec, u), 4,
            lambda amap, prop: float(np.max(np.abs(amap.matrix - prop))),
            lambda oracle_report: ({"classification": qubit.classify(
                spec, t0, config["time"]["t"]).as_dict()}, None))


def _run_mixture(config, args):
    cset = generators.CommutingGeneratorSet.from_generators(
        _mixture_generators(config))
    spec = generators.MixtureSpec(config["weights"], cset)
    t0, times = config["time"]["t0"], _times(config)
    spec.validate_weights(t0, config["time"]["t"])
    n_modes = cset.basis.eigenvalues.size
    mixtures = [spec.eigenvalue_mixture(t - t0) for t in times]
    rows = [[t] + c.view(float).tolist() for t, c in zip(times, mixtures)]
    header = ["t"] + [v for a in range(n_modes) for v in (f"re_c{a}", f"im_c{a}")]
    reports = {"n_generators": len(cset)}
    if args.oracle:
        def residual(t, c):
            # a sum of exponentials, not a product; the weights were checked
            # above on [0, t - t0], which holds every row's window
            direct = sum(w * oracle.expm((t - t0) * g.matrix)
                         for w, g in zip(spec.weight_values(t - t0), cset.generators))
            return float(np.max(np.abs(cset.basis.assemble(c).matrix - direct)))

        tol, _ = _oracle_settings(config, args)
        header, reports["oracle"] = _oracle_column(
            header, rows, map(residual, times, mixtures), tol)
    return header, rows, reports, None


def _run_resolvent(config, args):
    gen, channels = _resolvent_channels(config, DEFAULT_TOL)
    header = ["s", "k", "cp", "tp", "unital", "choi_min_eigenvalue",
              "tp_residual", "unital_residual"]
    rows = [[float(s), float(k), float(rep.cp), float(rep.tp), float(rep.unital),
             rep.choi_min_eigenvalue, rep.tp_residual, rep.unital_residual]
            for s, k, rep in channels]
    return header, rows, {"generator_norm": gen.norm()}, None


def _run_kernel(config, args):
    table, identity_residual = _kernel_table(config)
    header = ["s", "re_f_hat", "im_f_hat", "re_k_hat", "im_k_hat", "quad_error"]
    rows = [[float(s), fh.real, fh.imag, kh.real, kh.imag, float(err)]
            for s, fh, kh, err in zip(table.s_values, table.f_hat, table.k_hat,
                                      table.errors)]
    return header, rows, {"laplace_identity_residual": identity_residual}, None


_RUNNERS = {
    "classical": partial(_run_spectral, kind=_classical),
    "weyl": partial(_run_spectral, kind=_weyl),
    "mixture": _run_mixture,
    "resolvent": _run_resolvent,
    "qubit": partial(_run_spectral, kind=_qubit),
    "kernel": _run_kernel,
}


def run_experiment(config: dict, config_text: str, args) -> int:
    started = time.perf_counter()
    out_path = args.out or config.get("output")
    if out_path is None:
        raise ConfigError("no output path (use --out or the 'output' field)")
    header, rows, reports, spectrum = _RUNNERS[config["kind"]](config, args)
    try:
        write_table(out_path, args.format, header, rows)
        if spectrum is not None:
            reports["channel_matrix_path"] = path = out_path + ".channel.csv"
            write_channel(path, spectrum)
        write_sidecar(out_path + ".meta.json", config_text, reports,
                      time.perf_counter() - started)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
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
    field = _weyl_field(config, config["rates"])
    gen = field.as_circulant()
    t0, t = config["time"]["t0"], config["time"]["t"]
    mode = config.get("mode", "markov")
    relations = weyl.relations_check(field.family())
    convention = weyl.spectrum_convention_residual(field.d, field.nparties)
    report = classical.kolmogorov_check(gen, t0, t, mode, tol)
    checks = [{"name": "weyl_relations", "passed": relations.passed(),
               **relations.as_dict()},
              {"name": "spectrum_convention", "passed": convention < 1e-10,
               "residual": convention},
              {"name": f"kolmogorov_{mode}", **report.as_dict()}]
    if report.passed:
        # the report above is the check relaxation would repeat
        spectrum = weyl.WeylSpectrum(classical.relaxation(gen, t0, t, mode, check=False))
        rep = validate_channel(spectrum.assemble(), tol)
        spectral, atol = spectrum.channel_report(tol), spectrum.rounding_bound()
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
    spec = generators.MixtureSpec(config["weights"], cset)
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
    return [{"name": "laplace_identity", "passed": bool(worst < 1e-12),
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
    values = np.arange(1.0, 10.0)
    values /= values.sum()
    field = weyl.WeylCoefficientField.constant(3, 1, values)
    rep = validate_channel(weyl.map_from_coeffs(field))
    checks.append({"name": "probability_field_cptp",
                   "passed": rep.cp and rep.tp and rep.unital, **rep.as_dict()})
    other = weyl.WeylCoefficientField.constant(
        3, 1, np.arange(2.0, 11.0) / np.arange(2.0, 11.0).sum())
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


def validate_command(config: Optional[dict], tol: float, out_path: Optional[str]) -> int:
    checks = self_test(tol) if config is None else _VALIDATORS[config["kind"]](config, tol)
    passed = all(c.get("passed", False) for c in checks)
    text = json.dumps({"passed": passed, "checks": checks}, indent=2, default=str) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
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
            return run_experiment(*load_config(args.config), args)
        config = load_config(args.config)[0] if args.config else None
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
