"""A run screens the windows of all of its rows once, on their union grid.

The rows of a run end at later and later times, and every row's window
gets its own condition grid. ``classical.window_grid`` joins those grids,
and classical, Weyl and qubit runs screen them in one check. These tests
hold that one screen to the row-by-row screens it replaces: the same exit
code and the same stderr, the witness included. They also count the checks
and bank calls a run makes, and run every benchmark job through the
benchmark's own correctness gate.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from comdyn import classical, cli, generators, qubit, timefn, weyl
from comdyn.cli import main
from comdyn.errors import InvalidWeightsError, PreconditionFailedError

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _poly(*coeffs):
    return {"kind": "polynomial", "coeffs": list(coeffs)}


def _negated(rate):
    return _poly(*(-c for c in rate["coeffs"]))


# (t - 0.005)^2 - 1e-8 dips below zero only around t = 0.005. With rows at
# t = 0, 1, 2 only the middle row's grid (step 0.005) sees the dip; the last
# row's grid (step 0.01) steps over it.
DIP = _poly(2.5e-5 - 1e-8, -0.01, 1.0)
# int_0^tau (2u - 0.01) du = tau^2 - 0.01 tau is negative only on (0, 0.01)
INTEGRATED_DIP = _poly(-0.01, 2.0)
# 0.5 - t turns negative after t = 0.5; its integral only after t = 1
LATE = _poly(0.5, -1.0)

ROWS = {"t0": 0.0, "t": 2.0, "samples": 3}


def _classical(rate, mode, time=ROWS):
    return {"kind": "classical", "dims": {"d": 2, "N": 1},
            "rates": [_negated(rate), rate], "time": time, "mode": mode}


def _weyl(rate, mode, time=ROWS):
    return {"kind": "weyl", "dims": {"d": 2, "N": 1},
            "rates": [_negated(rate), rate, 0.0, 0.0], "time": time, "mode": mode}


def _qubit(gamma, mode, time=ROWS, c=((0.4, 0.1), (0.1, 0.3))):
    return {"kind": "qubit", "epsilon": 0.2, "gamma": gamma,
            "c": [list(row) for row in c], "mu": 0.3,
            "initial_state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "time": time, "mode": mode}


OFFSET = {"t0": 0.25, "t": 1.75, "samples": 7}
# windows [0, tau] with tau <= 0.9, where the integral of LATE stays positive
SHORT = {"t0": 0.25, "t": 1.15, "samples": 7}
NON_HERMITIAN = ((0.4, _poly(0.0, 0.1)), (0.0, 0.3))

CONFIGS = {
    "classical-markov-dip": _classical(DIP, "markov"),
    "classical-nonmarkov-dip": _classical(INTEGRATED_DIP, "nonmarkov"),
    "classical-markov-late": _classical(LATE, "markov", OFFSET),
    "classical-nonmarkov-late": _classical(LATE, "nonmarkov",
                                           {"t0": 0.5, "t": 2.5, "samples": 9}),
    "classical-markov-first-row": _classical(_poly(-0.5), "markov"),
    "classical-markov-passes": _classical(_poly(0.3, 0.2), "markov", OFFSET),
    "classical-nonmarkov-passes": _classical(LATE, "nonmarkov", SHORT),
    "weyl-markov-dip": _weyl(DIP, "markov"),
    "weyl-nonmarkov-dip": _weyl(INTEGRATED_DIP, "nonmarkov"),
    "weyl-markov-late": _weyl(LATE, "markov", OFFSET),
    "weyl-nonmarkov-late": _weyl(LATE, "nonmarkov", OFFSET),
    "weyl-markov-passes": _weyl(_poly(0.3, 0.2), "markov", OFFSET),
    "qubit-markov-dip": _qubit(DIP, "markov"),
    "qubit-nonmarkov-dip": _qubit(INTEGRATED_DIP, "nonmarkov"),
    "qubit-markov-late": _qubit(LATE, "markov", OFFSET),
    "qubit-nonmarkov-late": _qubit(LATE, "nonmarkov", OFFSET),
    "qubit-nonmarkov-passes": _qubit(LATE, "nonmarkov", SHORT),
    "qubit-markov-passes": _qubit(_poly(0.3, 0.2), "markov", OFFSET),
    "qubit-markov-non-hermitian": _qubit(1.0, "markov", OFFSET, NON_HERMITIAN),
    "qubit-nonmarkov-non-hermitian": _qubit(1.0, "nonmarkov", OFFSET, NON_HERMITIAN),
}


def _times(config):
    window = config["time"]
    return np.linspace(window["t0"], window["t"], window["samples"]).tolist()


def row_by_row(config) -> tuple:
    """(exit code, stderr) of a run that screens each row's window on its
    own condition grid, one row after another."""
    mode, t0 = config["mode"], config["time"]["t0"]
    try:
        for t in _times(config):
            if config["kind"] == "qubit":
                # a one-row propagation screens exactly that row's window
                qubit.propagate(cli._qubit_spec(config), t0, t, mode)
                continue
            gen = (cli._classical_generator(config) if config["kind"] == "classical"
                   else cli._weyl_field(config, config["rates"]).as_circulant())
            grid = classical.condition_grid(*classical.integration_window(t0, t, mode))
            check = (classical.kolmogorov_check_markov if mode == "markov"
                     else classical.kolmogorov_check_nonmarkov)
            v = check(gen, grid).first_violation
            if v is not None:
                return 2, (f"precondition failed: Kolmogorov {mode} check failed at "
                           f"t={v.time}: {v.condition} (index {v.index}, "
                           f"value {v.value:.6e})\n")
    except PreconditionFailedError as exc:
        return 2, f"precondition failed: {exc}\n"
    except ValueError as exc:
        return 1, f"error: {exc}\n"
    return 0, ""


def _run(tmp_path, capsys, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    rc = main(["run", str(path), "--out", str(tmp_path / "out.csv")])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_screen_matches_the_row_by_row_screens(tmp_path, capsys, name):
    config = CONFIGS[name]
    expected = row_by_row(config)
    assert _run(tmp_path, capsys, config) == expected
    assert expected[0] == (0 if name.endswith("passes") else
                           1 if "non-hermitian" in name else 2)


DIP_WITNESS = {
    "classical-markov-dip": "Kolmogorov markov check failed at t=0.005: pointwise "
                            "nonnegativity off the origin (index 1, value -1.",
    "classical-nonmarkov-dip": "Kolmogorov nonmarkov check failed at t=0.005: "
                               "integrated nonnegativity off the origin (index 1, "
                               "value -2.5",
    "qubit-markov-dip": "gamma(0.005) = -1.",
    "qubit-nonmarkov-dip": "int_0^0.005 gamma < 0 (nonmarkov mode)",
}
DIP_WITNESS["weyl-markov-dip"] = DIP_WITNESS["classical-markov-dip"]
DIP_WITNESS["weyl-nonmarkov-dip"] = DIP_WITNESS["classical-nonmarkov-dip"]


@pytest.mark.parametrize("name", sorted(DIP_WITNESS))
def test_a_middle_row_dip_is_refused_at_its_witness(tmp_path, capsys, name):
    rc, err = _run(tmp_path, capsys, CONFIGS[name])
    assert rc == 2
    assert err.startswith("precondition failed: " + DIP_WITNESS[name])
    # the rows at t = 0 and 2 alone step over the dip on their grids. The
    # pointwise Kolmogorov check certifies its window from the critical
    # points, so it refuses them at the same witness; the sampled checks
    # (qubit signs, integrated rates) still let the run through
    last = dict(CONFIGS[name], time=dict(ROWS, samples=2))
    rc, err = _run(tmp_path, capsys, last)
    if name.endswith("-markov-dip") and not name.startswith("qubit"):
        assert rc == 2 and err.startswith("precondition failed: " + DIP_WITNESS[name])
    else:
        assert (rc, err) == (0, "")


@pytest.mark.parametrize("t0, times, mode", [
    (0.0, [0.0, 1.0, 2.0], "markov"),
    (0.0, [0.0, 1.0, 2.0], "nonmarkov"),
    (0.25, np.linspace(0.25, 1.75, 7).tolist(), "markov"),
    (0.5, np.linspace(0.5, 4.0, 16).tolist(), "nonmarkov"),
    (0.0, np.linspace(0.0, 4.0, 32).tolist(), "markov"),
    (1.0, [1.0], "markov"),
    (0.0, 2.0, "nonmarkov"),
])
def test_window_grid_holds_every_row_grid_point_once(t0, times, mode):
    grid = classical.window_grid(t0, times, mode)
    rows = np.concatenate([
        classical.condition_grid(*classical.integration_window(t0, t, mode))
        for t in np.atleast_1d(times).tolist()])
    # each point of every row's grid, once, in the order it first occurs
    assert grid.tolist() == list(dict.fromkeys(rows.tolist()))
    assert np.unique(grid).size == grid.size


def test_an_input_error_in_a_later_row_comes_before_a_refusal(tmp_path, capsys):
    # the off-origin rate is negative from t = 0.5 on, but its samples end at
    # t = 1: the rows up to t = 1 would be refused one by one, yet reading
    # the union grid past the samples is an input error first
    config = dict(_classical(LATE, "markov", {"t0": 0.0, "t": 2.0, "samples": 5}),
                  rates=[{"kind": "tabulated", "times": [0.0, 1.0], "values": v}
                         for v in ([-0.5, 0.5], [0.5, -0.5])])
    assert row_by_row(config)[0] == 2
    assert _run(tmp_path, capsys, config) == (
        1, "error: t=1.005 outside tabulated domain [0.0, 1.0]\n")


def test_window_grid_refuses_a_row_that_ends_before_t0():
    with pytest.raises(ValueError, match=r"need t >= t0, got t0=2\.0, t=1\.5"):
        classical.window_grid(2.0, [2.0, 1.5, 1.0], "markov")


def _block(good, rows, size):
    """``size`` rows of ``good`` values but for ``rows`` (row -> values)."""
    block = np.tile(np.asarray(good, dtype=complex), (size, 1))
    for row, values in rows.items():
        block[row] = values
    return block


def _with_block(spec, good, rows):
    """``spec`` reading :func:`_block` from a stand-in for its bank."""
    object.__setattr__(spec, "bank", SimpleNamespace(
        values=lambda times: _block(good, rows, len(times))))
    return spec


def _kolmogorov_screen(good, rows):
    grid = classical.condition_grid(0.0, 1.0)
    return classical._first_violation(_block(good, rows, grid.size), grid, 1e-10,
                                      "pointwise")


def _qubit_sign_screen(good, rows):
    spec = _with_block(qubit.QubitGeneratorSpec.constant(), good, rows)
    return qubit._sign_check(spec, 0.0, 1.0, "markov", 1e-10)


def _mixture_weight_screen(good, rows):
    cset = generators.CommutingGeneratorSet.from_generators([weyl.map_from_coeffs(
        weyl.WeylCoefficientField.constant(2, 1, rates))
        for rates in ([-1.0, 0.5, 0.25, 0.25], [-0.6, 0.2, 0.2, 0.2])])
    return _with_block(generators.MixtureSpec((0.7, 0.3), cset), good, rows
                       ).validate_weights(0.0, 1.0)


#: kind -> (screen, a passing row, a violating row, a non-finite row, the
#: verdict at a violation at time t, the verdict at a non-finite row at t);
#: each screen reads the 201-point grid of [0, 1]
SCREENS = {
    "kolmogorov": (
        _kolmogorov_screen, [-1.0, 1.0], [1.0, -1.0], [np.nan, 1.0],
        lambda t: classical.KolmogorovViolation(
            t, 1, -1.0, "pointwise nonnegativity off the origin"),
        lambda t: (ValueError, "field has non-finite values")),
    "qubit-sign": (
        _qubit_sign_screen, [0.2, 1.0, 0.4, 0.1, 0.1, 0.3], [0.2, -1.0, 0.4, 0.1, 0.1, 0.3],
        [np.nan, 1.0, 0.4, 0.1, 0.1, 0.3], lambda t: (t, "gamma"),
        lambda t: (ValueError, f"coefficients have non-finite values at t={t}")),
    "mixture-weights": (
        _mixture_weight_screen, [0.7, 0.3], [0.7, 0.7], [np.nan, 0.3],
        lambda t: (InvalidWeightsError, f"weights sum to 1.4 at tau={t}"),
        lambda t: (ValueError, f"weights have non-finite values at tau={t}")),
}


@pytest.mark.parametrize("violation, non_finite", [(40, 120), (120, 40), (None, None)],
                         ids=["violation-first", "non-finite-first", "neither"])
@pytest.mark.parametrize("kind", sorted(SCREENS))
def test_every_screen_stops_at_its_earliest_failing_row(kind, violation, non_finite):
    """A violation before the first non-finite row is the witness, a
    non-finite row before any violation gets the kind's own refusal, and a
    block with neither passes."""
    screen, good, bad, broken, witness, refusal = SCREENS[kind]
    grid = classical.condition_grid(0.0, 1.0)
    rows = {} if violation is None else {violation: bad, non_finite: broken}
    try:
        verdict = screen(good, rows)
    except ValueError as exc:
        verdict = type(exc), str(exc)
    if violation is None:
        assert verdict is None
    elif violation < non_finite:
        assert verdict == witness(grid[violation])
    else:
        assert verdict == refusal(grid[non_finite])


@pytest.mark.parametrize("mode", ["markov", "nonmarkov"])
def test_the_batched_core_gives_each_row_its_one_row_result(rng, mode):
    rates = 0.5 + np.abs(rng.normal(size=8))
    gen = classical.CirculantGenerator(
        3, 2, (timefn.Polynomial([-rates.sum(), 0.1]),)
        + tuple(timefn.Polynomial([r, -0.1 / 8]) for r in rates))
    spec = cli._qubit_spec(_qubit(_poly(0.3, 0.2), mode))
    times = np.linspace(0.3, 1.9, 6)
    for core, array in ((classical.propagate, "values"),
                        (classical.relaxation, "values"), (qubit.propagate, "matrix")):
        subject = spec if core is qubit.propagate else gen
        rows = core(subject, 0.3, times, mode)
        assert len(rows) == times.size
        for row, t in zip(rows, times):
            assert np.array_equal(getattr(row, array),
                                  getattr(core(subject, 0.3, t, mode), array))


# ---------------------------------------------------------------------------
# counted work
# ---------------------------------------------------------------------------

def _counting(monkeypatch, owner, name, log):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append((name, args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("kind", ["classical", "weyl"])
@pytest.mark.parametrize("mode", ["markov", "nonmarkov"])
def test_a_run_makes_one_check_and_one_bank_integration(tmp_path, capsys, monkeypatch,
                                                        kind, mode):
    samples = 9
    time = {"t0": 0.25, "t": 1.75, "samples": samples}
    config = (_classical if kind == "classical" else _weyl)(_poly(0.3, 0.2), mode, time)
    checks, integrals = [], []
    for name in ("kolmogorov_check_markov", "kolmogorov_check_nonmarkov"):
        _counting(monkeypatch, classical, name, checks)
    _counting(monkeypatch, timefn.CoefficientBank, "integrals", integrals)
    assert _run(tmp_path, capsys, config) == (0, "")
    assert [name for name, _ in checks] == [f"kolmogorov_check_{mode}"]
    # the rows' windows are integrated in one call; in the homogeneous mode
    # the check integrates its grid first
    sizes = [np.size(args[2]) for _, args in integrals]
    assert sizes[-1] == samples
    assert len(sizes) == (1 if mode == "markov" else 2)


@pytest.mark.parametrize("mode", ["markov", "nonmarkov"])
def test_a_qubit_run_makes_one_sign_check_for_its_rows(tmp_path, capsys, monkeypatch,
                                                       mode):
    calls = []
    _counting(monkeypatch, qubit, "_sign_check", calls)
    config = _qubit(_poly(0.3, 0.2), mode, {"t0": 0.0, "t": 2.0, "samples": 16})
    assert _run(tmp_path, capsys, config) == (0, "")
    # one for the rows, then the two of the classification
    assert [np.size(args[2]) for _, args in calls] == [16, 1, 1]
    assert [args[3] for _, args in calls] == [mode, "markov", "nonmarkov"]


# ---------------------------------------------------------------------------
# the benchmark's correctness gate
# ---------------------------------------------------------------------------

def _perfbench(name, monkeypatch):
    """perfbench/<name>.py loaded by path; registered under its name for
    the test's duration, because check.py imports workloads by name."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["small-state", "large-state"])
def test_every_benchmark_job_passes_the_benchmark_gate(tmp_path, capsys, monkeypatch,
                                                       workload):
    workloads = _perfbench("workloads", monkeypatch)
    check = _perfbench("check", monkeypatch)
    assert workload in workloads.WORKLOADS
    jobs = workloads.make_jobs(workload, 1, str(tmp_path))
    assert jobs
    for job in jobs:
        rc = main(job["argv"])
        assert check.problem(job, rc, capsys.readouterr().err) is None, job["id"]
