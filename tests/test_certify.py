"""The pointwise Kolmogorov check certifies its window before it samples.

``CoefficientBank.window_bounds`` reads each rate's extremes off its
endpoints and critical points, so a rate that dips below zero only between
the points of the condition grid is still refused; a bank it cannot bound
falls back to the grid screen unchanged. These tests hold the certificate
to the grid it replaces: a certified pass never hides a violation the grid
sees, and the certified minimum is never above a sampled one.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from comdyn import classical, cli
from comdyn.classical import (CirculantGenerator, _first_violation, condition_grid,
                              kolmogorov_check, kolmogorov_check_markov,
                              kolmogorov_check_nonmarkov)
from comdyn.cli import main
from comdyn.errors import PreconditionFailedError
from comdyn.timefn import (Constant, DampedTrig, Polynomial,
                           SumFunction, Tabulated)

TOL = 1e-10

# (t - 0.5025)^2 - 1e-6 is negative only on (0.5015, 0.5035), between the
# grid points 0.5 and 0.505 of the 201-point grid on [0, 1]
DIP = [0.5025 ** 2 - 1e-6, -1.005, 1.0]
PROBE = {"kind": "classical", "dims": {"d": 2, "N": 1},
         "rates": [{"kind": "polynomial", "coeffs": [-c for c in DIP]},
                   {"kind": "polynomial", "coeffs": DIP}],
         "time": {"t0": 0.0, "t": 1.0, "samples": 2}, "mode": "markov"}


def _pair(rate, origin) -> CirculantGenerator:
    return CirculantGenerator(2, 1, (origin, rate))


def _grid_violation(gen, grid):
    grid = np.asarray(grid, dtype=float)
    return _first_violation(gen.bank.values(grid), grid, TOL, "pointwise")


def test_the_polynomial_dip_between_grid_points_is_refused():
    gen = _pair(Polynomial(DIP), Polynomial([-c for c in DIP]))
    grid = condition_grid(0.0, 1.0)
    assert _grid_violation(gen, grid) is None
    report = kolmogorov_check_markov(gen, grid)
    assert not report.passed and report.certified
    v = report.first_violation
    assert abs(v.time - 0.5025) < 1e-3
    assert v.index == 1 and v.condition == "pointwise nonnegativity off the origin"
    assert v.value < -TOL
    with pytest.raises(PreconditionFailedError,
                       match=r"failed at t=0\.502.*nonnegativity off the origin \(index 1"):
        classical.propagate(gen, 0.0, 1.0)


@pytest.mark.parametrize("decay", [0.0, -0.1, 0.05])
def test_a_damped_trig_dip_between_grid_points_is_refused(decay):
    # cos(t + pi - 0.5025) is -1 at t = 0.5025; with a decay the minimum
    # moves to where t + pi - 0.5025 = atan2(decay, 1) + pi
    shape = dict(decay=decay, frequency=1.0, phase=np.pi - 0.5025)
    t_min = 0.5025 + np.arctan2(decay, 1.0)
    offset = np.exp(decay * t_min) * np.cos(t_min + shape["phase"])
    rate = DampedTrig(amplitude=1.0, offset=-offset - 1e-7, **shape)
    gen = _pair(rate, DampedTrig(amplitude=-1.0, offset=offset + 1e-7, **shape))
    grid = condition_grid(0.0, 1.0)
    assert _grid_violation(gen, grid) is None
    report = kolmogorov_check_markov(gen, grid)
    assert not report.passed and report.certified
    v = report.first_violation
    assert abs(v.time - t_min) < 1e-9 and v.index == 1
    assert -1.01e-7 < v.value < -0.99e-7
    with pytest.raises(PreconditionFailedError):
        classical.relaxation(gen, 0.0, [0.5, 1.0])


def test_run_refuses_the_dip_probe_with_its_witness(tmp_path, capsys):
    config = tmp_path / "dip.json"
    config.write_text(json.dumps(PROBE))
    out = tmp_path / "out.csv"
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: Kolmogorov markov check failed at t=0.5025: "
                          "pointwise nonnegativity off the origin (index 1, value -1.")
    assert "Traceback" not in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dip.json"]


def test_a_grid_witness_keeps_its_text_and_is_not_certified():
    # 0.5 - t fails from t = 0.5 on, which the grid sees first
    gen = _pair(Polynomial([0.5, -1.0]), Polynomial([-0.5, 1.0]))
    grid = condition_grid(0.0, 1.0)
    report = kolmogorov_check_markov(gen, grid)
    assert report.first_violation == _grid_violation(gen, grid)
    assert not report.passed and not report.certified
    assert report.as_dict()["certified"] is False


def test_certified_passes_and_what_the_report_writes():
    gen = _pair(DampedTrig(amplitude=0.3, decay=-0.2, frequency=2.0, phase=0.4, offset=0.5),
                DampedTrig(amplitude=-0.3, decay=-0.2, frequency=2.0, phase=0.4, offset=-0.5))
    report = kolmogorov_check(gen, 0.0, [0.5, 1.0, 3.0], "markov")
    assert report.passed and report.certified
    assert report.as_dict() == {"mode": "markov", "passed": True, "certified": True,
                                "tol": TOL}
    # the integrated check stays sampled
    assert kolmogorov_check(gen, 0.0, 3.0, "nonmarkov").as_dict()["certified"] is False
    assert kolmogorov_check_nonmarkov(gen, condition_grid(0.0, 1.0)).certified is False


@pytest.mark.parametrize("rate", [
    Tabulated([0.0, 0.5, 1.0], [0.3, 0.2, 0.3]),
    SumFunction((Constant(0.1), Polynomial([0.0, 0.2]))),
    0.5 * Polynomial([0.3, 0.1]),
    Constant(0.3 + 1e-3j),
    Polynomial([0.3, 1e-3j]),
    DampedTrig(amplitude=0.1j, offset=0.3),
])
def test_banks_it_cannot_bound_fall_back_to_the_grid(rate):
    gen = _pair(rate, Constant(-0.3))
    assert gen.bank.window_bounds(0.0, 1.0) is None
    grid = condition_grid(0.0, 1.0)
    report = kolmogorov_check_markov(gen, grid)
    assert not report.certified
    assert report.first_violation == _grid_violation(gen, grid)


def test_a_sum_bound_the_points_do_not_bear_out_leaves_the_grid_result():
    # 1e-9 cos(t) and -1e-9 cos(-t) fall in two (decay, frequency) groups,
    # so the sum is bounded by 2e-9 > tol, yet the rates sum to zero
    shape = dict(frequency=1.0, offset=-0.3)
    gen = _pair(DampedTrig(amplitude=-1e-9, frequency=-1.0, offset=0.3),
                DampedTrig(amplitude=1e-9, **shape))
    bounds = gen.bank.window_bounds(0.0, 1.0)
    assert bounds.total > TOL + bounds.margin
    report = kolmogorov_check_markov(gen, condition_grid(0.0, 1.0))
    assert report.passed and not report.certified


def test_the_zero_sum_bound_places_a_crest_between_grid_points():
    # the rates sum to 1e-6 sin(200 pi t), zero at every grid point k / 200
    wave = DampedTrig(amplitude=1e-6, frequency=200 * np.pi, phase=-np.pi / 2, offset=-0.3)
    gen = _pair(Constant(0.3), wave)
    grid = condition_grid(0.0, 1.0)
    assert _grid_violation(gen, grid) is None
    report = kolmogorov_check_markov(gen, grid)
    assert report.certified and not report.passed
    v = report.first_violation
    assert v.condition == "pointwise zero-sum conservation" and abs(v.value) > 0.99e-6
    assert abs((200 * v.time - 0.5) % 1.0) < 1e-6


def test_a_mixture_generator_is_certified_at_its_one_time():
    gen = CirculantGenerator.constant(2, 2, [-0.6, 0.1, 0.2, 0.3])
    report = kolmogorov_check_markov(gen, [0.0])
    assert report.passed and report.certified


def test_validate_reports_carry_certified(tmp_path):
    from test_cli import CLASSICAL_CONFIG, MIXTURE_CONFIG, WEYL_CONFIG
    expected = {"classical": {"kolmogorov_markov": True, "kolmogorov_nonmarkov": False},
                "weyl": {"kolmogorov_markov": True},
                "mixture": {"generator_0_markov": True, "generator_1_markov": True}}
    for config in (CLASSICAL_CONFIG, WEYL_CONFIG, MIXTURE_CONFIG):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "report.json"
        main(["validate", str(path), "--out", str(out)])
        checks = json.loads(out.read_text())["checks"]
        flags = {c["name"]: c["certified"] for c in checks if "certified" in c}
        assert flags == expected[config["kind"]], config["kind"]
    [canonical] = [c for c in cli.self_test() if c["name"] == "kolmogorov_canonical"]
    assert canonical["certified"] is True and canonical["passed"] is True


# ---------------------------------------------------------------------------
# the certificate against the grid, on random banks
# ---------------------------------------------------------------------------

_VALUE = st.floats(-2.0, 2.0)
_DECAY = st.sampled_from([0.0, -0.3, 0.2]) | st.floats(-1.0, 1.0)
_FREQUENCY = st.sampled_from([0.0, 1.5]) | st.floats(-6.0, 6.0)


@st.composite
def _function(draw, decay, frequency):
    kind = draw(st.sampled_from(["constant", "polynomial", "damped-trig"]))
    if kind == "constant":
        return Constant(draw(_VALUE))
    if kind == "polynomial":
        return Polynomial(draw(st.lists(_VALUE, min_size=1, max_size=5)))
    # shared (decay, frequency) pairs group in the zero-sum bound; a = w = 0
    # is the flat branch
    return DampedTrig(amplitude=draw(_VALUE),
                      decay=draw(st.just(decay) | _DECAY),
                      frequency=draw(st.just(frequency) | _FREQUENCY),
                      phase=draw(st.floats(-4.0, 4.0)), offset=draw(_VALUE))


@st.composite
def _admissible(draw, decay, frequency):
    """Rates nonnegative off the origin on t >= 0, the origin minus their
    sum, in one kind; ``dip`` lowers one rate and the origin keeps the sum,
    which a square or an undamped trig rate does only near its minima."""
    kind = draw(st.sampled_from(["constant", "polynomial", "square", "damped-trig"]))
    n = draw(st.integers(1, 5))
    dip = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-9, 1e-6, 0.1]))
    if kind == "damped-trig":
        decay = -abs(decay)
        amps = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        phases = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
        offsets = [a * draw(st.just(1.0) | st.floats(1.0, 1.5)) for a in amps]
        offsets[0] -= dip
        phasor = sum(a * np.exp(1j * p) for a, p in zip(amps, phases))
        rates = [DampedTrig(a, decay, frequency, p, o)
                 for a, p, o in zip(amps, phases, offsets)]
        return [DampedTrig(abs(phasor), decay, frequency, float(np.angle(-phasor)),
                           -sum(offsets))] + rates
    width = 1 if kind == "constant" else draw(st.integers(1, 5))
    coeffs = [draw(st.lists(st.floats(0.0, 1.0), min_size=width, max_size=width))
              for _ in range(n)]
    if kind == "square":
        # c (t - s)^2, zero at s
        coeffs = [[c * s * s, -2.0 * c * s, c] for c, s in
                  draw(st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 3.0)),
                                min_size=n, max_size=n))]
    coeffs[0][0] -= dip
    total = np.sum(coeffs, axis=0)
    make = (lambda c: Constant(c[0])) if kind == "constant" else Polynomial
    return [make(list(-total))] + [make(c) for c in coeffs]


@st.composite
def _cases(draw):
    decay, frequency = draw(_DECAY), draw(_FREQUENCY)
    if draw(st.booleans()):
        functions = draw(_admissible(decay, frequency))
    else:
        functions = draw(st.lists(_function(decay, frequency), min_size=2, max_size=6))
    lo = draw(st.floats(0.0, 2.0))
    hi = lo + draw(st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 4.0))
    grid = np.linspace(lo, hi, draw(st.integers(1, 60)))
    return CirculantGenerator(len(functions), 1, tuple(functions)), lo, hi, grid


@settings(max_examples=300, deadline=None)
@given(_cases())
# a tiny leading term once hid the maximum at t = 0.5 from the companion
@example((CirculantGenerator(2, 1, (Constant(0.0),
                                    Polynomial([0.0, 1.0, -1.0, 3.2958225333454296e-117]))),
          0.0, 1.0, np.array([0.0])))
# subnormal amplitudes and offsets: their sum rounds to 5e-324 where the
# bound on it is 0, so only an absolute term in the margin covers it
@example((CirculantGenerator(3, 1, (
    DampedTrig(5e-324, -0.0, 1.5, -2.356194490192345, -5e-324),
    DampedTrig(0.0, -0.0, 1.5, 0.0, 0.0),
    DampedTrig(5e-324, -0.0, 1.5, 1.0, 5e-324))), 0.0, 1.0, np.array([0.0])))
def test_the_certificate_never_contradicts_the_grid(case):
    gen, lo, hi, grid = case
    bank = gen.bank
    report = kolmogorov_check_markov(gen, grid)
    sampled = _grid_violation(gen, grid)
    if sampled is not None:
        # a violation the grid sees is the witness, word for word, so a
        # certified pass never meets a failing grid
        assert report.first_violation == sampled and not report.certified
    elif report.certified and not report.passed:
        # a refusal the grid missed is a real violation at a real time
        v = report.first_violation
        assert lo <= v.time <= hi
        assert _grid_violation(gen, [v.time]) == v
    bounds = bank.window_bounds(lo, hi)
    if bounds is None:
        assert not report.certified
        return
    values = bank.values(grid).real
    dense = bank.values(np.linspace(lo, hi, 2001)).real
    for sample in (values, dense):
        assert np.all(bounds.low <= sample.min(axis=0) + bounds.margin)
        assert np.all(bounds.high >= sample.max(axis=0) - bounds.margin)
        assert np.all(np.abs(sample.sum(axis=1)) <= bounds.total + bounds.margin)
    # each extreme is a value the function takes inside the window
    for value, at in ((bounds.low, bounds.low_at), (bounds.high, bounds.high_at)):
        assert np.all((lo <= at) & (at <= hi))
        taken = np.array([bank.values(t)[0, j].real for j, t in enumerate(at)])
        assert np.all(np.abs(taken - value) <= bounds.margin)


_NON_FINITE = [Constant(np.inf), Constant(np.nan), Polynomial([0.1, np.nan]),
               DampedTrig(offset=np.inf), DampedTrig(amplitude=0.1, decay=800.0)]


# the grid's exp overflows for decay 800, as it did before the bounds
@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
@settings(max_examples=100, deadline=None)
@given(st.lists(_function(0.0, 1.0), min_size=1, max_size=4),
       st.sampled_from(_NON_FINITE), st.integers(0, 4), st.integers(2, 60))
def test_a_non_finite_bank_falls_back_to_the_grid(functions, bad, where, points):
    functions.insert(min(where, len(functions)), bad)
    gen = CirculantGenerator(len(functions), 1, tuple(functions))
    grid = np.linspace(0.0, 1.0, points)
    assert gen.bank.window_bounds(0.0, 1.0) is None
    try:
        expected = _grid_violation(gen, grid)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            kolmogorov_check_markov(gen, grid)
    else:
        report = kolmogorov_check_markov(gen, grid)
        assert report.first_violation == expected and not report.certified
