"""Config ingest: the checker's whole-array accept and banks read from specs.

``validate_config`` passes a list of time functions with one C-speed test
(``config.specs_fit``) and walks the list only when that test fails, so a
refusal must keep the walker's message and path however deep in a long
list the bad entry sits. ``CoefficientBank`` reads a constant, polynomial
or damped-trig spec straight into its parameter arrays, which must equal,
bit for bit, the arrays of the TimeFunction ``from_spec`` builds.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from comdyn import timefn
from comdyn.config import (KIND_SCHEMAS, TIMEFN_SCHEMA, ConfigError, _compile, _fast_accept,
                           validate_config)
from comdyn.timefn import CoefficientBank, Polynomial, from_spec

# jsonschema with the checker's int-only integer and finite-only number
from test_config_schema import IntOnly


def _rates(size, rng):
    """``size`` valid rates of every kind, damped-trig ones mostly."""
    rates = []
    for k in range(size):
        pick = k % 8
        if pick == 0:
            rates.append(float(rng.uniform(-1.0, 1.0)))
        elif pick == 1:
            rates.append({"kind": "constant", "value": int(rng.integers(-3, 3))})
        elif pick == 2:
            rates.append({"kind": "polynomial",
                          "coeffs": rng.uniform(-1.0, 1.0, rng.integers(1, 4)).tolist()})
        elif pick == 3:
            rates.append({"kind": "tabulated", "times": [0.0, 1.0], "values": [1, 2.5]})
        else:
            rates.append({"kind": "damped-trig", "amplitude": float(rng.uniform(0.1, 1.0)),
                          "decay": -0.5, "frequency": float(rng.uniform(0.0, 2.0)),
                          "phase": 0.25, "offset": 2})
    return rates


_TRIG = {"kind": "damped-trig", "amplitude": 0.5, "decay": -0.5}

# each bad entry, and the message the walker gives for it at rates.<i>
# (None: the entry's repr "is not valid under any of the given schemas")
CORRUPTIONS = {
    "bool": (dict(_TRIG, decay=True), ".decay: True is not of type 'number'"),
    "nan": (dict(_TRIG, amplitude=math.nan), ".amplitude: nan is not a finite number"),
    "string": (dict(_TRIG, decay="fast"), ".decay: 'fast' is not of type 'number'"),
    "extra-key": (dict(_TRIG, extra=1.0),
                  ": Additional properties are not allowed ('extra' was unexpected)"),
    "unknown-kind": (dict(_TRIG, kind="exponential"), None),
    "missing-kind": ({"amplitude": 0.5, "decay": -0.5}, None),
    "empty-coeffs": ({"kind": "polynomial", "coeffs": []}, ".coeffs: [] should be non-empty"),
    "bare-bool": (True, ": True is not valid under any of the given schemas"),
    "bare-inf": (-math.inf, ": -inf is not a finite number"),
    "huge-int": (dict(_TRIG, amplitude=10 ** 400),
                 f".amplitude: {10 ** 400} is out of a double's range"),
}


@pytest.mark.parametrize("size", [64, 4096])
@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_one_bad_entry_in_a_long_list_keeps_the_walkers_message(name, size):
    rng = np.random.default_rng([size, len(name)])
    config = {"kind": "classical", "dims": {"d": 2, "N": size.bit_length() - 1},
              "rates": _rates(size, rng), "time": {"t0": 0.0, "t": 1.0, "samples": 2}}
    assert validate_config(config) is config
    assert IntOnly(KIND_SCHEMAS["classical"]).is_valid(config)
    index = int(rng.integers(size))
    entry, tail = CORRUPTIONS[name]
    bad = copy.deepcopy(config)
    bad["rates"][index] = entry
    with pytest.raises(ConfigError) as caught:
        validate_config(bad)
    if tail is None:
        tail = f": {entry!r} is not valid under any of the given schemas"
    assert str(caught.value) == f"config invalid at rates.{index}{tail}"
    assert not IntOnly(KIND_SCHEMAS["classical"]).is_valid(bad)


def test_the_whole_array_test_is_derived_only_where_it_holds():
    # a oneOf with a second untagged branch does not compile at all
    both = {"oneOf": [{"type": "number"}, {"type": "integer"},
                      {"type": "object", "required": ["kind"],
                       "properties": {"kind": {"const": "a"}}}]}
    with pytest.raises(ValueError, match="at most one branch of another type"):
        _compile(both)
    # a plain number array gets no whole-array test: the walker takes it
    assert _fast_accept({"type": "number"}) is None
    # an object property the shapes cannot state
    assert _fast_accept({"oneOf": [{"type": "number"}, {
        "type": "object", "required": ["kind"],
        "properties": {"kind": {"const": "a"}, "name": {"type": "string"}}}]}) is None
    accept = _fast_accept(TIMEFN_SCHEMA)
    assert accept([0.5, 2, {"kind": "polynomial", "coeffs": [1, 0.5]}])
    for bad in ([{"kind": "polynomial"}], [{"kind": "polynomial", "coeffs": 1.0}],
                [{"kind": "constant", "value": [1.0]}], [{"kind": ["constant"], "value": 1}],
                [[1.0]], [None], [10 ** 400, 0.5], [1e308, 1e308]):
        assert not accept(bad), bad
    # the last is valid, and the walker takes it after the test fails; an int
    # past a double's range is refused by both, as a bare rate too
    config = {"kind": "resolvent", "dims": {"d": 2, "N": 1}, "rates": [1e308, 1e308],
              "s_values": [1e308, 1e308], "k_values": [0]}
    assert validate_config(config)
    config["rates"] = [10 ** 400, 0.5]
    with pytest.raises(ConfigError) as caught:
        validate_config(config)
    assert str(caught.value) == (
        f"config invalid at rates.0: {10 ** 400} is out of a double's range")


# -- banks from specs ------------------------------------------------------------

_numbers = st.one_of(st.integers(-4, 4), st.floats(-3.0, 3.0, allow_nan=False))
_TRIG_KEYS = ("amplitude", "decay", "frequency", "phase", "offset")
_specs = st.one_of(
    _numbers,
    st.builds(lambda v: {"kind": "constant", "value": v}, _numbers),
    st.builds(lambda c: {"kind": "polynomial", "coeffs": c},
              st.lists(_numbers, min_size=1, max_size=5)),
    st.fixed_dictionaries({"kind": st.just("damped-trig")},
                          optional={key: _numbers for key in _TRIG_KEYS}),
    st.builds(lambda v: {"kind": "tabulated", "times": [-1.0, 0.5, 2.0], "values": v},
              st.lists(_numbers, min_size=3, max_size=3)),
)


def _bits(block):
    return np.ascontiguousarray(block).view(np.int64)


def _same(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(_bits(a), _bits(b))


@settings(max_examples=150, deadline=None)
@given(specs=st.lists(_specs, min_size=1, max_size=12),
       times=st.lists(st.floats(-1.0, 2.0), min_size=1, max_size=6))
def test_a_bank_of_specs_equals_the_bank_of_their_functions(specs, times):
    from_specs = CoefficientBank(specs)
    from_functions = CoefficientBank([from_spec(s) for s in specs])
    with np.errstate(all="ignore"):
        _same(from_specs.values(times), from_functions.values(times))
        _same(from_specs.integrals(-0.5, times), from_functions.integrals(-0.5, times))
    bounds = [bank.window_bounds(-1.0, 2.0) for bank in (from_specs, from_functions)]
    assert (bounds[0] is None) == (bounds[1] is None)
    if bounds[0] is not None:
        for a, b in zip(*bounds):
            _same(np.asarray(a), np.asarray(b))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(_numbers, st.just(-0.0), st.just(5e-324)),
                              min_size=1, max_size=6), min_size=1, max_size=5),
       times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_polynomial_integrals_equal_numpys_antiderivatives(rows, times):
    # the bank divides each coefficient by its power + 1; numpy.polynomial's
    # integ() gives the same integrals, bit for bit
    bank = CoefficientBank([{"kind": "polynomial", "coeffs": r} for r in rows])
    anti = timefn._padded([np.polynomial.Polynomial(r).integ().coef for r in rows])
    hi, lo = np.array(times)[:, None], np.full((len(times), 1), -0.25)
    expected = timefn._horner(anti, hi) - timefn._horner(anti, lo)
    _same(bank.integrals(-0.25, times), expected.astype(complex))


_coefficient = st.one_of(_numbers, st.just(-0.0), st.just(5e-324))


@settings(max_examples=150, deadline=None)
@given(coeffs=st.lists(_coefficient, min_size=1, max_size=6),
       times=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4))
def test_polynomial_values_and_derivatives_equal_numpys(coeffs, times):
    # real coefficients, as a config gives them. numpy first maps t onto its
    # window as 0.0 + 1.0 t, which reads -0.0 as +0.0, so the times are given
    # as numpy reads them
    times = np.array(times) + 0.0
    ours, theirs = Polynomial(coeffs), np.polynomial.Polynomial(coeffs)
    anti = theirs.integ()
    for t in [*times.tolist(), times]:
        _same(np.asarray(ours(t)), np.asarray(theirs(t)))
        _same(np.asarray(ours.derivative(t)), np.asarray(theirs.deriv()(t)))
        _same(np.asarray(ours.integrate(-0.25, t)), np.asarray(anti(t) - anti(-0.25)))


def _as_doubles(spec):
    """``spec`` with every int read as a double."""
    if isinstance(spec, dict):
        return {key: _as_doubles(value) for key, value in spec.items()}
    if isinstance(spec, list):
        return [_as_doubles(value) for value in spec]
    return float(spec) if type(spec) is int else spec


@pytest.mark.parametrize("big", [2 ** 63, 2 ** 64, 10 ** 30, -10 ** 30])
def test_a_bank_reads_ints_past_int64_as_doubles(big):
    # numpy holds such an int, in a column with other ints, as an object
    specs = [{"kind": "damped-trig", "amplitude": -1}, {"kind": "damped-trig", "amplitude": big},
             {"kind": "polynomial", "coeffs": [big, -1]}, big]
    tabulated = {"kind": "tabulated", "times": [0, 1, 2], "values": [big, 1, 2]}
    for specs in (specs, specs + [tabulated]):
        banks = [CoefficientBank(specs), CoefficientBank(_as_doubles(specs)),
                 CoefficientBank([from_spec(s) for s in specs])]
        times = [0.0, 0.5, 2.0]
        for bank in banks[1:]:
            _same(bank.values(times), banks[0].values(times))
            _same(bank.integrals(0.0, times), banks[0].integrals(0.0, times))
        # a tabulated rate has no certified bounds
        bounds = [bank.window_bounds(0.0, 2.0) for bank in banks]
        assert all((b is None) == (tabulated in specs) for b in bounds)
        for other in bounds[1:] if bounds[0] is not None else ():
            for a, b in zip(other, bounds[0]):
                _same(np.asarray(a), np.asarray(b))


def test_a_bank_refuses_what_from_spec_refuses():
    with pytest.raises(ValueError, match="unknown time-function kind: 'mystery'"):
        CoefficientBank([1.0, {"kind": "mystery"}])
    with pytest.raises(ValueError, match="unknown time-function kind: None"):
        CoefficientBank([{"value": 1.0}])
    with pytest.raises(TypeError, match="as a time function"):
        CoefficientBank(["fast"])
