import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from comdyn import timefn
from comdyn.timefn import (CoefficientBank, Constant, DampedTrig, Polynomial,
                           SumFunction, Tabulated, as_time_function, from_spec)


def quad_complex(f, a, b):
    re = quad(lambda t: np.real(f(t)), a, b, limit=200)[0]
    im = quad(lambda t: np.imag(f(t)), a, b, limit=200)[0]
    return re + 1j * im


@pytest.mark.parametrize("fn", [
    Constant(0.7),
    Constant(0.2 - 0.4j),
    Polynomial([1.0, -2.0, 0.5]),
    DampedTrig(amplitude=0.8, decay=-0.3, frequency=2.0, phase=0.4, offset=0.1),
    DampedTrig.sin(amplitude=-1.0, offset=1.0),
    DampedTrig.exp(amplitude=2.0, decay=-0.5, offset=-0.2),
])
def test_integral_matches_quadrature(fn):
    expected = quad_complex(fn, 0.3, 2.1)
    assert abs(fn.integrate(0.3, 2.1) - expected) < 1e-10


@pytest.mark.parametrize("fn", [
    Polynomial([0.2, 1.0, -0.3]),
    DampedTrig(amplitude=1.1, decay=-0.2, frequency=1.5, phase=0.1, offset=0.3),
])
def test_derivative_matches_finite_difference(fn):
    h = 1e-6
    for t in (0.0, 0.7, 1.9):
        numeric = (fn(t + h) - fn(t - h)) / (2 * h)
        assert abs(fn.derivative(t) - numeric) < 1e-7


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_integral_additivity(a, b, c):
    fn = DampedTrig(amplitude=0.5, decay=-0.4, frequency=1.3, offset=0.2)
    total = fn.integrate(a, b) + fn.integrate(b, c)
    assert abs(total - fn.integrate(a, c)) < 1e-9


def test_constant_and_polynomial_flags():
    assert Constant(2.0).is_constant
    assert Polynomial([3.0]).is_constant
    assert not Polynomial([3.0, 1.0]).is_constant
    assert not DampedTrig.sin().is_constant
    assert DampedTrig(amplitude=0.0, frequency=2.0, offset=1.0).is_constant


def test_arithmetic():
    fn = Constant(1.0) + 2.0 * DampedTrig.exp(amplitude=1.0, decay=-1.0)
    assert isinstance(fn, SumFunction)
    t = 0.8
    assert abs(fn(t) - (1.0 + 2.0 * np.exp(-t))) < 1e-14
    assert abs(fn.integrate(0, t) - (t + 2.0 * (1 - np.exp(-t)))) < 1e-12
    assert abs((-fn).derivative(t) - 2.0 * np.exp(-t)) < 1e-12


def test_tabulated_exact_on_cubic():
    times = np.linspace(0.0, 2.0, 21)
    values = times ** 3 - times + 0.5
    fn = Tabulated(times, values)
    assert abs(fn(0.73) - (0.73 ** 3 - 0.73 + 0.5)) < 1e-12
    exact = (2.0 ** 4 / 4 - 2.0 ** 2 / 2 + 0.5 * 2.0)
    assert abs(fn.integrate(0.0, 2.0) - exact) < 1e-12
    assert abs(fn.derivative(1.0) - (3.0 - 1.0)) < 1e-10


def test_tabulated_domain_guard():
    fn = Tabulated([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fn(1.5)
    with pytest.raises(ValueError):
        fn.integrate(0.0, 3.0)


def test_from_spec():
    assert from_spec({"kind": "constant", "value": 2.5})(0.0) == 2.5
    poly = from_spec({"kind": "polynomial", "coeffs": [1.0, 1.0]})
    assert poly(2.0) == 3.0
    trig = from_spec({"kind": "damped-trig", "offset": 1.0, "amplitude": 1.0,
                      "frequency": 1.0, "phase": -np.pi / 2})
    assert abs(trig(0.5) - (1.0 + np.sin(0.5))) < 1e-14
    tab = from_spec({"kind": "tabulated", "times": [0, 1], "values": [0, 1]})
    assert abs(tab(0.5) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        from_spec({"kind": "mystery"})


def test_as_time_function_rejects_junk():
    assert as_time_function(3).is_constant
    with pytest.raises(TypeError):
        as_time_function("fast")


# ---------------------------------------------------------------------------
# coefficient bank
# ---------------------------------------------------------------------------

BANK_KINDS = {
    "constant": [Constant(0.7), Constant(-1.25), Constant(0.2 - 0.4j)],
    "polynomial": [Polynomial([1.0, -2.0, 0.5]), Polynomial([3.0]),
                   Polynomial([0.0, 0.25, 0.0, -0.1]),
                   Polynomial([1.0 + 0.5j, -0.3j])],
    "damped-trig": [DampedTrig(amplitude=0.8, decay=-0.3, frequency=2.0,
                               phase=0.4, offset=0.1),
                    DampedTrig.sin(amplitude=-1.0, offset=1.0),
                    DampedTrig.exp(amplitude=2.0, decay=-0.5, offset=-0.2),
                    DampedTrig(amplitude=1.5, phase=0.3, offset=-0.4),
                    DampedTrig(amplitude=0.5j, decay=0.2, frequency=-1.0)],
    "tabulated": [Tabulated(np.linspace(-1.0, 3.0, 9), np.cos(np.linspace(-1.0, 3.0, 9))),
                  Tabulated([-1.0, 0.5, 3.0], [1.0j, 2.0, -1.0 + 1.0j])],
    "sum-and-scaled": [Constant(1.0) + 2.0 * DampedTrig.exp(decay=-1.0),
                       -Polynomial([0.5, 1.0]),
                       (0.5 - 1.0j) * DampedTrig.cos(frequency=3.0)],
}
BANK_KINDS["mixed"] = [f for kind in BANK_KINDS.values() for f in kind][::-1]


@pytest.mark.parametrize("kind", sorted(BANK_KINDS))
def test_bank_matches_scalar_functions(kind):
    funcs = BANK_KINDS[kind]
    bank = CoefficientBank(funcs)
    times = np.linspace(-1.0, 3.0, 41)
    expected = np.array([[complex(f(t)) for f in funcs] for t in times])
    got = bank.values(times)
    assert got.shape == (times.size, len(funcs))
    assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
    for lo in (0.0, -0.7):
        expected = np.array([[complex(f.integrate(lo, t)) for f in funcs] for t in times])
        got = bank.integrals(lo, times)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
    single = bank.integrals(0.3, 2.1)
    assert single.shape == (1, len(funcs))
    assert np.allclose(single[0], [f.integrate(0.3, 2.1) for f in funcs], rtol=1e-14, atol=0)


def test_bank_keeps_tabulated_domain_error():
    bank = CoefficientBank([Constant(1.0), Tabulated([0.0, 1.0], [1.0, 2.0])])
    with pytest.raises(ValueError, match="outside tabulated domain"):
        bank.values(np.linspace(0.0, 1.5, 4))
    with pytest.raises(ValueError, match="outside tabulated domain"):
        bank.integrals(0.0, [0.5, 2.0])


def _bits(block):
    return np.ascontiguousarray(block).view(np.int64)


@pytest.mark.parametrize("height", [
    lambda chunk: 1, lambda chunk: chunk - 1, lambda chunk: chunk,
    lambda chunk: chunk + 1, lambda chunk: 3 * chunk + 5,
], ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"])
def test_bank_block_is_bit_identical_to_its_rows(height):
    # every kind, with enough damped-trig functions that a chunk is a few
    # hundred rows, so the heights below cross one or several boundaries
    many = [DampedTrig(amplitude=0.1 * k, decay=-0.01 * k, frequency=0.3 * k,
                       phase=0.2 * k, offset=0.05 * k) for k in range(1, 60)]
    funcs = BANK_KINDS["mixed"] + many
    bank = CoefficientBank(funcs)
    chunk = timefn._BLOCK_ENTRIES // bank.size
    height = height(chunk)
    times = np.random.default_rng(height).uniform(-1.0, 3.0, height)
    block = bank.values(times)
    rows = np.concatenate([bank.values(times[i:i + 1]) for i in range(height)])
    assert block.shape == (height, bank.size)
    np.testing.assert_array_equal(_bits(block), _bits(rows))
