"""The config checker against jsonschema, its independent reference.

Valid configs of every kind are mutated at random, and ``validate_config``
must refuse a mutated config exactly when the reference does. The reference
is jsonschema's Draft 2020-12 validator with the three documented
differences built in: its ``integer`` type takes only ints, as the
checker's does, where the draft also takes integer-valued floats such as
``3.0``; its ``number`` type refuses NaN and +-Infinity, which the draft
takes; and neither type takes an int past a double's range, such as
``10**400``, which the draft takes.
"""

import copy
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from comdyn.config import KIND_SCHEMAS, ConfigError, _compile, validate_config

jsonschema = pytest.importorskip("jsonschema")

Draft = jsonschema.Draft202012Validator


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past a double's range
        return False


IntOnly = jsonschema.validators.extend(
    Draft, type_checker=Draft.TYPE_CHECKER.redefine_many({
        "integer": lambda _, v: isinstance(v, int) and not isinstance(v, bool) and _finite(v),
        "number": lambda _, v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                                and _finite(v))}))

# -- valid configs ----------------------------------------------------------

numbers = st.one_of(st.integers(-5, 5), st.floats(-5, 5, allow_nan=False))
number_lists = st.lists(numbers, min_size=1, max_size=3)
timefns = st.one_of(
    numbers,
    st.fixed_dictionaries({"kind": st.just("constant"), "value": numbers}),
    st.fixed_dictionaries({"kind": st.just("polynomial"), "coeffs": number_lists}),
    st.fixed_dictionaries({"kind": st.just("damped-trig")}, optional={
        key: numbers for key in ("amplitude", "decay", "frequency", "phase",
                                 "offset")}),
    st.fixed_dictionaries({"kind": st.just("tabulated"), "times": number_lists,
                           "values": number_lists}),
)
timefn_lists = st.lists(timefns, min_size=1, max_size=3)
dims = st.fixed_dictionaries({"d": st.integers(2, 4), "N": st.integers(1, 3)})
times = st.fixed_dictionaries({"t0": numbers, "t": numbers,
                               "samples": st.integers(1, 9)})
optional = {"mode": st.sampled_from(["markov", "nonmarkov"]),
            "oracle": st.fixed_dictionaries({}, optional={
                "tol": st.one_of(st.integers(0, 5), st.floats(0, 5)),
                "steps": st.integers(1, 64)}),
            "output": st.text(max_size=4)}


def _config(kind, required, optional_keys=()):
    return st.fixed_dictionaries({"kind": st.just(kind), **required},
                                 optional={key: optional[key] for key in optional_keys})


def _pairs(item):
    return st.lists(st.lists(item, min_size=2, max_size=2), min_size=2, max_size=2)


CONFIGS = {
    "classical": _config("classical", {"dims": dims, "rates": timefn_lists,
                                       "time": times},
                         optional_keys=("mode", "oracle", "output")),
    "weyl": _config("weyl", {"dims": dims, "rates": timefn_lists, "time": times},
                    optional_keys=("mode", "oracle", "output")),
    "mixture": _config("mixture", {
        "dims": dims, "generators": st.lists(timefn_lists, min_size=1, max_size=3),
        "weights": timefn_lists, "time": times}, optional_keys=("oracle", "output")),
    "resolvent": _config("resolvent", {
        "dims": dims, "rates": timefn_lists, "s_values": number_lists,
        "k_values": st.lists(st.integers(0, 3), min_size=1, max_size=3)},
        optional_keys=("output",)),
    "qubit": st.builds(
        lambda base, epsilon, c: {**base, **epsilon, **c},
        _config("qubit", {"gamma": timefns, "mu": st.floats(0, 1),
                          "initial_state": _pairs(st.lists(numbers, min_size=2,
                                                           max_size=2)),
                          "time": times}, optional_keys=("mode", "oracle", "output")),
        st.one_of(st.just({}), st.builds(lambda f: {"epsilon": f}, timefns)),
        st.one_of(st.just({}), st.builds(lambda c: {"c": c}, _pairs(timefns)))),
    "kernel": st.one_of(
        _config("kernel", {"rate": timefns, "s_values": number_lists},
                optional_keys=("output",)),
        _config("kernel", {"weights": number_lists, "exponents": number_lists,
                           "s_values": number_lists}, optional_keys=("output",))),
}

# -- mutations ----------------------------------------------------------------


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, path + (i,))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parent(config, path):
    for key in path[:-1]:
        config = config[key]
    return config


def _replace(data, config, where, values):
    """Replace one node for which ``where(path, value)`` holds by a value
    drawn from ``values``; leaves the config alone if there is none."""
    paths = [p for p, v in _nodes(config) if p and where(p, v)]
    if paths:
        path = data.draw(st.sampled_from(paths))
        _parent(config, path)[path[-1]] = data.draw(values)


def drop_key(data, config):
    paths = [p for p, v in _nodes(config) if isinstance(v, dict) and v]
    if paths:
        node = _parent(config, data.draw(st.sampled_from(paths)) + (None,))
        del node[data.draw(st.sampled_from(sorted(node)))]


def add_key(data, config):
    paths = [p for p, v in _nodes(config) if isinstance(v, dict)]
    node = _parent(config, data.draw(st.sampled_from(paths)) + (None,))
    node[data.draw(st.sampled_from(["extra", "Kind", "valu", "rate"]))] = 1.0


def change_type(data, config):
    _replace(data, config, lambda p, v: True, st.sampled_from(
        ["text", [1.0], {"kind": "constant"}, None, 1.5, 2, {}, []]))


def bool_for_number(data, config):
    _replace(data, config, lambda p, v: _is_number(v), st.booleans())


def empty_array(data, config):
    _replace(data, config, lambda p, v: isinstance(v, list), st.just([]))


def mu_out_of_range(data, config):
    _replace(data, config, lambda p, v: p == ("mu",),
             st.sampled_from([-0.5, -1e-9, 0, 1, 1 + 1e-9, 2]))


def wrong_timefn_kind(data, config):
    _replace(data, config, lambda p, v: len(p) > 1 and p[-1] == "kind",
             st.sampled_from(["constant", "polynomial", "damped-trig",
                              "tabulated", "bogus", 3]))


def c_wrong_shape(data, config):
    x = 0.25
    _replace(data, config, lambda p, v: p == ("c",), st.sampled_from([
        [[x, x]], [[x, x], [x, x], [x, x]], [[x], [x]], [[x, x, x], [x, x]],
        [x, x], [[x, x], [x, [x]]], [[x, x], [x, "x"]]]))


def integer_to_float(data, config):
    _replace(data, config, lambda p, v: isinstance(v, int) and not isinstance(v, bool),
             st.sampled_from([2.0, 1.0, 0.0]))


def non_finite(data, config):
    _replace(data, config, lambda p, v: _is_number(v),
             st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]))


def huge_int(data, config):
    _replace(data, config, lambda p, v: _is_number(v),
             st.sampled_from([10 ** 400, -10 ** 400, 2 ** 1024]))


MUTATIONS = [drop_key, add_key, change_type, bool_for_number, empty_array,
             mu_out_of_range, wrong_timefn_kind, c_wrong_shape, integer_to_float,
             non_finite, huge_int]

# -- the comparison -------------------------------------------------------------


def _reference_accepts(config) -> bool:
    kind = config.get("kind") if isinstance(config, dict) else None
    if not isinstance(kind, str) or kind not in KIND_SCHEMAS:
        return False
    if not IntOnly(KIND_SCHEMAS[kind]).is_valid(config):
        return False
    if kind == "kernel":  # the one rule the schema cannot state
        return (("rate" in config) != ("weights" in config)
                and ("weights" not in config or "exponents" in config))
    return True


def _has_integral_float(node) -> bool:
    return any(isinstance(v, float) and v.is_integer() for _, v in _nodes(node))


def _has_non_finite(node) -> bool:
    return any(isinstance(v, float) and not math.isfinite(v) for _, v in _nodes(node))


def _has_huge_int(node) -> bool:
    return any(_is_number(v) and not _finite(v) for _, v in _nodes(node))


def _accepts(config) -> bool:
    try:
        validate_config(config)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(KIND_SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema_on_mutated_configs(kind, data):
    config = data.draw(CONFIGS[kind])
    assert _accepts(config) and _reference_accepts(config)
    mutated = copy.deepcopy(config)
    for mutation in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                                       max_size=2)):
        mutation(data, mutated)
    expected = _reference_accepts(mutated)
    assert _accepts(mutated) == expected
    kind = mutated.get("kind")
    if isinstance(kind, str) and kind in KIND_SCHEMAS:
        draft = Draft(KIND_SCHEMAS[kind]).is_valid(mutated)
        # the draft's verdict differs only where it takes 3.0 as an integer,
        # a non-finite float as a number or an int past a double's range as
        # either
        assert draft == IntOnly(KIND_SCHEMAS[kind]).is_valid(mutated) or (
            draft and (_has_integral_float(mutated) or _has_non_finite(mutated)
                       or _has_huge_int(mutated)))


def test_reference_differs_from_the_draft_only_on_integer_valued_floats():
    schema = KIND_SCHEMAS["resolvent"]
    config = {"kind": "resolvent", "dims": {"d": 2, "N": 1}, "rates": [0.0],
              "s_values": [1.0], "k_values": [1.0]}
    assert Draft(schema).is_valid(config)
    assert not IntOnly(schema).is_valid(config)
    assert not _accepts(config)
    config["k_values"] = [1]
    assert _accepts(config) and IntOnly(schema).is_valid(config)


@pytest.mark.parametrize("value", [math.nan, -math.nan, math.inf, -math.inf])
def test_reference_differs_from_the_draft_on_non_finite_numbers(value):
    schema = KIND_SCHEMAS["resolvent"]
    config = {"kind": "resolvent", "dims": {"d": 2, "N": 1}, "rates": [0.0],
              "s_values": [value], "k_values": [1]}
    assert Draft(schema).is_valid(config)
    assert not IntOnly(schema).is_valid(config)
    assert not _accepts(config)


@pytest.mark.parametrize("field,value", [
    ("s_values", 10 ** 400), ("s_values", -10 ** 400), ("s_values", 2 ** 1024),
    ("k_values", 10 ** 400)])
def test_reference_differs_from_the_draft_on_ints_past_a_double(field, value):
    schema = KIND_SCHEMAS["resolvent"]
    config = {"kind": "resolvent", "dims": {"d": 2, "N": 1}, "rates": [0.0],
              "s_values": [1.0], "k_values": [1], field: [value]}
    assert Draft(schema).is_valid(config)
    assert not IntOnly(schema).is_valid(config)
    with pytest.raises(ConfigError, match=rf"^config invalid at {field}\.0: "
                       rf"{value} is out of a double's range$"):
        validate_config(config)


NON_FINITE = [math.nan, -math.nan, math.inf, -math.inf]

HUGE_INTS = [10 ** 400, -10 ** 400, 2 ** 1024]
_TAGGED_A = {"type": "object", "required": ["kind"], "properties": {"kind": {"const": "a"}}}

# Keyword semantics the config schemas cannot show on their own values.
KEYWORD_CASES = [
    ({"type": "number"}, [0, -0.0, 1e308, 5e-324, int(sys.float_info.max)]
     + NON_FINITE + HUGE_INTS),
    ({"type": "integer"}, [0, 1.0] + NON_FINITE + HUGE_INTS),
    ({"oneOf": [{"type": "number"}, _TAGGED_A]},
     [1, 1.5, "nan", True, None, {"kind": "a"}, {"kind": "b"}, {}] + NON_FINITE + HUGE_INTS),
    ({"const": "a"}, ["a", "b", 1, True, None, ["a"]]),
    ({"enum": ["a", "b"]}, ["a", "b", "c", 0, False, ["a"], {"a": 1}]),
    ({"minimum": 0, "maximum": 1}, ["x", -1, 2, True, 0.5, None] + NON_FINITE + HUGE_INTS),
    ({"type": "integer", "minimum": 1}, [1, 0, 1.0, True] + HUGE_INTS),
    # items the whole-array test is derived for
    ({"type": "array", "items": {"oneOf": [{"type": "number"}, _TAGGED_A]}},
     [[1, {"kind": "a"}], [{"kind": "b"}], [True], [math.nan], [0.5, 10 ** 400], []]),
    ({"type": "number", "minimum": 0, "maximum": 1}, [0.5] + NON_FINITE),
    ({"type": "array", "items": {"type": "number"}}, [[1.0], [1.0, math.nan],
                                                      [math.inf], [-math.inf, 0]]),
    ({"minItems": 2, "maxItems": 3, "items": {"type": "integer"}},
     ["ab", [], [0], [0, 2], [0, 1, 2, 0], [0, True], [0, 1.0]]),
    ({"type": "object", "properties": {"a": {"type": "string"}}, "required": ["a"],
      "additionalProperties": False},
     [{}, {"a": "x"}, {"a": 1}, {"a": "x", "b": 1}, [], "a"]),
]


@pytest.mark.parametrize("schema,instances", KEYWORD_CASES)
def test_keywords_agree_with_jsonschema(schema, instances):
    check = _compile(schema)
    for instance in instances:
        assert (check(instance) is None) == IntOnly(schema).is_valid(instance), instance


# Keyword forms no config schema uses, which compiling refuses rather than
# implement: a const or enum of anything but strings, and a oneOf with more
# than one untagged branch.
@pytest.mark.parametrize("schema", [
    {"const": 1},
    {"enum": [0, "a", [1, 2]]},
    {"const": {"a": [1]}},
    {"oneOf": [{"type": "number"}, {"type": "integer"}, {"type": "string"}]},
    {"oneOf": [{"type": "number"}, {"type": "string"}]},
], ids=["int-const", "mixed-enum", "dict-const", "three-untagged", "two-untagged"])
def test_compile_refuses_keyword_forms_no_schema_uses(schema):
    with pytest.raises(ValueError, match="implemented only"):
        _compile(schema)
