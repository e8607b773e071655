"""The config format: its JSON Schema and the checker that enforces it.

The schemas below are the one definition of the config format. They are
compiled once, at import, into checkers that walk a config in one pass.
The checkers implement exactly the JSON Schema (Draft 2020-12) keywords in
_KEYWORDS, with three deliberate differences: ``integer`` accepts only
ints, not integer-valued floats such as 3.0, which numpy refuses later;
``number`` refuses the non-finite floats NaN and +-Infinity, which
json.load accepts and which would otherwise fail later without a path; and
neither accepts an int past a double's range, which no computation can
hold. Compiling refuses any other keyword, a ``const`` or ``enum`` that is
not made of strings, and a ``oneOf`` of any shape but the tagged one of
TIMEFN_SCHEMA (see _tag_table), so a schema can never loosen silently. A
list of time functions is tested as a whole first (see _fast_accept).
"""

from __future__ import annotations

import math

from .errors import ComdynError

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

_NUM = {"type": "number"}
_NUM_ARRAY = {"type": "array", "items": _NUM, "minItems": 1}


def _closed(properties: dict, *required: str) -> dict:
    """An object schema that allows only ``properties`` and needs ``required``."""
    return {"type": "object", "properties": properties, "required": list(required),
            "additionalProperties": False}


def _tagged(kind: str, properties: dict, *required: str) -> dict:
    """A closed object schema tagged by its required 'kind' constant."""
    return _closed({"kind": {"const": kind}, **properties}, "kind", *required)


TIMEFN_SCHEMA = {
    "oneOf": [
        _NUM,
        _tagged("constant", {"value": _NUM}, "value"),
        _tagged("polynomial", {"coeffs": _NUM_ARRAY}, "coeffs"),
        _tagged("damped-trig", {"amplitude": _NUM, "decay": _NUM, "frequency": _NUM,
                                "phase": _NUM, "offset": _NUM}),
        _tagged("tabulated", {"times": _NUM_ARRAY, "values": _NUM_ARRAY}, "times", "values"),
    ]
}

_TIMEFN_ARRAY = {"type": "array", "items": TIMEFN_SCHEMA, "minItems": 1}
_DIMS = _closed({"d": {"type": "integer", "minimum": 2},
                 "N": {"type": "integer", "minimum": 1}}, "d", "N")
_TIME = _closed({"t0": _NUM, "t": _NUM, "samples": {"type": "integer", "minimum": 1}},
                "t0", "t", "samples")
_MODE = {"enum": ["markov", "nonmarkov"]}
_ORACLE = {"type": "object",
           "properties": {"tol": {"type": "number", "minimum": 0},
                          "steps": {"type": "integer", "minimum": 1}},
           "additionalProperties": False}
_OUTPUT = {"type": "string"}
_COMPLEX = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_SPECTRAL = {"dims": _DIMS, "rates": _TIMEFN_ARRAY, "time": _TIME, "mode": _MODE,
             "oracle": _ORACLE, "output": _OUTPUT}

KIND_SCHEMAS = {
    "classical": _tagged("classical", _SPECTRAL, "dims", "rates", "time"),
    "weyl": _tagged("weyl", _SPECTRAL, "dims", "rates", "time"),
    "mixture": _tagged("mixture", {
        "dims": _DIMS, "generators": {"type": "array", "items": _TIMEFN_ARRAY, "minItems": 1},
        "weights": _TIMEFN_ARRAY, "time": _TIME, "oracle": _ORACLE, "output": _OUTPUT},
        "dims", "generators", "weights", "time"),
    "resolvent": _tagged("resolvent", {
        "dims": _DIMS, "rates": _TIMEFN_ARRAY, "s_values": _NUM_ARRAY,
        "k_values": {"type": "array", "minItems": 1,
                     "items": {"type": "integer", "minimum": 0}},
        "output": _OUTPUT}, "dims", "rates", "s_values", "k_values"),
    "qubit": _tagged("qubit", {
        "epsilon": TIMEFN_SCHEMA, "gamma": TIMEFN_SCHEMA,
        "c": {"type": "array", "minItems": 2, "maxItems": 2,
              "items": {"type": "array", "minItems": 2, "maxItems": 2,
                        "items": TIMEFN_SCHEMA}},
        "mu": {"type": "number", "minimum": 0, "maximum": 1},
        "initial_state": {"type": "array", "minItems": 2, "maxItems": 2,
                          "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                    "items": _COMPLEX}},
        "time": _TIME, "mode": _MODE, "oracle": _ORACLE, "output": _OUTPUT},
        "gamma", "mu", "initial_state", "time"),
    "kernel": _tagged("kernel", {
        "rate": TIMEFN_SCHEMA, "weights": _NUM_ARRAY, "exponents": _NUM_ARRAY,
        "s_values": _NUM_ARRAY, "output": _OUTPUT}, "s_values"),
}


def finite_numbers(values) -> bool:
    """Whether every one of ``values`` is a JSON number the config takes:
    an int or a float, never a bool, whose double is finite, so an int
    must fit a double. Tested in C loops, by type and by a sum of the
    doubles: one value is tested exactly, and a list of valid values whose
    sum overflows fails as a whole."""
    try:
        return (set(map(type, values)) <= {int, float}
                and abs(sum(map(float, values))) < math.inf)
    except OverflowError:
        return False


def specs_fit(items: list, key: str, shapes: dict) -> bool:
    """Whether each of ``items``, parsed JSON, is a number or a dict whose
    string ``key`` tags one of ``shapes``, ``{tag: (names, required,
    arrays)}``, and fits it: it has only those names and all the required
    ones, the values under ``arrays`` are non-empty lists of numbers and its
    other values numbers. The dicts are grouped by tag and each name of a
    group is read as one list, so the numbers meet :func:`finite_numbers` once."""
    groups = {}
    for x in items:
        tag = x.get(key) if type(x) is dict else None
        groups.setdefault(tag if type(tag) is str else None, []).append(x)
    values = groups.pop(None, [])
    for tag, group in groups.items():
        if tag not in shapes or not all(map(shapes[tag][0].issuperset, group)):
            return False
        names, required, arrays = shapes[tag]
        for name in names - {key}:
            present = [x[name] for x in group if name in x]
            if name in required and len(present) < len(group):
                return False
            if name in arrays:
                if set(map(type, present)) - {list} or not all(present):
                    return False
                present = [v for array in present for v in array]
            values += present
    return finite_numbers(values)


# ---------------------------------------------------------------------------
# config checking
# ---------------------------------------------------------------------------

_TYPES = {
    "number": lambda v: finite_numbers((v,)),
    "integer": lambda v: type(v) is int and finite_numbers((v,)),
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


def _type_error(v, name: str) -> _Invalid:
    if type(v) is int and name in ("number", "integer"):
        return _Invalid("{!r} is out of a double's range", v)
    if type(v) is float and name == "number":
        return _Invalid("{!r} is not a finite number", v)
    return _Invalid("{!r} is not of type {!r}", v, name)


def _check_bounds(schema):
    lo, hi = schema.get("minimum"), schema.get("maximum")

    def check(v):
        if not finite_numbers((v,)):
            return None
        if lo is not None and v < lo:
            return _Invalid("{!r} is less than the minimum of {!r}", v, lo)
        if hi is not None and v > hi:
            return _Invalid("{!r} is greater than the maximum of {!r}", v, hi)
        return None
    return check


def _fast_accept(schema):
    """A test that passes a whole array of ``schema`` items at once, or None.

    Derived for a tagged oneOf (see _tag_table) of numbers and objects
    whose other properties are numbers or non-empty arrays of numbers, as
    the shapes :func:`specs_fit` takes. It passes an array only when every
    item is valid under ``schema``; an array it fails is walked, so every
    refusal keeps the walker's message and path."""
    if (list(schema) != ["oneOf"]
            or [b for b in schema["oneOf"] if b.get("type") != "object"] != [_NUM]):
        return None
    key, shapes = _tag_table(schema)[0], {}
    for props, required in ((b["properties"], b["required"]) for b in schema["oneOf"]
                            if b != _NUM):
        others = {name: sub for name, sub in props.items() if name != key}
        if any(sub not in (_NUM, _NUM_ARRAY) for sub in others.values()) or (
                not set(required) <= props.keys()):
            return None
        shapes[props[key]["const"]] = (frozenset(props), required,
                                       {name for name, sub in others.items() if sub != _NUM})
    return lambda items: specs_fit(items, key, shapes)


def _check_array(schema):
    lo, hi = schema.get("minItems"), schema.get("maxItems")
    item = _compile(schema["items"]) if "items" in schema else None
    accept = _fast_accept(schema["items"]) if item else None

    def check(v):
        if not isinstance(v, list):
            return None
        if lo is not None and len(v) < lo:
            return _Invalid("{!r} should be non-empty" if lo == 1
                            else "{!r} is too short", v)
        if hi is not None and len(v) > hi:
            return _Invalid("{!r} is too long", v)
        if item is not None and not (accept and accept(v)):
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


def _tag_table(schema):
    """``(key, {tag: branch}, untagged)`` for ``schema``'s oneOf, whose
    object branches must be tagged by distinct 'const' strings on the same
    required key and by nothing else (there may be none), beside at most
    one ``untagged`` branch of another type (or None); any other oneOf is
    refused. A dict that carries one of those tags then fails every branch
    but its own, and any other value fails every tagged one."""
    refused = ValueError("config schema 'oneOf' is implemented only for object "
                         "branches tagged by distinct strings on one required key, "
                         "beside at most one branch of another type")
    key, table, untagged = None, {}, []
    for branch in schema["oneOf"]:
        if "type" in branch and branch["type"] != "object":
            untagged.append(branch)
            continue
        tag = {k: s["const"] for k, s in branch.get("properties", {}).items()
               if "const" in s}
        if branch.get("type") != "object" or len(tag) != 1:
            raise refused
        (k, const), = tag.items()
        if (not isinstance(const, str) or const in table or key not in (None, k)
                or k not in branch.get("required", ())):
            raise refused
        key, table[const] = k, _compile(branch)
    if len(untagged) > 1:
        raise refused
    return key, table, untagged[0] if untagged else None


def _check_one_of(schema):
    key, table, untagged = _tag_table(schema)
    if untagged is not None:
        other = _compile(untagged)
        # a value that fails the untagged branch still belongs to it, and
        # gets its error, when it has the branch's type apart from the
        # number rule's range (so a NaN rate belongs to the number branch)
        name = untagged["type"]
        belongs = (lambda v: type(v) in (int, float)) if name == "number" else _TYPES[name]

    # a time function's kind picks its branch; a dict without a known kind
    # fails every branch, and any other value fails every tagged one
    def check(v):
        if isinstance(v, dict):
            tag = v.get(key)
            if isinstance(tag, str) and tag in table:
                return table[tag](v)
        elif untagged is not None:
            error = other(v)
            if error is None or belongs(v):
                return error
        return _Invalid("{!r} is not valid under any of the given schemas", v)
    return check


def _compile(schema: dict):
    """``schema`` as a function from a value to its first ``_Invalid``, or
    None when the value is valid."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"config schema keywords {sorted(unknown)} are not implemented")
    if not all(isinstance(v, str) for v in [schema.get("const", ""), *schema.get("enum", [])]):
        raise ValueError("config schema 'const' and 'enum' are implemented only for strings")
    checks = []
    if "type" in schema:
        name = schema["type"]
        if name not in _TYPES:
            raise ValueError(f"config schema type {name!r} is not implemented")
        is_type = _TYPES[name]
        checks.append(lambda v: None if is_type(v) else _type_error(v, name))
    if "const" in schema:
        const = schema["const"]
        checks.append(lambda v: None if v == const else _Invalid("{!r} was expected", const))
    if "enum" in schema:
        options = schema["enum"]
        checks.append(lambda v: None if v in options
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
