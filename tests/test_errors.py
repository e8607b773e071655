"""Every comdyn failure carries the exit code the command line maps it to."""

import inspect

import pytest

from comdyn import errors
from comdyn.cli import ConfigError

ERROR_TYPES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if cls.__module__ == errors.__name__] + [ConfigError]

INPUT_ERRORS = {"ConfigError", "DimensionMismatchError", "NormalizationError"}


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_type_has_an_exit_code(cls):
    assert issubclass(cls, errors.ComdynError)
    assert cls.exit_code in (1, 2)
    assert cls.exit_code == (1 if cls.__name__ in INPUT_ERRORS else 2)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_type_keeps_its_builtin_base(cls):
    if cls is errors.ComdynError:
        return
    assert issubclass(cls, (ValueError, RuntimeError))
