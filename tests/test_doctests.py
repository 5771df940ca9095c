"""Run the examples in the module docstrings."""

import doctest
import importlib
import pkgutil

import pytest

import qcoorbit

# importing __main__ runs the command line
MODULES = sorted(m.name for m in pkgutil.iter_modules(qcoorbit.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"qcoorbit.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
