import doctest
import importlib
import pkgutil

import pytest

import permdl

MODULES = [importlib.import_module(f"permdl.{m.name}") for m in pkgutil.iter_modules(permdl.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
