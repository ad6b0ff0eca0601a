"""Every name a module exports through ``__all__`` resolves, once."""

import importlib
import pkgutil

import pytest

import mbdf

# importing __main__ would run the command line
MODULES = sorted(
    m.name
    for m in pkgutil.iter_modules(mbdf.__path__, "mbdf.")
    if m.name != "mbdf.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_are_unique(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
