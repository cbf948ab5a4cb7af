"""Every name a module exports through __all__ exists in that module."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import ergoflow

MODULES = ["ergoflow"] + [
    info.name for info in pkgutil.walk_packages(ergoflow.__path__, prefix="ergoflow.")
]


def test_every_module_is_covered():
    # one module per source file, subpackages included
    assert {"ergoflow.states", "ergoflow.cli", "ergoflow.oracles.fock"} <= set(MODULES)
    assert len(MODULES) == len(list(Path(ergoflow.__file__).parent.rglob("*.py")))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
