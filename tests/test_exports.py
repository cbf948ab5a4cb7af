"""Every name a module exports through __all__ exists in that module."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import ergoflow
from ergoflow import dynamics, factory, mpemba, states

MODULES = ["ergoflow"] + [
    info.name for info in pkgutil.walk_packages(ergoflow.__path__, prefix="ergoflow.")
]
PUBLISHED = (states, factory, dynamics, mpemba)


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


def test_package_publishes_its_modules_names_as_they_are():
    # the package's names are its four modules' __all__ and __version__, each
    # bound to the defining module's object, and no module claims another's name
    names = [name for module in PUBLISHED for name in module.__all__]
    assert sorted(ergoflow.__all__) == sorted(names + ["__version__"])
    for module in PUBLISHED:
        for name in module.__all__:
            assert getattr(ergoflow, name) is getattr(module, name), (module.__name__, name)
            # defined there, not re-exported from a sibling
            owner = getattr(getattr(module, name), "__module__", module.__name__)
            assert owner == module.__name__, (module.__name__, name, owner)
