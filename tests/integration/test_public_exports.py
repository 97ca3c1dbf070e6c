"""Every exported name exists: a deletion that leaves a stale ``__all__``
entry fails here rather than at a user's ``from repro.x import *``."""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    try:
        module = importlib.import_module(name)
    except ImportError as error:  # an optional backend (numba) is absent
        pytest.skip(f"{name}: {error}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
