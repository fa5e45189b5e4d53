"""The package namespace re-exports exactly the library modules' names."""

import importlib
import pkgutil

import specmeasure


def test_all_is_the_union_of_the_library_modules():
    names = {"__version__"}
    for info in pkgutil.iter_modules(specmeasure.__path__):
        if info.name != "cli":
            names.update(importlib.import_module(f"specmeasure.{info.name}").__all__)
    assert sorted(specmeasure.__all__) == sorted(names)
    for name in specmeasure.__all__:
        assert getattr(specmeasure, name) is not None, name
