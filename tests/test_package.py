"""The package's export list."""

import importlib
import inspect

import leavitt

MODULES = ("algebra", "epsilon", "frobenius", "grading", "graph", "reports", "rings", "sampling")


def test_every_exported_name_resolves():
    # bench/tracer.py wraps only exported names, so a stale entry must fail here
    assert [name for name in leavitt.__all__ if not hasattr(leavitt, name)] == []
    namespace = {}
    exec("from leavitt import *", namespace)
    assert set(leavitt.__all__) <= namespace.keys()


def test_the_package_exports_each_module_list_once():
    # the package attribute ``epsilon`` is the function, so reach modules by name
    modules = [importlib.import_module(f"leavitt.{name}") for name in MODULES]
    assert leavitt.__all__ == [name for m in modules for name in m.__all__] + ["__version__"]
    assert len(set(leavitt.__all__)) == len(leavitt.__all__)
    for m in modules:
        for name in m.__all__:
            obj = getattr(m, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == m.__name__, name
