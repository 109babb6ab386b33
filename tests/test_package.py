"""The package's export list."""

import leavitt


def test_every_exported_name_resolves():
    # bench/tracer.py wraps only exported names, so a stale entry must fail here
    assert [name for name in leavitt.__all__ if not hasattr(leavitt, name)] == []
    namespace = {}
    exec("from leavitt import *", namespace)
    assert set(leavitt.__all__) <= namespace.keys()
