"""The package's export list matches what it defines."""

import types

import pideg


def test_all_lists_every_public_name():
    public = [
        name
        for name, value in vars(pideg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(pideg.__all__) == sorted(public)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from pideg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pideg.__all__)
