"""The public API: every exported name is unique and resolves."""

import curvadd


def test_all_has_no_duplicates():
    assert len(curvadd.__all__) == len(set(curvadd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in curvadd.__all__ if not hasattr(curvadd, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from curvadd import *", namespace)
    assert set(curvadd.__all__) <= set(namespace)
