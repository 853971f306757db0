"""The package's public surface: every exported name resolves, and the
test-only checkers are not exported."""

import icbounds


def test_every_exported_name_resolves():
    assert len(set(icbounds.__all__)) == len(icbounds.__all__)
    for name in icbounds.__all__:
        assert hasattr(icbounds, name), name
    namespace: dict = {}
    exec("from icbounds import *", namespace)
    assert set(icbounds.__all__) <= namespace.keys()


def test_test_only_checkers_are_not_exported():
    for name in ("compose_coverage", "decompose_coverage", "verify_hierarchy_membership"):
        assert name not in icbounds.__all__
        assert not hasattr(icbounds, name)
