"""The package's public names."""

import memsynth


def test_every_public_name_resolves():
    assert len(set(memsynth.__all__)) == len(memsynth.__all__)
    for name in memsynth.__all__:
        assert getattr(memsynth, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from memsynth import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(memsynth.__all__)
