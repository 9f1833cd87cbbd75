"""The package namespace is the union of its five layer modules' ``__all__``."""

import itertools

import pytest

import covariant_kit
from covariant_kit import fields, generators, geometry, heisenberg, representations

LAYERS = (geometry, representations, fields, generators, heisenberg)


@pytest.mark.parametrize("module", LAYERS, ids=lambda m: m.__name__)
def test_every_public_name_is_exported_as_the_same_object(module):
    for name in module.__all__:
        assert getattr(covariant_kit, name) is getattr(module, name), name


def test_layer_name_lists_are_disjoint():
    # a name in two lists would be shadowed silently by the later star import
    for a, b in itertools.combinations(LAYERS, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_package_all_is_the_union():
    assert covariant_kit.__all__ == [name for m in LAYERS for name in m.__all__]
    assert len(set(covariant_kit.__all__)) == len(covariant_kit.__all__)
