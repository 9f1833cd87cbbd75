"""Parametrised families, and maps on parameter rows, shared by the generator and relation tests."""

import numpy as np

from covariant_kit.generators import ParamFamily
from covariant_kit.geometry import AffineMap


def still(rows):
    """The point map that is the identity at every parameter row."""
    return np.broadcast_to(np.eye(4), (len(rows), 4, 4)), np.zeros((len(rows), 4))


def constant(matrix):
    """A rep_map that is ``matrix`` at every parameter row."""
    matrix = np.asarray(matrix, dtype=complex)
    return lambda rows: np.broadcast_to(matrix, (len(rows), *matrix.shape))


def point_map_at(family, b):
    """The family's point map at one parameter vector b, as an AffineMap."""
    linear, offset = family.point_map(np.asarray(b)[None])
    return AffineMap(linear[0], offset[0])


def dilation_family():
    """H(b) = exp(b) r, whose flow is [I | 0]; trivial one-component matrix."""
    return ParamFamily(
        point_map=lambda rows: (np.exp(rows[:, 0, None, None]) * np.eye(4), np.zeros((len(rows), 4))),
        rep_map=lambda rows: np.ones((len(rows), 1, 1), dtype=complex),
        labels=("D",),
        flow=np.eye(4, 5)[None],
    )
