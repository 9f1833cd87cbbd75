"""Parametrised families, and maps on parameter rows, shared by the generator and relation tests."""

import numpy as np

from covariant_kit.generators import ParamFamily
from covariant_kit.geometry import AffineMap


def constant(matrix, moves=True):
    """Maps that give ``matrix`` at every parameter row, with identity point maps, or none when not ``moves``."""
    matrix = np.asarray(matrix, dtype=complex)

    def maps(rows):
        mats = np.broadcast_to(matrix, (len(rows), *matrix.shape))
        if not moves:
            return mats, None, None
        return mats, np.broadcast_to(np.eye(4), (len(rows), 4, 4)), np.zeros((len(rows), 4))

    return maps


def point_map_at(family, b):
    """The family's point map at one parameter vector b, as an AffineMap."""
    _, linear, offset = family.maps(np.asarray(b)[None])
    return AffineMap(linear[0], offset[0])


def dilation_family():
    """H(b) = exp(b) r, whose flow is [I | 0]; trivial one-component matrix."""
    return ParamFamily(
        maps=lambda rows: (
            np.ones((len(rows), 1, 1), dtype=complex),
            np.exp(rows[:, 0, None, None]) * np.eye(4),
            np.zeros((len(rows), 4)),
        ),
        labels=("D",),
        flow=np.eye(4, 5)[None],
    )
