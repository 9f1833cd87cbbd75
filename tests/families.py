"""Parametrised families shared by the generator and relation tests."""

import math

import numpy as np

from covariant_kit.generators import ParamFamily
from covariant_kit.geometry import AffineMap


def dilation_family():
    """H(b) = exp(b) r, whose flow is [I | 0]; trivial one-component matrix."""
    return ParamFamily(
        point_map=lambda b: AffineMap(math.exp(b[0]) * np.eye(4)),
        rep_map=lambda b: np.eye(1, dtype=complex),
        labels=("D",),
        flow=np.eye(4, 5)[None],
    )
