"""Parametrised families shared by the generator and relation tests."""

import math

import numpy as np

from covariant_kit.generators import ParamFamily


def dilation_family(with_linear_part=True):
    """H(b) = exp(b) r; trivial one-component matrix."""
    return ParamFamily(
        b0=np.zeros(1),
        point_map=lambda b, pts: math.exp(b[0]) * np.asarray(pts, dtype=float),
        rep_map=lambda b: np.eye(1, dtype=complex),
        labels=("D",),
        linear_part=(lambda b: math.exp(b[0]) * np.eye(4)) if with_linear_part else None,
    )
