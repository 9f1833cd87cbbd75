"""covariant-kit: executable transformation laws and commutator checks.

A numpy toolkit that builds Lorentz/Poincare and internal-symmetry
group actions, applies passive/active/frame transformation laws to
sampled fields, extracts generators by differentiating parametrised group
families, and numerically verifies the resulting commutator identities.
"""

from .geometry import *
from .representations import *
from .fields import *
from .generators import *
from .heisenberg import *
from . import fields, generators, geometry, heisenberg, representations

__all__ = [*geometry.__all__, *representations.__all__, *fields.__all__, *generators.__all__, *heisenberg.__all__]
__version__ = "0.1.0"
