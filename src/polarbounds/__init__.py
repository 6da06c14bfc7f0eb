"""Polar decompositions, a structured Sylvester solver, and norm bounds.

The package computes generalized polar decompositions ``A = U |A|`` of
arbitrary complex matrices, solves ``A X + X B = A C + D B`` for Hermitian
PSD coefficients, encloses ``||X||_F`` by several computable bounds, and
bounds how far both polar factors can move under two-sided multiplicative
perturbations ``B = D1* A D2``.
"""

from .bounds import *
from .exceptions import *
from .experiments import *
from .matrixcore import *
from .perturb import *
from .polar import *
from .sylvester import *

__version__ = "0.1.0"

# The package exports exactly what its modules export.
__all__ = ["__version__"]
__all__ += bounds.__all__
__all__ += exceptions.__all__
__all__ += experiments.__all__
__all__ += matrixcore.__all__
__all__ += perturb.__all__
__all__ += polar.__all__
__all__ += sylvester.__all__
