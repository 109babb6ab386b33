"""Exact symbolic computation in Leavitt path algebras.

Graphs and paths, normal-form arithmetic over exact coefficient rings,
standard group gradings with homogeneous decomposition, the per-degree
local identities with certificates, grading-property checkers, and
Frobenius systems for finite grading groups.

Each module's ``__all__`` is its public API; the package exports their union.
"""

from . import algebra, epsilon, frobenius, grading, graph, reports, rings, sampling

# Read before the star imports below, which rebind ``epsilon`` to the function.
__all__ = [
    name
    for module in (algebra, epsilon, frobenius, grading, graph, reports, rings, sampling)
    for name in module.__all__
] + ["__version__"]

from .algebra import *
from .epsilon import *
from .frobenius import *
from .grading import *
from .graph import *
from .reports import *
from .rings import *
from .sampling import *

__version__ = "0.1.0"
