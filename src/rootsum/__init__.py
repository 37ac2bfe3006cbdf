"""Derivative sums of geometric polynomials at roots of unity mod n.

The library evaluates S(n, k, alpha), the k-th derivative of
1 + t + ... + t^(n-1) at t = alpha, decides its divisibility by n from the
arithmetic of k+1, n and alpha alone, and verifies that criterion
exhaustively against direct summation.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them in module order.
"""

from . import criterion, derivsum, falling, harness, numtheory
from .numtheory import *
from .falling import *
from .derivsum import *
from .criterion import *
from .harness import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numtheory.__all__,
    *falling.__all__,
    *derivsum.__all__,
    *criterion.__all__,
    *harness.__all__,
]
