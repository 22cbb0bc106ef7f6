"""Exact-arithmetic construction and verification of the higher Capelli
identities: symmetric group matrix elements, Jucys-Murphy elements, Weyl
algebra operators, enveloping algebra elements and their normal-ordered
symbols, and algebra-valued tensors.
"""

from . import enveloping, identities, permutations, tableaux, tensors, weyl
from .enveloping import *  # noqa: F403
from .identities import *  # noqa: F403
from .permutations import *  # noqa: F403
from .tableaux import *  # noqa: F403
from .tensors import *  # noqa: F403
from .weyl import *  # noqa: F403

__all__ = sorted(
    {
        name
        for module in (enveloping, identities, permutations, tableaux, tensors, weyl)
        for name in module.__all__
    }
)
