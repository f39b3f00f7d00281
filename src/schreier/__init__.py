"""Free groups acting on finite sets.

Words over a finite alphabet form a free group under free reduction.  A
permutation of each generator extends to an action of the whole group;
the stabilizer of a basepoint is itself free, and this package computes
everything that statement promises: a prefix closed transversal of
shortlex least coset representatives, a free basis of the stabilizer,
rewriting of stabilizer elements over that basis, and the action of the
whole group induced from an action of the stabilizer on its basis.
"""

from . import actions, basis, checks, cosets, induce, rewrite, words

# Each module's __all__ is the one list of its public names.  Read them
# before the star imports, which rebind ``induce`` and ``rewrite`` here
# from the submodules to the functions of the same names.
__all__ = [name for module in (actions, basis, checks, cosets, induce, rewrite, words)
           for name in module.__all__]

from .actions import *  # noqa: E402,F403
from .basis import *  # noqa: E402,F403
from .checks import *  # noqa: E402,F403
from .cosets import *  # noqa: E402,F403
from .induce import *  # noqa: E402,F403
from .rewrite import *  # noqa: E402,F403
from .words import *  # noqa: E402,F403

__version__ = "0.1.0"
