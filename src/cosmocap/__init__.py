"""cosmocap: dimension-checked, overflow-proof limits of computation.

The library answers questions of the form "how many operations and how
many bits does physics allow this system" for anything from a laptop to
the observable universe, keeping every intermediate number in signed
log10 form with exact rational dimension exponents.  Each module's
``__all__`` is its public surface; the package re-exports them all.
"""

from .baseline import *  # noqa: F403
from .bounds import *  # noqa: F403
from .constants import *  # noqa: F403
from .cosmo import *  # noqa: F403
from .dimq import *  # noqa: F403
from .largenum import *  # noqa: F403

__version__ = "0.1.0"
