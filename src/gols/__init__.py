"""Adaptive SGD step sizes via gradient-only and function-value line searches.

The package re-exports the public names of its modules; each module's
``__all__`` is the one list of them.
"""

from gols import analysis, data, linesearch, net, probe, trainer
from gols.analysis import *  # noqa: F401,F403
from gols.data import *  # noqa: F401,F403
from gols.linesearch import *  # noqa: F401,F403
from gols.net import *  # noqa: F401,F403
from gols.probe import *  # noqa: F401,F403
from gols.trainer import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (analysis, data, linesearch, net, probe, trainer)
           for name in module.__all__]
