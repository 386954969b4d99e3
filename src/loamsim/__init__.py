"""loamsim: constellation design and SER simulation for amplitude-only receivers.

An envelope receiver observes z = |h*x + b + n| and loses the phase of the
incident field. This package designs the max-min-distance constellation for
that observation model (adapting to the channel gain h and the reference
signal b), provides PAM/QAM/PSK baselines, a nearest-magnitude detector,
exact verification oracles, and a deterministic parallel Monte-Carlo
symbol-error-rate engine.
"""

__version__ = "0.1.0"

# Each submodule's __all__ is its public interface; the package re-exports it.
from . import channel, constellations, detector, oracle, simulate
from .channel import *
from .constellations import *
from .detector import *
from .oracle import *
from .simulate import *

__all__ = ["__version__", *channel.__all__, *constellations.__all__, *detector.__all__,
           *oracle.__all__, *simulate.__all__]
