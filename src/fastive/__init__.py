"""fastive: blind extraction of the dominant speaker from multichannel audio.

Fixed-point independent vector extraction in the STFT domain with
selectable super-Gaussian priors, plus a shoebox room simulator and a
projection-based evaluation harness for batch experiments.

The package exports the API that the README calls as ``fv.*``; every stage
function (``analyze``, ``build_whitener``, ``iterate_once``, ``decompose``,
...) is imported from its module.
"""

__version__ = "0.1.0"

from .stft import AudioBuffer, StftConfig, load_wav, save_wav  # noqa: F401
from .priors import ContrastModel  # noqa: F401
from .extractor import SolverConfig, extract  # noqa: F401
from .roomsim import compute_rirs, render  # noqa: F401
from .metrics import evaluate  # noqa: F401
