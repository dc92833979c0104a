"""fastive: blind extraction of the dominant speaker from multichannel audio.

Fixed-point independent vector extraction in the STFT domain with
selectable super-Gaussian priors, plus a shoebox room simulator and a
projection-based evaluation harness for batch experiments.
"""

__version__ = "0.1.0"

from .stft import (  # noqa: F401
    AudioBuffer,
    StftConfig,
    analyze,
    load_wav,
    save_wav,
    synthesize,
)
from .priors import (  # noqa: F401
    ContrastModel,
    g,
    g_double_prime,
    g_prime,
)
from .whitening import (  # noqa: F401
    apply_whitener,
    build_whitener,
    estimate_covariance,
)
from .extractor import (  # noqa: F401
    DemixState,
    ExtractionResult,
    SolverConfig,
    apply_demixer,
    back_project,
    estimate_mixing_vector,
    extract,
    iterate_once,
    rescale,
    solve,
)
from .roomsim import (  # noqa: F401
    MixtureSet,
    RoomSpec,
    Scenario,
    compute_rirs,
    default_geometry,
    render,
    speech_like_sources,
)
from .metrics import (  # noqa: F401
    EvalReport,
    aggregate,
    decompose,
    evaluate,
    sir_db,
)
