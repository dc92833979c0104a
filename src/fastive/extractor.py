"""Fixed-point blind extraction of the dominant source.

A single demixing vector per frequency bin is driven to a nongaussianity
extremum of the broadband output ``y_t^k = w^k^H x~_t^k`` on whitened data.
Every iteration evaluates the shared frame power ``r_t = sum_k |y_t^k|^2``
once and then updates all bins simultaneously:

    w^k <- mean_t[G'(r_t) + |y_t^k|^2 G''(r_t)] * w^k
           - mean_t[conj(y_t^k) G'(r_t) x~_t^k]

followed by per-bin renormalization to unit length.  The contractions over
frames (``y``, ``b`` and the output) are batched ``np.matmul`` calls, one
BLAS call per bin, on the frame-contiguous [K, R, T] whitened data; ``a`` is
a matvec of the per-bin power with G''.  Convergence is declared when
``max_k (1 - |<w_new^k, w_old^k>|)`` drops below the tolerance, which
ignores the irrelevant global phase per bin.

The per-bin scaling left undetermined by the unit-norm constraint is
resolved by back-projecting into the microphone domain, estimating the
mixing (steering) vector of the extracted source from the original-domain
covariance, and rescaling so the output equals the source image at a chosen
reference microphone.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import priors
from .stft import AudioBuffer, Spectrogram, StftConfig, analyze, synthesize
from .whitening import (
    EPS_COV_ABS,
    apply_whitener,
    build_whitener,
    estimate_covariance,
)

# |h_ref| below this fraction of ||h|| means the source is essentially
# unobservable at the reference mic; rescaling is skipped for such bins
REF_OBSERVABILITY_TOL = 1e-12

DENOM_TOL = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    prior: priors.ContrastModel = field(default_factory=priors.ContrastModel)
    max_iter: int = 100
    tol: float = 1e-6
    ref_mic: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.ref_mic < 0:
            raise ValueError("ref_mic must be nonnegative")


@dataclass
class DemixState:
    """Solver state.

    w : [K, R] unit-norm demixing vectors on whitened data
    w_effective : [K, M] microphone-domain vectors, set by back_project
    cost_history : objective value at the start of each iteration
    """

    w: np.ndarray
    w_effective: np.ndarray | None = None
    iteration: int = 0
    converged: bool = False
    cost_history: list = field(default_factory=list)


# stages of ``extract`` in call order, the keys of ExtractionResult.timings
# (seconds); "rescale" runs back_project through rescale, "synthesize" the
# output demixing and the inverse STFT
STAGES = ("analyze", "covariance", "build_whitener", "whiten", "solve",
          "rescale", "synthesize")


@dataclass
class ExtractionResult:
    audio: AudioBuffer
    state: DemixState
    runtime_seconds: float
    iterations_used: int
    timings: dict = field(default_factory=dict)


def apply_demixer(spec, w):
    """Demixed output ``y[k, t] = w^k^H x[k, t]`` as a [K, T] array, one
    batched matmul over the [K, M, T] transpose of ``spec.data``."""
    return np.matmul(w.conj()[:, None, :], spec.data.transpose(0, 2, 1))[:, 0, :]


def _update_terms(white_spec, w, model):
    """Cost at w (the one place it is computed) and the (a, b) coefficients;
    ``a`` and ``b`` contract over T, with unit stride on ``apply_whitener`` output.
    ``-b`` is the cost's conjugate gradient: dC/du = -2 Re b, dC/dv = -2 Im b."""
    x = white_spec.data.transpose(0, 2, 1)
    num_frames = x.shape[2]
    y = apply_demixer(white_spec, w)
    power = np.abs(y) ** 2
    r = power.sum(axis=0)
    cost = float(-np.mean(priors.g(model, r)))
    gp = priors.g_prime(model, r)
    gpp = priors.g_double_prime(model, r)
    a = gp.mean() + power @ gpp / num_frames
    b = np.matmul(x, (y.conj() * gp)[:, :, None])[:, :, 0] / num_frames
    return cost, a, b


def iterate_once(white_spec, state, model):
    """One simultaneous fixed-point update of all bins, with renormalization.

    Returns a new DemixState; the incoming objective value is appended to
    the cost history.
    """
    cost, a, b = _update_terms(white_spec, state.w, model)
    w_new = a[:, None] * state.w - b
    norms = np.linalg.norm(w_new, axis=1)
    if np.any(norms == 0.0):
        k = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"degenerate update at bin {k}")
    w_new = w_new / norms[:, None]
    return DemixState(
        w=w_new,
        w_effective=state.w_effective,
        iteration=state.iteration + 1,
        converged=state.converged,
        cost_history=state.cost_history + [cost],
    )


def convergence_delta(w_new, w_old):
    """``max_k (1 - |<w_new^k, w_old^k>|)``; phase-invariant, >= 0 for unit vectors."""
    inner = np.abs(np.sum(w_new.conj() * w_old, axis=1))
    return float(np.max(1.0 - inner))


def solve(white_spec, config):
    """Iterate from the one-hot start ``w^k = e_1`` (the top principal
    component per bin) until converged or max_iter."""
    state = DemixState(w=np.zeros((white_spec.num_bins, white_spec.num_channels),
                                  dtype=np.complex128))
    state.w[:, 0] = 1.0
    for _ in range(config.max_iter):
        new_state = iterate_once(white_spec, state, config.prior)
        delta = convergence_delta(new_state.w, state.w)
        state = new_state
        if delta < config.tol:
            state.converged = True
            break
    return state


def back_project(state, bank):
    """Compose the whitener into microphone-domain vectors ``w_eff = Q^H w``."""
    w_eff = np.einsum("krm,kr->km", bank.whitener.conj(), state.w)
    return replace(state, w_effective=w_eff)


def estimate_mixing_vector(cov_bank, state):
    """Steering vector of the extracted source per bin, [K, M].

    ``h^k = C^k w_eff / (w_eff^H C^k w_eff)`` with the original-domain
    covariance, so that ``x ~ h y + interference`` and ``h_m y`` is the
    source image at mic m.  Exactly silent bins yield h = 0; bins with
    positive power but vanishing output power are an error.
    """
    if state.w_effective is None:
        raise ValueError("back_project must run before estimate_mixing_vector")
    cov = cov_bank.cov
    w_eff = state.w_effective
    cw = np.einsum("kmn,kn->km", cov, w_eff)
    denom = np.einsum("km,km->k", w_eff.conj(), cw).real
    trace = np.einsum("kmm->k", cov).real
    silent = trace <= EPS_COV_ABS
    bad = ~silent & (denom <= DENOM_TOL * trace)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"degenerate output power at bin {k}")
    h = np.zeros_like(w_eff)
    ok = ~silent
    h[ok] = cw[ok] / denom[ok, None]
    return h


def rescale(state, h, ref_mic):
    """Fix the per-bin scale so the output is the source image at ``ref_mic``.

    Multiplies ``w_eff^k`` by ``conj(h^k[ref_mic])``; the demixed output
    ``w_eff^H x`` then equals ``h_ref y``.  Bins where the source is nearly
    unobservable at the reference mic (|h_ref| below 1e-12 of ||h||) are
    left unscaled with a warning.
    """
    if state.w_effective is None:
        raise ValueError("back_project must run before rescale")
    num_mics = h.shape[1]
    if not 0 <= ref_mic < num_mics:
        raise ValueError(f"ref_mic {ref_mic} out of range for {num_mics} mics")
    href = h[:, ref_mic]
    hnorm = np.linalg.norm(h, axis=1)
    unobservable = np.abs(href) < REF_OBSERVABILITY_TOL * hnorm
    if np.any(unobservable):
        warnings.warn(
            f"source nearly unobservable at reference mic {ref_mic} in "
            f"{int(unobservable.sum())} bins; scale left unchanged there",
            RuntimeWarning,
        )
    scale = href.conj().copy()
    scale[unobservable] = 1.0
    return replace(state, w_effective=state.w_effective * scale[:, None])


def extract(audio, config=None, stft_config=None, rank=None):
    """Full pipeline: STFT, whitening, fixed-point solve, rescale, inverse STFT.

    ``runtime_seconds`` covers the algorithm core (solve through rescale),
    excluding transforms and I/O; ``timings`` holds every stage's wall time.

    Returns an ExtractionResult whose audio is the estimated source image
    at ``config.ref_mic``.
    """
    config = config or SolverConfig()
    stft_config = stft_config or StftConfig()
    if audio.num_channels < 2:
        raise ValueError(f"need >= 2 channels, got {audio.num_channels}")
    if config.ref_mic >= audio.num_channels:
        raise ValueError(
            f"ref_mic {config.ref_mic} out of range for {audio.num_channels} channels"
        )
    # marks[i] is the clock at the start of STAGES[i]
    marks = [time.perf_counter()]
    spec = analyze(audio, stft_config)
    marks.append(time.perf_counter())
    cov = estimate_covariance(spec)
    marks.append(time.perf_counter())
    bank = build_whitener(cov, rank=rank)
    marks.append(time.perf_counter())
    white = apply_whitener(spec, bank)
    marks.append(time.perf_counter())
    state = solve(white, config)
    marks.append(time.perf_counter())
    state = back_project(state, bank)
    h = estimate_mixing_vector(cov, state)
    state = rescale(state, h, config.ref_mic)
    marks.append(time.perf_counter())
    out = apply_demixer(spec, state.w_effective)
    out_spec = Spectrogram(out[:, :, None], stft_config, spec.sample_rate_hz)
    out_audio = synthesize(out_spec)
    marks.append(time.perf_counter())
    timings = {stage: marks[i + 1] - marks[i] for i, stage in enumerate(STAGES)}
    return ExtractionResult(
        audio=out_audio,
        state=state,
        runtime_seconds=timings["solve"] + timings["rescale"],
        iterations_used=state.iteration,
        timings=timings,
    )
