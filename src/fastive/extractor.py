"""Fixed-point blind extraction of the dominant source.

A single demixing vector per frequency bin is driven to a nongaussianity
extremum of the broadband output ``y_t^k = w^k^H x~_t^k`` on whitened data.
Every iteration evaluates the shared frame power ``r_t = sum_k |y_t^k|^2``
once and then updates all bins simultaneously:

    w^k <- mean_t[G'(r_t) + |y_t^k|^2 G''(r_t)] * w^k
           - mean_t[conj(y_t^k) G'(r_t) x~_t^k]

followed by per-bin renormalization to unit length.  The iteration runs in
real arithmetic on the planar [K, 2R, T] whitened data (``stft`` defines
the layout): a real batched ``np.matmul`` (one BLAS call per bin) gives the
real and imaginary rows of ``y``, [K, 2, T]; their summed squares are the
power, whose column sums are ``r`` and whose matvec with G''(r) is ``a``;
``y`` is scaled by G'(r) in place, and a second batched matmul of the data
with it gives the four real blocks of ``b``.  ``y`` and the power are the
only [K, T]-sized arrays an iteration makes.  Each iteration also
returns its step ``max_k (1 - |<w_new^k, w_old^k>|)``, which ignores the
irrelevant global phase per bin; the solve stops, converged, at the first
step below the tolerance, or unconverged after ``max_iter`` iterations.

The per-bin scaling left undetermined by the unit-norm constraint is
resolved by back-projecting into the microphone domain, estimating the
mixing (steering) vector of the extracted source from the original-domain
covariance, and scaling every bin by the conjugate of its reference-mic
entry ``h_ref`` (the one-unit scaling), so the output equals the source
image at a chosen reference microphone.  Like every stage of ``extract``,
these three pass plain arrays.  Since ``w_eff^H x = (Q^H w)^H x = w^H (Q x)``,
``extract`` demixes the output from the whitened data with the rescaled
[K, R] vectors, drops the spectrum once whitened and the whitened data once
demixed, and hands the one-channel planar output [K, 2, T] to ``synthesize``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import priors
from .stft import AudioBuffer, StftConfig, analyze, check_int, check_number, synthesize
from .whitening import apply_whitener, build_whitener, estimate_covariance

DENOM_TOL = 1e-30


@dataclass(frozen=True)
class SolverConfig:
    prior: priors.ContrastModel = field(default_factory=priors.ContrastModel)
    max_iter: int = 100
    tol: float = 1e-6
    ref_mic: int = 0
    # principal components kept by whitening; None keeps all
    rank: int | None = None

    def __post_init__(self):
        if not isinstance(self.prior, priors.ContrastModel):
            raise ValueError(f"prior must be a ContrastModel, got {self.prior!r}")
        check_int(self.max_iter, "max_iter", 1)
        if not 0 < check_number(self.tol, "tol") < np.inf:
            raise ValueError("tol must be positive and finite")
        check_int(self.ref_mic, "ref_mic", 0)
        if self.rank is not None:
            check_int(self.rank, "rank", 1)


@dataclass
class DemixState:
    """Where a solve stopped.

    w : [K, R] unit-norm demixing vectors on whitened data
    cost_history : objective value at the start of each iteration run
    """

    w: np.ndarray
    converged: bool
    cost_history: list


# stages of ``extract`` in call order, the keys of ExtractionResult.timings
# (seconds); "rescale" runs back_project through rescale, "synthesize"
# demixing from the whitened data and the inverse STFT
STAGES = ("analyze", "covariance", "build_whitener", "whiten", "solve",
          "rescale", "synthesize")


@dataclass
class ExtractionResult:
    audio: AudioBuffer
    state: DemixState
    runtime_seconds: float
    iterations_used: int
    timings: dict = field(default_factory=dict)


def demix(white, w):
    """Demixed output ``y[k, t] = w^k^H x~[k, t]`` of planar whitened data,
    as the one-channel planar spectrum [K, 2, T] of its real and imaginary
    rows: one real batched matmul of the rows ``[Re w, Im w]`` and
    ``[-Im w, Re w]`` with the [K, 2R, T] data."""
    rows = np.stack([np.concatenate([w.real, w.imag], axis=1),
                     np.concatenate([-w.imag, w.real], axis=1)], axis=1)
    return np.matmul(rows, white)


def _update_terms(white, w, model):
    """Cost at w (the one place it is computed) and the (a, b) coefficients
    on planar whitened data; ``a`` and ``b`` contract over T with unit stride.
    ``-b`` is the cost's conjugate gradient: dC/du = -2 Re b, dC/dv = -2 Im b.

    ``y``, which ``demix`` returns fresh, is scaled by G' in place; ``white``
    and ``w`` are only read."""
    rank = w.shape[1]
    num_frames = white.shape[2]
    y = demix(white, w)
    power = np.einsum("kct,kct->kt", y, y)
    r = power.sum(axis=0)
    cost = float(-np.mean(priors.g(model, r)))
    gp = priors.g_prime(model, r)
    gpp = priors.g_double_prime(model, r)
    a = gp.mean() + power @ gpp / num_frames
    y *= gp
    # blocks [[Re x.Re y, Re x.Im y], [Im x.Re y, Im x.Im y]] of sum_t G' x y
    m = np.matmul(white, y.transpose(0, 2, 1)) / num_frames
    b = (m[:, :rank, 0] + m[:, rank:, 1]) + 1j * (m[:, rank:, 0] - m[:, :rank, 1])
    return cost, a, b


def iterate_once(white, w, model):
    """One simultaneous fixed-point update of all bins, with renormalization.

    Returns ``(w_new, cost, step)``: the updated [K, R] unit vectors, the
    objective at the incoming ``w``, and ``max_k (1 - |<w_new^k, w^k>|)``,
    which is >= 0 and blind to each bin's phase.
    """
    cost, a, b = _update_terms(white, w, model)
    w_new = a[:, None] * w - b
    norms = np.linalg.norm(w_new, axis=1)
    if np.any(norms == 0.0):
        k = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"degenerate update at bin {k}")
    w_new = w_new / norms[:, None]
    step = float(np.max(1.0 - np.abs(np.sum(w_new.conj() * w, axis=1))))
    return w_new, cost, step


def solve(white, config):
    """Iterate on planar whitened [K, 2R, T] data from the one-hot start
    ``w^k = e_1`` (the top principal component per bin) until a step falls
    below ``config.tol`` or ``config.max_iter`` steps are taken."""
    num_bins, planes, _ = white.shape
    w = np.zeros((num_bins, planes // 2), dtype=np.complex128)
    w[:, 0] = 1.0
    costs = []
    for _ in range(config.max_iter):
        w, cost, step = iterate_once(white, w, config.prior)
        costs.append(cost)
        if step < config.tol:
            return DemixState(w, True, costs)
    return DemixState(w, False, costs)


def back_project(w, q):
    """Microphone-domain vectors ``w_eff = Q^H w``, [K, M], of whitener ``q``."""
    return np.einsum("krm,kr->km", q.conj(), w)


def estimate_mixing_vector(cov, w_eff):
    """Steering vector of the extracted source per bin, [K, M].

    ``h^k = C^k w_eff / (w_eff^H C^k w_eff)`` with ``C = cov``, the [K, M, M]
    original-domain covariance, so that ``x ~ h y + interference`` and
    ``h_m y`` is the source image at mic m.  Bins of zero trace (exactly
    silent) yield h = 0; bins with positive power but vanishing output power
    are an error.
    """
    cw = np.einsum("kmn,kn->km", cov, w_eff)
    denom = np.einsum("km,km->k", w_eff.conj(), cw).real
    trace = np.einsum("kmm->k", cov).real
    silent = trace == 0.0
    # denom <= ||w_eff||^2 trace, so this ratio test is blind to the input gain
    norm2 = np.linalg.norm(w_eff, axis=1) ** 2
    bad = ~silent & (denom <= DENOM_TOL * norm2 * trace)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        raise ValueError(f"degenerate output power at bin {k}")
    h = np.zeros_like(w_eff)
    ok = ~silent
    h[ok] = cw[ok] / denom[ok, None]
    return h


def rescale(w, h, ref_mic):
    """Fix the per-bin scale so the output is the source image at ``ref_mic``.

    Returns ``w^k`` multiplied by ``conj(h^k[ref_mic])`` in every bin; the
    demixed output then equals ``h_ref y``, whether ``w`` demixes the
    spectrum (``w_eff``) or the whitened data.  Where the reference mic does
    not hear the source, ``h_ref`` and so the output are about zero, as the
    image there is.
    """
    num_mics = h.shape[1]
    if not 0 <= ref_mic < num_mics:
        raise ValueError(f"ref_mic {ref_mic} out of range for {num_mics} mics")
    return w * h[:, ref_mic, None].conj()


def extract(audio, config=None, stft_config=None):
    """Full pipeline: STFT, whitening, fixed-point solve, rescale, inverse STFT.

    ``runtime_seconds`` is the wall time of the whole call; ``timings``
    holds every stage's, which sum to it less the input checks.

    Returns an ExtractionResult whose audio is the estimated source image
    at ``config.ref_mic``.
    """
    start = time.perf_counter()
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
    # the analysed power, not the raw samples: the frames may not reach them
    if not np.any(cov[:, config.ref_mic, config.ref_mic]):
        raise ValueError(f"reference channel {config.ref_mic} is silent: "
                         "its source image is zero")
    marks.append(time.perf_counter())
    q = build_whitener(cov, rank=config.rank)
    marks.append(time.perf_counter())
    white = apply_whitener(spec, q)
    del spec
    marks.append(time.perf_counter())
    state = solve(white, config)
    marks.append(time.perf_counter())
    h = estimate_mixing_vector(cov, back_project(state.w, q))
    w = rescale(state.w, h, config.ref_mic)
    marks.append(time.perf_counter())
    y = demix(white, w)
    del white
    out_audio = synthesize(y, stft_config, audio.sample_rate_hz)
    marks.append(time.perf_counter())
    timings = {stage: marks[i + 1] - marks[i] for i, stage in enumerate(STAGES)}
    return ExtractionResult(
        audio=out_audio,
        state=state,
        runtime_seconds=marks[-1] - start,
        iterations_used=len(state.cost_history),
        timings=timings,
    )
