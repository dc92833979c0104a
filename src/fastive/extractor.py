"""Fixed-point blind extraction of the dominant source.

A single demixing vector per frequency bin is driven to a nongaussianity
extremum of the broadband output ``y_t^k = w^k^H x~_t^k`` on whitened data.
Every iteration evaluates the shared frame power ``r_t = sum_k |y_t^k|^2``
once and then updates all bins simultaneously:

    w^k <- mean_t[G'(r_t) + |y_t^k|^2 G''(r_t)] * w^k
           - mean_t[conj(y_t^k) G'(r_t) x~_t^k]

followed by per-bin renormalization to unit length.  The iteration runs in
real arithmetic on the planar [K, 2R, T] whitened data (``stft`` defines
the layout), in two passes over the bins.  The first demixes (``demix``,
one BLAS call per bin) to the planar output ``y``, [K, 2, T], whose summed
squares are each bin's power.  Between the passes the power's column sums
give ``r``, and the prior is evaluated at it.  The second contracts each
bin's power with G''(r) to ``a``, in an ``einsum`` rather than a BLAS
matvec, scales ``y`` by G'(r) in place, and reads ``b`` off a second
batched matmul, the real Gram of the data with ``y``.  ``y`` and the power
are the only [K, T]-sized arrays an iteration makes.  Each iteration also
returns its step ``max_k (1 - |<w_new^k, w_old^k>|)``, which ignores the
irrelevant global phase per bin.

Within a pass every bin's arithmetic is its own, so ``solve`` splits both
passes over contiguous bin slices, one per CPU the process may run on
(``os.sched_getaffinity``, which ``taskset`` restricts) and at most one
per bin, on a thread pool that lives for the solve, when the whitened data
has at least ``SPLIT_MIN_ENTRIES`` (2^21) entries; below that a map is too
short to share out.  The result is bit-identical to a serial run.  No
BLAS call in a pass spans more than one bin: at long T, OpenBLAS would run
the [K, T] matvec on threads of its own, which would take the CPUs from
the split.

The solve accelerates this map with SQUAREM (Varadhan & Roland 2008),
which keeps its fixed points: each cycle is two plain maps and one at an
extrapolated point (``solve``).  The step length is global, but each bin
extrapolates no further than its own contraction ratio over the cycle
(Aitken's delta-squared), so a bin whose path curves or reverses is not
thrown past its limit by the step the other bins take.  A map is one
iteration, so
``iterations_used`` and the cost history count every map, the extrapolated
one included; the solve stops, converged, at the first map whose step is
below the tolerance, or unconverged after ``max_iter`` maps.

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

import contextlib
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import priors
from .stft import (AudioBuffer, StftConfig, analyze, check_int, check_number,
                   complex_gram, real_form, synthesize)
from .whitening import apply_whitener, build_whitener, estimate_covariance

DENOM_TOL = 1e-30
# entries (K 2R T) of whitened data from which ``solve`` splits its maps
SPLIT_MIN_ENTRIES = 2**21


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
        check_number(self.tol, "tol", above=0)
        check_int(self.ref_mic, "ref_mic", 0)
        if self.rank is not None:
            check_int(self.rank, "rank", 1)


@dataclass
class DemixState:
    """Where a solve stopped.

    w : [K, R] unit-norm demixing vectors on whitened data
    cost_history : the cost ``-E[G]`` at the input of each map ``solve``
        ran, in order, so its length is the number of maps
        (``iterations_used``)
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


def demix(white, w, out=None):
    """Demixed output ``y[k, t] = w^k^H x~[k, t]`` of planar whitened data,
    as the one-channel planar spectrum [K, 2, T] of its real and imaginary
    rows: one real batched matmul of the ``real_form`` of ``w^H`` with the
    [K, 2R, T] data, into ``out`` if given (as ``np.matmul``'s)."""
    return np.matmul(real_form(w.conj()[:, None, :]), white, out=out)


def _on_calling_thread(work):
    """Run ``work`` on one slice of every bin, on the calling thread."""
    work(slice(None))


@contextlib.contextmanager
def _bin_pool(white):
    """A ``pool`` for ``_update_terms``.  From ``SPLIT_MIN_ENTRIES`` entries
    of ``white`` on, it runs ``work`` at once on one contiguous bin slice per
    CPU the process may run on (``taskset`` restricts them), but on no more
    slices than bins, one thread each, while the calling thread waits;
    otherwise, or with one CPU, on the calling thread.  The executor starts
    no thread until a split pass submits work."""
    num_bins = white.shape[0]
    workers = 1
    if white.size >= SPLIT_MIN_ENTRIES and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), num_bins)
    slices = [slice(num_bins * i // workers, num_bins * (i + 1) // workers)
              for i in range(workers)]
    with ThreadPoolExecutor(workers) as executor:
        # reading every result raises here what a worker raised
        yield (_on_calling_thread if workers == 1
               else lambda work: list(executor.map(work, slices)))


def _update_terms(white, w, model, *, pool=_on_calling_thread):
    """Cost at w (the one place it is computed) and the (a, b) coefficients
    on planar whitened data; ``a`` and ``b`` contract over T with unit stride.
    ``-b`` is the cost's conjugate gradient: dC/du = -2 Re b, dC/dv = -2 Im b.

    ``pool(work)`` runs ``work(bins)`` over bin slices that cover every bin
    once, and returns when all are done; the default is one slice on the
    calling thread.  The two passes over the bins run through it: demixing
    with the per-bin power, then the ``a`` and ``b`` contractions.  Between
    them the calling thread sums the power to ``r`` and evaluates the prior.
    Both passes write into arrays made here, and no bin's arithmetic depends
    on the slice it falls in, so every split gives the same bits.  ``white``
    and ``w`` are only read."""
    num_bins, planes, num_frames = white.shape
    y = np.empty((num_bins, 2, num_frames))
    power = np.empty((num_bins, num_frames))
    acc = np.empty(num_bins)
    m = np.empty((num_bins, planes, 2))

    def demix_pass(bins):
        y_bins = demix(white[bins], w[bins], out=y[bins])
        np.einsum("kct,kct->kt", y_bins, y_bins, out=power[bins])

    pool(demix_pass)
    r = power.sum(axis=0)
    cost = float(-np.mean(priors.g(model, r)))
    gp = priors.g_prime(model, r)
    gpp = priors.g_double_prime(model, r)

    def contract_pass(bins):
        np.einsum("kt,t->k", power[bins], gpp, out=acc[bins])
        y_bins = y[bins]
        y_bins *= gp
        # the real Gram of the data with G' y, summed over t
        np.matmul(white[bins], y_bins.transpose(0, 2, 1), out=m[bins])

    pool(contract_pass)
    a = gp.mean() + acc / num_frames
    m /= num_frames
    return cost, a, complex_gram(m)[:, :, 0]


def iterate_once(white, w, model, *, pool=_on_calling_thread):
    """One simultaneous fixed-point update of all bins, with renormalization.

    Returns ``(w_new, cost, step)``: the updated [K, R] unit vectors, the
    objective at the incoming ``w``, and ``max_k (1 - |<w_new^k, w^k>|)``,
    which is >= 0 and blind to each bin's phase.  ``pool`` goes on to
    ``_update_terms``.
    """
    cost, a, b = _update_terms(white, w, model, pool=pool)
    w_new = a[:, None] * w - b
    norms = np.linalg.norm(w_new, axis=1)
    if np.any(norms == 0.0):
        k = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"degenerate update at bin {k}")
    w_new = w_new / norms[:, None]
    step = float(np.max(1.0 - np.abs(np.sum(w_new.conj() * w, axis=1))))
    return w_new, cost, step


def _extrapolate(w, w1, w2):
    """The SQUAREM point of a cycle from ``w`` through ``w1 = G(w)`` to
    ``w2 = G(w1)``: per bin, the normalized ``c_k^2 w - 2 c_k w1 + w2``.

    With ``r = w1 - w``, ``r2 = w2 - w1`` and ``v = r2 - r``, the global step
    is ``c = max(1 - ||v|| / ||r||, 0)``, and bin k takes
    ``c_k = clip(Re<r_k, r2_k> / ||r_k||^2, 0, c)`` (``c_k = 0`` if
    ``||r_k|| = 0``): Aitken's ratio of its own last two updates, capped at
    the global step.  A bin whose error shrinks by a ratio ``rho_k <= c``
    per map lands on its limit; one whose update reverses is not
    extrapolated.  ``c = 0`` returns ``w2`` itself."""
    r = w1 - w
    r2 = w2 - w1
    size_r = float(np.linalg.norm(r))
    size_v = float(np.linalg.norm(r2 - r))
    # w' / alpha^2 = c^2 w - 2 c w1 + w2 with c = 1 + 1 / alpha in [0, 1],
    # and each bin's c_k in [0, c]: no term overflows however long the step,
    # and the normalization drops the positive scale.  ||r|| = 0 or
    # ||v|| = 0 leaves no step to take, and ||v|| >= ||r|| a step c <= 0:
    # c = 0 (alpha = -1) gives w2
    if not 0.0 < size_v < size_r:
        return w2
    c = 1.0 - size_v / size_r
    power = np.einsum("kr,kr->k", r.conj(), r).real
    along = np.einsum("kr,kr->k", r.conj(), r2).real
    ratio = np.divide(along, power, out=np.zeros_like(power), where=power > 0.0)
    step = np.clip(ratio, 0.0, c)[:, None]
    w_ext = (step * step) * w - (2.0 * step) * w1 + w2
    norms = np.linalg.norm(w_ext, axis=1)
    zero = norms == 0.0
    w_ext[zero] = w2[zero]
    norms[zero] = 1.0
    return w_ext / norms[:, None]


def solve(white, config):
    """SQUAREM-accelerated fixed point on planar whitened [K, 2R, T] data,
    from the one-hot start ``w^k = e_1`` (the top principal component).

    The map G is ``iterate_once``'s update with each bin turned so that
    ``<w^k, G(w)^k>`` is real and non-negative (a bin orthogonal to its
    update is not turned): a stationary ``w`` is then a fixed point of G.
    A cycle maps ``w1 = G(w)`` and ``w2 = G(w1)``, takes ``r = w1 - w``,
    ``v = w2 - 2 w1 + w`` and one ``alpha = min(-||r|| / ||v||, -1)`` over
    all bins, and maps once more at the per-bin normalized
    ``w' = w - 2 alpha r + alpha^2 v`` (``alpha = -1`` gives ``w2``), each
    bin's step capped at its own contraction ratio over the cycle
    (``_extrapolate``).  That map's output goes on if its cost at ``w'`` is
    at least the cost at ``w1`` (E[G] did not rise), else ``w2`` does: both
    costs come with the maps.  Each map is one ``iterate_once`` call and
    one ``cost_history`` entry.  The solve stops, converged, at the first
    map whose step is below ``config.tol``, or unconverged after
    ``config.max_iter`` maps.  A zero row of the whitened data (a direction
    ``build_whitener`` dropped) stays zero in ``w``: the update has no
    component there, and the extrapolation combines vectors that are zero
    there."""
    num_bins, planes, _ = white.shape
    w = np.zeros((num_bins, planes // 2), dtype=np.complex128)
    w[:, 0] = 1.0
    costs = []
    with _bin_pool(white) as pool:
        def mapped(start):
            w_new, cost, step = iterate_once(white, start, config.prior, pool=pool)
            costs.append(cost)
            inner = np.einsum("kr,kr->k", start.conj(), w_new)
            size = np.abs(inner)
            phase = np.ones_like(inner)
            np.divide(inner.conj(), size, out=phase, where=size > 0.0)
            return w_new * phase[:, None], step < config.tol

        while True:
            w1, done = mapped(w)
            if done or len(costs) == config.max_iter:
                return DemixState(w1, done, costs)
            w2, done = mapped(w1)
            if done or len(costs) == config.max_iter:
                return DemixState(w2, done, costs)
            w3, done = mapped(_extrapolate(w, w1, w2))
            w = w3 if done or costs[-1] >= costs[-2] else w2
            if done or len(costs) == config.max_iter:
                return DemixState(w, done, costs)


def back_project(w, q):
    """Microphone-domain vectors ``w_eff = Q^H w``, [K, M], of whitener ``q``."""
    return np.einsum("krm,kr->km", q.conj(), w)


def estimate_mixing_vector(cov, w_eff):
    """Steering vector of the extracted source per bin, [K, M].

    ``h^k = C^k w_eff / (w_eff^H C^k w_eff)`` with ``C = cov``, the [K, M, M]
    original-domain covariance, so that ``x ~ h y + interference`` and
    ``h_m y`` is the source image at mic m.  Bins of zero trace (exactly
    silent) yield h = 0; bins with positive power but vanishing output power
    are an error.  That error guards direct callers only: ``extract`` cannot
    reach it, since its solve stays on the rows ``build_whitener`` keeps,
    where a unit ``w`` has output power ``w_eff^H C w_eff >= 1/2``.
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
