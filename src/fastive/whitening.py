"""Per-frequency-bin covariance estimation and PCA whitening.

The whitener for bin k is ``Q^k = diag(d)^(-1/2) @ U^H`` built from the
eigendecomposition of the spatial covariance, shifted by a fraction of its
trace, so that ``Q^k C^k Q^k^H = I`` and the retained components are ordered
by power.  No tolerance is an absolute power, so ``Q`` scales as 1/sqrt(gain).
All bins are decomposed by one batched LAPACK call (``np.linalg.eigh``);
its ascending output read in reverse and a fixed phase convention make the
eigenvectors reproducible bit-for-bit across runs.  The whitener is a plain
[K, R, M] array: row i of ``Q^k`` is ``d_i^(-1/2) u_i^H``, so each retained
eigenpair is recoverable from it as ``d_i = 1 / ||q_i||^2`` and
``u_i = q_i^H sqrt(d_i)``.
Spectra are plain complex arrays [K bins, T frames, M channels], as
``stft.analyze`` returns them.  Covariance and whitening are batched
``np.matmul`` calls (one BLAS call per bin).  Whitened data is planar real,
[K, 2R, T] float64: per bin, the R rows of real parts over the frames, then
the R rows of imaginary parts, so the solver runs in real arithmetic and its
contractions over T have unit stride.
"""

from __future__ import annotations

import numpy as np

# diagonal shift applied before decomposition, relative to each bin's mean
# channel power; no absolute power enters, so the whitener scales with the input
EPS_COV_REL = 1e-10

# bins whitened per batched matmul; bounds the complex temporary that
# ``apply_whitener`` splits into the planar output
WHITEN_BLOCK_BINS = 64


def estimate_covariance(x):
    """Sample covariance per bin, [K, M, M], of a [K, T, M] spectrum; >= 2 frames.

    Uses the 1/T convention (``C^k = x^k^T conj(x^k) / T`` with ``x^k`` the
    [T, M] frames of bin k, one batched matmul) and re-symmetrizes to be
    exactly Hermitian.  A spectrum whose power overflows float64 is an error,
    as is one whose loudest bin's shift in ``build_whitener`` would not be a
    normal float; an all-zero spectrum is silence, not underflow.
    """
    if x.ndim != 3:
        raise ValueError(f"spectrum must be [K, T, M], got shape {x.shape}")
    num_frames = x.shape[1]
    if num_frames < 2:
        raise ValueError(f"insufficient frames: got {num_frames}, need >= 2")
    with np.errstate(over="ignore", invalid="ignore"):
        cov = np.matmul(x.transpose(0, 2, 1), x.conj()) / num_frames
    if not np.all(np.isfinite(cov)):
        raise ValueError("spectrum power overflows float64: scale the input down")
    # EPS_COV_REL * loudest / M below the smallest normal, without underflow
    loudest = np.einsum("kmm->k", cov).real.max(initial=0.0)
    if (loudest < np.finfo(np.float64).tiny * x.shape[2] / EPS_COV_REL
            and (loudest > 0.0 or np.any(x))):
        raise ValueError("spectrum power underflows float64: scale the input up")
    return 0.5 * (cov + cov.conj().transpose(0, 2, 1))


def build_whitener(cov, rank=None):
    """Whitening matrices ``Q``, [K, R, M], for every bin of a [K, M, M]
    covariance stack; row i of ``Q^k`` is ``d_i^(-1/2) u_i^H``.

    ``rank`` selects how many principal components to keep (default: all).
    A diagonal shift of ``EPS_COV_REL * trace/M`` guards the inverse square
    root against rank-deficient bins, and a clamp of the eigenvalues at
    float64's smallest normal against exactly silent ones.  Every bin must be
    square, and Hermitian to 1e-8 of its largest entry, entry by entry.

    Eigenvalues come out descending (ties in the reverse of ``eigh``'s order).
    Each eigenvector's largest-magnitude component (first occurrence on ties)
    is made real and positive, so the decomposition is deterministic.
    """
    cov = np.asarray(cov, dtype=np.complex128)
    if cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
        raise ValueError(f"matrix must be square, got shape {cov.shape}")
    m = cov.shape[1]
    if rank is None:
        rank = m
    if not 1 <= rank <= m:
        raise ValueError(f"rank must be in [1, {m}], got {rank}")
    cov_h = cov.conj().transpose(0, 2, 1)
    skew = np.abs(cov - cov_h).max(axis=(1, 2))
    if np.any(skew > 1e-8 * np.abs(cov).max(axis=(1, 2))):
        raise ValueError("matrix is not Hermitian")

    shift = EPS_COV_REL * np.trace(cov, axis1=1, axis2=2).real / m
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov_h) + shift[:, None, None] * np.eye(m))
    eigvals = np.maximum(vals[:, ::-1], np.finfo(np.float64).tiny)
    eigvecs = vecs[:, :, ::-1]
    # deterministic phase: largest-magnitude component real positive
    peak = np.argmax(np.abs(eigvecs), axis=1)[:, None, :]
    phase = np.take_along_axis(eigvecs, peak, axis=1)
    eigvecs *= phase.conj() / np.abs(phase)
    return (
        eigvals[:, :rank, None] ** -0.5 * eigvecs[:, :, :rank].conj().transpose(0, 2, 1)
    )


def apply_whitener(x, q):
    """Project a [K, T, M] spectrum onto its whitened principal components.

    Returns the planar [K, 2R, T] float64 array of ``Q^k @ x^k^T`` for the
    [K, R, M] whitener ``q``: rows ``:R`` of bin k hold the real parts and
    rows ``R:`` the imaginary parts.  It is built ``WHITEN_BLOCK_BINS`` bins
    at a time, each block one batched complex matmul split into the output.
    """
    if x.shape[0] != q.shape[0]:
        raise ValueError(
            f"bin count mismatch: spectrum {x.shape[0]}, whitener {q.shape[0]}"
        )
    if x.shape[2] != q.shape[2]:
        raise ValueError(
            f"channel mismatch: spectrum {x.shape[2]}, whitener {q.shape[2]}"
        )
    num_bins, num_frames, _ = x.shape
    rank = q.shape[1]
    out = np.empty((num_bins, 2 * rank, num_frames))
    for start in range(0, num_bins, WHITEN_BLOCK_BINS):
        block = slice(start, start + WHITEN_BLOCK_BINS)
        z = np.matmul(q[block], x[block].transpose(0, 2, 1))
        out[block, :rank] = z.real
        out[block, rank:] = z.imag
    return out
