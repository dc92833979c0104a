"""Per-frequency-bin covariance estimation and PCA whitening.

The whitener for bin k is ``Q^k = diag(d)^(-1/2) @ U^H`` built from the
eigendecomposition of the (regularized) spatial covariance, so that
``Q^k C^k Q^k^H = I`` and the retained components are ordered by power.
All bins are decomposed by one batched LAPACK call (``np.linalg.eigh``);
its ascending output read in reverse and a fixed phase convention make the
eigenvectors reproducible bit-for-bit across runs.  The whitener is a plain
[K, R, M] array: row i of ``Q^k`` is ``d_i^(-1/2) u_i^H``, so each retained
eigenpair is recoverable from it as ``d_i = 1 / ||q_i||^2`` and
``u_i = q_i^H sqrt(d_i)``.
Spectra are plain complex arrays [K bins, T frames, M channels], as
``stft.analyze`` returns them.  Covariance and whitening are batched
``np.matmul`` calls (one BLAS call per bin); whitened data is stored
frame-contiguous as [K, R, T] and returned as its [K, T, R] transposed view,
so contractions over T run with unit stride.
"""

from __future__ import annotations

import numpy as np

# relative diagonal shift applied before decomposition, plus an absolute
# floor so even an exactly silent bin yields a finite d**(-1/2)
EPS_COV_REL = 1e-10
EPS_COV_ABS = 1e-30


def estimate_covariance(x):
    """Sample covariance per bin, [K, M, M], of a [K, T, M] spectrum; >= 2 frames.

    Uses the 1/T convention (``C^k = x^k^T conj(x^k) / T`` with ``x^k`` the
    [T, M] frames of bin k, one batched matmul) and re-symmetrizes to be
    exactly Hermitian.  A spectrum whose power overflows float64 is an error.
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
    return 0.5 * (cov + cov.conj().transpose(0, 2, 1))


def build_whitener(cov, rank=None):
    """Whitening matrices ``Q``, [K, R, M], for every bin of a [K, M, M]
    covariance stack; row i of ``Q^k`` is ``d_i^(-1/2) u_i^H``.

    ``rank`` selects how many principal components to keep (default: all).
    A diagonal shift of ``EPS_COV_REL * trace/M + EPS_COV_ABS`` guards the
    inverse square root against silent and rank-deficient bins.  Every bin
    must be square and Hermitian to ``1e-8 * max(||C_k||, 1)``.

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
    skew = np.linalg.norm(cov - cov_h, axis=(1, 2))
    if np.any(skew > 1e-8 * np.maximum(np.linalg.norm(cov, axis=(1, 2)), 1.0)):
        raise ValueError("matrix is not Hermitian")

    shift = EPS_COV_REL * np.trace(cov, axis1=1, axis2=2).real / m + EPS_COV_ABS
    vals, vecs = np.linalg.eigh(0.5 * (cov + cov_h) + shift[:, None, None] * np.eye(m))
    eigvals = np.maximum(vals[:, ::-1], EPS_COV_ABS)
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

    Output has ``rank`` channels: ``out[k, t] = Q^k @ x[k, t]`` for the
    [K, R, M] whitener ``q``, computed as one batched matmul ``Q^k @ x^k^T``
    into a contiguous [K, R, T] array and returned as its [K, T, R]
    transposed view.
    """
    if x.shape[0] != q.shape[0]:
        raise ValueError(
            f"bin count mismatch: spectrum {x.shape[0]}, whitener {q.shape[0]}"
        )
    if x.shape[2] != q.shape[2]:
        raise ValueError(
            f"channel mismatch: spectrum {x.shape[2]}, whitener {q.shape[2]}"
        )
    return np.matmul(q, x.transpose(0, 2, 1)).transpose(0, 2, 1)
