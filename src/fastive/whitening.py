"""Per-frequency-bin covariance estimation and PCA whitening.

The whitener for bin k is ``Q^k = diag(d)^(-1/2) @ U^H`` built from the
eigendecomposition of the (regularized) spatial covariance, so that
``Q^k C^k Q^k^H = I`` and the retained components are ordered by power.
All bins are decomposed by one batched LAPACK call (``np.linalg.eigh``);
a stable descending sort and a fixed phase convention on top of it make the
eigenvectors reproducible bit-for-bit across runs.
Covariance and whitening are batched ``np.matmul`` calls (one BLAS call
per bin); whitened data is stored frame-contiguous as [K, R, T] and exposed
as its [K, T, R] transpose, so contractions over T run with unit stride.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import Spectrogram

# relative diagonal shift applied before decomposition, plus an absolute
# floor so even an exactly silent bin yields a finite d**(-1/2)
EPS_COV_REL = 1e-10
EPS_COV_ABS = 1e-30


@dataclass
class CovarianceBank:
    """Per-bin spatial covariance ``cov[k] = (1/T) sum_t x x^H``, [K, M, M]."""

    cov: np.ndarray


@dataclass
class WhiteningBank:
    """Eigenstructure and whitener per bin.

    eigvecs : [K, M, M]  unitary columns, descending eigenvalue order
    eigvals : [K, M]     post-regularization, descending
    whitener : [K, R, M] rows are d**(-1/2) * u^H for the top R components
    """

    eigvecs: np.ndarray
    eigvals: np.ndarray
    whitener: np.ndarray


def estimate_covariance(spec):
    """Sample covariance per bin from a Spectrogram; needs >= 2 frames.

    Uses the 1/T convention (``C^k = x^k^T conj(x^k) / T`` with ``x^k`` the
    [T, M] frames of bin k, one batched matmul) and re-symmetrizes to be
    exactly Hermitian.
    """
    x = spec.data
    num_frames = x.shape[1]
    if num_frames < 2:
        raise ValueError(f"insufficient frames: got {num_frames}, need >= 2")
    cov = np.matmul(x.transpose(0, 2, 1), x.conj()) / num_frames
    cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
    return CovarianceBank(cov)


def build_whitener(bank, rank=None):
    """Whitening matrices for every bin of a CovarianceBank.

    ``rank`` selects how many principal components to keep (default: all).
    A diagonal shift of ``EPS_COV_REL * trace/M + EPS_COV_ABS`` guards the
    inverse square root against silent and rank-deficient bins.  Every bin
    must be square and Hermitian to ``1e-8 * max(||C_k||, 1)``.

    Eigenvalues come out descending (stable order on ties).  Each
    eigenvector's largest-magnitude component (first occurrence on ties) is
    made real and positive, so the decomposition is deterministic.
    """
    cov = np.asarray(bank.cov, dtype=np.complex128)
    if cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
        raise ValueError(f"matrix must be square, got bank shape {cov.shape}")
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
    order = np.argsort(-vals, axis=1, kind="stable")
    eigvals = np.maximum(np.take_along_axis(vals, order, axis=1), EPS_COV_ABS)
    eigvecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    # deterministic phase: largest-magnitude component real positive
    peak = np.argmax(np.abs(eigvecs), axis=1)[:, None, :]
    phase = np.take_along_axis(eigvecs, peak, axis=1)
    eigvecs *= phase.conj() / np.abs(phase)
    whitener = (
        eigvals[:, :rank, None] ** -0.5 * eigvecs[:, :, :rank].conj().transpose(0, 2, 1)
    )
    return WhiteningBank(eigvecs, eigvals, whitener)


def apply_whitener(spec, bank):
    """Project a Spectrogram onto its whitened principal components.

    Output has ``rank`` channels: ``out[k, t] = Q^k @ x[k, t]``, computed as
    one batched matmul ``Q^k @ x^k^T`` into a contiguous [K, R, T] array
    whose [K, T, R] transpose becomes the returned Spectrogram's data.
    """
    x = spec.data
    q = bank.whitener
    if x.shape[0] != q.shape[0]:
        raise ValueError(
            f"bin count mismatch: spectrogram {x.shape[0]}, whitener {q.shape[0]}"
        )
    if x.shape[2] != q.shape[2]:
        raise ValueError(
            f"channel mismatch: spectrogram {x.shape[2]}, whitener {q.shape[2]}"
        )
    out = np.matmul(q, x.transpose(0, 2, 1))
    return Spectrogram(out.transpose(0, 2, 1), spec.config, spec.sample_rate_hz)
