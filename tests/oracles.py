"""Loop-by-loop references, independent of the vectorized code, that the
unit tests and the acceptance gate both check against.  Not a test file:
pytest puts ``tests/`` on the import path, so ``from oracles import ...``."""

import itertools
import math

import numpy as np

from fastive.extractor import _update_terms
from fastive.metrics import sir_db
from fastive.priors import g_double_prime, g_prime
from fastive.roomsim import KERNEL_TAPS, _KERNEL_HALF, _deposit, reflection_coefficient


def planar(data):
    """Complex [K, T, R] data in the solver's planar layout: [K, 2R, T]
    float64, per bin the R real rows over the frames, then the R imaginary
    rows."""
    return np.ascontiguousarray(
        np.concatenate([data.real, data.imag], axis=2).transpose(0, 2, 1))


def from_planar(white):
    """The complex [K, T, R] data that a planar [K, 2R, T] array holds."""
    rank = white.shape[1] // 2
    return (white[:, :rank] + 1j * white[:, rank:]).transpose(0, 2, 1)


def apply_demixer(x, w):
    """Reference demixed output ``y[k, t] = w^k^H x[k, t]`` of complex
    [K, T, M] data as a [K, T] array, one batched matmul over its [K, M, T]
    transpose."""
    return np.matmul(w.conj()[:, None, :], x.transpose(0, 2, 1))[:, 0, :]


def reference_update(x, w, model):
    """Unvectorized one-step update, written directly from the rule:
    per bin, a = mean[G' + |y|^2 G''], b = mean[conj(y) G' x], then
    normalize a w - b."""
    num_bins, num_frames, rank = x.shape
    y = np.array([[np.vdot(w[k], x[k, t]) for t in range(num_frames)]
                  for k in range(num_bins)])
    r = np.array([sum(abs(y[k, t]) ** 2 for k in range(num_bins))
                  for t in range(num_frames)])
    out = np.zeros_like(w)
    for k in range(num_bins):
        a = np.mean([g_prime(model, r[t]) + abs(y[k, t]) ** 2
                     * g_double_prime(model, r[t]) for t in range(num_frames)])
        b = np.zeros(rank, dtype=complex)
        for t in range(num_frames):
            b += np.conj(y[k, t]) * g_prime(model, r[t]) * x[k, t]
        b /= num_frames
        v = a * w[k] - b
        out[k] = v / np.linalg.norm(v)
    return out


def finite_difference_gradient(x, w, model, eps=1e-6):
    """Gradient of the cost ``_update_terms(x, w, model)[0]`` on planar data
    ``x`` with respect to conj(w), from central differences along the real
    and the imaginary axis of every entry of ``w``: (d/dRe + i d/dIm) / 2."""
    fd = np.zeros_like(w)
    for index in np.ndindex(w.shape):
        for direction in (1.0, 1.0j):
            step = np.zeros_like(w)
            step[index] = eps * direction
            d = (_update_terms(x, w + step, model)[0]
                 - _update_terms(x, w - step, model)[0]) / (2 * eps)
            fd[index] += 0.5 * d * direction
    return fd


def exact_mixture(seed, num_bins=6, num_mics=3, num_sources=2, num_frames=64):
    """Known per-bin mixing with sources whose sample covariance is the
    identity exactly, so the data covariance is exactly H H^H."""
    rng = np.random.default_rng(seed)
    mixing = rng.normal(size=(num_bins, num_mics, num_sources)) \
        + 1j * rng.normal(size=(num_bins, num_mics, num_sources))
    sources = np.empty((num_bins, num_frames, num_sources), dtype=complex)
    for k in range(num_bins):
        raw = rng.normal(size=(num_frames, num_sources)) \
            + 1j * rng.normal(size=(num_frames, num_sources))
        qmat, _ = np.linalg.qr(raw)
        sources[k] = np.sqrt(num_frames) * qmat
    data = np.einsum("kmn,ktn->ktm", mixing, sources)
    return data, mixing, sources


def exact_demixer(mixing):
    """Per-bin w with w^H H = e_1^T, so the output is source 1 exactly."""
    num_bins, _, _ = mixing.shape
    w = np.empty(mixing.shape[:2], dtype=complex)
    e1 = np.zeros(mixing.shape[2], dtype=complex)
    e1[0] = 1.0
    for k in range(num_bins):
        h = mixing[k]
        w[k] = h @ np.linalg.solve(h.conj().T @ h, e1)
    return w


def explicit_sir_db(estimate, target, interferers, filter_len):
    """SIR from least squares on the explicit matrix of delayed references:
    the energies of the target part, the projection onto the target's
    delays, and of the interference part, what the projection onto every
    reference's delays adds to it."""
    n = estimate.size
    length = n + filter_len - 1

    def delays(signals):
        cols = np.zeros((length, len(signals) * filter_len))
        for s, sig in enumerate(signals):
            for d in range(filter_len):
                cols[d:d + n, s * filter_len + d] = sig
        return cols

    padded = np.zeros(length)
    padded[:n] = estimate

    def project(signals):
        cols = delays(signals)
        return cols @ np.linalg.lstsq(cols, padded, rcond=None)[0]

    target_part = project([target])
    interference_part = project([target, *interferers]) - target_part
    return sir_db(float(np.sum(target_part**2)), float(np.sum(interference_part**2)))


def uncut_rirs(scenario, fs):
    """``compute_rirs`` without the lattice cull: every image of the whole
    cube that reaches the longest response of its source, in the cube's
    order, goes to each mic's delay test and then to ``roomsim._deposit``.
    The culled build must give the same responses bit for bit."""
    room = scenario.room
    dims = np.asarray(room.dimensions, dtype=np.float64)
    c = room.speed_of_sound
    beta = reflection_coefficient(room)
    parity = np.array(list(itertools.product((0.0, 1.0), repeat=3)))[:, None]
    out = []
    for source in scenario.source_positions:
        src = np.asarray(source, dtype=np.float64)
        mics = [np.asarray(m, dtype=np.float64) for m in scenario.mic_positions]
        lengths = []
        for mic in mics:
            direct = float(np.linalg.norm(src - mic))
            duration = room.rir_seconds if room.rir_seconds is not None else (
                1.25 * room.rt60 + direct / c + 2.0 * KERNEL_TAPS / fs)
            lengths.append(max(int(math.ceil(duration * fs)),
                               int(math.ceil(direct / c * fs)) + KERNEL_TAPS))
        max_dist = (max(lengths) + _KERNEL_HALF) / fs * c
        counts = [int(math.ceil(max_dist / (2.0 * d))) if beta > 0.0 else 0
                  for d in dims]
        axes = [np.arange(-n, n + 1, dtype=np.float64) for n in counts]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        orders = np.sum(np.abs(grid + parity) + np.abs(grid), axis=2)
        amps = beta**orders
        if room.max_order is not None:
            amps = np.where(orders <= room.max_order, amps, 0.0)
        audible = amps > 0.0
        positions = ((1.0 - 2.0 * parity) * src + 2.0 * grid * dims)[audible]
        amps = amps[audible]
        rirs = []
        for mic, npts in zip(mics, lengths):
            dist = np.maximum(np.linalg.norm(positions - mic, axis=1), 1e-9)
            delays = dist / c * fs
            keep = delays < npts + _KERNEL_HALF
            rirs.append(_deposit(npts, delays[keep],
                                 amps[keep] / (4.0 * np.pi * dist[keep])))
        out.append(rirs)
    return out
