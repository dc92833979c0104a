"""STFT analysis/synthesis and WAV input/output for multichannel audio.

Conventions
-----------
* Frames are left-aligned: frame ``t`` covers samples
  ``[t * hop_size, t * hop_size + fft_size)``.  No centering, no padding;
  trailing samples that do not fill a frame are dropped by analysis.
* Spectra are one-sided (``K = fft_size // 2 + 1`` bins) with the unscaled
  forward transform of ``numpy.fft.rfft``.  Frame-wise Parseval therefore
  reads ``sum |x_w|^2 = (1/fft_size) * sum_onesided weight * |X|^2`` with
  weight 2 on every bin except DC and Nyquist.
* Windows are periodic (DFT-even).  Synthesis is weighted overlap-add with
  the analysis window, normalized per sample by the sum of squared shifted
  windows, which reconstructs exactly wherever that sum is positive.
  The constant-overlap-add check is applied to the squared window because
  that is the quantity the synthesis normalizer folds down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile

COLA_TOL = 1e-6
WINDOW_KINDS = ("hann", "sqrt_hann", "rect")

# synthesis samples where the folded window-square falls below this fraction
# of its peak are emitted as silence instead of amplified noise
_DENOM_FLOOR = 1e-12


@dataclass
class AudioBuffer:
    """Time-domain signal, samples in ``[num_samples, num_channels]``.

    One-dimensional input is promoted to a single column.  Samples are kept
    as float64; values must be finite.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2:
            raise ValueError("samples must be 1-D or [num_samples, num_channels]")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must be finite")
        if int(self.sample_rate_hz) <= 0:
            raise ValueError("sample_rate_hz must be positive")
        self.samples = arr
        self.sample_rate_hz = int(self.sample_rate_hz)

    @property
    def num_samples(self):
        return self.samples.shape[0]

    @property
    def num_channels(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 2048
    hop_size: int = 512
    window: str = "hann"

    def validate(self):
        if self.fft_size <= 0 or self.hop_size <= 0:
            raise ValueError("bad config: fft_size and hop_size must be positive")
        if self.hop_size > self.fft_size:
            raise ValueError("bad config: hop_size must not exceed fft_size")
        dev = cola_deviation(make_window(self.window, self.fft_size), self.hop_size)
        if dev > COLA_TOL:
            raise ValueError(
                f"bad config: window/hop violates constant overlap-add "
                f"(relative deviation {dev:.3e})"
            )

    @property
    def num_bins(self):
        return self.fft_size // 2 + 1


@dataclass
class Spectrogram:
    """One-sided STFT tensor ``[K bins, T frames, M channels]`` plus its config."""

    data: np.ndarray
    config: StftConfig
    sample_rate_hz: int

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.complex128)
        if arr.ndim != 3:
            raise ValueError("data must be [K, T, M]")
        if arr.shape[0] != self.config.num_bins:
            raise ValueError(
                f"bin count {arr.shape[0]} inconsistent with fft_size "
                f"{self.config.fft_size}"
            )
        self.data = arr
        self.sample_rate_hz = int(self.sample_rate_hz)

    @property
    def num_bins(self):
        return self.data.shape[0]

    @property
    def num_frames(self):
        return self.data.shape[1]

    @property
    def num_channels(self):
        return self.data.shape[2]


def make_window(kind, size):
    """Periodic analysis window of the given kind and length."""
    if kind == "hann":
        n = np.arange(size)
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / size)
    if kind == "sqrt_hann":
        return np.sqrt(make_window("hann", size))
    if kind == "rect":
        return np.ones(size)
    raise ValueError(f"bad config: unknown window {kind!r}")


def cola_deviation(window, hop):
    """Relative deviation of the folded squared window from a constant.

    Folds ``window**2`` modulo ``hop``; the result is the per-sample
    normalizer seen by weighted overlap-add in steady state.
    """
    w2 = np.asarray(window, dtype=np.float64) ** 2
    acc = np.zeros(hop)
    for start in range(0, w2.size, hop):
        chunk = w2[start:start + hop]
        acc[: chunk.size] += chunk
    mean = acc.mean()
    if mean <= 0.0:
        return np.inf
    return np.max(np.abs(acc - mean)) / mean


def analyze(audio, config):
    """Forward STFT of a multichannel buffer.

    Parameters
    ----------
    audio : AudioBuffer
    config : StftConfig

    Returns
    -------
    Spectrogram
        ``[K, T, M]`` with ``T = (num_samples - fft_size) // hop_size + 1``.
    """
    config.validate()
    n = audio.num_samples
    if n < config.fft_size:
        raise ValueError(
            f"insufficient samples: need at least {config.fft_size}, got {n}"
        )
    num_frames = (n - config.fft_size) // config.hop_size + 1
    window = make_window(config.window, config.fft_size)

    # [T, M, fft_size] view, then window and transform along the last axis
    frames = sliding_window_view(audio.samples, config.fft_size, axis=0)
    frames = frames[:: config.hop_size][:num_frames]
    spec = np.fft.rfft(frames * window, axis=-1)
    return Spectrogram(spec.transpose(2, 0, 1), config, audio.sample_rate_hz)


def synthesize(spec):
    """Inverse STFT by weighted overlap-add.

    Returns an AudioBuffer of ``(T - 1) * hop_size + fft_size`` samples.
    Reconstruction of unmodified spectra is exact up to rounding wherever at
    least one window overlaps; with COLA windows that is every sample, with
    tapered windows the first/last samples where the window vanishes come
    back as zeros.
    """
    config = spec.config
    config.validate()
    num_frames = spec.num_frames
    num_channels = spec.num_channels
    window = make_window(config.window, config.fft_size)

    frames = np.fft.irfft(spec.data, n=config.fft_size, axis=0)  # [fft, T, M]
    frames *= window[:, None, None]

    out_len = (num_frames - 1) * config.hop_size + config.fft_size
    num = np.zeros((out_len, num_channels))
    den = np.zeros(out_len)
    w2 = window**2
    for t in range(num_frames):
        start = t * config.hop_size
        num[start:start + config.fft_size] += frames[:, t, :]
        den[start:start + config.fft_size] += w2
    good = den > _DENOM_FLOOR * den.max()
    out = np.zeros_like(num)
    out[good] = num[good] / den[good, None]
    return AudioBuffer(out, spec.sample_rate_hz)


def load_wav(path):
    """Read a WAV file into an AudioBuffer.

    16-bit PCM is scaled to ``[-1, 1)`` by 1/32768; 32-bit float is taken
    as-is.  Sample rate comes from the header.
    """
    rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype}")
    return AudioBuffer(samples, rate)


def save_wav(path, audio, fmt="float32"):
    """Write an AudioBuffer as WAV, either 32-bit float or 16-bit PCM.

    PCM output clips to the representable range.
    """
    data = audio.samples
    if data.shape[1] == 1:
        data = data[:, 0]
    if fmt == "float32":
        wavfile.write(path, audio.sample_rate_hz, data.astype(np.float32))
    elif fmt == "pcm16":
        clipped = np.clip(data, -1.0, 32767.0 / 32768.0)
        wavfile.write(
            path, audio.sample_rate_hz,
            np.round(clipped * 32768.0).astype(np.int16),
        )
    else:
        raise ValueError(f"unsupported WAV sample format {fmt!r}")
