"""STFT analysis/synthesis and WAV input/output for multichannel audio, and
the fast FFT length (``next_fast_len``) that the renderer and the scorer
pad their convolutions to.

Conventions
-----------
* Frames are left-aligned: frame ``t`` covers samples
  ``[t * hop_size, t * hop_size + fft_size)``.  No centering, no padding;
  trailing samples that do not fill a frame are dropped by analysis.
* Spectra are planar real float64 ``[K bins, 2C, T frames]``: per bin, C
  rows of real parts over the frames, then C rows of imaginary parts (C
  mics, whitened components, or the one output).  Every stage of ``extract``
  passes this layout; complex spectra exist only at the FFT, inside
  ``analyze`` and ``synthesize``.  A complex operator acts on the layout
  as its ``real_form``, and ``complex_gram`` reads a complex product off
  the real Gram of planar rows.  The ``K = fft_size // 2 + 1`` bins are
  the one-sided output of the unscaled ``numpy.fft.rfft``, so frame-wise
  Parseval reads ``sum |x_w|^2 = (1/fft_size) * sum_onesided weight *
  |X|^2`` with weight 2 on every bin except DC and Nyquist.
* Windows are periodic (DFT-even).  Synthesis is weighted overlap-add with
  the analysis window, normalized per sample by the sum of squared shifted
  windows, which reconstructs exactly wherever that sum is positive.
  The constant-overlap-add check is applied to the squared window because
  that is the quantity the synthesis normalizer folds down.
  Synthesis inverts all frames at once on a complex frame-major copy of
  the spectrum and overlap-adds in ``ceil(fft_size / hop_size)`` block adds,
  one per hop-long segment of a frame, each sample still summing its
  frames in ascending order as a frame-by-frame overlap-add does.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

COLA_TOL = 1e-6
# frames that ``analyze`` transforms and copies to the planar layout at once
ANALYZE_BLOCK = 32
WINDOW_KINDS = ("hann", "sqrt_hann", "rect")

# synthesis samples where the folded window-square falls below this fraction
# of its peak are emitted as silence instead of amplified noise
_DENOM_FLOOR = 1e-12


def check_int(value, name, least):
    """ValueError naming ``name`` unless ``value`` is an integer (a Python or
    numpy int, not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_number(value, name):
    """``value`` as a float; ValueError naming ``name`` unless ``value`` is a
    real number (a Python or numpy int or float, not a bool) within the float
    range."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int past the largest float
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass
class AudioBuffer:
    """Time-domain signal, samples in ``[num_samples, num_channels]``.

    One-dimensional input is promoted to a single column.  Samples are kept
    as float64; values must be finite.  The rate is an integer of at least 1.
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
        check_int(self.sample_rate_hz, "sample_rate_hz", 1)
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

    def __post_init__(self):
        check_int(self.fft_size, "bad config: fft_size", 1)
        check_int(self.hop_size, "bad config: hop_size", 1)
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
    acc = np.pad(w2, (0, -w2.size % hop)).reshape(-1, hop).sum(axis=0)
    mean = acc.mean()
    if mean <= 0.0:
        return np.inf
    return np.max(np.abs(acc - mean)) / mean


def next_fast_len(n):
    """Smallest 2·3·5-smooth integer at least ``n >= 1``: a length that
    pocketfft transforms fast, as ``scipy.fft.next_fast_len(n, real=True)``
    returns it."""
    best = 1 << (n - 1).bit_length()
    # every smooth length below best is p35 * 2**k with p35 = 3**i 5**j < best
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def check_planar(spec):
    """ValueError unless ``spec`` is a real [K, 2C, T] array: the planar layout."""
    if np.iscomplexobj(spec) or spec.ndim != 3 or spec.shape[1] % 2:
        raise ValueError(f"spectrum must be planar real [K, 2M, T], "
                         f"got {spec.dtype} {spec.shape}")


def real_form(op):
    """The real [K, 2A, 2B] block ``[[Re op, -Im op], [Im op, Re op]]`` of a
    complex [K, A, B] operator, which acts on planar data as ``op`` acts on
    complex data."""
    return np.block([[op.real, -op.imag], [op.imag, op.real]])


def complex_gram(g):
    """The complex [K, A, B] product ``x y^H`` read off the real [K, 2A, 2B]
    Gram ``g = x y^T`` of planar ``x`` and ``y``."""
    a, b = g.shape[1] // 2, g.shape[2] // 2
    return (g[:, :a, :b] + g[:, a:, b:]) + 1j * (g[:, a:, :b] - g[:, :a, b:])


def analyze(audio, config):
    """Forward STFT of a multichannel buffer.

    Parameters
    ----------
    audio : AudioBuffer
    config : StftConfig

    Returns
    -------
    numpy.ndarray
        planar real ``[K, 2M, T]`` with
        ``T = (num_samples - fft_size) // hop_size + 1``.
    """
    n = audio.num_samples
    if n < config.fft_size:
        raise ValueError(
            f"insufficient samples: need at least {config.fft_size}, got {n}"
        )
    num_frames = (n - config.fft_size) // config.hop_size + 1
    window = make_window(config.window, config.fft_size)

    # [T, M, fft_size] view, then window and transform along the last axis,
    # ANALYZE_BLOCK frames at a time: each block's copy to the planar layout
    # then reads from cache
    frames = sliding_window_view(audio.samples, config.fft_size, axis=0)
    frames = frames[:: config.hop_size][:num_frames]
    num_channels = audio.num_channels
    out = np.empty((config.num_bins, 2 * num_channels, num_frames))
    for start in range(0, num_frames, ANALYZE_BLOCK):
        block = slice(start, start + ANALYZE_BLOCK)
        spec = np.fft.rfft(frames[block] * window, axis=-1).transpose(2, 1, 0)
        out[:, :num_channels, block] = spec.real
        out[:, num_channels:, block] = spec.imag
    return out


def synthesize(spec, config, sample_rate_hz):
    """Inverse STFT of a planar ``[K, 2M, T]`` spectrum by weighted overlap-add.

    ``K`` must be ``config.num_bins``.  Returns an AudioBuffer of M channels
    at ``sample_rate_hz`` of ``(T - 1) * hop_size + fft_size`` samples.
    Reconstruction of unmodified spectra is exact up to rounding wherever at
    least one window overlaps; with COLA windows that is every sample, with
    tapered windows the first/last samples where the window vanishes come
    back as zeros.
    """
    check_planar(spec)
    if spec.shape[0] != config.num_bins:
        raise ValueError(
            f"bin count {spec.shape[0]} inconsistent with fft_size {config.fft_size}"
        )
    num_channels, num_frames = spec.shape[1] // 2, spec.shape[2]
    fft, hop = config.fft_size, config.hop_size
    window = make_window(config.window, fft)

    z = np.empty((num_frames, num_channels, spec.shape[0]), dtype=np.complex128)
    z.real = spec[:, :num_channels].transpose(2, 1, 0)
    z.imag = spec[:, num_channels:].transpose(2, 1, 0)
    frames = np.fft.irfft(z, n=fft, axis=-1)
    frames *= window
    # segment j (samples [j hop, (j + 1) hop)) of frame t lands in output
    # block t + j, so adding segments from last to first sums each sample's
    # frames in ascending t
    num_segments = -(-fft // hop)
    num = np.zeros((num_frames + num_segments - 1, hop, num_channels))
    den = np.zeros((num_frames + num_segments - 1, hop))
    w2 = window**2
    for j in reversed(range(num_segments)):
        seg = slice(j * hop, (j + 1) * hop)
        width = w2[seg].size
        num[j:j + num_frames, :width] += frames[:, :, seg].transpose(0, 2, 1)
        den[j:j + num_frames, :width] += w2[seg]
    out_len = (num_frames - 1) * hop + fft
    num = num.reshape(-1, num_channels)[:out_len]
    den = den.reshape(-1)[:out_len]
    good = den > _DENOM_FLOOR * den.max()
    out = np.zeros_like(num)
    out[good] = num[good] / den[good, None]
    return AudioBuffer(out, sample_rate_hz)


def load_wav(path):
    """Read a WAV file into an AudioBuffer.

    16-bit PCM is scaled to ``[-1, 1)`` by 1/32768 and 32-bit PCM by
    1/2**31; 32-bit and 64-bit float are taken as-is.  Sample rate comes
    from the header.
    """
    # imported here: loading scipy.io costs more than the rest of the package
    from scipy.io import wavfile

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
    from scipy.io import wavfile

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
