"""Shoebox room simulation and scenario rendering.

Room impulse responses follow the image-source construction for rectangular
rooms: every mirrored source at ``(1 - 2p) * src + 2 r * L`` contributes an
attenuated, fractionally delayed impulse

    beta**(sum |r + p| + |r|) / (4 pi d)     at      t = d / c,

deposited with an 81-tap Hann-windowed sinc so sub-sample delays are
preserved.  Wall reflectivity is uniform and derived from the requested
reverberation time by inverting Sabine's formula; rt60 = 0 degenerates to
the free-field direct path.

The image lattice, reflection orders and amplitudes depend only on the
source, so they are built once per source and shared by all its mics; only
the distances are per mic.  Every tap of the kernel is a smooth function of
the image's fractional delay ``f`` in [-1/2, 1/2], and a degree-16 Chebyshev
series in ``2 f``, fitted once at import, matches the closed form to 2e-15
of the kernel peak.  So an image costs 17 series terms, each summed into
its nearest sample, and the 81 taps are expanded once per output sample
from those sums rather than once per image.

Scenarios bundle a room, source/mic geometry, and source signals; rendering
convolves each source with its impulse responses, scales the target source
so the input SIR (target vs the *sum* of interferer images, measured at the
reference mic) hits the requested value, and returns the mixture together
with the per-source images that ground-truth evaluation needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .stft import AudioBuffer, check_int, check_number, next_fast_len

SPEED_OF_SOUND = 343.0

KERNEL_TAPS = 81
_KERNEL_HALF = (KERNEL_TAPS - 1) // 2
_KERNEL_HALF_WIDTH = _KERNEL_HALF + 0.5
# degree of the Chebyshev series in 2 f that gives every tap: 16 is the first
# degree whose fit error (2e-15 of the kernel peak) is the closed form's own
# rounding; degree 12 is off by 5e-13
_SERIES_DEGREE = 16


def _fit_kernel_series():
    """``[_SERIES_DEGREE + 1, KERNEL_TAPS]`` Chebyshev coefficients of each
    tap as a function of ``x = 2 f`` on [-1, 1], by projection onto the
    ``n = 64`` first-kind nodes ``x_i = cos(theta_i)``: ``c_d = (2 / n)
    sum_i cos(d theta_i) tap(x_i / 2)``, with ``c_0`` halved."""
    nodes = 64
    theta = np.pi * (np.arange(nodes) + 0.5) / nodes
    delta = np.arange(-_KERNEL_HALF, _KERNEL_HALF + 1) - 0.5 * np.cos(theta)[:, None]
    taps = 0.5 * (1.0 + np.cos(np.pi * delta / _KERNEL_HALF_WIDTH)) * np.sinc(delta)
    coef = 2.0 / nodes * np.cos(np.outer(np.arange(_SERIES_DEGREE + 1), theta)) @ taps
    coef[0] *= 0.5
    return coef


_KERNEL_SERIES = _fit_kernel_series()

# default battery geometry: shoebox with a compact linear array near one wall
ROOM_DIMENSIONS = (7.0, 5.0, 2.75)
DEFAULT_RT60 = 0.2
ARRAY_CENTER = (4.0, 1.0, 1.5)
MIC_SPACING = 0.0125
# the 6-mic linear array along x, MIC_SPACING apart and centered at ARRAY_CENTER
MIC_POSITIONS = tuple(
    (ARRAY_CENTER[0] + (m - 2.5) * MIC_SPACING, *ARRAY_CENTER[1:]) for m in range(6)
)
# talker positions, all >= 1 m from the array center and >= 0.5 m from walls
SOURCE_POSITIONS = (
    (2.0, 3.0, 1.5),
    (5.5, 3.2, 1.5),
    (3.0, 2.2, 1.5),
    (5.0, 2.0, 1.5),
    (2.5, 4.0, 1.5),
    (4.5, 4.2, 1.5),
)


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox definition: dimensions [Lx, Ly, Lz] in meters plus acoustics.

    Either ``rir_seconds`` (length of the simulated response) or
    ``max_order`` (cap on the number of wall reflections) may be given;
    the default length covers the reverberation tail and direct delay.
    """

    dimensions: tuple = ROOM_DIMENSIONS
    rt60: float = DEFAULT_RT60
    speed_of_sound: float = SPEED_OF_SOUND
    rir_seconds: float | None = None
    max_order: int | None = None

    def __post_init__(self):
        dims = self.dimensions
        # numpy fails on a ragged tuple or list: check its entries one by one
        if not ((isinstance(dims, (tuple, list)) or np.ndim(dims) == 1)
                and len(dims) == 3):
            raise ValueError("room dimensions must be three positive lengths")
        for i, v in enumerate(dims):
            check_number(v, f"dimensions[{i}]", above=0)
        check_number(self.rt60, "rt60", least=0)
        check_number(self.speed_of_sound, "speed_of_sound", above=0)
        if self.rir_seconds is not None:
            check_number(self.rir_seconds, "rir_seconds", above=0)
        if self.max_order is not None:
            check_int(self.max_order, "max_order", 0)


@dataclass(frozen=True)
class Scenario:
    """Room, geometry, signals, and mixing control for one simulated take,
    by default the whole default layout (``default_geometry()``); raises
    ValueError when built unless every source and mic lies strictly inside
    the room, apart from each other, the indices are in range and
    ``input_sir_db`` is None or a finite number."""

    room: RoomSpec = field(default_factory=RoomSpec)
    source_positions: tuple = SOURCE_POSITIONS
    mic_positions: tuple = MIC_POSITIONS
    source_signals: tuple = ()
    soi_index: int = 0
    input_sir_db: float | None = None
    seed: int = 0
    ref_mic: int = 0

    def __post_init__(self):
        dims = np.asarray(self.room.dimensions, dtype=np.float64)
        srcs = np.asarray(self.source_positions, dtype=np.float64)
        mics = np.asarray(self.mic_positions, dtype=np.float64)
        if srcs.ndim != 2 or srcs.shape[1] != 3 or srcs.shape[0] < 1:
            raise ValueError("source_positions must be [N, 3] with N >= 1")
        if mics.ndim != 2 or mics.shape[1] != 3 or mics.shape[0] < 2:
            raise ValueError("mic_positions must be [M, 3] with M >= 2")
        for name, pts in (("source", srcs), ("mic", mics)):
            outside = np.flatnonzero(~np.all((pts > 0) & (pts < dims), axis=1))
            if outside.size:
                i = outside[0]
                raise ValueError(f"{name} {i} position {tuple(pts[i])} outside "
                                 f"room {tuple(dims)}")
        close = np.argwhere(np.linalg.norm(srcs[:, None] - mics, axis=-1) < 1e-6)
        if close.size:
            raise ValueError(f"source {close[0, 0]} and mic {close[0, 1]} "
                             "positions coincide")
        for name in ("soi_index", "ref_mic", "seed"):
            check_int(getattr(self, name), name, 0)
        if self.input_sir_db is not None:
            check_number(self.input_sir_db, "input_sir_db")
        if self.soi_index >= srcs.shape[0]:
            raise ValueError(f"soi_index {self.soi_index} out of range")
        if self.ref_mic >= mics.shape[0]:
            raise ValueError(f"ref_mic {self.ref_mic} out of range")

    @property
    def num_sources(self):
        return len(self.source_positions)

    @property
    def num_mics(self):
        return len(self.mic_positions)


@dataclass
class MixtureSet:
    """Rendered mixture plus the per-source images (all [n, M])."""

    mixture: AudioBuffer
    images: list


def reflection_coefficient(room):
    """Uniform wall reflection coefficient for the requested rt60.

    Inverts Sabine: alpha = 0.161 V / (S rt60), beta = sqrt(1 - alpha).
    Of the two classical inversions, Sabine assigns the larger absorption;
    that compensates the image-source construction, whose specular
    per-direction reflection counts decay slower than the diffuse-field
    assumption behind both formulas, and puts measured -60 dB Schroeder
    crossings within about 20% of the requested rt60.  Absorption is capped
    at 1 (very small rt60 degenerates to free field), and rt60 = 0 means
    fully absorbing walls (beta = 0).
    """
    if room.rt60 <= 0:
        return 0.0
    lx, ly, lz = (float(v) for v in room.dimensions)
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    absorption = min(1.0, 0.161 * volume / (surface * room.rt60))
    return math.sqrt(max(0.0, 1.0 - absorption))


def _deposit(num_samples, centers, amps):
    """Sum of Hann-windowed sinc kernels centered at fractional samples.

    With ``f = center - round(center)`` the tap at offset ``k`` from the
    nearest sample is

        0.5 (1 + cos(pi (k - f) / W)) * sinc(k - f),

    where ``W`` is the window half width.  Each tap is the series
    ``sum_d c[d, k] T_d(2 f)`` with ``c = _KERNEL_SERIES``, so the images are
    first summed per nearest sample, one term ``T_d(2 f) amp`` at a time,
    and each tap ``k`` is then ``c[:, k]`` applied to those per-sample sums.
    The cost is 17 terms per image plus ``17 * 81`` products per sample, and
    no temporary holds one value per image and tap.  Taps outside
    ``[0, num_samples)`` are dropped.
    """
    # centers lie in [0, num_samples + _KERNEL_HALF), so the nearest sample
    # is one of num_samples + _KERNEL_HALF + 1
    nearest = np.round(centers)
    x = 2.0 * (centers - nearest)
    two_x = 2.0 * x
    bins = nearest.astype(np.intp)
    sums = np.empty((_SERIES_DEGREE + 1, num_samples + _KERNEL_HALF + 1))
    # T_{d+1} = 2 x T_d - T_{d-1}, started from T_{-1} = T_1 = x
    prev, term = x * amps, amps
    for row in sums:
        row[:] = np.bincount(bins, weights=term, minlength=row.size)
        prev, term = term, two_x * term - prev
    # padded[i] accumulates sample i - _KERNEL_HALF; tap j of nearest sample
    # n lands on sample n + j - _KERNEL_HALF
    padded = np.zeros(sums.shape[1] + KERNEL_TAPS - 1)
    for j in range(KERNEL_TAPS):
        padded[j:j + sums.shape[1]] += _KERNEL_SERIES[:, j] @ sums
    return padded[_KERNEL_HALF:_KERNEL_HALF + num_samples]


def _source_rirs(room, source_position, mic_positions, fs):
    """Impulse responses from one source to each of ``mic_positions``.

    The image lattice, reflection orders and amplitudes are built once for
    all mics, over the lattice range of the longest response; an image
    beyond a mic's own range is farther than that response can represent,
    so the delay test drops it and every response is the one a lone mic
    would get.  The lattice is first culled to the cells that can hold an
    image within that response's reach: the images the cull drops would
    fail every delay test and the kept ones keep their order, so the
    responses are bit for bit those of the whole cube.  A Scenario has
    checked the positions when it was built.
    """
    dims = np.asarray(room.dimensions, dtype=np.float64)
    src = np.asarray(source_position, dtype=np.float64)
    mics = [np.asarray(m, dtype=np.float64) for m in mic_positions]
    c = room.speed_of_sound
    lengths = []
    for mic in mics:
        direct = float(np.linalg.norm(src - mic))
        if room.rir_seconds is not None:
            duration = room.rir_seconds
        else:
            duration = 1.25 * room.rt60 + direct / c + 2.0 * KERNEL_TAPS / fs
        lengths.append(max(int(math.ceil(duration * fs)),
                           int(math.ceil(direct / c * fs)) + KERNEL_TAPS))

    # images further than the longest response can represent never contribute
    beta = reflection_coefficient(room)
    max_dist = (max(lengths) + _KERNEL_HALF) / fs * c
    if beta > 0.0:
        counts = [int(math.ceil(max_dist / (2.0 * d))) for d in dims]
    else:
        counts = [0, 0, 0]
    # the 8 wall parities as [8, 1, 3], broadcast against the [G, 3] lattice
    parity = np.array(list(itertools.product((0.0, 1.0), repeat=3)))[:, None]
    # the images of cell n, at (1 - 2p) src + 2 n L, are at least
    # |2 n L| - spread from every mic; the slack keeps any cell that only
    # rounding would drop, and argwhere keeps the cube's C order
    spread = np.linalg.norm((1.0 - 2.0 * parity) * src - np.array(mics), axis=-1).max()
    sq = [(2.0 * np.arange(-n, n + 1) * d) ** 2 for n, d in zip(counts, dims)]
    bound = np.sqrt(sq[0][:, None, None] + sq[1][:, None] + sq[2]) - spread
    grid = np.argwhere(bound < max_dist * (1.0 + 1e-9)) - np.array(counts, float)
    orders = np.sum(np.abs(grid + parity) + np.abs(grid), axis=2)
    amps = beta**orders
    if room.max_order is not None:
        amps = np.where(orders <= room.max_order, amps, 0.0)
    audible = amps > 0.0
    positions = ((1.0 - 2.0 * parity) * src + 2.0 * grid * dims)[audible]
    amps = amps[audible]

    rirs = []
    for mic, npts in zip(mics, lengths):
        dist = np.linalg.norm(positions - mic, axis=1)
        dist = np.maximum(dist, 1e-9)
        delays = dist / c * fs
        keep = delays < npts + _KERNEL_HALF
        rirs.append(_deposit(
            npts, delays[keep], amps[keep] / (4.0 * np.pi * dist[keep])
        ))
    return rirs


def compute_rirs(scenario, fs):
    """All impulse responses of a scenario as ``rirs[source][mic]``, each
    ``room.rir_seconds`` long when set, else to well below -60 dB.

    Each response depends only on the room and its own source and mic, so
    ``[r[:m] for r in rirs[:n]]`` are the responses of the scenario's first
    ``n`` sources and ``m`` mics.
    """
    return [
        _source_rirs(scenario.room, s, scenario.mic_positions, fs)
        for s in scenario.source_positions
    ]


def _convolve(signal, rir):
    """Full linear convolution of two 1-D arrays, bit for bit as
    ``scipy.signal.fftconvolve`` computes it (a real FFT at the next fast
    length, or a plain product when one side is a single sample), without
    loading scipy: numpy 2's ``numpy.fft`` and ``scipy.fft`` run the same
    pocketfft code, so the transforms match bit for bit (checked with numpy
    2.4.6 and scipy 1.17.1)."""
    if min(signal.size, rir.size) == 1:
        return signal * rir
    n = signal.size + rir.size - 1
    nfft = next_fast_len(n)
    return np.fft.irfft(np.fft.rfft(signal, nfft) * np.fft.rfft(rir, nfft), nfft)[:n]


def render(scenario, fs, rirs=None):
    """Simulate a scenario into a MixtureSet.

    Source signals must be mono at ``fs``; shorter ones are zero-padded to
    the longest.  When ``input_sir_db`` is set and interferers exist, the
    target image is scaled so the measured SIR at the reference mic equals
    it exactly.  ``rirs`` can carry precomputed responses from
    ``compute_rirs`` so one geometry can be reused across takes.
    """
    signals = list(scenario.source_signals)
    if len(signals) != scenario.num_sources:
        raise ValueError(
            f"{len(signals)} signals for {scenario.num_sources} sources"
        )
    for i, sig in enumerate(signals):
        if sig.sample_rate_hz != fs:
            raise ValueError(
                f"sample-rate mismatch: source {i} is {sig.sample_rate_hz} Hz, "
                f"render rate is {fs} Hz"
            )
        if sig.num_channels != 1:
            raise ValueError(f"source {i} must be mono")
    if rirs is None:
        rirs = compute_rirs(scenario, fs)

    sig_len = max(s.num_samples for s in signals)
    rir_len = max(len(r) for per_source in rirs for r in per_source)
    out_len = sig_len + rir_len - 1
    num_mics = scenario.num_mics

    images = []
    for s, sig in enumerate(signals):
        padded = np.zeros(sig_len)
        padded[: sig.num_samples] = sig.samples[:, 0]
        img = np.zeros((out_len, num_mics))
        for m in range(num_mics):
            y = _convolve(padded, rirs[s][m])
            img[: y.size, m] = y
        images.append(img)

    soi = scenario.soi_index
    if scenario.input_sir_db is not None and len(images) >= 2:
        ref = scenario.ref_mic
        p_soi = float(np.mean(images[soi][:, ref] ** 2))
        interf = np.sum(
            [img[:, ref] for i, img in enumerate(images) if i != soi], axis=0
        )
        p_int = float(np.mean(interf**2))
        if p_soi <= 0:
            raise ValueError("target image is silent at the reference mic")
        if p_int <= 0:
            raise ValueError("interference is silent at the reference mic")
        images[soi] = images[soi] * math.sqrt(
            10.0 ** (scenario.input_sir_db / 10.0) * p_int / p_soi
        )

    mixture = np.zeros((out_len, num_mics))
    for img in images:
        mixture += img
    return MixtureSet(
        mixture=AudioBuffer(mixture, fs),
        images=[AudioBuffer(img, fs) for img in images],
    )


def speech_like_sources(num_sources, num_samples, fs, seed, mod_hz=4.0):
    """Seeded synthetic talkers: i.i.d. Laplacian samples with a slow
    sinusoidal amplitude envelope (random phase per source), unit RMS."""
    check_int(num_samples, "num_samples", 1)
    check_number(mod_hz, "mod_hz")
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / fs
    out = []
    for _ in range(num_sources):
        raw = rng.laplace(0.0, 1.0, num_samples)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig = raw * 0.5 * (1.0 + np.sin(2.0 * np.pi * mod_hz * t + phase))
        out.append(AudioBuffer(sig / np.sqrt(np.mean(sig**2)), fs))
    return out


def default_geometry(num_sources=None, num_mics=None, **fields):
    """Scenario of the first ``num_sources`` of ``SOURCE_POSITIONS`` and
    ``num_mics`` of ``MIC_POSITIONS`` (all for None), with ``fields`` set;
    ``default_geometry() == Scenario()``.  A count beside positions given in
    ``fields`` must equal their number; one that slices the layout below 1
    talker or 2 mics, or beyond it, is a ValueError naming it."""
    for name, count, key, spots, least, extent in (
            ("num_sources", num_sources, "source_positions", SOURCE_POSITIONS, 1,
             f"the {len(SOURCE_POSITIONS)} default talker spots"),
            ("num_mics", num_mics, "mic_positions", MIC_POSITIONS, 2,
             f"the {len(MIC_POSITIONS)}-mic default array")):
        if key in fields:
            if count is not None:
                # any integer: a negative one disagrees with the positions
                check_int(count, name, -math.inf)
                if count != len(fields[key]):
                    raise ValueError(f"{name} {count} disagrees with the "
                                     f"{len(fields[key])} {key} given")
            continue
        if count is not None:
            check_int(count, name, least)
            if count > len(spots):
                raise ValueError(
                    f"{name} {count} exceeds {extent}; give {key} explicitly")
        fields[key] = spots[:count]
    return Scenario(**fields)
