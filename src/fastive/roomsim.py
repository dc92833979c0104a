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
the distances are per mic.  The kernel is evaluated in closed form from
each image's fractional delay ``f``: the sinc taps are
``-(-1)**k sin(pi f) / (pi (k - f))`` and the Hann taps follow by angle
addition from fixed tables, so an image costs three sines and cosines
instead of two per tap.  Images are deposited in fixed-size chunks, which
bounds the temporaries whatever the room and reverberation time.

Scenarios bundle a room, source/mic geometry, and source signals; rendering
convolves each source with its impulse responses, scales the target source
so the input SIR (target vs the *sum* of interferer images, measured at the
reference mic) hits the requested value, and returns the mixture together
with the per-source images that ground-truth evaluation needs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import fftconvolve

from .stft import AudioBuffer, load_wav

SPEED_OF_SOUND = 343.0

KERNEL_TAPS = 81
_KERNEL_HALF = (KERNEL_TAPS - 1) // 2
_KERNEL_HALF_WIDTH = _KERNEL_HALF + 0.5
# tap offsets k from the nearest sample, and three rows that, weighted by 1,
# cos(phi) and sin(phi) with phi = pi f / half width, sum to
# 2 hann(k - f) * -(-1)**k / pi; see _deposit
_KERNEL_OFFSETS = np.arange(-_KERNEL_HALF, _KERNEL_HALF + 1)
_SINC_SIGN = -((-1.0) ** _KERNEL_OFFSETS) / np.pi
_KERNEL_ROWS = np.stack([
    _SINC_SIGN,
    _SINC_SIGN * np.cos(np.pi * _KERNEL_OFFSETS / _KERNEL_HALF_WIDTH),
    _SINC_SIGN * np.sin(np.pi * _KERNEL_OFFSETS / _KERNEL_HALF_WIDTH),
])
# images per deposit step: keeps each [chunk, KERNEL_TAPS] temporary at 2.6 MB
_DEPOSIT_CHUNK = 4096

# default battery geometry: shoebox with a compact linear array near one wall
ROOM_DIMENSIONS = (7.0, 5.0, 2.75)
DEFAULT_RT60 = 0.2
ARRAY_CENTER = (4.0, 1.0, 1.5)
MIC_SPACING = 0.0125
NUM_ARRAY_MICS = 6
# talker positions, all >= 1 m from the array center and >= 0.5 m from walls
SOURCE_POSITIONS = (
    (2.0, 3.0, 1.5),
    (5.5, 3.2, 1.5),
    (3.0, 2.2, 1.5),
    (5.0, 2.0, 1.5),
    (2.5, 4.0, 1.5),
    (4.5, 4.2, 1.5),
)


@dataclass
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

    def validate(self):
        dims = np.asarray(self.dimensions, dtype=np.float64)
        if dims.shape != (3,) or np.any(dims <= 0):
            raise ValueError("room dimensions must be three positive lengths")
        if self.rt60 < 0:
            raise ValueError("rt60 must be nonnegative")
        if self.speed_of_sound <= 0:
            raise ValueError("speed_of_sound must be positive")
        if self.rir_seconds is not None and self.rir_seconds <= 0:
            raise ValueError("rir_seconds must be positive")
        if self.max_order is not None and self.max_order < 0:
            raise ValueError("max_order must be nonnegative")


@dataclass
class Scenario:
    """Room, geometry, signals, and mixing control for one simulated take."""

    room: RoomSpec = field(default_factory=RoomSpec)
    source_positions: tuple = SOURCE_POSITIONS
    mic_positions: tuple = ()
    source_signals: tuple = ()
    soi_index: int = 0
    input_sir_db: float | None = None
    seed: int = 0
    ref_mic: int = 0

    def validate(self):
        self.room.validate()
        dims = np.asarray(self.room.dimensions, dtype=np.float64)
        srcs = np.asarray(self.source_positions, dtype=np.float64)
        mics = np.asarray(self.mic_positions, dtype=np.float64)
        if srcs.ndim != 2 or srcs.shape[1] != 3 or srcs.shape[0] < 1:
            raise ValueError("source_positions must be [N, 3] with N >= 1")
        if mics.ndim != 2 or mics.shape[1] != 3 or mics.shape[0] < 2:
            raise ValueError("mic_positions must be [M, 3] with M >= 2")
        for name, pts in (("source", srcs), ("mic", mics)):
            for i, p in enumerate(pts):
                if np.any(p <= 0) or np.any(p >= dims):
                    raise ValueError(
                        f"{name} {i} position {tuple(p)} outside room "
                        f"{tuple(dims)}"
                    )
        if not 0 <= self.soi_index < srcs.shape[0]:
            raise ValueError(f"soi_index {self.soi_index} out of range")
        if not 0 <= self.ref_mic < mics.shape[0]:
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

        0.5 (1 + cos(pi (k - f) / W)) * -(-1)**k sin(pi f) / (pi (k - f)),

    where ``W`` is the window half width; the cosine splits by angle
    addition, so every tap is a fixed combination of ``_KERNEL_ROWS``
    divided by ``k - f``.  An image on an exact sample (``f == 0``) is a
    single tap.  Taps outside ``[0, num_samples)`` are dropped.
    """
    # padded[i] accumulates sample i - _KERNEL_HALF; centers lie in
    # [0, num_samples + _KERNEL_HALF), so every tap index fits
    padded = np.zeros(num_samples + _KERNEL_HALF + KERNEL_TAPS)
    taps = np.arange(KERNEL_TAPS)
    for start in range(0, centers.size, _DEPOSIT_CHUNK):
        center = centers[start:start + _DEPOSIT_CHUNK]
        amp = amps[start:start + _DEPOSIT_CHUNK]
        nearest = np.round(center)
        frac = center - nearest
        scale = 0.5 * amp * np.sin(np.pi * frac)
        phase = np.pi * frac / _KERNEL_HALF_WIDTH
        weights = np.stack(
            [scale, scale * np.cos(phase), scale * np.sin(phase)], axis=1
        )
        vals = weights @ _KERNEL_ROWS
        with np.errstate(invalid="ignore"):  # 0 / 0 at f == 0, k == 0
            vals /= _KERNEL_OFFSETS - frac[:, None]
        on_sample = np.flatnonzero(frac == 0.0)
        vals[on_sample, _KERNEL_HALF] = amp[on_sample]
        idx = nearest.astype(np.int64)[:, None] + taps
        padded += np.bincount(
            idx.ravel(), weights=vals.ravel(), minlength=padded.size
        )
    return padded[_KERNEL_HALF:_KERNEL_HALF + num_samples]


def _source_rirs(room, source_position, mic_positions, fs):
    """Impulse responses from one source to each of ``mic_positions``.

    The image lattice, reflection orders and amplitudes are built once for
    all mics, over the lattice range of the longest response; an image
    beyond a mic's own range is farther than that response can represent,
    so the delay test drops it and every response is the one a lone mic
    would get.  The positions must already have passed ``Scenario.validate``.
    """
    dims = np.asarray(room.dimensions, dtype=np.float64)
    src = np.asarray(source_position, dtype=np.float64)
    mics = [np.asarray(m, dtype=np.float64) for m in mic_positions]
    c = room.speed_of_sound
    lengths = []
    for mic in mics:
        direct = float(np.linalg.norm(src - mic))
        if direct < 1e-6:
            raise ValueError("source and mic positions coincide")
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
    axes = [np.arange(-n, n + 1, dtype=np.float64) for n in counts]
    grid = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, 3)

    positions, amps = [], []
    for p in itertools.product((0.0, 1.0), repeat=3):
        p = np.asarray(p)
        orders = np.sum(np.abs(grid + p) + np.abs(grid), axis=1)
        amp = beta**orders
        if room.max_order is not None:
            amp = np.where(orders <= room.max_order, amp, 0.0)
        audible = amp > 0.0
        positions.append((1.0 - 2.0 * p) * src + 2.0 * grid[audible] * dims)
        amps.append(amp[audible])
    positions, amps = np.concatenate(positions), np.concatenate(amps)

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
    scenario.validate()
    return [
        _source_rirs(scenario.room, s, scenario.mic_positions, fs)
        for s in scenario.source_positions
    ]


def render(scenario, fs, rirs=None):
    """Simulate a scenario into a MixtureSet.

    Source signals must be mono at ``fs``; shorter ones are zero-padded to
    the longest.  When ``input_sir_db`` is set and interferers exist, the
    target image is scaled so the measured SIR at the reference mic equals
    it exactly.  ``rirs`` can carry precomputed responses from
    ``compute_rirs`` so one geometry can be reused across takes.
    """
    scenario.validate()
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
            y = fftconvolve(padded, rirs[s][m])
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
    rng = np.random.default_rng(seed)
    t = np.arange(num_samples) / fs
    out = []
    for _ in range(num_sources):
        raw = rng.laplace(0.0, 1.0, num_samples)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        sig = raw * 0.5 * (1.0 + np.sin(2.0 * np.pi * mod_hz * t + phase))
        rms = float(np.sqrt(np.mean(sig**2)))
        if rms <= 0:
            raise ValueError("generated source is silent")
        out.append(AudioBuffer(sig / rms, fs))
    return out


def default_geometry():
    """Scenario template: the battery shoebox, 6 talker spots, and the
    6-mic linear array (spacing 1.25 cm) centered at ``ARRAY_CENTER``.

    Slice ``source_positions``/``mic_positions`` and attach signals to use.
    """
    cx, cy, cz = ARRAY_CENTER
    mics = tuple(
        (cx + (m - (NUM_ARRAY_MICS - 1) / 2.0) * MIC_SPACING, cy, cz)
        for m in range(NUM_ARRAY_MICS)
    )
    return Scenario(
        room=RoomSpec(),
        source_positions=SOURCE_POSITIONS,
        mic_positions=mics,
        source_signals=(),
    )


def config_float(value, name):
    """``value`` as a float; ValueError naming the key ``name`` unless numeric."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None


def config_int(value, name):
    """``value`` as an int; ValueError naming the key ``name`` unless integral."""
    if isinstance(value, int):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(number)


def config_dict(value, name):
    """``value`` as a dict; ValueError naming the key ``name`` unless an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return dict(value)


def config_tuple(value, name):
    """``value`` as a tuple; ValueError naming the key ``name`` unless a list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def config_floats(value, name):
    """``value`` as a tuple of floats, or of such tuples for a nested list;
    ValueError naming the entry unless every leaf is a number."""
    return tuple(
        config_floats(v, f"{name}[{i}]") if isinstance(v, (list, tuple))
        else config_float(v, f"{name}[{i}]")
        for i, v in enumerate(config_tuple(value, name)))


def scenario_from_dict(cfg, base_dir=None):
    """Build a Scenario from the documented JSON schema.

    Returns ``(scenario, fs, resolved)`` where ``resolved`` is the fully
    expanded configuration (geometry and defaults filled in) suitable for
    provenance echo.

    Schema keys (all optional unless noted):

    ``fs``               sample rate, default 16000
    ``room``             {dimensions, rt60, speed_of_sound, rir_seconds, max_order}
    ``num_sources``      count drawn from the default talker spots (default 2)
    ``num_mics``         count drawn from the default array (default 2)
    ``source_positions`` explicit [N, 3], overrides num_sources
    ``mic_positions``    explicit [M, 3], overrides num_mics
    ``sources``          {"kind": "synthetic", "duration_seconds", "mod_hz"}
                         or {"kind": "wav", "paths": [...]}
    ``soi_index``        target source index, default 0
    ``input_sir_db``     requested input SIR, null to leave natural mixing
    ``ref_mic``          reference mic for SIR and rescaling, default 0
    ``seed``             RNG seed for synthetic sources, default 0
    """
    base_dir = Path(base_dir) if base_dir is not None else Path(".")
    fs = config_int(cfg.get("fs", 16000), "fs")
    room_cfg = config_dict(cfg.get("room", {}), "room")
    room = RoomSpec(
        dimensions=config_floats(room_cfg.get("dimensions", ROOM_DIMENSIONS),
                                 "room.dimensions"),
        rt60=config_float(room_cfg.get("rt60", DEFAULT_RT60), "room.rt60"),
        speed_of_sound=config_float(
            room_cfg.get("speed_of_sound", SPEED_OF_SOUND), "room.speed_of_sound"),
        rir_seconds=(None if room_cfg.get("rir_seconds") is None
                     else config_float(room_cfg["rir_seconds"], "room.rir_seconds")),
        max_order=(None if room_cfg.get("max_order") is None
                   else config_int(room_cfg["max_order"], "room.max_order")),
    )
    template = default_geometry()
    if "source_positions" in cfg:
        source_positions = config_floats(cfg["source_positions"], "source_positions")
    else:
        n = config_int(cfg.get("num_sources", 2), "num_sources")
        if n > len(template.source_positions):
            raise ValueError(
                f"num_sources {n} exceeds the {len(template.source_positions)} "
                "default talker spots; give source_positions explicitly"
            )
        source_positions = template.source_positions[:n]
    if "mic_positions" in cfg:
        mic_positions = config_floats(cfg["mic_positions"], "mic_positions")
    else:
        m = config_int(cfg.get("num_mics", 2), "num_mics")
        if m > len(template.mic_positions):
            raise ValueError(
                f"num_mics {m} exceeds the {len(template.mic_positions)}-mic "
                "default array; give mic_positions explicitly"
            )
        mic_positions = template.mic_positions[:m]

    seed = config_int(cfg.get("seed", 0), "seed")
    sources_cfg = config_dict(cfg.get("sources", {"kind": "synthetic"}), "sources")
    kind = sources_cfg.get("kind", "synthetic")
    if kind == "synthetic":
        duration = config_float(sources_cfg.get("duration_seconds", 3.0),
                                "sources.duration_seconds")
        mod_hz = config_float(sources_cfg.get("mod_hz", 4.0), "sources.mod_hz")
        signals = speech_like_sources(
            len(source_positions), int(round(duration * fs)), fs, seed, mod_hz
        )
        sources_resolved = {
            "kind": "synthetic",
            "duration_seconds": duration,
            "mod_hz": mod_hz,
        }
    elif kind == "wav":
        paths = [str(base_dir / p)
                 for p in config_tuple(sources_cfg["paths"], "sources.paths")]
        if len(paths) != len(source_positions):
            raise ValueError(
                f"{len(paths)} WAV paths for {len(source_positions)} sources"
            )
        signals = [load_wav(p) for p in paths]
        sources_resolved = {"kind": "wav", "paths": paths}
    else:
        raise ValueError(f"unknown sources kind {kind!r}")

    scenario = Scenario(
        room=room,
        source_positions=source_positions,
        mic_positions=mic_positions,
        source_signals=tuple(signals),
        soi_index=config_int(cfg.get("soi_index", 0), "soi_index"),
        input_sir_db=(
            None if cfg.get("input_sir_db") is None
            else config_float(cfg["input_sir_db"], "input_sir_db")
        ),
        seed=seed,
        ref_mic=config_int(cfg.get("ref_mic", 0), "ref_mic"),
    )
    scenario.validate()
    resolved = {
        "fs": fs,
        "room": asdict(room),
        "source_positions": [list(p) for p in source_positions],
        "mic_positions": [list(p) for p in mic_positions],
        "sources": sources_resolved,
        "soi_index": scenario.soi_index,
        "input_sir_db": scenario.input_sir_db,
        "ref_mic": scenario.ref_mic,
        "seed": seed,
    }
    return scenario, fs, resolved

