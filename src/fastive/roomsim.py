"""Shoebox room simulation and scenario rendering.

Room impulse responses follow the image-source construction for rectangular
rooms: every mirrored source at ``(1 - 2p) * src + 2 r * L`` contributes an
attenuated, fractionally delayed impulse

    beta**(sum |r + p| + |r|) / (4 pi d)     at      t = d / c,

deposited with an 81-tap Hann-windowed sinc so sub-sample delays are
preserved.  Wall reflectivity is uniform and derived from the requested
reverberation time by inverting Sabine's formula; rt60 = 0 degenerates to
the free-field direct path.

Scenarios bundle a room, source/mic geometry, and source signals; rendering
convolves each source with its impulse responses, scales the target source
so the input SIR (target vs the *sum* of interferer images, measured at the
reference mic) hits the requested value, and returns the mixture together
with the per-source images that ground-truth evaluation needs.
"""

from __future__ import annotations

import itertools
import json
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


def _deposit(rir, centers, amps):
    """Accumulate Hann-windowed sinc kernels centered at fractional samples."""
    n0 = np.round(centers).astype(np.int64) - _KERNEL_HALF
    idx = n0[:, None] + np.arange(KERNEL_TAPS)[None, :]
    delta = idx - centers[:, None]
    kernel = 0.5 * (1.0 + np.cos(np.pi * delta / _KERNEL_HALF_WIDTH))
    kernel *= np.sinc(delta)
    vals = amps[:, None] * kernel
    valid = (idx >= 0) & (idx < rir.size)
    rir += np.bincount(
        idx[valid].ravel(), weights=vals[valid].ravel(), minlength=rir.size
    )


def image_method_rir(room, source_position, mic_position, fs):
    """Room impulse response between one source and one microphone.

    Returns a 1-D float array sampled at ``fs``; length is
    ``room.rir_seconds`` when set, otherwise sized to cover the direct
    delay plus the decay to well below -60 dB.
    """
    room.validate()
    dims = np.asarray(room.dimensions, dtype=np.float64)
    src = np.asarray(source_position, dtype=np.float64)
    mic = np.asarray(mic_position, dtype=np.float64)
    for name, p in (("source", src), ("mic", mic)):
        if p.shape != (3,) or np.any(p <= 0) or np.any(p >= dims):
            raise ValueError(f"{name} position {tuple(p)} outside room {tuple(dims)}")
    direct = float(np.linalg.norm(src - mic))
    if direct < 1e-6:
        raise ValueError("source and mic positions coincide")

    c = room.speed_of_sound
    beta = reflection_coefficient(room)
    if room.rir_seconds is not None:
        duration = room.rir_seconds
    else:
        duration = 1.25 * room.rt60 + direct / c + 2.0 * KERNEL_TAPS / fs
    npts = max(int(math.ceil(duration * fs)),
               int(math.ceil(direct / c * fs)) + KERNEL_TAPS)
    rir = np.zeros(npts)

    # images further than the response can represent never contribute
    max_dist = (npts + _KERNEL_HALF) / fs * c
    if beta > 0.0:
        counts = [int(math.ceil(max_dist / (2.0 * d))) for d in dims]
    else:
        counts = [0, 0, 0]
    axes = [np.arange(-n, n + 1, dtype=np.float64) for n in counts]
    grid = np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, 3)

    for p in itertools.product((0.0, 1.0), repeat=3):
        p = np.asarray(p)
        positions = (1.0 - 2.0 * p) * src + 2.0 * grid * dims
        orders = np.sum(np.abs(grid + p) + np.abs(grid), axis=1)
        amps = beta**orders
        if room.max_order is not None:
            amps = np.where(orders <= room.max_order, amps, 0.0)
        dist = np.linalg.norm(positions - mic, axis=1)
        dist = np.maximum(dist, 1e-9)
        delays = dist / c * fs
        keep = (amps > 0.0) & (delays < npts + _KERNEL_HALF)
        if np.any(keep):
            _deposit(rir, delays[keep], amps[keep] / (4.0 * np.pi * dist[keep]))
    return rir


def measure_rt60(rir, fs, fit_range=(-5.0, -25.0)):
    """Reverberation time from Schroeder backward integration.

    Fits the decay curve over ``fit_range`` dB and extrapolates the slope
    to -60 dB.
    """
    energy = np.cumsum(np.asarray(rir, dtype=np.float64)[::-1] ** 2)[::-1]
    if energy[0] <= 0:
        raise ValueError("impulse response has no energy")
    decay = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-300))
    hi, lo = fit_range
    sel = np.flatnonzero((decay <= hi) & (decay >= lo))
    if sel.size < 2:
        raise ValueError("response too short to fit a decay slope")
    t = sel / fs
    slope, _ = np.polyfit(t, decay[sel], 1)
    if slope >= 0:
        raise ValueError("decay curve is not decreasing")
    return -60.0 / slope


def compute_rirs(scenario, fs):
    """All impulse responses of a scenario as ``rirs[source][mic]``."""
    scenario.validate()
    return [
        [image_method_rir(scenario.room, s, m, fs) for m in scenario.mic_positions]
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


def scenario_from_dict(cfg, base_dir=None, default_fs=16000):
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
    fs = int(cfg.get("fs", default_fs))
    room_cfg = dict(cfg.get("room", {}))
    room = RoomSpec(
        dimensions=tuple(room_cfg.get("dimensions", ROOM_DIMENSIONS)),
        rt60=float(room_cfg.get("rt60", DEFAULT_RT60)),
        speed_of_sound=float(room_cfg.get("speed_of_sound", SPEED_OF_SOUND)),
        rir_seconds=room_cfg.get("rir_seconds"),
        max_order=room_cfg.get("max_order"),
    )
    template = default_geometry()
    if "source_positions" in cfg:
        source_positions = tuple(tuple(p) for p in cfg["source_positions"])
    else:
        n = int(cfg.get("num_sources", 2))
        if n > len(template.source_positions):
            raise ValueError(
                f"num_sources {n} exceeds the {len(template.source_positions)} "
                "default talker spots; give source_positions explicitly"
            )
        source_positions = template.source_positions[:n]
    if "mic_positions" in cfg:
        mic_positions = tuple(tuple(p) for p in cfg["mic_positions"])
    else:
        m = int(cfg.get("num_mics", 2))
        if m > len(template.mic_positions):
            raise ValueError(
                f"num_mics {m} exceeds the {len(template.mic_positions)}-mic "
                "default array; give mic_positions explicitly"
            )
        mic_positions = template.mic_positions[:m]

    seed = int(cfg.get("seed", 0))
    sources_cfg = dict(cfg.get("sources", {"kind": "synthetic"}))
    kind = sources_cfg.get("kind", "synthetic")
    if kind == "synthetic":
        duration = float(sources_cfg.get("duration_seconds", 3.0))
        mod_hz = float(sources_cfg.get("mod_hz", 4.0))
        signals = speech_like_sources(
            len(source_positions), int(round(duration * fs)), fs, seed, mod_hz
        )
        sources_resolved = {
            "kind": "synthetic",
            "duration_seconds": duration,
            "mod_hz": mod_hz,
        }
    elif kind == "wav":
        paths = [str(base_dir / p) for p in sources_cfg["paths"]]
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
        soi_index=int(cfg.get("soi_index", 0)),
        input_sir_db=(
            None if cfg.get("input_sir_db") is None else float(cfg["input_sir_db"])
        ),
        seed=seed,
        ref_mic=int(cfg.get("ref_mic", 0)),
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


def load_scenario(path):
    """Read a scenario JSON file; see ``scenario_from_dict`` for the schema."""
    path = Path(path)
    with open(path) as f:
        cfg = json.load(f)
    return scenario_from_dict(cfg, base_dir=path.parent)
