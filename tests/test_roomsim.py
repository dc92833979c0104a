"""Room simulator tests.

Free-field responses are pinned against the closed-form point-source
solution on a geometry whose delays are exact sample counts; the
reverberant decay is checked with an independent backward-integration
estimate; the chunked closed-form kernel and the per-source image lattice
are checked against a direct reference build.  Rendering must hit the
requested mixing ratio exactly.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fastive.roomsim import (
    KERNEL_TAPS,
    MixtureSet,
    RoomSpec,
    Scenario,
    compute_rirs,
    default_geometry,
    reflection_coefficient,
    render,
    scenario_from_dict,
    speech_like_sources,
)
from fastive.stft import AudioBuffer, save_wav

FS = 16000

# geometry with integer-sample direct delays: 343 m/s at 16 kHz puts
# 100 samples at exactly 2.14375 m
FREE_ROOM = RoomSpec(dimensions=(8.0, 6.0, 3.0), rt60=0.0)
SRC = (2.0, 2.0, 1.5)
MIC_100 = (4.14375, 2.0, 1.5)
MIC_200 = (6.2875, 2.0, 1.5)


def single_rir(room, src, mic):
    """The response from ``src`` to ``mic``; a scenario needs two mics, so
    the mic is repeated."""
    return compute_rirs(Scenario(room, (src,), (mic, mic)), FS)[0][0]


def measure_rt60(rir, fs, fit_range=(-5.0, -25.0)):
    """Reverberation time from Schroeder backward integration: fits the
    decay curve over ``fit_range`` dB and extrapolates the slope to -60 dB."""
    energy = np.cumsum(np.asarray(rir, dtype=np.float64)[::-1] ** 2)[::-1]
    decay = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-300))
    hi, lo = fit_range
    sel = np.flatnonzero((decay <= hi) & (decay >= lo))
    slope, _ = np.polyfit(sel / fs, decay[sel], 1)
    return -60.0 / slope


def test_reflection_coefficient_hand_value():
    # alpha = 0.161 V / (S rt60) for the default 7 x 5 x 2.75 room at 0.2 s
    assert reflection_coefficient(RoomSpec()) == pytest.approx(
        0.655961070849931, abs=1e-15)
    assert reflection_coefficient(RoomSpec(rt60=0.0)) == 0.0
    # absorption saturates for unreachably short decays
    assert reflection_coefficient(RoomSpec(rt60=1e-4)) == 0.0


def test_free_field_impulse_amplitude_and_delay():
    """A point source in free field is a single tap of 1/(4 pi d) at d/c."""
    rir = single_rir(FREE_ROOM, SRC, MIC_100)
    peak = int(np.argmax(np.abs(rir)))
    assert peak == 100
    np.testing.assert_allclose(rir[peak], 1.0 / (4.0 * math.pi * 2.14375),
                               rtol=1e-12)
    rest = np.delete(rir, peak)
    assert np.max(np.abs(rest)) < 1e-14


def test_free_field_inverse_square_law():
    """Doubling the distance halves the amplitude and doubles the delay."""
    near = single_rir(FREE_ROOM, SRC, MIC_100)
    far = single_rir(FREE_ROOM, SRC, MIC_200)
    assert int(np.argmax(np.abs(far))) == 200
    np.testing.assert_allclose(near[100] / far[200], 2.0, rtol=1e-12)


def test_reverberant_response_has_a_tail():
    scen = default_geometry()
    rir = single_rir(scen.room, scen.source_positions[0],
                     scen.mic_positions[0])
    direct = np.linalg.norm(np.asarray(scen.source_positions[0])
                            - np.asarray(scen.mic_positions[0]))
    arrival = int(np.flatnonzero(np.abs(rir) >= 1e-4 * np.max(np.abs(rir)))[0])
    assert abs(arrival - direct / 343.0 * FS) <= 41  # within the kernel width
    tail = rir[arrival + 200:]
    assert np.sum(tail**2) > 1e-6 * np.sum(rir**2)


def test_max_order_zero_suppresses_reflections():
    room = RoomSpec(max_order=0)
    scen = default_geometry()
    rir = single_rir(room, scen.source_positions[0],
                     scen.mic_positions[0])
    peak = int(np.argmax(np.abs(rir)))
    outside = np.concatenate([rir[:max(peak - 41, 0)], rir[peak + 41:]])
    assert np.max(np.abs(outside)) < 1e-14 * np.abs(rir[peak])


def test_rir_position_guards():
    with pytest.raises(ValueError, match="outside room"):
        single_rir(FREE_ROOM, (9.0, 2.0, 1.5), MIC_100)
    with pytest.raises(ValueError, match="coincide"):
        single_rir(FREE_ROOM, SRC, SRC)


def reference_deposit(rir, centers, amps):
    """The direct kernel: np.sinc times the Hann window, tap by tap."""
    half = (KERNEL_TAPS - 1) // 2
    n0 = np.round(centers).astype(np.int64) - half
    idx = n0[:, None] + np.arange(KERNEL_TAPS)[None, :]
    delta = idx - centers[:, None]
    kernel = 0.5 * (1.0 + np.cos(np.pi * delta / (half + 0.5)))
    kernel *= np.sinc(delta)
    vals = amps[:, None] * kernel
    valid = (idx >= 0) & (idx < rir.size)
    rir += np.bincount(
        idx[valid].ravel(), weights=vals[valid].ravel(), minlength=rir.size
    )


def reference_rir(room, source_position, mic_position, fs):
    """One response built directly: each mirror parity over a lattice sized
    for this mic alone, deposited with the direct kernel."""
    half = (KERNEL_TAPS - 1) // 2
    dims = np.asarray(room.dimensions, dtype=np.float64)
    src = np.asarray(source_position, dtype=np.float64)
    mic = np.asarray(mic_position, dtype=np.float64)
    c = room.speed_of_sound
    beta = reflection_coefficient(room)
    direct = float(np.linalg.norm(src - mic))
    if room.rir_seconds is not None:
        duration = room.rir_seconds
    else:
        duration = 1.25 * room.rt60 + direct / c + 2.0 * KERNEL_TAPS / fs
    npts = max(math.ceil(duration * fs), math.ceil(direct / c * fs) + KERNEL_TAPS)
    rir = np.zeros(npts)
    max_dist = (npts + half) / fs * c
    counts = [math.ceil(max_dist / (2.0 * d)) if beta > 0.0 else 0 for d in dims]
    axes = [np.arange(-n, n + 1, dtype=np.float64) for n in counts]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    for p in itertools.product((0.0, 1.0), repeat=3):
        p = np.asarray(p)
        positions = (1.0 - 2.0 * p) * src + 2.0 * grid * dims
        orders = np.sum(np.abs(grid + p) + np.abs(grid), axis=1)
        amps = beta**orders
        if room.max_order is not None:
            amps = np.where(orders <= room.max_order, amps, 0.0)
        dist = np.maximum(np.linalg.norm(positions - mic, axis=1), 1e-9)
        delays = dist / c * fs
        keep = (amps > 0.0) & (delays < npts + half)
        reference_deposit(rir, delays[keep],
                          amps[keep] / (4.0 * np.pi * dist[keep]))
    return rir


@st.composite
def rooms_with_a_close_mic(draw):
    """A room, a source, a mic about 1 cm from it (kernel taps before
    sample 0) and a second mic anywhere."""
    dims = tuple(draw(st.floats(2.5, 9.0)) for _ in range(3))
    rt60 = draw(st.floats(0.0, 0.5))
    max_order = draw(st.none() | st.integers(0, 3))
    rir_seconds = draw(st.none() | st.floats(0.01, 0.1))
    # keeps the reference's [images, taps] arrays small
    assume(max_order is not None or rir_seconds is not None or rt60 <= 0.1)

    def inside():
        return np.array([d * draw(st.floats(0.05, 0.95)) for d in dims])

    src = inside()
    azimuth = draw(st.floats(0.0, 2.0 * math.pi))
    elevation = draw(st.floats(-0.5 * math.pi, 0.5 * math.pi))
    close = src + 0.01 * np.array([math.cos(azimuth) * math.cos(elevation),
                                   math.sin(azimuth) * math.cos(elevation),
                                   math.sin(elevation)])
    far = inside()
    assume(np.linalg.norm(far - src) > 1e-3)
    room = RoomSpec(dimensions=dims, rt60=rt60, rir_seconds=rir_seconds,
                    max_order=max_order)
    return room, tuple(src), (tuple(close), tuple(far))


# at 256 m/s and 16 kHz, a whole number of metres is 62.5 samples per metre
# exactly, so the direct path (2 m) and many images sit on integer samples
ON_SAMPLE = (RoomSpec(dimensions=(4.0, 3.0, 2.5), rt60=0.3,
                      speed_of_sound=256.0, rir_seconds=0.05),
             (1.0, 1.0, 1.0), ((1.01, 1.0, 1.0), (3.0, 1.0, 1.0)))


# the far mic is 8 m down a narrow room: its default-length response
# (98 m of travel) needs one more 5 m lattice shell across the room than
# the close mic's (90 m)
FAR_APART = (RoomSpec(dimensions=(2.5, 2.5, 9.0), rt60=0.2),
             (1.0, 1.0, 0.5), ((1.01, 1.0, 0.5), (1.5, 1.5, 8.5)))


@settings(deadline=None, max_examples=30)
@example(case=ON_SAMPLE)
@example(case=FAR_APART)
@given(case=rooms_with_a_close_mic())
def test_responses_match_the_direct_reference(case):
    room, src, mics = case
    scenario = Scenario(room=room, source_positions=(src,), mic_positions=mics)
    [rirs] = compute_rirs(scenario, FS)
    for mic, rir in zip(mics, rirs):
        ref = reference_rir(room, src, mic, FS)
        assert rir.shape == ref.shape
        assert np.max(np.abs(rir - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_on_sample_case_puts_the_direct_path_on_a_sample():
    room, src, (_, mic) = ON_SAMPLE
    delay = math.dist(src, mic) / room.speed_of_sound * FS
    assert delay == 125.0
    rir = single_rir(room, src, mic)
    assert rir[125] == pytest.approx(1.0 / (4.0 * math.pi * 2.0), rel=1e-12)


def test_sliced_responses_equal_the_sub_scenario():
    template = default_geometry()
    full = replace(template, source_positions=template.source_positions[:3],
                   mic_positions=template.mic_positions[:4])
    sub = replace(template, source_positions=template.source_positions[:2],
                  mic_positions=template.mic_positions[:2])
    rirs = compute_rirs(full, FS)
    want = compute_rirs(sub, FS)
    for s in range(2):
        for m in range(2):
            assert rirs[s][m].shape == want[s][m].shape
            assert np.max(np.abs(rirs[s][m] - want[s][m])) \
                <= 1e-12 * np.max(np.abs(want[s][m]))


def test_measured_decay_tracks_the_requested_rt60():
    scen = default_geometry()
    room = RoomSpec(rir_seconds=0.5)
    rir = single_rir(room, scen.source_positions[0],
                     scen.mic_positions[0])
    measured = measure_rt60(rir, FS)
    assert 0.15 < measured < 0.26


def test_measure_rt60_recovers_an_exact_exponential():
    """Backward integration of a pure exponential decay reproduces its
    -60 dB time almost exactly."""
    n = FS // 2
    t = np.arange(n) / FS
    rir = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * 10.0 ** (-3.0 * t / 0.3)
    assert measure_rt60(rir, FS) == pytest.approx(0.3, abs=1e-6)


def two_by_two_scenario(seed=0, sir=None, duration=0.6):
    scen = default_geometry()
    signals = speech_like_sources(2, int(duration * FS), FS, seed)
    return Scenario(
        room=scen.room,
        source_positions=scen.source_positions[:2],
        mic_positions=scen.mic_positions[:2],
        source_signals=tuple(signals),
        input_sir_db=sir,
        seed=seed,
    )


def test_render_hits_the_requested_input_sir_exactly():
    mixture_set = render(two_by_two_scenario(sir=7.5), FS)
    soi = mixture_set.images[0].samples[:, 0]
    interferer = mixture_set.images[1].samples[:, 0]
    sir = 10.0 * np.log10(np.mean(soi**2) / np.mean(interferer**2))
    np.testing.assert_allclose(sir, 7.5, atol=1e-9)
    total = sum(img.samples for img in mixture_set.images)
    np.testing.assert_allclose(mixture_set.mixture.samples, total, atol=1e-12)


def test_render_leaves_natural_mixing_when_no_sir_requested():
    scen = two_by_two_scenario(sir=None)
    mixture_set = render(scen, FS)
    assert isinstance(mixture_set, MixtureSet)
    assert len(mixture_set.images) == 2
    assert mixture_set.mixture.num_channels == 2


def test_render_reuses_precomputed_responses():
    scen = two_by_two_scenario(sir=5.0)
    rirs = compute_rirs(scen, FS)
    a = render(scen, FS)
    b = render(scen, FS, rirs=rirs)
    np.testing.assert_array_equal(a.mixture.samples, b.mixture.samples)


def test_render_validation():
    scen = two_by_two_scenario()
    with pytest.raises(ValueError, match="signals for"):
        render(Scenario(room=scen.room,
                        source_positions=scen.source_positions,
                        mic_positions=scen.mic_positions,
                        source_signals=scen.source_signals[:1]), FS)
    wrong_rate = AudioBuffer(np.zeros(100), 8000)
    with pytest.raises(ValueError, match="sample-rate mismatch"):
        render(Scenario(room=scen.room,
                        source_positions=scen.source_positions,
                        mic_positions=scen.mic_positions,
                        source_signals=(scen.source_signals[0], wrong_rate)), FS)
    stereo = AudioBuffer(np.zeros((100, 2)), FS)
    with pytest.raises(ValueError, match="must be mono"):
        render(Scenario(room=scen.room,
                        source_positions=scen.source_positions,
                        mic_positions=scen.mic_positions,
                        source_signals=(stereo, scen.source_signals[1])), FS)


def test_scenario_validation():
    scen = default_geometry()
    bad_src = Scenario(source_positions=((9.0, 1.0, 1.0),),
                       mic_positions=scen.mic_positions[:2])
    with pytest.raises(ValueError, match="source 0 position"):
        bad_src.validate()
    with pytest.raises(ValueError, match=r"M >= 2"):
        Scenario(source_positions=scen.source_positions[:1],
                 mic_positions=scen.mic_positions[:1]).validate()
    with pytest.raises(ValueError, match="soi_index"):
        Scenario(source_positions=scen.source_positions[:1],
                 mic_positions=scen.mic_positions[:2], soi_index=1).validate()
    with pytest.raises(ValueError, match="ref_mic"):
        Scenario(source_positions=scen.source_positions[:1],
                 mic_positions=scen.mic_positions[:2], ref_mic=5).validate()


def test_speech_like_sources_are_seeded_and_unit_power():
    a = speech_like_sources(2, 8000, FS, 11)
    b = speech_like_sources(2, 8000, FS, 11)
    c = speech_like_sources(2, 8000, FS, 12)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.samples, y.samples)
    assert not np.array_equal(a[0].samples, c[0].samples)
    for x in a:
        assert np.sqrt(np.mean(x.samples**2)) == pytest.approx(1.0, abs=1e-12)


def test_default_geometry_layout():
    scen = default_geometry()
    mics = np.asarray(scen.mic_positions)
    assert mics.shape == (6, 3)
    np.testing.assert_allclose(np.diff(mics[:, 0]), 0.0125, atol=1e-12)
    np.testing.assert_allclose(mics[:, 0].mean(), 4.0, atol=1e-12)
    assert mics[0, 0] == pytest.approx(3.96875)
    center = np.array([4.0, 1.0, 1.5])
    for p in scen.source_positions:
        assert np.linalg.norm(np.asarray(p) - center) >= 1.0
    attached = Scenario(
        room=scen.room,
        source_positions=scen.source_positions[:2],
        mic_positions=scen.mic_positions[:2],
        source_signals=tuple(speech_like_sources(2, 1000, FS, 0)),
    )
    attached.validate()


def test_scenario_from_dict_defaults():
    scenario, fs, resolved = scenario_from_dict({})
    assert fs == 16000
    assert scenario.num_sources == 2
    assert scenario.num_mics == 2
    assert len(scenario.source_signals) == 2
    assert scenario.source_signals[0].num_samples == 3 * 16000
    assert resolved["sources"]["kind"] == "synthetic"
    assert resolved["room"]["rt60"] == pytest.approx(0.2)


def test_scenario_from_dict_overrides_and_errors(tmp_path):
    cfg = {
        "fs": 8000,
        "room": {"rt60": 0.15},
        "num_sources": 3,
        "num_mics": 4,
        "input_sir_db": 5.0,
        "soi_index": 1,
        "seed": 9,
    }
    scenario, fs, resolved = scenario_from_dict(cfg)
    assert fs == 8000
    assert scenario.num_sources == 3
    assert scenario.num_mics == 4
    assert scenario.soi_index == 1
    assert scenario.input_sir_db == 5.0
    assert resolved["seed"] == 9

    with pytest.raises(ValueError, match="num_sources"):
        scenario_from_dict({"num_sources": 7})
    with pytest.raises(ValueError, match="num_mics"):
        scenario_from_dict({"num_mics": 7})
    with pytest.raises(ValueError, match="sources kind"):
        scenario_from_dict({"sources": {"kind": "mic_array"}})


def test_scenario_from_dict_wav_sources(tmp_path):
    for i in range(2):
        sig = speech_like_sources(1, 4000, FS, i)[0]
        save_wav(tmp_path / f"s{i}.wav", sig)
    cfg = {"sources": {"kind": "wav", "paths": ["s0.wav", "s1.wav"]}}
    scenario, fs, resolved = scenario_from_dict(cfg, base_dir=tmp_path)
    assert len(scenario.source_signals) == 2
    assert scenario.source_signals[0].num_samples == 4000
    assert resolved["sources"]["kind"] == "wav"
    with pytest.raises(ValueError, match="WAV paths"):
        scenario_from_dict({"sources": {"kind": "wav", "paths": ["s0.wav"]}},
                           base_dir=tmp_path)


def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"num_sources": 2, "num_mics": 2, "seed": 4}))
    scenario, fs, resolved = scenario_from_dict(json.loads(path.read_text()))
    assert scenario.seed == 4
    rebuilt, _, _ = scenario_from_dict(resolved)
    assert rebuilt.source_positions == scenario.source_positions
    assert rebuilt.mic_positions == scenario.mic_positions
