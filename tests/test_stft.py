"""Analysis/synthesis transform tests: window identities, frame alignment,
Parseval, exact reconstruction, and WAV round trips."""

import numpy as np
import pytest

from fastive.stft import (
    AudioBuffer,
    Spectrogram,
    StftConfig,
    analyze,
    cola_deviation,
    load_wav,
    make_window,
    save_wav,
    synthesize,
)


def test_periodic_hann_values():
    # hand values of 0.5 - 0.5 cos(2 pi n / 8)
    w = make_window("hann", 8)
    np.testing.assert_allclose(w[[0, 2, 4, 6]], [0.0, 0.5, 1.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(make_window("sqrt_hann", 8) ** 2, w, atol=1e-15)
    np.testing.assert_array_equal(make_window("rect", 5), np.ones(5))
    with pytest.raises(ValueError, match="unknown window"):
        make_window("kaiser", 8)


def test_cola_holds_for_hann_quarter_hop():
    """The folded squared hann at hop = N/4 is the constant 3/2."""
    w = make_window("hann", 64)
    assert cola_deviation(w, 16) < 1e-12
    acc = sum(w[s:s + 16] ** 2 for s in range(0, 64, 16))
    np.testing.assert_allclose(acc, 1.5, atol=1e-14)


def test_cola_fails_for_bad_pairs():
    w = make_window("hann", 8)
    assert cola_deviation(w, 3) > 1e-2
    assert cola_deviation(w, 8) > 1e-2  # no overlap, w^2 is not constant
    assert cola_deviation(np.zeros(8), 2) == np.inf


def test_config_validation():
    StftConfig(8, 2, "hann").validate()
    for bad in (StftConfig(0, 2), StftConfig(8, 0), StftConfig(8, 16),
                StftConfig(8, 2, "kaiser"), StftConfig(8, 3, "hann")):
        with pytest.raises(ValueError, match="bad config"):
            bad.validate()
    assert StftConfig(8, 2).num_bins == 5


def test_frames_are_left_aligned():
    """An impulse at sample ``hop`` shows up at offset hop in frame 0 and
    offset 0 in frame 1."""
    x = np.zeros(16)
    x[4] = 1.0
    spec = analyze(AudioBuffer(x, 8000), StftConfig(8, 4, "rect"))
    assert spec.data.shape == (5, 3, 1)
    k = np.arange(5)
    # delta at position 4 of an 8-point frame transforms to (-1)^k
    np.testing.assert_allclose(spec.data[:, 0, 0], (-1.0) ** k, atol=1e-12)
    np.testing.assert_allclose(spec.data[:, 1, 0], np.ones(5), atol=1e-12)
    np.testing.assert_allclose(spec.data[:, 2, 0], 0.0, atol=1e-12)


def test_pure_tone_lands_in_its_bin():
    n = np.arange(8)
    x = np.cos(2.0 * np.pi * 2.0 * n / 8.0)
    spec = analyze(AudioBuffer(x, 8000), StftConfig(8, 8, "rect"))
    mag = np.abs(spec.data[:, 0, 0])
    np.testing.assert_allclose(mag[2], 4.0, atol=1e-12)  # N/2 for a unit cosine
    mag[2] = 0.0
    assert np.max(mag) < 1e-12


def test_parseval_per_frame():
    rng = np.random.default_rng(0)
    x = rng.normal(size=32)
    spec = analyze(AudioBuffer(x, 8000), StftConfig(32, 32, "rect"))
    weights = np.full(17, 2.0)
    weights[[0, 16]] = 1.0
    freq_energy = np.sum(weights * np.abs(spec.data[:, 0, 0]) ** 2) / 32.0
    np.testing.assert_allclose(freq_energy, np.sum(x**2), rtol=1e-12)


def test_analyze_needs_a_full_frame():
    with pytest.raises(ValueError, match="insufficient samples"):
        analyze(AudioBuffer(np.zeros(7), 8000), StftConfig(8, 2))


@pytest.mark.parametrize("config", [StftConfig(256, 64, "hann"),
                                    StftConfig(256, 128, "sqrt_hann")])
def test_round_trip_is_exact_in_the_interior(config):
    rng = np.random.default_rng(1)
    audio = AudioBuffer(rng.normal(size=(4000, 2)), 16000)
    out = synthesize(analyze(audio, config))
    assert out.num_channels == 2
    assert out.sample_rate_hz == 16000
    n = out.num_samples
    assert n <= audio.num_samples
    sl = slice(config.fft_size, n - config.fft_size)
    err = np.linalg.norm(out.samples[sl] - audio.samples[sl])
    assert err / np.linalg.norm(audio.samples[sl]) < 1e-12


def test_round_trip_rect_full_length():
    """Rectangular non-overlapping frames reconstruct every sample."""
    rng = np.random.default_rng(2)
    audio = AudioBuffer(rng.normal(size=64), 8000)
    out = synthesize(analyze(audio, StftConfig(8, 8, "rect")))
    np.testing.assert_allclose(out.samples, audio.samples, atol=1e-12)


def test_spectrogram_guards_bin_count():
    with pytest.raises(ValueError, match="bin count"):
        Spectrogram(np.zeros((4, 3, 2), dtype=complex), StftConfig(8, 2), 8000)
    with pytest.raises(ValueError, match=r"\[K, T, M\]"):
        Spectrogram(np.zeros((5, 3), dtype=complex), StftConfig(8, 2), 8000)


def test_audio_buffer_validation():
    mono = AudioBuffer(np.zeros(5), 8000)
    assert mono.samples.shape == (5, 1)
    assert mono.num_channels == 1
    with pytest.raises(ValueError, match="finite"):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError, match="1-D or"):
        AudioBuffer(np.zeros((2, 2, 2)), 8000)
    with pytest.raises(ValueError, match="sample_rate_hz"):
        AudioBuffer(np.zeros(5), 0)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    audio = AudioBuffer(rng.uniform(-0.9, 0.9, size=(200, 2)), 22050)

    p32 = tmp_path / "f32.wav"
    save_wav(p32, audio)
    back = load_wav(p32)
    assert back.sample_rate_hz == 22050
    np.testing.assert_allclose(back.samples, audio.samples, atol=1e-7)

    p16 = tmp_path / "p16.wav"
    save_wav(p16, audio, fmt="pcm16")
    back = load_wav(p16)
    np.testing.assert_allclose(back.samples, audio.samples, atol=1.0 / 32768.0)


def test_wav_mono_round_trip(tmp_path):
    audio = AudioBuffer(np.linspace(-0.9, 0.9, 50), 8000)
    path = tmp_path / "mono.wav"
    save_wav(path, audio)
    back = load_wav(path)
    assert back.samples.shape == (50, 1)
    np.testing.assert_allclose(back.samples, audio.samples, atol=1e-7)


def test_save_wav_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unsupported WAV"):
        save_wav(tmp_path / "x.wav", AudioBuffer(np.zeros(4), 8000), fmt="mp3")
