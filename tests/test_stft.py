"""Analysis/synthesis transform tests: window identities, the planar
layout, frame alignment, Parseval, exact reconstruction, WAV round trips,
and the fast FFT length.  Spectra are read and built complex through
``from_planar`` and ``planar``."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastive.stft import (
    ANALYZE_BLOCK,
    WINDOW_KINDS,
    AudioBuffer,
    StftConfig,
    analyze,
    cola_deviation,
    complex_gram,
    load_wav,
    make_window,
    next_fast_len,
    real_form,
    save_wav,
    synthesize,
)
from oracles import from_planar, planar


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
    StftConfig(8, 2, "hann")
    for bad in ((0, 2), (8, 0), (8, 16), (8, 2, "kaiser"), (8, 3, "hann"),
                (512, 128.0), (True, 1), (8, True)):
        with pytest.raises(ValueError, match="bad config"):
            StftConfig(*bad)
    with pytest.raises(ValueError, match="fft_size must be an integer, got 512.0"):
        StftConfig(512.0, 128)
    assert StftConfig(8, 2).num_bins == 5
    assert StftConfig(np.int64(8), np.int32(2)).num_bins == 5


# any size and hop, and often a power of two with a hop that divides it
FFT_SIZES = st.integers(8, 512) | st.sampled_from([2**p for p in range(3, 10)])
FFT_AND_HOP = FFT_SIZES.flatmap(lambda fft: st.tuples(
    st.just(fft),
    st.integers(1, fft + 8) | st.integers(1, 16).map(lambda k: max(fft // k, 1))))


@settings(deadline=None, max_examples=60)
@example(case=(8, 16), window="hann")
@example(case=(8, 3), window="rect")
@example(case=(512, 128), window="hann")
@example(case=(64, 32), window="sqrt_hann")
@example(case=(40, 1), window="hann")
@given(case=FFT_AND_HOP, window=st.sampled_from(WINDOW_KINDS))
def test_every_config_that_builds_reconstructs(case, window):
    """A config either raises when built, or analysis then synthesis gives
    back the interior of any signal."""
    fft, hop = case
    try:
        config = StftConfig(fft, hop, window)
    except ValueError as exc:
        assert "bad config" in str(exc)
        return
    x = np.random.default_rng(fft * 1000 + hop).normal(size=3 * fft + hop)
    spec = analyze(AudioBuffer(x, 8000), config)
    out = synthesize(spec, config, 8000).samples[:, 0]
    interior = slice(fft, out.size - fft)
    np.testing.assert_allclose(out[interior], x[interior], rtol=0, atol=1e-12)


def reference_overlap_add(spec, config):
    """Weighted overlap-add written frame by frame: each sample sums its
    frames' contributions in ascending frame order."""
    fft, hop = config.fft_size, config.hop_size
    window = make_window(config.window, fft)
    _, num_frames, num_channels = spec.shape
    frames = np.fft.irfft(spec, n=fft, axis=0) * window[:, None, None]
    num = np.zeros(((num_frames - 1) * hop + fft, num_channels))
    den = np.zeros(num.shape[0])
    for t in range(num_frames):
        num[t * hop:t * hop + fft] += frames[:, t, :]
        den[t * hop:t * hop + fft] += window**2
    good = den > 1e-12 * den.max()
    out = np.zeros_like(num)
    out[good] = num[good] / den[good, None]
    return out


@settings(deadline=None, max_examples=60)
@example(case=(2048, 512), window="hann", num_frames=9, num_channels=1)
@example(case=(33, 2), window="hann", num_frames=7, num_channels=2)
@example(case=(9, 2), window="sqrt_hann", num_frames=1, num_channels=3)
@example(case=(40, 1), window="hann", num_frames=4, num_channels=1)
@example(case=(8, 8), window="rect", num_frames=5, num_channels=2)
@given(case=FFT_AND_HOP, window=st.sampled_from(WINDOW_KINDS),
       num_frames=st.integers(1, 12), num_channels=st.integers(1, 3))
def test_synthesize_equals_a_per_frame_overlap_add(case, window, num_frames,
                                                   num_channels):
    """Bit for bit, for every config that builds, including a hop that does
    not divide the frame."""
    fft, hop = case
    try:
        config = StftConfig(fft, hop, window)
    except ValueError:
        return
    rng = np.random.default_rng(fft * 1000 + hop)
    shape = (config.num_bins, num_frames, num_channels)
    spec = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    out = synthesize(planar(spec), config, 8000).samples
    assert np.array_equal(out, reference_overlap_add(spec, config))


def test_next_fast_len_matches_scipy_up_to_2_to_16():
    """Every length up to 2**16 rounds up to the 5-smooth length scipy
    picks for a real transform."""
    from scipy.fft import next_fast_len as scipy_next_fast_len

    for n in range(1, 2**16 + 1):
        assert next_fast_len(n) == scipy_next_fast_len(n, True), n


@settings(deadline=None, max_examples=300)
@example(n=10**7)
@example(n=2**23 + 1)
@given(n=st.integers(1, 10**7))
def test_next_fast_len_matches_scipy_up_to_1e7(n):
    from scipy.fft import next_fast_len as scipy_next_fast_len

    assert next_fast_len(n) == scipy_next_fast_len(n, True)


def _assert_planar_per_frame_rfft(x, config):
    num_channels = x.shape[1]
    spec = analyze(AudioBuffer(x, 8000), config)
    window = make_window(config.window, config.fft_size)
    starts = range(0, x.shape[0] - config.fft_size + 1, config.hop_size)
    per_frame = np.stack([np.fft.rfft(window * x[s:s + config.fft_size, m])
                          for s in starts for m in range(num_channels)])
    want = per_frame.reshape(len(starts), num_channels, -1).transpose(2, 0, 1)
    assert spec.dtype == np.float64 and spec.flags.c_contiguous
    np.testing.assert_array_equal(spec, planar(want))
    return spec


@pytest.mark.parametrize("config", [StftConfig(8, 4, "rect"), StftConfig(64, 16),
                                    StftConfig(2048, 512)])
@pytest.mark.parametrize("num_channels", [1, 3])
def test_analyze_is_the_planar_per_frame_rfft(config, num_channels):
    """The layout pin: bin k of ``analyze`` holds, over the frames, the real
    rows then the imaginary rows of each channel's windowed ``rfft``."""
    rng = np.random.default_rng(num_channels)
    x = rng.normal(size=(3 * config.fft_size + 5, num_channels))
    _assert_planar_per_frame_rfft(x, config)


@pytest.mark.parametrize("config", [StftConfig(8, 4, "rect"), StftConfig(64, 16),
                                    StftConfig(2048, 512)])
@pytest.mark.parametrize("num_channels", [1, 3])
@pytest.mark.parametrize("num_frames", [1, 6, ANALYZE_BLOCK, 2 * ANALYZE_BLOCK + 5])
def test_analyze_layout_holds_across_frame_blocks(config, num_channels, num_frames):
    """The same layout pin in one block of frames or several, the last one
    short."""
    rng = np.random.default_rng(num_channels)
    num_samples = (num_frames - 1) * config.hop_size + config.fft_size
    # the trailing samples fill no frame
    x = rng.normal(size=(num_samples + config.hop_size - 1, num_channels))
    spec = _assert_planar_per_frame_rfft(x, config)
    assert spec.shape[2] == num_frames


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 5), (6, 1)])
def test_real_form_acts_on_planar_data_as_the_operator_does(rows, cols):
    """``real_form(op) @ planar(x)`` is ``planar(op x)``, square or not."""
    rng = np.random.default_rng(rows * 10 + cols)
    op = rng.normal(size=(4, rows, cols)) + 1j * rng.normal(size=(4, rows, cols))
    x = rng.normal(size=(4, 7, cols)) + 1j * rng.normal(size=(4, 7, cols))
    got = real_form(op) @ planar(x)
    assert got.shape == (4, 2 * rows, 7)
    want = planar(np.einsum("kab,ktb->kta", op, x))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("rows, cols", [(1, 1), (3, 3), (2, 5), (6, 1)])
def test_complex_gram_reads_the_complex_product_off_the_real_gram(rows, cols):
    """``complex_gram(planar(x) @ planar(y)^T)`` is ``x y^H``, square or not:
    (6, 1) is the shape of the fixed point's ``b``."""
    rng = np.random.default_rng(rows * 10 + cols)
    x = rng.normal(size=(4, 9, rows)) + 1j * rng.normal(size=(4, 9, rows))
    y = rng.normal(size=(4, 9, cols)) + 1j * rng.normal(size=(4, 9, cols))
    got = complex_gram(planar(x) @ planar(y).transpose(0, 2, 1))
    assert got.shape == (4, rows, cols)
    want = np.einsum("kta,ktb->kab", x, y.conj())
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_frames_are_left_aligned():
    """An impulse at sample ``hop`` shows up at offset hop in frame 0 and
    offset 0 in frame 1."""
    x = np.zeros(16)
    x[4] = 1.0
    spec = from_planar(analyze(AudioBuffer(x, 8000), StftConfig(8, 4, "rect")))
    assert spec.shape == (5, 3, 1)
    k = np.arange(5)
    # delta at position 4 of an 8-point frame transforms to (-1)^k
    np.testing.assert_allclose(spec[:, 0, 0], (-1.0) ** k, atol=1e-12)
    np.testing.assert_allclose(spec[:, 1, 0], np.ones(5), atol=1e-12)
    np.testing.assert_allclose(spec[:, 2, 0], 0.0, atol=1e-12)


def test_pure_tone_lands_in_its_bin():
    n = np.arange(8)
    x = np.cos(2.0 * np.pi * 2.0 * n / 8.0)
    spec = from_planar(analyze(AudioBuffer(x, 8000), StftConfig(8, 8, "rect")))
    mag = np.abs(spec[:, 0, 0])
    np.testing.assert_allclose(mag[2], 4.0, atol=1e-12)  # N/2 for a unit cosine
    mag[2] = 0.0
    assert np.max(mag) < 1e-12


def test_parseval_per_frame():
    rng = np.random.default_rng(0)
    x = rng.normal(size=32)
    spec = from_planar(analyze(AudioBuffer(x, 8000), StftConfig(32, 32, "rect")))
    weights = np.full(17, 2.0)
    weights[[0, 16]] = 1.0
    freq_energy = np.sum(weights * np.abs(spec[:, 0, 0]) ** 2) / 32.0
    np.testing.assert_allclose(freq_energy, np.sum(x**2), rtol=1e-12)


def test_analyze_needs_a_full_frame():
    with pytest.raises(ValueError, match="insufficient samples"):
        analyze(AudioBuffer(np.zeros(7), 8000), StftConfig(8, 2))


@pytest.mark.parametrize("config", [StftConfig(256, 64, "hann"),
                                    StftConfig(256, 128, "sqrt_hann")])
def test_round_trip_is_exact_in_the_interior(config):
    rng = np.random.default_rng(1)
    audio = AudioBuffer(rng.normal(size=(4000, 2)), 16000)
    out = synthesize(analyze(audio, config), config, audio.sample_rate_hz)
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
    config = StftConfig(8, 8, "rect")
    out = synthesize(analyze(audio, config), config, audio.sample_rate_hz)
    np.testing.assert_allclose(out.samples, audio.samples, atol=1e-12)


def test_synthesize_guards_bin_count():
    with pytest.raises(ValueError, match="bin count"):
        synthesize(np.zeros((4, 2, 3)), StftConfig(8, 2), 8000)
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\]"):
        synthesize(np.zeros((5, 3)), StftConfig(8, 2), 8000)


def test_audio_buffer_validation():
    mono = AudioBuffer(np.zeros(5), 8000)
    assert mono.samples.shape == (5, 1)
    assert mono.num_channels == 1
    with pytest.raises(ValueError, match="finite"):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError, match="1-D or"):
        AudioBuffer(np.zeros((2, 2, 2)), 8000)
    for rate in (0, 16000.7, True, "16000"):
        with pytest.raises(ValueError, match="sample_rate_hz"):
            AudioBuffer(np.zeros(5), rate)
    rate = AudioBuffer(np.zeros(5), np.int64(8000)).sample_rate_hz
    assert rate == 8000 and type(rate) is int


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

    from scipy.io import wavfile
    pcm = np.array([[-2**31, 2**31 - 1], [12345, -678]], dtype=np.int32)
    wavfile.write(tmp_path / "i32.wav", 8000, pcm)
    np.testing.assert_array_equal(load_wav(tmp_path / "i32.wav").samples, pcm / 2.0**31)
    wavfile.write(tmp_path / "u8.wav", 8000, np.array([0, 128, 255], dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported WAV sample format uint8"):
        load_wav(tmp_path / "u8.wav")


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
