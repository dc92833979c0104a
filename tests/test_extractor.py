"""Fixed-point solver tests.

The update rule is pinned against a literal per-bin reference
implementation, the gradient against finite differences, and the scaling
resolution against mixtures with a known mixing system.  End-to-end, the
solver has to capture a source that dominates the mixture.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastive.extractor import (
    STAGES,
    DemixState,
    SolverConfig,
    _update_terms,
    apply_demixer,
    back_project,
    convergence_delta,
    estimate_mixing_vector,
    extract,
    iterate_once,
    rescale,
    solve,
)
from fastive.metrics import evaluate
from fastive.priors import ContrastModel, g, g_double_prime, g_prime
from fastive.roomsim import AudioBuffer, MixtureSet, speech_like_sources
from fastive.stft import Spectrogram, StftConfig
from fastive.whitening import apply_whitener, build_whitener, estimate_covariance

ALL_KINDS = ("ssl", "gg", "t")


def spec_of(data):
    """Wrap a [K, T, R] array; K = 1 uses the single-bin config."""
    k = data.shape[0]
    cfg = StftConfig(1, 1, "rect") if k == 1 else StftConfig(2 * (k - 1), k - 1, "rect")
    return Spectrogram(data, cfg, 16000)


def random_instance(seed, num_bins, num_frames, rank):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_bins, num_frames, rank)) \
        + 1j * rng.normal(size=(num_bins, num_frames, rank))
    w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return spec_of(data), w


def reference_update(spec, w, model):
    """Unvectorized one-step update, written directly from the rule:
    per bin, a = mean[G' + |y|^2 G''], b = mean[conj(y) G' x], then
    normalize a w - b."""
    x = spec.data
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


def test_apply_demixer_matches_loop():
    spec, w = random_instance(0, 2, 3, 2)
    y = apply_demixer(spec, w)
    for k in range(2):
        for t in range(3):
            np.testing.assert_allclose(y[k, t], np.vdot(w[k], spec.data[k, t]),
                                       atol=1e-15)


def assert_within(got, ref, scale, rel=1e-12):
    """Elementwise ``|got - ref| <= rel * scale``, where ``scale`` is the
    contraction taken over absolute values (the rounding-error scale)."""
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= rel * scale)


@settings(deadline=None, max_examples=60)
@given(num_bins=st.integers(1, 9), num_frames=st.integers(2, 60),
       num_channels=st.integers(2, 12), kind=st.sampled_from(ALL_KINDS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_contractions_match_einsum(num_bins, num_frames, num_channels, kind,
                                   seed, data):
    """The batched-matmul contractions against einsum written out here, on
    channels whose gains span 1e-3..1e3, with a reduced whitening rank."""
    rank = data.draw(st.integers(1, num_channels - 1), label="rank")
    gains = np.array(data.draw(st.lists(st.floats(1e-3, 1e3),
                                        min_size=num_channels,
                                        max_size=num_channels), label="gains"))
    rng = np.random.default_rng(seed)
    shape = (num_bins, num_frames, num_channels)
    x = gains * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    spec = spec_of(x.copy())
    ax = np.abs(x)

    cov = estimate_covariance(spec).cov
    ref = np.einsum("ktm,ktn->kmn", x, x.conj()) / num_frames
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    assert_within(cov, ref, np.einsum("ktm,ktn->kmn", ax, ax) / num_frames)

    bank = build_whitener(estimate_covariance(spec), rank=rank)
    q = bank.whitener
    white = apply_whitener(spec, bank)
    assert white.data.shape == (num_bins, num_frames, rank)
    ref_white = np.einsum("krm,ktm->ktr", q, x)
    assert_within(white.data, ref_white, np.einsum("krm,ktm->ktr", np.abs(q), ax))

    w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    xw = white.data
    aw = np.abs(xw)
    y = np.einsum("kr,ktr->kt", w.conj(), xw)
    assert_within(apply_demixer(white, w), y,
                  np.einsum("kr,ktr->kt", np.abs(w), aw))

    model = ContrastModel(kind=kind)
    cost, a, b = _update_terms(white, w, model)
    power = np.abs(y) ** 2
    r = power.sum(axis=0)
    gp, gpp = g_prime(model, r), g_double_prime(model, r)
    ref_cost = -np.mean(g(model, r))
    assert abs(cost - ref_cost) <= 1e-12 * np.mean(np.abs(g(model, r)))
    assert_within(a, np.mean(gp + power * gpp, axis=1),
                  np.mean(np.abs(gp) + power * np.abs(gpp), axis=1))
    assert_within(b, np.einsum("kt,ktr->kr", y.conj() * gp, xw) / num_frames,
                  np.einsum("kt,ktr->kr", np.abs(y * gp), aw) / num_frames)

    # writing through the data views reaches the contractions
    spec.data[:] = 2.0 * spec.data
    assert_within(estimate_covariance(spec).cov, 4.0 * ref,
                  4.0 * np.einsum("ktm,ktn->kmn", ax, ax) / num_frames)
    white.data[:] = ref_white
    assert_within(apply_demixer(white, w), np.einsum("kr,ktr->kt", w.conj(), ref_white),
                  np.einsum("kr,ktr->kt", np.abs(w), np.abs(ref_white)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iterate_once_matches_reference(kind):
    spec, w = random_instance(1, 3, 20, 2)
    model = ContrastModel(kind=kind)
    got = iterate_once(spec, DemixState(w=w.copy()), model)
    np.testing.assert_allclose(got.w, reference_update(spec, w, model), atol=1e-12)
    assert got.iteration == 1
    assert len(got.cost_history) == 1
    np.testing.assert_allclose(np.linalg.norm(got.w, axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind):
    spec, w = random_instance(2, 2, 16, 2)
    model = ContrastModel(kind=kind)
    analytic = -_update_terms(spec, w, model)[2]
    eps = 1e-6
    fd = np.zeros_like(analytic)
    for k in range(w.shape[0]):
        for m in range(w.shape[1]):
            for direction in (1.0, 1.0j):
                wp = w.copy()
                wp[k, m] += eps * direction
                wm = w.copy()
                wm[k, m] -= eps * direction
                d = (_update_terms(spec, wp, model)[0]
                     - _update_terms(spec, wm, model)[0]) / (2 * eps)
                fd[k, m] += 0.5 * d * direction
    assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)


def stationary_instance():
    """Duplicate frames pairwise on channel 1 and flip signs pairwise on
    channel 2: the cross term of the update cancels exactly, so w = e_1 is
    a fixed point up to rounding."""
    rng = np.random.default_rng(3)
    half = rng.normal(size=20) + 1j * rng.normal(size=20)
    ch1 = np.repeat(half, 2)
    ch2 = np.tile([0.7 + 0.2j, -(0.7 + 0.2j)], 20)
    return spec_of(np.stack([ch1, ch2], axis=1)[None, :, :])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exactly_stationary_point_is_fixed(kind):
    spec = stationary_instance()
    state = DemixState(w=np.array([[1.0 + 0.0j, 0.0 + 0.0j]]))
    new = iterate_once(spec, state, ContrastModel(kind=kind))
    assert convergence_delta(new.w, state.w) < 1e-12


def test_convergence_delta_properties():
    w = np.array([[1.0 + 0.0j, 0.0]])
    assert convergence_delta(w, w) == 0.0
    assert convergence_delta(np.array([[0.0, 1.0 + 0.0j]]), w) == 1.0
    rotated = np.exp(1.3j) * w
    assert convergence_delta(rotated, w) < 1e-15


def separable_instance(seed=42, num_frames=5000):
    """Unit-power heavy-tailed + gaussian source pair through a random
    unitary mix; data is white by construction."""
    rng = np.random.default_rng(seed)
    s1 = (rng.laplace(size=num_frames) + 1j * rng.laplace(size=num_frames)) / 2.0
    s2 = (rng.normal(size=num_frames) + 1j * rng.normal(size=num_frames)) / np.sqrt(2.0)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    x = np.stack([s1, s2], axis=1) @ q.T
    return spec_of(x[None, :, :]), q, s1


@pytest.mark.parametrize("kind", ["ssl", "t"])
def test_solve_aligns_with_the_heavy_tailed_source(kind):
    spec, q, _ = separable_instance()
    state = solve(spec, SolverConfig(prior=ContrastModel(kind=kind),
                                     max_iter=200, tol=1e-9))
    assert state.converged
    assert 1.0 - abs(np.vdot(state.w[0], q[:, 0])) < 1e-3


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_solve_captures_a_dominant_source(kind):
    """With the heavy-tailed source 10 dB above the gaussian one, every
    prior extracts it through the whitening pipeline."""
    rng = np.random.default_rng(7)
    num_frames = 5000
    s1 = np.sqrt(10.0) * (rng.laplace(size=num_frames)
                          + 1j * rng.laplace(size=num_frames)) / 2.0
    s2 = (rng.normal(size=num_frames) + 1j * rng.normal(size=num_frames)) / np.sqrt(2.0)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    spec = spec_of((np.stack([s1, s2], axis=1) @ q.T)[None, :, :])

    bank = build_whitener(estimate_covariance(spec))
    white = apply_whitener(spec, bank)
    state = solve(white, SolverConfig(prior=ContrastModel(kind=kind)))
    y = apply_demixer(white, state.w)[0]
    corr = abs(np.vdot(y, s1)) / (np.linalg.norm(y) * np.linalg.norm(s1))
    assert 1.0 - corr < 1e-3


def test_solve_starts_from_e1():
    """On the exactly-stationary instance one step from the one-hot start
    stays at e_1, so solve must begin there."""
    spec = stationary_instance()
    state = solve(spec, SolverConfig(max_iter=1))
    np.testing.assert_allclose(np.abs(state.w), [[1.0, 0.0]], atol=1e-12)


def test_back_project_composes_the_whitener():
    spec, _ = random_instance(5, 3, 64, 3)
    bank = build_whitener(estimate_covariance(spec))
    state = solve(spec, SolverConfig(max_iter=2, tol=1e-300))
    state = back_project(state, bank)
    for k in range(3):
        expected = bank.whitener[k].conj().T @ state.w[k]
        np.testing.assert_allclose(state.w_effective[k], expected, atol=1e-12)


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
    return spec_of(data), mixing, sources


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


def test_mixing_vector_recovery_is_exact():
    spec, mixing, _ = exact_mixture(21)
    cov = estimate_covariance(spec)
    state = DemixState(w=np.zeros((6, 2), dtype=complex),
                       w_effective=exact_demixer(mixing))
    h = estimate_mixing_vector(cov, state)
    assert np.max(np.abs(h - mixing[:, :, 0])) < 1e-8


def test_rescaled_output_is_the_source_image_at_the_reference():
    spec, mixing, sources = exact_mixture(22)
    cov = estimate_covariance(spec)
    state = DemixState(w=np.zeros((6, 2), dtype=complex),
                       w_effective=exact_demixer(mixing))
    h = estimate_mixing_vector(cov, state)
    ref = 1
    state = rescale(state, h, ref)
    y = apply_demixer(spec, state.w_effective)
    image = mixing[:, ref, 0][:, None] * sources[:, :, 0]
    assert np.max(np.abs(y - image)) < 1e-10


def test_mixing_vector_silent_bin_yields_zero():
    spec, mixing, _ = exact_mixture(23)
    spec.data[4] = 0.0
    cov = estimate_covariance(spec)
    state = DemixState(w=np.zeros((6, 2), dtype=complex),
                       w_effective=exact_demixer(mixing))
    h = estimate_mixing_vector(cov, state)
    np.testing.assert_array_equal(h[4], 0.0)


def test_rescale_warns_when_source_invisible_at_reference():
    spec, mixing, sources = exact_mixture(24)
    # rebuild the mixture so bin 2's source 1 is invisible at mic 0
    mixing[2, 0, 0] = 0.0
    spec.data[:] = np.einsum("kmn,ktn->ktm", mixing, sources)
    cov = estimate_covariance(spec)
    state = DemixState(w=np.zeros((6, 2), dtype=complex),
                       w_effective=exact_demixer(mixing))
    h = estimate_mixing_vector(cov, state)
    with pytest.warns(RuntimeWarning, match="unobservable"):
        rescaled = rescale(state, h, 0)
    # the unobservable bin keeps its unit-output scale
    np.testing.assert_allclose(rescaled.w_effective[2], state.w_effective[2])


def test_mixing_vector_guards():
    spec, mixing, _ = exact_mixture(25)
    cov = estimate_covariance(spec)
    with pytest.raises(ValueError, match="back_project"):
        estimate_mixing_vector(cov, DemixState(w=np.zeros((6, 2), dtype=complex)))
    with pytest.raises(ValueError, match="back_project"):
        rescale(DemixState(w=np.zeros((6, 2), dtype=complex)), mixing[:, :, 0], 0)
    state = DemixState(w=np.zeros((6, 2), dtype=complex),
                       w_effective=exact_demixer(mixing))
    h = estimate_mixing_vector(cov, state)
    with pytest.raises(ValueError, match="ref_mic"):
        rescale(state, h, 3)


def test_mixing_vector_rejects_null_output():
    # data lives on channel 0 only; a demixer on channel 1 has zero output
    rng = np.random.default_rng(26)
    data = np.zeros((1, 50, 2), dtype=complex)
    data[:, :, 0] = rng.normal(size=(1, 50)) + 1j * rng.normal(size=(1, 50))
    spec = spec_of(data)
    cov = estimate_covariance(spec)
    state = DemixState(w=np.zeros((1, 2), dtype=complex),
                       w_effective=np.array([[0.0, 1.0 + 0.0j]]))
    with pytest.raises(ValueError, match="degenerate output power"):
        estimate_mixing_vector(cov, state)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError, match="ref_mic"):
        SolverConfig(ref_mic=-1)


def test_extract_input_guards():
    mono = AudioBuffer(np.zeros(4000), 16000)
    with pytest.raises(ValueError, match="2 channels"):
        extract(mono)
    stereo = AudioBuffer(np.zeros((4000, 2)), 16000)
    with pytest.raises(ValueError, match="ref_mic 2"):
        extract(stereo, SolverConfig(ref_mic=2), StftConfig(256, 64))


def test_extract_handles_more_than_sixteen_mics():
    noise = np.random.default_rng(17).normal(size=(16000, 17))
    result = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=3))
    assert result.audio.num_channels == 1
    assert 0 < result.audio.num_samples <= 16000
    assert np.all(np.isfinite(result.audio.samples))


@settings(deadline=None, max_examples=20)
@given(gain=st.floats(1e-3, 1e3), num_channels=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
def test_extract_is_gain_equivariant(gain, num_channels, seed):
    """extract(c x) = c extract(x): whitening removes the gain and the
    rescale to the reference microphone restores it."""
    noise = np.random.default_rng(seed).laplace(size=(8000, num_channels))
    config = SolverConfig(max_iter=5)
    base = extract(AudioBuffer(noise, 16000), config).audio.samples
    scaled = extract(AudioBuffer(gain * noise, 16000), config).audio.samples
    assert np.max(np.abs(scaled - gain * base)) <= 1e-8 * np.max(np.abs(gain * base))


def test_extract_times_its_stages():
    noise = np.random.default_rng(31).normal(size=(8000, 3))
    start = time.perf_counter()
    result = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=5))
    wall = time.perf_counter() - start
    assert tuple(result.timings) == STAGES
    assert all(t >= 0.0 for t in result.timings.values())
    assert sum(result.timings.values()) <= wall
    assert result.runtime_seconds == pytest.approx(
        result.timings["solve"] + result.timings["rescale"])


def instantaneous_trial(seed, kind, dominance_db=10.0, duration=3.0):
    """Two synthetic talkers through a random well-conditioned 2x2 matrix,
    talker 0 scaled to sit at least ``dominance_db`` above talker 1 at
    every microphone."""
    fs = 16000
    rng = np.random.default_rng(seed)
    n = int(duration * fs)
    s = np.stack([b.samples[:, 0] for b in speech_like_sources(2, n, fs, seed)],
                 axis=1)
    while True:
        mix = rng.uniform(0.5, 1.5, size=(2, 2)) \
            * rng.choice([-1.0, 1.0], size=(2, 2))
        if np.linalg.cond(mix) < 10:
            break
    ratios = [np.mean((mix[i, 1] * s[:, 1]) ** 2)
              / np.mean((mix[i, 0] * s[:, 0]) ** 2) for i in range(2)]
    s[:, 0] *= np.sqrt(10.0 ** (dominance_db / 10.0) * max(ratios))
    x = s @ mix.T
    images = [AudioBuffer(np.outer(s[:, j], mix[:, j]), fs) for j in range(2)]
    truth = MixtureSet(AudioBuffer(x, fs), images)
    result = extract(AudioBuffer(x, fs),
                     SolverConfig(prior=ContrastModel(kind=kind)),
                     StftConfig(256, 64))
    return result, truth


def test_extract_reports_runtime_and_shape():
    result, truth = instantaneous_trial(100, "t", duration=1.0)
    assert result.audio.num_channels == 1
    assert result.audio.sample_rate_hz == 16000
    assert result.runtime_seconds > 0.0
    assert result.iterations_used == result.state.iteration
    assert result.state.w_effective is not None


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_extract_captures_the_dominant_talker(kind):
    """Ten seeded instantaneous mixtures with a 10 dB dominant talker;
    the extracted signal must improve the interference ratio in at least
    nine of them."""
    wins = 0
    for seed in range(100, 110):
        result, truth = instantaneous_trial(seed, kind)
        report = evaluate(result, truth, filter_len=32)
        wins += int(report.success)
    assert wins >= 9
