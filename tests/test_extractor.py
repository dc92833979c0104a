"""Fixed-point solver tests.

The update rule is pinned against a literal per-bin reference
implementation, the gradient against finite differences, and the scaling
resolution against mixtures with a known mixing system; those references
live in ``oracles.py``, shared with the acceptance gate.  End-to-end, the
solver has to capture a source that dominates the mixture.
"""

import os
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fastive import extractor
from fastive.extractor import (
    SPLIT_MIN_ENTRIES,
    STAGES,
    SolverConfig,
    _bin_pool,
    _update_terms,
    back_project,
    demix,
    estimate_mixing_vector,
    extract,
    iterate_once,
    rescale,
    solve,
)
from fastive.metrics import evaluate
from fastive.priors import ContrastModel, g, g_double_prime, g_prime
from fastive.roomsim import (AudioBuffer, MixtureSet, default_geometry, render,
                             speech_like_sources)
from fastive.stft import StftConfig, analyze
from fastive.whitening import apply_whitener, build_whitener, estimate_covariance
from oracles import (apply_demixer, exact_demixer, exact_mixture,
                     finite_difference_gradient, from_planar, planar,
                     reference_update)

ALL_KINDS = ("ssl", "gg", "t")


def random_instance(seed, num_bins, num_frames, rank):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(num_bins, num_frames, rank)) \
        + 1j * rng.normal(size=(num_bins, num_frames, rank))
    w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return data, w


def test_apply_demixer_matches_loop():
    spec, w = random_instance(0, 2, 3, 2)
    y = apply_demixer(spec, w)
    for k in range(2):
        for t in range(3):
            np.testing.assert_allclose(y[k, t], np.vdot(w[k], spec[k, t]),
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
    spec = planar(x)
    ax = np.abs(x)

    cov = estimate_covariance(spec)
    ref = np.einsum("ktm,ktn->kmn", x, x.conj()) / num_frames
    ref = 0.5 * (ref + ref.conj().transpose(0, 2, 1))
    assert_within(cov, ref, np.einsum("ktm,ktn->kmn", ax, ax) / num_frames)

    q = build_whitener(estimate_covariance(spec), rank=rank)
    white = apply_whitener(spec, q)
    assert white.shape == (num_bins, 2 * rank, num_frames)
    ref_white = np.einsum("krm,ktm->ktr", q, x)
    assert_within(from_planar(white), ref_white,
                  np.einsum("krm,ktm->ktr", np.abs(q), ax))

    w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    xw = from_planar(white)
    aw = np.abs(xw)
    y = np.einsum("kr,ktr->kt", w.conj(), xw)
    assert_within(from_planar(demix(white, w))[:, :, 0], y,
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
    spec[:] = 2.0 * spec
    assert_within(estimate_covariance(spec), 4.0 * ref,
                  4.0 * np.einsum("ktm,ktn->kmn", ax, ax) / num_frames)
    white[:] = planar(ref_white)
    assert_within(from_planar(demix(white, w))[:, :, 0],
                  np.einsum("kr,ktr->kt", w.conj(), ref_white),
                  np.einsum("kr,ktr->kt", np.abs(w), np.abs(ref_white)))


def test_demix_into_a_buffer_matches_the_allocating_call_bit_for_bit():
    """``out`` is only where the output goes: ``demix`` fills and returns
    it, also as a bin slice of a larger array, with the allocating call's
    bits."""
    spec, w = random_instance(3, 5, 17, 3)
    white = planar(spec)
    want = demix(white, w)
    buf = np.empty_like(want)
    assert demix(white, w, out=buf) is buf
    assert np.array_equal(buf, want)
    y = np.full_like(want, np.nan)
    demix(white[1:4], w[1:4], out=y[1:4])
    assert np.array_equal(y[1:4], want[1:4])


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_iterate_once_matches_reference(kind):
    spec, w = random_instance(1, 3, 20, 2)
    model = ContrastModel(kind=kind)
    w_new, cost, step = iterate_once(planar(spec), w, model)
    np.testing.assert_allclose(w_new, reference_update(spec, w, model), atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(w_new, axis=1), 1.0, atol=1e-12)
    assert cost == _update_terms(planar(spec), w, model)[0]
    inner = [abs(np.vdot(w_new[k], w[k])) for k in range(w.shape[0])]
    assert step == pytest.approx(1.0 - min(inner), abs=1e-15)


@settings(deadline=None, max_examples=40)
@given(num_bins=st.integers(1, 9), num_frames=st.integers(2, 40),
       num_channels=st.integers(2, 6), kind=st.sampled_from(ALL_KINDS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_an_iteration_leaves_its_inputs_alone(num_bins, num_frames, num_channels,
                                              kind, seed, data):
    """_update_terms works in place on its own temporaries: neither it nor
    iterate_once writes to the whitened data or the incoming w."""
    rank = data.draw(st.integers(1, num_channels), label="rank")
    spec = planar(random_instance(seed, num_bins, num_frames, num_channels)[0])
    white = apply_whitener(spec, build_whitener(estimate_covariance(spec), rank=rank))
    _, w = random_instance(seed + 1, num_bins, 1, rank)
    model = ContrastModel(kind=kind)
    white_before, w_before = white.tobytes(), w.tobytes()
    _update_terms(white, w, model)
    assert white.tobytes() == white_before and w.tobytes() == w_before
    iterate_once(white, w, model)
    assert white.tobytes() == white_before and w.tobytes() == w_before


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradient_matches_finite_differences(kind):
    spec, w = random_instance(2, 2, 16, 2)
    model = ContrastModel(kind=kind)
    analytic = -_update_terms(planar(spec), w, model)[2]
    fd = finite_difference_gradient(planar(spec), w, model)
    assert np.linalg.norm(fd - analytic) < 1e-5 * np.linalg.norm(analytic)


def stationary_instance():
    """Duplicate frames pairwise on channel 1 and flip signs pairwise on
    channel 2: the cross term of the update cancels exactly, so w = e_1 is
    a fixed point up to rounding."""
    rng = np.random.default_rng(3)
    half = rng.normal(size=20) + 1j * rng.normal(size=20)
    ch1 = np.repeat(half, 2)
    ch2 = np.tile([0.7 + 0.2j, -(0.7 + 0.2j)], 20)
    return np.stack([ch1, ch2], axis=1)[None, :, :]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_exactly_stationary_point_is_fixed(kind):
    spec = stationary_instance()
    _, _, step = iterate_once(planar(spec), np.array([[1.0 + 0.0j, 0.0 + 0.0j]]),
                              ContrastModel(kind=kind))
    assert 0.0 <= step < 1e-12


@settings(deadline=None, max_examples=60)
@given(num_bins=st.integers(1, 9), num_frames=st.integers(2, 40),
       rank=st.integers(1, 6), kind=st.sampled_from(ALL_KINDS),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_iterate_once_is_blind_to_each_bins_phase(num_bins, num_frames, rank, kind,
                                                   seed, data):
    """A per-bin phase e^{i phi} on the incoming w comes out on w_new and
    changes neither the cost nor the step: the objective sees |y| only."""
    spec, w = random_instance(seed, num_bins, num_frames, rank)
    phi = np.array(data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=num_bins,
                                      max_size=num_bins), label="phi"))
    phase = np.exp(1j * phi)[:, None]
    model = ContrastModel(kind=kind)
    w_new, cost, step = iterate_once(planar(spec), w, model)
    w_rot, cost_rot, step_rot = iterate_once(planar(spec), phase * w, model)
    assert np.max(np.abs(w_rot - phase * w_new)) <= 1e-12
    assert abs(cost_rot - cost) <= 1e-12 * abs(cost)
    assert abs(step_rot - step) <= 1e-12


def test_iterate_once_names_a_degenerate_update():
    """A constant output y = (1 + i) / 2 under the t prior at nu = 1/2 gives
    a = b = 1/2 exactly, so ``a w - b`` is zero and cannot be normalized."""
    data = planar(np.full((1, 8, 1), 0.5 + 0.5j))
    with pytest.raises(ValueError, match="degenerate update at bin 0"):
        iterate_once(data, np.ones((1, 1), complex), ContrastModel("t", nu=0.5))


def separable_instance(seed=42, num_frames=5000):
    """Unit-power heavy-tailed + gaussian source pair through a random
    unitary mix; data is white by construction."""
    rng = np.random.default_rng(seed)
    s1 = (rng.laplace(size=num_frames) + 1j * rng.laplace(size=num_frames)) / 2.0
    s2 = (rng.normal(size=num_frames) + 1j * rng.normal(size=num_frames)) / np.sqrt(2.0)
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(raw)
    x = np.stack([s1, s2], axis=1) @ q.T
    return x[None, :, :], q, s1


@pytest.mark.parametrize("kind", ["ssl", "t"])
def test_solve_aligns_with_the_heavy_tailed_source(kind):
    spec, q, _ = separable_instance()
    state = solve(planar(spec), SolverConfig(prior=ContrastModel(kind=kind),
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
    spec = planar((np.stack([s1, s2], axis=1) @ q.T)[None, :, :])

    q = build_whitener(estimate_covariance(spec))
    white = apply_whitener(spec, q)
    state = solve(white, SolverConfig(prior=ContrastModel(kind=kind)))
    y = from_planar(demix(white, state.w))[0, :, 0]
    corr = abs(np.vdot(y, s1)) / (np.linalg.norm(y) * np.linalg.norm(s1))
    assert 1.0 - corr < 1e-3


def test_solve_starts_from_e1():
    """On the exactly-stationary instance one step from the one-hot start
    stays at e_1, so solve must begin there."""
    spec = stationary_instance()
    state = solve(planar(spec), SolverConfig(max_iter=1))
    np.testing.assert_allclose(np.abs(state.w), [[1.0, 0.0]], atol=1e-12)


def plain_fixed_point(white, model, tol, max_iter):
    """The update iterated on its own from e_1 until a step is below tol."""
    w = np.zeros((white.shape[0], white.shape[1] // 2), complex)
    w[:, 0] = 1.0
    for maps in range(1, max_iter + 1):
        w, _, step = iterate_once(white, w, model)
        if step < tol:
            return w, maps
    raise AssertionError(f"plain fixed point did not reach {tol} in {max_iter} maps")


def phase_free_gap(w, ref):
    """Largest entry of ``w`` minus ``ref`` turned per bin to w's phase."""
    inner = np.sum(ref.conj() * w, axis=1)
    return float(np.max(np.abs(w - ref * (inner / np.abs(inner))[:, None])))


@settings(deadline=None, max_examples=60)
@given(num_bins=st.integers(1, 9), num_frames=st.integers(2, 40),
       rank=st.integers(1, 4), kind=st.sampled_from(ALL_KINDS),
       seed=st.integers(0, 2**32 - 1), max_iter=st.integers(1, 40),
       tol=st.sampled_from([1e-300, 1e-6]))
def test_solve_counts_maps_up_to_max_iter(num_bins, num_frames, rank, kind, seed,
                                          max_iter, tol):
    """Every map, the extrapolated one too, is one cost entry; the solve
    stops on the first step below tol or at exactly max_iter maps, with no
    floating-point warning.  At tol 1e-300 only a step of exactly 0 stops
    it early, which small instances reach in as few as 9 maps: the
    solution is then a fixed point to rounding."""
    white = planar(random_instance(seed, num_bins, num_frames, rank)[0])
    model = ContrastModel(kind=kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = solve(white, SolverConfig(prior=model, max_iter=max_iter, tol=tol))
    maps = len(state.cost_history)
    assert 1 <= maps <= max_iter
    assert state.converged or maps == max_iter
    np.testing.assert_allclose(np.linalg.norm(state.w, axis=1), 1.0, atol=1e-12)
    if tol == 1e-300 and maps < max_iter:
        assert iterate_once(white, state.w, model)[2] <= 1e-12


def pool_slices(white):
    """The (start, stop) bin slices that ``_bin_pool(white)`` runs a pass on."""
    slices = []
    with _bin_pool(white) as pool:
        pool(lambda bins: slices.append(bins.indices(white.shape[0])[:2]))
    return sorted(slices)


@pytest.mark.parametrize("shape, workers", [
    ((1025, 4, 942), 3),   # 2 mics, 30 s: extract-m2-30s
    ((1025, 12, 247), 3),  # 6 mics, 8 s: acceptance check 4's M = 6 case
    ((1025, 12, 99), 1),   # 6 mics, 3 s: extract-m6-3s
    ((1025, 4, 106), 1),   # 2 mics, 3 s and its reverberant tail: bench-grid
    ((4, 2, SPLIT_MIN_ENTRIES // 8), 3),  # exactly SPLIT_MIN_ENTRIES entries
    ((4, 2, SPLIT_MIN_ENTRIES // 8 - 1), 1),  # one frame fewer
    ((2, 2, SPLIT_MIN_ENTRIES), 2),  # no more slices than bins
])
def test_maps_split_over_the_cpus_on_large_data_only(shape, workers, monkeypatch):
    """One contiguous bin slice per allowed CPU, but no more than bins, from
    SPLIT_MIN_ENTRIES entries on; a process allowed one CPU never splits."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    white = np.broadcast_to(0.0, shape)
    slices = pool_slices(white)
    assert len(slices) == workers
    starts, stops = zip(*slices)
    assert starts[0] == 0 and stops[-1] == shape[0] and starts[1:] == stops[:-1]
    assert all(stop > start for start, stop in slices)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert pool_slices(white) == [(0, shape[0])]


@settings(deadline=None, max_examples=40)
@given(num_bins=st.integers(1, 40), num_frames=st.integers(2, 30),
       rank=st.integers(1, 6), workers=st.integers(2, 5),
       kind=st.sampled_from(ALL_KINDS), seed=st.integers(0, 2**32 - 1))
def test_split_maps_match_the_serial_ones_bit_for_bit(num_bins, num_frames, rank,
                                                      workers, kind, seed):
    """Every bin's arithmetic is its own, so splitting the bins over threads,
    as many as bins or slices of unequal size included, changes no bit of
    the update terms, of a map or of a whole solve."""
    spec, w = random_instance(seed, num_bins, num_frames, rank)
    white = planar(spec)
    model = ContrastModel(kind=kind)
    config = SolverConfig(prior=model, max_iter=12)
    serial_terms = _update_terms(white, w, model)
    serial_map = iterate_once(white, w, model)
    serial_solve = solve(white, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(extractor, "SPLIT_MIN_ENTRIES", 0)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        with _bin_pool(white) as pool:
            split_terms = _update_terms(white, w, model, pool=pool)
            split_map = iterate_once(white, w, model, pool=pool)
        split_solve = solve(white, config)
    for serial, split in [(serial_terms, split_terms), (serial_map, split_map)]:
        for got, want in zip(split, serial):
            assert np.array_equal(got, want)
    assert np.array_equal(split_solve.w, serial_solve.w)
    assert split_solve.cost_history == serial_solve.cost_history
    assert split_solve.converged == serial_solve.converged


def test_a_split_pass_runs_its_slices_at_once(monkeypatch):
    """A pool over 10 bins for 3 CPUs runs 3 contiguous slices covering
    every bin once, concurrently: each waits at a barrier for the others."""
    monkeypatch.setattr(extractor, "SPLIT_MIN_ENTRIES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    barrier = threading.Barrier(3, timeout=10)
    slices = []

    def work(bins):
        barrier.wait()
        slices.append((bins.start, bins.stop))

    with _bin_pool(np.broadcast_to(0.0, (10, 2, 1))) as pool:
        pool(work)
    assert sorted(slices) == [(0, 3), (3, 6), (6, 10)]


@pytest.mark.parametrize("kind", ["ssl", "t"])
def test_accelerated_solve_reaches_the_plain_fixed_point(kind):
    """On the separable instance the plain update converges fast, and the
    extrapolated solve lands on the same point, up to each bin's phase,
    in no more maps (ssl 10 against 11, t 7 against 7)."""
    spec, _, _ = separable_instance()
    model = ContrastModel(kind=kind)
    state = solve(planar(spec), SolverConfig(prior=model, max_iter=1000, tol=1e-12))
    plain, maps = plain_fixed_point(planar(spec), model, 1e-12, 1000)
    assert state.converged
    assert len(state.cost_history) <= maps
    assert phase_free_gap(state.w, plain) <= 1e-6


def test_accelerated_solve_needs_a_fraction_of_the_maps_on_the_battery_scene():
    """Where the plain update converges slowly, as on the acceptance
    battery's first scene (2 talkers, 2 mics, rt60 0.2 s, 3 s at +10 dB),
    the extrapolated solve reaches a step below 1e-12 in 57 maps against
    the plain update's 641, at the same point: the gap is the distance the
    plain update still has to go."""
    fs = 16000
    scene = replace(default_geometry(2, 2), input_sir_db=10.0, seed=0,
                    source_signals=tuple(speech_like_sources(2, 3 * fs, fs, 0)))
    spec = analyze(render(scene, fs).mixture, StftConfig())
    white = apply_whitener(spec, build_whitener(estimate_covariance(spec)))
    model = ContrastModel()
    state = solve(white, SolverConfig(max_iter=1000, tol=1e-12))
    plain, maps = plain_fixed_point(white, model, 1e-12, 2000)
    assert state.converged
    assert 5 * len(state.cost_history) <= maps
    assert phase_free_gap(state.w, plain) <= 1e-3


def test_back_project_composes_the_whitener():
    spec, _ = random_instance(5, 3, 64, 3)
    q = build_whitener(estimate_covariance(planar(spec)))
    w = solve(planar(spec), SolverConfig(max_iter=2, tol=1e-300)).w
    w_eff = back_project(w, q)
    for k in range(3):
        expected = q[k].conj().T @ w[k]
        np.testing.assert_allclose(w_eff[k], expected, atol=1e-12)


def test_rescaled_output_is_the_source_image_at_the_reference():
    spec, mixing, sources = exact_mixture(22)
    cov = estimate_covariance(planar(spec))
    w_eff = exact_demixer(mixing)
    h = estimate_mixing_vector(cov, w_eff)
    ref = 1
    y = apply_demixer(spec, rescale(w_eff, h, ref))
    image = mixing[:, ref, 0][:, None] * sources[:, :, 0]
    assert np.max(np.abs(y - image)) < 1e-10


@pytest.mark.parametrize("rank", [2, 3])
def test_output_demixed_from_whitened_data_matches_the_mic_domain(rank):
    """``w^H (Q x) = (Q^H w)^H x``: the output that extract demixes from the
    whitened data with the rescaled ``w`` is the rescaled back-projection
    applied to the spectrum, on a rendered 3-mic scene at rank < M and = M."""
    fs = 16000
    scene = default_geometry(
        num_sources=2, num_mics=3,
        source_signals=tuple(speech_like_sources(2, fs, fs, 4)))
    spec = analyze(render(scene, fs).mixture, StftConfig())
    cov = estimate_covariance(spec)
    q = build_whitener(cov, rank=rank)
    white = apply_whitener(spec, q)
    w = solve(white, SolverConfig(max_iter=10)).w
    h = estimate_mixing_vector(cov, back_project(w, q))
    ref = 1
    got = from_planar(demix(white, rescale(w, h, ref)))[:, :, 0]
    want = apply_demixer(from_planar(spec), rescale(back_project(w, q), h, ref))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_mixing_vector_silent_bin_yields_zero():
    spec, mixing, _ = exact_mixture(23)
    spec[4] = 0.0
    cov = estimate_covariance(planar(spec))
    h = estimate_mixing_vector(cov, exact_demixer(mixing))
    np.testing.assert_array_equal(h[4], 0.0)


def test_rescale_scales_a_bin_the_reference_does_not_hear():
    """Every bin is scaled by conj(h_ref), so one whose source is missing
    from the reference mic outputs that mic's image there: zero."""
    spec, mixing, sources = exact_mixture(24)
    # rebuild the mixture so bin 2's source 1 is invisible at mic 0
    mixing[2, 0, 0] = 0.0
    spec[:] = np.einsum("kmn,ktn->ktm", mixing, sources)
    cov = estimate_covariance(planar(spec))
    w_eff = exact_demixer(mixing)
    h = estimate_mixing_vector(cov, w_eff)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rescaled = rescale(w_eff, h, 0)
    # h_ref there is zero up to the rounding of the estimated covariance
    assert np.max(np.abs(rescaled[2])) <= 1e-12 * np.max(np.abs(rescaled))
    image = mixing[:, 0, 0][:, None] * sources[:, :, 0]
    assert np.max(np.abs(apply_demixer(spec, rescaled) - image)) < 1e-10


def test_mixing_vector_guards():
    spec, mixing, _ = exact_mixture(25)
    cov = estimate_covariance(planar(spec))
    w_eff = exact_demixer(mixing)
    h = estimate_mixing_vector(cov, w_eff)
    with pytest.raises(ValueError, match="ref_mic"):
        rescale(w_eff, h, 3)


def test_mixing_vector_rejects_null_output():
    # data lives on channel 0 only; a demixer on channel 1 has zero output
    rng = np.random.default_rng(26)
    data = np.zeros((1, 50, 2), dtype=complex)
    data[:, :, 0] = rng.normal(size=(1, 50)) + 1j * rng.normal(size=(1, 50))
    cov = estimate_covariance(planar(data))
    with pytest.raises(ValueError, match="degenerate output power"):
        estimate_mixing_vector(cov, np.array([[0.0, 1.0 + 0.0j]]))


@settings(deadline=None, max_examples=200)
@given(num_mics=st.integers(2, 16), log_gain=st.floats(-100.0, 100.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_kept_whitener_rows_carry_at_least_half_their_power(num_mics, log_gain,
                                                             seed, data):
    """Any unit ``w`` on the rows that ``build_whitener`` keeps has output
    power ``w_eff^H C w_eff >= 1/2``: a kept row's unshifted eigenvalue is
    more than half its shifted one.  So ``extract``, whose solve never
    leaves the kept rows, cannot reach "degenerate output power", whose
    threshold is at most about 5e-21 M there; the error guards direct
    callers only.  Banks of every true rank, sources spread over 14
    decades of power and gains of 1e-100..1e100."""
    true_rank = data.draw(st.integers(1, num_mics), label="true_rank")
    rank = data.draw(st.none() | st.integers(1, num_mics), label="rank")
    log_powers = data.draw(st.lists(st.floats(-14.0, 0.0), min_size=true_rank,
                                    max_size=true_rank), label="log_powers")
    rng = np.random.default_rng(seed)
    shape = (3, num_mics, true_rank)
    mixing = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    mixing *= 10.0 ** (0.5 * (log_gain + np.array(log_powers)))
    cov = mixing @ mixing.conj().transpose(0, 2, 1)
    cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
    q = build_whitener(cov, rank=rank)
    kept = np.any(q != 0.0, axis=2)
    w = (rng.normal(size=kept.shape) + 1j * rng.normal(size=kept.shape)) * kept
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    w_eff = back_project(w, q)
    power = np.einsum("km,kmn,kn->k", w_eff.conj(), cov, w_eff).real
    assert np.all(power >= 0.49)
    estimate_mixing_vector(cov, w_eff)


def test_solver_config_validation():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="tol"):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError, match="ref_mic"):
        SolverConfig(ref_mic=-1)
    with pytest.raises(ValueError, match="rank must be >= 1, got 0"):
        SolverConfig(rank=0)
    for name, bad in (("max_iter", 2.5), ("max_iter", True), ("ref_mic", True),
                      ("rank", 2.5), ("rank", True)):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {bad}"):
            SolverConfig(**{name: bad})
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            SolverConfig(tol=tol)
    for bad, message in (({"tol": True}, "tol must be a number, got True"),
                         ({"tol": "1e-6"}, "tol must be a number, got '1e-6'"),
                         ({"prior": "t"}, "prior must be a ContrastModel, got 't'")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SolverConfig(**bad)
    config = SolverConfig(max_iter=np.int64(5), ref_mic=np.int32(1), rank=np.int16(2))
    assert (config.max_iter, config.ref_mic, config.rank) == (5, 1, 2)


def test_extract_input_guards():
    mono = AudioBuffer(np.zeros(4000), 16000)
    with pytest.raises(ValueError, match="2 channels"):
        extract(mono)
    stereo = AudioBuffer(np.zeros((4000, 2)), 16000)
    with pytest.raises(ValueError, match="ref_mic 2"):
        extract(stereo, SolverConfig(ref_mic=2), StftConfig(256, 64))
    # one frame gives no covariance
    with pytest.raises(ValueError, match="insufficient frames: got 1, need >= 2"):
        extract(AudioBuffer(np.ones((2048, 2)), 16000))
    # the source image at a silent reference mic is zero, which no scale
    # of the extracted source can give
    noise = np.random.default_rng(8).normal(size=(4000, 3))
    for ref_mic in (0, 2):
        silent = noise.copy()
        silent[:, ref_mic] = 0.0
        with pytest.raises(ValueError, match=f"reference channel {ref_mic} is silent"):
            extract(AudioBuffer(silent, 16000), SolverConfig(ref_mic=ref_mic),
                    StftConfig(256, 64))


@pytest.mark.parametrize("case", ["last", "first", "every-channel-last"])
def test_extract_reads_silence_in_the_analysed_frames(case):
    """A reference channel whose only non-zero sample is one the analysis
    drops (the tail past the last frame) or weights by zero (the Hann
    window's first sample) is silent to extract."""
    noise = np.random.default_rng(10).laplace(size=(16000, 3))
    sample = 0 if case == "first" else -1
    channels = slice(None) if case == "every-channel-last" else 0
    kept = noise[sample].copy()
    noise[:, channels] = 0.0
    noise[sample] = kept
    with pytest.raises(ValueError, match="reference channel 0 is silent"):
        extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=5))


def test_extract_handles_more_than_sixteen_mics():
    noise = np.random.default_rng(17).normal(size=(16000, 17))
    result = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=3))
    assert result.audio.num_channels == 1
    assert 0 < result.audio.num_samples <= 16000
    assert np.all(np.isfinite(result.audio.samples))


@settings(deadline=None, max_examples=20)
@given(log_gain=st.floats(-150.0, 150.0), num_channels=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1))
@example(log_gain=-150.0, num_channels=4, seed=0)
@example(log_gain=150.0, num_channels=4, seed=0)
def test_extract_is_gain_equivariant(log_gain, num_channels, seed):
    """extract(c x) = c extract(x): whitening removes the gain and the
    rescale to the reference microphone restores it.  No power threshold of
    the extractor's own may enter, so this holds, without a floating-point
    warning, over every gain whose spectrum power float64 holds."""
    gain = 10.0 ** log_gain
    noise = np.random.default_rng(seed).laplace(size=(8000, num_channels))
    config = SolverConfig(max_iter=5)
    base = extract(AudioBuffer(noise, 16000), config).audio.samples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = extract(AudioBuffer(gain * noise, 16000), config).audio.samples
    assert np.max(np.abs(scaled - gain * base)) <= 1e-8 * np.max(np.abs(gain * base))


def test_extract_scales_a_band_the_reference_does_not_hear():
    """Two Laplace sources reach mics 1 and 2 at every frequency but mic 0
    only below fs/4.  The output is the image at mic 0, silent above fs/4,
    and it scales with the input gain there too.  Rank-2 whitening keeps
    exactly the sources' two dimensions, so no direction of rounding noise
    alone enters the solve."""
    fs, size = 16000, 512
    sources = np.random.default_rng(0).laplace(size=(40 * size, 2))
    mix = sources @ np.array([[1.0, 0.5], [0.7, 1.0], [0.4, 0.8]]).T
    high = np.fft.rfftfreq(size, 1 / fs) >= fs / 4
    frames = np.fft.rfft(mix[:, 0].reshape(-1, size), axis=1)
    frames[:, high] = 0.0
    mix[:, 0] = np.fft.irfft(frames, size, axis=1).ravel()
    config, stft = SolverConfig(max_iter=5, rank=2), StftConfig(size, size, "rect")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = extract(AudioBuffer(mix, fs), config, stft).audio.samples[:, 0]
    power = np.abs(np.fft.rfft(out.reshape(-1, size), axis=1)) ** 2
    assert power[:, high].sum() <= 1e-20 * power[:, ~high].sum()
    for gain in (1e-6, 1e6):
        scaled = extract(AudioBuffer(gain * mix, fs), config, stft).audio.samples[:, 0]
        assert np.max(np.abs(scaled - gain * out)) <= 1e-8 * np.max(np.abs(gain * out))


def low_rank_mixture():
    """Two Laplace sources through a fixed 3x2 matrix, 3 s, no noise: every
    bin's covariance has one direction that holds only rounding."""
    sources = np.random.default_rng(0).laplace(size=(3 * 16000, 2))
    return sources @ np.array([[1.0, 0.5], [0.7, 1.0], [0.4, 0.8]]).T


def test_solved_vectors_are_zero_where_the_whitener_is():
    """A whitener row that carries only rounding is zero, so is that row of
    the whitened data, and no map or extrapolation moves the solve off
    it: the solved vectors are exactly zero there."""
    spec = analyze(AudioBuffer(low_rank_mixture(), 16000), StftConfig())
    q = build_whitener(estimate_covariance(spec))
    zero = ~np.any(q, axis=2)
    assert zero[:, 2].mean() > 0.9 and not np.any(zero[:, :2])
    state = solve(apply_whitener(spec, q), SolverConfig())
    assert np.all(state.w[zero] == 0.0)


def test_extract_is_gain_equivariant_on_a_noiseless_low_rank_mixture():
    """At full rank and the default max_iter, with the rounding direction
    dropped from the whitener, extract runs and scales with the gain."""
    mix = low_rank_mixture()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = extract(AudioBuffer(mix, 16000)).audio.samples
        for gain in (1e-6, 1e6):
            gap = extract(AudioBuffer(gain * mix, 16000)).audio.samples - gain * out
            assert np.max(np.abs(gap)) <= 1e-8 * np.max(np.abs(gain * out))


@pytest.mark.parametrize("num_mics", [3, 4, 6])
def test_extract_runs_on_two_frames_at_more_mics(num_mics):
    """Two frames (fft + hop samples) span at most two directions of each
    bin; the rest hold only rounding, so the whitener drops them and the
    solve cannot walk onto a silent output, for every seed."""
    stft = StftConfig()
    for seed in range(6):
        noise = np.random.default_rng(seed).laplace(
            size=(stft.fft_size + stft.hop_size, num_mics))
        out = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=20)).audio
        assert np.all(np.isfinite(out.samples)) and np.any(out.samples)


@pytest.mark.parametrize("gain", [1e155, 1e200, 1e300])
def test_extract_names_a_power_overflow(gain):
    """Samples this large are finite, but their spectrum's power is not."""
    noise = np.random.default_rng(0).laplace(size=(8000, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spectrum power overflows float64"):
            extract(AudioBuffer(gain * noise, 16000), SolverConfig(max_iter=5))


@pytest.mark.parametrize("gain", [1e-160, 1e-200, 1e-300])
def test_extract_names_a_power_underflow(gain):
    """Samples this small are normal floats, but their spectrum's power is
    too small for the whitener's relative shift, or rounds to zero."""
    noise = np.random.default_rng(0).laplace(size=(8000, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="spectrum power underflows float64"):
            extract(AudioBuffer(gain * noise, 16000), SolverConfig(max_iter=5))


@pytest.mark.parametrize("case", ["silent-channel", "duplicate", "two-frames"])
def test_extract_runs_on_degenerate_inputs(case):
    """Rank-deficient data and the fewest frames a covariance takes still
    give finite mono audio of (T - 1) hop + fft samples."""
    stft = StftConfig(256, 64)
    noise = np.random.default_rng(9).laplace(size=(4000, 3))
    if case == "silent-channel":
        noise[:, 2] = 0.0
    elif case == "duplicate":
        noise = noise[:, [0, 0]]
    else:
        noise = noise[:stft.fft_size + stft.hop_size, :2]
    num_frames = (len(noise) - stft.fft_size) // stft.hop_size + 1
    result = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=5), stft)
    out = result.audio.samples
    assert out.shape == ((num_frames - 1) * stft.hop_size + stft.fft_size, 1)
    assert np.all(np.isfinite(out)) and np.any(out)


def test_extract_times_its_stages():
    noise = np.random.default_rng(31).normal(size=(8000, 3))
    start = time.perf_counter()
    result = extract(AudioBuffer(noise, 16000), SolverConfig(max_iter=5))
    wall = time.perf_counter() - start
    assert tuple(result.timings) == STAGES
    assert all(t >= 0.0 for t in result.timings.values())
    # runtime_seconds is the whole call: every stage plus the input checks
    assert sum(result.timings.values()) <= result.runtime_seconds <= wall


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
    assert result.iterations_used == len(result.state.cost_history)


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
