"""Acceptance gate for the whole toolkit.

Eleven checks, one per headline claim: statistical behavior of the
extractor on seeded reverberant batteries, runtime scaling, and exact
numerical oracles for the update rule, gradients, whitening, scaling
resolution, transforms, and simulator physics.  Every check prints a
single PASS/FAIL line so a full run reads as a checklist; statistical
checks use fixed seeds and loose-enough margins to be reproducible.

The battery is two ``fastive bench`` grid files in ``tests/grids/``, run
through ``run_grid``, and the oracles of checks 5, 6 and 8 are the ones
the unit tests use, from ``tests/oracles.py``.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fastive import priors
from fastive.cli import run_grid
from fastive.extractor import (
    SolverConfig,
    _update_terms,
    estimate_mixing_vector,
    extract,
    iterate_once,
    rescale,
)
from fastive.priors import ContrastModel, g, g_double_prime, g_prime
from fastive.roomsim import (
    RoomSpec,
    Scenario,
    compute_rirs,
    default_geometry,
    render,
    speech_like_sources,
)
from fastive.stft import AudioBuffer, StftConfig, analyze, synthesize
from fastive.whitening import EPS_COV_REL, build_whitener, estimate_covariance
from oracles import (apply_demixer, exact_demixer, exact_mixture,
                     finite_difference_gradient, planar, reference_update)

ALL_KINDS = ("ssl", "gg", "t")
FS = 16000
GRIDS = Path(__file__).parent / "grids"


def announce(request, index, label, passed, detail):
    line = (f"acceptance {index:>2}/11 {label:<26} "
            f"{'PASS' if passed else 'FAIL'}  {detail}")
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        reporter.write_line(line)
    print(line)
    assert passed, line


# ----------------------------------------------------------------------
# seeded reverberant battery shared by the first three checks
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery(tmp_path_factory):
    """The bench summaries of the two battery grids keyed by cell id, and
    the wall time of the +10 dB sweep under ``"plus10_seconds"``.

    Both grids run 30 seeded 2-talker/2-mic renders at rt60 = 0.2 s:
    ``battery_plus10`` extracts each with the t and the ssl prior at 10 dB
    input SIR, ``battery_minus5`` with t at -5 dB.  Trial i uses seed i in
    every cell, so the cells compare the same source draws.

    ``run_grid`` records a trial that raises as an error row and scores
    the rest, so a sweep with any error row fails here: the rates and
    means of checks 1-3 are then over every trial of the grid."""
    def sweep(name):
        grid = json.loads((GRIDS / f"{name}.json").read_text())
        records, summaries = run_grid(grid, tmp_path_factory.mktemp(name))
        errors = [f"{r['scenario_id']}: {r['error']}" for r in records if "error" in r]
        assert not errors, f"{name}: {len(errors)} trials raised: {errors}"
        return {summary["cell"]: summary for summary in summaries}

    start = time.perf_counter()
    cells = sweep("battery_plus10")
    cells["plus10_seconds"] = time.perf_counter() - start
    cells.update(sweep("battery_minus5"))
    return cells


def test_01_success_rate(request, battery):
    cell = battery["N2_M2_sir10_t"]
    rate = cell["success_rate"]
    elapsed = battery["plus10_seconds"]
    announce(request, 1, "success-rate battery",
             rate >= 0.9 and elapsed < 120.0,
             f"rate {rate:.0%} (need >= 90%) over {cell['num_trials']} trials, "
             f"t+ssl sweep in {elapsed:.1f} s")


def test_02_prior_ordering(request, battery):
    mean_t = battery["N2_M2_sir10_t"]["mean_sirimp_all_db"]
    mean_ssl = battery["N2_M2_sir10_ssl"]["mean_sirimp_all_db"]
    announce(request, 2, "prior ordering",
             mean_t >= mean_ssl - 1.0,
             f"mean SIRimp t {mean_t:.2f} dB vs ssl {mean_ssl:.2f} dB "
             f"(allow -1 dB)")


def test_03_dominance_sensitivity(request, battery):
    low = battery["N2_M2_sir-5_t"]["success_rate"]
    high = battery["N2_M2_sir10_t"]["success_rate"]
    announce(request, 3, "dominance sensitivity",
             low < high,
             f"success {low:.0%} at -5 dB < {high:.0%} at +10 dB, same seeds")


def test_04_runtime_scaling(request):
    """Solve-and-rescale runtime from 2 to 6 microphones on one fixed
    8-second mixture; the per-iteration work is linear in channel count
    plus a per-bin rescale, so the growth must stay well under quadratic."""
    geo = default_geometry()
    scen = replace(geo,
                   source_signals=tuple(speech_like_sources(6, 8 * FS, FS, 123)))
    mixture = render(scen, FS).mixture

    # repeats alternate M=2 and M=6 so a drift in host speed lands on both
    best = {2: np.inf, 6: np.inf}
    for _ in range(3):
        for num_mics in best:
            audio = AudioBuffer(mixture.samples[:, :num_mics], FS)
            result = extract(audio, SolverConfig(max_iter=40, tol=1e-300))
            assert result.iterations_used == 40
            core = result.timings["solve"] + result.timings["rescale"]
            best[num_mics] = min(best[num_mics], core)

    t2, t6 = best[2], best[6]
    ratio = t6 / t2
    announce(request, 4, "runtime scaling",
             ratio <= 2.5,
             f"40 fixed iterations: {t2 * 1e3:.0f} ms (M=2) -> "
             f"{t6 * 1e3:.0f} ms (M=6), ratio {ratio:.2f} <= 2.5")


def test_05_update_rule_oracle(request):
    rng = np.random.default_rng(11)
    worst = 0.0
    cases = 0
    for _ in range(12):
        num_bins = int(rng.integers(1, 5))
        rank = int(rng.integers(1, 4))
        num_frames = int(rng.integers(10, 51))
        data = rng.normal(size=(num_bins, num_frames, rank)) \
            + 1j * rng.normal(size=(num_bins, num_frames, rank))
        w0 = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
        w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
        for kind in ALL_KINDS:
            model = ContrastModel(kind=kind)
            got = iterate_once(planar(data), w0, model)[0]
            ref = reference_update(data, w0, model)
            worst = max(worst, float(np.max(np.abs(got - ref))))
            cases += 1
    announce(request, 5, "update-rule oracle",
             worst < 1e-12,
             f"max |vectorized - per-bin| {worst:.2e} < 1e-12 over {cases} cases")


def test_06_gradient_suite(request):
    rng = np.random.default_rng(5)
    worst_grad = 0.0
    for trial in range(20):
        num_bins = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 4))
        num_frames = int(rng.integers(8, 33))
        data = rng.normal(size=(num_bins, num_frames, rank)) \
            + 1j * rng.normal(size=(num_bins, num_frames, rank))
        w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
        model = ContrastModel(kind=ALL_KINDS[trial % 3])
        analytic = -_update_terms(planar(data), w, model)[2]
        fd = finite_difference_gradient(planar(data), w, model)
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
        worst_grad = max(worst_grad, float(rel))

    worst_prior = 0.0
    z = np.logspace(-3, 3, 121)
    h = 1e-6 * z
    for kind in ALL_KINDS:
        model = ContrastModel(kind=kind)
        fd1 = (g(model, z + h) - g(model, z - h)) / (2.0 * h)
        fd2 = (g_prime(model, z + h) - g_prime(model, z - h)) / (2.0 * h)
        worst_prior = max(
            worst_prior,
            float(np.max(np.abs(fd1 - g_prime(model, z)) / np.abs(g_prime(model, z)))),
            float(np.max(np.abs(fd2 - g_double_prime(model, z))
                         / np.abs(g_double_prime(model, z)))),
        )
    announce(request, 6, "gradient suite",
             worst_grad < 1e-5 and worst_prior < 1e-6,
             f"objective gradient rel {worst_grad:.2e} < 1e-5 (20 instances), "
             f"prior derivatives rel {worst_prior:.2e} < 1e-6")


def test_07_whitening_suite(request):
    rng = np.random.default_rng(17)
    worst_white = 0.0
    worst_resid = 0.0
    worst_phase = 0.0
    unordered = 0
    for num_channels in (2, 3, 6):
        data = rng.normal(size=(5, 300, num_channels)) \
            + 1j * rng.normal(size=(5, 300, num_channels))
        c = estimate_covariance(planar(data))
        q = build_whitener(c)
        ident = np.einsum("krm,kmn,ksn->krs", q, c, q.conj())
        eye = np.broadcast_to(np.eye(num_channels), ident.shape)
        worst_white = max(worst_white, float(np.max(np.abs(ident - eye))))
        # row i of Q is d_i^(-1/2) u_i^H: d_i = 1/||q_i||^2, u_i = q_i^H sqrt(d_i)
        vals = 1.0 / np.sum(np.abs(q) ** 2, axis=2)
        vecs = q.conj().transpose(0, 2, 1) * np.sqrt(vals)[:, None, :]
        unordered += int(np.sum(np.any(np.diff(vals, axis=1) > 0, axis=1)))
        # each row's largest-magnitude entry is real and positive: phase 0
        peak = np.take_along_axis(q, np.argmax(np.abs(q), axis=2)[..., None], axis=2)
        worst_phase = max(worst_phase, float(np.max(np.abs(np.angle(peak)))))
        for k in range(5):
            trace = np.trace(c[k]).real
            shift = EPS_COV_REL * trace / num_channels
            reg = c[k] + shift * np.eye(num_channels)
            resid = np.linalg.norm(reg @ vecs[k] - vecs[k] * vals[k])
            worst_resid = max(worst_resid, float(resid / np.linalg.norm(reg)))

    # reproducible ordering under exactly tied eigenvalues
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(raw)
    tied = u @ np.diag([3.0, 3.0, 1.0]).astype(complex) @ u.conj().T
    first = build_whitener(tied[None])
    second = build_whitener(tied.copy()[None])
    deterministic = np.array_equal(first, second)
    announce(request, 7, "whitening suite",
             worst_white < 1e-8 and worst_resid < 1e-9 and unordered == 0
             and worst_phase < 1e-12 and deterministic,
             f"|QCQ^H - I| {worst_white:.2e} < 1e-8, eigen residual "
             f"{worst_resid:.2e} < 1e-9, {unordered}/15 bins out of descending "
             f"order, row peak phase {worst_phase:.2e} < 1e-12, "
             "tied ordering reproducible")


def test_08_scaling_resolution(request):
    spec, mixing, sources = exact_mixture(21)
    cov = estimate_covariance(planar(spec))
    w_eff = exact_demixer(mixing)
    h_est = estimate_mixing_vector(cov, w_eff)
    h_dev = float(np.max(np.abs(h_est - mixing[:, :, 0])))

    ref = 1
    output = apply_demixer(spec, rescale(w_eff, h_est, ref))
    image = mixing[:, ref, 0][:, None] * sources[:, :, 0]
    out_dev = float(np.max(np.abs(output - image)))
    announce(request, 8, "scaling resolution",
             h_dev < 1e-8 and out_dev < 1e-10,
             f"mixing column dev {h_dev:.2e} < 1e-8, reference-mic image "
             f"dev {out_dev:.2e} < 1e-10")


def test_09_stft_round_trip(request):
    rng = np.random.default_rng(29)
    config = StftConfig(2048, 512, "hann")
    audio = AudioBuffer(rng.normal(size=(3 * FS, 2)), FS)
    out = synthesize(analyze(audio, config), config, FS)
    interior = slice(config.fft_size, out.num_samples - config.fft_size)
    err = np.linalg.norm(out.samples[interior] - audio.samples[interior])
    rel = float(err / np.linalg.norm(audio.samples[interior]))
    announce(request, 9, "stft round trip",
             rel < 1e-8,
             f"interior rel-RMS {rel:.2e} < 1e-8 (2048/512 hann)")


def test_10_simulator_physics(request):
    # single free-field tap: exact sample delay and 1/(4 pi d) amplitude
    free = RoomSpec(dimensions=(8.0, 6.0, 3.0), rt60=0.0)
    mic = (4.14375, 2.0, 1.5)  # repeated: a scenario needs two mics
    rir = compute_rirs(Scenario(free, ((2.0, 2.0, 1.5),), (mic, mic)), FS)[0][0]
    peak = int(np.argmax(np.abs(rir)))
    amp_ok = (peak == 100
              and abs(rir[peak] - 1.0 / (4.0 * np.pi * 2.14375)) < 1e-12
              and np.max(np.abs(np.delete(rir, peak))) < 1e-14)

    # backward-integrated -60 dB crossing of the reverberant battery room,
    # measured from the first arrival
    geo = default_geometry()
    pair = replace(geo, room=RoomSpec(rir_seconds=0.5),
                   source_positions=geo.source_positions[:1],
                   mic_positions=geo.mic_positions[:2])
    rev = compute_rirs(pair, FS)[0][0]
    energy = np.cumsum(rev[::-1] ** 2)[::-1]
    arrival = int(np.flatnonzero(np.abs(rev) >= 1e-4 * np.max(np.abs(rev)))[0])
    decay = 10.0 * np.log10(energy / energy[arrival])
    crossing = (int(np.flatnonzero(decay <= -60.0)[0]) - arrival) / FS
    decay_ok = 0.16 <= crossing <= 0.24
    announce(request, 10, "simulator physics",
             amp_ok and decay_ok,
             f"free-field tap exact at 100 samples, -60 dB crossing "
             f"{crossing:.3f} s within 0.2 s +/- 20%")


def test_11_prior_scale_invariance(request, monkeypatch):
    """G, G' and G'' scaled by one positive constant leave the normalized
    iterates alone; the constant enters through the prior functions that
    the update calls."""
    rng = np.random.default_rng(9)
    data = planar(rng.normal(size=(3, 40, 2)) + 1j * rng.normal(size=(3, 40, 2)))

    def iterates():
        runs = []
        for kind in ALL_KINDS:
            w = np.tile([[1.0 + 0.0j, 0.0]], (3, 1))
            for _ in range(15):
                w = iterate_once(data, w, ContrastModel(kind=kind))[0]
                runs.append(w)
        return runs

    base = iterates()
    for name in ("g", "g_prime", "g_double_prime"):
        monkeypatch.setattr(priors, name, lambda model, z, _fn=getattr(priors, name):
                            7.3 * _fn(model, z))
    worst = max(float(np.max(np.abs(w1 - w2))) for w1, w2 in zip(base, iterates()))
    announce(request, 11, "prior scale invariance",
             worst < 1e-12,
             f"iterate dev {worst:.2e} < 1e-12 over 15 iterations, all priors")
