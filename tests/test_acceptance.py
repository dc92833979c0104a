"""Acceptance gate for the whole toolkit.

Eleven checks, one per headline claim: statistical behavior of the
extractor on seeded reverberant batteries, runtime scaling, and exact
numerical oracles for the update rule, gradients, whitening, scaling
resolution, transforms, and simulator physics.  Every check prints a
single PASS/FAIL line so a full run reads as a checklist; statistical
checks use fixed seeds and loose-enough margins to be reproducible.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fastive.extractor import (
    DemixState,
    SolverConfig,
    _update_terms,
    apply_demixer,
    estimate_mixing_vector,
    extract,
    iterate_once,
    rescale,
)
from fastive.metrics import aggregate, evaluate
from fastive.priors import ContrastModel, g, g_double_prime, g_prime
from fastive.roomsim import (
    RoomSpec,
    Scenario,
    compute_rirs,
    default_geometry,
    render,
    speech_like_sources,
)
from fastive.stft import AudioBuffer, Spectrogram, StftConfig, analyze, synthesize
from fastive.whitening import (
    EPS_COV_ABS,
    EPS_COV_REL,
    CovarianceBank,
    build_whitener,
    estimate_covariance,
)

ALL_KINDS = ("ssl", "gg", "t")
FS = 16000


def announce(request, index, label, passed, detail):
    line = (f"acceptance {index:>2}/11 {label:<26} "
            f"{'PASS' if passed else 'FAIL'}  {detail}")
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")
        reporter.write_line(line)
    print(line)
    assert passed, line


def spec_of(data):
    k = data.shape[0]
    cfg = StftConfig(1, 1, "rect") if k == 1 else StftConfig(2 * (k - 1), k - 1, "rect")
    return Spectrogram(data, cfg, FS)


# ----------------------------------------------------------------------
# seeded reverberant battery shared by the first three checks
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def battery():
    """30 seeded 2-talker/2-mic renders at rt60 = 0.2 s, evaluated for the
    t and ssl priors at 10 dB input SIR and for t at -5 dB."""
    geo = default_geometry()
    scen = replace(geo,
                   source_positions=geo.source_positions[:2],
                   mic_positions=geo.mic_positions[:2])
    start = time.perf_counter()
    rirs = compute_rirs(scen, FS)

    def run(kind, sir):
        reports = []
        for seed in range(30):
            signals = speech_like_sources(2, 3 * FS, FS, seed)
            take = replace(scen, source_signals=tuple(signals),
                           input_sir_db=sir, seed=seed)
            mixture_set = render(take, FS, rirs=rirs)
            result = extract(mixture_set.mixture,
                             SolverConfig(prior=ContrastModel(kind=kind)))
            reports.append(evaluate(result, mixture_set, filter_len=512))
        return aggregate(reports)

    cells = {"t@+10": run("t", 10.0)}
    elapsed = time.perf_counter() - start
    cells["ssl@+10"] = run("ssl", 10.0)
    cells["t@-5"] = run("t", -5.0)
    cells["elapsed_main"] = elapsed
    return cells


def test_01_success_rate(request, battery):
    rate = battery["t@+10"]["success_rate"]
    elapsed = battery["elapsed_main"]
    announce(request, 1, "success-rate battery",
             rate >= 0.9 and elapsed < 120.0,
             f"rate {rate:.0%} (need >= 90%) over 30 trials in {elapsed:.1f} s")


def test_02_prior_ordering(request, battery):
    mean_t = battery["t@+10"]["mean_sirimp_all_db"]
    mean_ssl = battery["ssl@+10"]["mean_sirimp_all_db"]
    announce(request, 2, "prior ordering",
             mean_t >= mean_ssl - 1.0,
             f"mean SIRimp t {mean_t:.2f} dB vs ssl {mean_ssl:.2f} dB "
             f"(allow -1 dB)")


def test_03_dominance_sensitivity(request, battery):
    low = battery["t@-5"]["success_rate"]
    high = battery["t@+10"]["success_rate"]
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
            best[num_mics] = min(best[num_mics], result.runtime_seconds)

    t2, t6 = best[2], best[6]
    ratio = t6 / t2
    announce(request, 4, "runtime scaling",
             ratio <= 2.5,
             f"40 fixed iterations: {t2 * 1e3:.0f} ms (M=2) -> "
             f"{t6 * 1e3:.0f} ms (M=6), ratio {ratio:.2f} <= 2.5")


def reference_update(spec, w, model):
    """Literal per-bin transcription of the update rule, kept independent
    of the vectorized implementation."""
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
        spec = spec_of(data)
        w0 = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
        w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
        for kind in ALL_KINDS:
            model = ContrastModel(kind=kind)
            got = iterate_once(spec, DemixState(w=w0.copy()), model).w
            ref = reference_update(spec, w0, model)
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
        spec = spec_of(data)
        w = rng.normal(size=(num_bins, rank)) + 1j * rng.normal(size=(num_bins, rank))
        model = ContrastModel(kind=ALL_KINDS[trial % 3])
        analytic = -_update_terms(spec, w, model)[2]
        eps = 1e-6
        fd = np.zeros_like(analytic)
        for k in range(num_bins):
            for m in range(rank):
                for direction in (1.0, 1.0j):
                    wp = w.copy()
                    wp[k, m] += eps * direction
                    wm = w.copy()
                    wm[k, m] -= eps * direction
                    d = (_update_terms(spec, wp, model)[0]
                         - _update_terms(spec, wm, model)[0]) / (2 * eps)
                    fd[k, m] += 0.5 * d * direction
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
    for num_channels in (2, 3, 6):
        data = rng.normal(size=(5, 300, num_channels)) \
            + 1j * rng.normal(size=(5, 300, num_channels))
        spec = spec_of(data)
        bank = estimate_covariance(spec)
        wb = build_whitener(bank)
        q, c = wb.whitener, bank.cov
        ident = np.einsum("krm,kmn,ksn->krs", q, c, q.conj())
        eye = np.broadcast_to(np.eye(num_channels), ident.shape)
        worst_white = max(worst_white, float(np.max(np.abs(ident - eye))))
        for k in range(5):
            trace = np.trace(c[k]).real
            shift = EPS_COV_REL * trace / num_channels + EPS_COV_ABS
            reg = c[k] + shift * np.eye(num_channels)
            resid = np.linalg.norm(reg @ wb.eigvecs[k] - wb.eigvecs[k] * wb.eigvals[k])
            worst_resid = max(worst_resid, float(resid / np.linalg.norm(reg)))

    # reproducible ordering under exactly tied eigenvalues
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(raw)
    tied = u @ np.diag([3.0, 3.0, 1.0]).astype(complex) @ u.conj().T
    first = build_whitener(CovarianceBank(tied[None]))
    second = build_whitener(CovarianceBank(tied.copy()[None]))
    deterministic = (np.array_equal(first.eigvals, second.eigvals)
                     and np.array_equal(first.eigvecs, second.eigvecs))
    announce(request, 7, "whitening suite",
             worst_white < 1e-8 and worst_resid < 1e-9 and deterministic,
             f"|QCQ^H - I| {worst_white:.2e} < 1e-8, eigen residual "
             f"{worst_resid:.2e} < 1e-9, tied ordering reproducible")


def test_08_scaling_resolution(request):
    num_bins, num_mics, num_sources, num_frames = 6, 3, 2, 64
    rng = np.random.default_rng(21)
    mixing = rng.normal(size=(num_bins, num_mics, num_sources)) \
        + 1j * rng.normal(size=(num_bins, num_mics, num_sources))
    sources = np.empty((num_bins, num_frames, num_sources), dtype=complex)
    for k in range(num_bins):
        raw = rng.normal(size=(num_frames, num_sources)) \
            + 1j * rng.normal(size=(num_frames, num_sources))
        qmat, _ = np.linalg.qr(raw)
        sources[k] = np.sqrt(num_frames) * qmat  # sample covariance exactly I
    spec = spec_of(np.einsum("kmn,ktn->ktm", mixing, sources))
    cov = estimate_covariance(spec)

    w_eff = np.empty((num_bins, num_mics), dtype=complex)
    e1 = np.array([1.0 + 0.0j, 0.0])
    for k in range(num_bins):
        h = mixing[k]
        w_eff[k] = h @ np.linalg.solve(h.conj().T @ h, e1)
    state = DemixState(w=np.zeros((num_bins, num_sources), dtype=complex),
                       w_effective=w_eff)
    h_est = estimate_mixing_vector(cov, state)
    h_dev = float(np.max(np.abs(h_est - mixing[:, :, 0])))

    ref = 1
    state = rescale(state, h_est, ref)
    output = apply_demixer(spec, state.w_effective)
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
    out = synthesize(analyze(audio, config))
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


def test_11_prior_scale_invariance(request):
    rng = np.random.default_rng(9)
    data = rng.normal(size=(3, 40, 2)) + 1j * rng.normal(size=(3, 40, 2))
    spec = spec_of(data)
    worst = 0.0
    for kind in ALL_KINDS:
        base = ContrastModel(kind=kind)
        scaled = replace(base, scale=7.3)
        s1 = DemixState(w=np.tile([[1.0 + 0.0j, 0.0]], (3, 1)))
        s2 = DemixState(w=np.tile([[1.0 + 0.0j, 0.0]], (3, 1)))
        for _ in range(15):
            s1 = iterate_once(spec, s1, base)
            s2 = iterate_once(spec, s2, scaled)
            worst = max(worst, float(np.max(np.abs(s1.w - s2.w))))
    announce(request, 11, "prior scale invariance",
             worst < 1e-12,
             f"iterate dev {worst:.2e} < 1e-12 over 15 iterations, all priors")
