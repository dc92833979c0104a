"""Workloads of the benchmark: input generation, timed loops and the traced pass.

Two kinds of workload drive fastive through its public functions only.  An
extract workload renders a fixed list of scenes once per set-up and times
``fastive.extractor.extract`` on them; a grid workload times whole
``fastive.cli.run_grid`` sweeps.  The scenes (source seeds) of every
workload are fixed because one scene's cost and quality swing widely with
the source draw (at M = 2 and 30 s, seeds 0-5 took 32 to 100 iterations and
gained 0.9 to 15.5 dB), far more than a run could average out.  The run seed
draws a nuisance that leaves each scene's difficulty alone: the input gain
of the extract workloads (the extractor is scale invariant) and the air
temperature, hence the speed of sound, of the grid's room.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from fastive import cli, extractor, metrics, roomsim
from fastive.extractor import SolverConfig
from fastive.roomsim import MixtureSet, RoomSpec
from fastive.stft import AudioBuffer, StftConfig

from tracing import Tracer, layer_metrics, span_cost_s

FS = 16000
STFT = StftConfig(fft_size=2048, hop_size=512, window="hann")
SOLVER = SolverConfig()
INPUT_SIR_DB = 10.0
SETUP_REPEATS = 3
# trial i of every grid cell uses source seed GRID_BASE_SEED + i
GRID_BASE_SEED = 0


@dataclass(frozen=True)
class ExtractWorkload:
    num_mics: int
    duration_s: float
    scenes: tuple  # source seeds, one rendered mixture each
    num_sources: int = 2
    rt60: float = 0.2


@dataclass(frozen=True)
class GridWorkload:
    trials: int
    num_sources: tuple
    num_mics: tuple
    priors: tuple
    rt60: float = 0.4
    duration_s: float = 3.0


WORKLOADS = {
    # whitener-bound: the per-bin Jacobi eigensolver dominates at M = 6
    "extract-m6-3s": ExtractWorkload(num_mics=6, duration_s=3.0, scenes=(0, 1)),
    # solver-bound: T ~ 942 frames; the whitener is a few percent
    "extract-m2-30s": ExtractWorkload(num_mics=2, duration_s=30.0, scenes=(0, 1, 2)),
    # measurement path: RIR build, render, scoring, prior-axis re-rendering
    "bench-grid": GridWorkload(
        trials=4, num_sources=(2, 3), num_mics=(2,), priors=("t", "ssl")
    ),
}


def input_gain(seed):
    """Per-run input gain, log-uniform in [1/2, 2] (a preamp setting)."""
    return float(2.0 ** np.random.default_rng(seed).uniform(-1.0, 1.0))


def speed_of_sound(seed):
    """Speed of sound in m/s for an air temperature drawn in [19, 21] degC."""
    return 331.3 + 0.606 * float(np.random.default_rng(seed).uniform(19.0, 21.0))


def expected_samples(num_samples):
    """Output length of extract: (T - 1) * hop + fft for T analysis frames."""
    frames = (num_samples - STFT.fft_size) // STFT.hop_size + 1
    return (frames - 1) * STFT.hop_size + STFT.fft_size


def check_output(result, mixture):
    """Raise unless the extracted audio is one finite channel of the expected length."""
    samples = result.audio.samples
    want = (expected_samples(mixture.num_samples), 1)
    if samples.shape != want:
        raise ValueError(f"output shape {samples.shape}, expected {want}")
    if not np.isfinite(samples).all():
        raise ValueError("output has non-finite samples")


def _report_failure(what):
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """One extraction: its wall time and, when it succeeded, its results."""

    scene: int
    seconds: float
    audio_s: float
    ok: bool
    iterations: int = 0
    converged: bool = False
    sirimp_db: float = float("nan")

    @property
    def success(self):
        return self.ok and self.sirimp_db > 0.0


# ---------------------------------------------------------------- extract


def make_inputs(wl, seed):
    """Render the workload's scenes and apply the run's input gain."""
    template = roomsim.default_geometry()
    scenario = replace(
        template,
        room=RoomSpec(rt60=wl.rt60),
        source_positions=template.source_positions[: wl.num_sources],
        mic_positions=template.mic_positions[: wl.num_mics],
        input_sir_db=INPUT_SIR_DB,
    )
    rirs = roomsim.compute_rirs(scenario, FS)
    gain = input_gain(seed)
    num_samples = int(round(wl.duration_s * FS))
    inputs = []
    for scene in wl.scenes:
        sources = roomsim.speech_like_sources(wl.num_sources, num_samples, FS, scene)
        rendered = roomsim.render(
            replace(scenario, source_signals=tuple(sources), seed=scene), FS, rirs=rirs
        )
        inputs.append(MixtureSet(
            mixture=AudioBuffer(gain * rendered.mixture.samples, FS),
            images=[AudioBuffer(gain * img.samples, FS) for img in rendered.images],
        ))
    return inputs


def extract_and_score(scene, truth, scores=None):
    """Time one extract call, then check and score its output untimed.

    ``scores`` caches reports by (scene, output bytes): a repeated call that
    returns the same audio is not scored again.
    """
    mixture = truth.mixture
    audio_s = mixture.num_samples / FS
    start = time.perf_counter()
    try:
        result = extractor.extract(mixture, SOLVER, STFT)
    except Exception:  # counted as failed; the run goes on
        _report_failure(f"extract on scene {scene}")
        return Outcome(scene, time.perf_counter() - start, audio_s, ok=False)
    seconds = time.perf_counter() - start
    try:
        check_output(result, mixture)
        key = (scene, hashlib.sha1(result.audio.samples.tobytes()).hexdigest())
        report = scores.get(key) if scores is not None else None
        if report is None:
            report = metrics.evaluate(result, truth)
            if scores is not None:
                scores[key] = report
    except Exception:
        _report_failure(f"check or scoring on scene {scene}")
        return Outcome(scene, seconds, audio_s, ok=False)
    return Outcome(
        scene, seconds, audio_s, ok=True,
        iterations=result.iterations_used,
        converged=bool(result.state.converged),
        sirimp_db=report.sir_improvement_db,
    )


def _per_scene(outcomes, value):
    """Mean over scenes of the median of ``value`` over each scene's successes."""
    scenes = sorted({o.scene for o in outcomes if o.ok})
    return statistics.fmean(
        statistics.median(value(o) for o in outcomes if o.ok and o.scene == s)
        for s in scenes
    )


def measure_extract(wl, seed, seconds):
    """Untraced run: set up SETUP_REPEATS times, then time extract calls.

    Calls go round-robin over the scenes until their summed wall time would
    pass ``seconds`` (at least one call per scene).
    """
    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(wl, seed)
        setup.append(time.perf_counter() - start)
    outcomes = []
    scores = {}
    busy = 0.0
    for i in itertools.count():
        scene = i % len(inputs)
        if i >= len(inputs):
            done = [o.seconds for o in outcomes if o.scene == wl.scenes[scene]]
            if busy + statistics.median(done) > seconds:
                break
        outcome = extract_and_score(wl.scenes[scene], inputs[scene], scores)
        busy += outcome.seconds
        outcomes.append(outcome)
    return summarize_extract(outcomes, statistics.median(setup))


def summarize_extract(outcomes, setup_s):
    ok = [o for o in outcomes if o.ok]
    out = {
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(ok),
        "setup_s": setup_s,
        "calls": len(ok),
        "scenes": len({o.scene for o in ok}),
    }
    if ok:
        extract_s = _per_scene(outcomes, lambda o: o.seconds)
        out.update(
            extract_ms=1e3 * extract_s,
            audio_xrt=_per_scene(outcomes, lambda o: o.audio_s) / extract_s,
            trials_per_s=1.0 / extract_s,
            sirimp_db=_per_scene(outcomes, lambda o: o.sirimp_db),
            success_rate=_per_scene(outcomes, lambda o: float(o.success)),
        )
    out["lines"] = []
    for scene in sorted({o.scene for o in ok}):
        mine = [o for o in ok if o.scene == scene]
        out["lines"].append(
            f"scene {scene}: {len(mine)} calls, median "
            f"{1e3 * statistics.median(o.seconds for o in mine):.1f} ms, "
            f"{mine[0].iterations} iterations, converged {mine[0].converged}, "
            f"SIR improvement {mine[0].sirimp_db:.3f} dB")
    return out


# ---------------------------------------------------------------- grid


def grid_config(wl, seed):
    """The run_grid configuration of a grid workload for one run seed."""
    return {
        "trials": wl.trials,
        "seed": GRID_BASE_SEED,
        "fs": FS,
        "duration_seconds": wl.duration_s,
        "room": {"rt60": wl.rt60, "speed_of_sound": speed_of_sound(seed)},
        "num_sources": list(wl.num_sources),
        "num_mics": list(wl.num_mics),
        "input_sir_db": [INPUT_SIR_DB],
        "prior": list(wl.priors),
        "stft": {
            "fft_size": STFT.fft_size,
            "hop_size": STFT.hop_size,
            "window": STFT.window,
        },
        "solver": {"max_iter": SOLVER.max_iter, "tol": SOLVER.tol},
    }


class ExtractProbe:
    """Times and checks every extract call made by run_grid.

    Installed on ``fastive.cli.extract``, the name run_grid calls.  A bad
    output raises, so run_grid records the trial as an in-band error.
    """

    def __init__(self):
        self.calls = []  # (seconds, audio seconds)

    def __enter__(self):
        self._original = cli.extract
        cli.extract = self._call
        return self

    def __exit__(self, *exc):
        cli.extract = self._original
        return False

    def _call(self, audio, *args, **kwargs):
        start = time.perf_counter()
        result = self._original(audio, *args, **kwargs)
        seconds = time.perf_counter() - start
        check_output(result, audio)
        self.calls.append((seconds, audio.num_samples / audio.sample_rate_hz))
        return result


def run_sweep(grid, out_dir):
    """One run_grid sweep with jobs = 1; its progress lines go to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        records, _ = cli.run_grid(grid, out_dir, jobs=1)
    return records


def measure_grid(wl, seed, seconds, out_dir):
    """Untraced run: whole sweeps until the next would pass ``seconds`` (at least one).

    Set-up is only the grid configuration: run_grid builds RIRs and renders
    inside the timed sweep.
    """
    start = time.perf_counter()
    grid = grid_config(wl, seed)
    setup_s = time.perf_counter() - start
    records = []
    rates = []
    busy = 0.0
    with ExtractProbe() as probe:
        while True:
            start = time.perf_counter()
            sweep = run_sweep(grid, out_dir)
            elapsed = time.perf_counter() - start
            busy += elapsed
            rates.append(len(sweep) / elapsed)
            records += sweep
            if busy + elapsed > seconds:
                break
    return summarize_grid(records, probe.calls, rates, setup_s)


def summarize_grid(records, calls, rates, setup_s):
    ok = [r for r in records if "error" not in r]
    out = {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "setup_s": setup_s,
        "calls": len(calls),
        "sweeps": len(rates),
    }
    if ok and calls:
        extract_s = statistics.median(s for s, _ in calls)
        out.update(
            extract_ms=1e3 * extract_s,
            audio_xrt=statistics.median(a for _, a in calls) / extract_s,
            trials_per_s=statistics.median(rates),
            sirimp_db=statistics.fmean(r["sirimp_db"] for r in ok),
            success_rate=sum(bool(r.get("success")) for r in records) / len(records),
        )
    return out


# ---------------------------------------------------------------- traced


class _Paired:
    """Runs each step of a traced run twice, untraced and then traced.

    Back-to-back runs see the same machine speed.  On a shared 2-core VM
    that speed drifted by about 15% over tens of seconds, so whole passes
    run one after the other would differ by the drift, not by the tracing.
    """

    def __init__(self):
        self.tracer = Tracer()
        self.seconds = [0.0, 0.0]
        self.values = ([], [])

    def __call__(self, fn, *args):
        for traced in (False, True):
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(self.tracer)
                    stack.enter_context(self.tracer.span("bench.step"))
                start = time.perf_counter()
                value = fn(*args)
                self.seconds[traced] += time.perf_counter() - start
            self.values[traced].append(value)
        return value


def _direct(fn, *args):
    return fn(*args)


def _probed_sweep(grid, out_dir):
    with ExtractProbe():
        return run_sweep(grid, out_dir)


def _pass(wl, seed, out_dir, step):
    """The fixed work of a traced run; ``step(fn, *args)`` runs each step."""
    if isinstance(wl, GridWorkload):
        step(_probed_sweep, grid_config(wl, seed), out_dir)
        return
    inputs = step(make_inputs, wl, seed)
    for scene, truth in zip(wl.scenes, inputs):
        step(extract_and_score, scene, truth)


def _operations(values):
    """(operation results to compare, failed count) of one side's step values."""
    results = []
    failed = 0
    for value in values:
        if isinstance(value, Outcome):
            failed += not value.ok
            results.append((value.scene, value.ok, value.iterations,
                            value.converged, value.sirimp_db))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            failed += sum("error" in r for r in value)
            results += [(r["scenario_id"], r.get("iterations"), r.get("sirimp_db"),
                         r.get("error")) for r in value]
    return results, failed


def trace_run(wl, seed, out_dir):
    """Traced run: a warm-up pass, then a pass with every step run twice,
    untraced and traced.

    The untraced run of a step always goes first, so without the warm-up it
    alone would pay the first-call costs, such as faulting in fresh heap
    pages for its arrays.  Returns (per-layer metrics, spans, attempted,
    failed, same_results) over the paired pass.
    """
    _pass(wl, seed, out_dir, _direct)
    paired = _Paired()
    _pass(wl, seed, out_dir, paired)
    plain, plain_failed = _operations(paired.values[0])
    traced, traced_failed = _operations(paired.values[1])
    untraced_s, traced_s = paired.seconds
    spans = paired.tracer.spans
    out = layer_metrics(spans)
    out["cli.trial_errors"] = traced_failed if isinstance(wl, GridWorkload) else 0
    out["trace.untraced_ms"] = 1e3 * untraced_s
    out["trace.traced_ms"] = 1e3 * traced_s
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    out["trace.span_cost_ms"] = 1e3 * len(spans) * span_cost_s()
    return (out, spans, len(plain) + len(traced), plain_failed + traced_failed,
            _same_results(plain, traced))


def _same_results(a, b):
    """Equal iterations and flags, and SIR improvements within 1e-9 dB."""
    return len(a) == len(b) and all(
        u == v or (isinstance(u, float) and isinstance(v, float)
                   and abs(u - v) <= 1e-9)
        for x, y in zip(a, b) for u, v in zip(x, y)
    )
