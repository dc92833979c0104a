"""In-memory span tracing of fastive's public functions, from outside the package.

A span is ``[name, start, end, parent, attrs]``.  Wrappers are installed on
the module attributes through which callers look a function up (for
example ``fastive.extractor.build_whitener``, which ``extract`` calls, not
``fastive.whitening.build_whitener``), and removed again when the traced
block ends.  The benchmark runs single-threaded, so one stack of open spans
gives every span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from fastive import cli, extractor, metrics, priors, roomsim


def _extract_attrs(result):
    return {
        "iterations": result.iterations_used,
        "converged": bool(result.state.converged),
        "runtime_s": result.runtime_seconds,
    }


# (module, attribute, span name, result -> span attrs); one entry per lookup
# site, so a function reached through two modules is wrapped at both.
TARGETS = (
    (extractor, "analyze", "stft.analyze", None),
    (extractor, "synthesize", "stft.synthesize", None),
    (extractor, "estimate_covariance", "whitening.estimate_covariance", None),
    (extractor, "build_whitener", "whitening.build_whitener", None),
    (extractor, "apply_whitener", "whitening.apply_whitener", None),
    (priors, "g", "priors.g", None),
    (priors, "g_prime", "priors.g_prime", None),
    (priors, "g_double_prime", "priors.g_double_prime", None),
    (extractor, "extract", "extractor.extract", _extract_attrs),
    (cli, "extract", "extractor.extract", _extract_attrs),
    (extractor, "solve", "extractor.solve", None),
    (extractor, "iterate_once", "extractor.iterate_once", None),
    (extractor, "back_project", "extractor.back_project", None),
    (extractor, "estimate_mixing_vector", "extractor.estimate_mixing_vector", None),
    (extractor, "rescale", "extractor.rescale", None),
    (roomsim, "compute_rirs", "roomsim.compute_rirs", None),
    (cli, "compute_rirs", "roomsim.compute_rirs", None),
    (roomsim, "render", "roomsim.render", None),
    (cli, "render", "roomsim.render", None),
    (roomsim, "speech_like_sources", "roomsim.speech_like_sources", None),
    (cli, "speech_like_sources", "roomsim.speech_like_sources", None),
    (metrics, "evaluate", "metrics.evaluate", None),
    (cli, "evaluate", "metrics.evaluate", None),
    (metrics, "decompose", "metrics.decompose", None),
    (cli, "run_grid", "cli.run_grid", None),
)

PRIOR_SPANS = ("priors.g", "priors.g_prime", "priors.g_double_prime")

# per-layer time metric -> spans whose self time it sums
SELF_TIME_METRICS = {
    "stft.analyze_ms": ("stft.analyze",),
    "stft.synthesize_ms": ("stft.synthesize",),
    "whitening.estimate_covariance_ms": ("whitening.estimate_covariance",),
    "whitening.build_whitener_ms": ("whitening.build_whitener",),
    "whitening.apply_whitener_ms": ("whitening.apply_whitener",),
    "priors.contrast_ms": PRIOR_SPANS,
    "extractor.solve_ms": ("extractor.solve", "extractor.iterate_once"),
    "extractor.rescale_ms": (
        "extractor.back_project",
        "extractor.estimate_mixing_vector",
        "extractor.rescale",
    ),
    "extractor.extract_self_ms": ("extractor.extract",),
    "roomsim.compute_rirs_ms": ("roomsim.compute_rirs",),
    "roomsim.render_ms": ("roomsim.render",),
    "roomsim.sources_ms": ("roomsim.speech_like_sources",),
    "metrics.evaluate_ms": ("metrics.evaluate",),
    "metrics.decompose_ms": ("metrics.decompose",),
    "cli.run_grid_self_ms": ("cli.run_grid",),
    "bench.self_ms": ("bench.step",),
}

# per-layer count metric -> spans it counts
COUNT_METRICS = {
    "priors.calls": PRIOR_SPANS,
    "extractor.iterations": ("extractor.iterate_once",),
    "metrics.decompose_calls": ("metrics.decompose",),
}


class Tracer:
    """Records spans while installed; ``with Tracer() as t:`` patches TARGETS."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self._open = []
        self._saved = []

    def __enter__(self):
        for module, attr, name, attrs_of in self.targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attrs_of))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _start(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def _end(self, span):
        span[2] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record a span around the benchmark's own code."""
        span = self._start(name)
        try:
            yield span
        finally:
            self._end(span)

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if attrs_of is not None:
                span[4] = attrs_of(result)
            return result

        return traced


def span_cost_s(calls=20000):
    """Cost of one traced call over a direct call, measured on a no-op, in s."""

    def noop():
        return None

    traced = Tracer(targets=())._wrap(noop, "calibration", None)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    with_spans = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    direct = time.perf_counter() - start
    return max(with_spans - direct, 0.0) / calls


def self_times(spans):
    """Self time of every span: its duration minus its children's durations."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans):
    """Per-layer metrics of a finished trace (times in ms, counts exact)."""
    own = self_times(spans)
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = 1e3 * sum(t for s, t in zip(spans, own) if s[0] in names)
    for metric, names in COUNT_METRICS.items():
        out[metric] = sum(1 for s in spans if s[0] in names)
    iters = [s[2] - s[1] for s in spans if s[0] == "extractor.iterate_once"]
    extracts = [s[4] for s in spans if s[0] == "extractor.extract" and s[4]]
    out["extractor.iter_ms"] = 1e3 * statistics.median(iters) if iters else 0.0
    out["extractor.converged_share"] = (
        sum(a["converged"] for a in extracts) / len(extracts) if extracts else 0.0
    )
    out["extractor.runtime_seconds_ms"] = (
        1e3 * statistics.median(a["runtime_s"] for a in extracts)
        if extracts else 0.0
    )
    return out
