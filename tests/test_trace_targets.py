"""The benchmark's trace targets are still called.

``perfbench/tracing.py`` wraps fastive's functions at the module attributes
through which callers look them up.  A refactor that stops calling one
through its site drops that span from the benchmark's per-layer metrics
without an error, so this test runs one small call of each entry point the
benchmark drives and asserts that every site records a span.
"""

import collections
import sys
from dataclasses import replace
from pathlib import Path

from fastive import cli, extractor, metrics, roomsim
from fastive.extractor import SolverConfig
from fastive.stft import StftConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_trace_target_records_a_span(tmp_path):
    """Each ``TARGETS`` entry, renamed to its own ``module.attr``, records a
    span in one render, extract, evaluate and ``run_grid`` (1 trial, 1 s,
    3 maps)."""
    fs = 16000
    targets = tuple((module, attr, f"{module.__name__.split('.')[-1]}.{attr}", None)
                    for module, attr, _, _ in tracing.TARGETS)
    grid = {"trials": 1, "duration_seconds": 1.0, "num_sources": [2],
            "num_mics": [2], "prior": ["t"], "solver": {"max_iter": 3}}
    with tracing.Tracer(targets) as tracer:
        sources = roomsim.speech_like_sources(2, fs, fs, 0)
        truth = roomsim.render(replace(roomsim.default_geometry(2, 2), seed=0,
                                       source_signals=tuple(sources)), fs)
        result = extractor.extract(truth.mixture, SolverConfig(max_iter=3),
                                   StftConfig())
        metrics.evaluate(result, truth)
        cli.run_grid(grid, tmp_path)
    recorded = {span[0] for span in tracer.spans}
    assert [name for _, _, name, _ in targets if name not in recorded] == []


def test_each_map_evaluates_every_prior_form_once():
    """The benchmark's ``priors.calls`` is three per map only while each map
    calls G, G' and G'' once: one traced extract (3 maps at most) records
    ``iterations_used`` spans of each."""
    fs = 16000
    sources = roomsim.speech_like_sources(2, fs, fs, 0)
    truth = roomsim.render(replace(roomsim.default_geometry(2, 2), seed=0,
                                   source_signals=tuple(sources)), fs)
    with tracing.Tracer() as tracer:
        result = extractor.extract(truth.mixture, SolverConfig(max_iter=3),
                                   StftConfig())
    counts = collections.Counter(span[0] for span in tracer.spans)
    assert result.iterations_used > 0
    assert ({name: counts[name] for name in tracing.PRIOR_SPANS}
            == dict.fromkeys(tracing.PRIOR_SPANS, result.iterations_used))
