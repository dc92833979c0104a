"""Evaluation metric tests: projection decomposition identities, ratio
arithmetic on hand-built parts, and report aggregation."""

import numpy as np
import pytest

from fastive import metrics
from fastive.extractor import ExtractionResult
from fastive.metrics import (
    SIR_CAP_DB,
    EvalReport,
    aggregate,
    decompose,
    evaluate,
    sir_db,
)
from fastive.roomsim import MixtureSet
from fastive.stft import AudioBuffer

WIRE_KEYS = ("scenario_id", "algorithm", "input_sir_db", "output_sir_db",
             "sirimp_db", "success", "runtime_s", "iterations")


def test_perfect_estimate_has_no_interference_or_artifact():
    rng = np.random.default_rng(0)
    target = rng.normal(size=400)
    interferer = rng.normal(size=400)
    t, i, a = decompose(target, target, [interferer], filter_len=16)
    energy = np.sum(target**2)
    assert np.sum(i**2) < 1e-20 * energy
    assert np.sum(a**2) < 1e-20 * energy
    np.testing.assert_allclose(t[:400], target, atol=1e-10)


def test_delayed_scaled_estimate_stays_in_the_target_span():
    """A scaled copy of the target delayed by less than the filter length
    decomposes with no interference and no artifact."""
    rng = np.random.default_rng(2)
    target = rng.normal(size=300)
    target[-8:] = 0.0  # keep the shifted copy inside the analysis window
    interferer = rng.normal(size=300)
    delayed = np.zeros(300)
    delayed[3:] = 0.8 * target[:-3]
    t, i, a = decompose(delayed, target, [interferer], filter_len=8)
    energy = np.sum(delayed**2)
    assert np.sum(i**2) < 1e-20 * energy
    assert np.sum(a**2) < 1e-20 * energy
    assert sir_db(t, i) == SIR_CAP_DB


def test_parts_are_orthogonal_and_complete():
    rng = np.random.default_rng(3)
    target = rng.normal(size=300)
    interferer = rng.normal(size=300)
    est = rng.normal(size=300)
    parts = decompose(est, target, [interferer], filter_len=8)
    assert all(p.size == 307 for p in parts)
    scale = np.sum(est**2)
    for i in range(3):
        for j in range(i + 1, 3):
            assert abs(np.dot(parts[i], parts[j])) < 1e-12 * scale
    padded = np.zeros(307)
    padded[:300] = est
    np.testing.assert_allclose(parts[0] + parts[1] + parts[2], padded,
                               atol=1e-12)


def test_decompose_without_interferers():
    rng = np.random.default_rng(4)
    target = rng.normal(size=200)
    est = rng.normal(size=200)
    t, i, a = decompose(est, target, [], filter_len=8)
    np.testing.assert_array_equal(i, 0.0)
    padded = np.zeros(207)
    padded[:200] = est
    np.testing.assert_allclose(t + a, padded, atol=1e-12)


def test_decompose_guards():
    target = np.ones(50)
    with pytest.raises(ValueError, match="1-D"):
        decompose(np.ones((50, 1)), target, [])
    with pytest.raises(ValueError, match="equal length"):
        decompose(np.ones(50), np.ones(40), [])
    with pytest.raises(ValueError, match="equal length"):
        decompose(np.ones(50), target, [np.ones(40)])
    with pytest.raises(ValueError, match="degenerate reference"):
        decompose(np.ones(50), np.zeros(50), [])
    with pytest.raises(ValueError, match="filter_len"):
        decompose(np.ones(50), target, [], filter_len=0)


def test_sir_arithmetic():
    # 10 log10(4 / 2)
    assert sir_db(np.array([2.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
        3.010299956639812, abs=1e-12)
    assert sir_db(np.ones(4), np.zeros(4)) == SIR_CAP_DB
    with pytest.raises(ValueError, match="no energy"):
        sir_db(np.zeros(4), np.ones(4))


def fabricated_truth(seed=5, n=2000):
    """Target and interferer images over two mics, mixture is their sum."""
    rng = np.random.default_rng(seed)
    target = np.stack([rng.normal(size=n), 0.9 * rng.normal(size=n)], axis=1)
    interferer = np.stack([0.5 * rng.normal(size=n),
                           0.6 * rng.normal(size=n)], axis=1)
    fs = 16000
    return MixtureSet(
        mixture=AudioBuffer(target + interferer, fs),
        images=[AudioBuffer(target, fs), AudioBuffer(interferer, fs)],
    )


def fabricated_result(samples, runtime=0.25, iterations=12):
    state = type("S", (), {})()  # evaluate only reads the audio and counters
    return ExtractionResult(audio=AudioBuffer(samples, 16000), state=state,
                            runtime_seconds=runtime, iterations_used=iterations)


def test_evaluate_scores_a_perfect_extraction():
    truth = fabricated_truth()
    report = evaluate(fabricated_result(truth.images[0].samples[:, 0]),
                      truth, filter_len=16, algorithm="oracle",
                      scenario_id="fab-0")
    assert report.success
    assert report.output_sir_db == SIR_CAP_DB
    assert report.sir_improvement_db > 250.0
    assert report.runtime_seconds == 0.25
    assert report.iterations == 12
    assert report.algorithm == "oracle"


def test_evaluate_scores_a_failed_extraction():
    truth = fabricated_truth()
    report = evaluate(fabricated_result(truth.images[1].samples[:, 0]),
                      truth, filter_len=16)
    assert not report.success
    assert report.sir_improvement_db < 0.0


def test_evaluate_truncates_to_common_length():
    truth = fabricated_truth()
    short = truth.images[0].samples[:1500, 0]
    report = evaluate(fabricated_result(short), truth, filter_len=16)
    assert report.success


def test_evaluate_reuses_a_given_input_sir(monkeypatch):
    truth = fabricated_truth()
    result = fabricated_result(truth.mixture.samples[:1800, 0]
                               + truth.images[0].samples[:1800, 0])
    scored = evaluate(result, truth, filter_len=16)
    calls = []
    decompose_once = metrics.decompose

    def counted(*args):
        calls.append(args)
        return decompose_once(*args)

    monkeypatch.setattr(metrics, "decompose", counted)
    reused = evaluate(result, truth, filter_len=16,
                      input_sir_db=scored.input_sir_db)
    assert reused == scored
    assert len(calls) == 1  # only the estimate is decomposed


def test_wire_record_fields():
    report = EvalReport(input_sir_db=1.0, output_sir_db=4.0,
                        sir_improvement_db=3.0, success=True,
                        runtime_seconds=0.5, iterations=7,
                        algorithm="x", scenario_id="y")
    record = report.to_record()
    assert set(record) == set(WIRE_KEYS)
    assert record["sirimp_db"] == 3.0
    assert record["success"] is True
    assert record["runtime_s"] == 0.5
    assert record["iterations"] == 7


def test_aggregate_statistics():
    reports = [
        EvalReport(10.0, 18.0, 8.0, True, 0.2, 10),
        EvalReport(10.0, 16.0, 6.0, True, 0.4, 20),
        EvalReport(10.0, 6.0, -4.0, False, 0.6, 30),
    ]
    summary = aggregate(reports)
    assert summary["num_trials"] == 3
    assert summary["num_successes"] == 2
    assert summary["success_rate"] == pytest.approx(2.0 / 3.0)
    assert summary["mean_sirimp_db"] == pytest.approx(7.0)
    assert summary["mean_sirimp_all_db"] == pytest.approx(10.0 / 3.0)
    assert summary["mean_runtime_s"] == pytest.approx(0.4)
    assert summary["mean_iterations"] == pytest.approx(20.0)


def test_aggregate_with_no_successes():
    summary = aggregate([EvalReport(10.0, 6.0, -4.0, False, 0.1, 5)])
    assert summary["mean_sirimp_db"] is None
    assert summary["mean_sirimp_all_db"] == pytest.approx(-4.0)
    with pytest.raises(ValueError, match="no reports"):
        aggregate([])
