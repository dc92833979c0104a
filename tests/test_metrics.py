"""Evaluation metric tests: the target and interference energies of
known estimates, the factored SIR against an explicit least-squares
oracle (``oracles.py``), ratio arithmetic on given energies, and report
aggregation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastive import metrics
from fastive.extractor import DemixState, ExtractionResult
from fastive.metrics import (
    SIR_CAP_DB,
    EvalReport,
    References,
    aggregate,
    decompose,
    evaluate,
    sir_db,
)
from fastive.roomsim import MixtureSet
from fastive.stft import AudioBuffer
from oracles import explicit_sir_db

WIRE_KEYS = ("scenario_id", "algorithm", "input_sir_db", "output_sir_db",
             "sirimp_db", "success", "runtime_s", "iterations", "converged")


def test_perfect_estimate_has_no_interference():
    rng = np.random.default_rng(0)
    target = rng.normal(size=400)
    interferer = rng.normal(size=400)
    p_target, p_interf = decompose(target, References(target, [interferer], 16))
    energy = np.sum(target**2)
    assert p_interf < 1e-20 * energy
    assert p_target == pytest.approx(energy, rel=1e-10)


def test_delayed_scaled_estimate_stays_in_the_target_span():
    """A scaled copy of the target delayed by less than the filter length
    scores with no interference."""
    rng = np.random.default_rng(2)
    target = rng.normal(size=300)
    target[-8:] = 0.0  # keep the shifted copy inside the analysis window
    interferer = rng.normal(size=300)
    delayed = np.zeros(300)
    delayed[3:] = 0.8 * target[:-3]
    assert sir_db(*decompose(delayed, References(target, [interferer], 8))) \
        == SIR_CAP_DB


def test_energies_are_bounded_by_the_estimate():
    # two nested projections: together they hold no more than the estimate
    rng = np.random.default_rng(3)
    target = rng.normal(size=300)
    interferer = rng.normal(size=300)
    est = rng.normal(size=300)
    p_target, p_interf = decompose(est, References(target, [interferer], 8))
    assert p_target > 0.0 and p_interf > 0.0
    assert 0.0 <= p_target + p_interf <= np.sum(est**2) * (1 + 1e-12)


def test_decompose_without_interferers():
    rng = np.random.default_rng(4)
    target = rng.normal(size=200)
    est = rng.normal(size=200)
    p_target, p_interf = decompose(est, References(target, [], 8))
    assert p_interf == 0.0
    assert 0.0 < p_target <= np.sum(est**2) * (1 + 1e-12)


def test_decompose_guards():
    target = np.ones(50)
    with pytest.raises(ValueError, match="1-D"):
        decompose(np.ones((50, 1)), References(target, []))
    with pytest.raises(ValueError, match="equal length"):
        decompose(np.ones(50), References(np.ones(40), []))
    with pytest.raises(ValueError, match="equal length"):
        decompose(np.ones(50), References(target, [np.ones(40)]))
    with pytest.raises(ValueError, match="degenerate reference"):
        decompose(np.ones(50), References(np.zeros(50), []))
    with pytest.raises(ValueError, match="filter_len"):
        decompose(np.ones(50), References(target, [], filter_len=0))
    # a bool or a fraction is no filter length
    for bad in (True, 2.5):
        with pytest.raises(ValueError, match=f"filter_len must be an integer, got {bad}"):
            References(target, [], filter_len=bad)


def test_sir_arithmetic():
    # 10 log10(4 / 2)
    assert sir_db(4.0, 2.0) == pytest.approx(3.010299956639812, abs=1e-12)
    assert sir_db(4.0, 0.0) == SIR_CAP_DB
    with pytest.raises(ValueError, match="no energy"):
        sir_db(0.0, 2.0)


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
    # evaluate only reads the audio, the counters and the convergence flag
    state = DemixState(w=np.zeros((1, 1), complex), converged=True, cost_history=[])
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
    assert report.converged is True
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


def test_evaluate_reuses_given_references(monkeypatch):
    truth = fabricated_truth()
    result = fabricated_result(truth.mixture.samples[:1800, 0]
                               + truth.images[0].samples[:1800, 0])
    scored = evaluate(result, truth, filter_len=16)
    references = metrics.factor_references(truth, 1800, filter_len=16)
    calls = []
    monkeypatch.setattr(metrics, "factor_references",
                        lambda *args: calls.append(args))
    reused = evaluate(result, truth, filter_len=16, references=references)
    assert reused == scored
    assert calls == []


@pytest.mark.parametrize("soi_index", [-1, 2])
def test_evaluate_rejects_a_target_index_out_of_range(soi_index):
    truth = fabricated_truth()
    with pytest.raises(ValueError, match=f"soi_index {soi_index} out of range"):
        evaluate(fabricated_result(truth.images[0].samples[:, 0]), truth,
                 soi_index=soi_index, filter_len=16)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_refs=st.integers(1, 3),
       filter_len=st.integers(1, 8), n=st.integers(40, 160),
       leak=st.floats(0.0, 1.0))
def test_factored_sir_matches_least_squares(seed, num_refs, filter_len, n, leak):
    # one factorisation scores a mixture-like signal and an estimate, as
    # evaluate does; both match fresh decompositions and the explicit oracle
    rng = np.random.default_rng(seed)
    target, *interferers = rng.normal(size=(num_refs, n))
    mixture = target + np.sum(interferers, axis=0)
    estimate = target + leak * np.sum(interferers, axis=0) \
        + 0.1 * rng.normal(size=n)
    references = References(target, interferers, filter_len)
    for signal in (mixture, estimate):
        shared = decompose(signal, references)
        assert shared == decompose(signal, References(target, interferers, filter_len))
        assert sir_db(*shared) == pytest.approx(
            explicit_sir_db(signal, target, interferers, filter_len), abs=1e-9)


@pytest.mark.parametrize("second", ["none", "duplicate", "silent"])
def test_singular_gram_falls_back_to_least_squares(second):
    # a duplicated or silent interferer adds nothing to the span, so all
    # three score the same; the last two have a singular Gram
    rng = np.random.default_rng(0)
    n = 3000
    target, interferer, noise = (rng.standard_normal(n) for _ in range(3))
    estimate = target + 0.3 * interferer + 0.1 * noise
    interferers = [interferer] + {
        "none": [], "duplicate": [interferer], "silent": [np.zeros(n)]}[second]
    references = References(target, interferers, 64)
    assert (references.factor is None) == (second != "none")
    assert sir_db(*decompose(estimate, references)) == pytest.approx(
        10.527080287131, abs=1e-9)


def test_wire_record_fields():
    report = EvalReport(input_sir_db=1.0, output_sir_db=4.0,
                        sir_improvement_db=3.0, success=True,
                        runtime_seconds=0.5, iterations=7, converged=False,
                        algorithm="x", scenario_id="y")
    record = report.to_record()
    assert set(record) == set(WIRE_KEYS)
    assert record["sirimp_db"] == 3.0
    assert record["success"] is True
    assert record["runtime_s"] == 0.5
    assert record["iterations"] == 7
    assert record["converged"] is False


def test_aggregate_statistics():
    records = [
        EvalReport(10.0, 18.0, 8.0, True, 0.2, 10, True).to_record(),
        EvalReport(10.0, 16.0, 6.0, True, 0.4, 20, True).to_record(),
        EvalReport(10.0, 6.0, -4.0, False, 0.6, 30, False).to_record(),
    ]
    summary = aggregate(records)
    assert summary["num_trials"] == 3
    assert summary["num_successes"] == 2
    assert summary["success_rate"] == pytest.approx(2.0 / 3.0)
    assert summary["mean_sirimp_db"] == pytest.approx(7.0)
    assert summary["mean_sirimp_all_db"] == pytest.approx(10.0 / 3.0)
    assert summary["mean_runtime_s"] == pytest.approx(0.4)
    assert summary["mean_iterations"] == pytest.approx(20.0)
    assert summary["converged_share"] == pytest.approx(2.0 / 3.0)


def test_aggregate_with_no_successes():
    summary = aggregate([EvalReport(10.0, 6.0, -4.0, False, 0.1, 5).to_record()])
    assert summary["mean_sirimp_db"] is None
    assert summary["mean_sirimp_all_db"] == pytest.approx(-4.0)
    with pytest.raises(ValueError, match="no records"):
        aggregate([])
