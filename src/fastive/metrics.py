"""Projection-based separation metrics and batch aggregation.

An estimate is decomposed against the true source images at the reference
microphone by least-squares projection onto spans of delayed references
(``filter_len`` taps, i.e. a short distortion filter is allowed):

    target_part       = P_target(est)
    interference_part = P_{target + interferers}(est) - P_target(est)
    artifact_part     = est - P_{target + interferers}(est)

The nesting makes the three parts mutually orthogonal and exactly summing
to the (zero-padded) estimate.  SIR compares target to interference energy;
a trial counts as a success when the SIR improvement over the unprocessed
mixture channel is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve as linalg_solve
from scipy.linalg import toeplitz
from scipy.signal import fftconvolve

DEFAULT_FILTER_LEN = 512
SIR_CAP_DB = 300.0
POWER_FLOOR_REL = 1e-30


@dataclass
class EvalReport:
    input_sir_db: float
    output_sir_db: float
    sir_improvement_db: float
    success: bool
    runtime_seconds: float
    iterations: int
    algorithm: str = ""
    scenario_id: str = ""

    def to_record(self):
        """Wire format for line-delimited result files."""
        return {
            "scenario_id": self.scenario_id,
            "algorithm": self.algorithm,
            "input_sir_db": self.input_sir_db,
            "output_sir_db": self.output_sir_db,
            "sirimp_db": self.sir_improvement_db,
            "success": self.success,
            "runtime_s": self.runtime_seconds,
            "iterations": self.iterations,
        }


def _project(refs, est, filter_len):
    """Least-squares projection of ``est`` onto delayed spans of ``refs``.

    refs : [S, n] reference signals; est : [n].  Returns the projection at
    length ``n + filter_len - 1`` (the filtered references carry a tail).

    The Gram matrix of delayed references is block-Toeplitz and is built
    from FFT cross-correlations of the zero-padded signals.
    """
    num_refs, n = refs.shape
    flen = filter_len
    nfft = int(2 ** np.ceil(np.log2(n + flen - 1)))
    ref_f = np.fft.rfft(refs, nfft, axis=1)
    est_f = np.fft.rfft(est, nfft)

    gram = np.zeros((num_refs * flen, num_refs * flen))
    for i in range(num_refs):
        for j in range(i, num_refs):
            cc = np.fft.irfft(ref_f[i] * ref_f[j].conj(), nfft)
            block = toeplitz(np.hstack((cc[0], cc[-1:-flen:-1])), r=cc[:flen])
            gram[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
            if j > i:
                gram[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T

    cross = np.zeros(num_refs * flen)
    for i in range(num_refs):
        cc = np.fft.irfft(ref_f[i] * est_f.conj(), nfft)
        cross[i * flen:(i + 1) * flen] = np.hstack((cc[0], cc[-1:-flen:-1]))

    try:
        coef = linalg_solve(gram, cross, assume_a="pos")
    except np.linalg.LinAlgError:
        coef, *_ = np.linalg.lstsq(gram, cross, rcond=None)
    coef = coef.reshape(num_refs, flen)

    out = np.zeros(n + flen - 1)
    for i in range(num_refs):
        out += fftconvolve(refs[i], coef[i])[: n + flen - 1]
    return out


def decompose(estimate, target_image, interferer_images, filter_len=DEFAULT_FILTER_LEN):
    """Split an estimate into target, interference, and artifact parts.

    All inputs are 1-D, equal length (reference-mic images).  Returned
    parts have length ``n + filter_len - 1``; they are mutually orthogonal
    and sum to the zero-padded estimate.
    """
    est = np.asarray(estimate, dtype=np.float64)
    tgt = np.asarray(target_image, dtype=np.float64)
    interferers = [np.asarray(i, dtype=np.float64) for i in interferer_images]
    if est.ndim != 1:
        raise ValueError("estimate must be 1-D")
    for sig in [tgt, *interferers]:
        if sig.shape != est.shape:
            raise ValueError("all signals must be 1-D of equal length")
    if not np.any(tgt != 0.0):
        raise ValueError("degenerate reference: target image is all-zero")
    if filter_len < 1:
        raise ValueError("filter_len must be >= 1")

    n = est.size
    target_part = _project(tgt[None, :], est, filter_len)
    if interferers:
        refs = np.vstack([tgt] + interferers)
        proj_all = _project(refs, est, filter_len)
    else:
        proj_all = target_part
    interference_part = proj_all - target_part
    padded = np.zeros(n + filter_len - 1)
    padded[:n] = est
    artifact_part = padded - proj_all
    return target_part, interference_part, artifact_part


def sir_db(target_part, interference_part):
    """Signal-to-interference ratio of a decomposition, in dB (capped)."""
    p_target = float(np.sum(np.asarray(target_part) ** 2))
    if p_target <= 0:
        raise ValueError("degenerate decomposition: target part has no energy")
    p_interf = float(np.sum(np.asarray(interference_part) ** 2))
    p_interf = max(p_interf, POWER_FLOOR_REL * p_target)
    return float(min(10.0 * np.log10(p_target / p_interf), SIR_CAP_DB))


def evaluate(
    result,
    truth,
    soi_index=0,
    ref_mic=0,
    filter_len=DEFAULT_FILTER_LEN,
    algorithm="",
    scenario_id="",
    input_sir_db=None,
):
    """Score one extraction against a rendered MixtureSet.

    Input SIR comes from decomposing the raw mixture channel at the
    reference mic, output SIR from decomposing the extracted audio, both
    against the same image references truncated to the shortest signal.
    ``input_sir_db`` skips the first decomposition: pass the value an
    earlier call returned for the same truth, ``soi_index``, ``ref_mic``
    and ``filter_len`` with an estimate of the same length.
    """
    channels = min(b.num_channels for b in (truth.mixture, *truth.images))
    if not 0 <= ref_mic < channels:
        raise ValueError(f"ref_mic {ref_mic} out of range for {channels} channels")
    mixture = truth.mixture.samples[:, ref_mic]
    target = truth.images[soi_index].samples[:, ref_mic]
    interferers = [
        img.samples[:, ref_mic]
        for i, img in enumerate(truth.images)
        if i != soi_index
    ]
    estimate = result.audio.samples[:, 0]
    n = min(s.size for s in (mixture, estimate, target, *interferers))

    if input_sir_db is None:
        t_in, i_in, _ = decompose(
            mixture[:n], target[:n], [s[:n] for s in interferers], filter_len
        )
        input_sir_db = sir_db(t_in, i_in)
    t_out, i_out, _ = decompose(
        estimate[:n], target[:n], [s[:n] for s in interferers], filter_len
    )
    output_sir = sir_db(t_out, i_out)
    improvement = output_sir - input_sir_db
    return EvalReport(
        input_sir_db=input_sir_db,
        output_sir_db=output_sir,
        sir_improvement_db=improvement,
        success=improvement > 0.0,
        runtime_seconds=result.runtime_seconds,
        iterations=result.iterations_used,
        algorithm=algorithm,
        scenario_id=scenario_id,
    )


def aggregate(reports):
    """Battery summary: success rate over all trials, mean SIR improvement
    over the successes (absent when there are none), mean runtime."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    successes = [r for r in reports if r.success]
    mean_over = (
        float(np.mean([r.sir_improvement_db for r in successes]))
        if successes
        else None
    )
    return {
        "num_trials": len(reports),
        "num_successes": len(successes),
        "success_rate": len(successes) / len(reports),
        "mean_sirimp_db": mean_over,
        "mean_sirimp_all_db": float(
            np.mean([r.sir_improvement_db for r in reports])
        ),
        "mean_runtime_s": float(np.mean([r.runtime_seconds for r in reports])),
        "mean_iterations": float(np.mean([r.iterations for r in reports])),
    }
