"""Projection-based separation metrics and batch aggregation.

An estimate is scored against the true source images at the reference
microphone by least-squares projection onto spans of delayed references
(``filter_len`` taps, i.e. a short distortion filter is allowed).  Its
target energy is that of its projection onto the target's delays, and its
interference energy is what the projection onto every reference's delays
adds to that.  SIR compares the two energies; a trial counts as a success
when the SIR improvement over the unprocessed mixture channel is strictly
positive.

The references of one mixture are factored once (``References``): the
block-Toeplitz Gram of their delays, target block first, has the Cholesky
factor ``L``.  With ``c`` the correlations of an estimate with every
delayed reference and ``z = L^-1 c``, the columns of the delayed references
times ``L^-T`` are orthonormal, the first ``filter_len`` of them spanning
the target's delays.  So the SIR splits the energy of ``z``:
|z[:filter_len]|^2 is the target energy and |z[filter_len:]|^2 the
interference energy, never found as the difference of two projections.
Once factored, an estimate costs a few FFT correlations and one triangular
solve.  The Gram is F-ordered and factored in place; a singular one is
built again, since the failed factorisation overwrote it, and scored in the
same energy form by least squares: the target energy ``c_t^T G_tt^+ c_t``
and the total ``c^T G^+ c``, whose difference is the interference energy.

The transforms are numpy.fft's at the 5-smooth length ``next_fast_len``
picks.  The factor and the solve come from scipy.linalg, which is imported
on the first factorisation, so importing this module (or the package)
loads no scipy: extraction and simulation never pay for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .stft import check_int, next_fast_len

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
    # whether the solve stopped on its tolerance; None for an estimate
    # whose extraction was not run here
    converged: bool | None = None
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
            "converged": self.converged,
        }


class References:
    """Target and interferer images factored for scoring estimates.

    target : [n]; interferers : list of [n].  Holds the references'
    spectra and the lower Cholesky factor of the Gram of their
    ``filter_len`` delays, target block first (``factor`` is None when the
    Gram is singular; ``gram`` is then kept for least squares).  The Gram
    is built from FFT cross-correlations of the zero-padded signals; entry
    ``(a, b)`` of block ``(i, j)`` is the correlation of references ``i``
    and ``j`` at lag ``b - a``.  It is F-ordered so that LAPACK factors it
    in place, and built again for least squares after a failed factor.
    ``input_sir_db`` is the SIR of the mixture channel when
    ``factor_references`` built them, else None.
    """

    def __init__(self, target, interferers, filter_len=DEFAULT_FILTER_LEN):
        refs = [np.asarray(s, dtype=np.float64) for s in (target, *interferers)]
        n = refs[0].size
        if any(r.shape != (n,) for r in refs):
            raise ValueError("all signals must be 1-D of equal length")
        if not np.any(refs[0] != 0.0):
            raise ValueError("degenerate reference: target image is all-zero")
        check_int(filter_len, "filter_len", 1)
        flen = self.filter_len = filter_len
        self.num_samples = n
        self.input_sir_db = None
        self.nfft = nfft = next_fast_len(n + flen - 1)
        self.spectra = np.fft.rfft(refs, nfft, axis=1)
        size = len(refs) * flen

        def build_gram():
            gram = np.empty((size, size), order="F")
            for i, spec_i in enumerate(self.spectra):
                for j in range(i, len(refs)):
                    cc = np.fft.irfft(spec_i * self.spectra[j].conj(), nfft)
                    # block[a, b] = cc[(b - a) % nfft], the rows of the
                    # reversed windows over lags -(flen - 1) .. flen - 1
                    lags = np.concatenate([cc[nfft - flen + 1:], cc[:flen]])
                    block = sliding_window_view(lags, flen)[::-1]
                    gram[i * flen:(i + 1) * flen, j * flen:(j + 1) * flen] = block
                    gram[j * flen:(j + 1) * flen, i * flen:(i + 1) * flen] = block.T
            return gram

        # imported here: loading scipy.linalg takes longer than the rest of
        # the package, and only scoring needs it
        from scipy.linalg import cholesky, solve_triangular

        try:
            # LAPACK factors the F-ordered Gram where it lies, without a copy
            self.factor = cholesky(build_gram(), lower=True, overwrite_a=True)
            self.gram = None
        except np.linalg.LinAlgError:
            # the failed factorisation overwrote the Gram: build it again
            self.factor, self.gram = None, build_gram()
        # the factor and the correlations of a finite estimate are finite
        self._solve = functools.partial(solve_triangular, lower=True,
                                        check_finite=False)

    def _correlate(self, estimate):
        """Correlations of ``estimate`` with every delayed reference."""
        est = np.asarray_chkfinite(estimate, dtype=np.float64)
        if est.shape != (self.num_samples,):
            raise ValueError("all signals must be 1-D of equal length")
        est_f = np.fft.rfft(est, self.nfft).conj()
        delays = -np.arange(self.filter_len) % self.nfft
        return np.fft.irfft(self.spectra * est_f, self.nfft, axis=1)[:, delays].ravel()


def decompose(estimate, references):
    """Target and interference energies of a 1-D estimate against
    ``References`` of images of its length, built once for every estimate
    scored against them: the energy of its projection onto the target's
    delays, and the energy its projection onto every reference's delays
    adds to that."""
    cross = references._correlate(estimate)
    flen = references.filter_len
    if references.factor is None:
        lstsq = np.linalg.lstsq
        gram = references.gram
        target = cross[:flen] @ lstsq(gram[:flen, :flen], cross[:flen], rcond=None)[0]
        return float(target), float(cross @ lstsq(gram, cross, rcond=None)[0] - target)
    z = references._solve(references.factor, cross)
    return float(z[:flen] @ z[:flen]), float(z[flen:] @ z[flen:])


def sir_db(p_target, p_interf):
    """Signal-to-interference ratio of a target and an interference energy,
    in dB (capped)."""
    if p_target <= 0:
        raise ValueError("degenerate decomposition: target part has no energy")
    p_interf = max(p_interf, POWER_FLOOR_REL * p_target)
    return float(min(10.0 * np.log10(p_target / p_interf), SIR_CAP_DB))


def factor_references(truth, num_samples, soi_index=0, ref_mic=0,
                      filter_len=DEFAULT_FILTER_LEN):
    """``References`` of a rendered MixtureSet's images at ``ref_mic``, cut
    to the shortest of ``num_samples`` and the mixture and image lengths,
    for scoring estimates with ``evaluate``.  The mixture channel is scored
    once, here: its SIR is kept as the references' ``input_sir_db``."""
    channels = min(b.num_channels for b in (truth.mixture, *truth.images))
    if not 0 <= ref_mic < channels:
        raise ValueError(f"ref_mic {ref_mic} out of range for {channels} channels")
    if not 0 <= soi_index < len(truth.images):
        raise ValueError(f"soi_index {soi_index} out of range for "
                         f"{len(truth.images)} sources")
    n = min(num_samples, *(b.num_samples for b in (truth.mixture, *truth.images)))
    images = [img.samples[:n, ref_mic] for img in truth.images]
    target = images.pop(soi_index)
    references = References(target, images, filter_len)
    references.input_sir_db = _sir(truth.mixture.samples[:n, ref_mic], references)
    return references


def _sir(signal, references):
    """SIR of ``signal`` against factored references, in dB."""
    return sir_db(*decompose(signal, references))


def evaluate(
    result,
    truth,
    soi_index=0,
    ref_mic=0,
    filter_len=DEFAULT_FILTER_LEN,
    algorithm="",
    scenario_id="",
    references=None,
):
    """Score one extraction against a rendered MixtureSet.

    Input SIR comes from the energy split of the raw mixture channel at
    the reference mic, output SIR from that of the extracted audio, both
    against the same image references truncated to the shortest signal.
    ``references`` skips factoring them and scoring the mixture: pass what
    ``factor_references`` returned for the same truth, ``soi_index``,
    ``ref_mic`` and ``filter_len`` and an estimate of the same length.
    """
    estimate = result.audio.samples[:, 0]
    if references is None:
        references = factor_references(truth, estimate.size, soi_index, ref_mic,
                                       filter_len)
    input_sir = references.input_sir_db
    output_sir = _sir(estimate[:references.num_samples], references)
    improvement = output_sir - input_sir
    return EvalReport(
        input_sir_db=input_sir,
        output_sir_db=output_sir,
        sir_improvement_db=improvement,
        success=improvement > 0.0,
        runtime_seconds=result.runtime_seconds,
        iterations=result.iterations_used,
        converged=None if result.state is None else result.state.converged,
        algorithm=algorithm,
        scenario_id=scenario_id,
    )


def aggregate(records):
    """Battery summary of scored bench records (``EvalReport.to_record``):
    success rate over all trials, mean SIR improvement over the successes
    (absent when there are none), mean runtime and iterations, and the share
    of trials whose solve converged (stopped on its tolerance, not on
    ``max_iter``)."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    successes = [r["sirimp_db"] for r in records if r["success"]]
    return {
        "num_trials": len(records),
        "num_successes": len(successes),
        "success_rate": len(successes) / len(records),
        "mean_sirimp_db": float(np.mean(successes)) if successes else None,
        "mean_sirimp_all_db": float(np.mean([r["sirimp_db"] for r in records])),
        "mean_runtime_s": float(np.mean([r["runtime_s"] for r in records])),
        "mean_iterations": float(np.mean([r["iterations"] for r in records])),
        "converged_share": sum(bool(r["converged"]) for r in records) / len(records),
    }
