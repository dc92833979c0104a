"""Covariance and whitening tests.

The eigendecomposition inside ``build_whitener`` is checked on one-bin
banks, through the eigenpairs its whitener determines: against the
eigenvalues of the regularized matrix, a closed-form 2x2 case, its phase
convention and its reproducibility; whitening is checked by the identity it
must produce, including as a property over random banks.  Spectra are
built complex and handed over in the planar layout through ``planar``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastive.whitening import (
    EPS_COV_REL,
    apply_whitener,
    build_whitener,
    estimate_covariance,
)
from oracles import from_planar, planar


def random_spec(seed, num_bins=5, num_frames=200, num_channels=3):
    """Complex gaussian [K, T, M] data in the planar [K, 2M, T] layout."""
    rng = np.random.default_rng(seed)
    return planar(rng.normal(size=(num_bins, num_frames, num_channels))
                  + 1j * rng.normal(size=(num_bins, num_frames, num_channels)))


def one_bin(matrix):
    """A single-bin covariance stack holding ``matrix``."""
    return np.asarray(matrix, dtype=complex)[None]


def shift_of(matrix):
    m = matrix.shape[0]
    return EPS_COV_REL * np.trace(matrix).real / m


def eigenpairs(q):
    """Eigenvalues [K, R] and eigenvectors [K, M, R] of a [K, R, M] whitener:
    row i of Q is d_i^(-1/2) u_i^H, so d_i = 1/||q_i||^2, u_i = q_i^H sqrt(d_i)."""
    vals = 1.0 / np.sum(np.abs(q) ** 2, axis=2)
    return vals, q.conj().transpose(0, 2, 1) * np.sqrt(vals)[:, None, :]


def eig(matrix):
    vals, vecs = eigenpairs(build_whitener(one_bin(matrix)))
    return vals[0], vecs[0]


def test_eig_closed_form_2x2():
    """[[2, i], [-i, 2]] has eigenpairs 3 -> (1, -i)/sqrt(2) and
    1 -> (1, i)/sqrt(2) under the real-positive-max-component convention;
    the eigenvalues carry the diagonal shift."""
    a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
    vals, vecs = eig(a)
    np.testing.assert_allclose(vals, np.array([3.0, 1.0]) + shift_of(a), atol=1e-14)
    expected = np.array([[1.0, 1.0], [-1.0j, 1.0j]]) / np.sqrt(2.0)
    np.testing.assert_allclose(vecs, expected, atol=1e-14)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
def test_eig_matches_lapack_on_random_hermitian(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        a = raw @ raw.conj().T
        reg = a + shift_of(a) * np.eye(m)
        scale = np.linalg.norm(reg)
        vals, vecs = eig(a)
        ref = np.sort(np.linalg.eigvalsh(reg))[::-1]
        np.testing.assert_allclose(vals, ref, atol=1e-12 * scale)
        # residual and unitarity
        assert np.linalg.norm(reg @ vecs - vecs * vals) < 1e-12 * scale
        assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(m)) < 1e-12


def test_eig_phase_convention_is_deterministic():
    rng = np.random.default_rng(4)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = raw @ raw.conj().T
    vals1, vecs1 = eig(a)
    vals2, vecs2 = eig(a.copy())
    np.testing.assert_array_equal(vals1, vals2)
    np.testing.assert_array_equal(vecs1, vecs2)
    for j in range(5):
        i = int(np.argmax(np.abs(vecs1[:, j])))
        assert abs(vecs1[i, j].imag) < 1e-12
        assert vecs1[i, j].real > 0.0


def test_eig_tied_eigenvalues_keep_stable_order():
    a = np.diag([5.0, 5.0, 2.0]).astype(complex)
    vals, vecs = eig(a)
    np.testing.assert_allclose(vals, np.array([5.0, 5.0, 2.0]) + shift_of(a),
                               atol=1e-14)
    # which basis of the tied plane comes back is LAPACK's choice; the plane
    # itself is fixed: the two leading vectors span {e1, e2}
    assert np.max(np.abs(vecs[2, :2])) < 1e-14
    np.testing.assert_allclose(np.abs(vecs[:, 2]), [0.0, 0.0, 1.0], atol=1e-14)
    again = eig(a.copy())
    np.testing.assert_array_equal(vals, again[0])
    np.testing.assert_array_equal(vecs, again[1])

    # a rotated double eigenvalue still reproduces bit-for-bit
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u, _ = np.linalg.qr(raw)
    a = u @ np.diag([3.0, 3.0, 1.0]).astype(complex) @ u.conj().T
    out1 = eig(a)
    out2 = eig(a.copy())
    np.testing.assert_array_equal(out1[0], out2[0])
    np.testing.assert_array_equal(out1[1], out2[1])


def test_eig_input_guards():
    with pytest.raises(ValueError, match="not Hermitian"):
        build_whitener(one_bin([[0.0, 1.0], [0.0, 0.0]]))
    # one bad bin among good ones is enough
    bad = np.stack([np.eye(2), [[1.0, 1e-3], [0.0, 1.0]]]).astype(complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        build_whitener(bad)
    with pytest.raises(ValueError, match="square"):
        build_whitener(np.zeros((1, 2, 3), dtype=complex))
    with pytest.raises(ValueError, match="square"):
        build_whitener(np.zeros((2, 2), dtype=complex))
    # a deviation inside the 1e-8 relative tolerance is accepted
    near = np.array([[1.0, 1e-10], [0.0, 1.0]], dtype=complex)
    assert np.all(np.isfinite(build_whitener(one_bin(near))))


def test_estimate_covariance_hand_case():
    # two frames, one bin: C = (x1 x1^H + x2 x2^H) / 2
    x1 = np.array([1.0 + 0.0j, 1.0j])
    x2 = np.array([1.0 + 0.0j, -1.0j])
    cov = estimate_covariance(planar(np.stack([x1, x2])[None, :, :]))
    np.testing.assert_allclose(cov[0], np.eye(2), atol=1e-15)
    hermitian_dev = cov - cov.conj().transpose(0, 2, 1)
    assert np.max(np.abs(hermitian_dev)) == 0.0


def test_estimate_covariance_needs_frames():
    with pytest.raises(ValueError, match="insufficient frames"):
        estimate_covariance(np.zeros((1, 4, 1)))


def test_estimate_covariance_needs_a_three_axis_spectrum():
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\]"):
        estimate_covariance(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\]"):
        estimate_covariance(np.zeros((2, 4, 3, 1)))


def test_estimate_covariance_rejects_a_complex_spectrum():
    """A complex [K, T, M] array, the layout before the planar one, is not
    read as a [K, 2M, T] spectrum of T/2 channels and M frames."""
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\], got complex128"):
        estimate_covariance(from_planar(random_spec(8)))


def test_estimate_covariance_rejects_an_odd_row_count():
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\]"):
        estimate_covariance(random_spec(8)[:, :5])


def test_whitener_whitens():
    spec = random_spec(0)
    c = estimate_covariance(spec)
    q = build_whitener(c)
    ident = np.einsum("krm,kmn,ksn->krs", q, c, q.conj())
    eye = np.broadcast_to(np.eye(3), ident.shape)
    assert np.max(np.abs(ident - eye)) < 1e-8

    white = apply_whitener(spec, q)
    wcov = estimate_covariance(white)
    assert np.max(np.abs(wcov - eye)) < 1e-8


def test_whitener_whitens_beyond_sixteen_mics():
    spec = random_spec(6, num_channels=20)
    c = estimate_covariance(spec)
    q = build_whitener(c)
    ident = np.einsum("krm,kmn,ksn->krs", q, c, q.conj())
    assert np.max(np.abs(ident - np.eye(20))) < 1e-8
    assert np.all(np.diff(eigenpairs(q)[0], axis=1) <= 0)


@settings(deadline=None)
@given(num_channels=st.integers(2, 20), num_bins=st.integers(1, 4),
       gain=st.floats(1e-200, 1e200), seed=st.integers(0, 2**32 - 1))
def test_whitener_properties_on_random_banks(num_channels, num_bins, gain, seed):
    # positive definite banks with eigenvalues in [0.1, 1] times a per-bin
    # power spread over twelve decades, as in a real spectrum
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(num_bins, num_channels, num_channels)) \
        + 1j * rng.normal(size=(num_bins, num_channels, num_channels))
    u, _ = np.linalg.qr(raw)
    spectrum = rng.uniform(0.1, 1.0, size=(num_bins, num_channels))
    spectrum *= 10.0 ** rng.uniform(-6, 6, size=(num_bins, 1))
    cov = np.einsum("kmr,kr,knr->kmn", u, spectrum, u.conj())
    cov = 0.5 * (cov + cov.conj().transpose(0, 2, 1))
    eye = np.eye(num_channels)

    q = build_whitener(cov)
    ident = np.einsum("krm,kmn,ksn->krs", q, cov, q.conj())
    assert np.max(np.abs(ident - eye)) < 1e-8
    vals, vecs = eigenpairs(q)
    assert np.all(np.diff(vals, axis=1) <= 0)
    peak = np.argmax(np.abs(vecs), axis=1)[:, None, :]
    lead = np.take_along_axis(vecs, peak, axis=1)
    assert np.all(lead.real > 0) and np.all(np.abs(lead.imag) <= 1e-12 * lead.real)

    # Q^H Q is the inverse of the shifted covariance, whatever basis the
    # solver picks on near-ties, so it scales exactly as 1/gain: no power
    # threshold of the whitener's own may enter at any gain float64 holds
    scaled = build_whitener(gain * cov)
    inv = np.einsum("krm,krn->kmn", q.conj(), q)
    inv_scaled = np.einsum("krm,krn->kmn", scaled.conj(), scaled)
    err = np.linalg.norm(gain * inv_scaled - inv, axis=(1, 2))
    assert np.all(err <= 1e-8 * np.linalg.norm(inv, axis=(1, 2)))


def test_whitener_orders_components_by_power():
    spec = random_spec(1)
    q = build_whitener(estimate_covariance(spec))
    assert np.all(np.diff(eigenpairs(q)[0], axis=1) <= 0)
    white = apply_whitener(spec, q)
    # every whitened component has unit average power
    power = np.mean(np.abs(from_planar(white)) ** 2, axis=1)
    np.testing.assert_allclose(power, 1.0, atol=1e-8)


def test_rank_truncation_takes_leading_rows():
    cov = estimate_covariance(random_spec(2))
    full = build_whitener(cov)
    top = build_whitener(cov, rank=2)
    assert top.shape == (full.shape[0], 2, 3)
    np.testing.assert_array_equal(top, full[:, :2, :])
    with pytest.raises(ValueError, match="rank"):
        build_whitener(cov, rank=4)
    with pytest.raises(ValueError, match="rank"):
        build_whitener(cov, rank=0)


def test_silent_bin_stays_finite():
    spec = random_spec(3)
    spec[2] = 0.0
    q = build_whitener(estimate_covariance(spec))
    assert np.all(np.isfinite(q))
    white = apply_whitener(spec, q)
    np.testing.assert_array_equal(white[2], 0.0)


@pytest.mark.parametrize("num_channels", [2, 3, 6, 17])
def test_planar_stages_match_the_complex_products(num_channels):
    """Over 1025 bins, the covariance from the real Gram of the planar rows
    matches the complex ``x^T conj(x) / T`` and is exactly Hermitian, and
    the planar whitening matches ``planar`` of the complex ``Q x``, at full
    rank and at rank 2; each entry to 1e-13 of its rounding-error scale, the
    same contraction taken over absolute values."""
    rng = np.random.default_rng(num_channels)
    shape = (1025, 40, num_channels)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ax = np.abs(x).transpose(0, 2, 1)
    cov = estimate_covariance(planar(x))
    ref = np.matmul(x.transpose(0, 2, 1), x.conj()) / 40
    assert np.all(np.abs(cov - ref) <= 1e-13 * np.matmul(ax, ax.transpose(0, 2, 1)) / 40)
    assert np.array_equal(cov, cov.conj().transpose(0, 2, 1))
    for rank in (num_channels, 2):
        q = build_whitener(cov, rank=rank)
        white = apply_whitener(planar(x), q)
        assert white.shape == (1025, 2 * rank, 40) and white.dtype == np.float64
        want = planar(np.matmul(q, x.transpose(0, 2, 1)).transpose(0, 2, 1))
        scale = np.tile(np.matmul(np.abs(q), ax), (1, 2, 1))
        assert np.all(np.abs(white - want) <= 1e-13 * scale)


@pytest.mark.parametrize("num_bins", [1, 63, 64, 65, 1025])
@pytest.mark.parametrize("rank", [2, 3])
def test_planar_output_is_the_batched_product_bit_for_bit(num_bins, rank):
    """Every bin of the planar output is exactly the real product of
    ``[[Re Q, -Im Q], [Im Q, Re Q]]`` with that bin's planar rows, and the
    same as whitening that bin alone, whatever the bin count."""
    spec = random_spec(7, num_bins=num_bins, num_frames=6)
    q = build_whitener(estimate_covariance(spec), rank=rank)
    white = apply_whitener(spec, q)
    assert white.shape == (num_bins, 2 * rank, 6) and white.dtype == np.float64
    for k in range(num_bins):
        block = np.block([[q[k].real, -q[k].imag], [q[k].imag, q[k].real]])
        np.testing.assert_array_equal(white[k], block @ spec[k])
        np.testing.assert_array_equal(
            white[k], apply_whitener(spec[k:k + 1], q[k:k + 1])[0])


def test_apply_whitener_shape_guards():
    spec = random_spec(4)
    q = build_whitener(estimate_covariance(spec))
    other = random_spec(4, num_bins=3)
    with pytest.raises(ValueError, match="bin count mismatch"):
        apply_whitener(other, q)
    two_ch = random_spec(4, num_channels=2)
    with pytest.raises(ValueError, match="channel mismatch"):
        apply_whitener(two_ch, q)


def test_apply_whitener_rejects_a_complex_spectrum():
    spec = random_spec(9)
    q = build_whitener(estimate_covariance(spec))
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\], got complex128"):
        apply_whitener(from_planar(spec), q)


def test_apply_whitener_rejects_an_odd_row_count():
    spec = random_spec(9)
    q = build_whitener(estimate_covariance(spec))
    with pytest.raises(ValueError, match=r"planar real \[K, 2M, T\]"):
        apply_whitener(spec[:, :5], q)


def test_regularization_handles_rank_deficiency():
    # one channel duplicated: covariance is singular without the shift
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 100, 1)) + 1j * rng.normal(size=(2, 100, 1))
    data = planar(np.concatenate([x, x], axis=2))
    q = build_whitener(estimate_covariance(data))
    assert np.all(np.isfinite(q))
    white = apply_whitener(data, q)
    assert np.all(np.isfinite(white))
