"""Contrast-function tests: hand-computed values, derivative consistency,
and the sign structure the fixed-point update relies on."""

import itertools

import numpy as np
import pytest

from fastive.priors import KINDS, ContrastModel, g, g_double_prime, g_prime

# hand-computed (kind, z, G, G', G'') rows at the default shape parameters
SPOT_VALUES = [
    ("ssl", 4.0, 2.0, 0.25, -0.03125),
    ("gg", 16.0, 2.0, 0.03125, -0.00146484375),
    ("t", 1.0, 0.22314355131420976, 0.2, -0.04),
]


def test_spot_values_cover_every_kind():
    # a kind added to the table needs hand-computed values of its own
    assert sorted(row[0] for row in SPOT_VALUES) == sorted(KINDS)


@pytest.mark.parametrize("kind,z,gv,gp,gpp", SPOT_VALUES)
def test_hand_computed_spot_values(kind, z, gv, gp, gpp):
    model = ContrastModel(kind=kind)
    np.testing.assert_allclose(g(model, z), gv, rtol=1e-14)
    np.testing.assert_allclose(g_prime(model, z), gp, rtol=1e-14)
    np.testing.assert_allclose(g_double_prime(model, z), gpp, rtol=1e-14)


@pytest.mark.parametrize("kind", KINDS)
def test_first_derivative_matches_difference_quotient(kind):
    model = ContrastModel(kind=kind)
    z = np.logspace(-3, 3, 61)
    h = 1e-6 * z
    fd = (g(model, z + h) - g(model, z - h)) / (2.0 * h)
    np.testing.assert_allclose(g_prime(model, z), fd, rtol=1e-6)


@pytest.mark.parametrize("kind", KINDS)
def test_second_derivative_matches_difference_quotient(kind):
    model = ContrastModel(kind=kind)
    z = np.logspace(-3, 3, 61)
    h = 1e-6 * z
    fd = (g_prime(model, z + h) - g_prime(model, z - h)) / (2.0 * h)
    np.testing.assert_allclose(g_double_prime(model, z), fd, rtol=1e-6)


@pytest.mark.parametrize("kind", KINDS)
def test_sign_structure(kind):
    """G' > 0, G'' < 0, and the self-term G'(z) + z G''(z) stays positive;
    the last keeps the fixed-point multiplier from vanishing."""
    model = ContrastModel(kind=kind)
    z = np.logspace(-6, 6, 121)
    gp = g_prime(model, z)
    gpp = g_double_prime(model, z)
    assert np.all(gp > 0)
    assert np.all(gpp < 0)
    assert np.all(gp + z * gpp > 0)


def test_self_term_closed_forms():
    z = np.logspace(-2, 2, 17)
    ssl = ContrastModel(kind="ssl")
    np.testing.assert_allclose(
        g_prime(ssl, z) + z * g_double_prime(ssl, z), 0.25 / np.sqrt(z), rtol=1e-12
    )
    gg = ContrastModel(kind="gg", gg_exponent=0.25)
    np.testing.assert_allclose(
        g_prime(gg, z) + z * g_double_prime(gg, z), 0.0625 * z**-0.75, rtol=1e-12
    )
    t = ContrastModel(kind="t", nu=4.0)
    np.testing.assert_allclose(
        g_prime(t, z) + z * g_double_prime(t, z), 4.0 / (4.0 + z) ** 2, rtol=1e-12
    )


def test_zero_argument_is_floored():
    model = ContrastModel(kind="ssl")
    assert g_prime(model, 0.0) == 0.5 / np.sqrt(1e-12)
    assert np.isfinite(g_double_prime(model, 0.0))


def test_negative_argument_rejected():
    model = ContrastModel()
    for fn in (g, g_prime, g_double_prime):
        with pytest.raises(ValueError, match="negative argument"):
            fn(model, -1.0)
        with pytest.raises(ValueError, match="negative argument"):
            fn(model, np.array([1.0, -0.5]))


def test_scalar_in_scalar_out():
    for kind, fn in itertools.product(KINDS, (g, g_prime, g_double_prime)):
        model = ContrastModel(kind=kind)
        assert isinstance(fn(model, 2.0), float)
        out = fn(model, np.array([1.0, 2.0]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)


def test_model_validation():
    with pytest.raises(ValueError, match="unknown prior"):
        ContrastModel(kind="cauchy")
    for nu in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"nu must be finite and > 0, got {nu}"):
            ContrastModel(kind="t", nu=nu)
    with pytest.raises(ValueError, match="gg_exponent"):
        ContrastModel(kind="gg", gg_exponent=1.0)
    for name, bad in (("nu", True), ("nu", "4"), ("gg_exponent", False),
                      ("gg_exponent", "0.5")):
        with pytest.raises(ValueError, match=f"{name} must be a number, got {bad!r}"):
            ContrastModel(**{name: bad})
