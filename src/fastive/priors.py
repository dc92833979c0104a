"""Contrast functions for super-Gaussian source models.

Each model supplies a concave contrast G acting on the frame power
``z = sum_k |y_t^k|^2`` together with its first two derivatives:

* ``ssl``: spherical Laplace, G(z) = sqrt(z)
* ``gg``: spherical generalized Gaussian, G(z) = z**p (default p = 1/4)
* ``t``: spherical Student's t, G(z) = log(1 + z / nu)

Arguments are floored at ``FLOOR`` before evaluation so the power-law
derivatives stay finite at z = 0.  All three satisfy G' > 0 and G'' < 0 on
z > 0, which keeps the fixed-point update coefficients positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import check_number

KINDS = ("ssl", "gg", "t")
FLOOR = 1e-12


@dataclass(frozen=True)
class ContrastModel:
    """Prior selection plus its shape parameters."""

    kind: str = "t"
    nu: float = 4.0
    gg_exponent: float = 0.25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not 0 < check_number(self.nu, "nu") < np.inf:
            raise ValueError("nu must be positive and finite")
        if not 0.0 < check_number(self.gg_exponent, "gg_exponent") < 1.0:
            raise ValueError("gg_exponent must lie in (0, 1)")


def _checked(z):
    z = np.asarray(z, dtype=np.float64)
    if np.any(z < 0):
        raise ValueError("negative argument to contrast function")
    return np.maximum(z, FLOOR)


def _ret(z, out):
    return out if np.ndim(z) else float(out)


def g(model, z):
    """Contrast value G(z); z is scalar or array, nonnegative."""
    zf = _checked(z)
    if model.kind == "ssl":
        out = np.sqrt(zf)
    elif model.kind == "gg":
        out = zf**model.gg_exponent
    else:
        out = np.log1p(zf / model.nu)
    return _ret(z, out)


def g_prime(model, z):
    """First derivative G'(z), positive on z > 0."""
    zf = _checked(z)
    if model.kind == "ssl":
        out = 0.5 / np.sqrt(zf)
    elif model.kind == "gg":
        p = model.gg_exponent
        out = p * zf ** (p - 1.0)
    else:
        out = 1.0 / (model.nu + zf)
    return _ret(z, out)


def g_double_prime(model, z):
    """Second derivative G''(z), negative on z > 0."""
    zf = _checked(z)
    if model.kind == "ssl":
        out = -0.25 * zf**-1.5
    elif model.kind == "gg":
        p = model.gg_exponent
        out = p * (p - 1.0) * zf ** (p - 2.0)
    else:
        out = -1.0 / (model.nu + zf) ** 2
    return _ret(z, out)
