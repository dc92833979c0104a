"""Contrast functions for super-Gaussian source models.

Each model supplies a concave contrast G acting on the frame power
``z = sum_k |y_t^k|^2`` together with its first two derivatives:

* ``ssl``: spherical Laplace, G(z) = sqrt(z)
* ``gg``: spherical generalized Gaussian, G(z) = z**p (default p = 1/4)
* ``t``: spherical Student's t, G(z) = log(1 + z / nu)

Each kind is one row of a table of its (G, G', G''), which ``g``, ``g_prime``
and ``g_double_prime`` read; ``KINDS`` are its keys.  Arguments are floored
at ``FLOOR`` before evaluation so the power-law derivatives stay finite at
z = 0.  All three satisfy G' > 0 and G'' < 0 on z > 0, which keeps the
fixed-point update coefficients positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stft import check_number

FLOOR = 1e-12

# kind: (G, G', G''), each a function of the model and the floored power z
_CONTRASTS = {
    "ssl": (lambda m, z: np.sqrt(z), lambda m, z: 0.5 / np.sqrt(z),
            lambda m, z: -0.25 * z**-1.5),
    "gg": (lambda m, z: z**m.gg_exponent,
           lambda m, z: m.gg_exponent * z ** (m.gg_exponent - 1.0),
           lambda m, z: (m.gg_exponent * (m.gg_exponent - 1.0)
                         * z ** (m.gg_exponent - 2.0))),
    "t": (lambda m, z: np.log1p(z / m.nu), lambda m, z: 1.0 / (m.nu + z),
          lambda m, z: -1.0 / (m.nu + z) ** 2),
}
KINDS = tuple(_CONTRASTS)


@dataclass(frozen=True)
class ContrastModel:
    """Prior selection plus its shape parameters."""

    kind: str = "t"
    nu: float = 4.0
    gg_exponent: float = 0.25

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        check_number(self.nu, "nu", above=0)
        check_number(self.gg_exponent, "gg_exponent", above=0, below=1)


def _contrast(order, model, z):
    """The ``order``-th of the model's (G, G', G'') at the floored ``z``: a
    float for a scalar ``z``, else an array."""
    zf = np.asarray(z, dtype=np.float64)
    if np.any(zf < 0):
        raise ValueError("negative argument to contrast function")
    out = _CONTRASTS[model.kind][order](model, np.maximum(zf, FLOOR))
    return out if np.ndim(z) else float(out)


def g(model, z):
    """Contrast value G(z); z is scalar or array, nonnegative."""
    return _contrast(0, model, z)


def g_prime(model, z):
    """First derivative G'(z), positive on z > 0."""
    return _contrast(1, model, z)


def g_double_prime(model, z):
    """Second derivative G''(z), negative on z > 0."""
    return _contrast(2, model, z)
