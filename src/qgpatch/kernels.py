r"""Model parameters and interaction kernels of the two-layer QG patch model.

The two potential vorticities are coupled through stream functions that mix
the Laplace Green function G(x) = -log|x|/(2*pi) with the screened one
G_eps(x) = K_0(eps|x|)/(2*pi).  With delta the layer thickness ratio,
lambda the interface rigidity and mu = lambda*sqrt(1+delta), the layer
kernels are

    G_{k,j}(x) = delta^{2-j} log|x| / (2 pi (delta+1))
                 + (-1)^{k+j-1} delta^{k-1} K_0(mu |x|) / (2 pi (delta+1)).

The off-diagonal combinations log|x| + K_0(mu|x|) are bounded near 0: the
log singularities cancel, leaving the regular part Q below.  That
cancellation is what makes the cross-layer boundary integrals regular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from . import bessel

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LayerParams:
    """Model constants: thickness ratio delta, rigidity lambda, disc radii.

    Convention 0 < b2 <= b1; derived quantities mu = lam*sqrt(1+delta) and
    b = b2/b1 in (0, 1].
    """

    delta: float
    lam: float
    b1: float
    b2: float

    def __post_init__(self) -> None:
        if not np.all(np.isfinite([self.delta, self.lam, self.b1, self.b2])):
            raise ValueError(f"parameters must be finite, got {self.as_dict()}")
        if not self.delta > 0.0:
            raise ValueError("delta must be > 0")
        if not self.lam > 0.0:
            raise ValueError("lam must be > 0")
        if not 0.0 < self.b2 <= self.b1:
            raise ValueError("radii must satisfy 0 < b2 <= b1")

    @property
    def mu(self) -> float:
        return self.lam * np.sqrt(1.0 + self.delta)

    @property
    def b(self) -> float:
        return self.b2 / self.b1

    @property
    def in_proven_regime(self) -> bool:
        """delta >= (b2/b1)^2, where the spectral monotonicity facts hold."""
        return self.delta >= self.b ** 2

    def as_dict(self) -> dict:
        return {"delta": self.delta, "lambda": self.lam, "b1": self.b1, "b2": self.b2}


def _norm(p: FloatArray) -> FloatArray:
    p = np.asarray(p, dtype=np.float64)
    return np.hypot(p[..., 0], p[..., 1])


def gkj_coefficients(params: LayerParams, k: int, j: int) -> tuple[float, float]:
    """(alpha, kappa) with G_{k,j}(p) = alpha*log|p| + kappa*K_0(mu|p|)."""
    if k not in (1, 2) or j not in (1, 2):
        raise ValueError("layer indices must be 1 or 2")
    denom = TWO_PI * (params.delta + 1.0)
    alpha = params.delta ** (2 - j) / denom
    kappa = (-1.0) ** (k + j - 1) * params.delta ** (k - 1) / denom
    return alpha, kappa


def kernel_g(params: LayerParams, k: int, j: int, p: FloatArray) -> FloatArray:
    """Layer interaction kernel G_{k,j}(p); p is (..., 2), p != 0.

    For k != j the evaluation routes through the regular part Q so that the
    value stays finite and accurate as |p| -> 0.
    """
    alpha, kappa = gkj_coefficients(params, k, j)
    r = _norm(p)
    if np.any(r == 0.0) and k == j:
        raise ValueError("diagonal kernel is singular at the origin")
    if k != j:
        # alpha == kappa, so log + K_0 combine into -Q
        return -kappa * kernel_q(params, r)
    return alpha * np.log(r) + kappa * bessel.k0_array(params.mu * r)


def kernel_q(params: LayerParams, r: FloatArray) -> FloatArray:
    r"""Regular part Q(r) = -K_0(mu r) - log(r), continuously extended to 0.

    Near the origin the direct subtraction cancels catastrophically, so for
    mu*r <= 2 the form

        Q(r) = log(mu) I_0(mu r) + log(r) (I_0(mu r) - 1) - S(mu r),

    with S(w) = K_0(w) + log(w) I_0(w) the even entire regular part of K_0
    (``bessel.i0_and_regular_part``), is used instead; Q(0) = log(mu/2) + gamma.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ValueError("r must be >= 0")
    mu = params.mu
    w = mu * r
    out = np.empty_like(r)
    small = w <= 2.0
    if np.any(small):
        rs = r[small]
        i0, reg = bessel.i0_and_regular_part(w[small])
        # log(r)*(I_0-1) with the limit 0 at r = 0
        lead = np.zeros_like(rs)
        pos = rs > 0.0
        lead[pos] = np.log(rs[pos]) * (i0[pos] - 1.0)
        out[small] = np.log(mu) * i0 + lead - reg
    if np.any(~small):
        wl = w[~small]
        out[~small] = -bessel.k0_array(wl) - np.log(r[~small])
    return out


def _perp(p: FloatArray) -> FloatArray:
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    out[..., 0] = -p[..., 1]
    out[..., 1] = p[..., 0]
    return out


def biot_savart_plus(p: FloatArray) -> FloatArray:
    """Laplace velocity kernel k_+(p) = -p^perp / (2 pi |p|^2)."""
    r2 = _norm(p) ** 2
    if np.any(r2 == 0.0):
        raise ValueError("biot_savart_plus is singular at the origin")
    return -_perp(p) / (TWO_PI * r2[..., None])


def biot_savart_minus(p: FloatArray) -> FloatArray:
    """Screened velocity kernel k_-(p) = -(p^perp/|p|) K_1(|p|)."""
    r = _norm(p)
    if np.any(r == 0.0):
        raise ValueError("biot_savart_minus is singular at the origin")
    return -_perp(p) * (bessel.k1_array(r) / r)[..., None]


def log_lipschitz_ell(r: FloatArray) -> FloatArray:
    """Log-Lipschitz modulus: 0 at 0, r*log(e/r) on (0,1], 1 beyond."""
    r = np.asarray(r, dtype=np.float64)
    if np.any(r < 0.0):
        raise ValueError("r must be >= 0")
    out = np.ones_like(r)
    mid = (r > 0.0) & (r <= 1.0)
    out[mid] = r[mid] * (1.0 - np.log(r[mid]))
    out[r == 0.0] = 0.0
    return out
