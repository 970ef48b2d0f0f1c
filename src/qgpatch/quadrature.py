r"""Singular quadrature for periodic boundary integrals of the layer kernels.

Every boundary integral in this package has the form

    (I f)(t_i) = int_0^{2pi} [alpha log|z_t(t_i) - z_s(e)|
                              + kappa K_0(mu |z_t(t_i) - z_s(e)|)] T(e) de

with both curves sampled on the same uniform parameter grid t_j = 2 pi j/N
and T a vector over the source nodes.  ``layer_integrals`` assembles the
two-layer integrals that the velocities and the contour functional share
from three full weight matrices, or, given a row count, from four blocks
holding only the targets i = 0 .. n_rows-1.  The contour functional of an
m-fold even shape needs no more: with g = gcd(m, N) the grid is invariant
under t -> -t and rotation by 2 pi/g, so the rows 0 <= t <= pi/g
(n_rows = N/(2g) + 1) fix its sine coefficients on the modes m*j, with
weight 4g/N.  The end rows t = 0 and t = pi/g are kept as targets: by the
same symmetry every node pair then has an image among the rows built, so
the guards below see the same minimum separation and maximum chord as a
full build.  Three regimes are handled:

* separated curves: the integrand is analytic, plain trapezoidal rule.
* the same curve (self interaction): log-singular on the diagonal.  Using
  K_0(w) = S(w) - I_0(w) log(w) with S even entire, the kernel splits as

      [alpha - kappa I_0(mu rho)] log(2|sin((t-e)/2)|)   (log part)
    + [alpha - kappa I_0(mu rho)] (1/2) log(rho^2 / (4 sin^2((t-e)/2)))
    + kappa [S(mu rho) - log(mu) I_0(mu rho)]            (smooth part)

  where rho = |z(t) - z(e)|.  The smooth part goes through the trapezoidal
  rule (spectrally accurate), the log part through quadrature weights that
  integrate log(2|sin|) against trigonometric polynomials exactly.
* nearly coincident curves (parameterwise distance << node spacing): same
  split.  The ratio rho^2/(4 sin^2) is no longer smooth across the
  diagonal, but the defect is a spike of width ~|z_t(t)-z_s(t)| around the
  diagonal node whose integral contribution is O(|d| log|d|) times an
  I_0(mu rho)-1 = O(rho^2) coefficient; replacing the diagonal node by its
  coincident-curve limit commits an error far below the quadrature target.
  This is the regime of twin-layer evolution (d = 0 between distinct
  arrays) and of finite-difference probes (d ~ 1e-6).

The in-between regime (curves closer than a few node spacings but not
parameterwise close) cannot be integrated accurately on a uniform grid and
raises ``TouchingBoundaryError``.

Conditioning note: the split evaluates I_0(mu rho) on the full chord
matrix, so entries with large mu*rho cancel against the smooth part.  The
split therefore raises ``QuadratureFailure`` once mu * chord exceeds
``SPLIT_MAX_MU_CHORD`` = 12, where the cosine moments of the unit circle
still come out to 2e-11 relative (all shipped workloads are far below
this).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .bessel import i0_and_regular_part, k0_array
from .kernels import LayerParams, gkj_coefficients

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

TWO_PI = 2.0 * np.pi

# parameterwise closeness below which the near-coincident split applies,
# relative to the curve scale
NEAR_COINCIDENT_TOL = 1e-3
# minimum curve separation for the plain trapezoidal path, relative scale
SEPARATED_TOL = 0.1
# largest mu * chord the self / near-coincident split accepts: I_0(mu rho)
# cancels against the smooth part, and on the unit circle the error against
# 2 pi I_n K_n grows from 3e-12 at mu * diameter = 10 to 8e-11 at 14
SPLIT_MAX_MU_CHORD = 12.0


class TouchingBoundaryError(RuntimeError):
    """Curves too close for the uniform-grid quadrature but not coincident."""


class QuadratureFailure(RuntimeError):
    """Non-finite integrand or unusable geometry in a boundary integral."""


_CACHE: dict[int, tuple[FloatArray, FloatArray, FloatArray]] = {}


def _grid_tables(n: int) -> tuple[FloatArray, FloatArray, FloatArray]:
    """(kress_row, weight_matrix, log_s2_matrix) for an n-point grid.

    kress_row[d] are the weights for the kernel log(2|sin((t-e)/2)|),
    exact against trigonometric polynomials through mode n/2; the matrix
    forms are indexed by (i - j) mod n, with the log of 4 sin^2 patched to
    0.0 on the diagonal (callers never use that entry).
    """
    if n in _CACHE:
        return _CACHE[n]
    if n < 4 or n % 2:
        raise ValueError("node count must be even and >= 4")
    d = np.arange(n)
    m = np.arange(1, n // 2)
    w = -(TWO_PI / n) * (
        np.cos(TWO_PI * np.outer(d, m) / n) @ (1.0 / m) + ((-1.0) ** d) / n
    )
    s2 = 4.0 * np.sin(np.pi * d / n) ** 2
    log_s2 = np.zeros(n)
    log_s2[1:] = np.log(s2[1:])
    idx = (d[:, None] - d[None, :]) % n
    _CACHE[n] = (w, w[idx], log_s2[idx])
    return _CACHE[n]


def _apply_kernel_matrix(kern: FloatArray, t_src: np.ndarray) -> np.ndarray:
    """sum_j kern[i, j] T[j] for a real or complex density vector T."""
    if np.iscomplexobj(t_src):
        return kern @ t_src.real + 1j * (kern @ t_src.imag)
    return kern @ t_src


def spectral_derivative(values: ComplexArray) -> ComplexArray:
    """d/dt of a periodic function sampled on the uniform grid, via FFT."""
    values = np.asarray(values)
    n = values.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # drop the unpaired Nyquist mode
    out = np.fft.ifft(1j * k * np.fft.fft(values, axis=-1), axis=-1)
    if np.isrealobj(values):
        return out.real
    return out


def _curve_scale(z_src: ComplexArray) -> float:
    return float(np.mean(np.abs(z_src)))


def _kernel_matrix(
    alpha, kappa, mu, z_tgt, z_src, dz_src, *, scale: float, n_rows: int | None = None
) -> FloatArray:
    """Weights W with (W @ T)[i] the integral at z_tgt[i]; regime and guards.

    Only the leading targets i = 0 .. n_rows-1 are built (None: all N), so
    W is n_rows x N; the regime test still compares the full grids.  The
    guards measure separations against ``scale``, which the caller picks:
    a cross block must use the larger curve's scale whichever way round it
    is built.  The split takes z_src' on the diagonal from ``dz_src``
    (None: spectral).
    """
    z_tgt = np.asarray(z_tgt, dtype=np.complex128)
    z_src = np.asarray(z_src, dtype=np.complex128)
    n = z_src.shape[0]
    if z_tgt.shape[0] != n:
        raise ValueError("target and source grids must have equal node counts")
    h = TWO_PI / n

    # basic slices: views of the inputs and of the cached grid tables
    diff = z_tgt[:n_rows, None] - z_src[None, :]
    rho2 = diff.real**2 + diff.imag**2

    dmax = float(np.max(np.abs(z_tgt - z_src)))
    if dmax > NEAR_COINCIDENT_TOL * scale:
        rho_min = float(np.sqrt(np.min(rho2)))
        if rho_min < SEPARATED_TOL * scale:
            if rho_min < 1e-8 * scale:
                raise QuadratureFailure(
                    "boundaries touch: singular integrand off the diagonal"
                )
            raise TouchingBoundaryError(
                f"curve separation {rho_min:.3e} below {SEPARATED_TOL} * scale; "
                "uniform-grid quadrature would lose accuracy"
            )
        kern = (0.5 * h * alpha) * np.log(rho2)
        if kappa != 0.0:
            kern += (h * kappa) * k0_array(mu * np.sqrt(rho2))
        return kern

    # self / near-coincident: Kussmaul-Martensen split
    _, w_mat, log_s2 = _grid_tables(n)
    if dz_src is None:
        dz_src = spectral_derivative(z_src)
    log_ratio = np.log(np.where(rho2 > 0.0, rho2, 1.0)) - log_s2[:n_rows]
    # the block's diagonal is entry (i, i), i < n_rows: rows start at node 0
    np.fill_diagonal(log_ratio, np.log(np.abs(dz_src[:n_rows]) ** 2))

    w = mu * np.sqrt(rho2)
    if float(np.max(w)) > SPLIT_MAX_MU_CHORD:
        raise QuadratureFailure(
            f"mu * chord too large for the split evaluation (> {SPLIT_MAX_MU_CHORD})"
        )
    i0, sreg = i0_and_regular_part(w)
    g1_coef = alpha - kappa * i0
    g2_coef = 0.5 * g1_coef * log_ratio
    if kappa != 0.0:
        g2_coef += kappa * (sreg - np.log(mu) * i0)
    return w_mat[:n_rows] * g1_coef + h * g2_coef


def kernel_integral_grid(
    alpha: float,
    kappa: float,
    mu: float,
    z_tgt: ComplexArray,
    z_src: ComplexArray,
    t_src,
    *,
    dz_src: ComplexArray | None = None,
) -> np.ndarray:
    """Boundary integral of (alpha log|.| + kappa K_0(mu |.|)) T over z_src.

    ``z_tgt`` and ``z_src`` are complex nodes on the same uniform parameter
    grid; ``t_src`` is the density vector T[j] sampled at the source nodes.
    Returns the integral at every target node.
    """
    t_src = np.asarray(t_src)
    if t_src.ndim != 1:
        raise ValueError("density must be a vector over the source nodes")
    kern = _kernel_matrix(
        alpha, kappa, mu, z_tgt, z_src, dz_src, scale=_curve_scale(z_src)
    )
    return _apply_kernel_matrix(kern, t_src)


def layer_integrals(
    params: LayerParams, zs, dzs, n_rows: int | None = None
) -> tuple[ComplexArray, ComplexArray]:
    """u_k(t_i) = sum_j int G_{k,j}(z_k(t_i) - z_j(e)) z_j'(e) de for k = 1, 2.

    On the full grid (``n_rows`` None) three builds serve the four pairs:
    the cross kernels have alpha == kappa and depend on |x| only, so
    W_12 = (alpha_12 / alpha_21) W_21^T.  With ``n_rows`` only the targets
    i < n_rows are built, and the transpose needs full matrices, so W_12
    gets its own n_rows x N block.  Every block measures its guards against
    its source curve's scale, except that both cross blocks use layer 1's,
    the larger disc's, whichever layer is the source.
    """
    (z1, z2), (dz1, dz2) = zs, dzs
    mu, scale1 = params.mu, _curve_scale(z1)
    alpha12, kappa12 = gkj_coefficients(params, 1, 2)
    alpha21, kappa21 = gkj_coefficients(params, 2, 1)
    w11 = _kernel_matrix(
        *gkj_coefficients(params, 1, 1), mu, z1, z1, dz1, scale=scale1, n_rows=n_rows
    )
    w22 = _kernel_matrix(
        *gkj_coefficients(params, 2, 2), mu, z2, z2, dz2,
        scale=_curve_scale(z2), n_rows=n_rows,
    )
    w21 = _kernel_matrix(alpha21, kappa21, mu, z2, z1, dz1, scale=scale1, n_rows=n_rows)
    u1 = _apply_kernel_matrix(w11, dz1)
    if n_rows is None:
        u1 += (alpha12 / alpha21) * _apply_kernel_matrix(w21.T, dz2)
    else:
        w12 = _kernel_matrix(
            alpha12, kappa12, mu, z1, z2, dz2, scale=scale1, n_rows=n_rows
        )
        u1 += _apply_kernel_matrix(w12, dz2)
    u2 = _apply_kernel_matrix(w21, dz1) + _apply_kernel_matrix(w22, dz2)
    return u1, u2


# ---------------------------------------------------------------------------
# Closed-form moment checks (the identities behind the multiplier theory)
# ---------------------------------------------------------------------------


def log_moment_quadrature(x: float, n_modes: int, n_nodes: int = 1024) -> FloatArray:
    r"""(1/2pi) int log|1 - x e^{i theta}| cos(n theta) dtheta, n = 1..n_modes.

    Exact value is -x^n/(2n) for 0 < x <= 1.  For x < 1 the integrand is
    analytic and the plain trapezoidal rule applies; at x = 1 the log
    singularity at theta = 0 is handled by the log-subtraction weights.
    """
    if not 0.0 < x <= 1.0:
        raise ValueError("requires 0 < x <= 1")
    theta = TWO_PI * np.arange(n_nodes) / n_nodes
    modes = np.arange(1, n_modes + 1)
    cosines = np.cos(np.outer(modes, theta))
    if x < 1.0:
        f = np.log(np.abs(1.0 - x * np.exp(1j * theta)))
        return cosines @ f / n_nodes
    # |1 - e^{i theta}| = 2|sin(theta/2)|: pure log kernel, exact weights
    w_row, _, _ = _grid_tables(n_nodes)
    return cosines @ w_row / TWO_PI


def screened_moment_quadrature(
    x: float, y: float, lam: float, n_modes: int, n_nodes: int = 1024
) -> FloatArray:
    r"""(1/2pi) int K_0(lam |x - y e^{i theta}|) cos(n theta) dtheta, n = 1..n_modes.

    Exact value is I_n(lam x) K_n(lam y) for 0 < x <= y.  At x = y the
    kernel is log-singular at theta = 0, and the integral is one row of the
    production split, ``_kernel_matrix`` on the circle z = y e^{i theta}.
    """
    if not 0.0 < x <= y:
        raise ValueError("requires 0 < x <= y")
    theta = TWO_PI * np.arange(n_nodes) / n_nodes
    modes = np.arange(1, n_modes + 1)
    cosines = np.cos(np.outer(modes, theta))
    z = y * np.exp(1j * theta)
    if x < y:
        return cosines @ k0_array(lam * np.abs(x - z)) / n_nodes
    row = _kernel_matrix(0.0, 1.0, lam, z, z, 1j * z, scale=y, n_rows=1)[0]
    return cosines @ row / TWO_PI
