r"""Singular quadrature for periodic boundary integrals of the layer kernels.

Every boundary integral in this package has the form

    (I f)(t_i) = int_0^{2pi} [alpha log|z_t(t_i) - z_s(e)|
                              + kappa K_0(mu |z_t(t_i) - z_s(e)|)] T(e) de

with both curves sampled on the same uniform parameter grid t_j = 2 pi j/N
and T a vector over the source nodes.  ``layer_integrals`` assembles the
two-layer integrals that the velocities and the contour functional share
from three N x N weight matrices (W_11, W_22 and W_21; the self pairs are
symmetric and evaluated on half of their entries), or, given a row count,
from four blocks holding only the targets i = 0 .. n_rows-1.  The contour
functional of an m-fold even shape needs no more: with g = gcd(m, N) the
grid is invariant under t -> -t and rotation by 2 pi/g, so the rows
0 <= t <= pi/g (n_rows = N/(2g) + 1) fix its sine coefficients on the
modes m*j, with weight 4g/N.  The end rows t = 0 and t = pi/g are kept as
targets: by the same symmetry every node pair then has an image among the
rows built, so the guards below see the same minimum separation and
maximum chord as a full build.  Three regimes are handled:

* separated curves: the integrand is analytic, plain trapezoidal rule.
* the same curve (self interaction): log-singular on the diagonal.  Using
  K_0(w) = S(w) - I_0(w) log(w) with S even entire, the kernel splits as

      [alpha - kappa I_0(mu rho)] log(2|sin((t-e)/2)|)   (log part)
    + [alpha - kappa I_0(mu rho)] (1/2) log(rho^2 / (4 sin^2((t-e)/2)))
    + kappa [S(mu rho) - log(mu) I_0(mu rho)]            (smooth part)

  where rho = |z(t) - z(e)|.  The smooth part goes through the trapezoidal
  rule (spectrally accurate), the log part through quadrature weights that
  integrate log(2|sin|) against trigonometric polynomials exactly.

  The split is evaluated on a cyclic layout: entry [i, d] pairs target i
  with source (i + d) mod N, so the weights and log(4 sin^2) depend on the
  column d only and are kept as two rows over d, mirror-symmetric bit for
  bit.  A full build whose targets equal its sources (W_11, W_22, and W_21
  of twin layers) is symmetric: it evaluates the offsets d <= N/2 only and
  one cached gather expands them, so W == W.T exactly.  Row builds and
  near-coincident pairs evaluate every offset.
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
raises ``TouchingBoundaryError``.  A non-finite node or derivative raises
``QuadratureFailure`` before any regime is chosen.

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


_TABLES: dict[int, tuple[FloatArray, FloatArray]] = {}
_GATHERS: dict[tuple[int, int, bool], np.ndarray] = {}


def _grid_tables(n: int) -> tuple[FloatArray, FloatArray]:
    """(kress_row, log_s2_row) over the offset d = (j - i) mod n of an n-point grid.

    kress_row[d] are the weights for the kernel log(2|sin((t-e)/2)|),
    exact against trigonometric polynomials through mode n/2;
    log_s2_row[d] is log(4 sin^2(pi d/n)), patched to 0.0 at d = 0.  Both
    are computed for d <= n/2 and mirrored, so row[d] == row[n - d] holds
    bit for bit.
    """
    if n in _TABLES:
        return _TABLES[n]
    if n < 4 or n % 2:
        raise ValueError("node count must be even and >= 4")
    half = n // 2
    d = np.arange(half + 1)
    inv_m = np.zeros(half + 1)
    inv_m[1:half] = 1.0 / np.arange(1, half)
    # sum_{m=1}^{n/2-1} cos(2 pi d m/n)/m, by one real inverse FFT
    cos_sum = 0.5 * n * np.fft.irfft(inv_m, n)[: half + 1]
    w = np.empty(n)
    w[: half + 1] = -(TWO_PI / n) * (cos_sum + ((-1.0) ** d) / n)
    log_s2 = np.zeros(n)
    log_s2[1 : half + 1] = np.log(4.0 * np.sin(np.pi * d[1:] / n) ** 2)
    for row in (w, log_s2):
        row[half + 1 :] = row[half - 1 : 0 : -1]
    _TABLES[n] = (w, log_s2)
    return _TABLES[n]


def _gather_index(n: int, n_rows: int, half_band: bool) -> np.ndarray:
    """Flat indices that take a cyclic block to the n_rows x n grid layout.

    Entry [i, d] of a cyclic block pairs target i with source (i + d) mod n.
    An all-offsets block (n_rows x n) moves entry [i, (j - i) mod n] to
    [i, j].  A half band (n x (n/2 + 1), offsets d <= n/2) fills [i, j] and
    [j, i] from the one entry of the pair it holds, so the expanded matrix
    is exactly symmetric.  Built on first use and kept per key.
    """
    key = (n, n_rows, half_band)
    if key not in _GATHERS:
        i = np.arange(n_rows)[:, None]
        j = np.arange(n)[None, :]
        d = (j - i) % n
        if half_band:
            cols = n // 2 + 1
            own = (d < n // 2) | ((d == n // 2) & (i < j))
            _GATHERS[key] = np.where(own, i * cols + d, j * cols + (n - d) % n)
        else:
            _GATHERS[key] = i * n + d
    return _GATHERS[key]


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


def _squared_chords(x_tgt, y_tgt, x_src, y_src) -> tuple[FloatArray, FloatArray]:
    """(|z_t - z_s|^2, a scratch array of its shape), broadcast over the block."""
    rho2 = np.subtract(x_tgt, x_src)
    np.square(rho2, out=rho2)
    scratch = np.subtract(y_tgt, y_src)
    np.square(scratch, out=scratch)
    rho2 += scratch
    return rho2, scratch


def _cyclic_view(values: FloatArray, n_rows: int, n_cols: int) -> FloatArray:
    """Read-only view v[i, d] = values[(i + d) mod n] over a doubled copy."""
    doubled = np.concatenate((values, values))
    step = doubled.strides[0]
    return np.lib.stride_tricks.as_strided(
        doubled, shape=(n_rows, n_cols), strides=(step, step), writeable=False
    )


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

    The split is evaluated on the cyclic layout of ``_gather_index``, where
    the offset rows of ``_grid_tables`` broadcast and the diagonal is
    column 0.  A full build with z_tgt equal to z_src is symmetric, so it
    evaluates only the offsets d <= N/2 and expands them; row builds and
    near-coincident pairs evaluate all offsets.  Every block is built in a
    fixed handful of arrays, in place.  Non-finite nodes or derivatives
    raise ``QuadratureFailure``.
    """
    z_tgt = np.asarray(z_tgt, dtype=np.complex128)
    z_src = np.asarray(z_src, dtype=np.complex128)
    n = z_src.shape[0]
    if z_tgt.shape[0] != n:
        raise ValueError("target and source grids must have equal node counts")
    given = (z_tgt, z_src) if dz_src is None else (z_tgt, z_src, dz_src)
    if not all(np.all(np.isfinite(a)) for a in given):
        raise QuadratureFailure("non-finite boundary node or derivative")
    rows = n if n_rows is None else n_rows
    h = TWO_PI / n

    dmax = float(np.max(np.abs(z_tgt - z_src)))
    if dmax > NEAR_COINCIDENT_TOL * scale:
        rho2, kern = _squared_chords(
            z_tgt.real[:rows, None], z_tgt.imag[:rows, None], z_src.real, z_src.imag
        )
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
        np.log(rho2, out=kern)
        kern *= 0.5 * h * alpha
        if kappa != 0.0:
            np.sqrt(rho2, out=rho2)
            rho2 *= mu
            k0 = k0_array(rho2)
            k0 *= h * kappa
            kern += k0
        return kern

    # self / near-coincident: Kussmaul-Martensen split on the cyclic layout
    half_band = n_rows is None and dmax == 0.0
    cols = n // 2 + 1 if half_band else n
    w_row, log_s2_row = _grid_tables(n)
    if dz_src is None:
        dz_src = spectral_derivative(z_src)
    log_ratio, w = _squared_chords(
        z_tgt.real[:rows, None],
        z_tgt.imag[:rows, None],
        _cyclic_view(z_src.real, rows, cols),
        _cyclic_view(z_src.imag, rows, cols),
    )
    np.sqrt(log_ratio, out=w)
    w *= mu
    if float(np.max(w)) > SPLIT_MAX_MU_CHORD:
        raise QuadratureFailure(
            f"mu * chord too large for the split evaluation (> {SPLIT_MAX_MU_CHORD})"
        )
    if float(np.min(log_ratio[:, 1:])) == 0.0:
        raise QuadratureFailure("boundaries touch: singular integrand off the diagonal")
    # column 0 pairs node i with itself: its log ratio is log|z_src'(t_i)|^2
    log_ratio[:, 0] = np.abs(dz_src[:rows]) ** 2
    np.log(log_ratio, out=log_ratio)
    log_ratio -= log_s2_row[:cols]
    # kress_row g1 + h (g1 log_ratio / 2 + kappa (S(mu rho) - log(mu) I_0)),
    # g1 = alpha - kappa I_0(mu rho)
    g1, smooth = i0_and_regular_part(w)
    np.multiply(g1, np.log(mu), out=w)
    smooth -= w
    smooth *= kappa
    g1 *= -kappa
    g1 += alpha
    kern = log_ratio
    kern *= 0.5
    kern *= g1
    kern += smooth
    np.multiply(g1, w_row[:cols], out=w)
    kern *= h
    kern += w
    return np.take(kern, _gather_index(n, rows, half_band))


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
    w_row, _ = _grid_tables(n_nodes)
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
