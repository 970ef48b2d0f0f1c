r"""Singular quadrature for periodic boundary integrals of the layer kernels.

Every boundary integral in this package has the form

    (I f)(t_i) = int_0^{2pi} [alpha log|z_t(t_i) - z_s(e)|
                              + kappa K_0(mu |z_t(t_i) - z_s(e)|)] T(e) de

with both curves sampled on the same uniform parameter grid t_j = 2 pi j/N
and T a vector over the source nodes.  The grid and the curve through the
nodes, their trigonometric interpolant without the unpaired Nyquist mode,
are defined here once for the package: ``grid``, ``fourier``,
``spectral_derivative``, ``trig_sum`` (off-grid sums) and ``mode_tables``
(cos/sin of the modes m*j).  ``layer_integrals`` assembles the
two-layer integrals that the velocities and the contour functional share
from three weight builds (W_11, W_22 and W_21) and one reuse of W_21 for
W_12.  On the full grid the three are N x N and W_12 is a multiple of
W_21^T.  Given a fold g, they hold only the targets i = 0 .. n_rows-1
(``fold_rows``), and W_12 is copied from the W_21 rows.  A fold has two
forms.  The even one (n_rows = N/(2g) + 1) serves the contour functional
of an m-fold even shape: with g = gcd(m, N) the curves and the grid are
invariant under t -> -t and rotation by 2 pi/g, so the rows
0 <= t <= pi/g fix its sine coefficients on the modes m*j, with weight
4g/N, and every entry of W_21 outside them equals one inside.  The
rotation-only one (``even`` False, n_rows = N/g) serves the evolution of
a V-state, which keeps its rotation symmetry but not its evenness as it
turns: the rows 0 <= t < 2 pi/g give every velocity, the others being
these turned by e^{2 pi i k/g}.  ``layer_integrals`` measures each curve
once per call (``_curve``: finiteness of nodes and derivative, mean and
max |z|), and its fold check and every block's guards read those
measures; a single-block caller measures through the same ``_curve``.  It
refuses a fold the curves do not have.  The even fold keeps the end rows
t = 0 and t = pi/g as targets: in either form every node pair then has an
image among the rows built, so the guards below see the same minimum
separation and maximum chord as a full build.
Three regimes are handled:

* separated curves: the integrand is analytic, plain trapezoidal rule.
* the same curve (self interaction): log-singular on the diagonal.  Using
  K_0(w) = S(w) - I_0(w) log(w) with S even entire, the kernel splits as

      [alpha - kappa I_0(mu rho)] log(2|sin((t-e)/2)|)   (log part)
    + [alpha - kappa I_0(mu rho)] (1/2) log(rho^2 / (4 sin^2((t-e)/2)))
    + kappa [S(mu rho) - log(mu) I_0(mu rho)]            (smooth part)

  where rho = |z(t) - z(e)|.  The smooth part goes through the trapezoidal
  rule (spectrally accurate), the log part through quadrature weights that
  integrate log(2|sin|) against trigonometric polynomials exactly.

  Both regimes are assembled by one formula,

      W = L * (h/2) [alpha - kappa I_0] + h kappa [S - log(mu) I_0],

  with the two brackets polynomials in q = mu^2 rho^2 / 4 whose
  coefficients are the ``bessel`` series tables with alpha, kappa, h and
  log(mu) folded in, each summed by one Horner pass (``horner``), the
  second into the first one's array once L has been scaled by it.
  The folded tables are cached per series table and (alpha, kappa, mu, h)
  in a bounded, read-only cache.  L is log(rho^2) for
  separated curves and log(rho^2) - log(4 sin^2) + (2/h) kress_row for
  the split.  A separated block with mu * rho_max > 3, where the series
  cancels, takes h (alpha log rho + kappa K_0(mu rho)) from ``k0_array``
  instead.  The guards compare squared distances, so the folded paths take
  no square root of the chord matrix.

  The kress weights and log(4 sin^2) depend on the offset d = (j - i) mod N
  only and are kept as two rows over d, mirror-symmetric bit for bit.  A
  block whose targets equal its sources (W_11, W_22, and W_21 of twin
  layers) is symmetric and evaluates the offsets d <= N/2 only, on the
  centred half band, where the rows broadcast along the columns: entry
  [k, d] pairs node k - floor(d/2) with node k + ceil(d/2).  One gather
  (``_gather_index``, its index held once, by the cached ``_take``) takes
  it to the grid.  On the full grid k
  runs over 0 .. N-1, and the gather fills W[i, j] and W[j, i] from one
  entry, so W == W.T exactly.  Given an even fold g, k runs over
  0 .. N/(2g), so the centre runs over 0 .. pi/g and every node-pair orbit
  under rotation by 2 pi/g, t -> -t and transposition appears in it.  At
  N = 256, g = 2 that is 8,385 entries instead of the 16,640 of the 65 rows
  it fills.  Given a rotation-only fold, k runs over 0 .. N/g - 1, the
  centres 0 <= t < 2 pi/g: 16,512 entries at N = 256, g = 2, against the
  33,024 of the full grid's band, and 65,792 kernel entries per folded
  right-hand side of ``dynamics`` instead of 131,584.
  Every other block (explicit row builds, near-coincident pairs and
  separated blocks) is built in place in its grid layout, the split's rows
  entering as one circulant view c[i, j] = row[(j - i) mod N].  The two
  rows enter as one, (2/h) kress_row - log(4 sin^2), cached per N
  (``_log_ratio_row``).
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
``QuadratureFailure`` before any regime is chosen (in ``layer_integrals``
before the fold check too), and so does a split block's zero derivative
at a node, after the other guards.  ``_check_fold`` called alone refuses
a non-finite curve with ``ValueError``, naming the value.  A weight matrix is
applied to a complex density (the nodes' z') as one (rows x N) @ (N x 2)
product on the density's float view, so both parts share one pass over W.

A ``layer_integrals`` whose cross block has at least
``THREADED_CROSS_MIN_ENTRIES`` entries (``fold_rows(N, fold, even) * N``:
the full grid from N = 256, either form of a fold of 2 from N = 512) in a
process allowed on two or more CPUs builds and applies W_21 on one
long-lived worker thread while the
calling thread builds and applies W_11 and W_22.  With the self blocks on the
centred half band the split is even: 2 (N/2 + 1) self entries against N cross
entries per target row.  numpy releases the GIL inside the ufunc and BLAS
calls that do the work, each block is built exactly as in the serial order,
and each self part is added to its cross part as that order adds them, so
every result is bitwise the serial one.  Smaller builds stay serial, where the
GIL hand-offs cost more than the second core saves (timings at the constant).

Conditioning note: the split evaluates I_0(mu rho) on the full chord
matrix, so entries with large mu*rho cancel against the smooth part.  The
split therefore raises ``QuadratureFailure`` once mu * chord exceeds
``SPLIT_MAX_MU_CHORD`` = 12, where the cosine moments of the unit circle
still come out to 2e-11 relative (all shipped workloads are far below
this).
"""

from __future__ import annotations

import functools
import os
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .bessel import horner, k0_array, series_coefficients
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
# largest mu * chord of a separated block the folded series serves; beyond
# it the series cancels and the block takes k0_array
K0_SERIES_CUT = 3.0
# a layer_integrals whose cross block has at least this many entries,
# fold_rows(N, fold, even) * N, builds it on a worker thread, given 2 CPUs.
# Serial over threaded time of one layer_integrals, median of 15 interleaved
# rounds (two runs: 2-vCPU Xeon, numpy 2.4.6, one BLAS thread), by N and
# fold (an even fold of 2):
#   N = 128: 0.72, 0.72 (16,384 entries)   0.41, 0.44 (fold 2:  4,224)
#   N = 256: 1.19, 1.20 (65,536)           0.75, 0.66 (fold 2: 16,640)
#   N = 512: 1.36, 1.48 (262,144)          1.29, 1.38 (fold 2: 66,048)
# A V-state evolve folds by rotation only, 128 x 256 = 32,768 entries at
# N = 256, and so now runs serial there; it threads from N = 512
# (131,072).  The full-grid evolve of discs and boundary CSVs threads from
# N = 256 as before.
THREADED_CROSS_MIN_ENTRIES = 256 * 256
# the interpolant sums modes k = lo + RULER_BLOCK * hi in two levels
RULER_BLOCK = 16


class NumericFailure(RuntimeError):
    """A computation that cannot reach its stated accuracy; the CLI exits 1.

    The base of every numeric refusal in the library.  A spectral collision
    (``contour.CollisionDetectedError``) is a refusal of the parameters, not
    of the numerics, and is not one.
    """


class TouchingBoundaryError(NumericFailure):
    """Curves too close for the uniform-grid quadrature but not coincident."""


class QuadratureFailure(NumericFailure):
    """Non-finite integrand or unusable geometry in a boundary integral."""


def grid(n: int) -> FloatArray:
    """The uniform parameter grid t_j = 2 pi j / n, j = 0 .. n-1."""
    return TWO_PI * np.arange(n) / n


@functools.cache
def _mode_numbers(n: int) -> tuple[NDArray[np.int64], ComplexArray]:
    """(k, 1j * k): the DFT mode numbers of an n-point grid, cached read-only."""
    k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
    ik = 1j * k
    for table in (k, ik):
        table.setflags(write=False)
    return k, ik


def _dft(values: np.ndarray) -> tuple[NDArray[np.int64], ComplexArray]:
    """Mode numbers k and the DFT over the last axis.  The unpaired Nyquist mode
    of an even n keeps its number -n/2 and gets coefficient 0."""
    n = values.shape[-1]
    coeffs = np.fft.fft(values, axis=-1)
    if n % 2 == 0:
        coeffs[..., n // 2] = 0.0
    return _mode_numbers(n)[0], coeffs


def fourier(values) -> tuple[NDArray[np.int64], ComplexArray]:
    """(k, c): the trigonometric interpolant sum_k c_k e^{ikt} of values on ``grid``,
    the one curve that the quadrature and every boundary reading use."""
    k, coeffs = _dft(np.asarray(values))
    return k, coeffs / k.size


def spectral_derivative(values: ComplexArray) -> ComplexArray:
    """d/dt of the trigonometric interpolant (``fourier``) at the grid nodes."""
    values = np.asarray(values)
    _, coeffs = _dft(values)
    coeffs *= _mode_numbers(values.shape[-1])[1]
    out = np.fft.ifft(coeffs, axis=-1)
    return out.real if np.isrealobj(values) else out


def trig_sum(k: NDArray[np.int64], rows: list[ComplexArray]):
    """Evaluator of the sums sum_k row[k] e^{isk}, one per coefficient row.

    The sums run in two levels: each mode k = lo + RULER_BLOCK * hi, so
    e^{isk} = e^{is lo} e^{is RULER_BLOCK hi} and two tables of RULER_BLOCK
    and about N / RULER_BLOCK exponentials per point replace one of N.
    The mode numbers must be distinct, as ``fourier`` returns them.
    """
    lo, hi = k % RULER_BLOCK, k // RULER_BLOCK
    hi_modes = RULER_BLOCK * np.arange(hi.min(), hi.max() + 1)
    blocks = np.zeros((RULER_BLOCK, hi_modes.size, len(rows)), dtype=np.complex128)
    blocks[lo, hi - hi.min()] = np.stack(rows, axis=1)
    blocks = blocks.reshape(RULER_BLOCK, -1)

    def evaluate(s: FloatArray) -> ComplexArray:
        lo_table = np.exp(1j * np.outer(s, np.arange(RULER_BLOCK)))
        inner = (lo_table @ blocks).reshape(s.size, -1, len(rows))
        return np.einsum("ph,phc->cp", np.exp(1j * np.outer(s, hi_modes)), inner)

    return evaluate


@functools.cache
def mode_tables(m: int, n_modes: int, n_nodes: int) -> tuple[np.ndarray, ...]:
    """(modes, cos, sin): the mode numbers m*j, j = 1..n_modes, and
    cos(m j t_i), sin(m j t_i) on ``grid(n_nodes)``, shape (n_modes, n_nodes).

    Cached and read-only, like the quadrature tables below.
    """
    modes = m * np.arange(1, n_modes + 1)
    phase = np.outer(modes, grid(n_nodes))
    tables = (modes, np.cos(phase), np.sin(phase))
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _grid_tables(n: int) -> tuple[FloatArray, FloatArray]:
    """(kress_row, log_s2_row) over the offset d = (j - i) mod n of an n-point grid.

    kress_row[d] are the weights for the kernel log(2|sin((t-e)/2)|),
    exact against trigonometric polynomials through mode n/2;
    log_s2_row[d] is log(4 sin^2(pi d/n)), patched to 0.0 at d = 0.  Both
    are computed for d <= n/2 and mirrored, so row[d] == row[n - d] holds
    bit for bit.
    """
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
        row.setflags(write=False)
    return w, log_s2


@functools.cache
def _log_ratio_row(n: int) -> FloatArray:
    """(2/h) kress_row - log_s2_row over the offset d, h = 2 pi/n: the split's
    weighted log ratio less log(rho^2), cached read-only beside ``_grid_tables``."""
    w_row, log_s2_row = _grid_tables(n)
    ratio = (2.0 / (TWO_PI / n)) * w_row - log_s2_row
    ratio.setflags(write=False)
    return ratio


def _gather_index(n: int, fold: int | None, even: bool = True) -> np.ndarray:
    """Flat indices that take a symmetric block's centred half band to its
    ``fold_rows(n, fold, even)`` x n grid layout.

    Entry [k, d] of the half band (``fold_rows(n, fold, even)`` x (n/2 + 1))
    pairs node k - floor(d/2) with node k + ceil(d/2), centred on
    k + (d mod 2)/2.  Each grid entry [i, j] is oriented along its offset
    d <= n/2 and its centre is reduced modulo the period P (n, or n/g given
    a fold g); given an even fold it is also reflected by t -> -t into
    [0, P/2].  The entry taken pairs (i, j) or (j, i), moved by the fold's
    symmetry if there is one.
    """
    rows = fold_rows(n, fold, even)
    i = np.arange(rows)[:, None]
    j = np.arange(n)[None, :]
    d = (j - i) % n
    cols = n // 2 + 1
    flip = d > n // 2
    d = np.where(flip, n - d, d)
    period = n if fold is None else n // fold
    # twice the centre of the oriented pair, modulo the period
    centre = (2 * np.where(flip, j, i) + d) % (2 * period)
    if fold is not None and even:
        centre = np.minimum(centre, 2 * period - centre)
    return _checked_index((centre // 2) * cols + d, rows * cols)


@functools.cache
def _take(table, *key):
    """np.take(block, table(*key), mode="clip") as a function of block (and
    out).  The index is built here and held here only, the one copy of it:
    it stays writeable, since numpy copies a read-only index before every
    take (512 KB and about a third of the gather's time at N = 256)."""
    return functools.partial(np.take, indices=table(*key), mode="clip")


def _checked_index(index: np.ndarray, size: int) -> np.ndarray:
    """index, once checked to lie in [0, size): the gathers (``_take``) use
    it with mode="clip", which neither checks nor buffers their ``out``."""
    if index.min() < 0 or index.max() >= size:
        raise IndexError(f"gather index outside a block of {size} entries")
    return index


def fold_rows(n: int, fold: int | None, even: bool = True) -> int:
    """Target rows of an n-point grid a fold builds: all n for None, else the
    rows 0 <= t <= pi/fold of an even fold, or the n/fold rows
    0 <= t < 2 pi/fold of a rotation-only one (``even`` False)."""
    if fold is None:
        return n
    if fold < 1 or n % fold:
        raise ValueError(f"fold {fold} does not divide the node count {n}")
    return n // (2 * fold) + 1 if even else n // fold


def _transposed_rows(w: FloatArray, fold: int | None, even: bool = True) -> FloatArray:
    """W^T on the ``fold_rows`` of a cross block W (all n: W.T), copied from
    the rows of W by slices.

    With period P = n/fold, node j = r + sP (0 <= r < P) is the rotated
    image of row r, whose entry for target i sits at column (i - sP) mod n;
    given an even fold, a node with 2r > P is instead the reflected image of
    row P - r, at column ((s + 1)P - i) mod n.  Node i moves by the same
    rotation and reflection, so the pair keeps its chord.
    """
    if fold is None:
        return w.T
    rows, n = w.shape
    period = n // fold
    out = np.empty((rows, n))
    reflected = w[period - rows : 0 : -1]  # rows P - r for r = rows .. P-1
    for s in range(fold):
        start, end, col = s * period, (s + 1) * period, -s * period % n
        out[:, start : start + rows] = w[:, col : col + rows].T
        if even:
            out[0, start + rows : end] = reflected[:, end % n]
            out[1:, start + rows : end] = reflected[:, end - 1 : end - rows : -1].T
    return out


def _apply_kernel_matrix(kern: FloatArray, t_src: np.ndarray) -> np.ndarray:
    """sum_j kern[i, j] T[j] for a real or complex density vector T.

    A complex T is read as its (N, 2) float view, so both parts take one
    (rows x N) @ (N x 2) product and the result is viewed back as complex.
    """
    if np.iscomplexobj(t_src):
        pairs = np.ascontiguousarray(t_src, dtype=np.complex128).view(np.float64)
        return (kern @ pairs.reshape(-1, 2)).view(np.complex128).reshape(-1)
    return kern @ t_src


def _squared_chords(x_tgt, y_tgt, x_src, y_src, work) -> FloatArray:
    """|z_t - z_s|^2 over the block, a new array, through the two rows of work."""
    dx, dy = work
    np.subtract(x_tgt, x_src, out=dx)
    np.square(dx, out=dx)
    np.subtract(y_tgt, y_src, out=dy)
    np.square(dy, out=dy)
    return np.add(dx, dy)


def _circulant_view(row: FloatArray, n_rows: int) -> FloatArray:
    """Read-only view c[i, j] = row[(j - i) mod n], n_rows <= n, over a doubled copy."""
    n = row.shape[0]
    doubled = np.concatenate((row, row))
    step = doubled.itemsize
    view = np.ndarray((n_rows, n), doubled.dtype, doubled, n * step, (-step, step))
    view.setflags(write=False)
    return view


@functools.cache
def _centred_nodes(n: int, n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices that ``_centred_views`` strides over, cached read-only: each
    node twice, the targets descending from n_rows - 1, the sources from 0."""
    p = np.arange(2 * (n_rows - 1) + n_cols)
    nodes = ((n_rows - 1 - p // 2) % n, ((p + 1) // 2) % n)
    for table in nodes:
        table.setflags(write=False)
    return nodes


def _centred_views(values: FloatArray, n_rows: int, n_cols: int) -> tuple[FloatArray, ...]:
    """Read-only views of the centred half band: the targets
    values[(k - floor(d/2)) mod n] and the sources values[(k + ceil(d/2)) mod n]
    at [k, d], strided over the ``_centred_nodes`` gathers of values."""
    step = values.itemsize
    top = 2 * (n_rows - 1)
    tgt, src = (values[nodes] for nodes in _centred_nodes(values.shape[0], n_rows, n_cols))
    views = (
        np.ndarray((n_rows, n_cols), tgt.dtype, tgt, top * step, (-2 * step, step)),
        np.ndarray((n_rows, n_cols), src.dtype, src, 0, (2 * step, step)),
    )
    for view in views:
        view.setflags(write=False)
    return views


class _Curve(NamedTuple):
    """One boundary's nodes, measured once for every guard that reads them."""

    z: ComplexArray
    dz: ComplexArray | None  # z' at the nodes; None: spectral, when a split needs it
    finite: bool  # every node and derivative value is finite
    scale: float  # mean |z|, the scale of the guards
    peak: float  # max |z|, the scale of the fold check


def _curve(z, dz=None) -> _Curve:
    """The nodes z (and derivative dz) with their measures, z itself if complex."""
    z = np.asarray(z, dtype=np.complex128)
    finite = bool(np.all(np.isfinite(z)) and (dz is None or np.all(np.isfinite(dz))))
    radii = np.abs(z)
    return _Curve(z, dz, finite, float(np.mean(radii)), float(np.max(radii)))


def _require_finite(*curves: _Curve) -> None:
    if not all(c.finite for c in curves):
        raise QuadratureFailure("non-finite boundary node or derivative")


def _kernel_matrix(alpha, kappa, mu, z_tgt, z_src, dz_src, **layout) -> FloatArray:
    """``_kernel_block`` of one block given by its nodes (dz_src None: spectral);
    the single-block callers measure the curves here as ``layer_integrals``
    does, one shared measure when z_tgt is z_src."""
    src = _curve(z_src, dz_src)
    tgt = src if z_tgt is z_src else _curve(z_tgt)
    return _kernel_block(alpha, kappa, mu, tgt, src, **layout)


def _kernel_block(
    alpha, kappa, mu, tgt: _Curve, src: _Curve, *, n_rows: int | None = None,
    fold: int | None = None, even: bool = True,
) -> FloatArray:
    """Weights W with (W @ T)[i] the integral at tgt.z[i]; regime and guards.

    Only the leading targets i = 0 .. n_rows-1 are built, so W is
    n_rows x N.  Without ``n_rows`` they are the rows
    ``fold_rows(N, fold, even)``: all N for no fold, else the rows
    0 <= t <= pi/fold of curves that are even and invariant under rotation
    by 2 pi/fold, or, with ``even`` False, the rows 0 <= t < 2 pi/fold of
    curves that are only invariant under the rotation.  The regime test still
    compares the full grids.  The guards read the curves' measures
    (``_curve``), taken once per ``layer_integrals`` call: separations are
    compared against the larger curve's mean radius,
    max(tgt.scale, src.scale), so a cross block sees the same guard whichever
    way round it is built.  The split takes z_src' on the diagonal from
    src.dz (None: spectral).

    A block whose target and source nodes are one array, with no ``n_rows``,
    is symmetric, and so is one whose nodes are equal: it evaluates only the
    centred half band, with a fold one pair of each orbit of the fold's
    symmetry (the centres 0 <= t <= pi/fold, or 0 <= t < 2 pi/fold for a
    rotation-only fold), and ``_gather_index`` takes it to the grid.  Every
    other block is built in its grid layout, where the split's log-ratio row
    (``_log_ratio_row``) enters as a circulant view.  Both regimes then run
    one sequence in a fixed handful of arrays, in place: chords, guards,
    q = mu^2 rho^2 / 4, the split's diagonal (and its off-diagonal touch
    guard) and log-ratio row, log, ``_fold``.  A separated block with
    mu * rho_max > 3 returns early through ``k0_array``.  Non-finite nodes
    or derivatives raise ``QuadratureFailure``, and so does a zero z_src' on
    the split's diagonal, whose log would be -inf.
    """
    z_tgt, z_src = tgt.z, src.z
    same = z_tgt is z_src
    n = z_src.shape[0]
    if z_tgt.shape[0] != n:
        raise ValueError("target and source grids must have equal node counts")
    _require_finite(tgt, src)
    rows = fold_rows(n, fold, even) if n_rows is None else n_rows
    h = TWO_PI / n
    scale = max(tgt.scale, src.scale)
    dmax = 0.0 if same else float(np.max(np.abs(z_tgt - z_src)))
    separated = dmax > NEAR_COINCIDENT_TOL * scale
    symmetric = n_rows is None and dmax == 0.0

    if symmetric:
        # The grid block is allocated before the work arrays, so freeing them
        # leaves no heap top above glibc's trim threshold: the centred half
        # band's would be given back and faulted in again on every build
        # (about 3,000 page faults per vstate op, a tenth of its time)
        expanded = np.empty((rows, n))
        cols = n // 2 + 1
        (x_tgt, x_src), (y_tgt, y_src) = (
            _centred_views(v, rows, cols) for v in (z_src.real, z_src.imag)
        )
    else:
        x_tgt, y_tgt = z_tgt.real[:rows, None], z_tgt.imag[:rows, None]
        x_src, y_src = z_src.real, z_src.imag
    # q and the Horner row are one allocation: its first free raises glibc's
    # trim threshold past both, which freed apart at the heap top could be
    # given back and faulted in again every build; the broadcasts run through it
    q, row = work = np.empty((2, rows, cols if symmetric else n))
    kern = _squared_chords(x_tgt, y_tgt, x_src, y_src, work)
    rho2_max = float(np.max(kern))
    qmax = 0.25 * mu * mu * rho2_max
    if separated:
        rho2_min = float(np.min(kern))
        if rho2_min < (SEPARATED_TOL * scale) ** 2:
            rho_min = float(np.sqrt(rho2_min))
            if rho_min < 1e-8 * scale:
                raise QuadratureFailure(
                    "boundaries touch: singular integrand off the diagonal"
                )
            raise TouchingBoundaryError(
                f"curve separation {rho_min:.3e} below {SEPARATED_TOL} * scale; "
                "uniform-grid quadrature would lose accuracy"
            )
        if qmax > 0.25 * K0_SERIES_CUT**2:
            # mu * rho_max > 3, where the folded series cancels
            np.log(kern, out=q)
            q *= 0.5 * h * alpha
            np.sqrt(kern, out=kern)
            kern *= mu
            k0_array(kern, out=kern)
            kern *= h * kappa
            kern += q
            return kern
    elif mu * mu * rho2_max > SPLIT_MAX_MU_CHORD**2:
        raise QuadratureFailure(
            f"mu * chord too large for the split evaluation (> {SPLIT_MAX_MU_CHORD})"
        )
    np.multiply(kern, 0.25 * mu * mu, out=q)
    if not separated:
        # self / near-coincident: Kussmaul-Martensen split.  The diagonal
        # pairs node i with itself: the touch guard skips it, and its log
        # ratio is log|z_src'(t_i)|^2
        diagonal = kern[:, 0] if symmetric else kern.reshape(-1)[:: n + 1]
        diagonal[...] = np.inf
        if float(np.min(kern)) == 0.0:
            raise QuadratureFailure("boundaries touch: singular integrand off the diagonal")
        dz_src = spectral_derivative(z_src) if src.dz is None else src.dz
        diagonal[...] = np.abs(dz_src[:rows]) ** 2
        if float(np.min(diagonal)) == 0.0:
            node = int(np.argmin(diagonal))
            raise QuadratureFailure(
                f"zero derivative z'(t) at source node {node}: the curve's "
                "parametrization stalls there"
            )
    np.log(kern, out=kern)
    if not separated:
        # log(rho^2) + 2 kress_row / h - log(4 sin^2): the weighted log ratio
        ratio = _log_ratio_row(n)
        np.copyto(row, ratio[:cols] if symmetric else _circulant_view(ratio, rows))
        kern += row
    kern = _fold(kern, q, row, qmax, alpha, kappa, mu, h)
    if symmetric:
        return _take(_gather_index, n, fold, even)(kern, out=expanded)
    return kern


def _fold(log_part, q, g, qmax, alpha, kappa, mu, h) -> FloatArray:
    """log_part * (h/2) (alpha - kappa I_0) + h kappa (S - log(mu) I_0), in log_part.

    Both factors are polynomials in q = mu^2 rho^2 / 4 over the series
    tables with alpha, kappa, h and log(mu) folded in (``_folded_table``),
    each summed by one Horner pass into g; S is the regular part K_0(w) + log(w) I_0(w).
    """
    table = series_coefficients(qmax)
    g_row, smooth_row = _folded_table(table.tobytes(), alpha, kappa, mu, h).tolist()
    horner(q, g_row, out=g)
    log_part *= g
    # the smooth part reuses g's array once log_part has read it
    log_part += horner(q, smooth_row, out=g)
    return log_part


@functools.lru_cache(maxsize=32)
def _folded_table(series: bytes, alpha, kappa, mu, h) -> FloatArray:
    """The (2, M) table of ``_fold`` for one series table (as bytes), read-only.

    A right-hand side folds the same few tables on every build: one per
    kernel pair and ladder level.  The cache is bounded, so a parameter
    sweep cannot grow it.
    """
    i0, regular = np.frombuffer(series, dtype=np.float64).reshape(2, -1)
    folded = np.stack((-0.5 * h * kappa * i0, h * kappa * (regular - np.log(mu) * i0)))
    folded[0, 0] += 0.5 * h * alpha
    folded.setflags(write=False)
    return folded


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
    return _apply_kernel_matrix(_kernel_matrix(alpha, kappa, mu, z_tgt, z_src, dz_src), t_src)


def layer_integrals(
    params: LayerParams, zs, dzs, fold: int | None = None, even: bool = True
) -> tuple[ComplexArray, ComplexArray]:
    """u_k(t_i) = sum_j int G_{k,j}(z_k(t_i) - z_j(e)) z_j'(e) de for k = 1, 2.

    Three builds and one reuse serve the four pairs: the cross kernels have
    alpha == kappa and depend on |x| only, so W_12 = (alpha_12 / alpha_21)
    W_21^T.  The self blocks (and W_21 of twin layers) evaluate the centred
    half band of ``_gather_index``, any other W_21 its grid rows in place.
    Without a fold every target is built and W_12 is the transpose of
    W_21.  Given a fold g the curves must be even and invariant under
    rotation by 2 pi/g (checked to 1e-12 of max|z|, else ``ValueError``),
    only the targets 0 <= t <= pi/g (``fold_rows``) are built, the self
    blocks evaluate one pair of each node-pair orbit of that symmetry, and
    the W_12 rows are copied by slices from the W_21 rows, whose entries
    cover every node pair up to it (``_transposed_rows``).  With ``even``
    False the curves need only the rotation: the targets are the N/g rows
    0 <= t < 2 pi/g, the self blocks keep the half band's centres in that
    range, and every entry again has an image among the rows built.

    Each curve is measured once (``_curve``), and a non-finite node or
    derivative is refused before the fold check.  Every block reads those
    measures and compares its guards against the larger curve's mean
    radius: a self block its own curve's, the cross block the larger
    layer's.

    With ``fold_rows(N, fold, even) * N >= THREADED_CROSS_MIN_ENTRIES`` cross
    entries and two CPUs in this process's affinity, W_21 and its two
    products run on a worker thread while this thread builds and applies
    W_11 and W_22; the pool and its module are made on first use.  The velocities are bitwise
    those of the serial order (cross part first, self part added), and so
    are the refusals: a cross-block refusal is raised before a self-block
    one, and the call returns or raises only once the worker is done.
    """
    c1, c2 = (_curve(z, dz) for z, dz in zip(zs, dzs))
    _require_finite(c1, c2)
    if fold is not None:
        _check_fold((c1, c2), fold, even)
    n, dz1, dz2 = len(c1.z), c1.dz, c2.dz
    mu = params.mu
    alpha12, _ = gkj_coefficients(params, 1, 2)
    alpha21, kappa21 = gkj_coefficients(params, 2, 1)
    self_pairs = (gkj_coefficients(params, 1, 1), gkj_coefficients(params, 2, 2))

    def cross_parts():
        w21 = _kernel_block(alpha21, kappa21, mu, c2, c1, fold=fold, even=even)
        u1 = (alpha12 / alpha21) * _apply_kernel_matrix(_transposed_rows(w21, fold, even), dz2)
        return u1, _apply_kernel_matrix(w21, dz1)

    def self_parts():
        # each block applied as soon as it is built, so one is alive at a time
        w11 = _kernel_block(*self_pairs[0], mu, c1, c1, fold=fold, even=even)
        s1 = _apply_kernel_matrix(w11, dz1)
        del w11
        w22 = _kernel_block(*self_pairs[1], mu, c2, c2, fold=fold, even=even)
        return s1, _apply_kernel_matrix(w22, dz2)

    n_cross = fold_rows(n, fold, even) * n
    if n_cross >= THREADED_CROSS_MIN_ENTRIES and _cpu_count() >= 2:
        cross = _cross_worker(os.getpid()).submit(cross_parts)
        try:
            s1, s2 = self_parts()
        finally:
            # waits for the worker; its refusal, raised here, takes precedence
            u1, u2 = cross.result()
    else:
        # the cross block first: the self blocks then reuse the space the
        # larger cross build leaves on the heap, not the heap top
        u1, u2 = cross_parts()
        s1, s2 = self_parts()
    u1 += s1
    u2 += s2
    return u1, u2


@functools.cache
def _cross_worker(pid: int):
    """The one-thread pool that builds the large cross blocks in process pid;
    a forked child gets its own, since the parent's thread is not in it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="qgpatch-cross")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _check_fold(curves: tuple[_Curve, ...], fold: int, even: bool = True) -> None:
    """Refuse curves (``_curve``) that are not invariant under rotation,
    z(t + 2 pi/fold) = e^{2 pi i/fold} z(t), or, for an even fold, not even,
    z(-t) = conj z(t), to 1e-12 of their largest max|z|: the folded builds
    would return wrong velocities for them.  A non-finite value is refused
    too, by name, since no defect or tolerance can be read from it."""
    for layer, c in enumerate(curves, 1):
        if not c.finite:
            kind, values = next((kind, a) for kind, a in (("node", c.z), ("derivative", c.dz))
                                if a is not None and not np.all(np.isfinite(a)))
            node = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"curve {layer} has the non-finite {kind} {values[node]} at "
                             f"node {node}; its {fold}-fold symmetry cannot be checked")
    defect = 0.0
    for z in (c.z for c in curves):
        n = z.shape[-1]
        fold_rows(n, fold)  # refuses a fold that does not divide n
        period = n // fold
        defects = [z[period:] - np.exp(TWO_PI * 1j / fold) * z[: n - period]]
        if even:
            defects.append(z[1:] - np.conj(z[:0:-1]))
        defect = max(defect, *(float(np.max(np.abs(a), initial=0.0)) for a in defects))
    if defect > 1e-12 * max(c.peak for c in curves):
        kind = "even and " if even else ""
        raise ValueError(f"curves are not {kind}{fold}-fold symmetric (defect {defect:.2e})")


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
    theta = grid(n_nodes)
    cosines = mode_tables(1, n_modes, n_nodes)[1]
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
    theta = grid(n_nodes)
    cosines = mode_tables(1, n_modes, n_nodes)[1]
    z = y * np.exp(1j * theta)
    if x < y:
        return cosines @ k0_array(lam * np.abs(x - z)) / n_nodes
    row = _kernel_matrix(0.0, 1.0, lam, z, z, 1j * z, n_rows=1)[0]
    return cosines @ row / TWO_PI
