r"""Spectral theory of the linearized boundary operator around two discs.

Linearizing the contour functional at the disc pair (b1, b2) turns it into
a Fourier multiplier: cosine mode n is mapped through the 2x2 matrix

    M_n(Omega) = [[Omega + A_n/(d+1),      gamma_n/(d+1)],
                  [d*gamma_n/(d+1),  Omega + B_n/(d+1)]],     d = delta,

with

    A_n = (d+1) V + d/(2n) + I_n(b1 mu) K_n(b1 mu)
    B_n = (d+1) W + 1/(2n) + d I_n(b2 mu) K_n(b2 mu)
    gamma_n = b^n/(2n) - I_n(b2 mu) K_n(b1 mu),          b = b2/b1,

and the mean-flow coefficients V, W built from I_1, K_1.  M_n is singular
exactly at the two angular velocities

    Omega_n^+- = ( -(A_n+B_n) +- sqrt((A_n-B_n)^2 + 4 d gamma_n^2) )
                 / (2 (d+1)),

which are the bifurcation points of the m-fold V-state branches.  This
module computes all of these quantities and the kernel direction of the
singular matrix, scans for spectral collisions Omega_m^- = Omega_n^+ as
b2 varies, and certifies the mode from which no collision can occur
(``first_collision_free_m``).

The array evaluator ``spectrum_over_b2`` returns A_n, B_n, gamma_n,
Omega_n^+- and V over arrays of n and of b2: every n <= n_max at every
radius of a b2 vector, from one I_n sweep and one K_n sweep over
[b1 mu, *b2 mu] (batched in ``bessel`` from BATCH_RADII radii on), with
the b1 row shared by all radii and the mean flow computed once per
radius.  ``spectrum_arrays`` is its one-radius case, and its ``omega`` and
``kernel_vector`` read single modes.  The spectrum table, the collision
scan's grid, the V-state pin and Newton blocks and the linearized
multiplier are built on these arrays.  Where only two modes of one radius
are read, ``omega_minus_plus`` gives Omega_m^- and Omega_n^+ from that
radius's sweeps on Python floats, bitwise the arrays' values: each
refinement step of the collision scan and each root of ``collide
--equal-radii`` uses it.  The per-n functions
``mean_flow_coeffs``, ``omega_pm`` and ``matrix_m`` take one mode from
scalar I_n K_n products (``bessel_ik_product``); they are the reference
the arrays are checked against.  Both routes go through the same formulas.
The table rows and collision records are dataclasses; the CLI writes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .bessel import bessel_ik_product, i1k1_product, log_bessel_i_orders, log_bessel_k_orders
from .kernels import LayerParams
from .quadrature import NumericFailure

FloatArray = NDArray[np.float64]

DEDUP_TOL = 1e-9  # collision_scan merges roots of one pair closer than this times b1
MAX_REFINE = 200  # cap on the evaluations of one root refinement
EQUAL_RADIUS_TOL = 1e-12  # |I_1 K_1 - 1/(2n)| at an equal-radius collision argument
# from this many radii the Bessel sweeps run over all of them at once, below
# it one by one on Python floats: a sweep over an array costs about as much
# as 12-16 float sweeps at n_max 16-48, almost whatever the array's length
BATCH_RADII = 16


@dataclass(frozen=True)
class MeanFlowCoeffs:
    v: float
    w: float


@dataclass(frozen=True)
class SpectrumRow:
    n: int
    a_n: float
    b_n: float
    gamma_n: float
    omega_minus: float
    omega_plus: float


@dataclass(frozen=True)
class CollisionRecord:
    m: int
    n: int
    b2_root: float
    residual: float
    tangency: bool = False


# Each formula below is written once; the per-n reference and the array
# evaluator both go through it, with n and the products scalar or arrays.


def _mean_flow(d, b, i1k1_b1, i1k1_b2, i1b2_k1b1) -> MeanFlowCoeffs:
    v = -(d + b * b) / (2.0 * (1.0 + d)) - (i1k1_b1 - b * i1b2_k1b1) / (1.0 + d)
    w = -0.5 - d * (i1k1_b2 - i1b2_k1b1 / b) / (1.0 + d)
    return MeanFlowCoeffs(v, w)


def _ab(d, mf: MeanFlowCoeffs, n, ik_b1, ik_b2):
    a_n = (d + 1.0) * mf.v + d / (2.0 * n) + ik_b1
    b_n = (d + 1.0) * mf.w + 1.0 / (2.0 * n) + d * ik_b2
    return a_n, b_n


def _gamma(b, n, ik_cross, b_to_n=None):
    # b_to_n: b ** n already taken, as the two-mode evaluator reads it
    return (b ** n if b_to_n is None else b_to_n) / (2.0 * n) - ik_cross


def _omega_pair(d, a_n, b_n, g):
    # an explicit square: numpy's x ** 2 is x * x, a Python float's calls pow
    a_minus_b = a_n - b_n
    disc = np.sqrt(a_minus_b * a_minus_b + 4.0 * d * g * g)
    lo = (-(a_n + b_n) - disc) / (2.0 * (d + 1.0))
    hi = (-(a_n + b_n) + disc) / (2.0 * (d + 1.0))
    return lo, hi


def _multiplier(d, a_n, b_n, g, omega) -> np.ndarray:
    """M_n(omega) with shape (..., 2, 2) over the shape of a_n, b_n, g."""
    a_n, b_n, g = np.broadcast_arrays(a_n, b_n, g)
    out = np.empty(a_n.shape + (2, 2))
    out[..., 0, 0] = omega + a_n / (d + 1.0)
    out[..., 0, 1] = g / (d + 1.0)
    out[..., 1, 0] = d * g / (d + 1.0)
    out[..., 1, 1] = omega + b_n / (d + 1.0)
    return out


def mean_flow_coeffs(params: LayerParams) -> MeanFlowCoeffs:
    """Angular mean-flow coefficients (V, W); both equal -1/2 at b1 = b2."""
    d, mu, b1, b2, b = params.delta, params.mu, params.b1, params.b2, params.b
    return _mean_flow(
        d,
        b,
        bessel_ik_product(1, b1 * mu, b1 * mu),
        bessel_ik_product(1, b2 * mu, b2 * mu),
        bessel_ik_product(1, b2 * mu, b1 * mu),
    )


def a_inf_minus_b_inf(params: LayerParams) -> float:
    """Branch-limit gap A_inf - B_inf = (delta + 1)(V - W).

    Zero exactly at b1 = b2 and strictly positive for b2 < b1 once
    delta >= (b2/b1)^2; this gap is what separates the two eigenvalue
    branches at large mode index.
    """
    mf = mean_flow_coeffs(params)
    return (params.delta + 1.0) * (mf.v - mf.w)


def _scalar_row(params: LayerParams, n: int) -> tuple[float, float, float]:
    # (A_n, B_n, gamma_n) of one mode from six scalar I K products
    if n < 1:
        raise ValueError("mode index must be >= 1")
    d, mu, b1, b2 = params.delta, params.mu, params.b1, params.b2
    mf = mean_flow_coeffs(params)
    ik_b1 = bessel_ik_product(n, b1 * mu, b1 * mu)
    a_n, b_n = _ab(d, mf, n, ik_b1, bessel_ik_product(n, b2 * mu, b2 * mu))
    return a_n, b_n, _gamma(params.b, n, bessel_ik_product(n, b2 * mu, b1 * mu))


def matrix_m(params: LayerParams, n: int, omega: float) -> np.ndarray:
    """The 2x2 multiplier block M_n(omega) acting on mode-n coefficients."""
    return _multiplier(params.delta, *_scalar_row(params, n), omega)


def omega_pm(params: LayerParams, n: int) -> tuple[float, float]:
    """Angular velocities (omega_minus, omega_plus) where M_n is singular."""
    return _omega_pair(params.delta, *_scalar_row(params, n))


def kernel_vector(params: LayerParams, m: int, sign: int) -> np.ndarray:
    """Generator of ker M_m(Omega_m^sign), read from ``spectrum_arrays(params, m)``."""
    return spectrum_arrays(params, m).kernel_vector(m, sign)


# ---------------------------------------------------------------------------
# Array evaluator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumArrays:
    """A_n, B_n, gamma_n and Omega_n^-+ for n = 1..n_max, mode n at index n-1,
    and the mean-flow coefficient V."""

    params: LayerParams
    a_n: FloatArray
    b_n: FloatArray
    gamma_n: FloatArray
    omega_minus: FloatArray
    omega_plus: FloatArray
    v: float

    def matrix_m(self, omega: float) -> np.ndarray:
        """Every block M_n(omega), shape (n_max, 2, 2)."""
        return _multiplier(self.params.delta, self.a_n, self.b_n, self.gamma_n, omega)

    def omega(self, m: int, sign: int) -> float:
        """Omega_m^sign, sign in {+1, -1}, for 1 <= m <= n_max."""
        if not 1 <= m <= self.a_n.size:
            raise ValueError(f"mode {m} outside 1..{self.a_n.size}")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return float((self.omega_plus if sign == 1 else self.omega_minus)[m - 1])

    def kernel_vector(self, m: int, sign: int) -> np.ndarray:
        """Generator of ker M_m(Omega_m^sign), sign in {+1, -1}.

        Components (Omega_m^sign + B_m/(d+1), -d*gamma_m/(d+1)), with the
        overall sign flipped if needed so the first component is positive.
        """
        omega = self.omega(m, sign)
        d = self.params.delta
        b_m, g = self.b_n[m - 1], self.gamma_n[m - 1]
        vec = np.array([omega + b_m / (d + 1.0), -d * g / (d + 1.0)])
        if vec[0] == 0.0 and vec[1] == 0.0:
            raise ArithmeticError(
                "kernel direction degenerate (gamma_m = 0 and Omega = -B_m/(d+1))"
            )
        if vec[0] < 0.0 or (vec[0] == 0.0 and vec[1] < 0.0):
            vec = -vec
        return vec


def _log_sweeps(n_max: int, x: FloatArray) -> tuple[FloatArray, FloatArray]:
    """(log I_n(x), log K_n(x)) for n = 0..n_max, each of shape (len(x), n_max+1).

    From BATCH_RADII radii on, one I sweep and one K sweep run over all of
    them at once; fewer sweep one by one on Python floats, which is faster
    for so few.  Both give the same bits.
    """
    if x.size >= BATCH_RADII:
        return log_bessel_i_orders(n_max, x), log_bessel_k_orders(n_max, x)
    values = x.tolist()
    return (np.array([log_bessel_i_orders(n_max, v) for v in values]),
            np.array([log_bessel_k_orders(n_max, v) for v in values]))


def _spectrum_rows(params_base: LayerParams, b2: FloatArray, log_b1, log_b2):
    """``spectrum_over_b2``'s six arrays from the sweeps: log_b1 is the pair
    (log I_n, log K_n) at b1 mu, each (n_max+1,), and log_b2 the same pair
    at every b2 mu, each (len(b2), n_max+1)."""
    d, b1 = params_base.delta, params_base.b1
    (log_i1, log_k1), (log_i2, log_k2) = log_b1, log_b2
    n_max = log_i1.size - 1
    ik_b1 = np.exp(log_i1 + log_k1)
    ik_b2 = np.exp(log_i2 + log_k2)
    ik_cross = np.exp(log_i2 + log_k1)
    b = (b2 / b1)[:, None]
    mf = _mean_flow(d, b, ik_b1[1], ik_b2[:, 1:2], ik_cross[:, 1:2])
    n = np.arange(1, n_max + 1)
    a_n, b_n = _ab(d, mf, n, ik_b1[1:], ik_b2[:, 1:])
    g = _gamma(b, n, ik_cross[:, 1:])
    lo, hi = _omega_pair(d, a_n, b_n, g)
    return a_n, b_n, g, lo, hi, mf.v[:, 0]


def _minus_plus(d: float, b1: float, b2: float, m: int, n: int, ik_b1: list[float],
                log_k1: FloatArray, log_i2: FloatArray, log_k2: FloatArray):
    """(Omega_m^-, Omega_n^+) at the one radius b2, bitwise ``_spectrum_rows``' row.

    The sweeps are those the row is built on, of top order max(m, n):
    log_k1 at b1 mu, (log_i2, log_k2) at b2 mu; ik_b1 lists I_k K_k(b1 mu)
    by order k, numpy's exp of the row's log sums.  The products at b2 mu
    are numpy's exp over the row's sums and b^k is the row's array power:
    libm's exp and pow, and numpy's power on a scalar, do not always round
    as these do.  The rest is +, -, *, / and sqrt on Python floats, through
    the row's formulas in the row's order.
    """
    top = log_i2.size - 1
    ik_b2 = np.exp(log_i2 + log_k2).tolist()
    ik_cross = np.exp(log_i2 + log_k1).tolist()
    powers = ((np.array([b2]) / b1)[:, None] ** np.arange(1, top + 1))[0].tolist()
    b = b2 / b1
    mf = _mean_flow(d, b, ik_b1[1], ik_b2[1], ik_cross[1])
    (minus, _), (_, plus) = (
        _omega_pair(d, *_ab(d, mf, k, ik_b1[k], ik_b2[k]),
                    _gamma(b, k, ik_cross[k], powers[k - 1]))
        for k in (m, n)
    )
    return minus, plus


def omega_minus_plus(params: LayerParams, m: int, n: int) -> tuple[float, float]:
    """(Omega_m^-, Omega_n^+), bitwise the rows of ``spectrum_arrays(params,
    max(m, n))`` without building them: an I_n and a K_n sweep at b1 mu
    and at b2 mu (one pair for both at b1 = b2), then the two modes."""
    if min(m, n) < 1:
        raise ValueError("mode indices must be >= 1")
    mu, b1, b2, top = params.mu, params.b1, params.b2, max(m, n)
    log_i1, log_k1 = log_bessel_i_orders(top, b1 * mu), log_bessel_k_orders(top, b1 * mu)
    log_i2, log_k2 = ((log_i1, log_k1) if b2 == b1 else
                      (log_bessel_i_orders(top, b2 * mu), log_bessel_k_orders(top, b2 * mu)))
    minus, plus = _minus_plus(params.delta, b1, b2, m, n, np.exp(log_i1 + log_k1).tolist(),
                              log_k1, log_i2, log_k2)
    return float(minus), float(plus)


def _over_b2(params_base: LayerParams, b2: ArrayLike, n_max: int):
    # (spectrum_over_b2's six arrays, the (log I_n, log K_n) sweeps at b1 mu)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mu, b1 = params_base.mu, params_base.b1
    b2 = np.asarray(b2, dtype=np.float64).reshape(-1)
    if b2.size == 0 or not np.all((b2 > 0.0) & (b2 <= b1)):
        raise ValueError("need at least one radius, each with 0 < b2 <= b1")
    log_i, log_k = _log_sweeps(n_max, np.concatenate(([b1 * mu], b2 * mu)))
    log_b1 = (log_i[0], log_k[0])
    return _spectrum_rows(params_base, b2, log_b1, (log_i[1:], log_k[1:])), log_b1


def spectrum_over_b2(
    params_base: LayerParams, b2: ArrayLike, n_max: int
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """(A_n, B_n, gamma_n, Omega_n^-, Omega_n^+, V) at every radius in b2.

    The first five arrays have shape (len(b2), n_max): row p is the disc
    pair (b1, b2[p]), mode n at column n-1; the mean-flow coefficient V
    has shape (len(b2),).  The b2 value carried by params_base is ignored.
    One I_n sweep and one K_n sweep run over [b1 mu, *b2 mu] (radius by
    radius below BATCH_RADII radii), the b1 row serves every pair, and the
    formulas then run once over the whole (len(b2), n_max) block.
    """
    return _over_b2(params_base, b2, n_max)[0]


def spectrum_arrays(params: LayerParams, n_max: int) -> SpectrumArrays:
    """All spectral coefficients for n = 1..n_max: the one-radius case of
    ``spectrum_over_b2``, from four Bessel sweeps."""
    rows = spectrum_over_b2(params, [params.b2], n_max)
    return SpectrumArrays(params, *(row[0] for row in rows))


def spectrum_table(params: LayerParams, n_max: int) -> list[SpectrumRow]:
    """Rows (n, A_n, B_n, gamma_n, Omega_n^-, Omega_n^+) for n = 1..n_max."""
    spec = spectrum_arrays(params, n_max)
    rows = zip(spec.a_n, spec.b_n, spec.gamma_n, spec.omega_minus, spec.omega_plus)
    return [SpectrumRow(n, *map(float, row)) for n, row in enumerate(rows, start=1)]


# ---------------------------------------------------------------------------
# Collision scanning
# ---------------------------------------------------------------------------


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float, tol: float,
              x_tol: float) -> tuple[float, float]:
    """Refine a sign change of f on [lo, hi] by Illinois false position.

    The bracketing secant of Dowell & Jarratt (1971): the secant point
    replaces the endpoint of its sign, and an endpoint kept twice in a row
    has its value halved, so both ends move and convergence is superlinear.
    Stops once |f| <= tol or the bracket is <= x_tol, after at most
    MAX_REFINE evaluations; returns the best (x, |f(x)|) seen, endpoints
    included.
    """
    best = (lo, abs(f_lo)) if abs(f_lo) <= abs(f_hi) else (hi, abs(f_hi))
    side = 0
    for _ in range(MAX_REFINE):
        if best[1] <= tol or hi - lo <= x_tol:
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if abs(fx) < best[1]:
            best = (x, abs(fx))
        if fx == 0.0:
            break
        if (fx < 0.0) == (f_hi < 0.0):
            hi, f_hi = x, fx
            if side == -1:
                f_lo *= 0.5
            side = -1
        else:
            lo, f_lo = x, fx
            if side == 1:
                f_hi *= 0.5
            side = 1
    return best


def collision_scan(
    params_base: LayerParams,
    m: int,
    n_max: int,
    grid: int = 64,
) -> list[CollisionRecord]:
    """Locate b2 in (0, b1) where Omega_m^-(b2) = Omega_n^+(b2), n <= n_max.

    The gap is evaluated on a uniform b2 grid by one ``spectrum_over_b2``
    pass over every grid radius and every mode up to max(m, n_max), and
    the brackets of every partner n come from one (grid-1) x n_max mask of
    grid cells whose left gap is exactly 0 (recorded as a root there) or
    whose gap changes sign.  Each sign change is refined by Illinois false
    position (``_illinois``) to |Omega_m^- - Omega_n^+| <= 1e-12 or a
    bracket <= 1e-16*b1; a root typically takes about 4 steps (at most
    MAX_REFINE).  A step makes an I_n and a K_n sweep at b2 mu to order
    max(m, n), reusing the b1 mu sweeps of the grid pass (an I_n sweep at
    b1 mu of a lower top order is made once per order), and evaluates only
    the two modes it compares, Omega_m^- and Omega_n^+, on Python floats
    (``_minus_plus``): no spectrum row is built.  Its I_k K_k products are
    numpy's exp over the log sums a row forms and its b^k the row's array
    power; the rest is +, -, *, / and sqrt, which round the same on
    floats as on arrays, in the row's order.  So the gap of a step is
    bitwise what ``_spectrum_rows``, the grid pass's evaluator, gives that
    radius from the same sweeps.  Roots of the same pair closer
    than DEDUP_TOL*b1 are merged and flagged as tangencies.  The b2 value
    carried by params_base is ignored; an empty list is a valid result.
    Records with n < m meet the plus branch of the lower mode n; they
    belong to the n-fold problem (a collision there when n divides m), not
    to the m-fold one.
    """
    if m < 1 or grid < 16:
        raise ValueError("need m >= 1 and grid >= 16")
    b1, mu = params_base.b1, params_base.mu
    n_top = max(m, n_max)
    ts = np.linspace(0.5 / grid, 1.0 - 0.5 / grid, grid) * b1
    rows, (log_i1, log_k1) = _over_b2(params_base, ts, n_top)
    minus, plus = rows[3:5]
    gaps = minus[:, m - 1 : m] - plus[:, :n_max]
    g0, g1 = gaps[:-1], gaps[1:]
    bracket = (g0 == 0.0) | (g0 * g1 < 0.0)
    bracket[:, m - 1 : m] = False  # no partner n = m
    d = params_base.delta
    # I_k K_k(b1 mu) by top order: the I_n sweep at b1 mu of a lower top order
    # is made anew, the K_n sweep is a prefix of the grid pass's
    ik_b1_of: dict[int, list[float]] = {}

    def gap(b2: float, n: int) -> float:
        top = max(m, n)
        log_k1_top = log_k1[: top + 1]
        if top not in ik_b1_of:
            log_i1_top = log_i1 if top == n_top else log_bessel_i_orders(top, b1 * mu)
            ik_b1_of[top] = np.exp(log_i1_top + log_k1_top).tolist()
        x = b2 * mu
        minus, plus = _minus_plus(d, b1, b2, m, n, ik_b1_of[top], log_k1_top,
                                  log_bessel_i_orders(top, x), log_bessel_k_orders(top, x))
        return float(minus - plus)

    ts_list = ts.tolist()
    roots: dict[int, list[tuple[float, float]]] = {}
    for cell in np.flatnonzero(bracket.T).tolist():  # partner-major, b2 ascending
        col, i = divmod(cell, grid - 1)
        f0, f1 = float(g0[i, col]), float(g1[i, col])
        n = col + 1
        if f0 == 0.0:
            root = (ts_list[i], 0.0)
        else:
            root = _illinois(lambda x: gap(x, n), ts_list[i], ts_list[i + 1], f0, f1,
                             1e-12, 1e-16 * b1)
        roots.setdefault(n, []).append(root)
    records: list[CollisionRecord] = []
    for n, found in roots.items():
        merged: list[CollisionRecord] = []
        for root, res in sorted(found):
            if merged and abs(root - merged[-1].b2_root) <= DEDUP_TOL * b1:
                prev = merged[-1]
                merged[-1] = CollisionRecord(
                    m, n, prev.b2_root, min(prev.residual, res), tangency=True
                )
            else:
                merged.append(CollisionRecord(m, n, root, res))
        records.extend(merged)
    records.sort(key=lambda r: (r.b2_root, r.n))
    return records


def first_collision_free_m(params: LayerParams, n_max: int) -> tuple[int | None, int | None]:
    """Thresholds (plus, minus) from which every m-fold bifurcation on that sign
    is simple: Omega_m^sign != Omega_km^-sign for all k >= 2.

    With Omega_n^+- increasing and Omega_n^- < -V (V the mean flow),
    Omega_m^+ > -V clears every Omega_km^- and Omega_2m^+ > -V puts every
    Omega_km^+ above Omega_m^-.  The thresholds are the first such m in the
    rows of ``spectrum_arrays(params, n_max)``, None if they are not
    reached; a row that breaks either fact raises NumericFailure.
    """
    spec = spectrum_arrays(params, n_max)
    limit = -spec.v
    holds = spec.omega_minus < limit
    holds[1:] &= (np.diff(spec.omega_plus) > 0.0) & (np.diff(spec.omega_minus) > 0.0)
    if not holds.all():
        n = int(np.argmin(holds)) + 1
        raise NumericFailure(
            f"row n = {n} breaks the collision-free certificate (Omega_n^+- increasing, "
            f"Omega_n^- < -V): Omega_n^- = {spec.omega(n, -1)!r}, "
            f"Omega_n^+ = {spec.omega(n, 1)!r}, -V = {float(limit)!r}"
        )
    plus = np.flatnonzero(spec.omega_plus > limit)  # m - 1
    minus = np.flatnonzero(spec.omega_plus[1::2] > limit)  # m - 1, partner 2m
    return tuple(int(i[0]) + 1 if i.size else None for i in (plus, minus))


def equal_radius_collision_argument(n: int) -> float:
    """Root x0 of I_1(x) K_1(x) = 1/(2n), n >= 2.

    At equal radii b1 = b2 = x0/mu the branches collide: Omega_1^+ equals
    Omega_n^-.  I_1 K_1 decreases from 1/2 to 0, so the root is unique; it
    is refined by the same Illinois false position as the collision scan,
    on ``bessel.i1k1_product``, to |I_1 K_1 - 1/(2n)| <= EQUAL_RADIUS_TOL.
    """
    if n < 2:
        raise ValueError("need n >= 2 (I_1 K_1 never exceeds 1/2)")
    target = 1.0 / (2.0 * n)

    def excess(x: float) -> float:
        return i1k1_product(x) - target

    lo, hi = 1e-8, 1.0
    while (f_hi := excess(hi)) > 0.0:
        hi *= 2.0
        if hi > 1e8:
            raise ArithmeticError("failed to bracket the collision argument")
    return _illinois(excess, lo, hi, excess(lo), f_hi, EQUAL_RADIUS_TOL, 0.0)[0]
