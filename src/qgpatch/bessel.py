r"""Modified Bessel functions I_n, K_n and stable I_n*K_n products.

Everything downstream (interaction kernels, spectral theory, singular
quadrature) reduces to modified Bessel functions of integer order on the
positive half line.  The evaluation strategy per function:

* Orders 0 and 1 come from ``scipy.special``: the sweeps below start
  from the exponentially scaled ``i0e``, ``i1e``, ``k0e``, ``k1e``,
  ``i1k1_product`` is ``i1e * k1e``, and ``i0_array``, ``k0_array``,
  ``k1_array`` are ``i0``, ``k0``, ``k1``.  This module is the only one
  that reads ``scipy.special``, and it imports it on the first sweep or
  array evaluator (``_special``), not at import: the import takes about
  0.3 s, and a contour evolution needs it only where a separated kernel
  block reaches mu·chord > 3.
* ``I_n`` (n >= 2): one downward Miller sweep gives every order <= N,
  normalized against ``I_0`` (the upward recurrence for I is violently
  unstable); ``log_bessel_i_orders`` returns the whole sweep.
* ``K_n`` (n >= 2): one upward sweep K_{n+1} = K_{n-1} + (2n/z) K_n, the
  stable direction for K, gives every order <= N
  (``log_bessel_k_orders``).  ``scipy.special`` is no substitute here:
  at n = 400, x = 0.5, ``ive`` underflows to 0 and ``kve`` overflows to
  inf, so their product is NaN.
* Both sweeps take 0 < x <= SWEEP_X_MAX (1e4): the Miller sweep starts
  near order x/2, so its length, not its accuracy, bounds x.
* Both sweeps take either one x, swept on Python floats, or a 1-D array
  of x, swept together: each recurrence step runs once over the whole
  array in numpy, as the recurrences are elementwise in x (Gautschi,
  SIAM Review 9, 1967).  One loop serves both.  Each x enters the Miller
  recurrence at its own start and keeps its own count of 1e280 rescales,
  so row p is bitwise the sweep at x[p] alone.
* The regular part of K_0: the ascending series

      S(z) = K_0(z) + log(z) I_0(z) = log(2) I_0(z)
                                     + sum_m Phi(m+1) (z/2)^{2m}/(m!)^2

  is even and entire.  S and I_0 are polynomials in q = z^2/4, kept as one
  stacked (2, M) coefficient table (``series_coefficients``) and summed
  row by row, each row one in-place Horner pass over its own contiguous
  array (``horner``, both rows ``horner_pair``); ``i0_and_regular_part``
  uses that one evaluator.  The tables are Chebyshev-economized: on
  [0, Q] the top Taylor terms are traded for shifted Chebyshev
  polynomials while the summed change stays below 2^-53 relative, which
  takes 16 terms down to 11 at Q = 2 and 34 to 22 at Q = 45.25.  Q runs
  over a sqrt(2) ladder, Q = 2^(k/2) up to 45.25 (z = 13.45), each level
  built on first use; a larger q takes the plain Taylor table.  The
  singular quadrature folds its kernel constants into these tables and so
  calls ``horner`` directly, the second row into the first row's array.

Products ``I_n(x) K_n(y)`` are assembled in log space, from the sweeps,
so that orders up to several hundred neither overflow nor underflow; the
spectral theory needs differences like b^n/(2n) - I_n K_n at relative
accuracy and therefore the product itself must keep relative accuracy
even when it is ~1e-300.

All functions are elementwise over numpy arrays and pure; there is no
shared mutable state.  Array sweeps cost about as much as a dozen float
sweeps whatever their length, so callers batch only many arguments.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]


@functools.cache
def _special():
    """``scipy.special``, imported on first use."""
    from scipy import special

    return special


# Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286

_LOG2 = 0.69314718055994531

# Harmonic numbers H_0..H_m, extended on demand.
_HARMONIC = [0.0]


def _harmonic(m: int) -> float:
    while len(_HARMONIC) <= m:
        k = len(_HARMONIC)
        _HARMONIC.append(_HARMONIC[-1] + 1.0 / k)
    return _HARMONIC[m]


def phi_harmonic(m: int) -> float:
    r"""Digamma at integer argument: Phi(m+1) = H_m - gamma, Phi(1) = -gamma."""
    if m < 0:
        raise ValueError("phi_harmonic requires m >= 0")
    return _harmonic(m) - EULER_GAMMA


# ---------------------------------------------------------------------------
# I_0 and the regular part of K_0
# ---------------------------------------------------------------------------

_SERIES_MAX_TERMS = 160
# economized tables serve q in [0, 2^(k/2)] for k = _LADDER_MIN.._LADDER_MAX,
# up to q = 45.25 (z = 13.45); larger q take the plain Taylor tables
_LADDER_MIN, _LADDER_MAX = -8, 11
# a top term is dropped while the summed drops stay below this, relative to
# min I_0 = 1 and min S = log(2) - gamma on [0, Q]
_ECONOMIZE_TOL = 2.0**-53


def _series_terms_needed(qmax: float) -> int:
    # smallest M with qmax^M / (M!)^2 below 1e-18 (relative term size)
    term = 1.0
    for m in range(1, _SERIES_MAX_TERMS):
        term *= qmax / (m * m)
        if term <= 1e-18:
            return m
    return _SERIES_MAX_TERMS


def _series_tables() -> FloatArray:
    # Taylor coefficients of q^m, m = 0.._SERIES_MAX_TERMS, stacked: 1/(m!)^2
    # (I_0) and (log 2 + Phi(m+1))/(m!)^2 (regular part of K_0)
    inv_fact2 = np.ones(_SERIES_MAX_TERMS + 1)
    for m in range(1, _SERIES_MAX_TERMS + 1):
        inv_fact2[m] = inv_fact2[m - 1] / (m * m)
    phi = np.array([phi_harmonic(m) for m in range(_SERIES_MAX_TERMS + 1)])
    return np.stack((inv_fact2, (_LOG2 + phi) * inv_fact2))


_TAYLOR = _series_tables()
_TAYLOR.flags.writeable = False
_SERIES_FLOOR = np.array([1.0, _LOG2 - EULER_GAMMA])  # I_0(0), S(0)


def _shifted_chebyshev(m: int) -> list[int]:
    """Integer coefficients of T_m(2x - 1), m >= 1, lowest power first."""
    prev, cur = [1], [-1, 2]
    for _ in range(m - 1):
        nxt = [0] * (len(cur) + 1)
        for j, c in enumerate(cur):
            nxt[j] -= 2 * c
            nxt[j + 1] += 4 * c
        for j, c in enumerate(prev):
            nxt[j] -= c
        prev, cur = cur, nxt
    return cur


@functools.cache
def _economize(q_top: float) -> FloatArray:
    """Taylor tables on [0, q_top] with top terms traded for Chebyshev ones.

    Dropping c_M q^M after subtracting c_M (q_top^M / 2^(2M-1)) T_M(2q/q_top - 1)
    moves the polynomial by at most that multiple of q_top^M on [0, q_top];
    terms go while the summed moves, plus the Taylor tail, stay below
    _ECONOMIZE_TOL relative to each function's minimum.
    """
    top = _series_terms_needed(q_top)
    c = _TAYLOR[:, : top + 2].copy()
    moved = np.abs(c[:, top + 1]) * q_top ** (top + 1) / _SERIES_FLOOR
    c = c[:, : top + 1]
    while top > 1:
        cheb = _shifted_chebyshev(top)
        step = c[:, top] * q_top**top / cheb[-1]
        if np.any(moved + np.abs(step) / _SERIES_FLOOR > _ECONOMIZE_TOL):
            break
        moved += np.abs(step) / _SERIES_FLOOR
        for j in range(top):
            c[:, j] -= step * (cheb[j] / q_top**j)
        top -= 1
        c = c[:, : top + 1]
    c.flags.writeable = False
    return c


def series_coefficients(qmax: float) -> FloatArray:
    """(2, M) monomial coefficients in q = z^2/4 of I_0 and S on [0, qmax].

    Row 0 is I_0(z), row 1 the regular part S(z) = K_0(z) + log(z) I_0(z).
    Up to q = 2^(_LADDER_MAX/2) the rows are Chebyshev-economized on the
    smallest ladder interval [0, 2^(k/2)] holding qmax, built on first use
    and cached per level; beyond it they are the Taylor tables cut where
    the terms fall below 1e-18.
    """
    if not qmax <= 2.0 ** (_LADDER_MAX / 2):
        return _TAYLOR[:, : _series_terms_needed(qmax) + 1]
    level = _LADDER_MIN
    while 2.0 ** (level / 2) < qmax:
        level += 1
    return _economize(2.0 ** (level / 2))


def horner_pair(q: FloatArray, coeffs: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Both rows of a (2, M) table, M >= 2, as polynomials in q: two arrays of q's shape.

    Each row is its own in-place Horner pass with Python-float coefficients,
    so every step is one contiguous array-scalar operation.
    """
    row0, row1 = coeffs.tolist()
    return horner(q, row0), horner(q, row1)


def horner(q: FloatArray, c: list[float], out: FloatArray | None = None) -> FloatArray:
    """sum_m c[m] q^m, len(c) >= 2, by one in-place Horner pass: into ``out``
    if given (it may not be q), else into a new array of q's shape."""
    acc = np.multiply(q, c[-1], out=out)
    for cm in c[-2:0:-1]:
        acc += cm
        acc *= q
    acc += c[0]
    return acc


def i0_and_regular_part(z: FloatArray) -> tuple[FloatArray, FloatArray]:
    r"""(I_0(z), K_0(z) + log(z) I_0(z)) elementwise, sharing one series pass.

    The second component is even and entire,
    log(2) I_0(z) + sum_m Phi(m+1) (z/2)^{2m}/(m!)^2; it is the piece of
    the screened kernel left over once the log singularity is split off,
    and the singular quadrature integrates it with the plain trapezoidal
    rule.
    """
    q = np.square(np.asarray(z, dtype=np.float64))
    q *= 0.25
    return horner_pair(q, series_coefficients(float(np.max(q)) if q.size else 0.0))


# ---------------------------------------------------------------------------
# Order sweeps of log I_n, log K_n
# ---------------------------------------------------------------------------


_LOG_RESCALE = 280.0 * np.log(10.0)  # log of the 1e280 rescale factor
# largest argument of either sweep: the Miller sweep runs about x/2 steps
# (about 1 ms on floats at the bound), and a larger x would only lengthen it
SWEEP_X_MAX = 1e4


def _sweep_arguments(name: str, n_max: int, x):
    """x in (0, SWEEP_X_MAX] as one Python float, or as a nonempty 1-D float64 array."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not isinstance(x, float) and np.ndim(x) > 0:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise ValueError(f"{name} requires a nonempty 1-D array of x")
        inside = (x > 0.0) & (x <= SWEEP_X_MAX)
        if not np.all(inside):
            raise ValueError(f"{name} requires 0 < x <= SWEEP_X_MAX = {SWEEP_X_MAX:g}, "
                             f"got {float(x[~inside][0])!r}")
        return x
    x = float(x)
    if not 0.0 < x <= SWEEP_X_MAX:
        raise ValueError(f"{name} requires 0 < x <= SWEEP_X_MAX = {SWEEP_X_MAX:g}, got {x!r}")
    return x


def _pick(big: bool, yes: float, no: float) -> float:
    return yes if big else no


def _sweep_ops(x):
    """(shape of one order, scalar, any, where) for a sweep: Python's on one
    float, numpy's on an array, so one argument never leaves Python floats."""
    if isinstance(x, float):
        return (), float, bool, _pick
    return x.shape, np.asarray, np.ndarray.any, np.where


def _miller_seeds(n_max: int, x) -> list:
    """[(k, seed)], highest k first: each x enters the Miller sweep at
    the first even k >= n_max + 20 + 2 sqrt(max(n_max, x)) + x/2, where its
    f_k is seeded with 1e-290."""
    if isinstance(x, float):
        start = n_max + int(20 + 2.0 * np.sqrt(max(n_max, x)) + 0.5 * x)
        return [(start + start % 2, 1e-290)]
    # whole numbers held as floats: a huge x gives a huge start, never a wrapped int
    start = n_max + np.floor(20 + 2.0 * np.sqrt(np.maximum(n_max, x)) + 0.5 * x)
    start += start % 2
    return [(int(k), np.where(start == k, 1e-290, 0.0)) for k in np.unique(start)[::-1]]


def _miller_log_ratios(n_max: int, x) -> FloatArray:
    """log(I_n(x) / I_0(x)) for n = 0..n_max by one downward Miller sweep.

    Row n holds order n over the shape of x.  Above its own start the f
    of an x is 0, which the recurrence keeps exactly 0, so each x runs the
    operations of a sweep of its own.  Each f_k is recorded with the
    number of 1e280 rescales made on its x before it, so
    log f_n - log f_0 is taken in the units both were stored in and the low
    orders keep full accuracy however high the sweep starts.
    """
    _, _, any_, where_ = _sweep_ops(x)
    seeds = _miller_seeds(n_max, x)
    f = [0.0] * (n_max + 1)
    rescales = [0.0] * (n_max + 1)
    fk1 = fk = 0.0  # f_{k+1}, f_k
    count = seeds[0][1] * 0  # rescales so far, per x
    two_over_x = 2.0 / x
    kept = n_max + 1  # f_{k-1} is kept from k = n_max + 1 down
    for (top, seed), stop in zip(seeds, [k for k, _ in seeds[1:]] + [0]):
        fk = fk + seed
        for k in range(top, stop, -1):
            fk1, fk = fk, fk1 + (two_over_x * k) * fk
            if k <= kept:
                f[k - 1] = fk
                rescales[k - 1] = count
            big = fk > 1e280
            if big is not False and any_(big):  # a Python False skips the call
                scale = where_(big, 1e-280, 1.0)
                fk, fk1, count = fk * scale, fk1 * scale, count + big
    log_f = np.log(f)
    shift = np.array(rescales)
    return log_f - log_f[0] - (shift[0] - shift) * _LOG_RESCALE


def _by_argument(out: FloatArray) -> FloatArray:
    # (orders, arguments) -> (arguments, orders), contiguous; one x is already 1-D
    return out if out.ndim == 1 else np.ascontiguousarray(out.T)


def log_bessel_i_orders(n_max: int, x) -> FloatArray:
    """log I_n(x) for every order n = 0..n_max from one Miller sweep, x > 0.

    One float x gives shape (n_max+1,); a 1-D array of P arguments gives
    (P, n_max+1) from one sweep over all of them, row p bitwise equal to
    the sweep at x[p] alone.
    """
    x = _sweep_arguments("log_bessel_i_orders", n_max, x)
    special = _special()
    out = np.empty((n_max + 1, *_sweep_ops(x)[0]))
    out[0] = x + np.log(special.i0e(x))
    if n_max >= 1:
        out[1] = x + np.log(special.i1e(x))
    if n_max >= 2:
        out[2:] = out[0] + _miller_log_ratios(n_max, x)[2:]
    return _by_argument(out)


def log_bessel_k_orders(n_max: int, x) -> FloatArray:
    """log K_n(x) for every order n = 0..n_max from one upward sweep, x > 0.

    Shapes as for ``log_bessel_i_orders``; each x keeps its own count of
    1e280 rescales, so row p is bitwise the sweep at x[p] alone.
    """
    x = _sweep_arguments("log_bessel_k_orders", n_max, x)
    shape, scalar, any_, where_ = _sweep_ops(x)
    special = _special()
    lk0 = scalar(np.log(special.k0e(x)) - x)
    lk1 = scalar(np.log(special.k1e(x)) - x)
    out = np.empty((n_max + 1, *shape))
    out[0] = lk0
    if n_max >= 1:
        out[1] = lk1
    # upward recurrence on K scaled by exp(-shift)
    shift = lk1
    km1 = scalar(np.exp(lk0 - shift))  # K_{k-1} * e^{-shift}
    kk = 1.0  # K_k * e^{-shift}
    scaled, shifts = [], []
    for k in range(1, n_max):
        km1, kk = kk, km1 + (2.0 * k / x) * kk
        big = kk > 1e280
        if big is not False and any_(big):  # a Python False skips the call
            scale = where_(big, 1e-280, 1.0)
            km1, kk = km1 * scale, kk * scale
            shift = shift + where_(big, _LOG_RESCALE, 0.0)
        scaled.append(kk)
        shifts.append(shift)
    if n_max >= 2:
        out[2:] = np.log(scaled) + np.array(shifts)
    return _by_argument(out)


def bessel_ik_product(n: int, x: float, y: float) -> float:
    r"""I_n(x) K_n(y) for 0 < x <= y, stable for orders up to several hundred.

    Computed as exp(log I_n(x) + log K_n(y)) from the top entries of two
    sweeps of top order n; the two logs are O(n log n)
    with opposite signs, so the product keeps relative accuracy where the
    naive evaluation would underflow to zero.
    """
    if x <= 0.0 or x > y:
        raise ValueError("bessel_ik_product requires 0 < x <= y")
    n = abs(n)
    lv = log_bessel_i_orders(n, x)[n] + log_bessel_k_orders(n, y)[n]
    return float(np.exp(lv))


def i1k1_product(x: float) -> float:
    """I_1(x) K_1(x) for x > 0, as the product of the scaled ``i1e`` and ``k1e``."""
    special = _special()
    return float(special.i1e(x) * special.k1e(x))


# Vectorized kernels for the quadrature engine -------------------------------


def k0_array(z: FloatArray, out: FloatArray | None = None) -> FloatArray:
    """Elementwise K_0 over an array with z > 0, into ``out`` if given (it may be z)."""
    return _special().k0(np.asarray(z, dtype=np.float64), out=out)


def k1_array(z: FloatArray) -> FloatArray:
    """Elementwise K_1 over an array with z > 0."""
    return _special().k1(np.asarray(z, dtype=np.float64))


def i0_array(z: FloatArray) -> FloatArray:
    """Elementwise I_0 over an array with z >= 0."""
    return _special().i0(np.asarray(z, dtype=np.float64))
