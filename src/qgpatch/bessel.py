r"""Modified Bessel functions I_n, K_n and stable I_n*K_n products.

Everything downstream (interaction kernels, spectral theory, singular
quadrature) reduces to modified Bessel functions of integer order on the
positive half line.  The evaluation strategy per function:

* Orders 0 and 1 come from ``scipy.special`` (``i0``, ``i1``, ``k0``,
  ``k1`` and, for the logs, the exponentially scaled ``i0e``, ``i1e``,
  ``k0e``, ``k1e``).
* ``I_n`` (n >= 2): one downward Miller sweep gives every order <= N,
  normalized against ``I_0`` (the upward recurrence for I is violently
  unstable); ``log_bessel_i_orders`` returns the whole sweep.
* ``K_n`` (n >= 2): one upward sweep K_{n+1} = K_{n-1} + (2n/z) K_n, the
  stable direction for K, gives every order <= N
  (``log_bessel_k_orders``).  ``scipy.special`` is no substitute here:
  at n = 400, x = 0.5, ``ive`` underflows to 0 and ``kve`` overflows to
  inf, so their product is NaN.
* The regular part of K_0: the ascending series

      K_0(z) + log(z) I_0(z) = log(2) I_0(z)
                               + sum_m Phi(m+1) (z/2)^{2m}/(m!)^2

  is even and entire; one pass gives it together with I_0
  (``i0_and_regular_part``).  Both series in q = z^2/4 are summed by
  Horner's rule, in place, over coefficient tables built at import; the
  number of terms is set by the largest q.  The singular quadrature and
  the kernel Q need the regular part to split off the log singularity.
  ``k0_array`` evaluates K_0 from the series for z <= 3, which holds every
  K_0 argument of the benchmark workloads (0.35 to 2.64 over their 16
  parameter points), and takes ``scipy.special.k0`` above.  Sending those
  arguments to ``scipy.special.k0`` as well makes the ``evolve`` op take
  about 1.7 times as long (2.51 s against 1.50 s, median of six ops at
  seed 0 on 2 vCPUs).

The scalar ``log_bessel_i(n, x)`` and ``log_bessel_k(n, x)`` are the last
entry of a sweep of top order n.

Products ``I_n(x) K_n(y)`` are assembled in log space so that orders up to
several hundred neither overflow nor underflow; the spectral theory needs
differences like b^n/(2n) - I_n K_n at relative accuracy and therefore the
product itself must keep relative accuracy even when it is ~1e-300.

All functions are elementwise over numpy arrays and pure; there is no
shared mutable state.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy import special

FloatArray = NDArray[np.float64]

# Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286

_LOG2 = 0.69314718055994531
_MAX_EXP = 709.0  # exp() overflows just above this

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

# K_0 from the regular-part series up to here, scipy.special.k0 beyond
_K_SERIES_CUT = 3.0
_SERIES_MAX_TERMS = 160


def _series_terms_needed(qmax: float) -> int:
    # smallest M with qmax^M / (M!)^2 below 1e-18 (relative term size)
    term = 1.0
    for m in range(1, _SERIES_MAX_TERMS):
        term *= qmax / (m * m)
        if term <= 1e-18:
            return m
    return _SERIES_MAX_TERMS


def _series_tables() -> tuple[FloatArray, FloatArray, FloatArray]:
    # coefficients of q^m, m = 0.._SERIES_MAX_TERMS: 1/(m!)^2 (I_0),
    # Phi(m+1)/(m!)^2 and (log 2 + Phi(m+1))/(m!)^2 (regular part of K_0)
    inv_fact2 = np.ones(_SERIES_MAX_TERMS + 1)
    for m in range(1, _SERIES_MAX_TERMS + 1):
        inv_fact2[m] = inv_fact2[m - 1] / (m * m)
    phi = np.array([phi_harmonic(m) for m in range(_SERIES_MAX_TERMS + 1)])
    return inv_fact2, phi * inv_fact2, (_LOG2 + phi) * inv_fact2


_I0_COEFFS, _PHI_COEFFS, _REGULAR_COEFFS = _series_tables()


def _i0_and_phi_sum(
    z: FloatArray, coeffs: FloatArray = _PHI_COEFFS
) -> tuple[FloatArray, FloatArray]:
    # I_0 = sum q^m/(m!)^2 and sum coeffs[m] q^m, q = z^2/4, both by Horner's
    # rule in place; with _PHI_COEFFS the second sum plus log(2) I_0 is the
    # regular part K_0 + log(z) I_0, with _REGULAR_COEFFS it is that part
    q = np.square(z)
    q *= 0.25
    top = _series_terms_needed(float(np.max(q)) if q.size else 0.0)
    i0 = np.full_like(z, _I0_COEFFS[top])
    acc = np.full_like(z, coeffs[top])
    for m in range(top - 1, -1, -1):
        i0 *= q
        i0 += _I0_COEFFS[m]
        acc *= q
        acc += coeffs[m]
    return i0, acc


def i0_and_regular_part(z: FloatArray) -> tuple[FloatArray, FloatArray]:
    r"""(I_0(z), K_0(z) + log(z) I_0(z)) elementwise, sharing one series pass.

    The second component is even and entire,
    log(2) I_0(z) + sum_m Phi(m+1) (z/2)^{2m}/(m!)^2; it is the piece of
    the screened kernel left over once the log singularity is split off,
    and the singular quadrature integrates it with the plain trapezoidal
    rule.
    """
    return _i0_and_phi_sum(np.asarray(z, dtype=np.float64), _REGULAR_COEFFS)


# ---------------------------------------------------------------------------
# I_n, K_n and log-scaled variants
# ---------------------------------------------------------------------------


_LOG_RESCALE = 280.0 * np.log(10.0)  # log of the 1e280 rescale factor


def _miller_log_ratios(n_max: int, x: float) -> FloatArray:
    """log(I_n(x) / I_0(x)) for n = 0..n_max by one downward Miller sweep.

    Each f_k is recorded with the number of 1e280 rescales made before it,
    so log f_n - log f_0 is taken in the units both were stored in and the
    low orders keep full accuracy however high the sweep starts.
    """
    start = n_max + int(20 + 2.0 * np.sqrt(max(n_max, x)) + 0.5 * x)
    if start % 2:
        start += 1
    f = [0.0] * (n_max + 1)
    rescales = [0] * (n_max + 1)
    fk1 = 0.0  # f_{k+1}
    fk = 1e-290  # f_k
    count = 0
    two_over_x = 2.0 / x
    for k in range(start, 0, -1):
        fk1, fk = fk, fk1 + (two_over_x * k) * fk
        if k <= n_max + 1:
            f[k - 1] = fk
            rescales[k - 1] = count
        if fk > 1e280:
            fk *= 1e-280
            fk1 *= 1e-280
            count += 1
    log_f = np.log(f)
    shift = np.array(rescales)
    return log_f - log_f[0] - (shift[0] - shift) * _LOG_RESCALE


def log_bessel_i_orders(n_max: int, x: float) -> FloatArray:
    """log I_n(x) for every order n = 0..n_max from one Miller sweep, x > 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if x <= 0.0:
        raise ValueError("log_bessel_i requires x > 0")
    out = np.empty(n_max + 1)
    out[0] = x + np.log(special.i0e(x))
    if n_max >= 1:
        out[1] = x + np.log(special.i1e(x))
    if n_max >= 2:
        out[2:] = out[0] + _miller_log_ratios(n_max, x)[2:]
    return out


def log_bessel_k_orders(n_max: int, x: float) -> FloatArray:
    """log K_n(x) for every order n = 0..n_max from one upward sweep, x > 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if x <= 0.0:
        raise ValueError("log_bessel_k requires x > 0")
    lk0 = float(np.log(special.k0e(x)) - x)
    lk1 = float(np.log(special.k1e(x)) - x)
    out = np.empty(n_max + 1)
    out[0] = lk0
    if n_max >= 1:
        out[1] = lk1
    # upward recurrence on K scaled by exp(-shift)
    shift = lk1
    km1 = float(np.exp(lk0 - shift))  # K_{k-1} * e^{-shift}
    kk = 1.0  # K_k * e^{-shift}
    scaled, shifts = [], []
    for k in range(1, n_max):
        km1, kk = kk, km1 + (2.0 * k / x) * kk
        if kk > 1e280:
            km1 *= 1e-280
            kk *= 1e-280
            shift += _LOG_RESCALE
        scaled.append(kk)
        shifts.append(shift)
    out[2:] = np.log(scaled) + np.array(shifts)
    return out


def log_bessel_i(n: int, x: float) -> float:
    """log I_n(x) for n >= 0, x > 0; safe far outside float range."""
    n = abs(n)
    return float(log_bessel_i_orders(n, x)[n])


def log_bessel_k(n: int, x: float) -> float:
    """log K_n(x) for n >= 0, x > 0; safe far outside float range."""
    n = abs(n)
    return float(log_bessel_k_orders(n, x)[n])


def bessel_i(n: int, x: float) -> float:
    r"""Modified Bessel function I_n(x), n >= 0 (I_{-n} = I_n), x >= 0.

    Raises OverflowError once e^x leaves double range instead of silently
    returning inf.
    """
    if n < 0:
        n = -n
    x = float(x)
    if x < 0.0:
        raise ValueError("bessel_i requires x >= 0")
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x > _MAX_EXP:
        raise OverflowError(f"I_n({x}) exceeds double precision range")
    if n == 0:
        return float(special.i0(x))
    if n == 1:
        return float(special.i1(x))
    lv = log_bessel_i(n, x)
    if lv < -745.0:
        return 0.0
    return float(np.exp(lv))


def bessel_k(n: int, x: float) -> float:
    r"""Modified Bessel function K_n(x), n >= 0 (K_{-n} = K_n), x > 0.

    Returns inf when the true value overflows double precision (small x
    with large n); use log_bessel_k in that regime.
    """
    if n < 0:
        n = -n
    x = float(x)
    if x <= 0.0:
        raise ValueError("bessel_k requires x > 0")
    if n == 0:
        return float(special.k0(x))
    if n == 1:
        return float(special.k1(x))
    lv = log_bessel_k(n, x)
    if lv > _MAX_EXP:
        return np.inf
    return float(np.exp(lv))


def bessel_ik_product(n: int, x: float, y: float) -> float:
    r"""I_n(x) K_n(y) for 0 < x <= y, stable for orders up to several hundred.

    Computed as exp(log I_n(x) + log K_n(y)); the two logs are O(n log n)
    with opposite signs, so the product keeps relative accuracy where the
    naive evaluation would underflow to zero.
    """
    if x <= 0.0 or x > y:
        raise ValueError("bessel_ik_product requires 0 < x <= y")
    if n < 0:
        n = -n
    lv = log_bessel_i(n, x) + log_bessel_k(n, y)
    return float(np.exp(lv))


# Vectorized kernels for the quadrature engine -------------------------------


def k0_array(z: FloatArray) -> FloatArray:
    """Elementwise K_0 over an array with z > 0."""
    z = np.asarray(z, dtype=np.float64)
    if z.size and float(np.max(z)) <= _K_SERIES_CUT:
        return _k0_series(z)
    small = z <= _K_SERIES_CUT
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _k0_series(z[small])
    if np.any(~small):
        out[~small] = special.k0(z[~small])
    return out


def _k0_series(z: FloatArray) -> FloatArray:
    # K_0 = sum Phi(m+1) q^m/(m!)^2 - log(z/2) I_0, the tail in place
    i0, out = _i0_and_phi_sum(z)
    log_half_z = np.multiply(z, 0.5, out=np.empty_like(z))
    np.log(log_half_z, out=log_half_z)
    log_half_z *= i0
    out -= log_half_z
    return out


def k1_array(z: FloatArray) -> FloatArray:
    """Elementwise K_1 over an array with z > 0."""
    return special.k1(np.asarray(z, dtype=np.float64))


def i0_array(z: FloatArray) -> FloatArray:
    """Elementwise I_0 over an array with z >= 0."""
    return special.i0(np.asarray(z, dtype=np.float64))
