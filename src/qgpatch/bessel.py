r"""Bessel functions J_n, I_n, K_n and stable I_n*K_n products.

Everything downstream (interaction kernels, spectral theory, singular
quadrature) reduces to modified Bessel functions of integer order on the
positive half line.  The evaluation strategy per function:

* ``I_0``, ``I_1``: ascending power series for small argument, the
  exponentially scaled large-argument expansion beyond.
* ``I_n`` (n >= 2): one downward Miller sweep gives every order <= N,
  normalized against ``I_0`` (the upward recurrence for I is violently
  unstable); ``log_bessel_i_orders`` returns the whole sweep.
* ``K_0``, ``K_1``: the log-type ascending series

      K_0(z) = -log(z/2) I_0(z) + sum_m (z/2)^{2m}/(m!)^2 Phi(m+1)

  for small argument (``K_1`` by differentiating it term by term), and an
  exponentially scaled quadrature of ``int_0^inf exp(-z cosh t) dt`` for
  large argument.
* ``K_n`` (n >= 2): one upward sweep K_{n+1} = K_{n-1} + (2n/z) K_n, the
  stable direction for K, gives every order <= N
  (``log_bessel_k_orders``).

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
# I_0, I_1
# ---------------------------------------------------------------------------

_I_SERIES_CUT = 20.0


def _i0_series(z: FloatArray) -> FloatArray:
    # sum (z/2)^{2m} / (m!)^2 ; all terms positive, no cancellation
    q = 0.25 * z * z
    n_terms = _i_series_terms(float(np.max(q)) if q.size else 0.0)
    term = np.ones_like(z)
    acc = np.ones_like(z)
    for m in range(1, n_terms + 1):
        term = term * (q / (m * m))
        acc += term
    return acc


def _i1_series(z: FloatArray) -> FloatArray:
    # (z/2) * sum (z/2)^{2m} / (m! (m+1)!)
    q = 0.25 * z * z
    n_terms = _i_series_terms(float(np.max(q)) if q.size else 0.0)
    term = np.ones_like(z)
    acc = np.ones_like(z)
    for m in range(1, n_terms + 1):
        term = term * (q / (m * (m + 1)))
        acc += term
    return 0.5 * z * acc


def _i_series_terms(qmax: float) -> int:
    # smallest M with qmax^M/(M!)^2 below 1e-18 relative to the sum
    term, acc = 1.0, 1.0
    for m in range(1, 120):
        term *= qmax / (m * m)
        acc += term
        if term <= 1e-18 * acc:
            return m
    return 120


def _i_asym_scaled(nu: int, z: FloatArray) -> FloatArray:
    # e^{-z} I_nu(z) ~ (2 pi z)^{-1/2} * sum_k (-)^k a_k(nu) / z^k, z >= 20
    mu = 4 * nu * nu
    acc = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, 24):
        term = term * -(mu - (2 * k - 1) ** 2) / (8.0 * k) / z
        acc += term
        if np.all(np.abs(term) <= 1e-18):
            break
    return acc / np.sqrt(2.0 * np.pi * z)


def _i0(z: FloatArray) -> FloatArray:
    z = np.asarray(z, dtype=np.float64)
    small = z <= _I_SERIES_CUT
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _i0_series(z[small])
    if np.any(~small):
        zl = z[~small]
        out[~small] = np.exp(np.minimum(zl, _MAX_EXP + 80)) * _i_asym_scaled(0, zl)
    return out


def _i1(z: FloatArray) -> FloatArray:
    z = np.asarray(z, dtype=np.float64)
    small = z <= _I_SERIES_CUT
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _i1_series(z[small])
    if np.any(~small):
        zl = z[~small]
        out[~small] = np.exp(np.minimum(zl, _MAX_EXP + 80)) * _i_asym_scaled(1, zl)
    return out


def _log_i0(x: float) -> float:
    if x <= _I_SERIES_CUT:
        return float(np.log(_i0_series(np.float64(x))))
    return x - 0.5 * np.log(2.0 * np.pi * x) + float(
        np.log(_i_asym_scaled(0, np.float64(x)) * np.sqrt(2.0 * np.pi * x))
    )


# ---------------------------------------------------------------------------
# K_0, K_1
# ---------------------------------------------------------------------------

_K_SERIES_CUT = 3.0


def _k0_series(z: FloatArray) -> FloatArray:
    # K_0 = -log(z/2) I_0(z) + sum_m Phi(m+1) (z/2)^{2m} / (m!)^2
    q = 0.25 * z * z
    n_terms = _series_terms_needed(float(np.max(q)) if q.size else 0.0)
    term = np.ones_like(z)
    i0 = np.ones_like(z)
    acc = np.full_like(z, -EULER_GAMMA)
    for m in range(1, n_terms + 1):
        term = term * (q / (m * m))
        i0 += term
        acc += term * (_harmonic(m) - EULER_GAMMA)
    return acc - np.log(0.5 * z) * i0


def _k1_series(z: FloatArray) -> FloatArray:
    # K_1 = -K_0' = I_0/z + log(z/2) I_1 - (2/z) sum_m m Phi(m+1) (z/2)^{2m}/(m!)^2
    q = 0.25 * z * z
    n_terms = _series_terms_needed(float(np.max(q)) if q.size else 0.0)
    term = np.ones_like(z)
    i0 = np.ones_like(z)
    i1 = np.ones_like(z)  # I_1(z) / (z/2)
    acc = np.zeros_like(z)
    for m in range(1, n_terms + 1):
        term = term * (q / (m * m))
        i0 += term
        i1 += term / (m + 1.0)  # q^m / (m! (m+1)!)
        acc += (m * (_harmonic(m) - EULER_GAMMA)) * term
    return i0 / z + np.log(0.5 * z) * (0.5 * z * i1) - 2.0 * acc / z


# Scaled quadrature for K_0, K_1 at z > 4:
#   e^z K_0(z) = 2 int_0^inf exp(-z v^2) / sqrt(v^2 + 2) dv
#   e^z K_1(z) = 2 int_0^inf exp(-z v^2) (1 + v^2) / sqrt(v^2 + 2) dv
# The integrand is even and analytic in a strip, so the trapezoidal rule
# converges geometrically; step ~ 1/sqrt(z) keeps the node count fixed.

_KQUAD_STEP = 0.28
_KQUAD_TAIL = 42.0


def _k01_quad_scaled(z: FloatArray) -> tuple[FloatArray, FloatArray]:
    z = np.asarray(z, dtype=np.float64)
    h = _KQUAD_STEP / np.sqrt(z)
    nmax = int(np.ceil(np.sqrt(_KQUAD_TAIL) / _KQUAD_STEP))
    j = np.arange(nmax + 1, dtype=np.float64)
    v = j * h[..., None]  # (..., nmax+1)
    w = np.exp(-z[..., None] * v * v)
    w[..., 0] *= 0.5
    root = np.sqrt(v * v + 2.0)
    k0e = 2.0 * h * np.sum(w / root, axis=-1)
    k1e = 2.0 * h * np.sum(w * (1.0 + v * v) / root, axis=-1)
    return k0e, k1e


def _k0(z: FloatArray) -> FloatArray:
    z = np.asarray(z, dtype=np.float64)
    small = z <= _K_SERIES_CUT
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _k0_series(z[small])
    if np.any(~small):
        zl = z[~small]
        k0e, _ = _k01_quad_scaled(zl)
        out[~small] = np.exp(-zl) * k0e
    return out


def _k1(z: FloatArray) -> FloatArray:
    z = np.asarray(z, dtype=np.float64)
    small = z <= _K_SERIES_CUT
    out = np.empty_like(z)
    if np.any(small):
        out[small] = _k1_series(z[small])
    if np.any(~small):
        zl = z[~small]
        _, k1e = _k01_quad_scaled(zl)
        out[~small] = np.exp(-zl) * k1e
    return out


def _log_k01(x: float) -> tuple[float, float]:
    """(log K_0(x), log K_1(x)) without under/overflow in the tails."""
    if x <= _K_SERIES_CUT:
        return float(np.log(_k0_series(np.float64(x)))), float(
            np.log(_k1_series(np.float64(x)))
        )
    k0e, k1e = _k01_quad_scaled(np.float64(x))
    return float(np.log(k0e) - x), float(np.log(k1e) - x)


def _series_terms_needed(qmax: float) -> int:
    # smallest M with qmax^M / (M!)^2 below 1e-18 (relative term size)
    term = 1.0
    for m in range(1, 160):
        term *= qmax / (m * m)
        if term <= 1e-18:
            return m
    return 160


def i0_and_regular_part(z: FloatArray) -> tuple[FloatArray, FloatArray]:
    r"""(I_0(z), K_0(z) + log(z) I_0(z)) elementwise, sharing one series pass.

    The second component is even and entire,
    log(2) I_0(z) + sum_m Phi(m+1) (z/2)^{2m}/(m!)^2; it is the piece of
    the screened kernel left over once the log singularity is split off,
    and the singular quadrature integrates it with the plain trapezoidal
    rule.
    """
    z = np.asarray(z, dtype=np.float64)
    q = 0.25 * z * z
    n_terms = _series_terms_needed(float(np.max(q)) if q.size else 0.0)
    term = np.ones_like(z)
    acc = np.full_like(z, -EULER_GAMMA)
    i0 = np.ones_like(z)
    for m in range(1, n_terms + 1):
        term = term * q / (m * m)
        i0 += term
        acc += term * (_harmonic(m) - EULER_GAMMA)
    return i0, _LOG2 * i0 + acc


def k0_regular_part(z: FloatArray) -> FloatArray:
    """Even entire part of K_0: K_0(z) + log(z) I_0(z), continuous at 0."""
    return i0_and_regular_part(z)[1]


# ---------------------------------------------------------------------------
# J_n
# ---------------------------------------------------------------------------


def bessel_j(n: int, x: float) -> float:
    r"""Bessel function of the first kind J_n(x), integer order n >= 0."""
    if n < 0:
        raise ValueError("order must be >= 0")
    x = float(x)
    if x < 0.0:
        return (-1.0) ** n * bessel_j(n, -x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    if x <= 14.0 + 0.5 * n:
        # ascending series; alternating but the cancellation stays mild here
        q = -0.25 * x * x
        term = (0.5 * x) ** n / _factorial(n)
        acc = term
        for m in range(1, 120):
            term = term * q / (m * (n + m))
            acc += term
            if abs(term) <= 1e-17 * (abs(acc) + 1e-300):
                break
        return acc
    if not (n <= 3 and x >= 20.0) and x <= 1e4:
        return _miller_j(n, x)
    # Hankel large-argument expansion (small order, large argument)
    mu = 4 * n * n
    p_acc, q_acc = 1.0, (mu - 1.0) / (8.0 * x)
    term = 1.0
    best = np.inf
    p_terms = [1.0]
    q_terms = [q_acc]
    term_p = 1.0
    term_q = q_acc
    for k in range(1, 20):
        term_p = term_p * -(mu - (4 * k - 3) ** 2) * (mu - (4 * k - 1) ** 2) / (
            (2 * k - 1) * (2 * k) * 64.0 * x * x
        )
        p_terms.append(term_p)
        term_q = term_q * -(mu - (4 * k - 1) ** 2) * (mu - (4 * k + 1) ** 2) / (
            (2 * k) * (2 * k + 1) * 64.0 * x * x
        )
        q_terms.append(term_q)
        if abs(term_p) > abs(p_terms[-2]):
            p_terms.pop()
            q_terms.pop()
            break
    p_acc = sum(p_terms)
    q_acc = sum(q_terms)
    chi = x - (0.5 * n + 0.25) * np.pi
    return float(np.sqrt(2.0 / (np.pi * x)) * (p_acc * np.cos(chi) - q_acc * np.sin(chi)))


def _factorial(n: int) -> float:
    out = 1.0
    for k in range(2, n + 1):
        out *= k
    return out


def _miller_j(n: int, x: float) -> float:
    # downward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, normalized with
    # J_0 + 2 sum_k J_{2k} = 1; must start beyond the turning point k ~ x
    top = max(n, x, 1.0)
    start = int(top + 30 + (45.0 * np.sqrt(top)) ** (2.0 / 3.0))
    if start % 2:
        start += 1
    fk1, fk = 0.0, 1e-290
    norm = 0.0
    fn = None
    for k in range(start, 0, -1):
        fk1, fk = fk, (2.0 * k / x) * fk - fk1
        if (k - 1) % 2 == 0:
            norm += fk if k - 1 == 0 else 2.0 * fk
        if k - 1 == n:
            fn = fk
        if abs(fk) > 1e280:
            fk *= 1e-280
            fk1 *= 1e-280
            norm *= 1e-280
            if fn is not None:
                fn *= 1e-280
    assert fn is not None
    return float(fn / norm)


# ---------------------------------------------------------------------------
# I_n, K_n and log-scaled variants
# ---------------------------------------------------------------------------


_LOG_RESCALE = 280.0 * np.log(10.0)  # log of the 1e280 rescale factor


def _log_i1(x: float) -> float:
    if x <= _I_SERIES_CUT:
        return float(np.log(_i1_series(np.float64(x))))
    return x - 0.5 * np.log(2.0 * np.pi * x) + float(
        np.log(_i_asym_scaled(1, np.float64(x)) * np.sqrt(2.0 * np.pi * x))
    )


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
    out[0] = _log_i0(x)
    if n_max >= 1:
        out[1] = _log_i1(x)
    if n_max >= 2:
        out[2:] = out[0] + _miller_log_ratios(n_max, x)[2:]
    return out


def log_bessel_k_orders(n_max: int, x: float) -> FloatArray:
    """log K_n(x) for every order n = 0..n_max from one upward sweep, x > 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if x <= 0.0:
        raise ValueError("log_bessel_k requires x > 0")
    lk0, lk1 = _log_k01(x)
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
        return float(_i0(np.float64(x)))
    if n == 1:
        return float(_i1(np.float64(x)))
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
        return float(_k0(np.float64(x)))
    if n == 1:
        return float(_k1(np.float64(x)))
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
    return _k0(np.asarray(z, dtype=np.float64))


def k1_array(z: FloatArray) -> FloatArray:
    """Elementwise K_1 over an array with z > 0."""
    return _k1(np.asarray(z, dtype=np.float64))


def i0_array(z: FloatArray) -> FloatArray:
    """Elementwise I_0 over an array with z >= 0."""
    return _i0(np.asarray(z, dtype=np.float64))


def i1_array(z: FloatArray) -> FloatArray:
    """Elementwise I_1 over an array with z >= 0."""
    return _i1(np.asarray(z, dtype=np.float64))
