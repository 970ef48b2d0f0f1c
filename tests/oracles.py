"""Independent oracles used by the tests.

These deliberately avoid the code paths they check: quadrature of integral
representations, extended-precision series, finite differences, and a
second route to the layer velocities that never builds the shared
kernel-pair matrices of ``quadrature.layer_integrals``, and the
radius-by-radius spectrum and cell-by-cell collision scan that the
batched sweeps must match bit for bit.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf, cos as mpcos, euler
from mpmath import log as mplog, pi as mppi, sqrt as mpsqrt
from scipy.special import k0

from qgpatch import quadrature
from qgpatch import spectrum as S
from qgpatch.bessel import log_bessel_i_orders, log_bessel_k_orders


def j0_oracle(a):
    """Vectorized J_0 for the integral-representation oracles.

    Ascending series below 14, Hankel expansion beyond; independent of the
    package's own J evaluation branching.
    """
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    out = np.empty_like(a)
    small = a < 14.0
    if small.any():
        x = a[small]
        q = -0.25 * x * x
        term = np.ones_like(x)
        acc = np.ones_like(x)
        for m in range(1, 64):
            term = term * q / (m * m)
            acc += term
        out[small] = acc
    if (~small).any():
        x = a[~small]
        ix2 = 1.0 / (64.0 * x * x)
        p_acc = np.ones_like(x)
        q_acc = -1.0 / (8.0 * x)
        tp = np.ones_like(x)
        tq = q_acc.copy()
        for k in range(1, 7):
            tp = tp * -((4 * k - 3) ** 2) * ((4 * k - 1) ** 2) * ix2 / ((2 * k - 1) * (2 * k))
            p_acc += tp
            tq = tq * -((4 * k - 1) ** 2) * ((4 * k + 1) ** 2) * ix2 / ((2 * k) * (2 * k + 1))
            q_acc += tq
        chi = x - 0.25 * np.pi
        out[~small] = np.sqrt(2.0 / (np.pi * x)) * (
            p_acc * np.cos(chi) - q_acc * np.sin(chi)
        )
    return out


def ik_product_oracle(n: int, x: float, y: float, nodes: int = 400000,
                      tmax: float = 40.0) -> float:
    """I_n(x) K_n(y) by midpoint quadrature of its J_0 integral representation.

    I_n(x) K_n(y) = (1/2) int_{log(y/x)}^{inf} J_0(sqrt(2xy cosh t - x^2 - y^2))
                    exp(-n t) dt, truncated at t = tmax.
    """
    t0 = np.log(y / x)
    edges = np.linspace(t0, tmax, nodes + 1)
    tm = 0.5 * (edges[1:] + edges[:-1])
    h = edges[1] - edges[0]
    arg = np.sqrt(np.maximum(2 * x * y * np.cosh(tm) - x * x - y * y, 0.0))
    return float(0.5 * h * np.sum(j0_oracle(arg) * np.exp(-n * tm)))


def bessel_i_series_mp(n: int, x: float, terms: int = 40, dps: int = 50) -> float:
    """Truncated ascending series of I_n in extended precision."""
    with mp.workdps(dps):
        z = mpf(repr(x)) / 2
        acc = mpf(0)
        for m in range(terms):
            acc += z ** (n + 2 * m) / (mp.factorial(m) * mp.factorial(n + m))
        return float(acc)


def i0_and_regular_part_termwise(z):
    """I_0(z) and K_0(z) + log(z) I_0(z) by the ascending series, term by term.

    The loop ``qgpatch.bessel`` ran before it summed the series by Horner's
    rule: each term q^m/(m!)^2, q = z^2/4, comes from the previous one, and
    the regular part is log(2) I_0 + sum Phi(m+1) q^m/(m!)^2.  Terms are
    summed until one falls below 1e-18 at the largest q.
    """
    z = np.asarray(z, dtype=np.float64)
    q = 0.25 * z * z
    qmax = float(np.max(q)) if q.size else 0.0
    term = np.ones_like(z)
    acc = np.full_like(z, -float(euler))
    i0 = np.ones_like(z)
    size, harmonic = 1.0, 0.0
    for m in range(1, 160):
        term = term * (q / (m * m))
        harmonic += 1.0 / m
        i0 += term
        acc += term * (harmonic - float(euler))
        size *= qmax / (m * m)
        if size <= 1e-18:
            break
    return i0, np.log(2.0) * i0 + acc


def k0_extended(z):
    """K_0(z) in long double by the ascending series, for 0 < z <= 3.

    K_0 = sum_m (H_m - gamma) q^m/(m!)^2 - log(z/2) I_0, q = z^2/4, summed
    term by term in numpy's long double (64-bit mantissa on x86-64), so the
    cancellation at z = 3 leaves errors near 1e-18, far below double rounding.
    """
    z = np.asarray(z, dtype=np.longdouble)
    q = z * z / 4
    gamma = np.longdouble("0.5772156649015328606065120900824024")
    term = np.ones_like(q)
    i0 = np.ones_like(q)
    phi_sum = np.full_like(q, -gamma)
    harmonic = np.longdouble(0)
    for m in range(1, 30):
        term = term * q / (m * m)
        harmonic += np.longdouble(1) / m
        i0 += term
        phi_sum += term * (harmonic - gamma)
    return phi_sum - np.log(z / 2) * i0


# Largest argument the I_0 / K_0 series is checked at against mpmath; beyond
# it the K_0 series cancels (log(w) I_0 grows while K_0 decays) and loses digits.
I0_K0_SERIES_MAX_ARG = 4.5


def i0_k0reg_series_mp(w):
    """I_0(w) and the regular part K_0(w) + log(w) I_0(w), at the working precision.

    Ascending series with q = w^2/4 and harmonic numbers H_m:
    I_0 = sum q^m/(m!)^2,  K_0 + log(w) I_0 = (log 2 - gamma) I_0 + sum q^m H_m/(m!)^2,
    summed until a term falls below 2^-(prec+8) of its sum. At w = 0 it gives
    (1, log 2 - gamma). Raises ValueError above I0_K0_SERIES_MAX_ARG.
    """
    if not 0 <= w <= I0_K0_SERIES_MAX_ARG:
        raise ValueError(f"series argument {w} outside [0, {I0_K0_SERIES_MAX_ARG}]")
    eps = mpf(2) ** -(mp.prec + 8)
    q = w * w / 4
    term, harmonic = mpf(1), mpf(0)
    i0, reg = mpf(1), mpf(0)
    m = 0
    while True:
        m += 1
        term = term * q / (m * m)
        harmonic += mpf(1) / m
        i0 += term
        reg += term * harmonic
        if term <= eps * i0 and term * harmonic <= eps * reg:
            return i0, (mplog(2) - euler) * i0 + reg


def screened_moments_mp(x: float, y: float, lam: float, n_max: int,
                        n_nodes: int = 512, dps: int = 40) -> list[float]:
    """(1/2pi) int K_0(lam |x - y e^{it}|) cos(nt) dt for n = 1..n_max.

    Trapezoidal rule in extended precision; at x = y the log singularity
    is subtracted and its cosine moments are added back through the closed
    form int log(2|sin(t/2)|) cos(kt) dt / (2 pi) = -1/(2k).

    The node values use rho_j = rho_{N-j}, so only j = 0..N/2 are evaluated.
    I_0 and K_0 come from i0_k0reg_series_mp, which assumes lam (x + y) is
    small (it raises above I0_K0_SERIES_MAX_ARG) and is checked against
    mpmath's besseli / besselk in tests/test_bessel.py.
    """
    with mp.workdps(dps):
        nn = n_nodes
        half = nn // 2
        costab = [mpcos(2 * mppi * mpf(j) / nn) for j in range(nn)]
        xs, ys, lm = mpf(repr(x)), mpf(repr(y)), mpf(repr(lam))
        rho = [mpsqrt(xs * xs + ys * ys - 2 * xs * ys * costab[j])
               for j in range(half + 1)]

        def coeff(values, n):
            # trapezoid sum over all N (even) nodes, folded onto j = 0..N/2
            inner = mp.fdot(values[1:half], [costab[(n * j) % nn] for j in range(1, half)])
            return (values[0] + (-1) ** n * values[half] + 2 * inner) / nn

        series = [i0_k0reg_series_mp(lm * r) for r in rho]
        if x < y:
            f = [sreg - mplog(lm * r) * i0 for (i0, sreg), r in zip(series, rho)]
            return [float(coeff(f, n)) for n in range(1, n_max + 1)]

        smooth = [sreg - mplog(lm * ys) * i0 for i0, sreg in series]
        g = [i0 for i0, _ in series]
        k_cut = 64
        ghat = [coeff(g, k) * (1 if k == 0 else 2) for k in range(k_cut + 1)]

        def log_moment(j):
            return mpf(0) if j == 0 else mpf(-1) / (2 * j)

        out = []
        for n in range(1, n_max + 1):
            add = mpf(0)
            for k in range(k_cut + 1):
                add += ghat[k] * (log_moment(abs(n - k)) + log_moment(n + k)) / 2
            out.append(float(coeff(smooth, n) - add))
        return out


def spectrum_row_mp(delta, lam, b1, b2, k: int, dps: int = 40):
    """(A_k, B_k, gamma_k, Omega_k^-, Omega_k^+) at the disc pair (b1, b2), as mpf.

    The mean flow, A_k, B_k, gamma_k and the two branches are written out
    again from the module formulas over mpmath's besseli / besselk, so no
    Bessel sweep, product or recurrence of qgpatch is used.  Float
    parameters enter exactly; b2 may also be an mpf (for root finding).
    """
    with mp.workdps(dps):
        d, b1s, b2s = mpf(delta), mpf(b1), mpf(b2)
        mu = mpf(lam) * mpsqrt(1 + d)

        def ik(n, x, y):
            return mp.besseli(n, x) * mp.besselk(n, y)

        x1, x2, b = b1s * mu, b2s * mu, b2s / b1s
        v = -(d + b * b) / (2 * (1 + d)) - (ik(1, x1, x1) - b * ik(1, x2, x1)) / (1 + d)
        w = mpf(-0.5) - d * (ik(1, x2, x2) - ik(1, x2, x1) / b) / (1 + d)
        a_k = (d + 1) * v + d / (2 * k) + ik(k, x1, x1)
        b_k = (d + 1) * w + mpf(1) / (2 * k) + d * ik(k, x2, x2)
        g = b ** k / (2 * k) - ik(k, x2, x1)
        disc = mpsqrt((a_k - b_k) ** 2 + 4 * d * g * g)
        lo = (-(a_k + b_k) - disc) / (2 * (d + 1))
        hi = (-(a_k + b_k) + disc) / (2 * (d + 1))
        return a_k, b_k, g, lo, hi


def collision_root_mp(delta: float, lam: float, b1: float, m: int, n: int,
                      b2_guess: float, dps: int = 30) -> float:
    """b2 with Omega_m^-(b2) = Omega_n^+(b2), by mp.findroot at dps digits.

    The branches come from ``spectrum_row_mp``, independent of qgpatch.
    """
    with mp.workdps(dps):
        def gap(b2):
            return (spectrum_row_mp(delta, lam, b1, b2, m, dps)[3]
                    - spectrum_row_mp(delta, lam, b1, b2, n, dps)[4])

        return float(mp.findroot(gap, mpf(repr(b2_guess))))


def spectrum_over_b2_per_radius(params_base, b2, n_max: int):
    """``spectrum.spectrum_over_b2`` with one scalar I_n and K_n sweep per radius.

    The b1 mu sweeps are made once and each b2 mu gets its own pair of
    float sweeps; the formulas are the module's.  It is the reference the
    batched sweeps over every radius are checked against, bit for bit.
    """
    d, mu, b1 = params_base.delta, params_base.mu, params_base.b1
    b2 = np.asarray(b2, dtype=np.float64).reshape(-1)
    log_k1 = log_bessel_k_orders(n_max, b1 * mu)
    ik_b1 = np.exp(log_bessel_i_orders(n_max, b1 * mu) + log_k1)
    log_i2 = np.array([log_bessel_i_orders(n_max, x) for x in b2 * mu])
    log_k2 = np.array([log_bessel_k_orders(n_max, x) for x in b2 * mu])
    ik_b2 = np.exp(log_i2 + log_k2)
    ik_cross = np.exp(log_i2 + log_k1)
    b = (b2 / b1)[:, None]
    mf = S._mean_flow(d, b, ik_b1[1], ik_b2[:, 1:2], ik_cross[:, 1:2])
    n = np.arange(1, n_max + 1)
    a_n, b_n = S._ab(d, mf, n, ik_b1[1:], ik_b2[:, 1:])
    g = S._gamma(b, n, ik_cross[:, 1:])
    lo, hi = S._omega_pair(d, a_n, b_n, g)
    return a_n, b_n, g, lo, hi, mf.v[:, 0], mf.w[:, 0]


def collision_scan_per_cell(params_base, m: int, n_max: int, grid: int):
    """``spectrum.collision_scan`` tested cell by cell, fed by
    ``spectrum_over_b2_per_radius``: the grid in one call, and every
    refinement step a one-radius call that sweeps at b1 mu again."""
    b1 = params_base.b1
    records = []
    ts = np.linspace(0.5 / grid, 1.0 - 0.5 / grid, grid) * b1
    minus, plus = spectrum_over_b2_per_radius(params_base, ts, max(m, n_max))[3:5]
    minus_m = minus[:, m - 1]

    def gap(b2, n):
        lo, hi = spectrum_over_b2_per_radius(params_base, [b2], max(m, n))[3:5]
        return float(lo[0, m - 1] - hi[0, n - 1])

    for n in range(1, n_max + 1):
        if n == m:
            continue
        gaps = minus_m - plus[:, n - 1]
        roots = []
        for i in range(grid - 1):
            g0, g1 = gaps[i], gaps[i + 1]
            if g0 == 0.0:
                roots.append((ts[i], 0.0))
            elif g0 * g1 < 0.0:
                roots.append(S._illinois(lambda x: gap(x, n), ts[i], ts[i + 1], g0, g1,
                                         1e-12, 1e-16 * b1))
        merged = []
        for root, res in sorted(roots):
            if merged and abs(root - merged[-1].b2_root) <= S.DEDUP_TOL * b1:
                prev = merged[-1]
                merged[-1] = S.CollisionRecord(
                    m, n, prev.b2_root, min(prev.residual, res), tangency=True
                )
            else:
                merged.append(S.CollisionRecord(m, n, root, res))
        records.extend(merged)
    records.sort(key=lambda r: (r.b2_root, r.n))
    return records


def transform_pm(delta, f1, f2):
    """Diagonalizing change of unknowns: (f_+, f_-) = (f1 + f2/delta, f1 - f2)."""
    return f1 + f2 / delta, f1 - f2


def inverse_transform_pm(delta, f_plus, f_minus):
    """Inverse of transform_pm: the same matrix scaled by (1 + 1/delta)^-1."""
    scale = 1.0 / (1.0 + 1.0 / delta)
    return scale * (f_plus + f_minus / delta), scale * (f_plus - f_minus)


def layer_node_velocities_pm(params, z1, z2):
    """Layer velocities at their own nodes through the +/- change of unknowns.

    The + combination of the layer fields solves a pure Laplace problem and
    sees only the log integrals, the - combination a pure screened one; the
    inverse transform recovers the layer fields.  Each of the eight one-pair
    integrals is its own ``kernel_integral_grid`` call.
    """
    zs = (np.asarray(z1, dtype=np.complex128), np.asarray(z2, dtype=np.complex128))
    dzs = tuple(quadrature.spectral_derivative(z) for z in zs)
    coef = 1.0 / (2 * np.pi)

    def integrals(k, alpha, kappa):
        return [
            quadrature.kernel_integral_grid(
                alpha, kappa, params.mu, zs[k], zs[j], dzs[j], dz_src=dzs[j]
            )
            for j in (0, 1)
        ]

    out = []
    for k in (0, 1):
        log_plus, _ = transform_pm(params.delta, *integrals(k, coef, 0.0))
        _, scr_minus = transform_pm(params.delta, *integrals(k, 0.0, coef))
        out.append(inverse_transform_pm(params.delta, -log_plus, scr_minus)[k])
    return out[0], out[1]


def trapezoid_integral(alpha, kappa, mu, queries, z_src, t_src):
    """int (alpha log|q - z| + kappa K_0(mu |q - z|)) T de by the plain trapezoid.

    Spectrally accurate for queries well away from the source curve.
    """
    rho = np.abs(np.asarray(queries)[:, None] - np.asarray(z_src)[None, :])
    kern = alpha * np.log(rho) + kappa * k0(mu * rho)
    return 2 * np.pi / rho.shape[1] * (kern @ np.asarray(t_src))



def boundary_csv_per_value(sol):
    """The CLI's ``boundary_*.csv`` of one V-state, written one scalar at a time."""
    radii = sol.boundary_radii()
    t = sol.deformation.grid()
    lines = ["theta,R1,R2,x1,y1,x2,y2"]
    for i in range(t.size):
        row = [
            t[i],
            radii[0, i],
            radii[1, i],
            radii[0, i] * np.cos(t[i]),
            radii[0, i] * np.sin(t[i]),
            radii[1, i] * np.cos(t[i]),
            radii[1, i] * np.sin(t[i]),
        ]
        lines.append(",".join(format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def snapshot_csv_per_value(boundaries):
    """An ``evolve`` snapshot CSV written one node at a time, each value formatted alone."""
    lines = ["layer,node_index,x,y"]
    for layer, boundary in enumerate(boundaries, start=1):
        for j, z in enumerate(boundary.nodes):
            lines.append(f"{layer},{j},{format(float(z.real), '.17g')},"
                         f"{format(float(z.imag), '.17g')}")
    return "\n".join(lines) + "\n"
