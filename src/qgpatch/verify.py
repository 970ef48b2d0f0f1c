r"""Self-check suites for the CLI ``verify`` command.

Each suite returns (name, passed, detail) triples covering the identities
and sampled bounds the library is built on: Bessel monotonicity and
Wronskian consistency, kernel bounds, the closed-form moments behind the
Fourier multiplier, and the spectral identities (singularity, kernel
defect, trace/transversality).

The screened-moment identity is asserted with a mixed tolerance
(rtol 1e-8 plus a small absolute floor): the coefficients decay below the
double-precision noise floor of the trapezoidal sums once (x/y)^n is
tiny, so a pure relative test is not meaningful in this precision.
"""

from __future__ import annotations

import numpy as np

from . import bessel, kernels, quadrature, spectrum
from .contour import RadialDeformation, functional_f, jacobian_fd, linearized_multiplier
from .kernels import LayerParams

Check = tuple[str, bool, str]


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return (name, bool(passed), detail)


def bessel_suite() -> list[Check]:
    checks = []
    # Wronskian I_n K_{n+1} + I_{n+1} K_n = 1/x, n = 0..32, on the sweeps
    worst = 0.0
    for x in (0.5, 2.0, 10.0):
        log_i = bessel.log_bessel_i_orders(33, x)
        log_k = bessel.log_bessel_k_orders(33, x)
        w = np.exp(log_i[:-1] + log_k[1:]) + np.exp(log_i[1:] + log_k[:-1])
        worst = max(worst, float(np.max(np.abs(w - 1.0 / x))) * x)
    checks.append(_check("bessel.wronskian", worst <= 1e-10, f"rel {worst:.2e}"))

    # I_n K_n, n = 1..64, strictly decreasing in n, positive products
    xs = np.array([0.25, 1.0, 4.0, 16.0])
    ik = np.exp(bessel.log_bessel_i_orders(64, xs) + bessel.log_bessel_k_orders(64, xs))[:, 1:]
    ok = np.all(ik > 0.0) and np.all(np.diff(ik, axis=1) < 0.0)
    checks.append(_check("bessel.ikn_monotone_n", ok))

    # decreasing in x for fixed n
    xs = np.linspace(0.1, 20.0, 60)
    ik = np.exp(bessel.log_bessel_i_orders(32, xs) + bessel.log_bessel_k_orders(32, xs))
    ok = np.all(np.diff(ik[:, [1, 2, 8, 32]], axis=0) < 0.0)
    checks.append(_check("bessel.ikn_monotone_x", ok))

    # 0 < (x/y)^n/(2n) - I_n(x) K_n(y) <= 1/(2n) for x <= y, n = 1..32
    xs, n = np.linspace(0.2, 3.0, 10), np.arange(1, 33)
    log_i, log_k = bessel.log_bessel_i_orders(32, xs), bessel.log_bessel_k_orders(32, xs)
    ratio = xs[:, None] / xs[None, :]  # x / y, row x, column y
    gap = ratio[..., None] ** n / (2 * n) - np.exp(log_i[:, None, 1:] + log_k[None, :, 1:])
    upper = np.triu(np.ones((xs.size, xs.size), dtype=bool))  # x <= y
    ok = np.all((gap[upper] > 0.0) & (gap[upper] <= 1.0 / (2 * n) + 1e-15))
    checks.append(_check("bessel.product_gap_bound", ok))

    # I_1(x)/x strictly increasing
    xs = np.linspace(0.05, 20.0, 100)
    vals = [np.exp(bessel.log_bessel_i_orders(1, x)[1]) / x for x in xs]
    ok = all(vals[i + 1] > vals[i] for i in range(len(xs) - 1))
    checks.append(_check("bessel.i1_over_x_increasing", ok))

    # harmonic-sum values
    ok = (
        abs(bessel.phi_harmonic(1) - (1.0 - bessel.EULER_GAMMA)) < 1e-15
        and abs(bessel.phi_harmonic(2) - (1.5 - bessel.EULER_GAMMA)) < 1e-15
    )
    checks.append(_check("bessel.phi_values", ok))
    return checks


def kernels_suite() -> list[Check]:
    rng = np.random.default_rng(1234)
    checks = []

    # (A1): |k_pm| <= C/|p|, frozen regression constant C = 0.2
    radii = 10.0 ** rng.uniform(-6, 2, size=4000)
    angles = rng.uniform(0.0, 2 * np.pi, size=4000)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    kp = kernels.biot_savart_plus(pts)
    km = kernels.biot_savart_minus(pts)
    bound_p = np.max(np.hypot(kp[:, 0], kp[:, 1]) * radii)
    bound_m = np.max(np.hypot(km[:, 0], km[:, 1]) * radii)
    ok = bound_p <= 0.2 and bound_m <= 1.1
    checks.append(_check("kernels.a1_bound", ok, f"C+={bound_p:.3f} C-={bound_m:.3f}"))

    # (A2): |k(x)-k(y)| <= C |x-y|/(|x||y|) in the three proof regimes
    worst = 0.0
    for _ in range(3):
        rx = 10.0 ** rng.uniform(-3, 1, size=2000)
        ax = rng.uniform(0, 2 * np.pi, size=2000)
        x = np.column_stack([rx * np.cos(ax), rx * np.sin(ax)])
        scalings = rng.uniform(0.5, 2.0, size=2000)
        ay = ax + rng.uniform(-0.5, 0.5, size=2000)
        ry = rx * scalings
        y = np.column_stack([ry * np.cos(ay), ry * np.sin(ay)])
        sep = np.hypot(*(x - y).T)
        good = sep > 1e-12
        for f in (kernels.biot_savart_plus, kernels.biot_savart_minus):
            d = np.hypot(*(f(x) - f(y)).T)
            ratio = d[good] * rx[good] * ry[good] / sep[good]
            worst = max(worst, float(np.max(ratio)))
    checks.append(_check("kernels.a2_bound", worst <= 3.0, f"C2={worst:.3f}"))

    # rotation invariance of G_{k,j}
    p = LayerParams(1.7, 0.8, 1.0, 0.6)
    r = rng.uniform(0.05, 3.0, size=64)
    a = rng.uniform(0, 2 * np.pi, size=64)
    base = np.column_stack([r, np.zeros(64)])
    rot = np.column_stack([r * np.cos(a), r * np.sin(a)])
    ok = True
    for k in (1, 2):
        for j in (1, 2):
            ok &= bool(
                np.allclose(
                    kernels.kernel_g(p, k, j, base),
                    kernels.kernel_g(p, k, j, rot),
                    rtol=1e-13, atol=1e-15,
                )
            )
    checks.append(_check("kernels.g_rotation_invariant", ok))

    # delta * G_{1,2} = G_{2,1}
    pts = np.column_stack([r * np.cos(a), r * np.sin(a)])
    lhs = p.delta * kernels.kernel_g(p, 1, 2, pts)
    rhs = kernels.kernel_g(p, 2, 1, pts)
    checks.append(
        _check("kernels.offdiag_ratio", bool(np.allclose(lhs, rhs, rtol=1e-13)))
    )

    # Q: defining identity -Q(r) - log r = K_0(mu r), and continuity at 0
    rr = np.array([0.1, 1.0, 3.0])
    ident = np.max(
        np.abs(-kernels.kernel_q(p, rr) - np.log(rr) - bessel.k0_array(p.mu * rr))
    )
    cont = abs(
        float(kernels.kernel_q(p, np.array([1e-12]))[0])
        - float(kernels.kernel_q(p, np.array([1e-10]))[0])
    )
    checks.append(_check("kernels.q_identity", ident <= 1e-12, f"{ident:.2e}"))
    checks.append(_check("kernels.q_continuity", cont <= 1e-8, f"{cont:.2e}"))

    # ell: concave, nondecreasing, continuous, endpoint values
    grid = np.linspace(0.0, 2.0, 401)
    ell = kernels.log_lipschitz_ell(grid)
    diffs = np.diff(ell)
    ok = (
        ell[0] == 0.0
        and abs(kernels.log_lipschitz_ell(np.array([1.0]))[0] - 1.0) < 1e-15
        and np.all(diffs >= -1e-12)
        and np.all(np.diff(diffs[:200]) <= 1e-12)
    )
    checks.append(_check("kernels.ell_shape", ok))
    return checks


def quadrature_suite() -> list[Check]:
    checks = []
    # log-kernel moment identity (absolute tolerance)
    worst = 0.0
    for x in (0.3, 0.7, 0.95, 1.0):
        got = quadrature.log_moment_quadrature(x, 32, 1024)
        n = np.arange(1, 33)
        worst = max(worst, float(np.max(np.abs(got + x**n / (2 * n)))))
    checks.append(_check("quadrature.log_moment", worst <= 1e-10, f"abs {worst:.2e}"))

    # screened-kernel moment identity (mixed tolerance: fp64 noise floor)
    ok = True
    worst_rel = 0.0
    for (x, y) in ((0.4, 1.0), (0.9, 1.1), (1.0, 1.0)):
        for lam in (0.5, 2.0):
            got = quadrature.screened_moment_quadrature(x, y, lam, 32, 2048)
            exact = np.exp(bessel.log_bessel_i_orders(32, lam * x)[1:]
                           + bessel.log_bessel_k_orders(32, lam * y)[1:])
            err = np.abs(got - exact)
            tol = 1e-8 * np.abs(exact) + 1e-12
            ok &= bool(np.all(err <= tol))
            big = np.abs(exact) > 1e-4
            if np.any(big):
                worst_rel = max(worst_rel, float(np.max(err[big] / np.abs(exact[big]))))
    checks.append(
        _check("quadrature.screened_moment", ok, f"rel@large {worst_rel:.2e}")
    )

    # stationarity of discs through the full functional
    p = LayerParams(1.0, 1.0, 1.0, 0.7)
    sup = 0.0
    for omega in (-1.0, 0.0, 0.5):
        sup = max(
            sup,
            float(np.max(np.abs(functional_f(p, omega, RadialDeformation.zero(2, 8, 128))))),
        )
    checks.append(_check("quadrature.disc_stationary", sup <= 1e-10, f"{sup:.2e}"))

    # linearization spot check against the multiplier
    jac = jacobian_fd(p, 0.2, h=1e-6, n_probe=4, n_nodes=128)
    worst = 0.0
    for n in range(1, 5):
        exact = linearized_multiplier(p, 0.2, n)
        worst = max(
            worst, float(np.linalg.norm(jac[n - 1, n - 1] - exact) / np.linalg.norm(exact))
        )
    checks.append(_check("quadrature.multiplier_match", worst <= 1e-5, f"{worst:.2e}"))
    return checks


def spectrum_suite() -> list[Check]:
    checks = []
    grids = [
        LayerParams(d, lam, 1.0, b2)
        for d in (0.5, 1.0, 2.0, 10.0)
        for b2 in (0.3, 0.55, 0.8, 0.95)
        for lam in (0.25, 0.5, 1.0, 2.0)
        if d >= b2**2
    ]

    worst_det, worst_defect, worst_trace = 0.0, 0.0, 0.0
    mono_ok, gamma_ok, gap_ok = True, True, True
    modes = np.array([1, 2, 3, 5, 9, 17, 32])
    for p in grids[:: max(1, len(grids) // 24)]:
        spec = spectrum.spectrum_arrays(p, 48)
        g = spec.gamma_n[modes - 1]
        gamma_ok &= bool(np.all((g > 0.0) & (g <= 1.0 / (2 * modes) + 1e-15)))
        lo, hi = spec.omega_minus, spec.omega_plus
        for omega, sgn in ((lo, -1), (hi, 1)):
            mats = spec.matrix_m(omega)[modes - 1]
            scale = np.linalg.norm(mats, axis=(1, 2))
            det = np.abs(np.linalg.det(mats)) / scale**2
            worst_det = max(worst_det, float(np.max(det)))
            # kernel vector (Omega + B_n/(d+1), -d gamma_n/(d+1)), from row 2
            vec = np.stack([mats[:, 1, 1], -mats[:, 1, 0]], axis=-1)
            defect = np.linalg.norm(np.einsum("nij,nj->ni", mats, vec), axis=1)
            worst_defect = max(worst_defect, float(np.max(defect / scale)))
            trace = np.trace(mats, axis1=1, axis2=2)
            worst_trace = max(
                worst_trace, float(np.max(np.abs(trace - sgn * (hi - lo)[modes - 1])))
            )
        mono_ok &= bool(np.all(np.diff(lo) > 0.0) and np.all(np.diff(hi) > 0.0))
        gap = spectrum.a_inf_minus_b_inf(p)
        gap_ok &= gap > 0.0 if p.b2 < p.b1 else abs(gap) <= 1e-14
    checks.append(_check("spectrum.det_singular", worst_det <= 1e-12, f"{worst_det:.2e}"))
    checks.append(
        _check("spectrum.kernel_defect", worst_defect <= 1e-12, f"{worst_defect:.2e}")
    )
    checks.append(_check("spectrum.trace_identity", worst_trace <= 1e-12, f"{worst_trace:.2e}"))
    checks.append(_check("spectrum.branches_monotone", mono_ok))
    checks.append(_check("spectrum.gamma_bounds", gamma_ok))
    checks.append(_check("spectrum.branch_gap_sign", gap_ok))

    # equal-radii closed form, I_n K_n from the sweeps the rows are built on
    worst = 0.0
    n = np.arange(1, 17)
    for d in (0.5, 1.0, 2.0, 10.0):
        p = LayerParams(d, 1.0, 1.0, 1.0)
        spec = spectrum.spectrum_arrays(p, 16)
        ik = np.exp(
            bessel.log_bessel_i_orders(16, p.mu) + bessel.log_bessel_k_orders(16, p.mu)
        )
        worst = max(
            worst,
            float(np.max(np.abs(spec.omega_plus - (0.5 - ik[1:])))),
            float(np.max(np.abs(spec.omega_minus - (0.5 - 0.5 / n)))),
        )
    checks.append(_check("spectrum.equal_radii_form", worst <= 1e-12, f"{worst:.2e}"))
    return checks


SUITES = {
    "bessel": bessel_suite,
    "kernels": kernels_suite,
    "quadrature": quadrature_suite,
    "spectrum": spectrum_suite,
}


def run_suites(names=None) -> list[Check]:
    names = list(SUITES) if not names else names
    out: list[Check] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        out.extend(SUITES[name]())
    return out
