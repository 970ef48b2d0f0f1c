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
module computes all of these quantities, the kernel direction of the
singular matrix, the trace form of the transversality condition, and scans
for spectral collisions Omega_m^- = Omega_n^+ as b2 varies.

The scalar functions (``coeffs_ab``, ``gamma_n``, ``omega_pm``, ...) take
one mode and are the reference.  The array evaluator ``spectrum_arrays``
returns A_n, B_n, gamma_n and Omega_n^+- for every n <= n_max from one
Bessel sweep per function and argument, with the mean flow computed once;
the spectrum table, the collision scan and the V-state Newton blocks are
built on it.  Both go through the same formulas.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bessel import bessel_ik_product, log_bessel_i_orders, log_bessel_k_orders
from .kernels import LayerParams

FloatArray = NDArray[np.float64]

DEDUP_TOL = 1e-9  # collision_scan merges roots of one pair closer than this times b1


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


# Each formula below is written once; the scalar API and the array
# evaluator both go through it, with n and the products scalar or arrays.


def _mean_flow(d, b, i1k1_b1, i1k1_b2, i1b2_k1b1) -> MeanFlowCoeffs:
    v = -(d + b * b) / (2.0 * (1.0 + d)) - (i1k1_b1 - b * i1b2_k1b1) / (1.0 + d)
    w = -0.5 - d * (i1k1_b2 - i1b2_k1b1 / b) / (1.0 + d)
    return MeanFlowCoeffs(float(v), float(w))


def _ab(d, mf: MeanFlowCoeffs, n, ik_b1, ik_b2):
    a_n = (d + 1.0) * mf.v + d / (2.0 * n) + ik_b1
    b_n = (d + 1.0) * mf.w + 1.0 / (2.0 * n) + d * ik_b2
    return a_n, b_n


def _gamma(b, n, ik_cross):
    return b ** n / (2.0 * n) - ik_cross


def _omega_pair(d, a_n, b_n, g):
    disc = np.sqrt((a_n - b_n) ** 2 + 4.0 * d * g * g)
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


def coeffs_ab(params: LayerParams, n: int) -> tuple[float, float]:
    """(A_n, B_n); both sequences are non-positive and non-increasing."""
    if n < 1:
        raise ValueError("mode index must be >= 1")
    d, mu, b1, b2 = params.delta, params.mu, params.b1, params.b2
    return _ab(
        d,
        mean_flow_coeffs(params),
        n,
        bessel_ik_product(n, b1 * mu, b1 * mu),
        bessel_ik_product(n, b2 * mu, b2 * mu),
    )


def coeffs_ab_limits(params: LayerParams) -> tuple[float, float]:
    """(A_inf, B_inf) = (d+1) (V, W), the large-n limits of A_n, B_n."""
    d = params.delta
    mf = mean_flow_coeffs(params)
    return (d + 1.0) * mf.v, (d + 1.0) * mf.w


def a_inf_minus_b_inf(params: LayerParams) -> float:
    """Branch-limit gap A_inf - B_inf in closed form.

    Zero exactly at b1 = b2 and strictly positive for b2 < b1 once
    delta >= (b2/b1)^2; this gap is what separates the two eigenvalue
    branches at large mode index.
    """
    d, mu, b1, b2, b = params.delta, params.mu, params.b1, params.b2, params.b
    i1k1_b1 = bessel_ik_product(1, b1 * mu, b1 * mu)
    i1k1_b2 = bessel_ik_product(1, b2 * mu, b2 * mu)
    i1b2_k1b1 = bessel_ik_product(1, b2 * mu, b1 * mu)
    return (
        (1.0 - b * b) / 2.0
        - i1k1_b1
        + d * i1k1_b2
        + (b * b - d) / b * i1b2_k1b1
    )


def gamma_n(params: LayerParams, n: int) -> float:
    """Coupling coefficient gamma_n = b^n/(2n) - I_n(b2 mu) K_n(b1 mu)."""
    if n < 1:
        raise ValueError("mode index must be >= 1")
    return _gamma(
        params.b, n, bessel_ik_product(n, params.b2 * params.mu, params.b1 * params.mu)
    )


def matrix_m(params: LayerParams, n: int, omega: float) -> np.ndarray:
    """The 2x2 multiplier block M_n(omega) acting on mode-n coefficients."""
    a_n, b_n = coeffs_ab(params, n)
    return _multiplier(params.delta, a_n, b_n, gamma_n(params, n), omega)


def omega_pm(params: LayerParams, n: int) -> tuple[float, float]:
    """Angular velocities (omega_minus, omega_plus) where M_n is singular."""
    a_n, b_n = coeffs_ab(params, n)
    return _omega_pair(params.delta, a_n, b_n, gamma_n(params, n))


def kernel_vector(params: LayerParams, m: int, sign: int) -> np.ndarray:
    """Generator of ker M_m(Omega_m^sign), sign in {+1, -1}.

    Components (Omega_m^sign + B_m/(d+1), -d*gamma_m/(d+1)), with the
    overall sign flipped if needed so the first component is positive.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    d = params.delta
    _, b_m = coeffs_ab(params, m)
    g = gamma_n(params, m)
    lo, hi = omega_pm(params, m)
    omega = hi if sign == 1 else lo
    vec = np.array([omega + b_m / (d + 1.0), -d * g / (d + 1.0)])
    if vec[0] == 0.0 and vec[1] == 0.0:
        raise ArithmeticError(
            "kernel direction degenerate (gamma_m = 0 and Omega = -B_m/(d+1))"
        )
    if vec[0] < 0.0 or (vec[0] == 0.0 and vec[1] < 0.0):
        vec = -vec
    return vec


def trace_identity_residual(params: LayerParams, m: int) -> tuple[float, float]:
    """Residuals of Tr M_m(Omega_m^pm) = pm (Omega_m^+ - Omega_m^-).

    The nonvanishing of that trace is the computable transversality
    condition for the bifurcation; returns (res_minus, res_plus).
    """
    lo, hi = omega_pm(params, m)
    gap = hi - lo
    tr_lo = float(np.trace(matrix_m(params, m, lo)))
    tr_hi = float(np.trace(matrix_m(params, m, hi)))
    return abs(tr_lo + gap), abs(tr_hi - gap)


# ---------------------------------------------------------------------------
# Array evaluator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectrumArrays:
    """A_n, B_n, gamma_n and Omega_n^-+ for n = 1..n_max; mode n at index n-1."""

    params: LayerParams
    a_n: FloatArray
    b_n: FloatArray
    gamma_n: FloatArray
    omega_minus: FloatArray
    omega_plus: FloatArray

    def matrix_m(self, omega: float) -> np.ndarray:
        """Every block M_n(omega), shape (n_max, 2, 2)."""
        return _multiplier(self.params.delta, self.a_n, self.b_n, self.gamma_n, omega)


def spectrum_arrays(params: LayerParams, n_max: int) -> SpectrumArrays:
    """All spectral coefficients for n = 1..n_max from four Bessel sweeps.

    One sweep per function and argument, I_n and K_n at b1 mu and b2 mu,
    gives every product I_n K_n the coefficients need; the mean flow is
    computed once from their n = 1 entries.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    d, mu, b1, b2 = params.delta, params.mu, params.b1, params.b2
    log_k1 = log_bessel_k_orders(n_max, b1 * mu)
    log_i2 = log_bessel_i_orders(n_max, b2 * mu)
    ik_b1 = np.exp(log_bessel_i_orders(n_max, b1 * mu) + log_k1)
    ik_b2 = np.exp(log_i2 + log_bessel_k_orders(n_max, b2 * mu))
    ik_cross = np.exp(log_i2 + log_k1)
    mf = _mean_flow(d, params.b, ik_b1[1], ik_b2[1], ik_cross[1])
    n = np.arange(1, n_max + 1)
    a_n, b_n = _ab(d, mf, n, ik_b1[1:], ik_b2[1:])
    g = _gamma(params.b, n, ik_cross[1:])
    lo, hi = _omega_pair(d, a_n, b_n, g)
    return SpectrumArrays(params, a_n, b_n, g, lo, hi)


def spectrum_table(params: LayerParams, n_max: int) -> list[SpectrumRow]:
    """Rows (n, A_n, B_n, gamma_n, Omega_n^-, Omega_n^+) for n = 1..n_max."""
    spec = spectrum_arrays(params, n_max)
    rows = zip(spec.a_n, spec.b_n, spec.gamma_n, spec.omega_minus, spec.omega_plus)
    return [SpectrumRow(n, *map(float, row)) for n, row in enumerate(rows, start=1)]


# ---------------------------------------------------------------------------
# Collision scanning
# ---------------------------------------------------------------------------


def collision_scan(
    params_base: LayerParams,
    m: int,
    n_max: int,
    grid: int = 64,
) -> list[CollisionRecord]:
    """Locate b2 in (0, b1) where Omega_m^-(b2) = Omega_n^+(b2), n <= n_max.

    Sign changes of the gap on a uniform b2 grid are refined by bisection
    to |Omega_m^- - Omega_n^+| <= 1e-12.  Roots of the same pair closer
    than DEDUP_TOL*b1 are merged and flagged as tangencies.  The b2 value
    carried by params_base is ignored; an empty list is a valid result.
    Each grid point is one evaluation of every mode up to max(m, n_max),
    each bisection midpoint one up to max(m, n).
    """
    if m < 1 or grid < 16:
        raise ValueError("need m >= 1 and grid >= 16")
    b1 = params_base.b1

    def spectrum_at(b2: float, top: int) -> SpectrumArrays:
        return spectrum_arrays(
            LayerParams(params_base.delta, params_base.lam, b1, b2), top
        )

    records: list[CollisionRecord] = []
    ts = np.linspace(0.5 / grid, 1.0 - 0.5 / grid, grid) * b1
    on_grid = [spectrum_at(t, max(m, n_max)) for t in ts]
    minus_m = np.array([sp.omega_minus[m - 1] for sp in on_grid])
    plus = np.array([sp.omega_plus for sp in on_grid])  # (grid, max(m, n_max))
    for n in range(1, n_max + 1):
        if n == m:
            continue
        gaps = minus_m - plus[:, n - 1]
        roots: list[tuple[float, float]] = []
        for i in range(grid - 1):
            g0, g1 = gaps[i], gaps[i + 1]
            if g0 == 0.0:
                roots.append((ts[i], 0.0))
                continue
            if g0 * g1 < 0.0:
                lo_t, hi_t, lo_g = ts[i], ts[i + 1], g0
                res = min(abs(g0), abs(g1))
                root = lo_t if abs(g0) <= abs(g1) else hi_t
                for _ in range(200):
                    mid = 0.5 * (lo_t + hi_t)
                    sp = spectrum_at(mid, max(m, n))
                    gm = sp.omega_minus[m - 1] - sp.omega_plus[n - 1]
                    if abs(gm) < res:
                        res, root = abs(gm), mid
                    if res <= 1e-12 or hi_t - lo_t <= 1e-16 * b1:
                        break
                    if lo_g * gm <= 0.0:
                        hi_t = mid
                    else:
                        lo_t, lo_g = mid, gm
                roots.append((root, res))
        merged: list[CollisionRecord] = []
        for root, res in sorted(roots):
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


def first_collision_free_m(
    params_base: LayerParams, m_start: int = 1, m_stop: int = 32, n_max: int = 48,
    grid: int = 64,
) -> int | None:
    """Smallest m in [m_start, m_stop] whose collision scan comes back empty.

    Empirical stand-in for the threshold index beyond which the two
    eigenvalue branches can no longer cross.
    """
    for m in range(m_start, m_stop + 1):
        if not collision_scan(params_base, m, n_max=n_max, grid=grid):
            return m
    return None


def equal_radius_collision_argument(n: int, tol: float = 1e-12) -> float:
    """Root x0 of I_1(x) K_1(x) = 1/(2n), n >= 2.

    At equal radii b1 = b2 = x0/mu the branches collide: Omega_1^+ equals
    Omega_n^-.  I_1 K_1 decreases from 1/2 to 0, so the root is unique.
    """
    if n < 2:
        raise ValueError("need n >= 2 (I_1 K_1 never exceeds 1/2)")
    target = 1.0 / (2.0 * n)
    lo, hi = 1e-8, 1.0
    while bessel_ik_product(1, hi, hi) > target:
        hi *= 2.0
        if hi > 1e8:
            raise ArithmeticError("failed to bracket the collision argument")
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        val = bessel_ik_product(1, mid, mid) - target
        if abs(val) <= tol:
            return mid
        if val > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_CSV_HEADER = "n,a_n,b_n,gamma_n,omega_minus,omega_plus"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def spectrum_rows_to_csv(rows: list[SpectrumRow]) -> str:
    lines = [_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.n), _fmt(r.a_n), _fmt(r.b_n), _fmt(r.gamma_n),
                 _fmt(r.omega_minus), _fmt(r.omega_plus)]
            )
        )
    return "\n".join(lines) + "\n"


def spectrum_rows_to_json(rows: list[SpectrumRow]) -> str:
    payload = [
        {
            "n": r.n,
            "a_n": float(r.a_n),
            "b_n": float(r.b_n),
            "gamma_n": float(r.gamma_n),
            "omega_minus": float(r.omega_minus),
            "omega_plus": float(r.omega_plus),
        }
        for r in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def collision_records_to_csv(records: list[CollisionRecord]) -> str:
    lines = ["m,n,b2_root,residual,tangency"]
    for r in records:
        lines.append(
            ",".join(
                [str(r.m), str(r.n), _fmt(r.b2_root), _fmt(r.residual),
                 str(int(r.tangency))]
            )
        )
    return "\n".join(lines) + "\n"


def collision_records_to_json(
    records: list[CollisionRecord], params_base: LayerParams
) -> str:
    payload = {
        "schema_version": 1,
        "proven_regime": bool(params_base.in_proven_regime),
        "records": [
            {
                "m": r.m,
                "n": r.n,
                "b2_root": float(r.b2_root),
                "residual": float(r.residual),
                "tangency": bool(r.tangency),
            }
            for r in records
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
