import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from qgpatch import bessel
from qgpatch.kernels import (
    LayerParams,
    biot_savart_minus,
    biot_savart_plus,
    kernel_g,
    kernel_q,
    log_lipschitz_ell,
)

TWO_PI = 2.0 * np.pi
RNG = np.random.default_rng(20240811)


def _ring(radii, angles):
    radii = np.asarray(radii, dtype=np.float64)
    angles = np.asarray(angles, dtype=np.float64)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


class TestLayerParams:
    def test_derived_quantities(self):
        p = LayerParams(2.0, 0.5, 1.5, 0.9)
        assert p.mu == 0.5 * np.sqrt(3.0)
        assert p.b == 0.6
        assert p.in_proven_regime  # 2.0 >= 0.36

    @pytest.mark.parametrize(
        "args", [(0.0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 1, 1.5), (1, 1, 1, 0)]
    )
    def test_validation(self, args):
        with pytest.raises(ValueError):
            LayerParams(*args)

    @pytest.mark.parametrize("args", [
        (np.inf, 1, 1, 1), (1, np.inf, 1, 1), (1, 1, np.inf, 1), (1, 1, np.inf, np.inf),
        (np.nan, 1, 1, 1), (1, 1, 1, np.nan),
    ])
    def test_non_finite_refused(self, args):
        with pytest.raises(ValueError, match="must be finite"):
            LayerParams(*args)


class TestLayerKernel:
    def test_offdiagonal_symmetric_at_delta_one(self):
        p = LayerParams(1.0, 1.0, 1.0, 0.8)
        pts = _ring(RNG.uniform(0.05, 3.0, 64), RNG.uniform(0, TWO_PI, 64))
        assert np.allclose(
            kernel_g(p, 1, 2, pts), kernel_g(p, 2, 1, pts), rtol=0, atol=1e-15
        )

    def test_offdiagonal_bounded_at_origin(self):
        # the log parts cancel; G_{1,2} stays bounded as |p| -> 0
        p = LayerParams(1.7, 0.8, 1.0, 0.6)
        radii = 10.0 ** -np.arange(1, 9, dtype=np.float64)
        vals = kernel_g(p, 1, 2, _ring(radii, np.zeros(8)))
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1.0
        # and converges: last two values agree closely
        assert abs(vals[-1] - vals[-2]) < 1e-8

    def test_offdiagonal_ratio_identity(self):
        # delta * G_{1,2} - G_{2,1} = 0
        p = LayerParams(2.3, 0.9, 1.0, 0.5)
        pts = _ring(RNG.uniform(0.05, 3.0, 64), RNG.uniform(0, TWO_PI, 64))
        assert np.allclose(
            p.delta * kernel_g(p, 1, 2, pts), kernel_g(p, 2, 1, pts), rtol=1e-14
        )

    def test_rotation_invariance(self):
        p = LayerParams(0.6, 1.4, 1.0, 0.7)
        r = RNG.uniform(0.05, 3.0, 48)
        a = RNG.uniform(0, TWO_PI, 48)
        for k in (1, 2):
            for j in (1, 2):
                assert np.allclose(
                    kernel_g(p, k, j, _ring(r, a)),
                    kernel_g(p, k, j, _ring(r, np.zeros(48))),
                    rtol=1e-12,
                    atol=1e-15,
                )

    def test_diagonal_singular_at_origin(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_g(p, 1, 1, np.zeros(2))


class TestRegularPart:
    def test_defining_identity(self):
        p = LayerParams(1.3, 0.9, 1.0, 0.5)
        for r in (0.1, 1.0, 3.0):
            lhs = -float(kernel_q(p, np.array([r]))[0]) - np.log(r)
            assert lhs == pytest.approx(special.k0(p.mu * r), abs=1e-12)

    def test_continuity_at_zero(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        a = float(kernel_q(p, np.array([1e-12]))[0])
        b = float(kernel_q(p, np.array([1e-10]))[0])
        assert abs(a - b) <= 1e-8
        assert a == pytest.approx(np.log(0.5 * p.mu) + bessel.EULER_GAMMA, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.3, 0.9, 2.0, 7.0])
    def test_continuous_across_series_switch(self, lam):
        # the last r with mu*r <= 2 takes the series form, the next float
        # the direct subtraction -K_0(mu r) - log(r)
        p = LayerParams(1.3, lam, 1.0, 0.5)
        r0 = 2.0 / p.mu
        while p.mu * r0 > 2.0:
            r0 = np.nextafter(r0, 0.0)
        r1 = np.nextafter(r0, np.inf)
        while p.mu * r1 <= 2.0:
            r1 = np.nextafter(r1, np.inf)
        q0, q1 = kernel_q(p, np.array([r0, r1]))
        assert abs(q1 - q0) <= 1e-13 * max(1.0, abs(q0))

    def test_difference_quotients_bounded(self):
        # Q is C^1 on (0, 1]: sampled difference quotients stay bounded
        p = LayerParams(2.0, 1.5, 1.0, 0.5)
        r = np.linspace(1e-6, 1.0, 2001)
        q = kernel_q(p, r)
        quot = np.abs(np.diff(q) / np.diff(r))
        assert np.max(quot) < 10.0


class TestVelocityKernels:
    def test_plus_direct_value(self):
        v = biot_savart_plus(np.array([1.0, 0.0]))
        assert v[0] == 0.0
        assert v[1] == pytest.approx(-1.0 / TWO_PI)

    def test_antisymmetry(self):
        pts = _ring(RNG.uniform(0.1, 3.0, 32), RNG.uniform(0, TWO_PI, 32))
        assert np.allclose(biot_savart_plus(-pts), -biot_savart_plus(pts))
        assert np.allclose(biot_savart_minus(-pts), -biot_savart_minus(pts))

    def test_plus_inverse_distance_bound(self):
        radii = 10.0 ** RNG.uniform(-6, 2, 2000)
        pts = _ring(radii, RNG.uniform(0, TWO_PI, 2000))
        mag = np.hypot(*biot_savart_plus(pts).T)
        assert np.all(mag * radii <= 1.0 / TWO_PI + 1e-15)

    def test_minus_near_origin_inverse_distance(self):
        # r K_1(r) -> 1, so |k_-| |p| stays bounded near the origin
        radii = 10.0 ** np.linspace(-6, 0, 40)
        pts = _ring(radii, np.zeros(40))
        mag = np.hypot(*biot_savart_minus(pts).T)
        assert np.all(mag * radii <= 1.0 + 1e-12)
        assert mag[0] * radii[0] == pytest.approx(1.0, abs=1e-6)

    def test_minus_far_decay(self):
        v = biot_savart_minus(np.array([30.0, 0.0]))
        assert np.hypot(*v) <= 1e-11

    def test_lipschitz_ratio_bound(self):
        # |k(x) - k(y)| <= C |x-y| / (|x||y|), frozen regression constant
        worst = 0.0
        for _ in range(4):
            rx = 10.0 ** RNG.uniform(-3, 1, 1500)
            ax = RNG.uniform(0, TWO_PI, 1500)
            ry = rx * RNG.uniform(0.5, 2.0, 1500)
            ay = ax + RNG.uniform(-0.5, 0.5, 1500)
            x, y = _ring(rx, ax), _ring(ry, ay)
            sep = np.hypot(*(x - y).T)
            ok = sep > 1e-12
            for f in (biot_savart_plus, biot_savart_minus):
                d = np.hypot(*(f(x) - f(y)).T)
                worst = max(worst, np.max(d[ok] * rx[ok] * ry[ok] / sep[ok]))
        assert worst <= 3.0


class TestLogLipschitzModulus:
    def test_pinned_values(self):
        assert log_lipschitz_ell(np.array([0.0]))[0] == 0.0
        assert log_lipschitz_ell(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
        assert log_lipschitz_ell(np.array([0.5]))[0] == pytest.approx(
            0.5 * np.log(2.0 * np.e)
        )
        assert log_lipschitz_ell(np.array([7.0]))[0] == 1.0

    @given(st.floats(min_value=0.0, max_value=5.0), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, a, b):
        lo, hi = sorted([a, b])
        va = float(log_lipschitz_ell(np.array([lo]))[0])
        vb = float(log_lipschitz_ell(np.array([hi]))[0])
        assert 0.0 <= va <= vb <= 1.0

    def test_concavity_on_grid(self):
        grid = np.linspace(0.0, 1.0, 501)
        vals = log_lipschitz_ell(grid)
        second = np.diff(vals, 2)
        assert np.all(second <= 1e-12)
