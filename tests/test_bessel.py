import numpy as np
import pytest
from mpmath import mp, besselk, euler, log as mplog, mpf

from qgpatch import bessel as B
from oracles import (
    I0_K0_SERIES_MAX_ARG,
    bessel_i_series_mp,
    i0_and_regular_part_termwise,
    i0_k0reg_series_mp,
    ik_product_oracle,
)

GAMMA = B.EULER_GAMMA


class TestBesselI:
    def test_origin_values(self):
        assert B.bessel_i(0, 0.0) == 1.0
        assert B.bessel_i(1, 0.0) == 0.0

    def test_series_oracle(self):
        # 40-term ascending series in extended precision
        assert B.bessel_i(5, 2.5) == pytest.approx(
            bessel_i_series_mp(5, 2.5, terms=40), rel=1e-13
        )

    def test_accuracy_across_range(self):
        with mp.workdps(40):
            for n in (0, 1, 2, 7, 32, 128):
                for x in (0.05, 1.0, 12.0, 30.0, 50.0):
                    ref = float(mp.besseli(n, x))
                    if ref == 0.0:
                        continue
                    assert B.bessel_i(n, x) == pytest.approx(ref, rel=1e-12)

    def test_overflow_is_an_error(self):
        with pytest.raises(OverflowError):
            B.bessel_i(0, 800.0)

    def test_negative_order_reduces(self):
        assert B.bessel_i(-3, 2.0) == B.bessel_i(3, 2.0)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            B.bessel_i(0, -1.0)


class TestBesselK:
    def test_small_argument_log_limit(self):
        # K_0(x) + log(x/2) I_0(x) -> Phi(1) = -gamma as x -> 0, at rate x^2
        devs = [
            abs(B.bessel_k(0, x) + np.log(0.5 * x) * B.bessel_i(0, x) + GAMMA)
            for x in (1e-3, 1e-5, 1e-7)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 1e-12

    def test_k1_matches_derivative_of_k0(self):
        # K_1 = -K_0', central difference at 1.0
        h = 1e-6
        fd = -(B.bessel_k(0, 1.0 + h) - B.bessel_k(0, 1.0 - h)) / (2 * h)
        assert B.bessel_k(1, 1.0) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_wronskian_gate(self, x):
        # I_n K_{n+1} + I_{n+1} K_n = 1/x
        for n in range(0, 33):
            w = B.bessel_i(n, x) * B.bessel_k(n + 1, x) + B.bessel_i(n + 1, x) * B.bessel_k(n, x)
            assert w * x == pytest.approx(1.0, abs=1e-10)

    def test_accuracy_across_range(self):
        with mp.workdps(40):
            for n in (0, 1, 2, 9, 31):
                for x in (0.01, 0.8, 2.9, 3.1, 20.0, 120.0):
                    ref = float(besselk(n, x))
                    assert B.bessel_k(n, x) == pytest.approx(ref, rel=2e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            B.bessel_k(0, 0.0)
        with pytest.raises(ValueError):
            B.bessel_k(2, -1.0)


class TestProduct:
    def test_positive(self):
        for n in range(1, 65):
            assert B.bessel_ik_product(n, 0.8, 1.7) > 0.0

    def test_decreasing_in_n_with_zero_limit(self):
        for x in (0.25, 1.0, 4.0, 16.0):
            vals = [B.bessel_ik_product(n, x, x) for n in range(1, 65)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        assert B.bessel_ik_product(64, 4.0, 4.0) < 1e-2

    def test_decreasing_in_x(self):
        xs = np.linspace(0.2, 18.0, 40)
        for n in (1, 3, 16):
            vals = [B.bessel_ik_product(n, x, x) for x in xs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_j0_integral_oracle(self):
        got = B.bessel_ik_product(3, 0.7, 1.3)
        ref = ik_product_oracle(3, 0.7, 1.3)
        assert got == pytest.approx(ref, rel=1e-8)

    def test_gap_bound_grid(self):
        # 0 < (x/y)^n/(2n) - I_n(x) K_n(y) <= 1/(2n)
        xs = np.linspace(0.2, 3.0, 10)
        for x in xs:
            for y in xs:
                if x > y:
                    continue
                for n in range(1, 33):
                    gap = (x / y) ** n / (2 * n) - B.bessel_ik_product(n, x, y)
                    assert 0.0 < gap <= 1.0 / (2 * n) + 1e-15

    def test_extreme_orders_no_underflow(self):
        v = B.bessel_ik_product(512, 0.5, 0.5)
        assert 0.0 < v < 1.0 / 1024 + 1e-12
        with mp.workdps(60):
            ref = float(mp.besseli(512, 0.5) * mp.besselk(512, 0.5))
        assert v == pytest.approx(ref, rel=1e-11)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            B.bessel_ik_product(3, 2.0, 1.0)
        with pytest.raises(ValueError):
            B.bessel_ik_product(3, 0.0, 1.0)


class TestArrayEvaluators:
    """Orders 0/1 over arrays and the regular-part series against mpmath."""

    # both sides of the series / scipy.special.k0 switch at z = 3, and the
    # K_0 arguments of the shipped workloads, [0.42, 2.43]
    ZS = np.array([1e-6, 0.01, 0.42, 1.0, 2.43, 2.999, 3.0, 3.001, 6.0, 12.0, 40.0])

    @staticmethod
    def _assert_close(got, ref_fn):
        with mp.workdps(40):
            for z, value in zip(TestArrayEvaluators.ZS, got):
                ref = float(ref_fn(mpf(float(z))))
                assert abs(value - ref) <= 1e-13 * abs(ref), z

    def test_k0_array(self):
        self._assert_close(B.k0_array(self.ZS), lambda z: besselk(0, z))

    def test_k1_array(self):
        self._assert_close(B.k1_array(self.ZS), lambda z: besselk(1, z))

    def test_i0_array(self):
        self._assert_close(B.i0_array(self.ZS), lambda z: mp.besseli(0, z))

    def test_i0_and_regular_part(self):
        i0, reg = B.i0_and_regular_part(self.ZS)
        self._assert_close(i0, lambda z: mp.besseli(0, z))
        self._assert_close(reg, lambda z: besselk(0, z) + mplog(z) * mp.besseli(0, z))


    def test_horner_series_matches_termwise_sum(self):
        # the in-place Horner evaluation against the term-by-term reference
        z = np.linspace(0.0, 12.0, 1201)
        for got, want in zip(B.i0_and_regular_part(z), i0_and_regular_part_termwise(z)):
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


class TestOrderSweeps:
    """One sweep of top order 512 gives log I_n, log K_n for every n <= 512."""

    XS = (0.05, 0.5, 3.0, 12.0, 60.0)
    ORDERS = (*range(8), 63, 200, 399, 400, 511, 512)
    TOP = 512

    @staticmethod
    def _assert_logs_match(got, ref_fn, x):
        with mp.workdps(30):
            for n in TestOrderSweeps.ORDERS:
                ref = float(mplog(ref_fn(n, mpf(x))))
                assert abs(got[n] - ref) <= 1e-13 * max(1.0, abs(ref)), (n, x)

    @pytest.mark.parametrize("x", XS)
    def test_log_i_against_mpmath(self, x):
        # at x = 0.05 the sweep passes the 1e280 rescale many times
        self._assert_logs_match(B.log_bessel_i_orders(self.TOP, x), mp.besseli, x)

    @pytest.mark.parametrize("x", XS)
    def test_log_k_against_mpmath(self, x):
        self._assert_logs_match(B.log_bessel_k_orders(self.TOP, x), mp.besselk, x)

    def test_scalar_is_the_top_entry(self):
        for n in (0, 1, 2, 17, 400):
            for x in (0.05, 3.0, 60.0):
                assert B.log_bessel_i(n, x) == B.log_bessel_i_orders(n, x)[n]
                assert B.log_bessel_k(n, x) == B.log_bessel_k_orders(n, x)[n]

    def test_domain_errors(self):
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            with pytest.raises(ValueError):
                sweep(4, 0.0)
            with pytest.raises(ValueError):
                sweep(-1, 1.0)


class TestOracleSeries:
    """The 40-digit I_0 / K_0 series behind criterion 2's oracle against mpmath."""

    POINTS = (1e-6, 1e-3, 0.05, 0.3, 0.7, 1.0, 1.5, 2.0, 2.7, 3.3, 4.0,
              I0_K0_SERIES_MAX_ARG)

    def test_matches_mpmath(self):
        for w in self.POINTS:
            with mp.workdps(40):
                i0, reg = i0_k0reg_series_mp(mpf(repr(w)))
            with mp.workdps(60):
                wm = mpf(repr(w))
                ref_i0 = mp.besseli(0, wm)
                ref_reg = besselk(0, wm) + mplog(wm) * ref_i0
                assert abs(i0 - ref_i0) <= 1e-35 * abs(ref_i0), w
                assert abs(reg - ref_reg) <= 1e-35 * abs(ref_reg), w

    def test_origin_value(self):
        with mp.workdps(40):
            i0, reg = i0_k0reg_series_mp(mpf(0))
            assert i0 == 1
            assert abs(reg - (mplog(2) - euler)) <= mpf(10) ** -39

    def test_rejects_argument_beyond_checked_range(self):
        with mp.workdps(40):
            with pytest.raises(ValueError):
                i0_k0reg_series_mp(mpf(I0_K0_SERIES_MAX_ARG) + mpf("1e-9"))
            with pytest.raises(ValueError):
                i0_k0reg_series_mp(mpf(-1))


class TestPhi:
    def test_values(self):
        assert B.phi_harmonic(1) == pytest.approx(1.0 - GAMMA, abs=1e-16)
        assert B.phi_harmonic(2) == pytest.approx(1.5 - GAMMA, abs=1e-16)

    def test_direct_sum(self):
        h10 = sum(1.0 / k for k in range(1, 11))
        assert B.phi_harmonic(10) == pytest.approx(h10 - GAMMA, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            B.phi_harmonic(-1)


def test_i1_over_x_strictly_increasing():
    xs = np.linspace(0.05, 20.0, 120)
    vals = [B.bessel_i(1, x) / x for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
