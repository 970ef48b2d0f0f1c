import re

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


def _i(n, x):
    return float(np.exp(B.log_bessel_i_orders(n, x)[n]))


def _k(n, x):
    return float(np.exp(B.log_bessel_k_orders(n, x)[n]))


class TestBesselI:
    """I_n as the top entry of a Miller sweep."""

    def test_series_oracle(self):
        # 40-term ascending series in extended precision
        assert _i(5, 2.5) == pytest.approx(bessel_i_series_mp(5, 2.5, terms=40), rel=1e-13)

    def test_accuracy_across_range(self):
        with mp.workdps(40):
            for n in (0, 1, 2, 7, 32, 128):
                for x in (0.05, 1.0, 12.0, 30.0, 50.0):
                    ref = float(mp.besseli(n, x))
                    if ref == 0.0:
                        continue
                    assert _i(n, x) == pytest.approx(ref, rel=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            B.log_bessel_i_orders(3, -1.0)


class TestBesselK:
    """K_n as the top entry of an upward sweep."""

    def test_small_argument_log_limit(self):
        # K_0(x) + log(x/2) I_0(x) -> Phi(1) = -gamma as x -> 0, at rate x^2
        devs = [abs(_k(0, x) + np.log(0.5 * x) * _i(0, x) + GAMMA) for x in (1e-3, 1e-5, 1e-7)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 1e-12

    def test_k1_matches_derivative_of_k0(self):
        # K_1 = -K_0', central difference at 1.0
        h = 1e-6
        fd = -(_k(0, 1.0 + h) - _k(0, 1.0 - h)) / (2 * h)
        assert _k(1, 1.0) == pytest.approx(fd, abs=1e-8)

    @pytest.mark.parametrize("x", [0.5, 2.0, 10.0])
    def test_wronskian_gate(self, x):
        # I_n K_{n+1} + I_{n+1} K_n = 1/x for n = 0..32, from one sweep each
        log_i, log_k = B.log_bessel_i_orders(33, x), B.log_bessel_k_orders(33, x)
        w = np.exp(log_i[:-1] + log_k[1:]) + np.exp(log_i[1:] + log_k[:-1])
        np.testing.assert_allclose(w * x, 1.0, rtol=0.0, atol=1e-10)

    def test_accuracy_across_range(self):
        with mp.workdps(40):
            for n in (0, 1, 2, 9, 31):
                for x in (0.01, 0.8, 2.9, 3.1, 20.0, 120.0):
                    ref = float(besselk(n, x))
                    assert _k(n, x) == pytest.approx(ref, rel=2e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            B.log_bessel_k_orders(0, 0.0)
        with pytest.raises(ValueError):
            B.log_bessel_k_orders(2, -1.0)


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

    def test_is_the_sweeps_top_entries(self):
        for n in (0, 1, 2, 17, 400):
            for x, y in ((0.05, 0.05), (3.0, 60.0), (60.0, 60.0)):
                want = np.exp(B.log_bessel_i_orders(n, x)[n] + B.log_bessel_k_orders(n, y)[n])
                assert B.bessel_ik_product(n, x, y) == want

    def test_negative_order_reduces(self):
        assert B.bessel_ik_product(-3, 0.8, 1.7) == B.bessel_ik_product(3, 0.8, 1.7)

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


class TestEconomizedTables:
    """Each ladder level's economized I_0 and regular-part tables against mpmath."""

    @pytest.mark.parametrize("level", range(B._LADDER_MIN, B._LADDER_MAX + 1))
    def test_level_against_mpmath(self, level):
        q_top = 2.0 ** (level / 2)
        q = np.linspace(0.0, q_top, 33)
        i0, regular = (B.horner(q, row) for row in B.series_coefficients(q_top).tolist())
        with mp.workdps(40):
            for qi, got_i0, got_reg in zip(q, i0, regular):
                z = 2 * mp.sqrt(mpf(float(qi)))
                ref_i0 = mp.besseli(0, z)
                ref_reg = besselk(0, z) + mplog(z) * ref_i0 if qi else mplog(2) - euler
                assert abs(got_i0 - float(ref_i0)) <= 1e-15 * float(ref_i0), qi
                assert abs(got_reg - float(ref_reg)) <= 1e-15 * float(ref_reg), qi

    def test_top_level_covers_split_guard(self):
        # the split refuses mu * chord > 12, that is q > 36
        assert 2.0 ** (B._LADDER_MAX / 2) >= 36.0

    def test_qmax_2_table_has_at_most_12_terms(self):
        assert B.series_coefficients(2.0).shape[1] <= 12


def horner_pair_stacked(q, coeffs):
    """The stacked form: one Horner pass of a (2, 1, ...) table over a (2, ...) array."""
    c = coeffs.reshape(coeffs.shape + (1,) * q.ndim)
    acc = np.multiply(c[:, -1], q)
    for m in range(coeffs.shape[1] - 2, 0, -1):
        acc += c[:, m]
        acc *= q
    acc += c[:, 0]
    return acc


class TestHornerPair:
    """The per-row Horner passes give the stacked pass's values bit for bit."""

    @pytest.mark.parametrize("q_top", [2.0, 2.0 ** (B._LADDER_MAX / 2)])
    @pytest.mark.parametrize("shape", [(256, 256), (256, 129), (65, 256), (1000,)])
    def test_bitwise_equal_to_stacked(self, q_top, shape):
        q = np.random.default_rng(7).uniform(0.0, q_top, shape)
        coeffs = B.series_coefficients(q_top)
        got = [B.horner(q, row) for row in coeffs.tolist()]
        want = horner_pair_stacked(q, coeffs)
        for row in range(2):
            assert got[row].shape == shape
            assert np.array_equal(got[row], want[row])


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

    def test_domain_errors(self):
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            with pytest.raises(ValueError):
                sweep(4, 0.0)
            with pytest.raises(ValueError):
                sweep(-1, 1.0)

    def test_just_below_the_bound_against_mpmath(self):
        # log I_n and log K_n are near +-x there: a few ulps of the log, so
        # about 1e-12 relative in I_n and K_n
        x = float(np.nextafter(B.SWEEP_X_MAX, 0.0))
        with mp.workdps(30):
            for sweep, ref_fn in ((B.log_bessel_i_orders, mp.besseli),
                                  (B.log_bessel_k_orders, mp.besselk)):
                got = sweep(4, x)
                for n in range(5):
                    ref = float(mplog(ref_fn(n, mpf(x))))
                    assert abs(got[n] - ref) <= 4 * np.spacing(abs(ref)), (sweep, n)

    def test_refuses_beyond_the_bound(self):
        # the Miller sweep runs about x/2 steps, so a huge x would hang it
        top = B.SWEEP_X_MAX
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            assert np.all(np.isfinite(sweep(4, top)))
            for bad in (float(np.nextafter(top, np.inf)), 1e10, 1e200):
                with pytest.raises(ValueError, match="SWEEP_X_MAX = 10000"):
                    sweep(4, bad)
                with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                    sweep(4, np.array([1.0, bad]))


class TestBatchedSweeps:
    """A 1-D array of x sweeps every radius at once, bit for bit the sweeps
    of each radius alone."""

    XS = np.array([0.01, 0.05, 0.3, 0.7, 1.0, 2.5, 7.0, 12.0, 20.0, 60.0])

    @staticmethod
    def _assert_rows_bitwise(sweep, n_max, xs):
        got = sweep(n_max, xs)
        assert got.shape == (xs.size, n_max + 1)
        for row, x in zip(got, xs.tolist()):
            assert np.array_equal(row, sweep(n_max, x)), (sweep.__name__, n_max, x)

    @pytest.mark.parametrize("n_max", [0, 1, 2, 16, 48, 400])
    @pytest.mark.parametrize("sweep", [B.log_bessel_i_orders, B.log_bessel_k_orders])
    def test_bitwise_equal_to_per_radius(self, sweep, n_max):
        self._assert_rows_bitwise(sweep, n_max, self.XS)

    def test_radii_enter_the_miller_sweep_at_different_starts(self):
        assert len(B._miller_seeds(16, self.XS)) >= 4
        self._assert_rows_bitwise(B.log_bessel_i_orders, 16, self.XS)

    def test_rescale_on_one_radius_only(self):
        # f_start = 1e-290 and f_0 / f_start = I_0 / I_start, so the I sweep
        # rescales (past 1e280) where I_0 / I_start > 1e570: at n_max = 400 it
        # does at x = 0.05, several times, and never at x = 60
        xs = np.array([0.05, 60.0])
        for x, rescales in zip(xs.tolist(), (True, False)):
            start = B._miller_seeds(400, x)[0][0]
            log_i = B.log_bessel_i_orders(start, x)
            assert ((log_i[0] - log_i[start]) / np.log(10.0) > 570.0) == rescales
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            self._assert_rows_bitwise(sweep, 400, xs)

    @pytest.mark.parametrize(
        "xs", [[0.5, 0.0], [-1.0, 2.0], [1.0, np.nan], [1.0, np.inf], [], [[1.0]], [1.0, 2e4]]
    )
    def test_rejects_bad_arrays(self, xs):
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            with pytest.raises(ValueError):
                sweep(4, np.array(xs))

    @pytest.mark.parametrize("x", [np.inf, np.nan])
    def test_rejects_non_finite_scalar(self, x):
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            with pytest.raises(ValueError):
                sweep(4, x)

    def test_scalar_input_keeps_one_dimension(self):
        for sweep in (B.log_bessel_i_orders, B.log_bessel_k_orders):
            assert sweep(5, np.float64(0.7)).shape == (6,)
            assert np.array_equal(sweep(5, np.array(0.7)), sweep(5, 0.7))


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
    vals = [_i(1, x) / x for x in xs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
