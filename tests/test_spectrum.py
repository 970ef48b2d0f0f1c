import dataclasses
import json

import numpy as np
import pytest
from mpmath import mp

from qgpatch import cli
from qgpatch import spectrum as S
from qgpatch.bessel import bessel_ik_product, log_bessel_i_orders, log_bessel_k_orders
from qgpatch.kernels import LayerParams
from qgpatch.quadrature import NumericFailure

from oracles import (
    collision_root_mp,
    collision_scan_per_cell,
    spectrum_over_b2_per_radius,
    spectrum_row_mp,
)

BASE = LayerParams(1.0, 1.0, 1.0, 0.7)

# (delta, lambda, b2) grid with b1 = 1 and delta >= (b2/b1)^2
GRID = [
    LayerParams(d, lam, 1.0, b2)
    for d in (0.5, 1.0, 2.0, 10.0)
    for b2 in (0.3, 0.55, 0.7, 0.95)
    for lam in (0.5, 1.0)
    if d >= b2 * b2
]


class TestMeanFlow:
    def test_equal_radii_value(self):
        mf = S.spectrum_arrays(LayerParams(3.0, 0.8, 1.2, 1.2), 1)
        assert mf.v == -0.5
        assert mf.w == -0.5

    def test_signs_on_grid(self):
        for p in GRID:
            mf = S.spectrum_arrays(p, 1)
            assert mf.v < 0.0
            assert mf.w < 0.0

    def test_large_delta_limit(self):
        # delta/(1+delta) -> 1: W approaches the bracket with unit weight
        p = LayerParams(1e6, 1.0, 1.0, 0.6)
        mu = p.mu
        bracket = bessel_ik_product(1, 0.6 * mu, 0.6 * mu) - bessel_ik_product(
            1, 0.6 * mu, mu
        ) / p.b
        limit = -0.5 - bracket
        assert S.spectrum_arrays(p, 1).w == pytest.approx(limit, abs=1e-5)

    @pytest.mark.parametrize("n_max", [1, 16])
    def test_bitwise_the_scalar_products(self, n_max):
        # V, W and the branch gap from the sweeps equal those from three
        # scalar order-1 products through the same formula, bit for bit
        points = GRID + [LayerParams(d, 1.0, 1.0, 1.0) for d in (0.5, 2.0)]
        for p in points:
            x1, x2 = p.b1 * p.mu, p.b2 * p.mu
            mf = S._mean_flow(p.delta, p.b, bessel_ik_product(1, x1, x1),
                              bessel_ik_product(1, x2, x2), bessel_ik_product(1, x2, x1))
            spec = S.spectrum_arrays(p, n_max)
            assert (spec.v, spec.w) == (mf.v, mf.w)
            assert S.a_inf_minus_b_inf(p) == (p.delta + 1.0) * (mf.v - mf.w)


class TestCoefficients:
    def test_nonpositive_and_nonincreasing(self):
        for p in (BASE, LayerParams(2.0, 0.5, 1.0, 0.4)):
            spec = S.spectrum_arrays(p, 64)
            for row in (spec.a_n, spec.b_n):
                assert np.all(row <= 0.0)
                assert np.all(row[:-1] >= row[1:] - 1e-15)

    def test_symmetric_case(self):
        spec = S.spectrum_arrays(LayerParams(1.0, 1.0, 1.3, 1.3), 17)
        for n in (1, 2, 5, 17):
            assert spec.a_n[n - 1] == pytest.approx(spec.b_n[n - 1], abs=1e-16)

    def test_tail_approach_to_limits(self):
        # (A_inf, B_inf) = (d+1) (V, W)
        p = BASE
        spec = S.spectrum_arrays(p, 64)
        a64, b64 = spec.a_n[63], spec.b_n[63]
        a_inf, b_inf = (p.delta + 1.0) * spec.v, (p.delta + 1.0) * spec.w
        tail_a = p.delta / 128.0 + bessel_ik_product(64, p.b1 * p.mu, p.b1 * p.mu)
        tail_b = 1.0 / 128.0 + p.delta * bessel_ik_product(64, p.b2 * p.mu, p.b2 * p.mu)
        assert a64 - a_inf == pytest.approx(tail_a, rel=1e-12)
        assert b64 - b_inf == pytest.approx(tail_b, rel=1e-12)
        assert abs(a64 - a_inf) <= 1.0 / 64 + 1e-12

    def test_branch_gap_closed_form(self):
        for p in GRID:
            mf = S.spectrum_arrays(p, 1)
            direct = (p.delta + 1.0) * mf.v - (p.delta + 1.0) * mf.w
            assert S.a_inf_minus_b_inf(p) == pytest.approx(direct, abs=1e-13)
            if p.b2 < p.b1:
                assert S.a_inf_minus_b_inf(p) > 0.0
        assert abs(S.a_inf_minus_b_inf(LayerParams(2.0, 1.0, 1.3, 1.3))) <= 1e-14


class TestGamma:
    def test_bounds_and_monotone(self):
        n = np.arange(1, 65)
        for p in (BASE, LayerParams(4.0, 2.0, 1.0, 0.3)):
            vals = S.spectrum_arrays(p, 64).gamma_n
            assert np.all((vals > 0.0) & (vals <= 1.0 / (2 * n) + 1e-16))
            assert np.all(vals[:-1] > vals[1:])
        assert S.spectrum_arrays(BASE, 64).gamma_n[63] <= 1.0 / 128


class TestMatrixAndBranches:
    def test_determinant_vanishes_at_branches(self):
        for p in GRID:
            for n in (1, 2, 3, 8, 32):
                lo, hi = S.omega_pm(p, n)
                for omega in (lo, hi):
                    mat = S.matrix_m(p, n, omega)
                    assert abs(np.linalg.det(mat)) <= 1e-12 * np.linalg.norm(mat) ** 2

    def test_trace_identity(self):
        # Tr M_m(Omega_m^pm) = pm (Omega_m^+ - Omega_m^-): transversality
        modes = np.array([1, 2, 5, 17])
        for p in GRID:
            spec = S.spectrum_arrays(p, 17)
            lo, hi = spec.omega_minus, spec.omega_plus
            for omega, sign in ((lo, -1), (hi, 1)):
                trace = np.trace(spec.matrix_m(omega), axis1=1, axis2=2)
                assert np.all(np.abs(trace - sign * (hi - lo))[modes - 1] <= 1e-12)

    def test_symmetric_matrix_when_layers_match(self):
        p = LayerParams(1.0, 1.0, 1.1, 1.1)
        mat = S.matrix_m(p, 3, 0.2)
        assert mat[0, 1] == pytest.approx(mat[1, 0], abs=1e-16)

    def test_equal_radii_closed_form(self):
        for d in (0.5, 1.0, 2.0, 10.0):
            p = LayerParams(d, 1.0, 1.0, 1.0)
            for n in range(1, 33):
                lo, hi = S.omega_pm(p, n)
                assert hi == pytest.approx(
                    0.5 - bessel_ik_product(n, p.mu, p.mu), abs=1e-12
                )
                assert lo == pytest.approx(0.5 - 0.5 / n, abs=1e-12)

    def test_equal_radii_mode_one_is_zero(self):
        p = LayerParams(3.0, 0.7, 0.9, 0.9)
        assert S.omega_pm(p, 1)[0] == pytest.approx(0.0, abs=1e-15)

    def test_unit_parameters_mode_one(self):
        # b1 = b2 = mu = 1 requires lambda = 1/sqrt(1+delta)
        delta = 1.0
        p = LayerParams(delta, 1.0 / np.sqrt(2.0), 1.0, 1.0)
        assert p.mu == pytest.approx(1.0, abs=1e-16)
        with mp.workdps(40):
            i1k1 = float(mp.besseli(1, 1) * mp.besselk(1, 1))
        assert S.omega_pm(p, 1)[1] == pytest.approx(0.5 - i1k1, abs=1e-13)

    def test_branches_strictly_increasing(self):
        for p in GRID:
            rows = S.spectrum_table(p, 64)
            lo = [r.omega_minus for r in rows]
            hi = [r.omega_plus for r in rows]
            assert all(b > a for a, b in zip(lo, lo[1:]))
            assert all(b > a for a, b in zip(hi, hi[1:]))


class TestKernelVector:
    def test_annihilation_on_grid(self):
        for p in GRID:
            for m in (1, 2, 3, 9):
                for sign in (1, -1):
                    vec = S.kernel_vector(p, m, sign)
                    lo, hi = S.omega_pm(p, m)
                    mat = S.matrix_m(p, m, hi if sign == 1 else lo)
                    assert np.linalg.norm(mat @ vec) <= 1e-12 * np.linalg.norm(mat)

    def test_equal_radii_minus_branch_direction(self):
        p = LayerParams(1.5, 1.0, 1.0, 1.0)
        vec = S.kernel_vector(p, 3, -1)
        assert vec[0] == pytest.approx(vec[1], rel=1e-10)

    def test_first_component_positive(self):
        for p in GRID[:6]:
            for sign in (1, -1):
                assert S.kernel_vector(p, 2, sign)[0] > 0.0


class TestCollisions:
    def test_scan_finds_known_root(self):
        recs = S.collision_scan(LayerParams(1.0, 1.0, 1.0, 0.5), 3, n_max=8, grid=48)
        assert len(recs) == 1
        assert recs[0].n == 2
        assert recs[0].residual <= 1e-12
        root = collision_root_mp(1.0, 1.0, 1.0, 3, 2, 0.7777)
        assert abs(recs[0].b2_root - root) <= 1e-11  # 1e-11 * b1, b1 = 1

    def test_high_pairs_never_collide(self):
        # Omega_n^+ > Omega_m^- once both indices clear a finite threshold
        base = LayerParams(1.0, 1.0, 1.0, 0.5)
        for b2 in np.linspace(0.05, 0.95, 7):
            p = LayerParams(1.0, 1.0, 1.0, b2)
            a_inf = (p.delta + 1.0) * S.spectrum_arrays(p, 1).v
            lim_minus = -a_inf / (p.delta + 1.0)
            p0 = next(
                n for n in range(1, 65) if S.omega_pm(p, n)[1] > lim_minus
            )
            assert p0 <= 64
            hi_p0 = S.omega_pm(p, p0)[1]
            for m in range(p0, 65, 7):
                assert hi_p0 > S.omega_pm(p, m)[0]

    @pytest.mark.parametrize("m,n_max", [(3, 8), (4, 8), (5, 3)])
    def test_scan_roots_are_scalar_roots(self, m, n_max):
        base = LayerParams(1.0, 1.0, 1.0, 0.5)
        recs = S.collision_scan(base, m, n_max=n_max, grid=48)
        assert recs
        for r in recs:
            p = LayerParams(1.0, 1.0, 1.0, r.b2_root)
            assert abs(S.omega_pm(p, m)[0] - S.omega_pm(p, r.n)[1]) <= 2e-12
        if m > n_max:
            # partners below m only: the evaluations still reach order m
            assert sorted(r.n for r in recs) == [2, 3]

    # (params, m, n_max) -> records: one root, roots of several partners, two
    # roots of n = 2; m = 1, whose Omega_1^- lies below every Omega_n^+;
    # delta = 4 with a grid pass to order 24, bare and with two roots; two
    # roots of n = 2 and one of n = 1 under strong screening (lambda = 6)
    SCANS = {
        (LayerParams(1.0, 1.0, 1.0, 0.5), 3, 8): 1,
        (LayerParams(1.0, 1.0, 1.0, 0.5), 5, 16): 3,
        (LayerParams(0.1, 3.0, 1.0, 0.5), 3, 8): 3,
        (LayerParams(1.0, 1.0, 1.0, 0.5), 1, 8): 0,
        (LayerParams(4.0, 1.0, 1.0, 0.5), 2, 24): 0,
        (LayerParams(4.0, 1.0, 1.0, 0.5), 4, 24): 2,
        (LayerParams(0.1, 6.0, 1.0, 0.5), 5, 16): 3,
    }

    @pytest.mark.parametrize("params,m,n_max", SCANS)
    def test_records_equal_per_cell_scan(self, params, m, n_max):
        recs = S.collision_scan(params, m, n_max=n_max, grid=48)
        assert len(recs) == self.SCANS[params, m, n_max]
        assert recs == collision_scan_per_cell(params, m, n_max, 48)

    def test_refinement_builds_no_spectrum_row(self, monkeypatch):
        # the grid pass is the scan's one _spectrum_rows call; every
        # refinement step evaluates its two modes on floats
        rows, steps = S._spectrum_rows, []
        illinois = S._illinois

        def counted_rows(*args):
            steps.append("rows")
            return rows(*args)

        def counted_illinois(f, *args):
            return illinois(lambda x: steps.append("step") or f(x), *args)

        monkeypatch.setattr(S, "_spectrum_rows", counted_rows)
        monkeypatch.setattr(S, "_illinois", counted_illinois)
        for (params, m, n_max), count in self.SCANS.items():
            steps.clear()
            assert len(S.collision_scan(params, m, n_max=n_max, grid=48)) == count
            assert steps.count("rows") == 1 and steps[0] == "rows"
            assert steps.count("step") >= count

    def test_two_roots_of_one_partner(self):
        params = LayerParams(0.1, 3.0, 1.0, 0.5)
        recs = [r for r in S.collision_scan(params, 3, n_max=8, grid=48) if r.n == 2]
        assert len(recs) == 2 and not any(r.tangency for r in recs)
        for r in recs:
            assert r.residual <= 1e-12
            p = LayerParams(0.1, 3.0, 1.0, r.b2_root)
            assert abs(S.omega_pm(p, 3)[0] - S.omega_pm(p, 2)[1]) <= 2e-12

    def test_exact_zero_gap_is_a_root_at_the_grid_point(self, monkeypatch):
        # put Omega_2^+ on Omega_3^- at the grid point left of the root
        base, grid = LayerParams(1.0, 1.0, 1.0, 0.5), 48
        (root,) = S.collision_scan(base, 3, n_max=8, grid=grid)
        ts = np.linspace(0.5 / grid, 1.0 - 0.5 / grid, grid) * base.b1
        i = int(np.searchsorted(ts, root.b2_root)) - 1
        over_b2 = S._over_b2

        def touched(params_base, b2, n_max):
            rows, log_b1 = over_b2(params_base, b2, n_max)
            rows[4][i, 1] = rows[3][i, 2]
            return rows, log_b1

        monkeypatch.setattr(S, "_over_b2", touched)
        monkeypatch.setattr(S, "_illinois", lambda *args: pytest.fail("refined a zero"))
        assert S.collision_scan(base, 3, n_max=8, grid=grid) == [
            S.CollisionRecord(3, 2, float(ts[i]), 0.0)
        ]

    def test_monotone_exclusion(self):
        # partners with Omega_n^+ entirely above Omega_m^- produce no records
        recs = S.collision_scan(LayerParams(1.0, 1.0, 1.0, 0.5), 4, n_max=8, grid=48)
        assert all(r.n < 4 for r in recs)

    def test_equal_radius_example(self):
        for n in (2, 3):
            x0 = S.equal_radius_collision_argument(n)
            assert abs(bessel_ik_product(1, x0, x0) - 0.5 / n) <= 1e-12
            p = LayerParams(1.0, 1.0, x0 / np.sqrt(2.0), x0 / np.sqrt(2.0))
            assert S.omega_pm(p, 1)[1] == pytest.approx(S.omega_pm(p, n)[0], abs=1e-10)


class TestTwoModes:
    """``omega_minus_plus`` against the one-radius ``_spectrum_rows`` row, bit for bit."""

    B2_OVER_B1 = (0.01, 0.3, 0.5, 0.77, 0.999, 1.0)

    @pytest.mark.parametrize("d,lam", [(1.0, 1.0), (0.1, 3.0), (4.0, 1.0), (0.5, 6.0),
                                       (10.0, 0.1)])
    @pytest.mark.parametrize("m,n", [(3, 2), (5, 1), (2, 7), (1, 2), (3, 24), (24, 3)])
    @pytest.mark.parametrize("b1", [1.0, 0.6])
    def test_equals_the_row(self, d, lam, m, n, b1):
        top = max(m, n)
        for b2 in (b1 * t for t in self.B2_OVER_B1):
            p = LayerParams(d, lam, b1, b2)
            x1, x2 = b1 * p.mu, b2 * p.mu
            lo, hi = S._spectrum_rows(
                p, np.array([b2]),
                (log_bessel_i_orders(top, x1), log_bessel_k_orders(top, x1)),
                (log_bessel_i_orders(top, x2)[None], log_bessel_k_orders(top, x2)[None]),
            )[3:5]
            got = S.omega_minus_plus(p, m, n)
            assert got == (float(lo[0, m - 1]), float(hi[0, n - 1]))
            assert all(type(v) is float for v in got)
            spec = S.spectrum_arrays(p, top)
            assert got == (spec.omega(m, -1), spec.omega(n, 1))

    def test_refuses_mode_zero(self):
        for m, n in ((0, 2), (2, 0)):
            with pytest.raises(ValueError):
                S.omega_minus_plus(BASE, m, n)


class TestCollisionFreeThreshold:
    """``first_collision_free_m``: the certified thresholds and their km partners."""

    N_MAX = 256
    # (delta, lambda, b2) with b1 = 1 -> (plus, minus) thresholds at n_max = 256
    EXPECTED = {
        (1.0, 1.0, 0.5): (4, 2),
        (0.3, 3.0, 0.5): (2, 1),
        (3.0, 0.3, 0.5): (8, 4),
        (10.0, 1.0, 0.5): (2, 1),
        (1.0, 0.1, 0.5): (58, 29),
        (0.5, 5.0, 0.5): (2, 1),
        (1.0, 1.0, 0.9): (17, 9),
    }

    @pytest.mark.parametrize("point", EXPECTED, ids=str)
    def test_thresholds(self, point):
        d, lam, b2 = point
        got = S.first_collision_free_m(LayerParams(d, lam, 1.0, b2), self.N_MAX)
        assert got == self.EXPECTED[point]

    @pytest.mark.parametrize("point", EXPECTED, ids=str)
    def test_every_km_gap_positive_from_threshold(self, point):
        d, lam, b2 = point
        plus, minus = self.EXPECTED[point]
        spec = S.spectrum_arrays(LayerParams(d, lam, 1.0, b2), self.N_MAX)
        for first, sign in ((plus, 1), (minus, -1)):
            for m in range(first, self.N_MAX // 2 + 1):
                for km in range(2 * m, self.N_MAX + 1, m):
                    gap = sign * (spec.omega(m, sign) - spec.omega(km, -sign))
                    assert gap > 0.0, (sign, m, km)

    def test_not_reached_within_rows(self):
        # both thresholds at (1, 0.1, 0.5) read Omega_58^+
        low_screening = LayerParams(1.0, 0.1, 1.0, 0.5)
        assert S.first_collision_free_m(low_screening, 58) == (58, 29)
        assert S.first_collision_free_m(low_screening, 57) == (None, None)

    def test_broken_certificate_names_the_row(self, monkeypatch):
        arrays = S.spectrum_arrays

        def dented(params, n_max):
            spec = arrays(params, n_max)
            omega_plus = spec.omega_plus.copy()
            omega_plus[4] = omega_plus[3]  # Omega_5^+ no longer increases
            return dataclasses.replace(spec, omega_plus=omega_plus)

        monkeypatch.setattr(S, "spectrum_arrays", dented)
        with pytest.raises(NumericFailure, match="row n = 5 "):
            S.first_collision_free_m(LayerParams(1.0, 1.0, 1.0, 0.5), 16)


class TestSpectrumArrays:
    """The array evaluator against the scalar API, mode by mode."""

    POINTS = [
        LayerParams(d, lam, 1.0, b2)
        for d in (0.5, 1.0, 3.0)
        for lam in (0.05, 1.0, 20.0)
        for b2 in (0.1, 0.5, 0.95, 1.0)
    ]
    N_MAX = 64

    @pytest.mark.parametrize("p", POINTS, ids=lambda p: f"{p.delta}-{p.lam}-{p.b2}")
    def test_matches_scalar_api(self, p):
        # M_n(0) = [[A_n, gamma_n], [d gamma_n, B_n]] / (d+1), entry by entry
        spec = S.spectrum_arrays(p, self.N_MAX)
        blocks = spec.matrix_m(0.0)
        for n in range(1, self.N_MAX + 1):
            want = S.matrix_m(p, n, 0.0)
            got = blocks[n - 1]
            np.testing.assert_allclose(np.diag(got), np.diag(want), rtol=1e-12, atol=0.0)
            # gamma_n cancels down from b^n/(2n); compare on that scale
            scale = p.b ** n / (2 * n)
            assert np.all(np.abs(got[[0, 1], [1, 0]] - want[[0, 1], [1, 0]]) <= 1e-12 * scale)
            lo, hi = S.omega_pm(p, n)
            np.testing.assert_allclose(
                [spec.omega_minus[n - 1], spec.omega_plus[n - 1]], [lo, hi], rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize("p", [
        LayerParams(1.0, 1.0, 1.0, 1.0),
        LayerParams(0.5, 20.0, 1.0, 0.95),
        LayerParams(3.0, 20.0, 1.0, 0.1),
        LayerParams(3.0, 0.05, 1.0, 0.1),
        LayerParams(1.0, 1.0, 1.0, 0.7),
    ], ids=lambda p: f"{p.delta}-{p.lam}-{p.b2}")
    def test_rows_match_mpmath(self, p):
        spec = S.spectrum_arrays(p, 48)
        rows = (spec.a_n, spec.b_n, spec.gamma_n, spec.omega_minus, spec.omega_plus)
        for n in (1, 2, 3, 16, 48):
            want = spectrum_row_mp(p.delta, p.lam, p.b1, p.b2, n)
            for got, ref in zip(rows, want):
                assert abs(got[n - 1] - float(ref)) <= 1e-13, n

    def test_accessors_refuse_modes_outside_rows(self):
        spec = S.spectrum_arrays(BASE, 4)
        for accessor in (spec.omega, spec.kernel_vector):
            for m, sign in ((0, 1), (5, -1), (2, 0)):
                with pytest.raises(ValueError):
                    accessor(m, sign)

    def test_accessors_read_the_rows(self):
        spec = S.spectrum_arrays(BASE, 4)
        assert spec.omega(3, 1) == spec.omega_plus[2]
        assert spec.omega(3, -1) == spec.omega_minus[2]
        for m in (1, 2, 3):
            for sign in (1, -1):
                assert np.array_equal(
                    S.kernel_vector(BASE, m, sign), S.spectrum_arrays(BASE, m).kernel_vector(m, sign)
                )

    def test_matrix_blocks(self):
        spec = S.spectrum_arrays(BASE, 8)
        blocks = spec.matrix_m(0.3)
        assert blocks.shape == (8, 2, 2)
        for n in range(1, 9):
            np.testing.assert_allclose(blocks[n - 1], S.matrix_m(BASE, n, 0.3), rtol=1e-12)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            S.spectrum_arrays(BASE, 0)

    @pytest.mark.parametrize("n_max", [1, N_MAX])
    def test_b2_vector_matches_per_point_rows(self, n_max):
        for d, lam in {(p.delta, p.lam) for p in self.POINTS}:
            points = [p for p in self.POINTS if (p.delta, p.lam) == (d, lam)]
            rows = S.spectrum_over_b2(points[0], [p.b2 for p in points], n_max)
            for i, p in enumerate(points):
                spec = S.spectrum_arrays(p, n_max)
                for got, want in zip(rows, (spec.a_n, spec.b_n, spec.gamma_n,
                                            spec.omega_minus, spec.omega_plus)):
                    assert np.array_equal(got[i], want)

    @pytest.mark.parametrize("n_max", [1, 16, 64])
    def test_batched_rows_equal_per_radius_rows(self, n_max):
        b2 = np.linspace(0.05, 1.0, 2 * S.BATCH_RADII)
        got = S.spectrum_over_b2(BASE, b2, n_max)
        for g, w in zip(got, spectrum_over_b2_per_radius(BASE, b2, n_max), strict=True):
            assert np.array_equal(g, w)

    def test_rejects_radius_outside_disc(self):
        for b2 in ([0.5, 0.0], [1.5], []):
            with pytest.raises(ValueError):
                S.spectrum_over_b2(BASE, b2, 4)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_scan_evaluation_count(self, m, monkeypatch):
        # the grid is one I sweep and one K sweep over b1 mu and all 48 radii;
        # a refinement step sweeps one b2 mu, reusing the b1 mu sweeps, and
        # an I sweep at b1 mu of a lower top order is made once per order
        base = LayerParams(1.0, 1.0, 1.0, 0.5)
        calls = {}

        def counted(name):
            sweep, calls[name] = getattr(S, name), []

            def wrapper(n_max, x):
                calls[name].append((n_max, np.size(x), x))
                return sweep(n_max, x)

            monkeypatch.setattr(S, name, wrapper)

        counted("log_bessel_i_orders")
        counted("log_bessel_k_orders")
        recs = S.collision_scan(base, m, n_max=16, grid=48)
        assert recs
        (grid_i, *rest_i), (grid_k, *steps) = calls.values()
        assert grid_i[:2] == grid_k[:2] == (16, 49)
        # b1 mu = mu at b1 = 1
        assert steps and all(size == 1 and x != base.mu for _, size, x in steps)
        assert len(steps) <= 6 * len(recs)
        b1_orders = [n_max for n_max, _, x in rest_i if x == base.mu]
        assert len(rest_i) == len(steps) + len(b1_orders)
        assert len(set(b1_orders)) == len(b1_orders) and 16 not in b1_orders


class TestTableAndSerialization:
    def test_single_row(self):
        rows = S.spectrum_table(BASE, 1)
        assert len(rows) == 1 and rows[0].n == 1

    def test_rows_sorted_and_complete(self):
        rows = S.spectrum_table(BASE, 12)
        assert [r.n for r in rows] == list(range(1, 13))
        for r in rows:
            assert r.omega_minus <= r.omega_plus
            assert np.isfinite([r.a_n, r.b_n, r.gamma_n]).all()

    # the CLI writes the rows and records through its one CSV and JSON writers

    def test_csv_header_and_roundtrip_precision(self, tmp_path):
        rows = S.spectrum_table(BASE, 3)
        cli._write_records(tmp_path / "spectrum.csv", S.SpectrumRow, rows)
        lines = (tmp_path / "spectrum.csv").read_text().strip().split("\n")
        assert lines[0] == "n,a_n,b_n,gamma_n,omega_minus,omega_plus"
        assert lines[1].split(",")[0] == "1"
        got = float(lines[1].split(",")[4])
        assert got == rows[0].omega_minus  # 17 significant digits round-trip

    def test_json_fields(self, tmp_path):
        assert cli.main(["spectrum", "--b2", "0.7", "--nmax", "2", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert len(payload) == 2
        assert set(payload[0]) == {
            "n", "a_n", "b_n", "gamma_n", "omega_minus", "omega_plus",
        }
        assert payload[1] == dataclasses.asdict(S.spectrum_table(BASE, 2)[1])

    def test_collision_json(self, tmp_path):
        assert cli.main(["collide", "--m", "3", "--nmax", "6", "--b2", "0.5", "--grid", "32",
                         "--out", str(tmp_path)]) == 0
        recs = S.collision_scan(LayerParams(1.0, 1.0, 1.0, 0.5), 3, n_max=6, grid=32)
        payload = json.loads((tmp_path / "collide.json").read_text())
        assert payload["schema_version"] == 2
        assert payload["records"] == [
            {**dataclasses.asdict(r), "proven_regime": 1.0 >= r.b2_root**2} for r in recs
        ]
        lines = (tmp_path / "collide.csv").read_text().strip().split("\n")
        assert lines[0] == "m,n,b2_root,residual,tangency"
        assert [float(v) for v in lines[1].split(",")] == [
            recs[0].m, recs[0].n, recs[0].b2_root, recs[0].residual, int(recs[0].tangency)
        ]
