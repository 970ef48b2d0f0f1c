import tracemalloc

import numpy as np
import pytest

import oracles as O
from qgpatch import contour as C
from qgpatch import quadrature as Q
from qgpatch.bessel import bessel_ik_product
from qgpatch.kernels import LayerParams, gkj_coefficients

N = 256
THETA = 2 * np.pi * np.arange(N) / N


def circle(radius):
    return radius * np.exp(1j * THETA)


class TestLogWeights:
    @pytest.mark.parametrize("n", [1, 2, 7, 63, 127, 128])
    def test_exact_on_cosines(self, n):
        # int log(2|sin((t-e)/2)|) cos(ne) de = -(pi/n) cos(nt)
        w, _ = Q._grid_tables(N)
        i, j = np.indices((N, N))
        got = w[(j - i) % N] @ np.cos(n * THETA)
        assert np.allclose(got, -(np.pi / n) * np.cos(n * THETA), atol=3e-13)

    def test_zero_mean(self):
        w, _ = Q._grid_tables(N)
        assert abs(np.sum(w)) < 1e-13

    @pytest.mark.parametrize("n", [4, 6, 64, N, 2048])
    def test_rows_mirror_symmetric(self, n):
        # row[d] == row[n - d] bit for bit: the half-band build relies on it
        for row in Q._grid_tables(n):
            assert np.array_equal(row[1:], row[:0:-1])


class TestSpectralDerivative:
    def test_trig_polynomial(self):
        f = 2.0 * np.cos(3 * THETA) - 0.5 * np.sin(7 * THETA)
        df = -6.0 * np.sin(3 * THETA) - 3.5 * np.cos(7 * THETA)
        assert np.allclose(Q.spectral_derivative(f), df, atol=1e-12)
        # odd N: |k| = N // 2 is a paired mode, not the unpaired Nyquist mode
        for n_odd in (9, 65):
            t = 2 * np.pi * np.arange(n_odd) / n_odd
            k = n_odd // 2
            got = Q.spectral_derivative(np.cos(k * t))
            assert np.allclose(got, -k * np.sin(k * t), atol=1e-12 * k)

    def test_complex_curve(self):
        z = (1.0 + 0.1 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz = (-0.2 * np.sin(2 * THETA) + 1j * (1.0 + 0.1 * np.cos(2 * THETA))) * np.exp(
            1j * THETA
        )
        assert np.allclose(Q.spectral_derivative(z), dz, atol=1e-12)


class TestGridIntegral:
    """All regimes against the closed-form cosine moments of the kernels."""

    ALPHA, KAPPA, MU = 0.25, -0.4, 1.7

    def exact(self, n, x, y, coeff_log, coeff_k0):
        # 2 pi cos(nt) [alpha * (-(x/y)^n / 2n) + kappa * I_n(mu x) K_n(mu y)]
        return 2 * np.pi * (
            coeff_log * (-((x / y) ** n) / (2 * n))
            + coeff_k0 * bessel_ik_product(n, self.MU * x, self.MU * y)
        )

    @pytest.mark.parametrize("n", [1, 3, 10, 30])
    def test_self_interaction(self, n):
        b = 1.3
        z = circle(b)
        got = Q.kernel_integral_grid(self.ALPHA, self.KAPPA, self.MU, z, z, np.cos(n * THETA))
        want = self.exact(n, b, b, self.ALPHA, self.KAPPA) * np.cos(n * THETA)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_coincident_distinct_arrays(self):
        z = circle(1.3)
        got = Q.kernel_integral_grid(
            self.ALPHA, self.KAPPA, self.MU, z, z.copy(), np.cos(3 * THETA)
        )
        want = self.exact(3, 1.3, 1.3, self.ALPHA, self.KAPPA) * np.cos(3 * THETA)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_near_coincident_perturbation(self):
        # an O(eps) radial offset moves the answer by O(eps), not more
        z = circle(1.3)
        eps = 1e-6
        zp = (1.3 + eps * np.cos(2 * THETA)) * np.exp(1j * THETA)
        got = Q.kernel_integral_grid(self.ALPHA, self.KAPPA, self.MU, zp, z, np.cos(3 * THETA))
        want = self.exact(3, 1.3, 1.3, self.ALPHA, self.KAPPA) * np.cos(3 * THETA)
        assert np.max(np.abs(got - want)) < 50 * eps

    @pytest.mark.parametrize("n", [1, 4, 12])
    def test_separated_both_directions(self, n):
        big, small = circle(1.3), circle(0.7)
        for tgt, src in ((big, small), (small, big)):
            got = Q.kernel_integral_grid(
                self.ALPHA, self.KAPPA, self.MU, tgt, src, np.cos(n * THETA)
            )
            want = self.exact(n, 0.7, 1.3, self.ALPHA, self.KAPPA) * np.cos(n * THETA)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_complex_density(self):
        z = circle(1.1)
        got = Q.kernel_integral_grid(
            self.ALPHA, self.KAPPA, self.MU, z, z, np.exp(3j * THETA)
        )
        want = self.exact(3, 1.1, 1.1, self.ALPHA, self.KAPPA) * np.exp(3j * THETA)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_linear_in_coefficients(self):
        z = circle(0.9)
        t = np.cos(2 * THETA)
        both = Q.kernel_integral_grid(self.ALPHA, self.KAPPA, self.MU, z, z, t)
        log_only = Q.kernel_integral_grid(self.ALPHA, 0.0, self.MU, z, z, t)
        scr_only = Q.kernel_integral_grid(0.0, self.KAPPA, self.MU, z, z, t)
        assert np.allclose(both, log_only + scr_only, atol=1e-13)

    def test_strong_screening_accurate_below_guard(self):
        # unit circle at mu * diameter = 10, below SPLIT_MAX_MU_CHORD = 12
        theta = 2 * np.pi * np.arange(512) / 512
        z = np.exp(1j * theta)
        mu = 5.0
        for n in (1, 4, 16):
            got = Q.kernel_integral_grid(0.0, 1.0, mu, z, z, np.cos(n * theta))
            want = 2 * np.pi * bessel_ik_product(n, mu, mu)
            assert np.max(np.abs(got - want * np.cos(n * theta))) <= 1e-11 * want

    def test_strong_screening_refused_above_guard(self):
        # at mu * diameter = 14 the split would lose digits (8e-11): refuse
        theta = 2 * np.pi * np.arange(512) / 512
        z = np.exp(1j * theta)
        with pytest.raises(Q.QuadratureFailure):
            Q.kernel_integral_grid(0.0, 1.0, 7.0, z, z, np.cos(theta))

    def test_touching_raises(self):
        z = circle(1.0)
        with pytest.raises(Q.TouchingBoundaryError):
            Q.kernel_integral_grid(1.0, 0.0, 1.0, circle(1.02), z, np.cos(THETA))

    def test_coincident_nodes_refused(self):
        # two nodes of one curve at the same point: the split's log ratio
        # would be log(0) off the diagonal
        z = circle(1.0)
        z[11] = z[10]
        with pytest.raises(Q.QuadratureFailure, match="touch"):
            Q.kernel_integral_grid(1.0, 0.5, 1.0, z, z, np.cos(THETA))

    def test_overlapping_raises(self):
        z = circle(1.0)
        crossing = (1.0 + 0.02 * np.cos(THETA)) * np.exp(1j * THETA)
        with pytest.raises((Q.TouchingBoundaryError, Q.QuadratureFailure)):
            Q.kernel_integral_grid(1.0, 0.0, 1.0, crossing, z, np.cos(THETA))


class TestLayerIntegrals:
    """Three shared builds against four independent kernel_integral_grid calls."""

    PARAMS = LayerParams(2.5, 1.0, 1.0, 1.0)

    def four_calls(self, params, zs, dzs):
        out = []
        for k in (0, 1):
            total = 0.0
            for j in (0, 1):
                alpha, kappa = gkj_coefficients(params, k + 1, j + 1)
                total = total + Q.kernel_integral_grid(
                    alpha, kappa, params.mu, zs[k], zs[j], dzs[j], dz_src=dzs[j]
                )
            out.append(total)
        return out

    def check(self, params, z1, z2):
        zs = (z1, z2)
        dzs = tuple(Q.spectral_derivative(z) for z in zs)
        got = Q.layer_integrals(params, zs, dzs)
        want = self.four_calls(params, zs, dzs)
        # the transposed cross matrix differs from a direct build only on its
        # diagonal in the near-coincident split, which takes z_1' for both
        # directions; that error grows as offset^3 (1.1e-15 at 1e-4, 7.6e-13
        # at 9e-4, the regime's edge), far below the O(offset) error that
        # test_near_coincident_perturbation allows there
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-14

    def test_separated_layers(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA) + 0.01 * np.cos(4 * THETA)) * np.exp(
            1j * THETA
        )
        self.check(LayerParams(2.5, 1.0, 1.0, 0.7), z1, z2)

    def test_exact_twins(self):
        z = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        self.check(self.PARAMS, z, z.copy())

    @pytest.mark.parametrize("offset", [1e-6, 1e-4])
    def test_near_coincident_twins(self, offset):
        z = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        self.check(self.PARAMS, z, z * (1.0 + offset * np.cos(2 * THETA)))


class TestRowBuilds:
    """Leading-row blocks: the same entries and the same refusals as full builds."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.85)
    N_GRID = 64
    ROWS = 64 // 4 + 1  # m = 2: the targets 0 <= t <= pi/2

    def bumped_pair(self, peak):
        # layer 2 reaches radius 0.901 at t = peak (mod pi) and nowhere else
        # comes within 0.1 of the unit circle; the guard scale is layer 1's
        t = 2 * np.pi * np.arange(self.N_GRID) / self.N_GRID
        z1 = np.exp(1j * t)
        z2 = (0.85 + 0.051 * np.cos(t - peak) ** 20) * np.exp(1j * t)
        return (z1, z2), tuple(Q.spectral_derivative(z) for z in (z1, z2))

    @pytest.mark.parametrize("pair", [(1, 1), (2, 1), (1, 2)])
    def test_rows_are_leading_rows_of_full_build(self, pair):
        k, j = pair
        zs = (
            (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA),
            (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA),
        )
        dzs = tuple(Q.spectral_derivative(z) for z in zs)
        args = (*gkj_coefficients(self.PARAMS, k, j), self.PARAMS.mu)
        args += (zs[k - 1], zs[j - 1], dzs[j - 1])
        full = Q._kernel_matrix(*args, scale=1.0)
        rows = Q._kernel_matrix(*args, scale=1.0, n_rows=N // 4 + 1)
        assert np.array_equal(rows, full[: N // 4 + 1])

    @pytest.mark.parametrize("peak", [0.0, np.pi / 2])
    def test_end_row_pair_refused(self, peak):
        # the one close node pair sits on an end row of the fundamental
        # domain, where sin(m j t) = 0: the row build must still see it
        (z1, z2), dzs = self.bumped_pair(peak)
        close = np.argwhere(np.abs(z2[:, None] - z1[None, :]) < Q.SEPARATED_TOL)
        peak_node = round(peak / (2 * np.pi) * self.N_GRID)
        assert {tuple(ij) for ij in close} == {
            (peak_node, peak_node),
            (peak_node + self.N_GRID // 2, peak_node + self.N_GRID // 2),
        }
        for n_rows in (None, self.ROWS):
            with pytest.raises(Q.TouchingBoundaryError, match="9.900e-02"):
                Q.layer_integrals(self.PARAMS, (z1, z2), dzs, n_rows)

    def test_cross_rows_guard_on_layer_one_scale(self):
        # W_12 takes layer 2 as source; against its own scale (mean radius
        # 0.86) a 0.099 gap would pass the 0.1 * scale guard
        (z1, z2), (_, dz2) = self.bumped_pair(0.0)
        args = (*gkj_coefficients(self.PARAMS, 1, 2), self.PARAMS.mu, z1, z2, dz2)
        with pytest.raises(Q.TouchingBoundaryError):
            Q._kernel_matrix(*args, scale=Q._curve_scale(z1), n_rows=self.ROWS)
        Q._kernel_matrix(*args, scale=Q._curve_scale(z2), n_rows=self.ROWS)

    def test_vstate_on_touching_discs_refused(self):
        # the discs' 0.095 gap, narrowed by the s = 1e-3 tangent deformation,
        # is below 0.1 * b1: the full build refuses at the same separation
        params = LayerParams(1.0, 1.0, 1.0, 0.905)
        with pytest.raises(Q.TouchingBoundaryError, match="9.499e-02"):
            C.vstate_solve(params, 2, -1, 1e-3, n_modes=8, n_nodes=64)


class TestSymmetricBuilds:
    """Half-band full self builds: exact symmetry, and the paths that avoid it."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)

    def curves(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA) + 0.01 * np.sin(3 * THETA)) * np.exp(
            1j * THETA
        )
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        return (z1, z2), tuple(Q.spectral_derivative(z) for z in (z1, z2))

    def build(self, k, j, z_tgt, z_src, dz_src, **kwargs):
        args = (*gkj_coefficients(self.PARAMS, k, j), self.PARAMS.mu)
        return Q._kernel_matrix(*args, z_tgt, z_src, dz_src, scale=1.0, **kwargs)

    def test_full_self_builds_equal_their_transpose(self):
        (z1, z2), (dz1, dz2) = self.curves()
        w11 = self.build(1, 1, z1, z1, dz1)
        w22 = self.build(2, 2, z2, z2, dz2)
        # twin layers: distinct arrays holding the same nodes
        w21 = self.build(2, 1, z1.copy(), z1, dz1)
        for w in (w11, w22, w21):
            assert np.array_equal(w, w.T)

    @pytest.mark.parametrize("n_rows", [1, N // 4 + 1, N // 2 + 1])
    def test_self_rows_are_leading_rows_of_half_band_build(self, n_rows):
        (z1, _), (dz1, _) = self.curves()
        full = self.build(1, 1, z1, z1, dz1)
        rows = self.build(1, 1, z1, z1, dz1, n_rows=n_rows)
        assert np.array_equal(rows, full[:n_rows])

    @pytest.mark.parametrize("offset,symmetric", [(0.0, True), (1e-6, False)])
    def test_half_band_only_for_equal_nodes(self, monkeypatch, offset, symmetric):
        # twin layers (offset 0, distinct arrays) build W_21 on the half band;
        # a finite-difference probe moves layer 2 by ~1e-6 off layer 1, so its
        # cross block is near-coincident, not symmetric, and takes every offset
        (z1, _), _ = self.curves()
        z2 = z1 * (1.0 + offset * np.cos(2 * THETA))
        zs = (z1, z2)
        dzs = tuple(Q.spectral_derivative(z) for z in zs)
        params = LayerParams(2.0, 1.0, 1.0, 1.0)
        half_bands = []
        gather = Q._gather_index

        def spy(n, n_rows, half_band):
            half_bands.append(half_band)
            return gather(n, n_rows, half_band)

        monkeypatch.setattr(Q, "_gather_index", spy)
        u1, u2 = Q.layer_integrals(params, zs, dzs)
        monkeypatch.setattr(Q, "_gather_index", gather)
        assert half_bands == [True, True, symmetric]  # W_11, W_22, W_21
        w1, w2 = O.layer_node_velocities_pm(params, z1, z2)
        assert np.max(np.abs(-u1 - w1)) <= 1e-12
        assert np.max(np.abs(-u2 - w2)) <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteNodes:
    """A NaN or inf node or derivative is refused, not turned into NaN velocities."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)

    @pytest.mark.parametrize("n_rows", [None, N // 4 + 1])
    @pytest.mark.parametrize("layer,bad", [(0, np.nan), (1, np.inf)])
    def test_layer_integrals_refuse(self, layer, bad, n_rows):
        zs = [circle(1.0), circle(0.7)]
        zs[layer][5] = bad
        dzs = [Q.spectral_derivative(z) for z in zs]
        with pytest.raises(Q.QuadratureFailure, match="non-finite"):
            Q.layer_integrals(self.PARAMS, zs, dzs, n_rows)

    def test_non_finite_derivative_refused(self):
        z = circle(1.0)
        dz = Q.spectral_derivative(z)
        dz[3] = np.nan
        alpha, kappa = gkj_coefficients(self.PARAMS, 1, 1)
        with pytest.raises(Q.QuadratureFailure, match="non-finite"):
            Q._kernel_matrix(alpha, kappa, self.PARAMS.mu, z, z, dz, scale=1.0)


def traced_peak(fn) -> int:
    """Peak bytes allocated while fn runs, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocations:
    """Allocation guards: a temporary that creeps back into a build shows here."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)
    UNIT = N * N * 8  # bytes of one N x N float matrix

    def test_one_row_build_makes_no_square_table(self, monkeypatch):
        # fresh caches: a single-row moment check at N = 2048 must not build
        # the N x N half-band index or any other N^2 table (32 MB each)
        monkeypatch.setattr(Q, "_TABLES", {})
        monkeypatch.setattr(Q, "_GATHERS", {})
        peak = traced_peak(lambda: Q.screened_moment_quadrature(0.7, 0.7, 2.0, 32, 2048))
        assert peak < 8e6

    def test_full_self_build_peak(self):
        z = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz = Q.spectral_derivative(z)
        args = (*gkj_coefficients(self.PARAMS, 1, 1), self.PARAMS.mu, z, z, dz)
        Q._kernel_matrix(*args, scale=1.0)  # builds the cached gather index
        peak = traced_peak(lambda: Q._kernel_matrix(*args, scale=1.0))
        assert peak <= 5 * self.UNIT

    def test_cross_build_peak(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz1 = Q.spectral_derivative(z1)
        args = (*gkj_coefficients(self.PARAMS, 2, 1), self.PARAMS.mu, z2, z1, dz1)
        peak = traced_peak(lambda: Q._kernel_matrix(*args, scale=1.0))
        assert peak <= 9 * self.UNIT


class TestOffgrid:
    def test_far_query_log_moment(self):
        # int log|q - e^{ie}| cos(e)-density de reproduces the interior moment
        z = circle(1.0)
        got = O.trapezoid_integral(1.0, 0.0, 1.0, np.array([0.25 + 0j]), z, np.cos(THETA))
        assert got[0] == pytest.approx(2 * np.pi * (-0.25 / 2.0), abs=1e-12)


class TestMomentHelpers:
    @pytest.mark.parametrize("x", [0.3, 0.7, 0.95, 1.0])
    def test_log_moment(self, x):
        got = Q.log_moment_quadrature(x, 32, 1024)
        n = np.arange(1, 33)
        assert np.max(np.abs(got + x**n / (2 * n))) <= 1e-10

    @pytest.mark.parametrize("case", [(0.9, 1.1, 0.5), (0.9, 1.1, 2.0), (1.0, 1.0, 0.5), (1.0, 1.0, 2.0)])
    def test_screened_moment_fp64(self, case):
        x, y, lam = case
        got = Q.screened_moment_quadrature(x, y, lam, 32, 2048)
        want = np.array([bessel_ik_product(n, lam * x, lam * y) for n in range(1, 33)])
        # double-precision trapezoid: relative where representable, with a
        # small absolute floor for the deeply decayed tail
        assert np.all(np.abs(got - want) <= 1e-8 * np.abs(want) + 1e-12)
