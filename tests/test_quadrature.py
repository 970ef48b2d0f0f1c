import json
import threading
import tracemalloc
from math import fsum, gcd
from pathlib import Path

import numpy as np
import pytest

import oracles as O
from qgpatch import contour as C
from qgpatch import dynamics as D
from qgpatch import quadrature as Q
from qgpatch.bessel import bessel_ik_product, k0_array, series_coefficients
from qgpatch.kernels import LayerParams, gkj_coefficients

N = 256
THETA = 2 * np.pi * np.arange(N) / N


def circle(radius):
    return radius * np.exp(1j * THETA)


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "reference.json"


def evolve_reference_inputs():
    """(params, z1, z2) of the 16 V-states the evolve benchmark starts from."""
    for point in json.loads(REFERENCE.read_text())["points"]:
        sol = C.VStateSolution.from_json_dict(point["vstate_input"])
        radii = sol.boundary_radii()
        phase = np.exp(1j * sol.deformation.grid())
        params = LayerParams(point["delta"], point["lambda"], point["b1"], point["b2"])
        yield params, radii[0] * phase, radii[1] * phase


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


class TestPeriodicGrid:
    """The shared trigonometric interpolant and the cached grid tables."""

    @pytest.mark.parametrize("n", [64, 65, 66])
    def test_trig_sum_evaluates_the_interpolant(self, n):
        def curve(t):
            r = 1.0 + 0.1 * np.cos(3 * t)
            z = r * np.exp(1j * t) + 0.05 * np.exp(-7j * t)
            dz = (1j * r - 0.3 * np.sin(3 * t)) * np.exp(1j * t) - 0.35j * np.exp(-7j * t)
            return z, dz

        k, coeffs = Q.fourier(curve(Q.grid(n))[0])
        s = np.concatenate((Q.grid(n), np.linspace(0.01, 6.3, 37)))
        got = Q.trig_sum(k, [coeffs, 1j * k * coeffs])(s)
        assert np.max(np.abs(got - np.stack(curve(s)))) <= 1e-13

    def test_nyquist_coefficient_dropped_and_mode_number_kept(self):
        k, coeffs = Q.fourier((-1.0) ** np.arange(64))
        assert k[32] == -32 and np.unique(k).size == 64
        assert np.max(np.abs(coeffs)) == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Q._grid_tables(64),
            lambda: (Q._log_ratio_row(64),),
            lambda: Q._centred_nodes(64, 9, 33),
            lambda: Q.mode_tables(2, 8, 64),
            lambda: (series_coefficients(1.0),),
        ],
        ids=["grid_tables", "log_ratio_row", "centred_nodes", "mode_tables", "series"],
    )
    def test_cached_tables_are_read_only(self, build):
        # every later build shares these arrays; writing the value back
        # leaves the cache intact if the guard is ever lost
        for table in build():
            with pytest.raises(ValueError):
                table.flat[0] = table.flat[0]


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


class TestSeparatedPath:
    """Folded separated blocks against h (alpha log rho + kappa K_0(mu rho))."""

    @staticmethod
    def log_k0_form(alpha, kappa, mu, z_tgt, z_src):
        # the unfolded evaluation, from the same squared chords
        rho2 = (z_tgt.real[:, None] - z_src.real) ** 2 + (z_tgt.imag[:, None] - z_src.imag) ** 2
        h = 2 * np.pi / z_src.size
        return 0.5 * h * alpha * np.log(rho2) + h * kappa * k0_array(mu * np.sqrt(rho2))

    @staticmethod
    def spy_k0(monkeypatch):
        calls = []
        monkeypatch.setattr(Q, "k0_array", lambda z: calls.append(z) or k0_array(z))
        return calls

    def cross_blocks(self, params, z1, z2):
        """(alpha, kappa, z_tgt, z_src, W, unfolded W) for W_21 and W_12."""
        for k, j, z_tgt, z_src in ((2, 1, z2, z1), (1, 2, z1, z2)):
            alpha, kappa = gkj_coefficients(params, k, j)
            got = Q._kernel_matrix(alpha, kappa, params.mu, z_tgt, z_src, None)
            unfolded = self.log_k0_form(alpha, kappa, params.mu, z_tgt, z_src)
            yield alpha, kappa, z_tgt, z_src, got, unfolded

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="no extended precision")
    def test_folded_as_accurate_as_log_k0_form_on_evolve_inputs(self, monkeypatch):
        # both forms against a long-double reference, on every other target
        # row.  The folded form scales the rounding of log(rho^2) by I_0 - 1,
        # so it reads up to 2.1e-15 of max|W| where the log + K_0 form reads
        # 1.5e-15
        calls = self.spy_k0(monkeypatch)
        ext = np.longdouble
        for params, z1, z2 in evolve_reference_inputs():
            for alpha, kappa, z_tgt, z_src, got, unfolded in self.cross_blocks(params, z1, z2):
                got, unfolded, z_tgt = got[::2], unfolded[::2], z_tgt[::2]
                dx = z_tgt.real.astype(ext)[:, None] - z_src.real.astype(ext)
                dy = z_tgt.imag.astype(ext)[:, None] - z_src.imag.astype(ext)
                rho = np.sqrt(dx * dx + dy * dy)
                want = ext(2 * np.pi / N) * (
                    ext(alpha) * np.log(rho) + ext(kappa) * O.k0_extended(ext(params.mu) * rho)
                )
                bound = 3e-15 * float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= bound
                assert float(np.max(np.abs(unfolded - want))) <= bound
        assert not calls  # every block has mu * rho_max <= 3: folded

    @pytest.mark.parametrize("mu,k0_calls", [(1.0, 0), (2.0, 1)])
    def test_pure_log_kernel_is_half_h_alpha_log(self, monkeypatch, mu, k0_calls):
        # kappa = 0 takes the regime's one sequence: below K0_SERIES_CUT the
        # folded table is [h alpha / 2, +-0, ...], above it k0_array's part
        # is scaled by 0; either way the block is 0.5 h alpha log(rho^2)
        calls = self.spy_k0(monkeypatch)
        z_tgt, z_src = circle(1.3) * np.exp(0.3j), circle(0.7)  # mu * rho_max = 2 mu
        rho2 = (z_tgt.real[:, None] - z_src.real) ** 2 + (z_tgt.imag[:, None] - z_src.imag) ** 2
        alpha, h = -0.37, 2 * np.pi / N
        got = Q._kernel_matrix(alpha, 0.0, mu, z_tgt, z_src, None)
        assert np.array_equal(got, 0.5 * h * alpha * np.log(rho2))
        assert len(calls) == k0_calls

    def test_strong_screening_keeps_k0_path(self, monkeypatch):
        # lam = 3: mu * rho_max = 7.2 > 3, where the folded series cancels
        calls = self.spy_k0(monkeypatch)
        params = LayerParams(1.0, 3.0, 1.0, 0.7)
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        for *_, got, unfolded in self.cross_blocks(params, z1, z2):
            assert np.max(np.abs(got - unfolded)) <= 1e-15 * np.max(np.abs(unfolded))
        assert len(calls) == 2 and max(np.max(z) for z in calls) > 3.0


def record_per_block(monkeypatch, zs, name, measure) -> dict:
    """{(k, j): measure(*args)} of the last call to Q.<name> inside each block
    W_kj that ``_kernel_block`` builds while the spies are set, whichever
    thread builds it; blocks are told apart by the identity of their nodes,
    the arrays each measured curve holds."""
    current = threading.local()
    seen = {}
    kernel_block, inner = Q._kernel_block, getattr(Q, name)

    def layer(curve):
        return next(k for k, z_k in enumerate(zs, 1) if curve.z is z_k)

    def kernel_spy(alpha, kappa, mu, tgt, src, *args, **kwargs):
        current.block = (layer(tgt), layer(src))
        return kernel_block(alpha, kappa, mu, tgt, src, *args, **kwargs)

    def inner_spy(*args):
        seen[current.block] = measure(*args)
        return inner(*args)

    monkeypatch.setattr(Q, "_kernel_block", kernel_spy)
    monkeypatch.setattr(Q, name, inner_spy)
    return seen


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

    # (k, j, near): the last pair's layer 2 is layer 1 times
    # (1 + 1e-6 cos 3t), a near-coincident cross block
    @pytest.mark.parametrize("pair", [(1, 1, False), (2, 1, False), (1, 2, False), (2, 1, True)])
    def test_rows_are_leading_rows_of_full_build(self, pair):
        k, j, near = pair
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        if near:
            z2 = z1 * (1.0 + 1e-6 * np.cos(3 * THETA))
        else:
            z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        zs = (z1, z2)
        dzs = tuple(Q.spectral_derivative(z) for z in zs)
        args = (*gkj_coefficients(self.PARAMS, k, j), self.PARAMS.mu)
        args += (zs[k - 1], zs[j - 1], dzs[j - 1])
        full = Q._kernel_matrix(*args)
        rows = Q._kernel_matrix(*args, n_rows=N // 4 + 1)
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
        for fold in (None, 2):
            with pytest.raises(Q.TouchingBoundaryError, match="9.900e-02"):
                Q.layer_integrals(self.PARAMS, (z1, z2), dzs, fold)

    def test_cross_rows_guard_on_layer_one_scale(self):
        # against layer 2's mean radius (0.86) the 0.099 gap would pass the
        # 0.1 * scale guard; the larger curve's radius refuses it whichever
        # layer is the source
        (z1, z2), dzs = self.bumped_pair(0.0)
        for k, j in ((1, 2), (2, 1)):
            args = (*gkj_coefficients(self.PARAMS, k, j), self.PARAMS.mu)
            with pytest.raises(Q.TouchingBoundaryError, match="9.900e-02"):
                Q._kernel_matrix(*args, (z1, z2)[k - 1], (z1, z2)[j - 1], dzs[j - 1],
                                 n_rows=self.ROWS)

    def test_vstate_on_touching_discs_refused(self):
        # the discs' 0.095 gap, narrowed by the s = 1e-3 tangent deformation,
        # is below 0.1 * b1: the full build refuses at the same separation
        params = LayerParams(1.0, 1.0, 1.0, 0.905)
        with pytest.raises(Q.TouchingBoundaryError, match="9.499e-02"):
            C.vstate_solve(params, 2, -1, 1e-3, n_modes=8, n_nodes=64)


class TestMirroredCrossRows:
    """Fold path: W_12 rows gathered from the W_21 rows, against direct builds."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)
    TWINS = LayerParams(2.0, 1.0, 1.0, 1.0)
    CASES = [(1, 256), (2, 256), (3, 256), (2, 66), (3, 66)]

    def curves(self, params, m, n, twins):
        # a random even m-fold pair; twin layers share layer 1's shape
        n_modes = min(6, (n // 2 - 1) // m)
        rng = np.random.default_rng(10 * m + n)
        coeffs = 0.01 * rng.standard_normal((2, n_modes)) / np.arange(1, n_modes + 1) ** 2
        if twins:
            coeffs[1] = coeffs[0]
        d = C.RadialDeformation(m, coeffs, n)
        return C._boundary_curves(params, d.nodal(), d.nodal_derivative())

    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("m,n", CASES)
    def test_rows_match_full_grid(self, m, n, twins):
        params = self.TWINS if twins else self.PARAMS
        zs, dzs = self.curves(params, m, n, twins)
        g = gcd(m, n)
        rows = Q.fold_rows(n, g)
        full = Q.layer_integrals(params, zs, dzs)
        folded = Q.layer_integrals(params, zs, dzs, g)
        for u_full, u_rows in zip(full, folded):
            assert u_rows.shape == (rows,)
            err = np.max(np.abs(u_rows - u_full[:rows]))
            assert err <= 1e-14 * np.max(np.abs(u_full))

    # the mirror pairs nodes whose symmetry holds to rounding only: 1.1e-15
    # to 1.6e-15 of max|W| on the random pairs.  Twin cross blocks take the
    # split, whose far entries (mu * rho near 3.5) sum I_0 and S series
    # terms several times larger than themselves; they read up to 4.7e-15
    @pytest.mark.parametrize("twins,bound", [(False, 3e-15), (True, 1e-14)])
    @pytest.mark.parametrize("m,n", CASES)
    def test_mirrored_block_matches_direct_build(self, m, n, twins, bound):
        params = self.TWINS if twins else self.PARAMS
        (z1, z2), (dz1, dz2) = self.curves(params, m, n, twins)
        g = gcd(m, n)
        rows = Q.fold_rows(n, g)
        alpha12, kappa12 = gkj_coefficients(params, 1, 2)
        alpha21, kappa21 = gkj_coefficients(params, 2, 1)
        mu = params.mu
        w21 = Q._kernel_matrix(alpha21, kappa21, mu, z2, z1, dz1, n_rows=rows)
        direct = Q._kernel_matrix(alpha12, kappa12, mu, z1, z2, dz2, n_rows=rows)
        mirrored = (alpha12 / alpha21) * np.take(w21, Q._mirror_index(n, g))
        assert np.max(np.abs(mirrored - direct)) <= bound * np.max(np.abs(direct))

    def test_fold_must_divide_node_count(self):
        with pytest.raises(ValueError, match="does not divide"):
            Q.fold_rows(66, 4)


class TestFoldedSelfBlocks:
    """Fold path: self blocks on the folded half band, one pair of each orbit."""

    CASES = TestMirroredCrossRows.CASES
    curves = TestMirroredCrossRows.curves

    # a self block against its all-offset row build: the folded half band
    # reads each weight off an image pair, whose chord agrees to rounding
    # only (1.2e-15 to 2.2e-15 of max|W|).  Twin W_21 takes the split with
    # alpha != kappa, whose far entries cancel as in the mirrored block
    # (up to 4.7e-15)
    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("m,n", CASES)
    def test_matches_row_build(self, m, n, twins):
        params = TestMirroredCrossRows.TWINS if twins else TestMirroredCrossRows.PARAMS
        zs, dzs = self.curves(params, m, n, twins)
        g = gcd(m, n)
        pairs = [(1, 1, 3e-15), (2, 2, 3e-15)] + [(2, 1, 1e-14)] * twins
        for k, j, bound in pairs:
            args = (*gkj_coefficients(params, k, j), params.mu)
            args += (zs[k - 1], zs[j - 1], dzs[j - 1])
            rows = Q._kernel_matrix(*args, n_rows=Q.fold_rows(n, g))
            folded = Q._kernel_matrix(*args, fold=g)
            assert np.max(np.abs(folded - rows)) <= bound * np.max(np.abs(rows))

    @pytest.mark.parametrize("m,n", CASES + [(None, 256), (None, 66)])
    def test_every_entry_gathers_an_image_pair(self, m, n):
        # entry [k, d] pairs target k - floor(d/2) with source k + ceil(d/2);
        # the pair gathered for (i, j) must be (i, j) moved by a rotation
        # through n/g nodes, possibly the reflection t -> -t, and possibly
        # transposed.  On the full grid (m None) it must be (i, j) or (j, i)
        g = None if m is None else gcd(m, n)
        rows, cols = Q.fold_rows(n, g), n // 2 + 1
        k, d = np.divmod(Q._gather_index(n, g), cols)
        assert k.max() < rows and d.max() < cols
        tgt = (k - d // 2) % n
        src = (tgt + d) % n
        i, j = np.indices((rows, n))
        moves = [(1, 0)] if g is None else [(s, r * n // g) for r in range(g) for s in (1, -1)]
        image = np.zeros((rows, n), dtype=bool)
        for sign, shift in moves:
            a, b = (sign * i + shift) % n, (sign * j + shift) % n
            image |= ((a == tgt) & (b == src)) | ((a == src) & (b == tgt))
        assert image.all()

    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("m,n", CASES)
    def test_each_folded_self_block_evaluates_its_half_band(self, monkeypatch, m, n, twins):
        params = TestMirroredCrossRows.TWINS if twins else TestMirroredCrossRows.PARAMS
        zs, dzs = self.curves(params, m, n, twins)
        zs = tuple(zs)  # fixed row objects, told apart by identity
        g = gcd(m, n)
        sizes = record_per_block(monkeypatch, zs, "_fold", lambda log_part, *_: log_part.size)
        Q.layer_integrals(params, zs, dzs, g)
        half_band = (n // (2 * g) + 1) * (n // 2 + 1)
        cross = half_band if twins else Q.fold_rows(n, g) * n
        assert sizes == {(2, 1): cross, (1, 1): half_band, (2, 2): half_band}

    @pytest.mark.parametrize("m,n", CASES)
    def test_fold_contract_holds_for_deformations(self, m, n):
        zs, _ = self.curves(TestMirroredCrossRows.PARAMS, m, n, False)
        Q._check_fold([Q._curve(z) for z in zs], gcd(m, n))

    @pytest.mark.parametrize(
        "shape",
        [
            pytest.param(lambda t: 1.0 + 0.02 * np.sin(2 * t), id="odd"),
            pytest.param(lambda t: 1.0 + 0.02 * np.cos(3 * t), id="three-fold"),
        ],
    )
    def test_wrong_fold_refused(self, shape):
        z1 = shape(THETA) * np.exp(1j * THETA)
        z2 = 0.7 * np.exp(1j * THETA)
        dzs = tuple(Q.spectral_derivative(z) for z in (z1, z2))
        with pytest.raises(ValueError, match="not even and 2-fold symmetric"):
            Q.layer_integrals(TestMirroredCrossRows.PARAMS, (z1, z2), dzs, 2)


class TestRotationFold:
    """Rotation-only fold (even False): the N/g targets 0 <= t < 2 pi/g of
    curves invariant under rotation by 2 pi/g, as a V-state stays while it
    turns off the axes and stops being even."""

    CASES = TestMirroredCrossRows.CASES

    def curves(self, params, m, n, twins):
        (z1, z2), _ = TestMirroredCrossRows.curves(self, params, m, n, twins)
        zs = tuple(np.exp(0.3j) * z for z in (z1, z2))
        return zs, tuple(Q.spectral_derivative(z) for z in zs)

    @pytest.mark.parametrize("m,n", CASES)
    def test_every_entry_gathers_a_rotated_pair(self, m, n):
        # as for the even fold, with rotations through n/g nodes only
        g = gcd(m, n)
        rows, cols = Q.fold_rows(n, g, even=False), n // 2 + 1
        assert rows == n // g
        k, d = np.divmod(Q._gather_index(n, g, False), cols)
        assert k.max() < rows and d.max() < cols
        tgt = (k - d // 2) % n
        src = (tgt + d) % n
        i, j = np.indices((rows, n))
        image = np.zeros((rows, n), dtype=bool)
        for shift in range(0, n, n // g):
            a, b = (i + shift) % n, (j + shift) % n
            image |= ((a == tgt) & (b == src)) | ((a == src) & (b == tgt))
        assert image.all()

    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("m,n", CASES)
    def test_rows_match_full_grid(self, m, n, twins):
        params = TestMirroredCrossRows.TWINS if twins else TestMirroredCrossRows.PARAMS
        zs, dzs = self.curves(params, m, n, twins)
        g = gcd(m, n)
        with pytest.raises(ValueError, match="not even"):
            Q.layer_integrals(params, zs, dzs, g)
        full = Q.layer_integrals(params, zs, dzs)
        folded = Q.layer_integrals(params, zs, dzs, g, even=False)
        for u_full, u_rows in zip(full, folded):
            assert u_rows.shape == (n // g,)
            err = np.max(np.abs(u_rows - u_full[: n // g]))
            assert err <= 1e-14 * np.max(np.abs(u_full))

    @pytest.mark.parametrize("m,n", CASES)
    def test_mirrored_block_matches_direct_build(self, m, n):
        params = TestMirroredCrossRows.PARAMS
        (z1, z2), (dz1, dz2) = self.curves(params, m, n, False)
        g = gcd(m, n)
        rows = Q.fold_rows(n, g, even=False)
        alpha12, kappa12 = gkj_coefficients(params, 1, 2)
        alpha21, kappa21 = gkj_coefficients(params, 2, 1)
        w21 = Q._kernel_matrix(alpha21, kappa21, params.mu, z2, z1, dz1, n_rows=rows)
        direct = Q._kernel_matrix(alpha12, kappa12, params.mu, z1, z2, dz2, n_rows=rows)
        mirrored = (alpha12 / alpha21) * np.take(w21, Q._mirror_index(n, g, False))
        assert np.max(np.abs(mirrored - direct)) <= 3e-15 * np.max(np.abs(direct))

    @pytest.mark.parametrize("twins", [False, True])
    @pytest.mark.parametrize("m,n", CASES)
    def test_each_block_evaluates_its_rows(self, monkeypatch, m, n, twins):
        params = TestMirroredCrossRows.TWINS if twins else TestMirroredCrossRows.PARAMS
        zs, dzs = self.curves(params, m, n, twins)
        g = gcd(m, n)
        sizes = record_per_block(monkeypatch, zs, "_fold", lambda log_part, *_: log_part.size)
        Q.layer_integrals(params, zs, dzs, g, even=False)
        half_band = n // g * (n // 2 + 1)
        cross = half_band if twins else n // g * n
        assert sizes == {(2, 1): cross, (1, 1): half_band, (2, 2): half_band}

    def test_curve_without_the_rotation_refused(self):
        # even, but 3-fold where 2-fold is claimed
        z1 = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        z2 = 0.7 * np.exp(1j * THETA)
        dzs = tuple(Q.spectral_derivative(z) for z in (z1, z2))
        with pytest.raises(ValueError, match="curves are not 2-fold symmetric"):
            Q.layer_integrals(TestMirroredCrossRows.PARAMS, (z1, z2), dzs, 2, even=False)

    @pytest.mark.parametrize("fold,entries", [(None, 131_584), (2, 65_792)])
    def test_entries_per_right_hand_side(self, monkeypatch, fold, entries):
        # the benchmark's evolve: N = 256, m = 2; folded, the self blocks take
        # 128 x 129 entries each and the cross block 128 x 256
        params, z1, z2 = next(evolve_reference_inputs())
        zs = (z1, z2)
        sizes = record_per_block(monkeypatch, zs, "_fold", lambda log_part, *_: log_part.size)
        D.layer_node_velocities(params, z1, z2, fold)
        assert sum(sizes.values()) == entries


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
        return Q._kernel_matrix(*args, z_tgt, z_src, dz_src, **kwargs)

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
        # twin layers (offset 0, distinct arrays) build W_21 on the half band
        # and gather it; a finite-difference probe moves layer 2 by ~1e-6 off
        # layer 1, so its cross block is near-coincident, not symmetric, and
        # is built in place on the grid, with no gather
        (z1, _), _ = self.curves()
        z2 = z1 * (1.0 + offset * np.cos(2 * THETA))
        zs = (z1, z2)
        dzs = tuple(Q.spectral_derivative(z) for z in zs)
        params = LayerParams(2.0, 1.0, 1.0, 1.0)
        gathered = record_per_block(monkeypatch, zs, "_take",
                                    lambda table, *key: table is Q._gather_index)
        u1, u2 = Q.layer_integrals(params, zs, dzs)
        monkeypatch.undo()
        assert gathered == {(1, 1): True, (2, 2): True} | ({(2, 1): True} if symmetric else {})
        w1, w2 = O.layer_node_velocities_pm(params, z1, z2)
        assert np.max(np.abs(-u1 - w1)) <= 1e-12
        assert np.max(np.abs(-u2 - w2)) <= 1e-12


class TestCrossWorker:
    """Builds with at least 256 * 256 cross entries on two CPUs run W_21 on a
    worker thread: the same bits and the same refusals as the serial order."""

    PARAMS = LayerParams(2.0, 1.0, 1.0, 1.0)

    @staticmethod
    def pair(kind, n, fold=None):
        """A random pair; given a fold, even and fold-symmetric like a V-state's."""
        t = 2 * np.pi * np.arange(n) / n
        rng = np.random.default_rng(n)
        k = np.arange(1, 7)[:, None]
        a, phase = 0.01 * rng.standard_normal((2, 6, 1)) / k**2, rng.uniform(0, 6, (2, 6, 1))
        if fold is not None:
            k, phase = fold * k, 0.0 * phase
        z1, z2 = (b * (1.0 + np.sum(c * np.cos(k * t + p), axis=0)) * np.exp(1j * t)
                  for b, c, p in zip((1.0, 0.7), a, phase))
        if kind == "twins":
            z2 = z1.copy()
        elif kind == "near":  # a finite-difference probe of twin layers
            z2 = z1 * (1.0 + 1e-6 * np.cos(2 * t))
        return z1, z2

    def integrals(self, monkeypatch, zs, cpus, params=PARAMS, fold=None, even=True):
        """layer_integrals as on ``cpus`` CPUs, and the threads that built W_21."""
        monkeypatch.setattr(Q, "_cpu_count", lambda: cpus)
        builders = []
        kernel_block = Q._kernel_block

        def spy(alpha, kappa, mu, tgt, src, *args, **kwargs):
            if tgt is not src:
                builders.append(threading.current_thread())
            return kernel_block(alpha, kappa, mu, tgt, src, *args, **kwargs)

        monkeypatch.setattr(Q, "_kernel_block", spy)
        dzs = [Q.spectral_derivative(z) for z in zs]
        try:
            return Q.layer_integrals(params, zs, dzs, fold, even), builders
        finally:
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("kind", ["random", "twins", "near"])
    def test_worker_bitwise_equal_to_serial(self, monkeypatch, kind, n):
        zs = self.pair(kind, n)
        threaded, builders = self.integrals(monkeypatch, zs, 2)
        assert len(builders) == 1 and builders[0] is not threading.main_thread()
        serial, builders = self.integrals(monkeypatch, zs, 1)
        assert builders == [threading.main_thread()]
        for got, want in zip(threaded, serial):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["random", "twins", "near"])
    def test_folded_worker_bitwise_equal_to_serial(self, monkeypatch, kind):
        # the V-state residual at N = 512, fold 2: 129 x 512 = 66,048 cross
        # entries, above the rule
        zs = self.pair(kind, 512, fold=2)
        threaded, builders = self.integrals(monkeypatch, zs, 2, fold=2)
        assert len(builders) == 1 and builders[0] is not threading.main_thread()
        serial, builders = self.integrals(monkeypatch, zs, 1, fold=2)
        assert builders == [threading.main_thread()]
        for got, want in zip(threaded, serial):
            assert got.shape == (129,) and np.array_equal(got, want)

    def test_below_size_rule_stays_serial(self, monkeypatch):
        # the full grid at N = 128 (16,384 cross entries) and the V-state
        # residual at N = 256, fold 2 (65 x 256 = 16,640)
        for n, fold in ((128, None), (256, 2)):
            zs = self.pair("random", n, fold)
            _, builders = self.integrals(monkeypatch, zs, 2, fold=fold)
            assert builders == [threading.main_thread()]

    def test_rotation_fold_threads_from_512(self, monkeypatch):
        # a folded evolve right-hand side: 128 x 256 = 32,768 cross entries
        # stay serial, 256 x 512 = 131,072 go to the worker, bitwise the same
        zs = self.pair("random", 256, fold=2)
        _, builders = self.integrals(monkeypatch, zs, 2, fold=2, even=False)
        assert builders == [threading.main_thread()]
        zs = self.pair("random", 512, fold=2)
        threaded, builders = self.integrals(monkeypatch, zs, 2, fold=2, even=False)
        assert len(builders) == 1 and builders[0] is not threading.main_thread()
        serial, _ = self.integrals(monkeypatch, zs, 1, fold=2, even=False)
        for got, want in zip(threaded, serial):
            assert got.shape == (256,) and np.array_equal(got, want)

    def test_cross_refusal_wins_over_self_refusal(self, monkeypatch):
        # mu * chord = 14.1 refuses both self splits; the cross block touches
        # first in the serial order, so its refusal is the one raised
        params = LayerParams(1.0, 5.0, 1.0, 0.95)
        zs = (circle(1.0), circle(0.95))
        refusals = []
        for cpus in (2, 1):
            with pytest.raises(Q.NumericFailure) as caught:
                self.integrals(monkeypatch, zs, cpus, params)
            refusals.append((type(caught.value), str(caught.value)))
        assert refusals[0] == refusals[1]
        assert refusals[0][0] is Q.TouchingBoundaryError

    def test_next_call_after_self_refusal(self, monkeypatch):
        # a NaN in z_2' refuses W_22 on the main thread, while the worker's
        # W_21 (which reads z_1') succeeds; the worker is then free again
        zs = self.pair("random", 256)
        dzs = [Q.spectral_derivative(z) for z in zs]
        dzs[1][3] = np.nan
        monkeypatch.setattr(Q, "_cpu_count", lambda: 2)
        with pytest.raises(Q.QuadratureFailure, match="non-finite"):
            Q.layer_integrals(self.PARAMS, zs, dzs)
        threaded, _ = self.integrals(monkeypatch, zs, 2)
        serial, _ = self.integrals(monkeypatch, zs, 1)
        for got, want in zip(threaded, serial):
            assert np.array_equal(got, want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteNodes:
    """A NaN or inf node or derivative is refused, not turned into NaN velocities."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)

    @pytest.mark.parametrize("fold", [None, 2])
    @pytest.mark.parametrize("layer,bad", [(0, np.nan), (1, np.inf)])
    def test_layer_integrals_refuse(self, layer, bad, fold):
        zs = [circle(1.0), circle(0.7)]
        zs[layer][5] = bad
        dzs = [Q.spectral_derivative(z) for z in zs]
        with pytest.raises(Q.QuadratureFailure, match="non-finite"):
            Q.layer_integrals(self.PARAMS, zs, dzs, fold)

    @pytest.mark.parametrize("fold", [None, 2])
    def test_layer_integrals_refusals_keep_their_types_and_messages(self, fold):
        # as before the curves were measured once per call: a NaN in the
        # layer-2 derivative, read by W_22 only, and a pair 0.05 apart
        zs = [circle(1.0), circle(0.7)]
        dzs = [Q.spectral_derivative(z) for z in zs]
        dzs[1][9] = np.nan
        with pytest.raises(Q.QuadratureFailure) as info:
            Q.layer_integrals(self.PARAMS, zs, dzs, fold)
        assert str(info.value) == "non-finite boundary node or derivative"
        zs = [circle(1.0), circle(0.95)]
        dzs = [Q.spectral_derivative(z) for z in zs]
        with pytest.raises(Q.TouchingBoundaryError) as info:
            Q.layer_integrals(self.PARAMS, zs, dzs, fold)
        assert str(info.value) == ("curve separation 5.000e-02 below 0.1 * scale; "
                                   "uniform-grid quadrature would lose accuracy")

    def test_non_finite_derivative_refused(self):
        z = circle(1.0)
        dz = Q.spectral_derivative(z)
        dz[3] = np.nan
        alpha, kappa = gkj_coefficients(self.PARAMS, 1, 1)
        with pytest.raises(Q.QuadratureFailure, match="non-finite"):
            Q._kernel_matrix(alpha, kappa, self.PARAMS.mu, z, z, dz)


@pytest.mark.filterwarnings("error")
class TestZeroDerivative:
    """A zero z' at a node of a split block is refused, not logged to -inf."""

    PARAMS = LayerParams(1.0, 1.0, 1.0, 0.7)
    THETA = 2 * np.pi * np.arange(64) / 64

    def unit_circle(self):
        z = np.exp(1j * self.THETA)
        dz = Q.spectral_derivative(z)
        dz[5] = 0.0
        return z, dz

    def test_kernel_integral_names_the_node(self):
        z, dz = self.unit_circle()
        with pytest.raises(Q.QuadratureFailure, match="zero derivative .* source node 5:"):
            Q.kernel_integral_grid(1.0, 0.5, 1.0, z, z, np.cos(self.THETA), dz_src=dz)

    @pytest.mark.parametrize("build", ["folded", "near", "rows"])
    def test_every_split_layout_refuses(self, build):
        z, dz = self.unit_circle()
        alpha, kappa = gkj_coefficients(self.PARAMS, 1, 1)
        z_tgt, kwargs = z, {}
        if build == "folded":
            kwargs = {"fold": 2}
        elif build == "near":
            z_tgt = z * (1.0 + 1e-9 * np.cos(3 * self.THETA))
        else:
            kwargs = {"n_rows": 9}
        with pytest.raises(Q.QuadratureFailure, match="source node 5:"):
            Q._kernel_matrix(alpha, kappa, self.PARAMS.mu, z_tgt, z, dz, **kwargs)

    def test_zero_beyond_the_built_rows_is_not_read(self):
        # a build of rows 0..3 has no diagonal entry at node 5
        z, dz = self.unit_circle()
        alpha, kappa = gkj_coefficients(self.PARAMS, 1, 1)
        rows = Q._kernel_matrix(alpha, kappa, self.PARAMS.mu, z, z, dz, n_rows=4)
        assert np.all(np.isfinite(rows))

    @pytest.mark.parametrize("other,message", [
        ("nan", "non-finite"),
        ("touch", "boundaries touch"),
        ("mu_chord", "mu \\* chord too large"),
    ])
    def test_earlier_guards_keep_their_precedence(self, other, message):
        z, dz = self.unit_circle()
        mu = self.PARAMS.mu
        if other == "nan":
            dz[3] = np.nan
        elif other == "touch":
            z[11] = z[10]
        else:
            mu = 7.0
        with pytest.raises(Q.QuadratureFailure, match=message):
            Q._kernel_matrix(1.0, 0.5, mu, z, z, dz)


class TestKernelApplication:
    """A complex density takes one (rows x N) @ (N x 2) product on its float view."""

    PARAMS = LayerParams(2.5, 1.0, 1.0, 0.7)

    def blocks(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz1 = Q.spectral_derivative(z1)
        mu = self.PARAMS.mu
        w11 = Q._kernel_matrix(*gkj_coefficients(self.PARAMS, 1, 1), mu, z1, z1, dz1)
        w21 = Q._kernel_matrix(*gkj_coefficients(self.PARAMS, 2, 1), mu, z2, z1, dz1)
        rows = Q._kernel_matrix(*gkj_coefficients(self.PARAMS, 2, 1), mu, z2, z1, dz1, n_rows=Q.fold_rows(N, 2))
        return {"full": w11, "transposed": w21.T, "fold_rows": rows}, dz1

    @pytest.mark.parametrize("which", ["full", "transposed", "fold_rows"])
    def test_complex_density_matches_two_products(self, which):
        # against the two real products and against sums of the same
        # products taken exactly (math.fsum), in units of the summands
        # sum_j |W_ij| |T_j|: measured at most 1.04e-15 and 8.1e-16 (the
        # transposed view; the two products themselves read 4.7e-16)
        kern, dz = self.blocks()
        kern = kern[which]
        got = Q._apply_kernel_matrix(kern, dz)
        want = kern @ dz.real + 1j * (kern @ dz.imag)
        exact = np.array([complex(fsum(row * dz.real), fsum(row * dz.imag))
                          for row in np.asarray(kern)])
        summands = np.max(np.abs(kern) @ np.abs(dz))
        assert got.shape == want.shape and got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 2e-15 * summands
        assert np.max(np.abs(got - exact)) <= 2e-15 * summands

    def test_real_density_exact(self):
        kern, dz = self.blocks()
        for block in kern.values():
            assert np.array_equal(Q._apply_kernel_matrix(block, dz.real), block @ dz.real)


class TestCachedTables:
    """The views and tables the builds share are read-only and equal a fresh build."""

    @pytest.mark.parametrize("n_rows", [1, N // 4 + 1, N])
    def test_circulant_view(self, n_rows):
        row = np.random.default_rng(3).normal(size=N)
        view = Q._circulant_view(row, n_rows)
        i, j = np.indices((n_rows, N))
        assert not view.flags.writeable
        assert np.array_equal(view, row[(j - i) % N])

    @pytest.mark.parametrize("n,n_rows", [(N, N // 4 + 1), (66, 17), (66, 12), (N, N), (66, 66)])
    def test_centred_views(self, n, n_rows):
        values = np.random.default_rng(4).normal(size=n)
        k, d = np.indices((n_rows, n // 2 + 1))
        tgt, src = Q._centred_views(values, n_rows, n // 2 + 1)
        assert not (tgt.flags.writeable or src.flags.writeable)
        assert np.array_equal(tgt, values[(k - d // 2) % n])
        assert np.array_equal(src, values[(k + (d + 1) // 2) % n])

    @pytest.mark.parametrize("index", [[0, 5], [-1, 0]])
    def test_gather_index_range_checked(self, index):
        # the gathers take mode="clip", which would clamp a stray index
        with pytest.raises(IndexError, match="outside a block of 5 entries"):
            Q._checked_index(np.array(index), 5)

    def test_folded_table_read_only_and_fresh(self):
        params = LayerParams(1.3, 0.8, 1.0, 0.7)
        alpha, kappa = gkj_coefficients(params, 1, 1)
        mu, h = params.mu, 2 * np.pi / N
        series = series_coefficients(2.0)
        table = Q._folded_table(series.tobytes(), alpha, kappa, mu, h)
        i0, regular = series
        fresh = np.stack((-0.5 * h * kappa * i0, h * kappa * (regular - np.log(mu) * i0)))
        fresh[0, 0] += 0.5 * h * alpha
        assert not table.flags.writeable
        assert np.array_equal(table, fresh)
        assert Q._folded_table(series.tobytes(), alpha, kappa, mu, h) is table

    def test_folded_cache_bounded(self):
        z = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz = Q.spectral_derivative(z)
        for lam in np.linspace(0.5, 1.5, 100):
            params = LayerParams(1.0, float(lam), 1.0, 0.7)
            Q._kernel_matrix(*gkj_coefficients(params, 1, 1), params.mu, z, z, dz)
        info = Q._folded_table.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_mode_numbers_read_only(self):
        k, ik = Q._mode_numbers(N)
        assert not k.flags.writeable and not ik.flags.writeable
        assert np.array_equal(k, np.fft.fftfreq(N, d=1.0 / N))
        assert np.array_equal(ik, 1j * k)


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

    def test_one_row_build_makes_no_square_table(self):
        # fresh caches: a single-row moment check at N = 2048 must not build
        # the N x N half-band index or any other N^2 table (32 MB each)
        for cached in (Q._grid_tables, Q._log_ratio_row, Q._take, Q.mode_tables):
            cached.cache_clear()
        peak = traced_peak(lambda: Q.screened_moment_quadrature(0.7, 0.7, 2.0, 32, 2048))
        assert peak < 8e6

    def test_full_self_build_peak(self):
        z = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz = Q.spectral_derivative(z)
        args = (*gkj_coefficients(self.PARAMS, 1, 1), self.PARAMS.mu, z, z, dz)
        Q._kernel_matrix(*args)  # builds the cached gather index
        peak = traced_peak(lambda: Q._kernel_matrix(*args))
        assert peak <= 5 * self.UNIT

    def test_self_build_gathers_without_an_index_copy(self):
        # grid block and three half bands: 2.56 UNIT.  np.take copies a
        # read-only index (1 UNIT here) before every gather, 3.05 with the
        # cached table itself as the index
        z = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        args = (*gkj_coefficients(self.PARAMS, 1, 1), self.PARAMS.mu, z, z,
                Q.spectral_derivative(z))
        Q._kernel_matrix(*args)  # fills the caches
        assert traced_peak(lambda: Q._kernel_matrix(*args)) <= 2.6 * self.UNIT

    def test_gathers_take_a_private_writeable_index(self):
        # each cached take holds the one copy of its index, writeable (numpy
        # copies a read-only index before every take); no other cache holds it
        for table, key in ((Q._gather_index, (64, 4)), (Q._mirror_index, (64, 4, False))):
            take = Q._take(table, *key)
            index = take.keywords["indices"]
            assert index.flags.writeable and not hasattr(table, "cache_info")
            assert np.array_equal(index, table(*key))
            assert Q._take(table, *key) is take

    def test_full_layer_integrals_peak(self):
        # the cross build peaks at 3.0 UNIT (chords, log, one Horner row) and
        # a self build at 2.56 (grid block, three half bands).  Serially that
        # reads 3.0 UNIT; on two CPUs the two can peak together, 5.58 at most
        # (300 calls at N = 256; 6.07 while each gather copied its read-only
        # index); one more square temporary crosses the bound
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dzs = [Q.spectral_derivative(z) for z in (z1, z2)]
        Q.layer_integrals(self.PARAMS, (z1, z2), dzs)  # fills the caches
        peak = traced_peak(lambda: Q.layer_integrals(self.PARAMS, (z1, z2), dzs))
        assert peak <= 6.5 * self.UNIT

    def near_pair(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        return z1, z1 * (1.0 + 1e-6 * np.cos(3 * THETA))

    def test_near_coincident_build_peak(self):
        # chords, q and one Horner row, each built in place on the grid:
        # 3.01 UNIT (4.02 with a split layout and a gather into the grid)
        z1, z2 = self.near_pair()
        dz1 = Q.spectral_derivative(z1)
        args = (*gkj_coefficients(self.PARAMS, 2, 1), self.PARAMS.mu, z2, z1, dz1)
        Q._kernel_matrix(*args)  # fills the caches
        peak = traced_peak(lambda: Q._kernel_matrix(*args))
        assert peak <= 3.1 * self.UNIT

    def test_near_coincident_layer_integrals_peak(self):
        # the near-coincident cross block (3.01 UNIT) next to a self build
        # (2.56): 5.58 at most on two CPUs (200 calls; 6.08 while each gather
        # copied its read-only index), 7.08 with a gathered cross block
        zs = self.near_pair()
        dzs = [Q.spectral_derivative(z) for z in zs]
        Q.layer_integrals(self.PARAMS, zs, dzs)  # fills the caches
        peak = traced_peak(lambda: Q.layer_integrals(self.PARAMS, zs, dzs))
        assert peak <= 6.5 * self.UNIT

    def test_cross_build_peak(self):
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        dz1 = Q.spectral_derivative(z1)
        args = (*gkj_coefficients(self.PARAMS, 2, 1), self.PARAMS.mu, z2, z1, dz1)
        peak = traced_peak(lambda: Q._kernel_matrix(*args))
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
