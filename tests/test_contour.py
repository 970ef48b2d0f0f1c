import numpy as np
import pytest

import oracles as O
from qgpatch import cli
from qgpatch import contour as C
from qgpatch import quadrature as Q
from qgpatch import spectrum as S
from qgpatch.kernels import LayerParams, gkj_coefficients

BASE = LayerParams(1.0, 1.0, 1.0, 0.7)
# m = 5, sign +: the residual falls to ~1e-17 while omega keeps moving by
# more than the 1e-12 step test, so Newton never converges here
STALLED = LayerParams(1.268, 0.242, 1.0, 0.227)
# m = 1, sign +: seven amplitudes of np.geomspace(0.001, 0.1, 9) converge,
# then the boundaries come within 0.1 * b1 and the quadrature refuses
NEAR_TOUCH = LayerParams(3.9484009878369566, 1.457370503756139, 1.0, 0.8807077673978791)
N = 256
THETA = 2 * np.pi * np.arange(N) / N


class TestRadiusProfile:
    def test_zero_deformation(self):
        r = C.radius_profile(1.3, np.zeros(8))
        assert np.all(r == 1.3)

    def test_constant_shift(self):
        eps = 0.01
        r = C.radius_profile(1.0, np.full(8, eps))
        assert np.allclose(r, np.sqrt(1.0 + 2 * eps))

    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        r_in = 0.05 * rng.standard_normal(64)
        radius = C.radius_profile(1.1, r_in)
        back = 0.5 * (radius**2 - 1.1**2)
        assert np.max(np.abs(back - r_in)) < 1e-15

    def test_collapse(self):
        with pytest.raises(C.RadiusCollapseError):
            C.radius_profile(0.5, np.array([-0.2]))


class TestRadialDeformation:
    def test_nodal_consistency(self):
        d = C.RadialDeformation(3, np.array([[0.01, 0.002], [0.0, -0.001]]), 128)
        t = d.grid()
        expected = 0.01 * np.cos(3 * t) + 0.002 * np.cos(6 * t)
        assert np.allclose(d.nodal()[0], expected, atol=1e-15)
        expected_d = -0.03 * np.sin(3 * t) - 0.012 * np.sin(6 * t)
        assert np.allclose(d.nodal_derivative()[0], expected_d, atol=1e-15)

    def test_evenness_and_periodicity(self):
        d = C.RadialDeformation(4, np.array([[0.02], [0.01]]), 128)
        vals = d.nodal()
        assert np.allclose(vals[:, 1:], vals[:, :0:-1], atol=1e-16)  # even
        quarter = 128 // 4
        assert np.allclose(vals, np.roll(vals, quarter, axis=1), atol=1e-16)

    def test_nyquist_guard(self):
        with pytest.raises(ValueError):
            C.RadialDeformation(8, np.zeros((2, 16)), 128)


class TestFunctional:
    @pytest.mark.parametrize("omega", [-1.0, 0.0, 0.5])
    def test_discs_are_roots(self, omega):
        f = C.functional_f(BASE, omega, C.RadialDeformation.zero(2, 8, N))
        assert np.max(np.abs(f)) <= 1e-10

    def test_even_input_odd_output(self):
        d = C.RadialDeformation(2, np.array([[0.02, 0.005], [0.01, 0.0]]), N)
        f = C.functional_f(BASE, 0.3, d)
        reversed_f = f[:, [0] + list(range(N - 1, 0, -1))]  # F(-t)
        assert np.max(np.abs(f + reversed_f)) <= 1e-12

    def test_matches_matrix_density_sum(self):
        # oracle: sum_j sum_e W_kj[i, e] Im(conj z_k'(t_i) z_j'(e)), with all
        # four kernel matrices built directly
        d = C.RadialDeformation(2, np.array([[0.02, 0.005], [-0.01, 0.003]]), N)
        r, dr = d.nodal(), d.nodal_derivative()
        omega = 0.3
        got = C.functional_f(BASE, omega, d)
        zs, dzs = C._boundary_curves(BASE, r, dr)
        for k in (0, 1):
            want = omega * dr[k]
            for j in (0, 1):
                alpha, kappa = gkj_coefficients(BASE, k + 1, j + 1)
                w = Q._kernel_matrix(alpha, kappa, BASE.mu, zs[k], zs[j], dzs[j])
                density = np.imag(np.conj(dzs[k])[:, None] * dzs[j][None, :])
                want = want + np.sum(w * density, axis=1)
            assert np.max(np.abs(got[k] - want)) <= 1e-14

    def test_mfold_shift_invariance(self):
        m = 3
        d = C.RadialDeformation(m, np.array([[0.02, 0.004], [0.01, 0.002]]), 258 // 2 * 2)
        d = C.RadialDeformation(m, d.coeffs, 258)  # N divisible by m
        f = C.functional_f(BASE, 0.1, d)
        shift = 258 // m
        assert np.max(np.abs(f - np.roll(f, -shift, axis=1))) <= 1e-12


class TestProjectedResidual:
    """The fundamental-domain residual against the full-grid projection."""

    @pytest.mark.parametrize(
        "m,n_nodes", [(1, 256), (2, 256), (3, 256), (4, 256), (2, 66), (3, 66)]
    )
    def test_matches_full_grid_projection(self, m, n_nodes):
        # g = gcd(m, N) = 1; N/g even; N/g odd (no node at t = pi/g).  Twin
        # radii with 1e-4 deformations make the cross block near-coincident,
        # so W_21 takes its target rows under the fold
        n_modes = min(6, (n_nodes // 2 - 1) // m)
        rng = np.random.default_rng(m * n_nodes)
        coeffs = 0.01 * rng.standard_normal((2, n_modes)) / np.arange(1, n_modes + 1) ** 2
        for params, c in ((BASE, coeffs), (LayerParams(1.0, 1.0, 1.0, 1.0), 0.01 * coeffs)):
            d = C.RadialDeformation(m, c, n_nodes)
            want = C.sine_coefficients(C.functional_f(params, 0.3, d), m, n_modes).ravel()
            got = C._projected_residual(params, 0.3, d)
            assert np.max(np.abs(got - want)) <= 1e-14

    @pytest.mark.parametrize("peak", [0.0, np.pi / 2])
    def test_end_row_pair_refused(self, peak):
        # r_2 = a (cos^20(t - peak) - mean) brings layer 2 to radius 0.901
        # at t = peak (mod pi) only, an end row of the m = 2 domain
        n = 64
        t = 2 * np.pi * np.arange(n) / n
        f = np.cos(t - peak) ** 20
        a = 0.5 * (0.901**2 - 0.85**2)
        params = LayerParams(1.0, 1.0, 1.0, np.sqrt(0.85**2 + 2 * a * np.mean(f)))
        modes = 2 * np.arange(1, 16)
        c2 = (2.0 / n) * (a * f) @ np.cos(np.outer(modes, t)).T
        d = C.RadialDeformation(2, np.vstack([np.zeros(15), c2]), n)
        with pytest.raises(Q.TouchingBoundaryError, match="9.900e-02"):
            C.functional_f(params, 0.3, d)
        with pytest.raises(Q.TouchingBoundaryError, match="9.900e-02"):
            C._projected_residual(params, 0.3, d)


class TestLinearization:
    def test_multiplier_consistency(self):
        for n in (1, 4, 9):
            got = C.linearized_multiplier(BASE, 0.27, n)
            assert np.allclose(got, -n * S.matrix_m(BASE, n, 0.27), atol=0)

    def test_singular_at_branch_velocities(self):
        lo, hi = S.omega_pm(BASE, 3)
        for omega in (lo, hi):
            block = C.linearized_multiplier(BASE, omega, 3)
            assert abs(np.linalg.det(block)) <= 1e-11 * np.linalg.norm(block) ** 2

    def test_annihilates_kernel_vector(self):
        vec = S.kernel_vector(BASE, 3, 1)
        block = C.linearized_multiplier(BASE, S.omega_pm(BASE, 3)[1], 3)
        assert np.linalg.norm(block @ vec) <= 1e-11 * np.linalg.norm(block)

    @pytest.mark.parametrize("m", [2, 3])
    def test_newton_matrix_blocks(self, m):
        n_modes, omega = 8, 0.27
        coeffs = 1e-3 * np.random.default_rng(m).standard_normal((2, n_modes))
        spec = S.spectrum_arrays(BASE, m * n_modes)
        jac = C._newton_matrix(spec, omega, coeffs, m)
        for j in range(1, n_modes + 1):
            r1, r2 = j - 1, n_modes + j - 1
            assert jac[r1, 0] == -m * j * coeffs[0, j - 1]
            assert jac[r2, 0] == -m * j * coeffs[1, j - 1]
            n = m * j
            want = C.linearized_multiplier(BASE, omega, n)
            got = jac[[r1, r2]][:, [j - 1, n_modes + j - 1]]
            if j == 1:  # the pinned coefficient has no column
                got[:, 0] = want[:, 0]
            # the entries omega + A_n/(d+1), omega + B_n/(d+1) and gamma_n
            # cancel, so the error is measured against their summands
            a_n, b_n = spec.a_n[n - 1], spec.b_n[n - 1]
            scale = n * (abs(omega) + max(abs(a_n), abs(b_n)) / (BASE.delta + 1.0))
            assert np.max(np.abs(got - want)) <= 1e-13 * scale


class TestJacobianFD:
    def test_matches_multiplier_coincident_discs(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        jac = C.jacobian_fd(p, 0.3, h=1e-6, n_probe=6, n_nodes=N)
        for n in range(1, 7):
            exact = C.linearized_multiplier(p, 0.3, n)
            rel = np.linalg.norm(jac[n - 1, n - 1] - exact) / np.linalg.norm(exact)
            assert rel <= 1e-5
            for n2 in range(1, 7):
                if n2 != n:
                    assert np.max(np.abs(jac[n2 - 1, n - 1])) <= 1e-8

    def test_matches_multiplier_separated_discs(self):
        jac = C.jacobian_fd(BASE, 0.1, h=1e-6, n_probe=6, n_nodes=N)
        for n in range(1, 7):
            exact = C.linearized_multiplier(BASE, 0.1, n)
            rel = np.linalg.norm(jac[n - 1, n - 1] - exact) / np.linalg.norm(exact)
            assert rel <= 1e-5

    def test_central_difference_order(self):
        # halving h shrinks the defect by ~4: second-order differencing
        errs = []
        for h in (1e-4, 5e-5):
            jac = C.jacobian_fd(BASE, 0.2, h=h, n_probe=2, n_nodes=128)
            exact = C.linearized_multiplier(BASE, 0.2, 1)
            errs.append(np.linalg.norm(jac[0, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 2.5 <= ratio <= 6.0

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            C.jacobian_fd(BASE, 0.2, h=1e-3)


class TestVStateSolve:
    def test_zero_amplitude_exact(self):
        sol = C.vstate_solve(BASE, 2, -1, 0.0, n_modes=8, n_nodes=128)
        # Omega_2^- from the rows the solve reads, the modes up to m * n_modes
        assert sol.omega == S.spectrum_arrays(BASE, 2 * 8).omega(2, -1)
        assert np.all(sol.deformation.coeffs == 0.0)
        assert sol.residual_norm == 0.0

    @pytest.mark.parametrize("m,sign", [(2, -1), (3, 1)])
    def test_small_amplitude_branch(self, m, sign):
        s = 1e-3
        sol = C.vstate_solve(BASE, m, sign, s, n_modes=16, n_nodes=N)
        assert sol.residual_norm <= 1e-10
        spec = S.spectrum_arrays(BASE, m * 16)
        # branch continuity: |Omega - Omega_0| <= C s (regression constant)
        assert abs(sol.omega - spec.omega(m, sign)) <= 1e-2 * s
        # tangency: deformation - s * kernel_vector cos(m t) is O(s^2)
        vec = spec.kernel_vector(m, sign)
        tangent = np.zeros_like(sol.deformation.coeffs)
        tangent[:, 0] = s * vec
        assert np.max(np.abs(sol.deformation.coeffs - tangent)) <= 10 * s * s
        # the amplitude chart pins the first-layer mode-m coefficient
        assert sol.deformation.coeffs[0, 0] == s * vec[0]

    def test_quadrature_independence(self):
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=N)
        doubled = C.RadialDeformation(2, sol.deformation.coeffs, 2 * N)
        f = C.functional_f(BASE, sol.omega, doubled)
        assert np.max(np.abs(f)) <= 1e-7

    def test_collision_refusal(self):
        # Omega_3^+ meets Omega_6^- at this b2: the 3-fold plus-branch is
        # degenerate inside its own symmetry class
        p = LayerParams(1.0, 1.0, 1.0, 0.7459086390395124)
        with pytest.raises(C.CollisionDetectedError):
            C.vstate_solve(p, 3, 1, 1e-3, n_modes=8, n_nodes=128)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            C.vstate_solve(BASE, 2, -1, 0.5)

    def test_stalled_solve_refused(self):
        # a tiny residual alone must not be returned as converged
        with pytest.raises(C.NoConvergenceError):
            C.vstate_solve(STALLED, 5, 1, 1e-3, n_modes=8, n_nodes=128)

    def test_warm_start_at_solution_accepted_unmoved(self, monkeypatch):
        # the start's own correction is below 1e-12: it is returned after
        # one residual evaluation, with no step applied
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=N)
        calls = []
        residual = C._projected_residual
        monkeypatch.setattr(C, "_projected_residual", lambda *a: calls.append(a) or residual(*a))
        again = C.vstate_solve(BASE, 2, -1, 1e-3, init=sol, n_modes=16, n_nodes=N)
        assert len(calls) == 1
        assert again.iterations == 0
        assert again.omega == sol.omega
        assert np.array_equal(again.deformation.coeffs, sol.deformation.coeffs)
        assert again.residual_norm == sol.residual_norm

    def test_converging_on_last_permitted_step_accepted(self, monkeypatch):
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=N)
        assert sol.iterations >= 1
        monkeypatch.setattr(C, "NEWTON_MAX_ITER", sol.iterations)
        last = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=N)
        assert (last.omega, last.iterations) == (sol.omega, sol.iterations)
        assert np.array_equal(last.deformation.coeffs, sol.deformation.coeffs)
        monkeypatch.setattr(C, "NEWTON_MAX_ITER", sol.iterations - 1)
        with pytest.raises(C.NoConvergenceError, match="no convergence"):
            C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=N)


class TestBranchContinue:
    def test_first_point_matches_scratch(self):
        grid = [0.002, 0.004]
        res = C.branch_continue(BASE, 2, -1, grid, n_modes=12, n_nodes=N)
        assert res.failure is None and len(res.solutions) == 2
        scratch = C.vstate_solve(BASE, 2, -1, 0.002, n_modes=12, n_nodes=N)
        assert abs(res.solutions[0].omega - scratch.omega) <= 1e-9

    def test_omega_continuity_and_symmetry(self):
        grid = [0.002, 0.004, 0.006, 0.008]
        res = C.branch_continue(BASE, 2, -1, grid, n_modes=12, n_nodes=N)
        omegas = [s.omega for s in res.solutions]
        assert all(abs(b - a) <= 0.1 * 0.002 for a, b in zip(omegas, omegas[1:]))
        # m-fold symmetry: no spurious non-multiple modes in F at the answer
        last = res.solutions[-1]
        f = C.functional_f(BASE, last.omega, last.deformation)
        modes = np.arange(1, 60)
        coefs = C.sine_coefficients(f, 1, modes.size)
        off = coefs[:, (modes % 2) != 0]
        assert np.max(np.abs(off)) <= 1e-10

    def test_partial_result_on_failure(self, monkeypatch):
        # one Newton iteration cannot pass the step test: fails at the first point
        monkeypatch.setattr(C, "NEWTON_MAX_ITER", 1)
        res = C.branch_continue(BASE, 2, -1, [1e-3], n_modes=8, n_nodes=128)
        assert res.failure is not None
        assert res.solutions == []

    def test_stalled_solve_recorded_as_failure(self):
        res = C.branch_continue(STALLED, 5, 1, [1e-3], n_modes=8, n_nodes=128)
        assert res.failure is not None and "no convergence" in res.failure
        assert res.solutions == []

    def test_one_spectrum_per_branch(self, monkeypatch):
        # the rows up to m * n_modes are evaluated and checked once, not per solve
        calls = {"spectrum_arrays": 0, "check_simple_eigenvalue": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(S, "spectrum_arrays")
        counted(C, "check_simple_eigenvalue")
        res = C.branch_continue(BASE, 2, -1, [0.002, 0.004, 0.006], n_modes=8, n_nodes=128)
        assert res.failure is None and len(res.solutions) == 3
        assert calls == {"spectrum_arrays": 1, "check_simple_eigenvalue": 1}

    def test_collision_raises_before_any_solve(self, monkeypatch):
        p = LayerParams(1.0, 1.0, 1.0, 0.7459086390395124)  # Omega_3^+ = Omega_6^-
        monkeypatch.setattr(C, "_projected_residual", lambda *a: pytest.fail("solved"))
        with pytest.raises(C.CollisionDetectedError):
            C.branch_continue(p, 3, 1, [1e-3, 2e-3], n_modes=8, n_nodes=128)

    def test_quadrature_refusal_keeps_converged_part(self):
        res = C.branch_continue(
            NEAR_TOUCH, 1, 1, np.geomspace(0.001, 0.1, 9), n_modes=16, n_nodes=N
        )
        assert len(res.solutions) == 7
        assert res.failure.startswith("s=0.0562341: curve separation 9.826e-02")
        # the separation is that of the predicted start, not of a solution
        assert res.failure.endswith("(at the Newton start)")


class TestSecantPredictor:
    """Predicted starts: cold-solve answers with fewer functional evaluations."""

    GRID = (0.001, 0.002, 0.004, 0.008, 0.016, 0.032)

    def test_solutions_match_cold_solves(self):
        res = C.branch_continue(BASE, 2, -1, self.GRID, n_modes=16, n_nodes=N)
        assert res.failure is None and len(res.solutions) == len(self.GRID)
        for sol in res.solutions:
            cold = C.vstate_solve(BASE, 2, -1, sol.amplitude, n_modes=16, n_nodes=N)
            assert abs(sol.omega - cold.omega) <= 1e-12
            coeffs = sol.deformation.coeffs
            assert np.max(np.abs(coeffs - cold.deformation.coeffs)) <= 1e-12

    def test_functional_evaluations(self, monkeypatch):
        calls = []
        residual = C._projected_residual

        def counted(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(C, "_projected_residual", counted)
        res = C.branch_continue(BASE, 2, -1, self.GRID, n_modes=16, n_nodes=N)
        assert res.failure is None
        assert len(calls) <= 11

    def test_residual_is_the_returned_iterates_own(self, monkeypatch):
        # each reported residual is the max-norm of the last residual its
        # solve evaluated, the one at the returned unknowns
        last = []
        residual = C._projected_residual

        def spied(params, omega, defo):
            values = residual(params, omega, defo)
            last[:] = [omega, defo.coeffs.copy(), float(np.max(np.abs(values)))]
            return values

        solve = C.vstate_solve
        checked = []

        def checked_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            assert sol.omega == last[0]
            assert np.array_equal(sol.deformation.coeffs, last[1])
            assert sol.residual_norm == last[2] <= C.NEWTON_TOL
            checked.append(sol)
            return sol

        monkeypatch.setattr(C, "_projected_residual", spied)
        monkeypatch.setattr(C, "vstate_solve", checked_solve)
        res = C.branch_continue(BASE, 2, -1, self.GRID, n_modes=16, n_nodes=N)
        assert res.failure is None and len(checked) == len(self.GRID)

    @pytest.mark.parametrize(
        "grid", [(0.0, 0.002, 0.004, 0.008), (0.002, 0.0, 0.002, 0.004, 0.008)]
    )
    def test_zero_and_repeated_amplitudes_continue(self, grid):
        res = C.branch_continue(BASE, 2, -1, grid, n_modes=12, n_nodes=N)
        assert res.failure is None
        assert [sol.amplitude for sol in res.solutions] == list(grid)
        want = C.branch_continue(BASE, 2, -1, (0.002, 0.004, 0.008), n_modes=12, n_nodes=N)
        assert abs(res.solutions[-1].omega - want.solutions[-1].omega) <= 1e-12

    def test_mirrored_amplitudes_share_one_node(self):
        # s and -s share s^2: the start at -s is the mirrored solution, and
        # the start at 0.004 extrapolates through two distinct s^2 only
        grid = (0.002, -0.002, 0.004)
        res = C.branch_continue(BASE, 2, -1, grid, n_modes=16, n_nodes=N)
        assert res.failure is None
        assert [sol.amplitude for sol in res.solutions] == list(grid)
        for sol in res.solutions:
            cold = C.vstate_solve(BASE, 2, -1, sol.amplitude, n_modes=16, n_nodes=N)
            assert abs(sol.omega - cold.omega) <= 1e-12
            coeffs = sol.deformation.coeffs
            assert np.max(np.abs(coeffs - cold.deformation.coeffs)) <= 1e-12

    def test_start_extrapolates_parity_structured_family(self):
        # Omega and the even modes are g(s^2), the odd modes s g(s^2); at
        # s = 0 the odd part of mode m is the kernel vector
        n_modes = 8
        omega0, vec = 0.3, np.array([0.6, -0.8])
        odd = np.arange(n_modes) % 2 == 0
        g1 = np.linspace(1.0, 2.0, 2 * n_modes).reshape(2, n_modes)
        g2 = g1[::-1] - 1.5
        g0 = np.zeros((2, n_modes))
        g0[:, 0] = vec

        def family(curvature):
            def at(s):
                sigma = s * s
                g = g0 + sigma * g1 + curvature * sigma * sigma * g2
                return C.VStateSolution(
                    BASE, 2, -1, s, omega0 + 0.5 * sigma - curvature * 2.0 * sigma * sigma,
                    C.RadialDeformation(2, g * np.where(odd, s, 1.0), 64), 0.0,
                )
            return at

        def assert_reproduces(start, want):
            assert start.amplitude == want.amplitude
            assert start.omega == pytest.approx(want.omega, rel=0, abs=1e-15)
            coeffs, want_coeffs = start.deformation.coeffs, want.deformation.coeffs
            assert np.max(np.abs(coeffs - want_coeffs)) <= 1e-15

        # a quadratic in s^2 through the origin and two solutions; the
        # earlier -0.002 repeats the s^2 of 0.002 and is skipped
        at = family(1.0)
        solved = [at(0.001), at(-0.002), at(0.002)]
        for s in (0.004, -0.004):
            assert_reproduces(C._secant_start(omega0, vec, solved, s), at(s))
        # one solution: a line in s^2 through the origin
        line = family(0.0)
        assert_reproduces(C._secant_start(omega0, vec, [line(0.002)], -0.003), line(-0.003))
        # no solution with nonzero amplitude: the tangent start
        assert C._secant_start(omega0, vec, [line(0.0)], 0.002) is None


class TestHalfTurnSymmetry:
    """Rotation by pi/m maps the V-state at s to the one at -s."""

    @pytest.mark.parametrize("m,n_nodes", [(2, 64), (3, 66)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_negative_amplitude_mirrors_branch(self, m, n_nodes, sign):
        s = 0.01
        plus = C.vstate_solve(BASE, m, sign, s, n_modes=8, n_nodes=n_nodes)
        minus = C.vstate_solve(BASE, m, sign, -s, n_modes=8, n_nodes=n_nodes)
        assert abs(minus.omega - plus.omega) <= 1e-12
        parity = (-1.0) ** np.arange(1, 9)  # cos(n m t) -> (-1)^n cos(n m t)
        mirrored = plus.deformation.coeffs * parity
        assert np.max(np.abs(minus.deformation.coeffs - mirrored)) <= 1e-12
        # the even mode 2m is resolved, so the parity is tested, not assumed
        assert np.max(np.abs(plus.deformation.coeffs[:, 1])) > 1e-9


class TestSerialization:
    def test_json_roundtrip(self):
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=8, n_nodes=128)
        back = C.VStateSolution.from_json_dict(sol.to_json_dict())
        assert back.omega == sol.omega
        assert back.iterations == sol.iterations
        assert np.array_equal(back.deformation.coeffs, sol.deformation.coeffs)

    @staticmethod
    def cli_boundary_csv(tmp_path, monkeypatch, sol) -> str:
        """The boundary_000.csv that ``qgpatch vstate`` writes for a branch of sol."""
        monkeypatch.setattr(cli, "branch_continue", lambda *a, **k: C.BranchResult([sol]))
        assert cli.main(["vstate", "--out", str(tmp_path)]) == 0
        return (tmp_path / "boundary_000.csv").read_text()

    def test_boundary_csv_shape(self, tmp_path, monkeypatch):
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=8, n_nodes=128)
        lines = self.cli_boundary_csv(tmp_path, monkeypatch, sol).strip().split("\n")
        assert lines[0] == "theta,R1,R2,x1,y1,x2,y2"
        assert len(lines) == 1 + 128

    @pytest.mark.parametrize("n_nodes", [64, 256])
    def test_boundary_csv_bytes_match_per_value_writer(self, tmp_path, monkeypatch, n_nodes):
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=8, n_nodes=n_nodes)
        written = self.cli_boundary_csv(tmp_path, monkeypatch, sol)
        assert written == O.boundary_csv_per_value(sol)

    def test_boundary_csv_bytes_negative_and_tiny_coefficients(self, tmp_path, monkeypatch):
        coeffs = np.array([[-3e-3, 1e-300, -5e-17], [2e-3, -7e-320, 0.0]])
        sol = C.VStateSolution(
            BASE, 3, 1, -3e-3, -0.25, C.RadialDeformation(3, coeffs, 128), 0.0
        )
        written = self.cli_boundary_csv(tmp_path, monkeypatch, sol)
        assert written == O.boundary_csv_per_value(sol)
