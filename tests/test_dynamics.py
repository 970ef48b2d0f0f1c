import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
from qgpatch import contour as C
from qgpatch import dynamics as D
from qgpatch import quadrature as Q
from qgpatch.kernels import LayerParams, gkj_coefficients
from qgpatch.quadrature import TouchingBoundaryError

BASE = LayerParams(1.0, 1.0, 1.0, 0.7)
N = 256
THETA = 2 * np.pi * np.arange(N) / N


class TestTransform:
    def test_unit_delta(self):
        assert O.transform_pm(1.0, 1.0, 1.0) == (2.0, 0.0)

    def test_row_substitution(self):
        assert O.transform_pm(2.0, 3.0, 4.0) == (5.0, -1.0)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2),
        st.lists(st.floats(min_value=-10, max_value=10), min_size=2, max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, delta, f1, f2):
        f1 = np.asarray(f1)
        f2 = np.asarray(f2)
        g1, g2 = O.inverse_transform_pm(delta, *O.transform_pm(delta, f1, f2))
        assert np.max(np.abs(g1 - f1)) <= 1e-14 * max(1.0, np.max(np.abs(f1)))
        assert np.max(np.abs(g2 - f2)) <= 1e-14 * max(1.0, np.max(np.abs(f2)))


class TestArea:
    def test_disc_area_exact(self):
        disc = D.PatchBoundary.disc(1.0, 1, 256)
        assert disc.area() == pytest.approx(np.pi, rel=0, abs=1e-14)

    def test_orientation_flip(self):
        disc = D.PatchBoundary.disc(1.0, 1, 128)
        flipped = D.PatchBoundary(disc.nodes[::-1].copy(), 1)
        assert flipped.area() == pytest.approx(-disc.area())

    def test_translation_invariance(self):
        disc = D.PatchBoundary.disc(0.8, 2, 128)
        moved = D.PatchBoundary(disc.nodes + (3.0 - 2.0j), 2)
        assert moved.area() == pytest.approx(disc.area(), abs=1e-14)

    def test_exact_for_trigonometric_curve(self):
        # r = 1 + 0.2 cos 3t encloses pi (1 + 0.2^2 / 2); the node polygon
        # misses that by about 1e-3 at 64 nodes
        t = 2 * np.pi * np.arange(64) / 64
        curve = D.PatchBoundary((1.0 + 0.2 * np.cos(3 * t)) * np.exp(1j * t), 1)
        assert curve.area() == pytest.approx(1.02 * np.pi, rel=0, abs=1e-14)

    def test_moments_of_an_offset_disc(self):
        # the disc |x - c| < r: int |x|^2 = pi r^2 (r^2/2 + |c|^2), int x = pi r^2 c
        c, r = 0.3 - 0.2j, 0.8
        disc = D.PatchBoundary(c + r * np.exp(1j * Q.grid(128)), 1)
        area = np.pi * r * r
        assert disc.second_moment() == pytest.approx(area * (r * r / 2 + abs(c) ** 2),
                                                     rel=1e-14)
        assert abs(disc.first_moment() - area * c) <= 1e-14


class TestNyquistAgreement:
    def test_sawtooth_on_a_circle(self):
        # z = 0.8 e^{it} + 1e-3 (-1)^j: the sawtooth is the unpaired Nyquist
        # mode, which area, derivative and respacing all drop alike
        n = 256
        saw = (-1.0) ** np.arange(n)
        boundary = D.PatchBoundary(0.8 * np.exp(1j * Q.grid(n)) + 1e-3 * saw, 1)
        assert abs(boundary.area() - np.pi * 0.64) <= 1e-15
        assert np.max(np.abs(Q.spectral_derivative(saw))) <= 1e-15
        respaced = D.resample_by_arclength(boundary)
        assert np.max(np.abs(np.abs(respaced.nodes) - 0.8)) <= 1e-15


class TestVelocities:
    def test_disc_velocity_tangential(self):
        st0 = D.EvolutionState.discs(BASE)
        v1, v2 = D.layer_node_velocities(
            BASE, st0.boundaries[0].nodes, st0.boundaries[1].nodes
        )
        for v, z in ((v1, st0.boundaries[0].nodes), (v2, st0.boundaries[1].nodes)):
            radial = np.real(np.conj(v) * z / np.abs(z))
            assert np.max(np.abs(radial)) <= 1e-8

    def test_twin_layers_identical_at_unit_delta(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        z = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        v1, v2 = D.layer_node_velocities(p, z, z.copy())
        assert np.max(np.abs(v1 - v2)) <= 1e-12

    def test_pm_route_matches_direct(self):
        st0 = D.EvolutionState.discs(BASE)
        z1, z2 = st0.boundaries[0].nodes, st0.boundaries[1].nodes
        v1, v2 = D.layer_node_velocities(BASE, z1, z2)
        w1, w2 = O.layer_node_velocities_pm(BASE, z1, z2)
        assert np.max(np.abs(v1 - w1)) <= 1e-12
        assert np.max(np.abs(v2 - w2)) <= 1e-12

    def test_pm_route_matches_direct_twin(self):
        p = LayerParams(2.0, 1.0, 1.0, 1.0)
        z = (1.0 + 0.01 * np.cos(4 * THETA)) * np.exp(1j * THETA)
        v = D.layer_node_velocities(p, z, z.copy())
        w = O.layer_node_velocities_pm(p, z, z.copy())
        assert max(np.max(np.abs(a - b)) for a, b in zip(v, w)) <= 1e-12

    def test_derivatives_by_one_stacked_fft(self):
        # the (2, N) FFT pair is bitwise the two 1-D ones
        z1, z2 = (b.nodes for b in off_centre_state().boundaries)
        got = D.layer_node_velocities(BASE, z1, z2)
        dzs = [Q.spectral_derivative(z) for z in (z1, z2)]
        u1, u2 = Q.layer_integrals(BASE, [z1, z2], dzs)
        assert np.array_equal(got[0], -u1) and np.array_equal(got[1], -u2)

    def test_pm_route_independent_of_layer_integrals(self, monkeypatch):
        # the oracle must not reach the assembly it checks, under any name
        z1 = (1.0 + 0.03 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        z2 = (0.7 - 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        v1, v2 = D.layer_node_velocities(BASE, z1, z2)
        original = Q.layer_integrals

        def refuse(*args, **kwargs):
            raise AssertionError("the +/- oracle called layer_integrals")

        for name, module in list(sys.modules.items()):
            if name.startswith("qgpatch") or module is O:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, refuse)
        w1, w2 = O.layer_node_velocities_pm(BASE, z1, z2)
        assert np.max(np.abs(v1 - w1)) <= 1e-12
        assert np.max(np.abs(v2 - w2)) <= 1e-12

    def test_far_field_point_vortex(self):
        st0 = D.EvolutionState.discs(BASE)
        q = np.array([100.0 + 0.0j])
        v = -sum(
            O.trapezoid_integral(
                *gkj_coefficients(BASE, 1, j), BASE.mu, q, b.nodes,
                Q.spectral_derivative(b.nodes),
            )
            for j, b in zip((1, 2), st0.boundaries)
        )
        a1 = st0.boundaries[0].area()
        a2 = st0.boundaries[1].area()
        expected = (BASE.delta * a1 + a2) / ((1 + BASE.delta) * 2 * np.pi * 100.0)
        assert abs(v[0]) == pytest.approx(expected, rel=0.01)

    def test_layer_gap_measured_against_outer_layer(self):
        # a gap of 0.095 is below 0.1 * b1 but above 0.1 * b2: the shared
        # cross matrix must still refuse it, as the (2, 1) pair always did
        p = LayerParams(1.0, 1.0, 1.0, 0.905)
        st0 = D.EvolutionState.discs(p)
        with pytest.raises(TouchingBoundaryError):
            D.layer_node_velocities(p, *(b.nodes for b in st0.boundaries))


class TestStepping:
    def test_disc_stationarity_per_step(self):
        st0 = D.EvolutionState.discs(BASE)
        st1 = D.step_rk4(BASE, st0, 1e-3)
        drift = np.abs(np.abs(st1.boundaries[0].nodes) - BASE.b1)
        assert np.max(drift) <= 1e-10 * BASE.b1

    def test_reversibility(self):
        z = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        zz = 0.7 * np.exp(1j * THETA)
        st0 = D.EvolutionState(
            (D.PatchBoundary(z, 1), D.PatchBoundary(zz, 2)), 0.0
        )
        fwd = D.step_rk4(BASE, st0, 5e-3)
        back = D.step_rk4(BASE, fwd, -5e-3)
        err = max(
            np.max(np.abs(back.boundaries[i].nodes - st0.boundaries[i].nodes))
            for i in (0, 1)
        )
        assert err <= 10 * 5e-3**5

    def test_suggested_dt_capped(self):
        st0 = D.EvolutionState.discs(BASE)
        dt = D.suggested_dt(BASE, st0)
        assert 0.0 < dt <= 1e-3


class TestEvolve:
    def test_discs_stay_put(self):
        st0 = D.EvolutionState.discs(BASE, n_nodes=128)
        res = D.evolve(BASE, st0, t_end=0.1, dt=1e-3, snapshot_every=50)
        assert res.aborted is None
        assert res.diagnostics["area_drift"] <= 1e-10
        assert D.rigid_rotation_residual(res.snapshots, 0.0) <= 1e-6

    def test_twin_layers_never_separate(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        z = np.sqrt(1.0 + 2 * 0.01 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        st0 = D.EvolutionState(
            (D.PatchBoundary(z, 1), D.PatchBoundary(z.copy(), 2)), 0.0
        )
        res = D.evolve(p, st0, t_end=0.05, dt=2e-3, snapshot_every=5)
        assert res.aborted is None
        gap = max(
            np.max(np.abs(s.boundaries[0].nodes - s.boundaries[1].nodes))
            for s in res.snapshots
        )
        assert gap <= 1e-10

    def test_area_conservation_perturbed(self):
        z = np.sqrt(1.0 + 2 * 0.02 * np.cos(2 * THETA)) * np.exp(1j * THETA)
        zz = 0.7 * np.exp(1j * THETA)
        st0 = D.EvolutionState(
            (D.PatchBoundary(z, 1), D.PatchBoundary(zz, 2)), 0.0
        )
        res = D.evolve(BASE, st0, t_end=0.2, dt=2e-3, snapshot_every=20)
        assert res.aborted is None
        assert res.diagnostics["area_drift"] <= 1e-13

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer,bad", [(0, np.nan), (1, np.inf)])
    def test_non_finite_node_recorded_as_aborted(self, layer, bad):
        nodes = [b.nodes.copy() for b in D.EvolutionState.discs(BASE).boundaries]
        nodes[layer][7] = bad
        st0 = D.EvolutionState(
            (D.PatchBoundary(nodes[0], 1), D.PatchBoundary(nodes[1], 2)), 0.0
        )
        res = D.evolve(BASE, st0, t_end=2e-3, dt=1e-3)
        assert res.aborted is not None and "non-finite" in res.aborted
        assert len(res.snapshots) == 1

    def test_snapshots_include_endpoints(self):
        st0 = D.EvolutionState.discs(BASE, n_nodes=128)
        res = D.evolve(BASE, st0, t_end=0.01, dt=1e-3, snapshot_every=4)
        assert res.snapshots[0].time == 0.0
        assert res.snapshots[-1].time == pytest.approx(0.01)


class TestGeometryHelpers:
    def test_hausdorff_detects_shift(self):
        z = np.exp(1j * THETA)
        assert D.curve_hausdorff(z, z + 0.001) == pytest.approx(0.001, rel=1e-2)
        assert D.curve_hausdorff(z, np.exp(0.4j) * z) <= 1e-6
        # the same curve sampled at nodes shifted by 0.37 of a spacing
        t = 2 * np.pi * np.arange(128) / 128
        ts = t + 0.37 * 2 * np.pi / 128
        wavy = np.sqrt(1.0 + 0.02 * np.cos(2 * t)) * np.exp(1j * t)
        shifted = np.sqrt(1.0 + 0.02 * np.cos(2 * ts)) * np.exp(1j * ts)
        assert D.curve_hausdorff(wavy, shifted) <= 1e-13
        # a convex curve against its translate: the distance is the offset,
        # above the 1e-16 rounding of the translated unit-size nodes
        for d in (1e-9, 1e-3, 0.5):
            h = D.curve_hausdorff(wavy, wavy + d)
            assert h == pytest.approx(d, rel=1e-12, abs=1e-14)
        # 3-fold curve with radii in [0.8, 1.2] against the disc of radius 0.9
        three = (1.0 + 0.2 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        assert D.curve_hausdorff(three, 0.9 * z) == pytest.approx(0.3, abs=1e-12)

    def test_hausdorff_reads_every_node_of_a_longer_curve(self):
        # a 1024-node curve with a narrow spike of height 0.2 at t = 3 pi/2,
        # far beyond its first 64 nodes, against the 64-node unit circle:
        # only the spike's own nodes see the 0.2
        t = 2 * np.pi * np.arange(1024) / 1024
        spiked = (1.0 + 0.2 * np.exp(-((t - 1.5 * np.pi) / 0.03) ** 2)) * np.exp(1j * t)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        assert D.curve_hausdorff(circle, spiked) == pytest.approx(0.2, rel=1e-2)

    def test_rotation_residual_rejects_empty_trajectory(self):
        with pytest.raises(ValueError):
            D.rigid_rotation_residual([], 0.0)

    def test_rotation_residual_symmetric_for_discs(self):
        st0 = D.EvolutionState.discs(BASE, n_nodes=128)
        res = D.evolve(BASE, st0, t_end=0.02, dt=2e-3, snapshot_every=5)
        for omega in (0.0, 0.37):
            assert D.rigid_rotation_residual(res.snapshots, omega) <= 1e-6

    def test_resample_preserves_circle(self):
        uneven = D.PatchBoundary(0.3 + np.exp(1j * (THETA + 0.02 * np.sin(THETA))), 1)
        res = D.resample_by_arclength(uneven)
        radii = np.abs(res.nodes - 0.3)
        assert np.max(np.abs(radii - 1.0)) <= 1e-6
        spacing = np.abs(np.diff(np.concatenate([res.nodes, res.nodes[:1]])))
        assert np.std(spacing) <= 1e-4 * np.mean(spacing)

    @pytest.mark.parametrize("n", [256, 255])
    def test_resample_stays_on_interpolant(self, n):
        # a smooth three-lobed curve whose node spacing varies 3.7:1
        t = 2 * np.pi * np.arange(n) / n
        phase = t + 0.5 * np.sin(t)
        z = (1.0 + 0.1 * np.cos(3 * t + 0.5 * np.sin(t))) * np.exp(1j * phase)
        before = D.PatchBoundary(z, 1)
        after = D.resample_by_arclength(before)
        assert np.max(D._distance_to_curve(after.nodes, z)) <= 1e-14
        assert after.area() == pytest.approx(before.area(), rel=1e-14)
        speed = np.abs(Q.spectral_derivative(after.nodes))
        assert np.max(speed) - np.min(speed) <= 1e-9 * np.mean(speed)

    def test_simplicity_validation(self):
        t = THETA
        eight = (0.2 + np.cos(2 * t)) * np.exp(1j * t)  # self-intersecting
        with pytest.raises(D.SimplicityError):
            D.PatchBoundary(eight, 1).validate()


def coarsely_simple_by_distance(z, samples=64):
    """The check on |w_i - w_j| > edge / 4 itself: the reference for the squared form."""
    w = z[:: max(1, z.size // samples)]
    k = w.size
    d = np.abs(w[:, None] - w[None, :])
    edge = np.min(np.abs(w - np.roll(w, -1)))
    idx = np.abs((np.arange(k)[:, None] - np.arange(k)[None, :] + k // 2) % k - k // 2)
    return bool(np.all(d[idx >= 2] > 0.25 * edge))


class TestCoarseSimplicity:
    """The squared-distance check decides as the distance check does."""

    @pytest.mark.parametrize("n", [64, 66, 256, 300])
    def test_simple_curve(self, n):
        t = 2 * np.pi * np.arange(n) / n
        z = (1.0 + 0.3 * np.cos(3 * t)) * np.exp(1j * t)
        assert D._coarsely_simple(z) is coarsely_simple_by_distance(z) is True

    def test_figure_eight(self):
        eight = (0.2 + np.cos(2 * THETA)) * np.exp(1j * THETA)
        assert D._coarsely_simple(eight) is coarsely_simple_by_distance(eight) is False

    def test_near_touching_necks(self):
        # a dumbbell whose neck closes through a quarter of the shortest edge:
        # both answers occur and every decision agrees
        decisions = []
        for gap in np.linspace(0.0, 0.05, 201):
            z = np.cos(THETA) + 1j * np.sin(THETA) * (gap + (1.0 - gap) * np.cos(THETA) ** 2)
            got = D._coarsely_simple(z)
            assert got is coarsely_simple_by_distance(z), gap
            decisions.append(got)
        assert True in decisions and False in decisions

    def test_mask_cached_read_only(self):
        mask = D._non_adjacent(64)
        assert mask is D._non_adjacent(64) and not mask.flags.writeable
        assert mask.sum() == 64 * 61


def off_centre_state(n=N):
    """Two off-centre layers with no symmetry: C and J both nonzero."""
    t = Q.grid(n)
    z1 = 0.05 + 0.03j + (1.0 + 0.03 * np.cos(2 * t) + 0.01 * np.sin(3 * t)) * np.exp(1j * t)
    z2 = -0.1 + 0.02j + (0.6 - 0.02 * np.cos(3 * t + 0.4)) * np.exp(1j * t)
    return D.EvolutionState((D.PatchBoundary(z1, 1), D.PatchBoundary(z2, 2)), 0.0)


def rotation_symmetric_state(m, n, seed=0):
    """A g-fold pair, g = gcd(m, n), turned off the axes so it is not even:
    a V-state as it rotates.  Its symmetry holds to rounding only."""
    t = Q.grid(n)
    rng = np.random.default_rng(seed)
    k = m * np.arange(1, 4)[:, None]
    boundaries = []
    for layer, b in ((1, 1.0), (2, 0.7)):
        a, phase = 0.01 * rng.standard_normal((3, 1)) / k, rng.uniform(0, 6, (3, 1))
        shape = 1.0 + np.sum(a * np.cos(k * t + phase), axis=0)
        boundaries.append(D.PatchBoundary(np.exp(0.3j) * b * shape * np.exp(1j * t), layer))
    return D.EvolutionState(tuple(boundaries), 0.0)


class TestInvariants:
    """The angular impulse J and the centroid C, weights (delta, 1)."""

    PARAMS = LayerParams(2.0, 1.0, 1.0, 0.6)
    DRIFTS = ("angular_impulse_drift", "centroid_drift")

    def run(self, state0, params=PARAMS, **kwargs):
        res = D.evolve(params, state0, t_end=0.2, dt=2e-3, snapshot_every=10, **kwargs)
        assert res.aborted is None
        return res.diagnostics

    def test_off_centre_asymmetric_run_conserves_both(self):
        diag = self.run(off_centre_state())
        for key in self.DRIFTS:
            assert diag[key] <= 1e-13, (key, diag[key])

    def test_wrong_coupling_breaks_both(self, monkeypatch):
        # the mutation check: the (1, 2) kernel scaled by 1.01 leaves every
        # area at roundoff, but moves J by about 1e-6 and C by about 1e-5
        coefficients = Q.gkj_coefficients

        def scaled(params, k, j):
            alpha, kappa = coefficients(params, k, j)
            return (1.01 * alpha, 1.01 * kappa) if (k, j) == (1, 2) else (alpha, kappa)

        monkeypatch.setattr(Q, "gkj_coefficients", scaled)
        diag = self.run(off_centre_state())
        assert diag["area_drift"] <= 1e-13
        for key in self.DRIFTS:
            assert diag[key] >= 1e-8, (key, diag[key])

    def test_folded_vstate_run_conserves_angular_impulse(self):
        sol = C.vstate_solve(BASE, 2, -1, 0.02, n_modes=8, n_nodes=128)
        phase = np.exp(1j * sol.deformation.grid())
        state0 = D.EvolutionState(tuple(
            D.PatchBoundary(r * phase, layer) for layer, r in zip((1, 2), sol.boundary_radii())
        ), 0.0)
        diag = self.run(state0, BASE, fold=2)
        assert diag["fold"] == 2
        assert diag["angular_impulse_drift"] <= 1e-13


def benchmark_vstate(seed=0):
    """(params, omega, state) of the V-state the evolve benchmark starts from at seed."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "reference.json"
    points = json.loads(reference.read_text())["points"]
    point = points[seed % len(points)]
    sol = C.VStateSolution.from_json_dict(point["vstate_input"])
    phase = np.exp(1j * sol.deformation.grid())
    state = D.EvolutionState(tuple(
        D.PatchBoundary(r * phase, layer) for layer, r in zip((1, 2), sol.boundary_radii())
    ), 0.0)
    params = LayerParams(point["delta"], point["lambda"], point["b1"], point["b2"])
    return params, sol.omega, state


class TestFold:
    """Folded right-hand sides and runs against the full ones."""

    @pytest.mark.parametrize("m,n", [(2, 256), (2, 66), (3, 66)],
                             ids=["256-m2", "66-m2-odd-period", "66-m3-inexact-turn"])
    def test_velocities_match_full_rhs(self, m, n):
        z1, z2 = (b.nodes for b in rotation_symmetric_state(m, n).boundaries)
        full = D.layer_node_velocities(BASE, z1, z2)
        folded = D.layer_node_velocities(BASE, z1, z2, fold=m)
        for got, want in zip(folded, full):
            assert got.shape == (n,)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_suggested_dt_from_folded_velocities(self):
        state = rotation_symmetric_state(3, 66)
        assert D.suggested_dt(BASE, state, fold=3) == pytest.approx(
            D.suggested_dt(BASE, state), rel=1e-14)

    def test_turns_exact_on_quarter_turns(self):
        assert D._turns(2).tolist() == [1, -1]
        assert D._turns(4).tolist() == [1, 1j, -1, -1j]
        turns = D._turns(3)
        assert np.max(np.abs(turns - np.exp(2j * np.pi * np.arange(3) / 3))) <= 1e-16

    def test_every_state_is_an_exact_image(self):
        # 51 steps pass one respacing; each snapshot (the start, each step, the
        # respaced step 50) must repeat its first third exactly, turned
        state0 = rotation_symmetric_state(3, 66)
        res = D.evolve(BASE, state0, t_end=51 * 5e-3, dt=5e-3, snapshot_every=1, fold=3)
        assert res.aborted is None and len(res.snapshots) == 52
        turns = D._turns(3)
        for snap in res.snapshots:
            for b in snap.boundaries:
                head = b.nodes[:22]
                assert np.array_equal(b.nodes, (turns[:, None] * head).reshape(-1))

    def test_folded_run_tracks_the_unfolded_one(self):
        state0 = rotation_symmetric_state(3, 66)
        folded, full = (D.evolve(BASE, state0, t_end=0.3, dt=5e-3, snapshot_every=60,
                                 fold=fold) for fold in (3, None))
        assert folded.diagnostics["fold"] == 3 and full.diagnostics["fold"] is None
        for a, b in zip(folded.snapshots[-1].boundaries, full.snapshots[-1].boundaries):
            assert np.max(np.abs(a.nodes - b.nodes)) <= 1e-13

    def test_asymmetric_start_refused(self):
        with pytest.raises(ValueError, match="not 2-fold symmetric"):
            D.evolve(BASE, off_centre_state(), t_end=0.01, dt=5e-3, fold=2)

    def test_criterion_10_setup_folded(self):
        # test_acceptance's criterion 10 run, on its fundamental domain
        sol = C.vstate_solve(BASE, 2, -1, 1e-3, n_modes=16, n_nodes=256)
        defo = C.RadialDeformation(sol.m, sol.deformation.coeffs, 128)
        r_nodal = defo.nodal()
        radii = (C.radius_profile(BASE.b1, r_nodal[0]), C.radius_profile(BASE.b2, r_nodal[1]))
        phase = np.exp(1j * defo.grid())
        state0 = D.EvolutionState(
            (D.PatchBoundary(radii[0] * phase, 1), D.PatchBoundary(radii[1] * phase, 2)), 0.0
        )
        t_end = 2.0 * np.pi / (10.0 * abs(sol.omega))
        result = D.evolve(BASE, state0, t_end=t_end, dt=5e-3, snapshot_every=175, fold=2)
        assert result.aborted is None
        assert D.rigid_rotation_residual(result.snapshots, sol.omega) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_refused_by_name(self, bad):
        # node 40 lies outside the 32-node head, which the run would have
        # turned onto it; such a start evolved with no failure recorded
        nodes = [b.nodes.copy() for b in D.EvolutionState.discs(BASE, 64).boundaries]
        nodes[0][40] = bad
        state0 = D.EvolutionState(
            (D.PatchBoundary(nodes[0], 1), D.PatchBoundary(nodes[1], 2)), 0.0
        )
        with pytest.raises(ValueError, match=rf"curve 1 has the non-finite node \({bad}\+0j\) "
                                             "at node 40"):
            D.evolve(BASE, state0, 0.01, dt=0.005, fold=2)


class TestFoldedDiagnostics:
    """The gap and the rotation residual read on the head of a folded run."""

    def folded_run(self, case):
        if case == "benchmark-g2":
            # the benchmark's seed-0 V-state after 25 of its steps
            params, omega, state0 = benchmark_vstate(0)
            return D.evolve(params, state0, t_end=0.05, dt=0.002, snapshot_every=25,
                            fold=2), omega, 2
        state0 = rotation_symmetric_state(3, 66)
        return D.evolve(BASE, state0, t_end=0.1, dt=5e-3, snapshot_every=10, fold=3), 0.3, 3

    @pytest.mark.parametrize("case", ["benchmark-g2", "66-g3"])
    def test_folded_readings_equal_the_full_ones(self, case):
        res, omega, g = self.folded_run(case)
        assert res.aborted is None and res.diagnostics["fold"] == g
        snaps = res.snapshots
        full = D.rigid_rotation_residual(snaps, omega)
        assert abs(D.rigid_rotation_residual(snaps, omega, g) - full) <= 5e-16
        gap = min(D._boundary_gap(s) for s in snaps)
        assert abs(res.diagnostics["min_boundary_gap"] - gap) <= 4 * np.spacing(gap)
        for snap in snaps:
            gap = D._boundary_gap(snap)
            assert abs(D._boundary_gap(snap, g) - gap) <= 4 * np.spacing(gap)

    def test_snapshot_without_the_fold_refused(self):
        res, omega, g = self.folded_run("66-g3")
        last = res.snapshots[-1]
        nodes = last.boundaries[1].nodes.copy()
        nodes[40] *= 1.0 + 1e-6  # outside the 22-node head
        broken = D.EvolutionState((last.boundaries[0], D.PatchBoundary(nodes, 2)), last.time)
        with pytest.raises(ValueError, match="not 3-fold symmetric"):
            D.rigid_rotation_residual([res.snapshots[0], broken], omega, g)
        with pytest.raises(ValueError, match="not 3-fold symmetric"):
            D._boundary_gap(broken, g)

    def test_unfolded_diagnostics_make_no_square_table(self):
        # an N = 1024 state: one N x N complex difference and its modulus,
        # 24 MiB, was the largest allocation of an evolve at this N
        n = 1024
        state = off_centre_state(n)
        turned = D.EvolutionState(
            tuple(D.PatchBoundary(np.exp(0.01j) * b.nodes, b.layer) for b in state.boundaries),
            0.1,
        )
        D.rigid_rotation_residual([state, turned], 0.1)  # fills the mode-number cache
        for reading in (lambda: D._boundary_gap(state),
                        lambda: D.rigid_rotation_residual([state, turned], 0.1)):
            tracemalloc.start()
            try:
                reading()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20
