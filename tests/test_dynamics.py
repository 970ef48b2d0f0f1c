import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as O
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
    def test_polygon_approximates_disc(self):
        disc = D.PatchBoundary.disc(1.0, 1, 256)
        assert disc.area() == pytest.approx(np.pi, abs=1e-3)

    def test_orientation_flip(self):
        disc = D.PatchBoundary.disc(1.0, 1, 128)
        flipped = D.PatchBoundary(disc.nodes[::-1].copy(), 1)
        assert flipped.area() == pytest.approx(-disc.area())

    def test_translation_invariance(self):
        disc = D.PatchBoundary.disc(0.8, 2, 128)
        moved = D.PatchBoundary(disc.nodes + (3.0 - 2.0j), 2)
        assert moved.area() == pytest.approx(disc.area(), abs=1e-14)


class TestVelocities:
    def test_disc_velocity_tangential(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3)
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
        st0 = D.EvolutionState.discs(BASE, 1e-3)
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
        st0 = D.EvolutionState.discs(BASE, 1e-3)
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
        st0 = D.EvolutionState.discs(p, 1e-3)
        with pytest.raises(TouchingBoundaryError):
            D.layer_node_velocities(p, *(b.nodes for b in st0.boundaries))


class TestStepping:
    def test_disc_stationarity_per_step(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3)
        st1 = D.step_rk4(BASE, st0)
        drift = np.abs(np.abs(st1.boundaries[0].nodes) - BASE.b1)
        assert np.max(drift) <= 1e-10 * BASE.b1

    def test_reversibility(self):
        z = (1.0 + 0.02 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        zz = 0.7 * np.exp(1j * THETA)
        st0 = D.EvolutionState(
            (D.PatchBoundary(z, 1), D.PatchBoundary(zz, 2)), 0.0, 5e-3
        )
        fwd = D.step_rk4(BASE, st0)
        back = D.step_rk4(BASE, D.EvolutionState(fwd.boundaries, fwd.time, -5e-3))
        err = max(
            np.max(np.abs(back.boundaries[i].nodes - st0.boundaries[i].nodes))
            for i in (0, 1)
        )
        assert err <= 10 * 5e-3**5

    def test_suggested_dt_capped(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3)
        dt = D.suggested_dt(BASE, st0)
        assert 0.0 < dt <= 1e-3


class TestEvolve:
    def test_discs_stay_put(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3, n_nodes=128)
        res = D.evolve(BASE, st0, t_end=0.1, dt=1e-3, snapshot_every=50)
        assert res.aborted is None
        assert res.diagnostics["area_drift"] <= 1e-10
        assert D.rigid_rotation_residual(res.snapshots, 0.0) <= 1e-6

    def test_twin_layers_never_separate(self):
        p = LayerParams(1.0, 1.0, 1.0, 1.0)
        z = np.sqrt(1.0 + 2 * 0.01 * np.cos(3 * THETA)) * np.exp(1j * THETA)
        st0 = D.EvolutionState(
            (D.PatchBoundary(z, 1), D.PatchBoundary(z.copy(), 2)), 0.0, 2e-3
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
            (D.PatchBoundary(z, 1), D.PatchBoundary(zz, 2)), 0.0, 2e-3
        )
        res = D.evolve(BASE, st0, t_end=0.2, dt=2e-3, snapshot_every=20)
        assert res.aborted is None
        assert res.diagnostics["area_drift"] <= 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("layer,bad", [(0, np.nan), (1, np.inf)])
    def test_non_finite_node_recorded_as_aborted(self, layer, bad):
        nodes = [b.nodes.copy() for b in D.EvolutionState.discs(BASE, 1e-3).boundaries]
        nodes[layer][7] = bad
        st0 = D.EvolutionState(
            (D.PatchBoundary(nodes[0], 1), D.PatchBoundary(nodes[1], 2)), 0.0, 1e-3
        )
        res = D.evolve(BASE, st0, t_end=2e-3, dt=1e-3)
        assert res.aborted is not None and "non-finite" in res.aborted
        assert len(res.snapshots) == 1

    def test_snapshots_include_endpoints(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3, n_nodes=128)
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

    def test_rotation_residual_rejects_empty_trajectory(self):
        with pytest.raises(ValueError):
            D.rigid_rotation_residual([], 0.0)

    def test_rotation_residual_symmetric_for_discs(self):
        st0 = D.EvolutionState.discs(BASE, 1e-3, n_nodes=128)
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

    def test_simplicity_validation(self):
        t = THETA
        eight = (0.2 + np.cos(2 * t)) * np.exp(1j * t)  # self-intersecting
        with pytest.raises(D.SimplicityError):
            D.PatchBoundary(eight, 1).validate()
