r"""Lagrangian evolution of the two patch boundaries.

Each layer's boundary nodes are advected by that layer's own velocity
field.  Differentiating the stream representation and applying the
Gauss-Green theorem turns the field at a point z into boundary integrals,

    v_k(z) = - sum_j int G_{k,j}(z - z_j(e)) dz_j(e)/de de ,

interpreted as a complex number (vx + i vy).  On the boundary nodes these
are minus the integrals u_k of :func:`qgpatch.quadrature.layer_integrals`,
the assembly the contour functional uses too: the j = k term is
log-singular and goes through the singular split, and the cross-layer
terms are regular unless the boundaries touch.

``rigid_rotation_residual`` measures rigid rotation, the time-periodicity
of a V-state: the sup over each curve's nodes of the distance to the other
curve's trigonometric interpolant.  Newton on the curve parameter, seeded
at the nearest node, finds the closest point; a running ``fmin`` over the
iterates, all curve points, keeps the reading an upper bound and ignores
a NaN from a degenerate step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import CubicSpline

from .kernels import LayerParams
from .quadrature import (
    QuadratureFailure,
    TouchingBoundaryError,
    layer_integrals,
    spectral_derivative,
)

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

TWO_PI = 2.0 * np.pi

DT_CAP = 1e-3  # largest step suggested_dt returns
REDISTRIBUTE_EVERY = 50  # RK4 steps between arclength redistributions
NEWTON_STEPS = 4  # closest-point Newton steps of the rotation ruler


class SimplicityError(RuntimeError):
    """A boundary stopped being a simple positively oriented curve."""


@dataclass(frozen=True)
class PatchBoundary:
    """Closed positively oriented boundary polyline of one layer's patch."""

    nodes: ComplexArray
    layer: int

    def __post_init__(self) -> None:
        z = np.asarray(self.nodes, dtype=np.complex128)
        object.__setattr__(self, "nodes", z)
        if self.layer not in (1, 2):
            raise ValueError("layer must be 1 or 2")
        if z.size < 64:
            raise ValueError("boundary needs at least 64 nodes")

    @staticmethod
    def disc(radius: float, layer: int, n_nodes: int = 256) -> "PatchBoundary":
        t = TWO_PI * np.arange(n_nodes) / n_nodes
        return PatchBoundary(radius * np.exp(1j * t), layer)

    def area(self) -> float:
        return patch_area(self)

    def validate(self) -> None:
        if patch_area(self) <= 0.0:
            raise SimplicityError("boundary orientation flipped or degenerate")
        if not _coarsely_simple(self.nodes):
            raise SimplicityError("boundary self-intersects at coarse scale")


@dataclass(frozen=True)
class EvolutionState:
    boundaries: tuple[PatchBoundary, PatchBoundary]
    time: float
    dt: float

    def __post_init__(self) -> None:
        if self.boundaries[0].layer != 1 or self.boundaries[1].layer != 2:
            raise ValueError("boundaries must be ordered (layer 1, layer 2)")

    @staticmethod
    def discs(params: LayerParams, dt: float, n_nodes: int = 256) -> "EvolutionState":
        return EvolutionState(
            (
                PatchBoundary.disc(params.b1, 1, n_nodes),
                PatchBoundary.disc(params.b2, 2, n_nodes),
            ),
            0.0,
            dt,
        )


def patch_area(boundary: PatchBoundary) -> float:
    """Shoelace area of the closed polyline; positive when counterclockwise."""
    z = boundary.nodes
    return float(0.5 * np.sum(np.imag(np.conj(z) * np.roll(z, -1))))


def _coarsely_simple(z: ComplexArray, samples: int = 64) -> bool:
    n = z.size
    step = max(1, n // samples)
    w = z[::step]
    k = w.size
    d = np.abs(w[:, None] - w[None, :])
    edge = np.min(np.abs(w - np.roll(w, -1)))
    idx = np.abs((np.arange(k)[:, None] - np.arange(k)[None, :] + k // 2) % k - k // 2)
    nonadj = idx >= 2
    return bool(np.all(d[nonadj] > 0.25 * edge))


def layer_node_velocities(
    params: LayerParams, z1: ComplexArray, z2: ComplexArray
) -> tuple[ComplexArray, ComplexArray]:
    """Velocity of each layer's field at that layer's own boundary nodes."""
    zs = [np.asarray(z, dtype=np.complex128) for z in (z1, z2)]
    u1, u2 = layer_integrals(params, zs, [spectral_derivative(z) for z in zs])
    return -u1, -u2


def suggested_dt(params: LayerParams, state: EvolutionState) -> float:
    """CFL-like step: time to cross one node spacing, capped at DT_CAP."""
    v1, v2 = layer_node_velocities(
        params, state.boundaries[0].nodes, state.boundaries[1].nodes
    )
    vmax = float(max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-12))
    n = state.boundaries[0].nodes.size
    spacing = TWO_PI * float(np.mean(np.abs(state.boundaries[0].nodes))) / n
    return min(DT_CAP, spacing / vmax)


def step_rk4(params: LayerParams, state: EvolutionState) -> EvolutionState:
    """One classical RK4 step of all boundary nodes; checks simplicity after.

    A negative dt steps backward (used for reversibility checks).
    """
    dt = state.dt
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    z1 = state.boundaries[0].nodes
    z2 = state.boundaries[1].nodes

    def rhs(a1, a2):
        return layer_node_velocities(params, a1, a2)

    k1a, k1b = rhs(z1, z2)
    k2a, k2b = rhs(z1 + 0.5 * dt * k1a, z2 + 0.5 * dt * k1b)
    k3a, k3b = rhs(z1 + 0.5 * dt * k2a, z2 + 0.5 * dt * k2b)
    k4a, k4b = rhs(z1 + dt * k3a, z2 + dt * k3b)
    new1 = z1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    new2 = z2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    b1 = PatchBoundary(new1, 1)
    b2 = PatchBoundary(new2, 2)
    b1.validate()
    b2.validate()
    return EvolutionState((b1, b2), state.time + dt, dt)


def resample_by_arclength(boundary: PatchBoundary) -> PatchBoundary:
    """Respace the nodes equally in (chordal) arclength via periodic splines."""
    z = boundary.nodes
    n = z.size
    closed = np.concatenate([z, z[:1]])
    chord = np.abs(np.diff(closed))
    s = np.concatenate([[0.0], np.cumsum(chord)])
    total = s[-1]
    spline_x = CubicSpline(s, closed.real, bc_type="periodic")
    spline_y = CubicSpline(s, closed.imag, bc_type="periodic")
    targets = total * np.arange(n) / n
    return PatchBoundary(spline_x(targets) + 1j * spline_y(targets), boundary.layer)


@dataclass
class EvolutionResult:
    snapshots: list[EvolutionState] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    aborted: str | None = None


def evolve(
    params: LayerParams,
    state0: EvolutionState,
    t_end: float,
    dt: float | None = None,
    snapshot_every: int = 50,
) -> EvolutionResult:
    """March to t_end with RK4, node redistribution and snapshots.

    The nodes are respaced by arclength every REDISTRIBUTE_EVERY steps.

    Snapshots include the initial and final states.  On simplicity
    violation or touching boundaries the partial trajectory is returned
    with the failure recorded in ``aborted``.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be > 0")
    if dt is None:
        dt = suggested_dt(params, state0)
    state = EvolutionState(state0.boundaries, state0.time, dt)
    n_steps = max(1, int(round(t_end / dt)))
    result = EvolutionResult(snapshots=[state])
    area0 = [patch_area(b) for b in state.boundaries]
    max_drift = 0.0
    min_gap = _boundary_gap(state)
    try:
        for step in range(1, n_steps + 1):
            state = step_rk4(params, state)
            if step % REDISTRIBUTE_EVERY == 0:
                state = EvolutionState(
                    (
                        resample_by_arclength(state.boundaries[0]),
                        resample_by_arclength(state.boundaries[1]),
                    ),
                    state.time,
                    state.dt,
                )
            if step % snapshot_every == 0 or step == n_steps:
                result.snapshots.append(state)
                drift = max(
                    abs(patch_area(state.boundaries[i]) - area0[i]) / abs(area0[i])
                    for i in (0, 1)
                )
                max_drift = max(max_drift, drift)
                min_gap = min(min_gap, _boundary_gap(state))
    except (SimplicityError, TouchingBoundaryError, QuadratureFailure) as exc:
        result.aborted = str(exc)
    result.diagnostics = {
        "area_drift": max_drift,
        "min_boundary_gap": min_gap,
        "n_steps": n_steps,
        "n_snapshots": len(result.snapshots),
        "dt": dt,
    }
    return result


def _boundary_gap(state: EvolutionState) -> float:
    z1 = state.boundaries[0].nodes
    z2 = state.boundaries[1].nodes
    if z1.size == z2.size and np.array_equal(z1, z2):
        return 0.0
    return float(np.min(np.abs(z1[:, None] - z2[None, :])))


# ---------------------------------------------------------------------------
# Rigid-rotation diagnostics
# ---------------------------------------------------------------------------


def _distance_to_curve(points: ComplexArray, z: ComplexArray) -> FloatArray:
    """Distance from each point to the interpolant of z, by Newton on |z(s) - p|^2."""
    n = z.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    coeffs = np.fft.fft(z) / n
    if n % 2 == 0:
        coeffs[n // 2] = 0.0  # drop the unpaired Nyquist mode
    basis = np.stack([coeffs, 1j * k * coeffs, -k * k * coeffs], axis=1)
    s = TWO_PI / n * np.argmin(np.abs(points[:, None] - z[None, :]), axis=1)
    best = np.full(points.shape, np.inf)
    for _ in range(NEWTON_STEPS):
        zs, dz, ddz = (np.exp(1j * np.outer(s, k)) @ basis).T
        r = zs - points
        best = np.fmin(best, np.abs(r))
        s = s - (np.conj(r) * dz).real / (np.abs(dz) ** 2 + (np.conj(r) * ddz).real)
    return np.fmin(best, np.abs(np.exp(1j * np.outer(s, k)) @ coeffs - points))


def curve_hausdorff(za: ComplexArray, zb: ComplexArray) -> float:
    """Symmetric Hausdorff distance between two closed trigonometric curves.

    Each direction takes the sup over one curve's nodes of the distance to
    the other curve's trigonometric interpolant.  The closest point comes
    from NEWTON_STEPS Newton steps on the curve parameter; a running
    ``fmin`` over the iterates keeps each distance an upper bound and
    ignores a NaN from a degenerate step.
    """
    za = np.asarray(za, dtype=np.complex128)
    zb = np.asarray(zb, dtype=np.complex128)
    return float(max(_distance_to_curve(za, zb).max(), _distance_to_curve(zb, za).max()))


def rigid_rotation_residual(traj: list[EvolutionState], omega: float) -> float:
    """Deviation of a trajectory from rigid rotation at angular velocity omega.

    Maximum over snapshots and layers of the symmetric Hausdorff distance
    (``curve_hausdorff``) between boundary(t) and boundary(0) rotated by
    omega*t, normalized by the initial layer-1 mean radius.  The sup runs
    over the nodes of each curve, each node's distance being to the
    trigonometric interpolant of the other, found by Newton on the curve
    parameter.
    """
    if not traj:
        raise ValueError("empty trajectory")
    ref = traj[0]
    t0 = ref.time
    scale = float(np.sqrt(abs(patch_area(ref.boundaries[0])) / np.pi))
    worst = 0.0
    for snap in traj:
        rot = np.exp(1j * omega * (snap.time - t0))
        for i in (0, 1):
            d = curve_hausdorff(snap.boundaries[i].nodes, rot * ref.boundaries[i].nodes)
            worst = max(worst, d)
    return worst / scale
