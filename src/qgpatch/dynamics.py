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

Every geometric reading uses the one curve the quadrature integrates: the
trigonometric interpolant of the nodes, ``quadrature.fourier``, summed off
the grid by ``quadrature.trig_sum``.  ``PatchBoundary.area`` is its area
pi * mean(Im(conj z z')), exact for the interpolant, so sliding nodes
along the curve leaves it unchanged.  ``resample_by_arclength`` respaces
the nodes equally in the interpolant's arclength, the spectral
equal-arclength reparametrisation of Hou, Lowengrub & Shelley
(J. Comput. Phys. 114, 1994), and the new nodes lie on the old curve.

``rigid_rotation_residual`` measures rigid rotation, the time-periodicity
of a V-state: the sup over each curve's nodes of the distance to the other
curve's trigonometric interpolant.  Newton on the curve parameter, seeded
at the nearest node, finds the closest point; a running ``fmin`` over the
iterates, all curve points, keeps the reading an upper bound and ignores
a NaN from a degenerate step.  The ruler and the respacing take
NEWTON_STEPS Newton steps each.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .kernels import LayerParams
from .quadrature import (
    TWO_PI,
    NumericFailure,
    fourier,
    grid,
    layer_integrals,
    spectral_derivative,
    trig_sum,
)

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

DT_CAP = 1e-3  # largest step suggested_dt returns
REDISTRIBUTE_EVERY = 50  # RK4 steps between arclength redistributions
NEWTON_STEPS = 4  # Newton steps on the curve parameter: ruler and respacing


class SimplicityError(NumericFailure):
    """A boundary stopped being a simple positively oriented curve."""


@dataclass(frozen=True)
class PatchBoundary:
    """Nodes of one layer's closed positively oriented patch boundary.

    The boundary is the trigonometric interpolant of the nodes.
    """

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
        return PatchBoundary(radius * np.exp(1j * grid(n_nodes)), layer)

    def area(self) -> float:
        """Area of the trigonometric interpolant; positive when counterclockwise."""
        z = self.nodes
        return float(np.pi * np.mean(np.imag(np.conj(z) * spectral_derivative(z))))

    def validate(self) -> None:
        if self.area() <= 0.0:
            raise SimplicityError("boundary orientation flipped or degenerate")
        if not _coarsely_simple(self.nodes):
            raise SimplicityError("boundary self-intersects at coarse scale")


@dataclass(frozen=True)
class EvolutionState:
    boundaries: tuple[PatchBoundary, PatchBoundary]
    time: float

    def __post_init__(self) -> None:
        if self.boundaries[0].layer != 1 or self.boundaries[1].layer != 2:
            raise ValueError("boundaries must be ordered (layer 1, layer 2)")

    @staticmethod
    def discs(params: LayerParams, n_nodes: int = 256) -> "EvolutionState":
        disc = PatchBoundary.disc
        boundaries = (disc(params.b1, 1, n_nodes), disc(params.b2, 2, n_nodes))
        return EvolutionState(boundaries, 0.0)


@functools.cache
def _non_adjacent(k: int) -> NDArray[np.bool_]:
    """Mask of the sample pairs (i, j) at least two apart around a k-cycle, read-only."""
    i = np.arange(k)
    mask = np.abs((i[:, None] - i[None, :] + k // 2) % k - k // 2) >= 2
    mask.setflags(write=False)
    return mask


def _coarsely_simple(z: ComplexArray, samples: int = 64) -> bool:
    """No two non-adjacent samples closer than a quarter of the shortest edge."""
    w = z[:: max(1, z.size // samples)]
    dx = np.subtract.outer(w.real, w.real)
    dy = np.subtract.outer(w.imag, w.imag)
    d2 = dx * dx + dy * dy
    edge = np.min(np.abs(w - np.roll(w, -1)))
    return bool(np.all(d2[_non_adjacent(w.size)] > 0.0625 * edge**2))


def layer_node_velocities(
    params: LayerParams, z1: ComplexArray, z2: ComplexArray
) -> tuple[ComplexArray, ComplexArray]:
    """Velocity of each layer's field at that layer's own boundary nodes."""
    zs = [np.asarray(z, dtype=np.complex128) for z in (z1, z2)]
    u1, u2 = layer_integrals(params, zs, [spectral_derivative(z) for z in zs])
    return -u1, -u2


def suggested_dt(params: LayerParams, state: EvolutionState) -> float:
    """Time for the fastest node to cross one mean node spacing, capped at DT_CAP.

    A heuristic step size, not a CFL or stability limit: RK4 on this
    system has been run stable and accurate at steps far above it.
    """
    v1, v2 = layer_node_velocities(
        params, state.boundaries[0].nodes, state.boundaries[1].nodes
    )
    vmax = float(max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-12))
    n = state.boundaries[0].nodes.size
    spacing = TWO_PI * float(np.mean(np.abs(state.boundaries[0].nodes))) / n
    return min(DT_CAP, spacing / vmax)


def step_rk4(params: LayerParams, state: EvolutionState, dt: float) -> EvolutionState:
    """One classical RK4 step of all boundary nodes; checks simplicity after.

    A negative dt steps backward (used for reversibility checks).
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    z1 = state.boundaries[0].nodes
    z2 = state.boundaries[1].nodes
    k1a, k1b = layer_node_velocities(params, z1, z2)
    k2a, k2b = layer_node_velocities(params, z1 + 0.5 * dt * k1a, z2 + 0.5 * dt * k1b)
    k3a, k3b = layer_node_velocities(params, z1 + 0.5 * dt * k2a, z2 + 0.5 * dt * k2b)
    k4a, k4b = layer_node_velocities(params, z1 + dt * k3a, z2 + dt * k3b)
    new1 = z1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    new2 = z2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    b1 = PatchBoundary(new1, 1)
    b2 = PatchBoundary(new2, 2)
    b1.validate()
    b2.validate()
    return EvolutionState((b1, b2), state.time + dt)


def resample_by_arclength(boundary: PatchBoundary) -> PatchBoundary:
    """Respace the nodes equally in arclength along the trigonometric interpolant.

    The arclength s(t) = mean_speed * t + P(t), with P(0) = 0, is the FFT
    antiderivative of the interpolated speed |z'|; the length is
    L = 2 pi mean_speed.  Linear interpolation of s sampled at the nodes
    seeds the parameters t_j of s(t_j) = j L / N;
    NEWTON_STEPS Newton steps refine them, and the new nodes are the
    interpolant at t_j.
    """
    z = boundary.nodes
    n = z.size
    t = grid(n)
    k, coeffs = fourier(z)
    _, speed = fourier(np.abs(spectral_derivative(z)))
    periodic = np.zeros_like(speed)
    periodic[1:] = speed[1:] / (1j * k[1:])
    periodic[0] = -periodic.sum()  # P(0) = 0
    curve = trig_sum(k, [coeffs, periodic, speed])  # rows z(t), P(t), s'(t)
    mean_speed = speed[0].real
    targets = mean_speed * t
    s_nodes = targets + n * np.fft.ifft(periodic).real
    tj = np.interp(targets, np.append(s_nodes, mean_speed * TWO_PI), np.append(t, TWO_PI))
    for _ in range(NEWTON_STEPS):
        _, p, ds = curve(tj)
        tj = tj - (mean_speed * tj + p.real - targets) / ds.real
    return PatchBoundary(curve(tj)[0], boundary.layer)


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

    Snapshots include the initial and final states.  On a NumericFailure
    (simplicity violation, touching boundaries, a quadrature refusal) the
    partial trajectory is returned with the failure recorded in ``aborted``.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be > 0")
    if dt is None:
        dt = suggested_dt(params, state0)
    state = state0
    n_steps = max(1, int(round(t_end / dt)))
    result = EvolutionResult(snapshots=[state])
    area0 = [b.area() for b in state.boundaries]
    max_drift = 0.0
    min_gap = _boundary_gap(state)
    try:
        for step in range(1, n_steps + 1):
            state = step_rk4(params, state, dt)
            if step % REDISTRIBUTE_EVERY == 0:
                boundaries = tuple(map(resample_by_arclength, state.boundaries))
                state = EvolutionState(boundaries, state.time)
            if step % snapshot_every == 0 or step == n_steps:
                result.snapshots.append(state)
                drift = max(
                    abs(b.area() - a) / abs(a) for b, a in zip(state.boundaries, area0)
                )
                max_drift = max(max_drift, drift)
                min_gap = min(min_gap, _boundary_gap(state))
    except NumericFailure as exc:
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
    return float(np.min(np.abs(z1[:, None] - z2[None, :])))


# ---------------------------------------------------------------------------
# Rigid-rotation diagnostics
# ---------------------------------------------------------------------------


def _distance_to_curve(points: ComplexArray, z: ComplexArray) -> FloatArray:
    """Distance from each point to the interpolant of z, by Newton on |z(s) - p|^2."""
    k, coeffs = fourier(z)
    interpolant = trig_sum(k, [coeffs, 1j * k * coeffs, -k * k * coeffs])  # z, z', z''
    s = grid(z.size)[np.argmin(np.abs(points[:, None] - z[None, :]), axis=1)]
    best = np.full(points.shape, np.inf)
    for _ in range(NEWTON_STEPS):
        zs, dz, ddz = interpolant(s)
        r = zs - points
        best = np.fmin(best, np.abs(r))
        s = s - (np.conj(r) * dz).real / (np.abs(dz) ** 2 + (np.conj(r) * ddz).real)
    return np.fmin(best, np.abs(interpolant(s)[0] - points))


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
    scale = float(np.sqrt(abs(ref.boundaries[0].area()) / np.pi))
    worst = 0.0
    for snap in traj:
        rot = np.exp(1j * omega * (snap.time - t0))
        for i in (0, 1):
            d = curve_hausdorff(snap.boundaries[i].nodes, rot * ref.boundaries[i].nodes)
            worst = max(worst, d)
    return worst / scale
