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

The dynamics commute with rotation, so a state invariant under rotation
by 2 pi/g stays so: z_k(t_i + 2 pi/g) = e^{2 pi i/g} z_k(t_i) at every
time.  Given such a fold g (``cli`` passes g = gcd(m, N) for a V-state),
the velocities are built on the N/g nodes 0 <= t < 2 pi/g only, the
rotation-only fold of ``layer_integrals``, and turned onto the rest by
e^{2 pi i k/g}, exactly -1 for g = 2.  ``evolve`` then holds every state
as the exact image of its first N/g nodes, so a folded run never leaves
the g-fold subspace: a perturbation that breaks the symmetry cannot grow
in it.  Starting from a snapshot of the run evolves the full grid.  Both
derivatives of a right-hand side come from one (2, N) FFT pair, bitwise
the two 1-D ones.

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
NEWTON_STEPS Newton steps each, in row blocks of at most ROW_BLOCK_ENTRIES
entries, and the ruler's nearest-node seeds and the least node gap between
the layers (``min_boundary_gap``) come from squared real distances in the
same blocks, so no N x N array is built.  Given a fold g, both read the
first N/g nodes of each snapshot only, once its fold is checked: every
other node is one of these turned, and neither reading moves under the
rotation.

Two more boundary sums check the coupling, which the per-layer areas
cannot see: since delta G_12 = G_21, the angular impulse
J = delta int_{D1} |x|^2 + int_{D2} |x|^2 and the centroid
C = delta int_{D1} x + int_{D2} x are conserved (``impulses``, from
``PatchBoundary.second_moment`` and ``first_moment``), and ``evolve``
records their largest drifts.
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
    _check_fold,
    _curve,
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
# entries of one row block of the gap and ruler's node-to-node distances
# (512 KB of float64) and of the respacing's points: every row is read
# alone, so the block bounds their memory and changes no reading; one
# block serves N = 256
ROW_BLOCK_ENTRIES = 256 * 256


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
        return float(np.pi * np.mean(self._flux()))

    def second_moment(self) -> float:
        """The integral of |x|^2 over the patch, (1/4) oint |z|^2 Im(conj z z') dt."""
        return float(0.5 * np.pi * np.mean(np.abs(self.nodes) ** 2 * self._flux()))

    def first_moment(self) -> complex:
        """The integral of x over the patch, as x + iy: (1/3) oint z Im(conj z z') dt."""
        return complex(TWO_PI / 3.0 * np.mean(self.nodes * self._flux()))

    def _flux(self) -> FloatArray:
        """Im(conj z z') at the nodes, z' of the trigonometric interpolant."""
        z = self.nodes
        return np.imag(np.conj(z) * spectral_derivative(z))

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


@functools.cache
def _turns(fold: int) -> ComplexArray:
    """e^{2 pi i k/fold}, k = 0 .. fold-1, read-only; the quarter turns are
    exact (-1 for fold 2, where np.exp(1j * pi) has an imaginary part)."""
    k = np.arange(fold)
    turns = np.exp(TWO_PI * 1j * k / fold)
    quarter = (4 * k) % fold == 0
    turns[quarter] = np.array([1, 1j, -1, -1j])[4 * k[quarter] // fold]
    turns.setflags(write=False)
    return turns


def _rotation_image(head: ComplexArray, fold: int) -> ComplexArray:
    """The fold * P values whose entry j + k P is e^{2 pi i k/fold} head[j],
    j < P = head.size: the image of head under the rotations by 2 pi/fold."""
    return (_turns(fold)[:, None] * head).reshape(-1)


def _folded(state: EvolutionState, fold: int | None) -> EvolutionState:
    """state with each boundary's nodes the rotation image of its first N/fold
    nodes (None: state itself)."""
    if fold is None:
        return state
    n = state.boundaries[0].nodes.size
    boundaries = tuple(
        PatchBoundary(_rotation_image(b.nodes[: n // fold], fold), b.layer)
        for b in state.boundaries
    )
    return EvolutionState(boundaries, state.time)


def layer_node_velocities(
    params: LayerParams, z1: ComplexArray, z2: ComplexArray, fold: int | None = None
) -> tuple[ComplexArray, ComplexArray]:
    """Velocity of each layer's field at that layer's own boundary nodes.

    Given a fold g, the curves must be invariant under rotation by 2 pi/g
    (``quadrature.layer_integrals`` refuses them otherwise): only the N/g
    nodes 0 <= t < 2 pi/g are targets, and their velocities, turned by
    e^{2 pi i k/g}, give the rest.
    """
    zs = [np.asarray(z, dtype=np.complex128) for z in (z1, z2)]
    # one (2, N) FFT pair, bitwise the two 1-D ones
    u1, u2 = layer_integrals(params, zs, spectral_derivative(np.stack(zs)), fold, even=False)
    if fold is not None:
        u1, u2 = _rotation_image(u1, fold), _rotation_image(u2, fold)
    return -u1, -u2


def suggested_dt(params: LayerParams, state: EvolutionState, fold: int | None = None) -> float:
    """Time for the fastest node to cross one mean node spacing, capped at DT_CAP.

    A heuristic step size, not a CFL or stability limit: RK4 on this
    system has been run stable and accurate at steps far above it.
    """
    v1, v2 = layer_node_velocities(
        params, state.boundaries[0].nodes, state.boundaries[1].nodes, fold
    )
    vmax = float(max(np.max(np.abs(v1)), np.max(np.abs(v2)), 1e-12))
    n = state.boundaries[0].nodes.size
    spacing = TWO_PI * float(np.mean(np.abs(state.boundaries[0].nodes))) / n
    return min(DT_CAP, spacing / vmax)


def step_rk4(
    params: LayerParams, state: EvolutionState, dt: float, fold: int | None = None
) -> EvolutionState:
    """One classical RK4 step of all boundary nodes; checks simplicity after.

    A negative dt steps backward (used for reversibility checks).  Given a
    fold, the velocities are folded (``layer_node_velocities``) and the new
    nodes are the rotation image of their first N/fold.
    """
    if dt == 0.0:
        raise ValueError("dt must be nonzero")
    z1 = state.boundaries[0].nodes
    z2 = state.boundaries[1].nodes
    k1a, k1b = layer_node_velocities(params, z1, z2, fold)
    k2a, k2b = layer_node_velocities(params, z1 + 0.5 * dt * k1a, z2 + 0.5 * dt * k1b, fold)
    k3a, k3b = layer_node_velocities(params, z1 + 0.5 * dt * k2a, z2 + 0.5 * dt * k2b, fold)
    k4a, k4b = layer_node_velocities(params, z1 + dt * k3a, z2 + dt * k3b, fold)
    new1 = z1 + dt / 6.0 * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
    new2 = z2 + dt / 6.0 * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
    new = EvolutionState((PatchBoundary(new1, 1), PatchBoundary(new2, 2)), state.time + dt)
    new = _folded(new, fold)
    for boundary in new.boundaries:
        boundary.validate()
    return new


def resample_by_arclength(boundary: PatchBoundary) -> PatchBoundary:
    """Respace the nodes equally in arclength along the trigonometric interpolant.

    The arclength s(t) = mean_speed * t + P(t), with P(0) = 0, is the FFT
    antiderivative of the interpolated speed |z'|; the length is
    L = 2 pi mean_speed.  Linear interpolation of s sampled at the nodes
    seeds the parameters t_j of s(t_j) = j L / N;
    NEWTON_STEPS Newton steps refine them, and the new nodes are the
    interpolant at t_j.  The t_j are taken in ``_row_blocks``, so the
    interpolant's evaluator holds one block's tables at a time.
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
    nodes = np.empty(n, dtype=np.complex128)
    for block in _row_blocks(n, n):
        for _ in range(NEWTON_STEPS):
            _, p, ds = curve(tj[block])
            tj[block] -= (mean_speed * tj[block] + p.real - targets[block]) / ds.real
        nodes[block] = curve(tj[block])[0]
    return PatchBoundary(nodes, boundary.layer)


@dataclass
class EvolutionResult:
    snapshots: list[EvolutionState] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    aborted: str | None = None


def impulses(params: LayerParams, state: EvolutionState) -> tuple[float, complex]:
    """(J, C): the angular impulse J = delta int_{D1} |x|^2 + int_{D2} |x|^2 and
    the centroid C = delta int_{D1} x + int_{D2} x (as x + iy).

    The coupled dynamics conserve both, since delta G_12 = G_21; per-layer
    areas cannot see a wrong coupling coefficient, these can.
    """
    b1, b2 = state.boundaries
    delta = params.delta
    return (delta * b1.second_moment() + b2.second_moment(),
            delta * b1.first_moment() + b2.first_moment())


def evolve(
    params: LayerParams,
    state0: EvolutionState,
    t_end: float,
    dt: float | None = None,
    snapshot_every: int = 50,
    fold: int | None = None,
) -> EvolutionResult:
    """March to t_end with RK4, node redistribution and snapshots.

    The nodes are respaced by arclength every REDISTRIBUTE_EVERY steps.

    Given a fold g, state0 must be invariant under rotation by 2 pi/g (to
    1e-12 of max|z|, else ``ValueError``), the right-hand sides are folded
    (``layer_node_velocities``), and every state held (the start, each RK4
    step, each respacing) is the exact rotation image of its first N/g
    nodes, so the run stays in the g-fold subspace; the gap is read on
    them.  A non-finite start is refused with ``ValueError`` too.

    Snapshots include the initial and final states.  At each snapshot the
    diagnostics take the largest relative drift of each layer's area, of
    the angular impulse J and of the centroid C (``impulses``; its shift is
    measured against sqrt(J M) at the start, M = delta A_1 + A_2, the
    weighted area times its radius of gyration).  On a NumericFailure
    (simplicity violation, touching boundaries, a quadrature refusal) the
    partial trajectory is returned with the failure recorded in ``aborted``.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be > 0")
    if fold is not None:
        _check_fold([_curve(b.nodes) for b in state0.boundaries], fold, even=False)
    state = _folded(state0, fold)
    if dt is None:
        dt = suggested_dt(params, state, fold)
    n_steps = max(1, int(round(t_end / dt)))
    result = EvolutionResult(snapshots=[state])
    area0 = [b.area() for b in state.boundaries]
    impulse0, centroid0 = impulses(params, state)
    centroid_scale = float(np.sqrt(abs(impulse0) * abs(params.delta * area0[0] + area0[1])))
    drifts = dict.fromkeys(("area_drift", "angular_impulse_drift", "centroid_drift"), 0.0)
    min_gap = _boundary_gap(state, fold)
    try:
        for step in range(1, n_steps + 1):
            state = step_rk4(params, state, dt, fold)
            if step % REDISTRIBUTE_EVERY == 0:
                boundaries = tuple(map(resample_by_arclength, state.boundaries))
                state = _folded(EvolutionState(boundaries, state.time), fold)
            if step % snapshot_every == 0 or step == n_steps:
                result.snapshots.append(state)
                impulse, centroid = impulses(params, state)
                now = {
                    "area_drift": max(abs(b.area() - a) / abs(a)
                                      for b, a in zip(state.boundaries, area0)),
                    "angular_impulse_drift": abs(impulse - impulse0) / abs(impulse0),
                    "centroid_drift": abs(centroid - centroid0) / centroid_scale,
                }
                drifts = {key: max(drifts[key], now[key]) for key in drifts}
                min_gap = min(min_gap, _boundary_gap(state, fold))
    except NumericFailure as exc:
        result.aborted = str(exc)
    result.diagnostics = {
        **drifts,
        "min_boundary_gap": min_gap,
        "n_steps": n_steps,
        "n_snapshots": len(result.snapshots),
        "dt": dt,
        "fold": fold,
    }
    return result


def _head_rows(state: EvolutionState, fold: int | None) -> int | None:
    """The node count P whose first P nodes of each boundary fix every reading
    of state that rotation leaves alone: None (all nodes) for no fold, else
    N/fold once state has the fold (``quadrature._check_fold``, else
    ``ValueError``)."""
    if fold is None:
        return None
    nodes = [b.nodes for b in state.boundaries]
    _check_fold([_curve(z) for z in nodes], fold, even=False)
    return nodes[0].size // fold


def _row_blocks(n_rows: int, n_cols: int) -> list[slice]:
    """Blocks of consecutive rows, each of at most ROW_BLOCK_ENTRIES entries
    across n_cols columns (one row at the least)."""
    step = max(1, ROW_BLOCK_ENTRIES // n_cols)
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _squared_distances(points: ComplexArray, z: ComplexArray) -> FloatArray:
    """|points[i] - z[j]|^2 from the real and imaginary parts, (points x z)."""
    d2 = np.subtract.outer(points.real, z.real)
    np.square(d2, out=d2)
    dy = np.subtract.outer(points.imag, z.imag)
    np.square(dy, out=dy)
    d2 += dy
    return d2


def _boundary_gap(state: EvolutionState, fold: int | None = None) -> float:
    """Least distance between a layer-1 and a layer-2 node.  Given a fold, the
    state must have it, and the layer-1 nodes up to N/fold are the rows:
    every node pair has a rotated image among theirs."""
    z1 = state.boundaries[0].nodes[: _head_rows(state, fold)]
    z2 = state.boundaries[1].nodes
    d2 = min(float(np.min(_squared_distances(z1[b], z2))) for b in _row_blocks(z1.size, z2.size))
    return float(np.sqrt(d2))


# ---------------------------------------------------------------------------
# Rigid-rotation diagnostics
# ---------------------------------------------------------------------------


def _distance_to_curve(points: ComplexArray, z: ComplexArray) -> FloatArray:
    """Distance from each point to the interpolant of z, by Newton on |z(s) - p|^2,
    seeded at the nearest node; the points are taken in ``_row_blocks``."""
    k, coeffs = fourier(z)
    interpolant = trig_sum(k, [coeffs, 1j * k * coeffs, -k * k * coeffs])  # z, z', z''
    nodes = grid(z.size)
    out = np.empty(points.shape)
    for block in _row_blocks(points.size, z.size):
        p = points[block]
        s = nodes[np.argmin(_squared_distances(p, z), axis=1)]
        best = np.full(p.shape, np.inf)
        for _ in range(NEWTON_STEPS):
            zs, dz, ddz = interpolant(s)
            r = zs - p
            best = np.fmin(best, np.abs(r))
            s = s - (np.conj(r) * dz).real / (np.abs(dz) ** 2 + (np.conj(r) * ddz).real)
        out[block] = np.fmin(best, np.abs(interpolant(s)[0] - p))
    return out


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
    return _hausdorff(za, zb, None)


def _hausdorff(za: ComplexArray, zb: ComplexArray, rows: int | None) -> float:
    """``curve_hausdorff`` with each sup over the first ``rows`` nodes only
    (None: all)."""
    return float(max(_distance_to_curve(za[:rows], zb).max(),
                     _distance_to_curve(zb[:rows], za).max()))


def rigid_rotation_residual(
    traj: list[EvolutionState], omega: float, fold: int | None = None
) -> float:
    """Deviation of a trajectory from rigid rotation at angular velocity omega.

    Maximum over snapshots and layers of the symmetric Hausdorff distance
    (``curve_hausdorff``) between boundary(t) and boundary(0) rotated by
    omega*t, normalized by the initial layer-1 mean radius.  The sup runs
    over the nodes of each curve, each node's distance being to the
    trigonometric interpolant of the other, found by Newton on the curve
    parameter.  boundary(0) is not measured against itself, a distance at
    rounding level.  Given a fold g, every snapshot must have it (else
    ``ValueError``), and the sups run over the first N/g nodes: the
    distances of the others are theirs turned by the rotation, which moves
    neither curve.
    """
    if not traj:
        raise ValueError("empty trajectory")
    ref = traj[0]
    t0 = ref.time
    scale = float(np.sqrt(abs(ref.boundaries[0].area()) / np.pi))
    _head_rows(ref, fold)  # boundary(0) must have the fold too
    worst = 0.0
    for snap in traj[1:]:
        rows = _head_rows(snap, fold)
        rot = np.exp(1j * omega * (snap.time - t0))
        for b, b0 in zip(snap.boundaries, ref.boundaries):
            worst = max(worst, _hausdorff(b.nodes, rot * b0.nodes, rows))
    return worst / scale
