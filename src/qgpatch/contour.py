r"""Contour dynamics functional and V-state continuation.

Patch boundaries close to the discs are written in polar form
z_k(t) = R_k(t) e^{it} with R_k = sqrt(b_k^2 + 2 r_k(t)).  A pair of
patches rotating rigidly at angular velocity Omega solves F(Omega, r) = 0
where

    F_k(Omega, r)(t) = Omega r_k'(t) + Im{ conj(z_k'(t)) u_k(t) },
    u_k(t) = sum_j int G_{k,j}(z_k(t) - z_j(e)) z_j'(e) de ,

so F_k = 0 says that boundary k has no normal velocity in the frame
rotating at Omega.  The integrals u_k are minus the layer velocities of
:mod:`qgpatch.dynamics` and come from the same assembly,
:func:`qgpatch.quadrature.layer_integrals`.

At r = 0 the derivative of F acts diagonally on Fourier modes: cosine mode
n maps to sine mode n through the block -n M_n(Omega) of
:meth:`.SpectrumArrays.matrix_m`.  V-state branches are continued in the
amplitude s of the kernel direction by a damped Newton iteration on the
Galerkin system over the m-fold sine modes (``quadrature.mode_tables``),
with the first-layer mode-m coefficient pinned to s * (first kernel-vector
component).  Every iteration takes its Jacobian from these r = 0 blocks;
its residual is assembled on one fundamental domain only.  F of an even
m-fold shape is odd and 2 pi/m periodic, and with g = gcd(m, N) the grid
is invariant under t -> -t and rotation by 2 pi/g, so the sine
coefficients on the modes m*j are 4g/N times sums over the target rows
0 <= t <= pi/g; the end rows, where the sines vanish, are built for the
quadrature guards.  The residual passes the fold g to ``layer_integrals``,
which builds those rows, evaluates each self block on one node pair per
orbit of the symmetry and gathers the second cross block from the first.
The finite-difference oracle ``jacobian_fd`` stays on the full grid.

A branch is followed by a predictor that uses its half-turn symmetry:
rotating an m-fold V-state by pi/m maps the solution at amplitude s to
the one at -s, so Omega is even in s and the coefficient of cos(n m t)
has the parity (-1)^n.  Each unknown is s^p g(s^2), with p = 1 on the
odd modes n and p = 0 on Omega and the even modes, and each solve after
the first starts from the Lagrange extrapolation of g in s^2 through the
bifurcation point (g = Omega_m^sign, the kernel vector on mode m and zero
elsewhere) and the last one or two converged solutions with distinct
nonzero s^2: a start O(s^4) or O(s^6) from the answer.

The iteration has no options: it tests each iterate before stepping
from it, and returns the iterate, unmoved, once its residual is at most
NEWTON_TOL and the Newton correction solved at it at most 1e-12.  The
solution's residual is that iterate's own, and its iteration count is the
number of steps applied (0 when the start is accepted).  A solve thus
evaluates the residual once at its start and once per damping trial of
each applied step; no evaluation only confirms a step.  An iterate that
still fails the test after NEWTON_MAX_ITER steps, or a damping that
fails, raises NoConvergenceError, so a solve never returns an unconverged
answer; amplitudes beyond S_MAX are refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd

import numpy as np
from numpy.typing import NDArray

from . import spectrum
from .kernels import LayerParams
from .quadrature import (
    NumericFailure,
    fold_rows,
    grid,
    layer_integrals,
    mode_tables,
)

FloatArray = NDArray[np.float64]

NEWTON_TOL = 1e-10  # max-norm of the projected residual
NEWTON_MAX_ITER = 50
S_MAX = 0.1  # largest amplitude a solve accepts
SIMPLE_GAP_TOL = 1e-9  # smallest |Omega_m - Omega_km| check_simple_eigenvalue accepts


class RadiusCollapseError(NumericFailure):
    """A deformation drove b_k^2 + 2 r_k below zero somewhere."""


class CollisionDetectedError(RuntimeError):
    """Bifurcation point degenerate: another mode shares the eigenvalue."""


class NoConvergenceError(NumericFailure):
    """Newton iteration failed to reach the residual tolerance."""


@dataclass(frozen=True)
class RadialDeformation:
    """Even m-fold deformation pair: r_k(t) = sum_n c[k, n-1] cos(n m t).

    Evenness and 2 pi / m periodicity hold by construction of the cosine
    basis; the nodal grid has n_nodes equally spaced points.
    """

    m: int
    coeffs: FloatArray  # shape (2, n_modes)
    n_nodes: int = 256

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != 2:
            raise ValueError("coeffs must have shape (2, n_modes)")
        object.__setattr__(self, "coeffs", c)
        if self.m < 1:
            raise ValueError("symmetry fold m must be >= 1")
        if self.n_nodes % 2 or self.n_nodes < 64:
            raise ValueError("n_nodes must be even and >= 64")
        if self.m * c.shape[1] >= self.n_nodes // 2:
            raise ValueError("highest mode must stay below the Nyquist limit")

    @property
    def n_modes(self) -> int:
        return self.coeffs.shape[1]

    def grid(self) -> FloatArray:
        return grid(self.n_nodes)

    def nodal(self) -> FloatArray:
        """r_k sampled on the grid, shape (2, n_nodes)."""
        _, cos, _ = mode_tables(self.m, self.n_modes, self.n_nodes)
        return self.coeffs @ cos

    def nodal_derivative(self) -> FloatArray:
        """dr_k/dt on the grid, computed in coefficient space."""
        modes, _, sin = mode_tables(self.m, self.n_modes, self.n_nodes)
        return -(self.coeffs * modes) @ sin

    @staticmethod
    def zero(m: int, n_modes: int, n_nodes: int = 256) -> "RadialDeformation":
        return RadialDeformation(m, np.zeros((2, n_modes)), n_nodes)


def radius_profile(b_k: float, r_nodal: FloatArray) -> FloatArray:
    """R_k = sqrt(b_k^2 + 2 r_k) pointwise; fails on radius collapse."""
    r_nodal = np.asarray(r_nodal, dtype=np.float64)
    squared = b_k * b_k + 2.0 * r_nodal
    if np.any(squared <= 0.0):
        raise RadiusCollapseError(
            f"b_k^2 + 2 min(r) = {float(np.min(squared)):.3e} <= 0"
        )
    return np.sqrt(squared)


def _boundary_curves(params: LayerParams, r_nodal: FloatArray, dr_nodal: FloatArray):
    """Complex nodes z_k and derivatives z_k', each shape (2, N)."""
    phase = np.exp(1j * grid(r_nodal.shape[1]))
    radii = (params.b1, params.b2)
    radius = np.vstack([radius_profile(radii[k], r_nodal[k]) for k in (0, 1)])
    return radius * phase, (dr_nodal / radius + 1j * radius) * phase


def functional_f(
    params: LayerParams,
    omega: float,
    deformation: RadialDeformation,
    fold: int | None = None,
) -> FloatArray:
    """Contour functional F(Omega, r) on the deformation grid, shape (2, N).

    With a fold g (r even and 2 pi/g periodic) only the nodes
    0 <= t <= pi/g are targets and the shape is (2, N/(2g) + 1); every
    node is still a source.
    """
    r_nodal, dr_nodal = deformation.nodal(), deformation.nodal_derivative()
    zs, dzs = _boundary_curves(params, r_nodal, dr_nodal)
    u = layer_integrals(params, zs, dzs, fold)
    rows = fold_rows(deformation.n_nodes, fold)
    return omega * dr_nodal[:, :rows] + np.imag(np.conj(dzs[:, :rows]) * u)


def linearized_multiplier(params: LayerParams, omega: float, n: int) -> np.ndarray:
    """Block -n M_n(Omega): cosine mode n of r maps to sine mode n of F."""
    return -n * spectrum.spectrum_arrays(params, n).matrix_m(omega)[n - 1]


def sine_coefficients(values: FloatArray, m: int, n_modes: int) -> FloatArray:
    """Coefficients of sin(m j t), j = 1..n_modes, on the uniform grid, per row."""
    values = np.atleast_2d(values)
    n = values.shape[-1]
    return (2.0 / n) * values @ mode_tables(m, n_modes, n)[2].T


def jacobian_fd(
    params: LayerParams,
    omega: float,
    h: float = 1e-6,
    n_probe: int = 16,
    n_nodes: int = 256,
) -> FloatArray:
    """Central-difference Jacobian of F at r = 0 in the cosine basis, sine projected.

    Probes F at the deformations r = +-h cos(n t) of each layer for
    n = 1..n_probe and projects the response on sine modes 1..n_probe.
    Returns blocks J[np_, n, k, j] = d(sine mode np_ of F_k) / d(cos mode
    n of layer j); the diagonal blocks J[n, n] reproduce -n M_n(Omega).
    """
    if not 1e-8 <= h <= 1e-4:
        raise ValueError("finite-difference step outside [1e-8, 1e-4]")
    jac = np.empty((n_probe, n_probe, 2, 2))
    for j_layer in (0, 1):
        for n in range(1, n_probe + 1):
            bump = np.zeros((2, n_probe))
            bump[j_layer, n - 1] = h
            fp = functional_f(params, omega, RadialDeformation(1, bump, n_nodes))
            fm = functional_f(params, omega, RadialDeformation(1, -bump, n_nodes))
            jac[:, n - 1, :, j_layer] = sine_coefficients((fp - fm) / (2.0 * h), 1, n_probe).T
    return jac


# ---------------------------------------------------------------------------
# V-state Newton continuation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VStateSolution:
    """A converged V-state at amplitude s.

    ``residual_norm`` is the max-norm of the projected residual measured at
    the returned omega and deformation; ``iterations`` counts the Newton
    steps applied to reach them, 0 when the start was accepted as it was.
    """

    params: LayerParams
    m: int
    sign: int
    amplitude: float
    omega: float
    deformation: RadialDeformation
    residual_norm: float
    iterations: int = 0

    def boundary_radii(self) -> FloatArray:
        r = self.deformation.nodal()
        return np.vstack(
            [
                radius_profile(self.params.b1, r[0]),
                radius_profile(self.params.b2, r[1]),
            ]
        )

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "params": self.params.as_dict(),
            "m": self.m,
            "sign": self.sign,
            "amplitude": float(self.amplitude),
            "omega": float(self.omega),
            "n_modes": self.deformation.n_modes,
            "n_nodes": self.deformation.n_nodes,
            "coeffs_layer1": [float(c) for c in self.deformation.coeffs[0]],
            "coeffs_layer2": [float(c) for c in self.deformation.coeffs[1]],
            "residual": float(self.residual_norm),
            "iterations": self.iterations,
        }

    @staticmethod
    def from_json_dict(payload: dict) -> "VStateSolution":
        p = payload["params"]
        params = LayerParams(p["delta"], p["lambda"], p["b1"], p["b2"])
        deformation = RadialDeformation(
            payload["m"],
            np.vstack([payload["coeffs_layer1"], payload["coeffs_layer2"]]),
            payload["n_nodes"],
        )
        return VStateSolution(
            params,
            payload["m"],
            payload["sign"],
            payload["amplitude"],
            payload["omega"],
            deformation,
            payload["residual"],
            payload.get("iterations", 0),
        )


def check_simple_eigenvalue(
    spec: spectrum.SpectrumArrays, m: int, sign: int, n_modes: int
) -> None:
    """Refuse parameters where Omega_m^sign collides with another m-multiple.

    Kernel simplicity of the linearized operator on the m-fold subspace
    requires Omega_m^sign != Omega_{km}^{-sign} for k >= 2 (same-branch
    equality is excluded by monotonicity); a gap below SIMPLE_GAP_TOL is a
    collision.  spec must hold the modes up to m * n_modes.
    """
    if sign == 1:
        target, partners = spec.omega_plus[m - 1], spec.omega_minus
    else:
        target, partners = spec.omega_minus[m - 1], spec.omega_plus
    for k in range(2, n_modes + 1):
        gap = abs(target - partners[k * m - 1])
        if gap < SIMPLE_GAP_TOL:
            raise CollisionDetectedError(
                f"Omega_{m}^{'+' if sign == 1 else '-'} collides with mode "
                f"{k * m} (gap {gap:.2e}); bifurcation not simple"
            )


def _pack(omega: float, coeffs: FloatArray) -> FloatArray:
    return np.concatenate([[omega], coeffs[0, 1:], coeffs[1, :]])


def _unpack(u: FloatArray, n_modes: int, pinned: float) -> tuple[float, FloatArray]:
    omega = float(u[0])
    coeffs = np.empty((2, n_modes))
    coeffs[0, 0] = pinned
    coeffs[0, 1:] = u[1 : n_modes]
    coeffs[1, :] = u[n_modes :]
    return omega, coeffs


def _projected_residual(
    params: LayerParams, omega: float, defo: RadialDeformation
) -> FloatArray:
    """Sine coefficients of F on the modes m*j, from one fundamental domain.

    F is odd and 2 pi/m periodic, and so is sin(m j t).  The grid is
    invariant under t -> -t and under rotation by 2 pi/g, g = gcd(m, N),
    so the full-grid sum (2/N) sum_i F(t_i) sin(m j t_i) equals (4g/N)
    times the sum over the rows i = 0 .. N/(2g).  The end rows t = 0 and
    t = pi/g (a node only when N/g is even) carry sin(m j t) = 0; they are
    built anyway so that the quadrature guards see every node pair up to
    symmetry.
    """
    n = defo.n_nodes
    g = gcd(defo.m, n)
    f_rows = functional_f(params, omega, defo, fold=g)
    basis = mode_tables(defo.m, defo.n_modes, n)[2][:, : fold_rows(n, g)]
    return ((4.0 * g / n) * f_rows @ basis.T).ravel()


def _iterate_residual(
    params: LayerParams, omega: float, defo: RadialDeformation, iteration: int, scale: float
) -> FloatArray:
    """``_projected_residual`` of a Newton iterate.  A refusal gets the
    iteration (0: the start) and damping scale appended to its text, so a
    separation it reports is read as that iterate's, not a converged shape's."""
    try:
        return _projected_residual(params, omega, defo)
    except NumericFailure as exc:
        where = (
            "the Newton start" if iteration == 0
            else f"Newton iteration {iteration}, damping scale {scale:g}"
        )
        exc.args = (f"{exc} (at {where})",)
        raise


def _newton_matrix(
    spec: spectrum.SpectrumArrays, omega: float, coeffs: FloatArray, m: int
) -> FloatArray:
    """Jacobian of the projected system from the r = 0 multiplier blocks.

    spec must hold the modes up to m * n_modes; the blocks -n M_n(omega)
    are those of :func:`linearized_multiplier` at n = m, 2m, ...
    """
    n_modes = coeffs.shape[1]
    orders = m * np.arange(1, n_modes + 1)
    blocks = -orders[:, None, None] * spec.matrix_m(omega)[orders - 1]
    rows1 = np.arange(n_modes)  # layer-1 rows, mode m*j at j - 1
    rows2 = n_modes + rows1  # layer-2 rows
    jac = np.zeros((2 * n_modes, 2 * n_modes))
    # column 0: d/d omega of the projected residual
    jac[rows1, 0] = -orders * coeffs[0]
    jac[rows2, 0] = -orders * coeffs[1]
    # layer-1 columns; the pinned mode m has none
    jac[rows1[1:], rows1[1:]] = blocks[1:, 0, 0]
    jac[rows2[1:], rows1[1:]] = blocks[1:, 1, 0]
    jac[rows1, rows2] = blocks[:, 0, 1]
    jac[rows2, rows2] = blocks[:, 1, 1]
    return jac


def vstate_solve(
    params: LayerParams,
    m: int,
    sign: int,
    s: float,
    init: VStateSolution | None = None,
    n_modes: int = 32,
    n_nodes: int = 256,
    *,
    _spec: spectrum.SpectrumArrays | None = None,
) -> VStateSolution:
    """Solve F(Omega, r) = 0 on the m-fold sine modes at fixed amplitude s.

    The amplitude chart pins the first-layer mode-m cosine coefficient to
    s * v1, with v the kernel vector and Omega_m^sign read from the same
    ``spectrum_arrays`` rows up to m * n_modes as the Newton blocks; the
    remaining coefficients and Omega are the Newton unknowns.  With no warm
    start the iteration begins on the tangent r = s * v cos(m t),
    Omega = Omega_m^sign.
    At each iterate the correction is solved with the r = 0 blocks of
    :func:`_newton_matrix`.  The iterate is returned as it is, with its own
    measured residual, once that residual is at most NEWTON_TOL and the
    correction at most 1e-12; otherwise the correction is applied, halved
    until the residual falls.  ``iterations`` counts the applied steps.  An
    iterate that fails the test after NEWTON_MAX_ITER steps, or a damping
    that fails, raises NoConvergenceError.  A refusal from a residual
    names the iteration and damping scale it tripped at.  |s| > S_MAX
    raises ValueError.
    ``branch_continue`` passes the rows it has already evaluated and
    checked with ``check_simple_eigenvalue`` as ``_spec``.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if abs(s) > S_MAX:
        raise ValueError(f"amplitude {s} beyond S_MAX = {S_MAX}")
    if n_modes < 8:
        raise ValueError("need n_modes >= 8")
    spec = _spec
    if spec is None:
        spec = spectrum.spectrum_arrays(params, m * n_modes)
        check_simple_eigenvalue(spec, m, sign, n_modes)

    vec = spec.kernel_vector(m, sign)
    omega0 = spec.omega(m, sign)
    pinned = s * vec[0]

    if s == 0.0:
        defo = RadialDeformation.zero(m, n_modes, n_nodes)
        return VStateSolution(params, m, sign, 0.0, omega0, defo, 0.0, 0)

    if init is not None:
        coeffs = init.deformation.coeffs.copy()
        if coeffs.shape[1] != n_modes:
            raise ValueError("warm start has a different mode count")
        coeffs[0, 0] = pinned
        omega = init.omega
    else:
        coeffs = np.zeros((2, n_modes))
        coeffs[0, 0] = pinned
        coeffs[1, 0] = s * vec[1]
        omega = omega0

    u = _pack(omega, coeffs)
    defo = RadialDeformation(m, coeffs, n_nodes)
    res = _iterate_residual(params, omega, defo, 0, 1.0)
    res_norm = float(np.max(np.abs(res)))

    for applied in range(NEWTON_MAX_ITER + 1):
        try:
            delta = np.linalg.solve(_newton_matrix(spec, omega, coeffs, m), res)
        except np.linalg.LinAlgError as exc:
            raise NoConvergenceError(f"singular Newton matrix: {exc}") from exc
        if res_norm <= NEWTON_TOL and float(np.max(np.abs(delta))) <= 1e-12:
            return VStateSolution(params, m, sign, s, omega, defo, res_norm, applied)
        if applied == NEWTON_MAX_ITER:
            break
        iteration = applied + 1
        scale = 1.0
        for _ in range(9):
            u_try = u - scale * delta
            omega_try, coeffs_try = _unpack(u_try, n_modes, pinned)
            try:
                defo_try = RadialDeformation(m, coeffs_try, n_nodes)
                res_try = _iterate_residual(params, omega_try, defo_try, iteration, scale)
            except RadiusCollapseError:
                scale *= 0.5
                continue
            if float(np.max(np.abs(res_try))) < res_norm or res_norm <= NEWTON_TOL:
                break
            scale *= 0.5
        else:
            raise NoConvergenceError(
                f"damping failed at residual {res_norm:.3e} (iteration {iteration})"
            )
        u, omega, coeffs, defo, res = u_try, omega_try, coeffs_try, defo_try, res_try
        res_norm = float(np.max(np.abs(res)))

    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations, residual {res_norm:.3e}"
    )


@dataclass
class BranchResult:
    solutions: list[VStateSolution] = field(default_factory=list)
    failure: str | None = None


def branch_continue(
    params: LayerParams,
    m: int,
    sign: int,
    s_grid,
    n_modes: int = 32,
    n_nodes: int = 256,
) -> BranchResult:
    """Predictor-corrector continuation along a V-state branch.

    Solves at each amplitude in grid order.  The first solve starts on the
    tangent; each later one starts from ``_secant_start``, which writes the
    unknowns as s^p g(s^2) by the branch's half-turn symmetry and
    extrapolates g in s^2 through the bifurcation point and the last one or
    two converged solutions.  Truncates at the first NumericFailure (no
    convergence, radius collapse or a quadrature refusal) and records it
    with the solutions before it; a collision raises before the first
    solve.  The spectrum rows up to m * n_modes are evaluated and checked
    once and every solve reads them.
    """
    result = BranchResult()
    spec = spectrum.spectrum_arrays(params, m * n_modes)
    check_simple_eigenvalue(spec, m, sign, n_modes)
    omega0, vec = spec.omega(m, sign), spec.kernel_vector(m, sign)
    for s in s_grid:
        start = _secant_start(omega0, vec, result.solutions, float(s))
        try:
            sol = vstate_solve(params, m, sign, float(s), init=start, n_modes=n_modes,
                               n_nodes=n_nodes, _spec=spec)
        except NumericFailure as exc:
            result.failure = f"s={float(s):.6g}: {exc}"
            break
        result.solutions.append(sol)
    return result


def _secant_start(
    omega0: float, vec: FloatArray, solved: list[VStateSolution], s: float
) -> VStateSolution | None:
    """Start at amplitude s from the branch's symmetry under s -> -s.

    Omega and the coefficients of the even modes n m are g(s^2), those of
    the odd modes s g(s^2).  g is extrapolated in s^2 by Lagrange through
    the bifurcation point, where it is omega0, the kernel vector ``vec``
    on mode m and zero on the others, and the last one or two solutions
    whose s^2 are nonzero and distinct (s and -s count once): a line or a
    quadratic in s^2.  None with no such solution.
    """
    nodes: list[VStateSolution] = []
    for sol in reversed(solved):
        sigma = sol.amplitude**2
        if sigma != 0.0 and all(sigma != node.amplitude**2 for node in nodes):
            nodes.append(sol)
            if len(nodes) == 2:
                break
    if not nodes:
        return None
    n_modes = nodes[0].deformation.n_modes
    odd = np.arange(n_modes) % 2 == 0  # column n - 1 holds mode n m
    tangent = np.zeros((2, n_modes))
    tangent[:, 0] = vec
    # the weights sum to one, so each node adds its offset from the origin's g
    sigmas = [0.0] + [node.amplitude**2 for node in nodes]
    omega, coeffs = omega0, tangent.copy()
    for node in nodes:
        sigma_k = node.amplitude**2
        weight = np.prod([(s * s - a) / (sigma_k - a) for a in sigmas if a != sigma_k])
        omega += weight * (node.omega - omega0)
        g = node.deformation.coeffs / np.where(odd, node.amplitude, 1.0)
        coeffs += weight * (g - tangent)
    template = nodes[0]
    return replace(
        template, amplitude=s, omega=omega,
        deformation=replace(template.deformation, coeffs=coeffs * np.where(odd, s, 1.0)),
    )
