"""First-order path-conservative finite-volume solver on a uniform 1D grid.

Space discretization: Rusanov (local Lax-Friedrichs) fluxes with the
nonconservative moment terms handled by a straight-line path evaluated at
the arithmetic-mean state, split half/half between the adjacent cells.
Topography uses hydrostatic reconstruction at the interfaces, which keeps
the lake-at-rest state a discrete fixed point.  Time integration is the
three-stage strong-stability-preserving Runge-Kutta scheme.

State arrays are conserved variables of shape (cells, N+2); one ghost cell
per side is appended by apply_boundary.  Only semi_discrete_rhs works in
another layout: it transposes the ghost-extended states to (N+2, cells+2),
stacks both sides of every interface into one (N+2, 2, cells+1) array, and
evaluates primitives, flux, wave speed and path term once over that stack
with the model's component helpers, so each elementwise operation runs along
a row of cells.  It validates the depths once per call and returns the usual
(cells, N+2) layout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from swlme.model import (
    DryStateError,
    ModelParams,
    Topography,
    Variant,
    _flux_rows,
    _moment_sum,
    _path_rows,
    _wave_speed,
    check_wet,
    energy,
    flux,
    max_wave_speed,
    nonconservative_rhs,
    to_primitive,
)

BOUNDARY_KINDS = ("periodic", "outflow", "reflective")
IC_NAMES = ("dam_break", "lake_at_rest", "smooth_periodic", "constant")
TOPO_NAMES = ("flat", "gaussian", "slope")


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid with one ghost layer per side."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.cells < 2:
            raise ValueError(f"need at least 2 cells, got {self.cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


def make_topography(name: str, params: dict, grid: Grid1D, boundary: str = "outflow") -> Topography:
    """Sample a bottom-elevation preset on the grid.

    dbdx uses central differences of the samples, wrapping for periodic
    boundaries and one-sided at the ends otherwise.
    """
    x = grid.centers
    if name == "flat":
        b = np.zeros_like(x)
    elif name == "gaussian":
        height = float(params.get("height", 0.2))
        width = float(params.get("width", 1.0))
        center = float(params.get("center", 0.0))
        b = height * np.exp(-(((x - center) / width) ** 2))
    elif name == "slope":
        grade = float(params.get("grade", 0.01))
        b = grade * (x - grid.x_min)
    else:
        raise ValueError(f"unknown topography preset '{name}' (known: {', '.join(TOPO_NAMES)})")

    dbdx = np.empty_like(b)
    if boundary == "periodic":
        dbdx[:] = (np.roll(b, -1) - np.roll(b, 1)) / (2.0 * grid.dx)
    else:
        dbdx[1:-1] = (b[2:] - b[:-2]) / (2.0 * grid.dx)
        dbdx[0] = (b[1] - b[0]) / grid.dx
        dbdx[-1] = (b[-1] - b[-2]) / grid.dx
    return Topography(b=b, dbdx=dbdx)


def initial_condition(name: str, params: dict, grid: Grid1D, n_moments: int,
                      b: np.ndarray | None = None) -> np.ndarray:
    """Build the initial conserved states for a named preset.

    Presets: dam_break (h_l/h_r split at x0, at rest), lake_at_rest
    (flat surface over the bottom b), smooth_periodic (sinusoidal depth and
    velocities), constant.  Raises on unknown names or non-positive depth.
    """
    x = grid.centers
    m = grid.cells
    U = np.zeros((m, n_moments + 2))
    if name == "dam_break":
        h_l = float(params.get("h_l", 1.0))
        h_r = float(params.get("h_r", 0.5))
        x0 = float(params.get("x0", 0.0))
        U[:, 0] = np.where(x < x0, h_l, h_r)
    elif name == "lake_at_rest":
        surface = float(params.get("surface", 1.0))
        bottom = np.zeros(m) if b is None else np.asarray(b, dtype=float)
        U[:, 0] = surface - bottom
    elif name == "smooth_periodic":
        h0 = float(params.get("h0", 1.0))
        h_amp = float(params.get("h_amp", 0.1))
        um_amp = float(params.get("um_amp", 0.0))
        u_amp = float(params.get("u_amp", 0.0))
        phase = np.sin(2.0 * np.pi * (x - grid.x_min) / (grid.x_max - grid.x_min))
        h = h0 + h_amp * phase
        U[:, 0] = h
        U[:, 1] = h * (um_amp * phase)
        U[:, 2:] = (h * (u_amp * phase))[:, None]
    elif name == "constant":
        h = float(params.get("h", 1.0))
        U[:, 0] = h
        U[:, 1] = h * float(params.get("um", 0.0))
        U[:, 2:] = h * float(params.get("u", 0.0))
    else:
        raise ValueError(f"unknown initial condition '{name}' (known: {', '.join(IC_NAMES)})")
    if np.any(U[:, 0] <= 0.0):
        raise ValueError(f"initial condition '{name}' produces non-positive depth")
    return U


@dataclass
class Scenario:
    """Everything needed to run a simulation: model, grid, presets, and timing."""

    params: ModelParams
    grid: Grid1D
    ic_name: str
    ic_params: dict = field(default_factory=dict)
    topo_name: str = "flat"
    topo_params: dict = field(default_factory=dict)
    boundary: str = "periodic"
    t_end: float = 0.0
    cfl: float = 0.9
    output_every_steps: int = 0
    output_snapshots: int = 0

    def __post_init__(self):
        if self.boundary not in BOUNDARY_KINDS:
            raise ValueError(f"unknown boundary kind '{self.boundary}' (known: {', '.join(BOUNDARY_KINDS)})")
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.output_every_steps < 0 or self.output_snapshots < 0:
            raise ValueError("output cadences must be >= 0")

    @property
    def topography(self) -> Topography:
        if not hasattr(self, "_topo"):
            self._topo = make_topography(self.topo_name, self.topo_params, self.grid, self.boundary)
        return self._topo

    def initial_states(self) -> np.ndarray:
        return initial_condition(self.ic_name, self.ic_params, self.grid,
                                 self.params.N, self.topography.b)

    def with_cells(self, cells: int) -> "Scenario":
        """Same scenario on a different resolution (topography is re-sampled)."""
        return dataclasses.replace(self, grid=dataclasses.replace(self.grid, cells=cells))


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar summaries of a run."""

    times: list          # snapshot times, strictly increasing
    snapshots: list      # conserved state arrays, one per time
    steps: np.ndarray    # rows (t, mass, momentum, total_energy), one per step plus t=0
    dx: float
    failure: str | None = None


def apply_boundary(U: np.ndarray, kind: str) -> np.ndarray:
    """Return U with one ghost cell per side filled per the boundary kind.

    Reflective walls copy the depth and negate the whole velocity profile
    (mean and every moment), so the momentum-like components flip sign.
    """
    ext = np.empty((U.shape[0] + 2,) + U.shape[1:])
    ext[1:-1] = U
    if kind == "periodic":
        ext[0] = U[-1]
        ext[-1] = U[0]
    elif kind == "outflow":
        ext[0] = U[0]
        ext[-1] = U[-1]
    elif kind == "reflective":
        ext[0] = U[0]
        ext[-1] = U[-1]
        ext[0, 1:] *= -1.0
        ext[-1, 1:] *= -1.0
    else:
        raise ValueError(f"unknown boundary kind '{kind}'")
    return ext


def _extend_bottom(b: np.ndarray, kind: str) -> np.ndarray:
    ext = np.empty(b.shape[0] + 2)
    ext[1:-1] = b
    if kind == "periodic":
        ext[0], ext[-1] = b[-1], b[0]
    else:
        ext[0], ext[-1] = b[0], b[-1]
    return ext


def cfl_dt(U: np.ndarray, grid: Grid1D, params: ModelParams, cfl: float) -> float:
    """Time step cfl * dx / (largest wave-speed bound over the cells)."""
    W = to_primitive(U, params.h_min)
    if params.variant is Variant.SWME:
        # the analytic bound can fail for the full closure; an eigensolve guards it
        speeds = max_wave_speed(W, params, validate=True)
    else:
        # the analytic bound is exact for the linearized closure; W is validated
        speeds = _wave_speed(W[:, 0], W[:, 1], _moment_sum(W[:, 2:]), params.g)
    return cfl * grid.dx / float(np.max(speeds))


def pc_rusanov_update(U_L: np.ndarray, U_R: np.ndarray, params: ModelParams):
    """Left/right-going Rusanov fluctuations across one interface.

    D-/D+ = (F(U_R) - F(U_L) - P)/2 -/+ s (U_R - U_L)/2 with s the larger
    wave-speed bound of the two states and P the nonconservative term of a
    straight-line path, evaluated at the arithmetic-mean state and applied
    to the jump.  Their sum is F(U_R) - F(U_L) - P; both vanish on equal
    states.  Broadcasts over leading axes.
    """
    U_L = np.asarray(U_L, dtype=float)
    U_R = np.asarray(U_R, dtype=float)
    W_L = to_primitive(U_L, params.h_min)
    W_R = to_primitive(U_R, params.h_min)
    s = np.maximum(max_wave_speed(W_L, params), max_wave_speed(W_R, params))
    dU = U_R - U_L
    P = nonconservative_rhs(to_primitive(0.5 * (U_L + U_R), params.h_min), dU, params)
    central = 0.5 * (flux(W_R, params) - flux(W_L, params) - P)
    spread = 0.5 * np.asarray(s)[..., None] * dU
    return central - spread, central + spread


def _interface_states(X: np.ndarray, b_ext: np.ndarray, h_min: float,
                      boundary: str) -> np.ndarray:
    """Hydrostatically reconstructed interface states, variable axis first.

    X holds the ghost-extended conserved states as rows, shape
    (N+2, cells+2).  Returns Us of shape (N+2, 2, cells+1): Us[:, 0] is the
    left and Us[:, 1] the right state at each interface, with the depth
    reconstructed against max(b_L, b_R) and each cell's velocities kept.
    Validates every depth the update reads, naming the offending cell.
    """
    h = X[0]
    hb = h + b_ext
    b_star = np.maximum(b_ext[:-1], b_ext[1:])
    n = h.size - 1
    Us = np.empty((X.shape[0], 2, n))
    hs = Us[0]
    np.subtract(hb[:-1], b_star, out=hs[0])
    np.subtract(hb[1:], b_star, out=hs[1])
    # hs <= h holds only up to the rounding of h + b, so the cell depths are checked too
    low = np.empty_like(hs)
    np.minimum(hs[0], h[:-1], out=low[0])
    np.minimum(hs[1], h[1:], out=low[1])
    try:
        check_wet(low, h_min)
    except DryStateError as err:
        side, j = err.index
        cell = j + side - 1  # ghost-extended index j + side, less the left ghost
        cells = n - 1
        cell = cell % cells if boundary == "periodic" else min(max(cell, 0), cells - 1)
        raise DryStateError(f"dry or invalid state at an interface of cell {cell}: "
                            f"h = {low[side, j]}", index=(cell,)) from None
    v = X[1:] / h
    np.multiply(v[:, :-1], hs[0], out=Us[1:, 0])
    np.multiply(v[:, 1:], hs[1], out=Us[1:, 1])
    return Us


def _hydrostatic_correction(hs: np.ndarray, g: float) -> np.ndarray:
    """Per-cell momentum correction g (hs_L^2 at the right face - hs_R^2 at the left) / 2."""
    return 0.5 * g * (hs[0, 1:] ** 2 - hs[1, :-1] ** 2)


def well_balanced_source(U: np.ndarray, topography: Topography, g: float,
                         boundary: str = "outflow", h_min: float = 1e-10) -> np.ndarray:
    """Per-cell momentum correction of the hydrostatic reconstruction.

    Together with interface fluxes evaluated at the reconstructed states,
    this replaces the pair (g h^2/2 pressure flux, -g h db/dx source) and
    makes the lake-at-rest state a fixed point of the full update.  Returns
    flux-difference units; the semi-discrete right-hand side divides by dx.
    Reduces to zero over a flat bottom.
    """
    U = np.asarray(U, dtype=float)
    Us = _interface_states(apply_boundary(U, boundary).T,
                           _extend_bottom(topography.b, boundary), h_min, boundary)
    src = np.zeros_like(U)
    src[:, 1] = _hydrostatic_correction(Us[0], g)
    return src


def _rusanov_flux(Us: np.ndarray, dUs: np.ndarray, p: ModelParams) -> np.ndarray:
    """Rusanov flux (N+2, cells+1) at the interface states Us, with dUs = Us_R - Us_L."""
    hs = Us[0]
    v = Us[1:] / hs
    T = _moment_sum(np.moveaxis(v[1:], 0, -1))
    speeds = _wave_speed(hs, v[0], T, p.g)
    F = np.empty_like(Us)
    _flux_rows(hs, v[0], v[1:], T, p, F)
    return 0.5 * (F[:, 0] + F[:, 1]) - 0.5 * np.maximum(speeds[0], speeds[1]) * dUs


def _path_term(Us: np.ndarray, dUs: np.ndarray, p: ModelParams) -> np.ndarray:
    """Path term (N+2, cells+1) of the straight-line path, at the mean interface state."""
    Um = 0.5 * (Us[:, 0] + Us[:, 1])
    vm = Um[1:] / Um[0]
    # the zero mass and momentum rows are added to the update as well, which
    # turns a -0.0 there into +0.0; dropping them would change the stored bits
    P = np.zeros_like(dUs)
    P[2:] = _path_rows(vm[0], vm[1:], dUs[2:], p)
    return P


def semi_discrete_rhs(U: np.ndarray, scenario: Scenario) -> np.ndarray:
    """dU/dt of the path-conservative scheme with hydrostatic topography.

    Each interface contributes a Rusanov flux at the reconstructed states
    and half of its path term to both neighbors; each cell adds the
    hydrostatic momentum correction.  Fresh output array, no aliasing.
    """
    p = scenario.params
    Us = _interface_states(apply_boundary(U, scenario.boundary).T.copy(),
                           _extend_bottom(scenario.topography.b, scenario.boundary),
                           p.h_min, scenario.boundary)
    dUs = Us[:, 1] - Us[:, 0]
    F_star = _rusanov_flux(Us, dUs, p)
    dU = -(F_star[:, 1:] - F_star[:, :-1])
    dU[1] += _hydrostatic_correction(Us[0], p.g)
    P = _path_term(Us, dUs, p)
    dU += 0.5 * (P[:, 1:] + P[:, :-1])
    out = np.empty(U.shape)
    np.divide(dU, scenario.grid.dx, out=out.T)
    return out


def step(U: np.ndarray, dt: float, scenario: Scenario) -> np.ndarray:
    """One SSP-RK3 step; aborts with cell and stage on a dry state."""
    def stage(V: np.ndarray, k: int) -> np.ndarray:
        try:
            out = V + dt * semi_discrete_rhs(V, scenario)
            check_wet(out[:, 0], scenario.params.h_min)
        except DryStateError as err:
            raise DryStateError(f"stage {k}: {err}", index=err.index) from err
        return out

    U1 = stage(U, 1)
    U2 = 0.75 * U + 0.25 * stage(U1, 2)
    return U / 3.0 + (2.0 / 3.0) * stage(U2, 3)


def _summary_row(t: float, U: np.ndarray, b: np.ndarray, g: float, dx: float,
                 h_min: float) -> list:
    W = to_primitive(U, h_min)
    e = energy(W, b, g).e
    return [t, float(U[:, 0].sum() * dx), float(U[:, 1].sum() * dx), float(e.sum() * dx)]


def run(scenario: Scenario) -> Trajectory:
    """Advance the scenario to t_end, recording summaries and snapshots.

    The step is capped so snapshot times and t_end are hit exactly.  On a
    dry-state failure the partial trajectory is returned with its failure
    field set.
    """
    p = scenario.params
    grid = scenario.grid
    b = scenario.topography.b
    U = scenario.initial_states()

    targets = {scenario.t_end}
    if scenario.output_snapshots > 0:
        # interior snapshot times only; k = snapshots would be t_end up to roundoff
        k = np.arange(1, scenario.output_snapshots)
        targets.update((k * (scenario.t_end / scenario.output_snapshots)).tolist())
    targets = sorted(targets)

    t = 0.0
    times = [0.0]
    snapshots = [U.copy()]
    rows = [_summary_row(t, U, b, p.g, grid.dx, p.h_min)]
    failure = None
    n_steps = 0

    while t < scenario.t_end:
        next_target = min(x for x in targets if x > t)
        try:
            dt = cfl_dt(U, grid, p, scenario.cfl)
            landed = t + dt >= next_target
            if landed:
                dt = next_target - t
            if dt <= 0.0 or t + dt == t:
                raise RuntimeError(f"time step underflow at t = {t}")
            U = step(U, dt, scenario)
        except DryStateError as err:
            failure = str(err)
            break
        t = next_target if landed else t + dt
        n_steps += 1
        rows.append(_summary_row(t, U, b, p.g, grid.dx, p.h_min))
        want_snap = landed or (
            scenario.output_every_steps > 0 and n_steps % scenario.output_every_steps == 0
        )
        if want_snap and t > times[-1]:
            times.append(t)
            snapshots.append(U.copy())

    return Trajectory(times=times, snapshots=snapshots, steps=np.array(rows),
                      dx=grid.dx, failure=failure)
