"""First-order path-conservative finite-volume solver on a uniform 1D grid.

Space discretization: Rusanov (local Lax-Friedrichs) fluxes with the
nonconservative moment terms handled by a straight-line path evaluated at
the arithmetic-mean state, split half/half between the adjacent cells.
Topography uses hydrostatic reconstruction at the interfaces, which keeps
the lake-at-rest state a discrete fixed point; it needs only the bottom
samples b.  Time integration is the three-stage strong-stability-preserving
Runge-Kutta scheme.

Initial conditions and bottoms are named presets.  _PRESETS is their one
table: it maps each preset to its parameters and their defaults, and the
samplers, the config validation and docs/config.md all follow it.  A
Scenario is frozen and keeps read-only copies of its preset parameters,
resolved against that table, so its cached bottom cannot go stale.

State arrays are conserved variables of shape (cells, N+2), stored
variables-first from initial_condition on: U.T is C-contiguous, one row of
cells per variable.  apply_boundary, the one ghost rule for states and
bottom alike, appends a ghost cell per side to such rows.  semi_discrete_rhs
forms the distinct reconstructed states once, as one array with a left and
a right view, and evaluates primitives, flux, wave speed and path term once
per state, so each elementwise operation runs along a row of cells.  On a
flat bottom (every sample exactly zero) the reconstruction keeps each cell's
state at both its faces, so the states are the (N+2, cells+2) ghost-extended
cells; on any other bottom they are both sides of every interface, stacked
into one (N+2, 2, cells+1) array.  The ghost-extended bottom and
b* = max(b_L, b_R) depend on the scenario alone and are computed once, as the
cached Scenario.interface_bottom, and so is the flat-bottom test.

Validation: semi_discrete_rhs checks the depths on both sides of every
interface and in every cell, once per call; step checks each stage's result
for non-finite components, then dry depths; run checks each new state once,
for its record and the next time step, and stops after MAX_STEPS steps or
before a step that would take it past MAX_CELL_STEPS cell-steps.

Output: run hands each state it produces to a sink as one StateRecord, its
summary (t, mass, momentum, total_energy) plus, for a snapshot only, the state
arrays, and keeps none itself, so its memory does not depend on the number of
steps or snapshots.  The default sink, Trajectory, keeps every summary and
snapshot; the CLI's sink writes them to CSV files instead.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from swlme.model import (
    DryStateError,
    ModelParams,
    ParameterError,
    Variant,
    _energy_density,
    _flux_rows,
    _moment_sum,
    _path_rows,
    _wave_speed,
    as_count,
    check_wet,
    max_wave_speed,
    to_primitive,
)

BOUNDARY_KINDS = ("periodic", "outflow", "reflective")
# steps one run may take; the largest benchmark mesh takes about 900
MAX_STEPS = 10**7
# cells x steps one run may take, whatever its cell count; the largest benchmark run
# takes about 1.15 million, and 2^20 cells at N = 0 take about 30 minutes for 10^10
MAX_CELL_STEPS = 10**10
# bytes of one state array, cells x (N+2) floats.  A run's peak is about 14
# times that under SWLME and 3 (N+2) times under SWME, whose validated wave
# speed forms an (N+2) x (N+2) matrix per cell: at most about 3.2 GiB, at N = 64
MAX_STATE_BYTES = 1 << 24

# config section -> preset name -> parameter -> default
_PRESETS = {
    "ic": {
        "dam_break": {"h_l": 1.0, "h_r": 0.5, "x0": 0.0},
        "lake_at_rest": {"surface": 1.0},
        "smooth_periodic": {"h0": 1.0, "h_amp": 0.1, "um_amp": 0.0, "u_amp": 0.0},
        "constant": {"h": 1.0, "um": 0.0, "u": 0.0},
    },
    "topo": {
        "flat": {},
        "gaussian": {"height": 0.2, "width": 1.0, "center": 0.0},
        "slope": {"grade": 0.01},
    },
}
_PRESET_KIND = {"ic": "initial condition", "topo": "topography preset"}


def _preset(section: str, name: str, params: Mapping) -> dict:
    """Every parameter of a preset as a float: its value in params, else the table default.

    Keys the preset does not have are ignored.  Raises on an unknown name.
    """
    defaults = _PRESETS[section].get(name)
    if defaults is None:
        raise ParameterError(f"{section}_name", f"unknown {_PRESET_KIND[section]} '{name}' "
                                                f"(known: {', '.join(_PRESETS[section])})")
    return {key: float(params.get(key, default)) for key, default in defaults.items()}


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered grid with one ghost layer per side."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(
                    name, f"grid bounds must be finite, got [{self.x_min}, {self.x_max}]")
        if self.x_max <= self.x_min:
            raise ParameterError("x_max", "x_max must exceed x_min")
        if not np.isfinite(self.x_max - self.x_min):
            raise ParameterError("x_max", f"grid span x_max - x_min must be finite, got "
                                          f"[{self.x_min}, {self.x_max}]")
        object.__setattr__(self, "cells", as_count("cells", self.cells))
        if self.cells < 2:
            raise ParameterError("cells", f"need at least 2 cells, got {self.cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx


def make_topography(name: str, params: Mapping, grid: Grid1D) -> np.ndarray:
    """Sample a bottom-elevation preset at the cell centers: b, a read-only array.

    Raises, naming the parameter that can make it so, on a non-finite sample.
    """
    p = _preset("topo", name, params)
    x = grid.centers
    with np.errstate(all="ignore"):  # a non-finite sample is reported below
        if name == "flat":
            b = np.zeros_like(x)
        elif name == "gaussian":
            b = p["height"] * np.exp(-(((x - p["center"]) / p["width"]) ** 2))
        else:  # slope
            b = p["grade"] * (x - grid.x_min)
    if not np.isfinite(b).all():
        cell = int(np.argmin(np.isfinite(b)))
        param = "width" if name == "gaussian" else "grade"  # flat is always finite
        raise ParameterError(f"topo_{param}", f"topography '{name}' gives b = {b[cell]} at "
                                              f"cell {cell}; check its {param}")
    b.setflags(write=False)
    return b


def initial_condition(name: str, params: Mapping, grid: Grid1D, n_moments: int,
                      b: np.ndarray) -> np.ndarray:
    """Build the initial conserved states for a named preset.

    Presets: dam_break (h_l/h_r split at x0, at rest), lake_at_rest
    (flat surface over the bottom b), smooth_periodic (sinusoidal depth and
    velocities), constant.  Raises on unknown names, a non-positive depth
    or a non-finite component.
    """
    p = _preset("ic", name, params)
    x = grid.centers
    U = np.zeros((n_moments + 2, grid.cells)).T  # variables-first, see the module docstring
    with np.errstate(all="ignore"):  # a non-finite component is reported below
        if name == "dam_break":
            U[:, 0] = np.where(x < p["x0"], p["h_l"], p["h_r"])
        elif name == "lake_at_rest":
            U[:, 0] = p["surface"] - b
        elif name == "smooth_periodic":
            phase = np.sin(2.0 * np.pi * (x - grid.x_min) / (grid.x_max - grid.x_min))
            h = p["h0"] + p["h_amp"] * phase
            U[:, 0] = h
            U[:, 1] = h * (p["um_amp"] * phase)
            U[:, 2:] = (h * (p["u_amp"] * phase))[:, None]
        else:  # constant
            h = p["h"]
            U[:, 0] = h
            U[:, 1] = h * p["um"]
            U[:, 2:] = h * p["u"]
    if not np.all(U[:, 0] > 0.0):  # also catches a NaN depth
        raise ParameterError("ic_name", f"initial condition '{name}' produces non-positive depth")
    finite = np.isfinite(U)
    if not finite.all():  # an overflowed depth, momentum or moment
        cell, col = (int(i) for i in np.argwhere(~finite)[0])
        what = ("depth", "momentum")[col] if col < 2 else f"moment {col - 1}"
        raise ParameterError("ic_name", f"initial condition '{name}' produces a non-finite "
                                        f"{what} = {U[cell, col]} at cell {cell}")
    return U


@dataclass(frozen=True)
class Scenario:
    """Everything needed to run a simulation: model, grid, presets, and timing.

    ic_params and topo_params are stored as read-only copies holding every
    parameter of the preset (given value or table default), so mutating the
    mappings passed in changes neither the bottom nor the initial states.
    Validation builds the initial states once, so a preset that gives a
    non-positive or non-finite state raises ParameterError("ic_name"), and
    between periodic or reflective walls a t_end that needs more than
    MAX_STEPS steps raises ParameterError("t_end").
    """

    params: ModelParams
    grid: Grid1D
    ic_name: str
    ic_params: Mapping = field(default_factory=dict)
    topo_name: str = "flat"
    topo_params: Mapping = field(default_factory=dict)
    boundary: str = "periodic"
    t_end: float = 0.0
    cfl: float = 0.9
    output_every_steps: int = 0
    output_snapshots: int = 0

    def __post_init__(self):
        if self.boundary not in BOUNDARY_KINDS:
            raise ParameterError("boundary", f"unknown boundary kind '{self.boundary}' "
                                             f"(known: {', '.join(BOUNDARY_KINDS)})")
        if not 0.0 < self.cfl <= 1.0:
            raise ParameterError("cfl", f"cfl must be in (0, 1], got {self.cfl}")
        if not np.isfinite(self.t_end) or self.t_end < 0.0:
            raise ParameterError("t_end", f"t_end must be finite and >= 0, got {self.t_end}")
        for name in ("output_every_steps", "output_snapshots"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
            if getattr(self, name) < 0:
                raise ParameterError(name, f"{name} must be >= 0, got {getattr(self, name)}")
        cell_bytes = 8 * (self.params.N + 2)
        if self.grid.cells * cell_bytes > MAX_STATE_BYTES:
            raise ParameterError("cells", f"{self.grid.cells} cells exceed "
                                          f"{MAX_STATE_BYTES // cell_bytes} at N={self.params.N}: "
                                          f"a state takes {cell_bytes} bytes a cell, and at most "
                                          f"{MAX_STATE_BYTES} bytes")
        object.__setattr__(self, "ic_params",
                           MappingProxyType(_preset("ic", self.ic_name, self.ic_params)))
        object.__setattr__(self, "topo_params",
                           MappingProxyType(_preset("topo", self.topo_name, self.topo_params)))
        h0 = self.initial_states()[:, 0]
        # between periodic or reflective walls mass is conserved, so some cell keeps
        # h >= mean(h0), and every speed cfl_dt uses is at least sqrt(g h): no dt exceeds
        # cfl dx / sqrt(g mean(h0)).  The margin covers roundoff in the mass.
        # Python floats, so an overflow gives inf and an underflow 0, without a warning
        speed = math.sqrt(self.params.g * float(h0.mean()))
        if (self.boundary != "outflow"
                and self.t_end * speed > MAX_STEPS * (1.0 + 1e-6) * self.cfl * self.grid.dx):
            raise ParameterError("t_end", f"t_end = {self.t_end} needs more than MAX_STEPS = "
                                          f"{MAX_STEPS} steps: with {self.boundary} walls no step "
                                          f"exceeds cfl dx / sqrt(g mean(h0)) = "
                                          f"{self.cfl * self.grid.dx / speed:.4g}")

    @functools.cached_property
    def topography(self) -> np.ndarray:
        return make_topography(self.topo_name, self.topo_params, self.grid)

    @functools.cached_property
    def interface_bottom(self) -> tuple[np.ndarray, np.ndarray]:
        """Ghost-extended bottom b_ext (cells+2) and b* = max(b_L, b_R) per interface.

        Ghosts per apply_boundary: periodic wraps, the others copy the edge
        cell (one row has nothing to negate).  Both arrays are read-only.
        """
        b_ext = apply_boundary(self.topography[None], self.boundary)[0]
        b_star = np.maximum(b_ext[:-1], b_ext[1:])
        b_ext.setflags(write=False)
        b_star.setflags(write=False)
        return b_ext, b_star

    @functools.cached_property
    def flat_bottom(self) -> bool:
        """Whether every ghost-extended bottom sample is exactly zero (either sign).

        Then the reconstructed depth h + b - b* is h bit for bit, and both
        faces of a cell carry the same state.
        """
        return not self.interface_bottom[0].any()

    def initial_states(self) -> np.ndarray:
        return initial_condition(self.ic_name, self.ic_params, self.grid,
                                 self.params.N, self.topography)

    def with_cells(self, cells: int) -> "Scenario":
        """Same scenario on a different resolution (topography is re-sampled)."""
        return dataclasses.replace(self, grid=dataclasses.replace(self.grid, cells=cells))


class StateRecord(NamedTuple):
    """One state of a run, as run hands it to sink.record.

    A snapshot also carries its conserved states U, validated primitives W
    and the energy density e that total_energy sums; run never writes them.
    """

    t: float
    mass: float
    momentum: float
    total_energy: float
    U: np.ndarray | None = None
    W: np.ndarray | None = None
    e: np.ndarray | None = None

    @property
    def summary(self) -> tuple:
        """The values of SUMMARY_FIELDS, without the arrays."""
        return self[:4]


SUMMARY_FIELDS = StateRecord._fields[:4]  # the columns of summary.csv


@dataclass
class Trajectory:
    """Snapshots plus per-step scalar summaries of a run; the default sink of run.

    A sink's record(state) takes each StateRecord, t = 0 first, and its
    finish(failure) is called once, after the last; run returns what finish
    returns.  A Trajectory keeps every summary and snapshot, and returns itself.
    """

    times: list = field(default_factory=list)  # snapshot times, strictly increasing
    snapshots: list = field(default_factory=list)  # conserved states, one per time
    steps: list = field(default_factory=list)  # summaries, t=0 first; an array once finished
    failure: str | None = None

    def record(self, state: StateRecord) -> None:
        self.steps.append(state.summary)
        if state.U is not None:
            self.times.append(state.t)
            self.snapshots.append(state.U)

    def finish(self, failure: str | None) -> Trajectory:
        self.steps, self.failure = np.array(self.steps), failure
        return self


def apply_boundary(X: np.ndarray, kind: str) -> np.ndarray:
    """Return rows X (variables, cells) with one ghost column per side, per the boundary kind.

    Periodic wraps and the others copy the edge cell; reflective walls then
    negate rows 1: of the ghost columns, the whole velocity profile (mean and
    every moment) of a state, so the momentum-like components flip sign.
    """
    ext = np.empty((X.shape[0], X.shape[1] + 2))
    ext[:, 1:-1] = X
    if kind == "periodic":
        ext[:, 0], ext[:, -1] = X[:, -1], X[:, 0]
    elif kind in ("outflow", "reflective"):
        ext[:, 0], ext[:, -1] = X[:, 0], X[:, -1]
        if kind == "reflective":
            ext[1:, [0, -1]] *= -1.0
    else:
        raise ValueError(f"unknown boundary kind '{kind}'")
    return ext


def cfl_dt(W: np.ndarray, grid: Grid1D, params: ModelParams, cfl: float, *,
           T: np.ndarray | None = None) -> float:
    """Time step cfl * dx / (largest wave-speed bound over the cells).

    W holds validated primitive states, as to_primitive returns them; T, if
    given, is their _moment_sum(W[:, 2:]).
    """
    if T is None and params.N:
        T = _moment_sum(W[:, 2:])
    if params.variant is Variant.SWME:
        # the analytic bound can fail for the full closure; it is validated
        # against the spectrum where it could set the maximum
        speeds = max_wave_speed(W, params, validate=True, T=T)
    else:
        # the analytic bound is exact for the linearized closure
        speeds = _wave_speed(W[:, 0], W[:, 1], T if params.N else None, params.g)
    return cfl * grid.dx / float(np.max(speeds))


def _check_interface_depths(low: np.ndarray, cells: int, boundary: str) -> None:
    """check_wet on reconstructed depths, naming the cell whose interface is dry.

    low holds the depths one side of each interface reads: (2, cells+1),
    side and interface, from _interface_states, or (cells+2,), one per
    ghost-extended cell, on a flat bottom.  Both layouts list the
    ghost-extended cells in the same order, so both name the same cell.
    """
    try:
        check_wet(low)
    except DryStateError as err:
        # ghost-extended index: interface j + side, or the cell itself; less the left ghost
        cell = sum(err.index) - 1
        cell = cell % cells if boundary == "periodic" else min(max(cell, 0), cells - 1)
        raise DryStateError(f"dry or invalid state at an interface of cell {cell}: "
                            f"h = {low[err.index]}", index=(cell,)) from None


def _interface_states(X: np.ndarray, b_ext: np.ndarray, b_star: np.ndarray,
                      boundary: str) -> np.ndarray:
    """Hydrostatically reconstructed interface states, variable axis first.

    X holds the ghost-extended conserved states as rows, shape
    (N+2, cells+2), and b_ext, b_star are Scenario.interface_bottom.
    Returns Us of shape (N+2, 2, cells+1): Us[:, 0] is the left and
    Us[:, 1] the right state at each interface, with the depth
    reconstructed against b* and each cell's velocities kept.  Validates
    every depth the update reads, naming the offending cell.
    """
    h = X[0]
    hb = h + b_ext
    n = h.size - 1
    Us = np.empty((X.shape[0], 2, n))
    hs = Us[0]
    np.subtract(hb[:-1], b_star, out=hs[0])
    np.subtract(hb[1:], b_star, out=hs[1])
    # hs <= h holds only up to the rounding of h + b, so the cell depths are checked too
    low = np.empty_like(hs)
    np.minimum(hs[0], h[:-1], out=low[0])
    np.minimum(hs[1], h[1:], out=low[1])
    _check_interface_depths(low, n - 1, boundary)
    v = X[1:] / h
    np.multiply(v[:, :-1], hs[0], out=Us[1:, 0])
    np.multiply(v[:, 1:], hs[1], out=Us[1:, 1])
    return Us


def _reconstructed_states(X: np.ndarray, scenario: Scenario) -> tuple:
    """The distinct reconstructed states S, and the indices of the interface sides in S.

    X holds the ghost-extended conserved states as rows, (N+2, cells+2).  On
    a flat bottom (Scenario.flat_bottom) the reconstruction keeps every
    depth, so both faces of a cell carry one state: S is (N+2, cells+2),
    formed in X, and the left and right sides of the interfaces are
    S[..., :-1] and S[..., 1:].  On any other bottom S is _interface_states's
    (N+2, 2, cells+1), sides S[..., 0, :] and S[..., 1, :].  The states and
    their validation are those of _interface_states bit for bit, on either
    bottom.
    """
    if scenario.flat_bottom:
        h = X[0]
        _check_interface_depths(h, h.size - 2, scenario.boundary)
        v = X[1:] / h
        np.multiply(v, h, out=X[1:])
        return X, np.s_[..., :-1], np.s_[..., 1:]
    return (_interface_states(X, *scenario.interface_bottom, scenario.boundary),
            np.s_[..., 0, :], np.s_[..., 1, :])


def _hydrostatic_correction(hs_sq_L: np.ndarray, hs_sq_R: np.ndarray, g: float) -> np.ndarray:
    """Twice each cell's momentum correction: g (hs_L^2 at its right face - hs_R^2 at its left).

    hs_sq_L and hs_sq_R hold the squared left and right depths of every
    interface, shape (cells+1,).
    """
    corr = np.subtract(hs_sq_L[1:], hs_sq_R[:-1])
    corr *= g
    return corr


def _rusanov_flux(S: np.ndarray, L: tuple, R: tuple, dUs: np.ndarray, hs_sq: np.ndarray,
                  p: ModelParams) -> np.ndarray:
    """Twice the Rusanov flux, (F_L + F_R) - max(s_L, s_R) dUs, shape (N+2, cells+1).

    S holds the distinct reconstructed states and L, R index the left and
    right state of each interface in S (_reconstructed_states); velocities,
    moment sum, flux rows and wave speeds are evaluated once per state of S.
    dUs = S[R] - S[L], and hs_sq holds the squared depths S[0]**2.
    """
    hs = S[0]
    v = S[1:] / hs
    # the moments with their axis last, a view: _moment_sum reads one contiguous moment row at a time
    T = _moment_sum(v[1:].transpose(*range(1, v.ndim), 0)) if p.N else None
    speeds = _wave_speed(hs, v[0], T, p.g)
    F = np.empty_like(S)
    _flux_rows(hs, v[0], v[1:], T, p, F, hs_sq)
    F_star = np.add(F[L], F[R])
    s = np.maximum(speeds[L], speeds[R])
    F_star -= np.multiply(s, dUs, out=F[L])  # F is spent: its left sides take the product
    return F_star


def _path_term(S: np.ndarray, L: tuple, R: tuple, dUs: np.ndarray, p: ModelParams) -> np.ndarray:
    """Moment rows (N, cells): twice the half path terms of each cell's two interfaces.

    The path is straight and evaluated at the mean interface state, of which
    only the rows _path_rows reads are formed, doubled, since only their
    quotients are read: h and q, and the moments under the full closure
    (the linearized one reads u_m alone).  S, L, R are as in _rusanov_flux.
    """
    rows = S[:S.shape[0] if p.variant is Variant.SWME else 2]
    Um = np.add(rows[L], rows[R])
    vm = Um[1:] / Um[0]
    P = _path_rows(vm[0], vm[1:], dUs[2:], p)
    return np.add(P[:, 1:], P[:, :-1])


def semi_discrete_rhs(U: np.ndarray, scenario: Scenario) -> np.ndarray:
    """dU/dt of the path-conservative scheme with hydrostatic topography.

    Each interface contributes a Rusanov flux at the reconstructed states
    and half of its path term to both neighbors; each cell adds the
    hydrostatic momentum correction.  Everything is evaluated once per
    distinct reconstructed state (_reconstructed_states): per ghost-extended
    cell on a flat bottom, where a cell's two faces share its state, and per
    interface side on any other, through one code path.  Flux, path term
    and correction are all formed doubled, each exact scaling by 1/2 left
    out, and the sum is divided once by 2 dx: away from overflow and
    subnormal values the bits are those of the halves.  The depths at both
    sides of every interface and in every cell are validated here, once per
    call; other components are not checked (step checks each stage's
    result).  Fresh variables-first output, no aliasing.
    """
    p = scenario.params
    S, L, R = _reconstructed_states(apply_boundary(U.T, scenario.boundary), scenario)
    hs_sq = np.square(S[0])
    dUs = np.subtract(S[R], S[L])
    F_star = _rusanov_flux(S, L, R, dUs, hs_sq, p)
    # each row is x - d for the flux difference d, formed in place.  Row 0
    # takes x = +0.0, the path term's zero mass row, so a -0.0 there becomes
    # +0.0; row 1's x, the correction, is a difference of squares, never -0.0
    dU = np.subtract(F_star[:, 1:], F_star[:, :-1])
    np.subtract(0.0, dU[0], out=dU[0])
    np.subtract(_hydrostatic_correction(hs_sq[L], hs_sq[R], p.g), dU[1], out=dU[1])
    if p.N:
        np.subtract(_path_term(S, L, R, dUs, p), dU[2:], out=dU[2:])
    dU /= 2.0 * scenario.grid.dx
    return dU.T


def _check_finite(U: np.ndarray) -> None:
    """Raise DryStateError naming the first cell whose momentum or a moment is not finite."""
    bad = ~np.isfinite(U[:, 1:])
    if bad.any():
        cell, col = (int(i) for i in np.argwhere(bad)[0])
        name = "momentum" if col == 0 else f"moment {col}"
        raise DryStateError(f"non-finite state: {name} = {U[cell, col + 1]} at cell {cell}",
                            index=(cell,))


def step(U: np.ndarray, dt: float, scenario: Scenario) -> np.ndarray:
    """One SSP-RK3 step; aborts with cell and stage on a non-finite or dry state.

    Each stage V + dt R(V) and each combination is formed in place in the
    fresh arrays the stages return, so U is never written.
    """
    def stage(V: np.ndarray, k: int) -> np.ndarray:
        try:
            out = semi_discrete_rhs(V, scenario)
            out *= dt
            out += V
            # a finite array passes _check_finite; a NaN shows in its minimum
            if not (out.min() > -np.inf and out.max() < np.inf):
                _check_finite(out)
            check_wet(out[:, 0])
        except DryStateError as err:
            raise DryStateError(f"stage {k}: {err}", index=err.index) from err
        return out

    U1 = stage(U, 1)
    S = stage(U1, 2)
    S *= 0.25
    U2 = np.multiply(U, 0.75, out=U1)
    U2 += S
    S = stage(U2, 3)
    S *= 2.0 / 3.0
    U3 = np.divide(U, 3.0, out=U2)
    U3 += S
    return U3


def _summary_row(t: float, U: np.ndarray, W: np.ndarray, b: np.ndarray, g: float,
                 dx: float, snapshot: bool, T: np.ndarray | None = None) -> StateRecord:
    """The record of states U at time t, with its arrays if it is a snapshot.

    W is the primitive of U and T, if given, its _moment_sum(W[:, 2:]).
    """
    e = _energy_density(W, b, g, T)
    return StateRecord(float(t), float(U[:, 0].sum() * dx), float(U[:, 1].sum() * dx),
                       float(e.sum() * dx), *((U, W, e) if snapshot else ()))


def run(scenario: Scenario, sink=None):
    """Advance the scenario to t_end, handing each state's StateRecord to sink.record.

    Each record goes to the sink as soon as its state is produced; run
    returns what sink.finish returns (a Trajectory, by default).  The step is
    capped so snapshot times, formed one at a time, and t_end are hit
    exactly.  On a dry state, a time step that underflows (dt <= 0 or
    t + dt == t), MAX_STEPS steps taken before t_end, or a step that would
    take the run past MAX_CELL_STEPS cells x steps, the run stops and the
    failure is passed to sink.finish; what was recorded so far stands.
    """
    sink = Trajectory() if sink is None else sink
    p = scenario.params
    grid = scenario.grid
    b = scenario.topography
    U = scenario.initial_states()

    # interior snapshot times k * spacing, 0 < k < snapshots, one at a time;
    # k = snapshots would be t_end up to roundoff
    snapshots, every = scenario.output_snapshots, scenario.output_every_steps
    spacing = scenario.t_end / snapshots if snapshots else 0.0
    k = 1 if spacing > 0.0 else snapshots  # index of the next interior snapshot time

    t, n_steps, failure = 0.0, 0, None
    snap = True  # the initial state is always a snapshot
    while True:
        # each state is converted and validated once, and its moment sum formed
        # once, for its record and the next step
        W = to_primitive(U)
        T = _moment_sum(W[:, 2:]) if p.N else None
        sink.record(_summary_row(t, U, W, b, p.g, grid.dx, snapshot=snap, T=T))
        if t >= scenario.t_end:
            break
        if n_steps >= MAX_STEPS:
            failure = f"step limit of {MAX_STEPS} steps reached at t = {t}"
            break
        if (n_steps + 1) * grid.cells > MAX_CELL_STEPS:
            failure = (f"cell-step budget of {MAX_CELL_STEPS} reached at t = {t} "
                       f"({n_steps} steps on {grid.cells} cells)")
            break
        while k < snapshots and k * spacing <= t:
            k += 1
        next_target = min(k * spacing, scenario.t_end) if k < snapshots else scenario.t_end
        try:
            dt = cfl_dt(W, grid, p, scenario.cfl, T=T)
            del W, T  # the step reads only U; holding W would raise its peak memory
            landed = t + dt >= next_target
            if landed:
                dt = next_target - t
            if dt <= 0.0 or t + dt == t:
                failure = f"time step underflow at t = {t}"
                break
            U = step(U, dt, scenario)
        except DryStateError as err:
            failure = str(err)
            break
        # t strictly increases, so no state is a snapshot twice
        t = next_target if landed else t + dt
        n_steps += 1
        snap = landed or (every > 0 and n_steps % every == 0)
    return sink.finish(failure)
