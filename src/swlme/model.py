"""Moment-model states, fluxes, sources, and the energy/entropy pair.

States are plain numpy arrays whose last axis holds the variables:

    conserved  U = [h, q, r_1, ..., r_N]   with q = h*u_m, r_i = h*u_i
    primitive  W = [h, u_m, u_1, ..., u_N]

so a single cell is a vector of length N+2 and a grid is an array of shape
(cells, N+2).  All operations broadcast over leading axes.

The system of N+2 equations is

    d/dt h     + d/dx (h u_m)                                   = 0
    d/dt (h u_m) + d/dx (h u_m^2 + h T + g h^2 / 2)             = -g h db/dx
    d/dt (h u_i) + d/dx (h (2 u_m u_i + sum_jk A_ijk u_j u_k))
                 = u_m d/dx (h u_i) - sum_jk B_ijk u_k d/dx (h u_j)

with T = sum_j u_j^2 / (2j+1).  The linearized variant (A = B = 0) admits
the exact energy pair

    e = h u_m^2 / 2 + h T / 2 + g h^2 / 2 + g h b
    f = h u_m^3 / 2 + 3 h u_m T / 2 + g h u_m (h + b)

whose gradient with respect to (h, q, r_i) gives the entropy variables.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from swlme.basis import ClosureTensors, Variant, compute_tensors

DEFAULT_H_MIN = 1e-10


class DryStateError(RuntimeError):
    """Water depth at or below the dry threshold; the state is unusable."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class WaveSpeedBoundWarning(UserWarning):
    """The analytic wave-speed bound was exceeded by the numeric spectral radius."""


class EnergyPair(NamedTuple):
    e: np.ndarray | float
    f: np.ndarray | float


class EntropyVars(NamedTuple):
    q1: np.ndarray | float
    q2: np.ndarray | float
    q_u: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Gravity, moment order, closure variant, and the matching tensors."""

    g: float
    N: int
    variant: Variant = Variant.SWLME
    tensors: ClosureTensors | None = None
    h_min: float = DEFAULT_H_MIN

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError(f"gravity must be positive, got {self.g}")
        if self.N < 0:
            raise ValueError(f"moment order must be >= 0, got {self.N}")
        if self.tensors is None:
            object.__setattr__(self, "tensors", compute_tensors(self.N, self.variant))
        if self.tensors.order != self.N:
            raise ValueError(f"tensor order {self.tensors.order} != N = {self.N}")
        if self.tensors.variant is not self.variant:
            raise ValueError("tensor variant does not match model variant")

    @property
    def n_vars(self) -> int:
        return self.N + 2


@dataclass(frozen=True)
class Topography:
    """Bottom elevation sampled at cell centers, with a slope sample per cell."""

    b: np.ndarray
    dbdx: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "dbdx", np.asarray(self.dbdx, dtype=float))
        if self.b.shape != self.dbdx.shape:
            raise ValueError("b and dbdx must have the same shape")


@functools.lru_cache(maxsize=None)
def moment_weights(n: int) -> np.ndarray:
    """Orthogonality weights 1/(2i+1) for i = 1..n."""
    w = 1.0 / (2.0 * np.arange(1, n + 1) + 1.0)
    w.setflags(write=False)
    return w


def check_wet(h: np.ndarray, h_min: float = DEFAULT_H_MIN) -> None:
    """Raise DryStateError if any depth is at or below the threshold."""
    h = np.asarray(h)
    if np.any(h <= h_min) or not np.all(np.isfinite(h)):
        flat = np.argmin(np.where(np.isfinite(h), h, -np.inf))
        idx = np.unravel_index(flat, h.shape) if h.ndim else ()
        raise DryStateError(
            f"dry or invalid state: h = {h.flat[flat] if h.ndim else float(h)} at cell {idx}",
            index=idx,
        )


def _moment_sum(u: np.ndarray) -> np.ndarray:
    """T = sum_i u_i^2 / (2i+1) over the last axis (0.0 when there are no moments).

    The squares are made C-contiguous whatever the layout of u, so the
    matrix-vector product, and with it the rounding of T, is the same for a
    transposed view as for a row-major array.
    """
    n = u.shape[-1]
    return np.ascontiguousarray(u * u) @ moment_weights(n) if n else np.zeros(u.shape[:-1])


def _moments_last(u: np.ndarray) -> np.ndarray:
    """Contiguous (..., N) copy of moment rows of shape (N, ...), for the closure einsums."""
    return np.ascontiguousarray(np.moveaxis(u, 0, -1))


def _flux_rows(h, um, u, T, p: ModelParams, out: np.ndarray) -> None:
    """Write the flux into out, variable axis first.

    h, um and T = _moment_sum of the moments have shape S, the moments u
    shape (N,) + S, and out shape (N+2,) + S.  No wetness check.
    """
    out[0] = h * um
    out[1] = h * um**2 + h * T + 0.5 * p.g * h**2
    out[2:] = 2.0 * h * um * u
    if p.variant is Variant.SWME and p.N > 0:
        ul = _moments_last(u)
        out[2:] += h * np.moveaxis(np.einsum("ijk,...j,...k->...i", p.tensors.A, ul, ul), -1, 0)


def _path_rows(um, u, du, p: ModelParams) -> np.ndarray:
    """Moment rows u_m du_i - sum_jk B_ijk u_k du_j of the nonconservative term.

    um has shape S; the moments u and their increments du have shape (N,) + S.
    """
    out = um * du
    if p.variant is Variant.SWME and p.N > 0:
        out -= np.moveaxis(
            np.einsum("ijk,...k,...j->...i", p.tensors.B, _moments_last(u), _moments_last(du)),
            -1, 0)
    return out


def _wave_speed(h, um, T, g: float):
    """|u_m| + sqrt(g h + 3 T), T = _moment_sum of the moments.  No wetness check."""
    return np.abs(um) + np.sqrt(g * h + 3.0 * T)


def to_primitive(U: np.ndarray, h_min: float = DEFAULT_H_MIN) -> np.ndarray:
    """Convert [h, q, r_i] to [h, u_m, u_i]; errors on dry states."""
    U = np.asarray(U, dtype=float)
    h = U[..., 0]
    check_wet(h, h_min)
    W = np.empty_like(U)
    W[..., 0] = h
    W[..., 1:] = U[..., 1:] / h[..., None]
    return W


def to_conserved(W: np.ndarray, h_min: float = DEFAULT_H_MIN) -> np.ndarray:
    """Convert [h, u_m, u_i] to [h, q, r_i]; exact inverse of to_primitive."""
    W = np.asarray(W, dtype=float)
    h = W[..., 0]
    check_wet(h, h_min)
    U = np.empty_like(W)
    U[..., 0] = h
    U[..., 1:] = W[..., 1:] * h[..., None]
    return U


def flux(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """Conservative flux evaluated at primitive states.

    Components: [h u_m,
                 h u_m^2 + h T + g h^2 / 2,
                 h (2 u_m u_i + sum_jk A_ijk u_j u_k)].
    """
    W = np.asarray(W, dtype=float)
    check_wet(W[..., 0], p.h_min)
    F = np.empty_like(W)
    rows = np.moveaxis(W, -1, 0)
    # [i, ...] keeps a single state's fields 0-d arrays: numpy's scalar ** rounds
    # differently from the array square
    _flux_rows(rows[0, ...], rows[1, ...], rows[2:], _moment_sum(W[..., 2:]), p,
               np.moveaxis(F, -1, 0))
    return F


def nonconservative_rhs(W: np.ndarray, dUdx: np.ndarray, p: ModelParams) -> np.ndarray:
    """Nonconservative terms u_m d/dx(h u_i) - sum_jk B_ijk u_k d/dx(h u_j).

    dUdx holds spatial-derivative samples of the conserved variables; only
    its moment components enter.  Mass and momentum components are zero.
    """
    W, dUdx = np.broadcast_arrays(np.asarray(W, dtype=float), np.asarray(dUdx, dtype=float))
    rows, drows = np.moveaxis(W, -1, 0), np.moveaxis(dUdx, -1, 0)
    out = np.zeros(W.shape)
    np.moveaxis(out, -1, 0)[2:] = _path_rows(rows[1, ...], rows[2:], drows[2:], p)
    return out


def topo_source(W: np.ndarray, dbdx, g: float) -> np.ndarray:
    """Momentum source -g h db/dx; all other components zero."""
    W = np.asarray(W, dtype=float)
    out = np.zeros_like(W)
    out[..., 1] = -g * W[..., 0] * np.asarray(dbdx)
    return out


def energy(W: np.ndarray, b, g: float) -> EnergyPair:
    """Total energy density e and its flux f at primitive states over bottom b."""
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    T = _moment_sum(u)
    b = np.asarray(b, dtype=float)
    e = 0.5 * h * um**2 + 0.5 * h * T + 0.5 * g * h**2 + g * h * b
    f = 0.5 * h * um**3 + 1.5 * h * um * T + g * h * um * (h + b)
    if W.ndim == 1:
        return EnergyPair(float(e), float(f))
    return EnergyPair(e, f)


def entropy_vars(W: np.ndarray, b, g: float) -> EntropyVars:
    """Gradient of the energy density with respect to (h, q, r_i)."""
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    q1 = -0.5 * um**2 - 0.5 * _moment_sum(u) + g * (h + np.asarray(b, dtype=float))
    q_u = u * moment_weights(u.shape[-1])
    if W.ndim == 1:
        return EntropyVars(float(q1), float(um), q_u)
    return EntropyVars(q1, um, q_u)


def boussinesq_beta(W: np.ndarray) -> np.ndarray | float:
    """Momentum shape factor beta = 1 + sum_i (u_i/u_m)^2 / (2i+1).

    Undefined at u_m = 0 (the moment-to-mean velocity ratios blow up).
    """
    W = np.asarray(W, dtype=float)
    um, u = W[..., 1], W[..., 2:]
    if np.any(um == 0.0):
        raise ValueError("beta is undefined for u_m = 0")
    beta = 1.0 + _moment_sum(u / um[..., None])
    return float(beta) if W.ndim == 1 else beta


def flux_jacobian(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """Jacobian of flux() with respect to the conserved variables."""
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h, p.h_min)
    n = p.n_vars
    J = np.zeros(W.shape[:-1] + (n, n))
    wts = moment_weights(p.N)
    J[..., 0, 1] = 1.0
    J[..., 1, 0] = p.g * h - um**2 - _moment_sum(u)
    J[..., 1, 1] = 2.0 * um
    J[..., 1, 2:] = 2.0 * u * wts
    J[..., 2:, 0] = -2.0 * um[..., None] * u
    J[..., 2:, 1] = 2.0 * u
    idx = np.arange(2, n)
    J[..., idx, idx] = 2.0 * um[..., None]
    if p.variant is Variant.SWME and p.N > 0:
        A = p.tensors.A
        J[..., 2:, 0] -= np.einsum("ijk,...j,...k->...i", A, u, u)
        J[..., 2:, 2:] += np.einsum("ijk,...k->...ij", A + A.transpose(0, 2, 1), u)
    return J


def ncp_matrix(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """Coefficient matrix G with nonconservative_rhs = G @ dUdx."""
    W = np.asarray(W, dtype=float)
    um, u = W[..., 1], W[..., 2:]
    n = p.n_vars
    G = np.zeros(W.shape[:-1] + (n, n))
    idx = np.arange(2, n)
    G[..., idx, idx] = um[..., None]
    if p.variant is Variant.SWME and p.N > 0:
        G[..., 2:, 2:] -= np.einsum("ijk,...k->...ij", p.tensors.B, u)
    return G


def quasilinear_matrix(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """Matrix Q with d/dt U + Q(U) d/dx U = sources (flux Jacobian minus NCP part)."""
    return flux_jacobian(W, p) - ncp_matrix(W, p)


def max_wave_speed(W: np.ndarray, p: ModelParams, validate: bool = False) -> np.ndarray | float:
    """Upper bound |u_m| + sqrt(g h + 3 T) on the characteristic speeds.

    For the linearized closure the eigenvalues of the quasilinear matrix
    are u_m (N-fold) and u_m +- sqrt(g h + 3 T), so the bound is sharp.
    With validate=True the numeric spectral radius is computed as well;
    should it ever exceed the bound (possible for the full closure), the
    larger value is returned and a WaveSpeedBoundWarning recorded.
    """
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h, p.h_min)
    s = _wave_speed(h, um, _moment_sum(u), p.g)
    if validate:
        radius = np.abs(np.linalg.eigvals(quasilinear_matrix(W, p))).max(axis=-1)
        # allowance for eigensolve roundoff; the bound is often attained exactly
        exceeded = radius > s * (1.0 + 1e-12)
        if np.any(exceeded):
            warnings.warn(
                f"analytic wave-speed bound exceeded at {int(np.count_nonzero(exceeded))} "
                "state(s); using the numeric spectral radius",
                WaveSpeedBoundWarning,
                stacklevel=2,
            )
            s = np.maximum(s, radius)
    return float(s) if W.ndim == 1 else s
