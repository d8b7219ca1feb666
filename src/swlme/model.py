"""Moment-model states, fluxes, nonconservative terms, and the energy/entropy pair.

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from swlme.basis import ClosureTensors, TermTable, Variant, compute_tensors

H_MIN = 1e-10  # dry threshold: a depth at or below it is rejected
N_MAX = 64  # largest moment order; the tensors take 2 N^3 floats
# quasilinear matrices max_wave_speed(validate=True) forms at once, in bytes
SPEED_BLOCK_BYTES = 1 << 21


class DryStateError(RuntimeError):
    """A depth at or below the dry threshold, or a non-finite state; it is unusable."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ParameterError(ValueError):
    """A rejected constructor argument; field is the name of the argument."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


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
    """Gravity, moment order and closure variant; the tensors are computed from them."""

    g: float
    N: int
    variant: Variant = Variant.SWLME
    tensors: ClosureTensors = field(init=False, compare=False)  # a function of N and variant

    def __post_init__(self):
        if not np.isfinite(self.g) or self.g <= 0:
            raise ParameterError("g", f"gravity must be positive and finite, got {self.g}")
        if not 0 <= self.N <= N_MAX:
            raise ParameterError("N", f"moment order must be in 0..{N_MAX}, got {self.N}")
        object.__setattr__(self, "tensors", compute_tensors(self.N, self.variant))

    @property
    def n_vars(self) -> int:
        return self.N + 2


@dataclass(frozen=True)
class Topography:
    """Bottom elevation b sampled at cell centers."""

    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))


@functools.lru_cache(maxsize=None)
def moment_weights(n: int) -> np.ndarray:
    """Orthogonality weights 1/(2i+1) for i = 1..n."""
    w = 1.0 / (2.0 * np.arange(1, n + 1) + 1.0)
    w.setflags(write=False)
    return w


def check_wet(h: np.ndarray) -> None:
    """Raise DryStateError if any depth is at or below H_MIN or not finite.

    The error's index holds the offending cell as a tuple of ints.
    """
    h = np.asarray(h)
    # two reductions clear a wet array: a NaN propagates into the minimum, and
    # +-inf shows in the minimum or the maximum; anything else takes the full test
    if h.size and h.min() > H_MIN and h.max() < np.inf:
        return
    if np.any(h <= H_MIN) or not np.all(np.isfinite(h)):
        flat = np.argmin(np.where(np.isfinite(h), h, -np.inf))
        idx = tuple(int(i) for i in np.unravel_index(flat, h.shape))
        raise DryStateError(
            f"dry or invalid state: h = {h.flat[flat] if h.ndim else float(h)} "
            f"at cell {idx[0] if h.ndim == 1 else idx}",
            index=idx,
        )


def _moment_sum(u: np.ndarray) -> np.ndarray:
    """T = sum_i u_i^2 / (2i+1) over the last axis (0.0 when there are no moments).

    The squares are written straight into a fresh C-contiguous array, the
    layout the matrix-vector product reads, so its rounding is the same for
    a transposed view as for a row-major array, and no layout copy is made.
    """
    n = u.shape[-1]
    if not n:
        return np.zeros(u.shape[:-1])
    sq = np.empty(u.shape)
    np.multiply(u, u, out=sq)
    return sq @ moment_weights(n)


def _contract(terms: TermTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closure contraction rows sum_t coef[t] x[xrow[t]] y[yrow[t]], shape (N,) + S.

    x and y are moment rows of shape (N,) + S, in any layout.  For finite
    inputs the result is bitwise np.einsum's over the dense tensor: einsum
    starts each output at +0.0 and adds (T_ijk x) y term by term, j outer
    and k inner, and the table keeps the nonzero terms in that order.  A
    skipped or padded zero term would add +-0.0, which leaves a sum that
    started at +0.0 unchanged.  One (N,) + S accumulator takes the terms one
    table row at a time, through two preallocated buffers.
    """
    coef = terms.coef.reshape(terms.coef.shape + (1,) * (x.ndim - 1))
    out = np.zeros(x.shape)
    term, y_rows = np.empty(x.shape), np.empty(x.shape)
    for c, i, j in zip(coef, terms.xrow, terms.yrow):
        # the rows are in range; mode="clip" lets take write into out= unbuffered
        x.take(i, axis=0, out=term, mode="clip")
        term *= c
        y.take(j, axis=0, out=y_rows, mode="clip")
        term *= y_rows
        out += term
    return out


def _flux_rows(h, um, u, T, p: ModelParams, out: np.ndarray, h_sq) -> None:
    """Write the flux into out, variable axis first, one row at a time in place.

    h, um, T = _moment_sum of the moments and h_sq = h**2 have shape S, the
    moments u shape (N,) + S, and out shape (N+2,) + S; T is not read when
    there are no moments (it would be all zero).  The solver passes one
    state per distinct reconstructed state: (cells+2,) on a flat bottom,
    (2, cells+1) on any other.  No wetness check.  The closure term skips
    the zero entries of A, so for an infinite velocity a row can be +-inf
    where np.einsum over the dense A gave nan (0 * inf).  Both are
    non-finite, and an overflowing run stops earlier anyway: cfl_dt rejects
    the non-finite quasilinear matrix of such a state.
    """
    # [i, ...] keeps a row a view when out holds a single state
    mass, momentum, moments = out[0, ...], out[1, ...], out[2:]
    np.multiply(h, um, out=mass)
    # h um^2 + h T + (g / 2) h^2; h um^2 >= +0.0, so leaving out h T = +0.0
    # when N = 0 keeps the bits
    np.square(um, out=momentum)
    np.multiply(h, momentum, out=momentum)
    if p.N > 0:
        momentum += h * T
    momentum += 0.5 * p.g * h_sq
    if p.N > 0:
        # h (2 u_m u_i + sum_jk A_ijk u_j u_k)
        np.multiply(2.0 * h * um, u, out=moments)
        if p.variant is Variant.SWME:
            closure = _contract(p.tensors.A_terms, u, u)
            np.multiply(h, closure, out=closure)
            moments += closure


def _path_rows(um, u, du, p: ModelParams) -> np.ndarray:
    """Moment rows u_m du_i - sum_jk B_ijk u_k du_j of the nonconservative term.

    um has shape S; the moments u and their increments du have shape (N,) + S.
    """
    out = um * du
    if p.variant is Variant.SWME and p.N > 0:
        out -= _contract(p.tensors.B_terms, u, du)
    return out


def _wave_speed(h, um, T, g: float):
    """|u_m| + sqrt(g h + 3 T), T = _moment_sum of the moments.  No wetness check.

    T is None when there are no moments: sqrt(g h), the same bits as adding
    an all-zero T to g h > 0.
    """
    c_sq = g * h
    if T is not None:
        c_sq = c_sq + 3.0 * T
    return np.abs(um) + np.sqrt(c_sq)


def to_primitive(U: np.ndarray) -> np.ndarray:
    """Convert [h, q, r_i] to [h, u_m, u_i]; errors on dry states."""
    U = np.asarray(U, dtype=float)
    h = U[..., 0]
    check_wet(h)
    W = np.empty_like(U)
    W[..., 0] = h
    W[..., 1:] = U[..., 1:] / h[..., None]
    return W


def to_conserved(W: np.ndarray) -> np.ndarray:
    """Convert [h, u_m, u_i] to [h, q, r_i]; exact inverse of to_primitive."""
    W = np.asarray(W, dtype=float)
    h = W[..., 0]
    check_wet(h)
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
    check_wet(W[..., 0])
    F = np.empty_like(W)
    rows = np.moveaxis(W, -1, 0)
    # [i, ...] keeps a single state's fields 0-d arrays: numpy's scalar ** rounds
    # differently from the array square
    h = rows[0, ...]
    _flux_rows(h, rows[1, ...], rows[2:], _moment_sum(W[..., 2:]), p,
               np.moveaxis(F, -1, 0), h**2)
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


def _energy_density(W: np.ndarray, b, g: float) -> np.ndarray:
    """Total energy density e at primitive states W (an array, also for one state)."""
    h, um = W[..., 0], W[..., 1]
    e = 0.5 * h * um**2
    if W.shape[-1] > 2:  # with no moments, 0.5 h T = +0.0 leaves e >= +0.0 unchanged
        e += 0.5 * h * _moment_sum(W[..., 2:])
    return e + 0.5 * g * h**2 + g * h * np.asarray(b, dtype=float)


def energy(W: np.ndarray, b, g: float) -> EnergyPair:
    """Total energy density e and its flux f at primitive states over bottom b."""
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    b = np.asarray(b, dtype=float)
    e = _energy_density(W, b, g)
    f = 0.5 * h * um**3 + 1.5 * h * um * _moment_sum(u) + g * h * um * (h + b)
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


def quasilinear_matrix(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """Matrix Q with d/dt U + Q(U) d/dx U = sources, at primitive states.

    Q is the Jacobian of flux() with respect to the conserved variables
    minus the matrix G with nonconservative_rhs(W, dUdx) = G @ dUdx, built
    in one buffer.  The moment block is (2 u_m + a_ii) - (u_m - b_ii) on
    the diagonal and a_ij + b_ij off it, a = (A + A^T) u and b = B u: the
    roundings of the Jacobian and G formed apart and subtracted.  a and b
    read a C-contiguous u, since from N = 8 on einsum's rounding follows the layout.
    """
    W = np.asarray(W, dtype=float)
    check_wet(W[..., 0])
    return _quasilinear(W, _moment_sum(W[..., 2:]), p)


def _quasilinear(W: np.ndarray, T: np.ndarray, p: ModelParams) -> np.ndarray:
    """quasilinear_matrix at wet states W, given their T = _moment_sum(W[..., 2:]).

    The matrix-vector product in _moment_sum rounds a state by its position
    in the batch, so a caller that builds Q a block of states at a time
    passes the T of the whole batch.
    """
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    n = p.n_vars
    Q = np.zeros(W.shape[:-1] + (n, n))
    Q[..., 0, 1] = 1.0
    Q[..., 1, 0] = p.g * h - um**2 - T
    Q[..., 1, 1] = 2.0 * um
    Q[..., 1, 2:] = 2.0 * u * moment_weights(p.N)
    Q[..., 2:, 0] = -2.0 * um[..., None] * u
    Q[..., 2:, 1] = 2.0 * u
    idx = np.arange(2, n)
    um_ = um[..., None]
    if p.variant is Variant.SWME and p.N > 0:
        A, B = p.tensors.A, p.tensors.B
        rows = np.moveaxis(u, -1, 0)
        Q[..., 2:, 0] -= np.moveaxis(_contract(p.tensors.A_terms, rows, rows), 0, -1)
        u = np.ascontiguousarray(u)
        a = np.einsum("ijk,...k->...ij", A + A.transpose(0, 2, 1), u)
        b = np.einsum("ijk,...k->...ij", B, u)
        np.add(a, b, out=Q[..., 2:, 2:])
        Q[..., idx, idx] = (2.0 * um_ + a.diagonal(0, -2, -1)) - (um_ - b.diagonal(0, -2, -1))
    else:
        Q[..., idx, idx] = 2.0 * um_ - um_
    return Q


def _spectral_bound(Q: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Upper bound s trace((B^T B)^16)^(1/32) on the spectral radius of each Q.

    Q has shape (M, n, n); c = sqrt(g h) and s > 0 have shape (M,).  B is
    D Q D^-1 / s with D = diag(c, 1, ..., 1), a similarity that balances the
    gravity entries.  The Gram matrix B^T B = X^T Q D^-1, with
    X = D^2 Q D^-1 / s^2, is squared four times, reusing X as the second
    buffer.  Overflow gives inf and a NaN entry gives NaN, so a state that
    cannot be bounded this way compares as not certified.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X = Q / (s * s)[:, None, None]
        X[:, 0] *= (c * c)[:, None]
        X[:, :, 0] /= c[:, None]
        G = np.matmul(X.transpose(0, 2, 1), Q)
        G[:, :, 0] /= c[:, None]
        for _ in range(4):
            np.matmul(G, G, out=X)
            G, X = X, G
        return s * np.einsum("...ii->...", G) ** (1.0 / 32.0)


def max_wave_speed(W: np.ndarray, p: ModelParams, validate: bool = False) -> np.ndarray | float:
    """Upper bound |u_m| + sqrt(g h + 3 T) on the characteristic speeds.

    For the linearized closure the eigenvalues of the quasilinear matrix Q
    are u_m (N-fold) and u_m +- sqrt(g h + 3 T), so this bound s is sharp.
    For the full closure it can fail once N >= 2.  With validate=True every
    state gets a speed at least its numeric spectral radius (up to a 1e-12
    allowance for eigen-solve roundoff), while only the states that could
    set the maximum are eigen-solved.

    A certificate clears most states without an eigen-solve.  It holds for
    complex eigenvalues too, where the full closure has lost hyperbolicity:

    - the similarity B = D Q D^-1 / s, D = diag(sqrt(g h), 1, ..., 1),
      leaves the spectrum unchanged;
    - the spectral radius is at most the 2-norm, rho(B) <= ||B||_2;
    - for the PSD matrix M = B^T B, lambda_max(M)^16 <= trace(M^16).

    So cert = s trace(M^16)^(1/32) >= s ||B||_2 >= rho(Q).  A state with
    cert (1 + 1e-10) <= max(s) cannot set the maximum and returns
    max(s, cert).  The others are eigen-solved and keep the plain rule: if
    the numeric radius exceeds s (1 + 1e-12) in any of them, they return
    max(s, radius) and one WaveSpeedBoundWarning counts the exceeding states;
    otherwise they return s.  So the maximum differs from that of a full
    eigen-solve only when the radius exceeds the allowance in cleared states
    alone, and then by less than the allowance.  A state whose Q is not
    finite (an overflowed velocity, say) raises DryStateError naming it.

    max(s) is taken over all states first; Q, its finiteness check, the
    certificate and the eigen-solve then go one block of states at a time,
    SPEED_BLOCK_BYTES of Q per block, so the memory they take does not grow
    with the states.  Every state's speed, and the state an error names,
    are the same as from one block; a call whose Q fits the budget is one.
    """
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h)
    T = _moment_sum(u)
    s = _wave_speed(h, um, T, p.g)
    if validate:
        n = W.shape[-1]
        s = s.reshape(-1)
        cap = np.max(s, initial=0.0)
        size = max(1, SPEED_BLOCK_BYTES // (8 * n * n))
        states, T = W.reshape(-1, n), T.reshape(-1)
        speeds, cand, radius = np.empty_like(s), [], []
        for start in range(0, max(len(s), 1), size):
            block = slice(start, start + size)
            Q = _quasilinear(states[block], T[block], p)
            finite = np.isfinite(Q).all(axis=(1, 2))
            if not finite.all():
                # an overflowed state cannot be eigen-solved; name it instead
                idx = tuple(int(i) for i in np.unravel_index(start + int(np.argmin(finite)),
                                                              W.shape[:-1]))
                raise DryStateError("invalid state: non-finite quasilinear matrix at cell "
                                    f"{idx[0] if len(idx) == 1 else idx}", index=idx)
            bound = _spectral_bound(Q, np.sqrt(p.g * states[block, 0]), s[block])
            # the negated test keeps a NaN certificate or speed eigen-solved
            solve = ~(bound * (1.0 + 1e-10) <= cap)
            cand.append(start + np.flatnonzero(solve))
            radius.append(np.abs(np.linalg.eigvals(Q[solve])).max(axis=-1))
            np.maximum(s[block], bound, out=speeds[block])
        # one rule over the eigen-solved states of every block, as in one block
        cand, radius = np.concatenate(cand), np.concatenate(radius)
        s_cand = s[cand]
        # allowance for eigensolve roundoff; the bound is often attained exactly
        exceeded = radius > s_cand * (1.0 + 1e-12)
        if np.any(exceeded):
            warnings.warn(
                f"analytic wave-speed bound exceeded at {int(np.count_nonzero(exceeded))} "
                "state(s); using the numeric spectral radius",
                WaveSpeedBoundWarning,
                stacklevel=2,
            )
            s_cand = np.maximum(s_cand, radius)
        speeds[cand] = s_cand
        s = speeds.reshape(W.shape[:-1])
    return float(s) if W.ndim == 1 else s
