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
import numbers
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from swlme.basis import ClosureTensors, TermTable, Variant, compute_tensors

H_MIN = 1e-10  # dry threshold: a depth at or below it is rejected
N_MAX = 64  # largest moment order; the tensors A, B and C take 3 N^3 floats
# the bytes of a temporary block: of the quasilinear matrices max_wave_speed(validate=True)
# forms at once, and of each buffer of the closure terms _contract forms at once
BLOCK_BYTES = 1 << 21


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


def as_count(field: str, value) -> int:
    """value as an int if it is an integer (a numpy integer too); else ParameterError naming field."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ParameterError(field, f"{field} must be an integer, got {value!r}")


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
    """Gravity, moment order and closure variant; the tensors are computed from them.

    The variant may be given as a Variant or its value ("swlme", "swme");
    it is stored as the Variant.
    """

    g: float
    N: int
    variant: Variant = Variant.SWLME
    tensors: ClosureTensors = field(init=False, compare=False)  # a function of N and variant

    def __post_init__(self):
        if not np.isfinite(self.g) or self.g <= 0:
            raise ParameterError("g", f"gravity must be positive and finite, got {self.g}")
        object.__setattr__(self, "N", as_count("N", self.N))
        if not 0 <= self.N <= N_MAX:
            raise ParameterError("N", f"moment order must be in 0..{N_MAX}, got {self.N}")
        try:
            object.__setattr__(self, "variant", Variant(self.variant))
        except ValueError:
            raise ParameterError("variant", f"unknown closure variant {self.variant!r} (known: "
                                            f"{', '.join(v.value for v in Variant)})") from None
        object.__setattr__(self, "tensors", compute_tensors(self.N, self.variant))

    @property
    def n_vars(self) -> int:
        return self.N + 2


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

    The terms are added in order from the first, one whole moment at a time,
    so a state's T does not depend on its layout or on the batch it is in.
    No term is -0.0, so T has the bits of the same sum from +0.0.  An object
    array (of exact fractions, say) sums as one, into an object T.
    """
    w = moment_weights(u.shape[-1]).tolist()
    if not w:
        return np.zeros(u.shape[:-1])
    T = u[..., 0] * u[..., 0] * w[0]
    for i in range(1, len(w)):
        T += u[..., i] * u[..., i] * w[i]
    return T


def _contract(terms: TermTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closure contraction rows sum_t coef[t] x[xrow[t]] y[yrow[t]], shape (N,) + S.

    x and y are moment rows of shape (N,) + S, in any layout.  For finite
    inputs the result is bitwise np.einsum's over the dense tensor: einsum
    starts each output at +0.0 and adds (T_ijk x) y term by term, j outer
    and k inner, and the table keeps the nonzero terms in that order.  A
    skipped or padded zero term would add +-0.0, which leaves a sum that
    started at +0.0 unchanged.

    The terms are formed a chunk of table rows at a time, each operand
    gathered by one take into a (rows, N) + S buffer: (x coef) y, as one
    term at a time would round it.  Slot 0 of the term buffer holds the
    running sum, +0.0 at first, and np.add.reduce over the term axis adds
    the slots one after the other, in table order: the term axis is an
    outer axis of a C-contiguous buffer whose slots hold N >= 2 elements
    when the table has a term (N = 1 has none), and numpy sums pairwise only
    along the inner axis.  A chunk takes at most BLOCK_BYTES per
    buffer (one table row if a row is larger), so the memory does not grow
    with the table.
    """
    rows = len(terms.coef)
    chunk = max(1, min(rows, BLOCK_BYTES // max(1, x.nbytes)))
    coef = terms.coef.reshape(terms.coef.shape + (1,) * (x.ndim - 1))
    out = np.zeros(x.shape)
    acc = np.empty((chunk + 1,) + x.shape)
    y_rows = np.empty((chunk,) + x.shape)
    for start in range(0, rows, chunk):
        k = min(chunk, rows - start)
        term, y_k = acc[1:k + 1], y_rows[:k]
        # the rows are in range; mode="clip" lets take write into out= unbuffered
        x.take(terms.xrow[start:start + k], axis=0, out=term, mode="clip")
        term *= coef[start:start + k]
        y.take(terms.yrow[start:start + k], axis=0, out=y_k, mode="clip")
        term *= y_k
        acc[0] = out
        np.add.reduce(acc[:k + 1], axis=0, out=out)
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


def _energy_density(W: np.ndarray, b, g: float, T=None) -> np.ndarray:
    """Total energy density e at primitive states W (an array, also for one state).

    T, if given, is _moment_sum(W[..., 2:]).
    """
    h, um = W[..., 0], W[..., 1]
    e = 0.5 * h * um**2
    if W.shape[-1] > 2:  # with no moments, 0.5 h T = +0.0 leaves e >= +0.0 unchanged
        e += 0.5 * h * (_moment_sum(W[..., 2:]) if T is None else T)
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
    in one buffer.  Its moment block is u_m I + sum_k u_k C_k, with
    C_k = ClosureTensors.C[:, :, k] = (A + A^T + B)[:, :, k], added one k
    at a time.  Every entry is formed elementwise, so a state's Q does not
    depend on its layout or on the batch it is in.
    """
    W = np.asarray(W, dtype=float)
    check_wet(W[..., 0])
    return _quasilinear(W, p)


def _quasilinear(W: np.ndarray, p: ModelParams) -> np.ndarray:
    """quasilinear_matrix at wet states W, without the wetness check."""
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    n = p.n_vars
    Q = np.zeros(W.shape[:-1] + (n, n))
    Q[..., 0, 1] = 1.0
    Q[..., 1, 0] = p.g * h - um**2 - _moment_sum(u)
    Q[..., 1, 1] = 2.0 * um
    Q[..., 1, 2:] = 2.0 * u * moment_weights(p.N)
    Q[..., 2:, 0] = -2.0 * um[..., None] * u
    Q[..., 2:, 1] = 2.0 * u
    idx = np.arange(2, n)
    Q[..., idx, idx] = um[..., None]
    if p.variant is Variant.SWME and p.N > 0:
        rows = np.moveaxis(u, -1, 0)
        Q[..., 2:, 0] -= np.moveaxis(_contract(p.tensors.A_terms, rows, rows), 0, -1)
        C = p.tensors.C
        for k in range(p.N):
            Q[..., 2:, 2:] += u[..., k, None, None] * C[:, :, k]
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


@functools.lru_cache(maxsize=8)  # a key holds its model's tensors: keep a few models only
def _norm_factors(p: ModelParams) -> tuple:
    """(w, columns): the moment weights as a column, and the nonzero entries of [R_A; R] by column.

    Formed from p's own tensors, once per model (g, N, variant) while it is
    cached.  The moment norms of _norm_bound, of the moments u, are ||u||,
    ||u w||, ||R_A u|| and ||R u||.  R^T R is the Gram matrix
    G_kl = <C_k, C_l>_F of C_k = ClosureTensors.C[:, :, k], so
    ||R u|| = ||sum_k u_k C_k||_F; R_A is the same for A.  Each R is the
    upper triangular factor of the (N^2, N) matrix whose column k is C_k (or
    A[:, :, k]) flattened, so a norm is a sum of squares, never the root of
    a negative rounding.  columns[j] lists the runs of consecutive nonzero
    entries of column j of the (2N, N) stack [R_A; R], rows ascending, as
    (start, stop, coefficients), the coefficients as a column.
    """
    n, t = p.N, p.tensors
    R = np.concatenate([np.linalg.qr(X.reshape(n * n, n), mode="r") for X in (t.A, t.C)])
    columns = []
    for column in R.T:
        edges = np.flatnonzero(np.diff(np.concatenate([[0], column != 0.0, [0]])))
        columns.append(tuple((a, b, column[a:b, None].copy()) for a, b in edges.reshape(-1, 2)))
    w = moment_weights(n)[:, None]
    for a in (w, *(coef for runs in columns for _, _, coef in runs)):
        a.setflags(write=False)
    return w, tuple(columns)


def _norm_bound(states: np.ndarray, T: np.ndarray, c: np.ndarray, p: ModelParams) -> np.ndarray:
    """Upper bound |u_m| + ||D (Q - u_m I) D^-1||_2 on the spectral radius of Q, without Q.

    states has shape (M, N+2), and T = _moment_sum and c = sqrt(g h) of its
    states shape (M,); D = diag(c, 1, ..., 1).  The matrix splits into the
    (h, q) block [[-u_m, c], [l, u_m]], l = (g h - u_m^2 - T) / c, its moment
    row (0, 2 u w), its moment column ((-2 u_m u - a) / c, 2 u) with
    a_i = sum_jk A_ijk u_j u_k, and the moment block sum_k u_k C_k.  Its
    2-norm is at most that of the 2 x 2 matrix of the block norms: the
    (h, q) block's in closed form, the row's 2-norm, the column's Frobenius
    norm with ||a|| <= ||R_A u|| ||u||, and the moment block's Frobenius norm
    ||R u|| (see _norm_factors).  O(N^2) per state.  An overflow gives inf
    or NaN, as does a NaN state.

    Every entry of R_A u and R u, and every sum of squares, is an in-order
    sum of whole rows, one state per element: R_A u and R u add their
    nonzero terms column by column of [R_A; R], and each norm adds its N
    squares in moment order.  So a state's bound does not depend on its
    batch or layout, as a matrix product's would.
    """
    w, columns = _norm_factors(p)
    h, um = states[:, 0], states[:, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # the entries u_k, u_k w_k, (R_A u)_k and (R u)_k, one row of states each
        Y = np.zeros((4, p.N, len(states)))
        Y[0] = states[:, 2:].T
        np.multiply(Y[0], w, out=Y[1])
        RY = Y[2:].reshape(2 * p.N, len(states))  # a view: R_A u, then R u
        for runs, u_j in zip(columns, Y[0]):
            for start, stop, coef in runs:
                RY[start:stop] += coef * u_j
        np.multiply(Y, Y, out=Y)
        squares = np.zeros((4, len(states)))
        for k in range(p.N):
            squares += Y[:, k]
        u_norm, uw_norm, a_norm, block = np.sqrt(squares)
        um_abs = np.abs(um)
        low = (p.g * h - um * um - T) / c
        # the 2-norm of [[a, b], [e, d]] is (|(a + d, e - b)| + |(a - d, e + b)|) / 2
        hq = 0.5 * (np.abs(low - c) + np.sqrt(4.0 * um * um + (low + c) ** 2))
        row = 2.0 * uw_norm
        col = np.sqrt(((2.0 * um_abs + a_norm) * u_norm / c) ** 2 + 4.0 * u_norm * u_norm)
        return um_abs + 0.5 * (np.sqrt((hq + block) ** 2 + (col - row) ** 2)
                               + np.sqrt((hq - block) ** 2 + (col + row) ** 2))


def max_wave_speed(W: np.ndarray, p: ModelParams, validate: bool = False, *,
                   T: np.ndarray | None = None) -> np.ndarray | float:
    """Upper bound |u_m| + sqrt(g h + 3 T) on the characteristic speeds.

    For the linearized closure the eigenvalues of the quasilinear matrix Q
    are u_m (N-fold) and u_m +- sqrt(g h + 3 T), so this bound s is sharp.
    For the full closure it can fail once N >= 2.  With validate=True every
    state gets a speed at least its numeric spectral radius (up to a 1e-12
    allowance for eigen-solve roundoff), while only the states that could
    set the maximum are eigen-solved.  T, if given, is _moment_sum of the
    moments W[..., 2:], as a caller that already formed it passes it on.

    Three tiers clear the states that cannot set the maximum; a state goes
    to the next tier only if the cheaper one cannot clear it.  Both bounds
    hold for complex eigenvalues too, where the full closure has lost
    hyperbolicity:

    1. every state: the norm bound cheap = |u_m| + ||D (Q - u_m I) D^-1||_2,
       D = diag(sqrt(g h), 1, ..., 1), bounded by the 2-norm of the 2 x 2
       matrix of its block norms (see _norm_bound).  It needs no Q and costs
       O(N^2) per state.  A state with a finite cheap (1 + 1e-10) <= max(s)
       cannot set the maximum and returns max(s, cheap).
    2. the states left: Q is built and checked, and the certificate
       cert = s trace(M^16)^(1/32), M = B^T B with B = D Q D^-1 / s, bounds
       s ||B||_2 >= rho(Q).  A state with cert (1 + 1e-10) <= max(s) returns
       max(s, cert).
    3. the states left are eigen-solved and keep the plain rule: if the
       numeric radius exceeds s (1 + 1e-12) in any of them, they return
       max(s, radius) and one WaveSpeedBoundWarning counts the exceeding
       states; otherwise they return s.

    So the maximum differs from that of a full eigen-solve only when the
    radius exceeds the allowance in cleared states alone, and then by less
    than the allowance.  A NaN bound or speed clears nothing.  A state whose
    Q is not finite (an overflowed velocity, say) has an infinite or NaN
    cheap bound, so it reaches tier 2, which raises DryStateError naming it.

    max(s) and the cheap bound are taken over all states first; Q, its
    finiteness check, the certificate and the eigen-solve then go one block
    of the states tier 1 leaves at a time, BLOCK_BYTES of Q per block,
    so the memory they take does not grow with the states.  T and Q are
    formed state by state, so a state's speed does not depend on its block
    or the layout; it depends on the other states through max(s) and
    through whether an eigen-solved one exceeds s.
    """
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h)
    if T is None:
        T = _moment_sum(u)
    s = _wave_speed(h, um, T, p.g)
    if validate:
        n = W.shape[-1]
        s = s.reshape(-1)
        cap = np.max(s, initial=0.0)
        states, T = W.reshape(-1, n), T.reshape(-1)
        c = np.sqrt(p.g * states[:, 0])
        cheap = _norm_bound(states, T, c, p)
        speeds = np.maximum(s, cheap)
        # the negated test keeps a NaN bound or speed; an infinite bound may have a non-finite Q
        left = np.flatnonzero(~((cheap * (1.0 + 1e-10) <= cap) & (cheap < np.inf)))
        size = max(1, BLOCK_BYTES // (8 * n * n))
        cand, radius = [left[:0]], [np.empty(0)]
        for start in range(0, len(left), size):
            block = left[start:start + size]
            Q = _quasilinear(states[block], p)
            finite = np.isfinite(Q).all(axis=(1, 2))
            if not finite.all():
                # an overflowed state cannot be eigen-solved; name it instead
                idx = tuple(int(i) for i in np.unravel_index(block[np.argmin(finite)],
                                                              W.shape[:-1]))
                raise DryStateError("invalid state: non-finite quasilinear matrix at cell "
                                    f"{idx[0] if len(idx) == 1 else idx}", index=idx)
            bound = _spectral_bound(Q, c[block], s[block])
            solve = ~(bound * (1.0 + 1e-10) <= cap)
            cand.append(block[solve])
            radius.append(np.abs(np.linalg.eigvals(Q[solve])).max(axis=-1))
            speeds[block] = np.maximum(s[block], bound)
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
