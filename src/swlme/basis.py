"""Shifted Legendre basis on [0,1], Gauss quadrature, and moment closure tensors.

The vertical velocity profile is expanded in Legendre polynomials of the
scaled depth coordinate zeta = (z - b)/h in [0,1].  The basis here uses the
convention phi_i(0) = 1 (so phi_1 = 1 - 2*zeta), which gives the
orthogonality relation

    int_0^1 phi_i(z) phi_j(z) dz = delta_ij / (2i + 1).

Closure tensors couple the moment equations:

    A_ijk = (2i+1) int_0^1 phi_i phi_j phi_k dz
    B_ijk = (2i+1) int_0^1 phi_i' (int_0^z phi_j) phi_k dz

for logical indices i,j,k in 1..N (stored 0-based).  The linearized variant
sets both tensors to zero.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class Variant(enum.Enum):
    """Moment-closure variant: linearized (zero tensors) or full."""

    SWLME = "swlme"
    SWME = "swme"


def _check_index(i: int) -> None:
    if i < 0:
        raise ValueError(f"basis index must be >= 0, got {i}")


def phi(i: int, zeta):
    """Evaluate the shifted Legendre polynomial phi_i at zeta in [0,1].

    Normalized so phi_i(0) = 1.  Uses the stable three-term recurrence in
    the mapped variable x = 1 - 2*zeta.  Accepts scalar or array zeta.
    """
    _check_index(i)
    x = 1.0 - 2.0 * np.asarray(zeta, dtype=float)
    p_prev = np.ones_like(x)
    if i == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = x
    for k in range(1, i):
        p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
    return p if p.ndim else float(p)


def phi_prime(i: int, zeta):
    """Derivative d(phi_i)/d(zeta), by the recurrence carried along with phi."""
    _check_index(i)
    x = 1.0 - 2.0 * np.asarray(zeta, dtype=float)
    p_prev, d_prev = np.ones_like(x), np.zeros_like(x)
    if i == 0:
        return d_prev if d_prev.ndim else float(d_prev)
    p, d = x, np.full_like(x, -2.0)
    for k in range(1, i):
        # chain rule: dx/dzeta = -2
        p, p_prev, d, d_prev = (
            ((2 * k + 1) * x * p - k * p_prev) / (k + 1),
            p,
            ((2 * k + 1) * (-2.0 * p + x * d) - k * d_prev) / (k + 1),
            d,
        )
    return d if d.ndim else float(d)


def phi_antiderivative(i: int, zeta):
    """Integral of phi_i from 0 to zeta.

    For i >= 1 this is (phi_{i-1} - phi_{i+1}) / (2*(2i+1)), which vanishes
    at both endpoints; for i = 0 it is zeta itself.
    """
    _check_index(i)
    z = np.asarray(zeta, dtype=float)
    if i == 0:
        return z if z.ndim else float(z)
    out = (phi(i - 1, z) - phi(i + 1, z)) / (2.0 * (2 * i + 1))
    return out if np.ndim(out) else float(out)


def phi_table(max_index: int, zeta: np.ndarray) -> np.ndarray:
    """All of phi_0..phi_max at once; returns array of shape (max_index+1, len(zeta))."""
    _check_index(max_index)
    z = np.atleast_1d(np.asarray(zeta, dtype=float))
    x = 1.0 - 2.0 * z
    table = np.empty((max_index + 1, z.size))
    table[0] = 1.0
    if max_index >= 1:
        table[1] = x
    for k in range(1, max_index):
        table[k + 1] = ((2 * k + 1) * x * table[k] - k * table[k - 1]) / (k + 1)
    return table


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the open interval (0,1); weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, fn) -> float:
        """Apply the rule to a callable of zeta."""
        return float(np.dot(self.weights, fn(self.nodes)))


def gauss_rule(n: int) -> QuadratureRule:
    """Gauss-Legendre rule with n nodes mapped to [0,1]; exact to degree 2n-1."""
    if n < 1:
        raise ValueError(f"node count must be >= 1, got {n}")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * (x + 1.0)
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def tensor_node_count(order: int) -> int:
    """Node count used for the closure-tensor integrals of a given order.

    The integrands are polynomials of degree at most 3*order; this count
    leaves two nodes of headroom beyond exactness.
    """
    return math.ceil((3 * order + 1) / 2) + 2


class TermTable(NamedTuple):
    """The nonzero terms of a closure contraction sum_jk T_ijk x[.] y[.], padded term-major.

    Column i holds the terms of output row i in np.einsum's order (j outer,
    k inner): term t is coef[t, i] x[xrow[t, i]] y[yrow[t, i]].  All three
    arrays have shape (m, N), m the most terms any row has; a row with
    fewer terms is padded with zero coefficients.
    """

    coef: np.ndarray
    xrow: np.ndarray
    yrow: np.ndarray


def term_table(T: np.ndarray, x_axis: int) -> TermTable:
    """Read-only TermTable of tensor T, whose axis x_axis (1 or 2) indexes x; y takes the other."""
    n = T.shape[0]
    i, j, k = np.nonzero(T)  # in C order: by i, then j, then k
    counts = np.bincount(i, minlength=n)
    m = int(counts.max(initial=0))
    term = np.arange(i.size) - (np.cumsum(counts) - counts)[i]  # position within its row
    coef = np.zeros((m, n))
    xrow = np.zeros((m, n), dtype=np.intp)
    yrow = np.zeros((m, n), dtype=np.intp)
    coef[term, i] = T[i, j, k]
    xrow[term, i], yrow[term, i] = (j, k) if x_axis == 1 else (k, j)
    for a in (coef, xrow, yrow):
        a.setflags(write=False)
    return TermTable(coef, xrow, yrow)


@dataclass(frozen=True)
class ClosureTensors:
    """Dense closure tensors for moment order N, with the term tables of the full closure.

    A and B have shape (N, N, N); logical indices i,j,k in 1..N map to
    storage indices i-1, j-1, k-1.  A is symmetric in its last two indices.
    For the full variant A_terms lists sum_jk A_ijk x_j y_k and B_terms
    sum_jk B_ijk x_k y_j (the roles of the flux and path contractions); both
    are None for the linearized variant.
    """

    order: int
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)
    variant: Variant = Variant.SWLME
    A_terms: TermTable | None = field(init=False, repr=False, compare=False)
    B_terms: TermTable | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.order
        if n < 0:
            raise ValueError(f"moment order must be >= 0, got {n}")
        if self.A.shape != (n, n, n) or self.B.shape != (n, n, n):
            raise ValueError("tensor shapes must be (order, order, order)")
        self.A.setflags(write=False)
        self.B.setflags(write=False)
        full = self.variant is Variant.SWME
        object.__setattr__(self, "A_terms", term_table(self.A, 1) if full else None)
        object.__setattr__(self, "B_terms", term_table(self.B, 2) if full else None)


def compute_tensors(order: int, variant: Variant) -> ClosureTensors:
    """Build the closure tensors for the given moment order.

    The linearized variant has identically zero tensors.  The full variant
    integrates the polynomial products by Gauss quadrature that is exact
    for their degree (tensor_node_count).
    """
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    if variant is Variant.SWLME or order == 0:
        zeros = np.zeros((order, order, order))
        return ClosureTensors(order=order, A=zeros, B=zeros.copy(), variant=variant)

    rule = gauss_rule(tensor_node_count(order))
    z, w = rule.nodes, rule.weights
    # values, derivatives, and antiderivatives of phi_1..phi_N at the nodes
    vals = phi_table(order, z)[1:]
    der = np.stack([phi_prime(i, z) for i in range(1, order + 1)])
    anti = np.stack([phi_antiderivative(i, z) for i in range(1, order + 1)])
    scale = 2.0 * np.arange(1, order + 1) + 1.0

    A = np.zeros((order, order, order))
    B = np.zeros((order, order, order))
    for i in range(order):
        for j in range(order):
            # entries with odd logical index sum (even storage sum, since
            # storage is 0-based) vanish by parity about zeta = 1/2, using
            # phi_i(1 - z) = (-1)^i phi_i(z); keep them exact zeros instead
            # of quadrature dust.  A is filled for j <= k and mirrored, so
            # its j/k symmetry is exact too.
            for k in range(j, order):
                if (i + j + k) % 2 == 1:
                    A[i, j, k] = scale[i] * np.dot(w, vals[i] * vals[j] * vals[k])
                    A[i, k, j] = A[i, j, k]
            for k in range(order):
                if (i + j + k) % 2 == 1:
                    B[i, j, k] = scale[i] * np.dot(w, der[i] * anti[j] * vals[k])
    return ClosureTensors(order=order, A=A, B=B, variant=variant)
