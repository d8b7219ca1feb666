"""Shifted Legendre basis on [0,1] and the moment closure tensors.

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

Both are rationals in closed form.  With c(k) = C(2k, k) and 2s = l+m+p,
Adams' integral of a product of three Legendre polynomials (Proc. R. Soc.
27, 1878) gives

    E(l,m,p) = (2l+1) int_0^1 phi_l phi_m phi_p dz
             = (2l+1) c(s-l) c(s-m) c(s-p) / ((2s+1) c(s)),

zero unless l+m+p is even and max(l,m,p) <= s.  So A_ijk = E(i,j,k).  With
phi_i' = -2 sum_{l=i-1,i-3,...>=0} (2l+1) phi_l and
int_0^z phi_j = (phi_{j-1} - phi_{j+1}) / (2(2j+1)),

    B_ijk = -(2i+1)/(2j+1) sum_{l=i-1,i-3,...>=0} [E(l,j-1,k) - E(l,j+1,k)].

compute_tensors evaluates both in integers over one common denominator, so
each stored entry is the correctly rounded value of the exact rational.
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
    evaluates the closed forms of the module docstring exactly: every
    E(l,m,p) is an integer over the common denominator
    D = lcm_s((2s+1) c(s)), and each entry is one correctly rounded
    int / int division.
    """
    if order < 0:
        raise ValueError(f"moment order must be >= 0, got {order}")
    n = order
    if variant is Variant.SWLME or n == 0:
        zeros = np.zeros((n, n, n))
        return ClosureTensors(order=n, A=zeros, B=zeros.copy(), variant=variant)

    s_max = 3 * n // 2  # B reaches E(l, j+1, k) with l <= n-1 and j, k <= n
    c = [math.comb(2 * k, k) for k in range(s_max + 1)]
    D = math.lcm(*((2 * s + 1) * c[s] for s in range(s_max + 1)))
    per_s = [D // ((2 * s + 1) * c[s]) for s in range(s_max + 1)]

    def e(l: int, m: int, p: int) -> int:
        """D * E(l, m, p), exactly."""
        s, odd = divmod(l + m + p, 2)
        if odd or max(l, m, p) > s:
            return 0
        return (2 * l + 1) * c[s - l] * c[s - m] * c[s - p] * per_s[s]

    A = [0.0] * n**3
    B = [0.0] * n**3
    for j in range(1, n + 1):
        for k in range(1, n + 1):
            # both tensors vanish unless i+j+k is even, so only one parity of
            # l = i-1 enters B's sum; acc runs over it
            acc = 0
            for i in range(2 - (j + k) % 2, n + 1, 2):
                acc += e(i - 1, j - 1, k) - e(i - 1, j + 1, k)
                at = ((i - 1) * n + j - 1) * n + k - 1
                A[at] = e(i, j, k) / D
                B[at] = -(2 * i + 1) * acc / ((2 * j + 1) * D)
    return ClosureTensors(order=n, A=np.array(A).reshape(n, n, n),
                          B=np.array(B).reshape(n, n, n), variant=variant)
