"""Machine checks of the model's energy structure, and reference solutions.

The energy equation of the linearized moment system follows from the
continuity, momentum, and moment-coefficient equations using only
linearity and the product rule, so every step of that derivation is a
pointwise polynomial identity in the field values and their first
derivatives.  FreeSample therefore carries independent "slots" for each
time/space derivative; no compatibility between values and slots is
assumed, and the identities must hold for arbitrary slot values.  Defects
are normalized by the sum of the absolute values of the combined terms.
check_total_energy_identity walks the samples of every order once, in
blocks of whole multiples of _BLOCK samples (two for N <= 1, one
otherwise: see _block_ranges), and returns per sample the largest
per-block defect of every identity at every gravity.  Both kinds of sample
hand out a block as a FreeSample by block(start, stop): a FreeSample slices
the fields it holds, and a SampleStream, the seeded random sample of
`check`, draws the block's slice and holds nothing, so a check of a
SampleStream needs memory bounded by the block size alone, whatever its
size.

_EQUATIONS states each displayed equation once, as its product-rule terms:
monomials in named factors.  One _Expansions per block forms each term the
first time an equation asks for it and keeps it for the block, or for the
gravity last asked for if it reads g, so equations that list the same term
share its array.  An equation is a plain list of equally shaped term
arrays, combined by list concatenation and scaled term by term; a moment
equation joins a scalar one as moment-major views of its terms, so no term
is copied into a stack.  _term_sum adds whole arrays in order, one term at
a time, starting from the first; n terms sum to within (n - 1) u sum|t| of
the exact sum (u the unit roundoff).  The longest list has max(15, 7N + 11)
terms, 459 at N = 64, so the bound is 458 u, about 5.1e-14, far below the
1e-12 the checks allow.

Also here: the finite-difference check that the entropy variables are the
energy gradient, the exact wet-bed dam-break reference solution, and the
convergence study of solver runs.  The identity blocks and the meshes of a
study are independent items, mapped by swlme._worker._fan_out in serial
order with the tail in a forked worker: results and the error raised are
the serial loop's, and only counters in the caller's memory see the
caller's items alone.  The blocks of every order of one identity check go
through one such call, so `check` forks once, whatever its orders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from itertools import accumulate
from operator import attrgetter, mul
from typing import NamedTuple

import numpy as np

from swlme._worker import _fan_out
from swlme.model import (
    ParameterError,
    _energy_density,
    _moment_sum,
    as_count,
    entropy_vars,
    moment_weights,
    to_conserved,
    to_primitive,
)
from swlme.solver import Scenario, StateRecord, run

_TINY = np.finfo(float).tiny
_BLOCK = 4096  # every identity-check block holds a whole multiple of this many samples
_GRADIENT_STEP = 1e-6  # gradient_check_entropy's difference step, relative to |U| (at least 1)
_MOMENT_FIELDS = ("u", "dt_u", "dx_u")


@dataclass
class FreeSample:
    """Field values plus independent derivative slots, one flat batch.

    Scalar fields may be floats or arrays broadcastable to a common batch
    shape; u, dt_u, and dx_u carry a trailing moment axis of length N
    (possibly zero).  Construction casts every field to float, broadcasts it
    to the batch and flattens the batch in C order, so a moment field is
    (size, N) and any other (size,); a field that has that shape already is
    kept as given, a view.  There is no dt_b slot: the bottom is constant in
    time.
    """

    h: np.ndarray
    um: np.ndarray
    u: np.ndarray
    b: np.ndarray
    dt_h: np.ndarray
    dx_h: np.ndarray
    dt_um: np.ndarray
    dx_um: np.ndarray
    dt_u: np.ndarray
    dx_u: np.ndarray
    dx_b: np.ndarray

    def __post_init__(self):
        arrays = {f.name: np.asarray(getattr(self, f.name), dtype=float) for f in fields(self)}
        moments = arrays["u"].shape[-1:]
        batch = np.broadcast_shapes(*(a.shape[:-1] if name in _MOMENT_FIELDS else a.shape
                                      for name, a in arrays.items()))
        for name, a in arrays.items():
            tail = moments if name in _MOMENT_FIELDS else ()
            flat = (math.prod(batch),) + tail
            setattr(self, name, a if a.shape == flat else
                    np.broadcast_to(a, batch + tail).reshape(flat))
        if np.any(self.h <= 0.0):
            raise ValueError("FreeSample requires h > 0")

    @property
    def size(self) -> int:
        return len(self.h)

    @property
    def n_moments(self) -> int:
        return self.u.shape[-1]

    def block(self, start: int, stop: int) -> FreeSample:
        """The samples [start:stop], every field a view."""
        return FreeSample(**{f.name: getattr(self, f.name)[start:stop] for f in fields(self)})


# the fields SampleStream draws, in its order, with their bounds: h in [0.1, 3],
# b in [0, 1], every other value in [-2, 2]
_RANDOM_FIELDS = (
    ("h", 0.1, 3.0), ("um", -2.0, 2.0), ("u", -2.0, 2.0), ("b", 0.0, 1.0),
    ("dt_h", -2.0, 2.0), ("dx_h", -2.0, 2.0), ("dt_um", -2.0, 2.0), ("dx_um", -2.0, 2.0),
    ("dt_u", -2.0, 2.0), ("dx_u", -2.0, 2.0), ("dx_b", -2.0, 2.0),
)


class SampleStream:
    """The seeded random sample of `check`, drawn one block at a time.

    The whole sample is the fields of _RANDOM_FIELDS drawn in its order,
    each whole, moment fields row-major, by Generator.uniform on one
    np.random.default_rng(seed); block(0, size) is that sample.
    block(start, stop) is bitwise the [start:stop] slice of every field of
    it, and draws nothing else.  Generator.uniform takes one 64-bit output
    of PCG64 per double, and PCG64 jumps ahead exactly, so each field's
    slice is drawn from PCG64(seed) advanced past the fields drawn before it
    (size x width outputs each, width N for a moment field and 1 otherwise)
    and past the slice's first `start` rows.  A block does not depend on any
    other having been drawn, so a forked worker draws its own blocks, and a
    walk over the blocks holds one block, whatever the size.
    """

    def __init__(self, seed: int, size: int, n_moments: int):
        self.size, self.n_moments = size, n_moments
        self._bits = np.random.PCG64(seed)
        self._start_state, self._rng = self._bits.state, np.random.Generator(self._bits)

    @staticmethod
    def nbytes(size: int, n_moments: int) -> int:
        """Bytes the whole sample takes, block(0, size): 8 scalar and 3 moment fields."""
        return 8 * size * (8 + 3 * n_moments)

    def block(self, start: int, stop: int) -> FreeSample:
        drawn, offset = {}, 0  # offset: outputs the fields before this one take
        for name, low, high in _RANDOM_FIELDS:
            tail = (self.n_moments,) if name in _MOMENT_FIELDS else ()
            width = math.prod(tail)
            self._bits.state = self._start_state
            self._bits.advance(offset + start * width)
            drawn[name] = self._rng.uniform(low, high, (stop - start,) + tail)
            offset += self.size * width
        return FreeSample(**drawn)


# the sample bytes an identity-check block may hold: those of a _BLOCK-sample block at N = 5
_BLOCK_BYTES = SampleStream.nbytes(_BLOCK, 5)


def _term_sum(terms, absolute: bool = False) -> np.ndarray:
    """Sum a sequence of equally shaped term arrays in order, from the first, into a new array.

    absolute=True sums |terms|, taking each after the first into one reused
    buffer.  The first operation makes the new array, so no term is
    written.  From +0.0 the sums would differ only in the sign of a zero
    total, which _defect reads through abs alone.
    """
    if absolute:
        total = np.abs(terms[0])
        buf = np.empty(total.shape)
        for t in terms[1:]:
            total += np.abs(t, out=buf)
    else:
        total = terms[0] + terms[1] if len(terms) > 1 else terms[0].copy()
        for t in terms[2:]:
            total += t
    return total


def _defect(lhs, rhs) -> float:
    """Max relative defect: |sum lhs - sum rhs| over the summed |terms|."""
    num = np.abs(_term_sum(lhs) - _term_sum(rhs))
    den = _term_sum(lhs, absolute=True) + _term_sum(rhs, absolute=True)
    return float(np.max(num / np.maximum(den, _TINY))) if num.size else 0.0


# factors a term may name besides the sample's fields and g, T, dxT, dtT and w, formed where
# a term reads them and not kept; um3 is the power, as um * um * um would round differently
_BASES = {
    "um2": lambda ex: ex.s.um**2, "um3": lambda ex: ex.s.um**3, "u2": lambda ex: ex.s.u**2,
    "hb": lambda ex: ex.s.h + ex.s.b, "dxhb": lambda ex: ex.s.dx_h + ex.s.dx_b,
}
_MOMENT_FACTORS = frozenset(("u", "dt_u", "dx_u", "u2", "w"))  # the factors with a moment axis


class _Term(NamedTuple):
    """A term of _EQUATIONS, its factors resolved to functions of the expansion.

    Beside a moment factor, a batch-shaped one is read as a column, (size, 1).
    """

    spec: str
    factors: tuple
    reads_g: bool


def _factor(name: str, column: bool):
    if name[0] in "-.0123456789":
        return lambda ex, value=float(name): value
    get = _BASES.get(name) or attrgetter(
        name if name in ("g", "T", "dxT", "dtT", "w") else "s." + name)
    return (lambda ex: get(ex)[..., None]) if column else get


def _term(spec: str) -> _Term:
    names = spec.split()
    moment = not _MOMENT_FACTORS.isdisjoint(names)
    return _Term(spec, tuple(_factor(name, moment and name not in _MOMENT_FACTORS)
                             for name in names), "g" in names)


# every displayed equation of the derivation as its terms, in the order they are summed; a term
# names its factors in the order they are multiplied: "0.5 h dt_um" is (0.5 * h) * dt_um
_EQUATIONS = {name: tuple(map(_term, terms.split(", "))) for name, terms in {
    "continuity": "dt_h, dx_h um, h dx_um",
    # the momentum balance, with the pressure gradient split, then grouped as g h dx(h + b)
    "momentum": "dt_h um, h dt_um, dx_h um2, 2.0 h um dx_um, dx_h T, h dxT, g h dx_h, g h dx_b",
    "momentum_split": "dt_h um, h dt_um, dx_h um2, 2.0 h um dx_um, dx_h T, h dxT, g h dxhb",
    "momentum_advective": "h dt_um, h um dx_um, g h dxhb, dx_h T, h dxT",
    "momentum_skew": "0.5 dt_h um, 0.5 h dt_um, 0.5 h dt_um, 0.5 dx_h um2, h um dx_um, "
                     "0.5 h um dx_um, g h dxhb, dx_h T, h dxT",
    # the kinetic and potential energies
    "kinetic": "0.5 dt_h um2, h um dt_um, 0.5 dx_h um3, 1.5 h um2 dx_um, g h um dxhb, "
               "um dx_h T, h um dxT",
    "potential": "g h dt_h, g b dt_h, g hb dx_h um, g hb h dx_um",
    "total_kinetic": "0.5 dt_h um2, h um dt_um, 0.5 dt_h T, 0.5 h dtT, 0.5 dx_h um3, "
                     "1.5 h um2 dx_um, g h um dxhb, 1.5 dx_h um T, 1.5 h dx_um T, 1.5 h um dxT",
    # the energy balance: dt(e) terms, then dx(f) terms
    "energy_time": "0.5 dt_h um2, h um dt_um, 0.5 dt_h T, 0.5 h dtT, g h dt_h, g b dt_h",
    "energy_flux": "0.5 dx_h um3, 1.5 h um2 dx_um, 1.5 dx_h um T, 1.5 h dx_um T, 1.5 h um dxT, "
                   "g dx_h um hb, g h dx_um hb, g h um dx_h, g h um dx_b",
    # the moment equations, batch + (N,)
    "moment": "dt_h u, h dt_u, 2.0 dx_h um u, 2.0 h dx_um u, 2.0 h um dx_u, -1 um dx_h u, "
              "-1 um h dx_u",
    "moment_split": "dt_h u, h dt_u, dx_h um u, h dx_um u, h um dx_u, h u dx_um",
    "moment_advective": "h dt_u, h um dx_u, h u dx_um",
    "moment_skew": "0.5 dt_h u, 0.5 h dt_u, 0.5 h dt_u, 0.5 dx_h um u, 0.5 h dx_um u, "
                   "0.5 h um dx_u, 0.5 h um dx_u, h u dx_um",
    "moment_kinetic": "0.5 dt_h u2 w, h u dt_u w, 0.5 dx_h um u2 w, 0.5 h dx_um u2 w, "
                      "h um u dx_u w, h u2 dx_um w",
}.items()}


class _Expansions:
    """The terms of _EQUATIONS on one sample: one memo, each term formed once.

    terms(name, g) lists an equation's term arrays, batch-shaped or, for a
    moment equation, batch + (N,).  A term is formed the first time any
    equation asks for it and kept, so every list that names it holds the
    same array; a term that reads g is kept for the gravity last asked for.
    T, dxT and dtT are formed with the expansion; drop_moment_terms forgets
    the moment-shaped terms.  Sharing only reuses an array: each term keeps
    its own expression, so its bits.
    """

    def __init__(self, s: FreeSample):
        self.s, self.w = s, moment_weights(s.n_moments)
        self.T = _moment_sum(s.u)
        self.dxT = 2.0 * ((s.u * s.dx_u) @ self.w)
        self.dtT = 2.0 * ((s.u * s.dt_u) @ self.w)
        self.g, self._memo, self._memo_g = None, {}, {}

    def terms(self, name: str, g: float | None = None) -> list:
        """The term arrays of _EQUATIONS[name], at gravity g if it reads g."""
        out = []
        for term in _EQUATIONS[name]:
            if term.reads_g and g != self.g:
                self.g, self._memo_g = g, {}  # the last gravity's terms go first
            memo = self._memo_g if term.reads_g else self._memo
            if term.spec not in memo:
                memo[term.spec] = reduce(mul, (f(self) for f in term.factors))
            out.append(memo[term.spec])
        return out

    def drop_moment_terms(self) -> None:
        """Forget the moment-shaped terms: the 2-D ones, as a batch-shaped term is 1-D."""
        self._memo = {spec: t for spec, t in self._memo.items() if t.ndim == 1}


def _block_ranges(size: int, n_moments: int) -> list:
    """(start, stop) of consecutive blocks of a sample at order n_moments; 0 samples make one empty block.

    A block holds as many whole multiples of _BLOCK samples as fit in
    _BLOCK_BYTES, at least one: 2 _BLOCK for N <= 1, _BLOCK otherwise.  So
    every block starts at a multiple of _BLOCK, as the rows of the
    moment-weight products in _Expansions round by their offset at N >= 8.
    """
    step = _BLOCK * max(1, _BLOCK_BYTES // SampleStream.nbytes(_BLOCK, n_moments))
    return [(start, min(start + step, size)) for start in range(0, max(size, 1), step)]


def _block_defects(s: FreeSample, gravities) -> dict:
    """{g: {identity: defect}} of one block, from one expansion of it."""
    ex, n = _Expansions(s), s.n_moments
    cont = ex.terms("continuity")
    W = np.concatenate([s.h[..., None], s.um[..., None], s.u], axis=-1)
    q_u = entropy_vars(W, s.b, 0.0).q_u  # w u, which does not read g
    moment, split, advective, skew, kinetic = map(ex.terms, (
        "moment", "moment_split", "moment_advective", "moment_skew", "moment_kinetic"))
    moment_defects = {
        "moment_rewrite": _defect(split, moment),
        "moment_advective": _defect(advective, split + [-s.u * t[..., None] for t in cont]),
        "moment_skew_average": _defect(skew, [0.5 * t for t in advective + split]),
        "moment_kinetic_energy": _defect(kinetic, [q_u * t for t in skew]),
    } if n else {}
    q_moment = [q_u * t for t in moment]
    # the gravity loop reads the per-moment terms as moment-major views
    moment_energy = [t[..., m] for m in range(n) for t in q_moment]
    moment_kinetic = [t[..., m] for m in range(n) for t in kinetic]
    del moment, split, advective, skew
    ex.drop_moment_terms()
    um_cont = [-s.um * t for t in cont]
    out = {}
    for g in gravities:
        q = entropy_vars(W, s.b, g)
        momentum, m_split, m_adv, m_skew, m_kinetic, potential, total_kinetic = (
            ex.terms(name, g) for name in ("momentum", "momentum_split", "momentum_advective",
                                           "momentum_skew", "kinetic", "potential", "total_kinetic"))
        energy = ex.terms("energy_time", g) + ex.terms("energy_flux", g)
        lhs = [q.q1 * t for t in cont] + [q.q2 * t for t in momentum] + moment_energy
        ghb = g * (s.h + s.b)
        out[g] = {
            "total energy identity": _defect(lhs, energy),
            "potential_energy": _defect(potential, [ghb * t for t in cont]),
            "momentum_rewrite": _defect(m_split, momentum),
            "momentum_advective": _defect(m_adv, m_split + um_cont),
            "momentum_skew_average": _defect(m_skew, [0.5 * t for t in m_adv + m_split]),
            "kinetic_energy": _defect(m_kinetic, [s.um * t for t in m_skew]),
            **moment_defects,
            "total_kinetic_energy": _defect(total_kinetic, m_kinetic + moment_kinetic),
            "total_energy_sum": _defect(energy, total_kinetic + potential),
        }
    return out


def check_total_energy_identity(samples, gravities) -> list:
    """Max relative defect of the energy derivation per sample and gravity: [{g: {identity: defect}}].

    samples lists one sample per moment order, the orders in the caller's
    order.  A sample is a FreeSample, or a SampleStream that draws each block
    as it is checked: anything with size, n_moments and block(start, stop).
    The result holds one {g: {identity: defect}} per sample, in order.  "total
    energy identity" comes first: contracting the balance residuals with the
    entropy variables must reproduce the energy residual,
    q1 R_C + q2 R_M + sum_i q_ui R_ui = R_E, for arbitrary slot values.
    The intermediate steps follow.  Each compares an independently
    expanded form of one displayed equation against the stated combination
    of earlier ones: the potential-energy equation is g(h+b) times
    continuity; the advective momentum/moment forms subtract velocity times
    continuity; their skew-symmetric averages halve the two forms; kinetic
    energies multiply the skew forms by the velocity; and the total energy
    is the total kinetic plus potential energy.  The moment-equation steps
    exist for N >= 1 only.  Every identity at every gravity is evaluated in
    one walk over the blocks of every sample, s.block of each
    _block_ranges(s.size, s.n_moments), the samples in order.  One _fan_out
    maps them all: with two blocks or more, the caller checks the blocks
    before the block boundary nearest half the summed sample bytes
    (SampleStream.nbytes, which the time per sample follows across orders)
    and a forked worker the rest, so a SampleStream's worker draws its blocks
    itself.  RuntimeError names the orders the worker ran if it is lost.
    """
    items = [(i, r) for i, s in enumerate(samples) for r in _block_ranges(s.size, s.n_moments)]
    ends = list(accumulate(SampleStream.nbytes(stop - start, samples[i].n_moments)
                           for i, (start, stop) in items))
    cut = len(items)
    if cut > 1 and ends[-1]:
        cut = min(range(1, cut), key=lambda k: abs(2 * ends[k - 1] - ends[-1]))
    ran = dict.fromkeys(samples[i].n_moments for i, _ in items[cut:])
    per_block = _fan_out(lambda item: _block_defects(samples[item[0]].block(*item[1]), gravities),
                         items, cut, f"identity check at N={', '.join(map(str, ran))}")
    out = [[] for _ in samples]
    for (i, _), defects in zip(items, per_block):
        out[i].append(defects)
    return [{g: {name: float(np.max([d[g][name] for d in mine])) for name in mine[0][g]}
             for g in gravities} for mine in out]


def gradient_check_entropy(W: np.ndarray, b, g: float) -> float:
    """Compare finite differences of the energy with the entropy variables.

    Central differences in each conserved variable with a step scaled to
    its magnitude; returns the worst relative deviation, with a floor of
    one on the normalizing magnitude.  Broadcasts over a batch of states.
    """
    W = np.asarray(W, dtype=float)
    b = np.asarray(b, dtype=float)
    n = W.shape[-1]
    U = to_conserved(W)

    q = entropy_vars(W, b, g)
    exact = np.concatenate([np.atleast_1d(q.q1)[..., None],
                            np.atleast_1d(q.q2)[..., None],
                            np.atleast_2d(q.q_u)], axis=-1).reshape(U.shape)

    worst = 0.0
    for m in range(n):
        step = _GRADIENT_STEP * np.maximum(1.0, np.abs(U[..., m]))
        Up, Um = U.copy(), U.copy()
        Up[..., m] += step
        Um[..., m] -= step
        fd = (_energy_density(to_primitive(Up), b, g)
              - _energy_density(to_primitive(Um), b, g)) / (2.0 * step)
        dev = np.abs(fd - exact[..., m]) / np.maximum(1.0, np.abs(exact[..., m]))
        worst = max(worst, float(np.max(dev)))
    return worst


def stoker_intermediate(h_l: float, h_r: float, g: float):
    """Middle depth, velocity, and bore speed of the wet-bed dam break.

    Solves 2 (sqrt(g h_l) - sqrt(g h_m)) =
    (h_m - h_r) sqrt(g (h_m + h_r) / (2 h_m h_r)) by safeguarded Newton
    iteration on (h_r, h_l) to residual 1e-13.
    """
    if not (h_l > h_r > 0.0):
        raise ValueError(f"need h_l > h_r > 0, got h_l={h_l}, h_r={h_r}")

    c_l = np.sqrt(g * h_l)

    def relation(hm):
        rare = 2.0 * (c_l - np.sqrt(g * hm))
        bore = (hm - h_r) * np.sqrt(0.5 * g * (hm + h_r) / (hm * h_r))
        return rare - bore

    lo, hi = h_r, h_l
    hm = 0.5 * (lo + hi)
    for _ in range(200):
        f = relation(hm)
        if abs(f) <= 1e-13:
            break
        # keep the bracket: relation is decreasing in h_m
        if f > 0.0:
            lo = hm
        else:
            hi = hm
        df = (relation(hm + 1e-8) - relation(hm - 1e-8)) / 2e-8
        trial = hm - f / df if df != 0.0 else 0.5 * (lo + hi)
        hm = trial if lo < trial < hi else 0.5 * (lo + hi)
    else:
        raise RuntimeError(
            f"dam-break depth relation did not converge: bracket [{lo}, {hi}], residual {relation(hm)}"
        )
    u_mid = 2.0 * (c_l - np.sqrt(g * hm))
    bore_speed = hm * u_mid / (hm - h_r)
    return float(hm), float(u_mid), float(bore_speed)


def stoker_dam_break(h_l: float, h_r: float, g: float, x, t: float) -> np.ndarray:
    """Exact wet-bed dam-break profile, self-similar in x/t.

    Returns primitive states [h, u_m] at the given positions: undisturbed
    left state, rarefaction fan, constant middle state, then the bore into
    still water.  Requires t > 0.
    """
    if t <= 0.0:
        raise ValueError(f"need t > 0, got {t}")
    h_m, u_mid, bore = stoker_intermediate(h_l, h_r, g)
    c_l = np.sqrt(g * h_l)
    c_m = np.sqrt(g * h_m)

    xi = np.atleast_1d(np.asarray(x, dtype=float)) / t
    h = np.empty_like(xi)
    um = np.empty_like(xi)

    left = xi <= -c_l
    fan = (~left) & (xi < u_mid - c_m)
    mid = (~left) & (~fan) & (xi < bore)
    right = xi >= bore

    h[left], um[left] = h_l, 0.0
    c_fan = (2.0 * c_l - xi[fan]) / 3.0
    h[fan] = c_fan**2 / g
    um[fan] = 2.0 * (xi[fan] + c_l) / 3.0
    h[mid], um[mid] = h_m, u_mid
    h[right], um[right] = h_r, 0.0
    out = np.stack([h, um], axis=-1)
    return out if np.ndim(x) else out[0]


def _restrict(h_fine: np.ndarray, coarse_cells: int) -> np.ndarray:
    ratio, rem = divmod(h_fine.size, coarse_cells)
    if rem:
        raise ValueError(f"cannot restrict {h_fine.size} cells onto {coarse_cells}")
    return h_fine.reshape(coarse_cells, ratio).mean(axis=1)


class _FinalState:
    """A run sink that keeps only the last snapshot, the state at t_end of a run that succeeds."""

    def record(self, state: StateRecord) -> None:
        if state.U is not None:
            self.U = state.U

    def finish(self, failure: str | None):
        return self.U, failure


def convergence_study(scenario: Scenario, meshes) -> list:
    """L1(h) errors and observed orders across a list of cell counts.

    A flat-bottom dam break of the plain shallow water system (no moments)
    is compared against the exact solution on every mesh.  Any other
    scenario is compared against its own finest mesh, restricted by block
    averaging onto the coarser (dyadically nested) meshes; the finest mesh
    then serves as the reference and gets no row.  Returns rows of
    (cells, l1_error, observed_order-or-None).  Every mesh, and in exact mode
    the dam break, is validated before the first run; ParameterError names
    the scenario argument or preset parameter (`ic_h_l`, or `meshes` for
    the list itself: empty, with a mesh that is not an integer, or with a
    repeated mesh) at fault.

    Each mesh runs once, in the serial order: the meshes as listed, or in
    self-reference mode the finest mesh first.  With two meshes or more,
    _fan_out gives a forked worker the meshes from the largest on, or
    after it if it comes first (in self-reference mode, every mesh but the
    finest), while the caller runs the ones before; the error raised is the
    one the serial order meets first, and a lost worker is named by the
    meshes it ran.
    """
    meshes = [as_count("meshes", m) for m in meshes]
    if not meshes:
        raise ParameterError("meshes", "need at least one mesh")
    if len(set(meshes)) < len(meshes):
        raise ParameterError("meshes", f"repeated mesh in {meshes}")
    on_mesh = {m: scenario.with_cells(m) for m in meshes}

    exact = (
        scenario.ic_name == "dam_break"
        and scenario.params.N == 0
        and scenario.flat_bottom
    )
    ic = scenario.ic_params  # every preset parameter, defaults filled in
    if exact and not ic["h_l"] > ic["h_r"] > 0.0:
        raise ParameterError("ic_h_l", f"the exact dam break needs h_l > h_r > 0 (ic.h_r = "
                                       f"{ic['h_r']}), got {ic['h_l']}")
    if exact and not scenario.t_end > 0.0:
        raise ParameterError("t_end", f"the exact dam break needs t_end > 0, got {scenario.t_end}")
    if not exact:
        if len(meshes) < 2:
            raise ParameterError("meshes", f"self-reference mode needs at least two meshes, "
                                           f"got {meshes}")
        for prev, nxt in zip(meshes, meshes[1:]):
            if nxt % prev or (nxt // prev) & (nxt // prev - 1):
                raise ParameterError("meshes", f"self-reference mode needs dyadically nested "
                                               f"meshes, got {prev} -> {nxt}")

    def final_depths(cells):
        U, failure = run(on_mesh[cells], _FinalState())
        if failure:
            raise RuntimeError(f"run on {cells} cells failed: {failure}")
        return U[:, 0].copy()  # not a view that keeps the whole state

    # the order a serial study runs the meshes in: the reference first
    serial = meshes if exact else meshes[-1:] + meshes[:-1]
    cut = serial.index(max(serial)) or 1
    found = dict(zip(serial, _fan_out(final_depths, serial, cut,
                                      f"run on {', '.join(map(str, serial[cut:]))} cells")))

    if exact:
        rows_meshes = meshes
        errors = []
        for m in rows_meshes:
            grid = on_mesh[m].grid
            h_ref = stoker_dam_break(ic["h_l"], ic["h_r"], scenario.params.g,
                                     grid.centers - ic["x0"], scenario.t_end)[:, 0]
            errors.append(float(np.abs(found[m] - h_ref).sum() * grid.dx))
    else:
        rows_meshes = meshes[:-1]
        errors = [float(np.abs(found[m] - _restrict(found[meshes[-1]], m)).sum()
                        * on_mesh[m].grid.dx) for m in rows_meshes]

    rows = []
    for k, (m, err) in enumerate(zip(rows_meshes, errors)):
        if k == 0 or errors[k] == 0.0 or errors[k - 1] == 0.0:
            order = None
        else:
            order = float(np.log2(errors[k - 1] / errors[k]) / np.log2(rows_meshes[k] / rows_meshes[k - 1]))
        rows.append((m, err, order))
    return rows
