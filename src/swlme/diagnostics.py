"""Machine checks of the model's energy structure, and reference solutions.

The energy equation of the linearized moment system follows from the
continuity, momentum, and moment-coefficient equations using only
linearity and the product rule, so every step of that derivation is a
pointwise polynomial identity in the field values and their first
derivatives.  FreeSample therefore carries independent "slots" for each
time/space derivative; no compatibility between values and slots is
assumed, and the identities must hold for arbitrary slot values.  Defects
are normalized by the sum of the absolute values of the combined terms.
check_total_energy_identity walks a sample once, in blocks of _BLOCK
samples, and returns the largest per-block defect of every identity at
every gravity.  Both kinds of sample hand out a block as a FreeSample by
block(start, stop): a FreeSample slices the fields it holds, and a
SampleStream, the seeded random sample of `check`, draws the block's slice
and holds nothing, so a check of a SampleStream needs memory bounded by
_BLOCK alone, whatever its size.  A block forms every
distinct product-rule term once, or once per gravity if it reads g, and
equations that list the same term share its array; nothing is kept from
one block to the next.

Every equation is a plain list of equally shaped term arrays, combined by
list concatenation and scaled term by term; a moment equation joins a
scalar one as moment-major views of its terms, so no term is copied into a
stack.  _term_sum adds whole arrays in order, one term at a time, without
numpy's inner-loop call per batch entry; n terms sum to within
(n - 1) u sum|t| of the exact sum (u the unit roundoff), far below the
1e-12 the checks allow.

Also here: the finite-difference check that the entropy variables are the
energy gradient, the exact wet-bed dam-break reference solution, and the
convergence study of solver runs.  The identity blocks and the meshes of a
study are independent items, mapped by swlme._worker._fan_out in serial
order with the tail in a forked worker: results and the error raised are
the serial loop's, and only counters in the caller's memory see the
caller's items alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from types import SimpleNamespace

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
_BLOCK = 4096  # samples per block of the identity checks
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


def _term_sum(terms, absolute: bool = False) -> np.ndarray:
    """Sum a sequence of equally shaped term arrays in order, from +0.0.

    absolute=True sums |terms|, taking each into one reused buffer.
    """
    total = np.zeros(terms[0].shape)
    buf = np.empty(terms[0].shape) if absolute else None
    for t in terms:
        total += np.abs(t, out=buf) if absolute else t
    return total


def _defect(lhs, rhs) -> float:
    """Max relative defect: |sum lhs - sum rhs| over the summed |terms|."""
    num = np.abs(_term_sum(lhs) - _term_sum(rhs))
    den = _term_sum(lhs, absolute=True) + _term_sum(rhs, absolute=True)
    return float(np.max(num / np.maximum(den, _TINY))) if num.size else 0.0


class _Expansions:
    """Product-rule terms of every displayed equation, on one sample.

    Each equation is a list of equally shaped term arrays, batch-shaped or,
    for the per-moment equations, batch + (N,).  Every distinct term is
    formed once per expansion, and a term that reads g once per gravity, so
    the lists of several equations, and of one equation at two gravities,
    hold the same array where they list the same term.  T, dxT, dtT and the
    continuity terms are built here; the other gravity-free terms when an
    equation first asks for them (_free, _moment_shared); the terms that
    read g for the gravity last asked for (_gravity).  _block_defects drops
    _moment_shared once the moment steps are taken.  Sharing only reuses
    an array: each term keeps its own expression, so its bits.
    """

    def __init__(self, s: FreeSample):
        self.s, self.w = s, moment_weights(s.n_moments)
        self.T = _moment_sum(s.u)
        self.dxT = 2.0 * ((s.u * s.dx_u) @ self.w) if s.n_moments else np.zeros(np.shape(s.dx_h))
        self.dtT = 2.0 * ((s.u * s.dt_u) @ self.w) if s.n_moments else np.zeros(np.shape(s.dt_h))
        self.continuity = [s.dt_h, s.dx_h * s.um, s.h * s.dx_um]
        # h, u_m, dt_h, dx_h and dx_um as columns that broadcast over the moments
        self.cols = tuple(a[..., None] for a in (s.h, s.um, s.dt_h, s.dx_h, s.dx_um))
        self._at = None  # the terms that read g, for the gravity last asked for

    @cached_property
    def _free(self) -> SimpleNamespace:
        """Every gravity-free term of the scalar equations but continuity's.

        A name lists a term's factors in the order they are multiplied:
        half_dth_um2 is 0.5 * dt_h * um**2, and h15 stands for 1.5 * h.
        """
        s, h, um, T, dxT = self.s, self.s.h, self.s.um, self.T, self.dxT
        um2 = um**2
        um3 = um**3  # once: the power loop is slow, but um * um * um would round differently
        hum, half_h, half_dth, half_dxh, h15 = h * um, 0.5 * h, 0.5 * s.dt_h, 0.5 * s.dx_h, 1.5 * h
        return SimpleNamespace(
            # the momentum balance and its advective and skew forms
            dth_um=s.dt_h * um, h_dtum=h * s.dt_um, dxh_um2=s.dx_h * um2,
            two_hum_dxum=2.0 * h * um * s.dx_um, dxh_T=s.dx_h * T, h_dxT=h * dxT,
            hum_dxum=hum * s.dx_um, half_dth_um=half_dth * um, half_h_dtum=half_h * s.dt_um,
            half_dxh_um2=half_dxh * um2, half_hum_dxum=half_h * um * s.dx_um,
            # the kinetic and total energies
            half_dth_um2=half_dth * um2, hum_dtum=hum * s.dt_um, half_dxh_um3=half_dxh * um3,
            h15_um2_dxum=h15 * um2 * s.dx_um, um_dxh_T=um * s.dx_h * T, hum_dxT=hum * dxT,
            half_dth_T=half_dth * T, half_h_dtT=half_h * self.dtT,
            dxh15_um_T=1.5 * s.dx_h * um * T, h15_dxum_T=h15 * s.dx_um * T,
            h15_um_dxT=h15 * um * dxT,
        )

    def _gravity(self, g) -> SimpleNamespace:
        """Every term that reads g, formed at the first ask for g after another gravity."""
        if self._at is None or self._at.g != g:
            self._at = None  # the last gravity's terms go before this one's are formed
            s, h, um, b = self.s, self.s.h, self.s.um, self.s.b
            gh, hb, dxhb = g * h, h + b, s.dx_h + s.dx_b
            ghb, ghum = g * hb, gh * um
            self._at = SimpleNamespace(
                g=g, gh_dxh=gh * s.dx_h, gh_dxb=gh * s.dx_b, gh_dxhb=gh * dxhb,
                ghum_dxhb=ghum * dxhb, gh_dth=gh * s.dt_h, gb_dth=g * b * s.dt_h,
                ghb_dxh_um=ghb * s.dx_h * um, ghb_h_dxum=ghb * h * s.dx_um,
                gdxh_um_hb=g * s.dx_h * um * hb, gh_dxum_hb=gh * s.dx_um * hb,
                ghum_dxh=ghum * s.dx_h, ghum_dxb=ghum * s.dx_b,
            )
        return self._at

    def momentum(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [f.dth_um, f.h_dtum, f.dxh_um2, f.two_hum_dxum, f.dxh_T, f.h_dxT, a.gh_dxh, a.gh_dxb]

    def momentum_split(self, g: float) -> list:
        """The momentum balance with the pressure gradient grouped as g h dx(h + b)."""
        return self.momentum(g)[:6] + [self._gravity(g).gh_dxhb]

    def momentum_advective(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [f.h_dtum, f.hum_dxum, a.gh_dxhb, f.dxh_T, f.h_dxT]

    def momentum_skew(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [
            f.half_dth_um, f.half_h_dtum, f.half_h_dtum,
            f.half_dxh_um2, f.hum_dxum, f.half_hum_dxum,
            a.gh_dxhb, f.dxh_T, f.h_dxT,
        ]

    def kinetic(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [
            f.half_dth_um2, f.hum_dtum, f.half_dxh_um3, f.h15_um2_dxum,
            a.ghum_dxhb, f.um_dxh_T, f.hum_dxT,
        ]

    def potential(self, g: float) -> list:
        a = self._gravity(g)
        return [a.gh_dth, a.gb_dth, a.ghb_dxh_um, a.ghb_h_dxum]

    def total_kinetic(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [
            f.half_dth_um2, f.hum_dtum, f.half_dth_T, f.half_h_dtT,
            f.half_dxh_um3, f.h15_um2_dxum, a.ghum_dxhb,
            f.dxh15_um_T, f.h15_dxum_T, f.h15_um_dxT,
        ]

    # the energy balance: dt(e) terms, then dx(f) terms
    def energy_time(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [f.half_dth_um2, f.hum_dtum, f.half_dth_T, f.half_h_dtT, a.gh_dth, a.gb_dth]

    def energy_flux(self, g: float) -> list:
        f, a = self._free, self._gravity(g)
        return [
            f.half_dxh_um3, f.h15_um2_dxum, f.dxh15_um_T, f.h15_dxum_T, f.h15_um_dxT,
            a.gdxh_um_hb, a.gh_dxum_hb, a.ghum_dxh, a.ghum_dxb,
        ]

    @cached_property
    def _moment_shared(self) -> SimpleNamespace:
        """The terms more than one moment equation lists, or one lists twice."""
        (uu, dt_u, dx_u), (h_, um_, dth_, _, dxum_) = (self.s.u, self.s.dt_u, self.s.dx_u), self.cols
        return SimpleNamespace(
            dth_uu=dth_ * uu, h_dtu=h_ * dt_u, hum_dxu=h_ * um_ * dx_u, huu_dxum=h_ * uu * dxum_,
            half_h_dtu=0.5 * h_ * dt_u, half_hum_dxu=0.5 * h_ * um_ * dx_u,
        )

    def moment(self) -> list:
        m, uu, (h_, um_, _, dxh_, dxum_) = self._moment_shared, self.s.u, self.cols
        return [
            m.dth_uu, m.h_dtu,
            2.0 * dxh_ * um_ * uu, 2.0 * h_ * dxum_ * uu, 2.0 * h_ * um_ * self.s.dx_u,
            -um_ * dxh_ * uu, -um_ * h_ * self.s.dx_u,
        ]

    def moment_split(self) -> list:
        m, uu, (h_, um_, _, dxh_, dxum_) = self._moment_shared, self.s.u, self.cols
        return [m.dth_uu, m.h_dtu, dxh_ * um_ * uu, h_ * dxum_ * uu, m.hum_dxu, m.huu_dxum]

    def moment_advective(self) -> list:
        m = self._moment_shared
        return [m.h_dtu, m.hum_dxu, m.huu_dxum]

    def moment_skew(self) -> list:
        m, uu, (h_, um_, dth_, dxh_, dxum_) = self._moment_shared, self.s.u, self.cols
        return [
            0.5 * dth_ * uu, m.half_h_dtu, m.half_h_dtu,
            0.5 * dxh_ * um_ * uu, 0.5 * h_ * dxum_ * uu,
            m.half_hum_dxu, m.half_hum_dxu,
            m.huu_dxum,
        ]

    def moment_kinetic(self) -> list:
        uu, (h_, um_, dth_, dxh_, dxum_) = self.s.u, self.cols
        return [self.w * t for t in (
            0.5 * dth_ * uu**2, h_ * uu * self.s.dt_u,
            0.5 * dxh_ * um_ * uu**2, 0.5 * h_ * dxum_ * uu**2, h_ * um_ * uu * self.s.dx_u,
            h_ * uu**2 * dxum_,
        )]


def _block_ranges(size: int) -> list:
    """(start, stop) of consecutive blocks of at most _BLOCK samples; 0 samples make one empty block."""
    return [(start, min(start + _BLOCK, size)) for start in range(0, max(size, 1), _BLOCK)]


def _block_defects(s: FreeSample, gravities) -> dict:
    """{g: {identity: defect}} of one block, from one expansion of it."""
    ex, n = _Expansions(s), s.n_moments
    cont = ex.continuity
    W = np.concatenate([s.h[..., None], s.um[..., None], s.u], axis=-1)
    q_u = entropy_vars(W, s.b, 0.0).q_u  # w u, which does not read g
    moment, split, advective = ex.moment(), ex.moment_split(), ex.moment_advective()
    skew, kinetic = ex.moment_skew(), ex.moment_kinetic()
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
    del moment, split, advective, skew, ex._moment_shared
    um_cont = [-s.um * t for t in cont]
    out = {}
    for g in gravities:
        q = entropy_vars(W, s.b, g)
        momentum, m_split, m_adv = ex.momentum(g), ex.momentum_split(g), ex.momentum_advective(g)
        m_skew, m_kinetic = ex.momentum_skew(g), ex.kinetic(g)
        potential, total_kinetic = ex.potential(g), ex.total_kinetic(g)
        energy = ex.energy_time(g) + ex.energy_flux(g)
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


def check_total_energy_identity(s, gravities) -> dict:
    """Max relative defect of the energy derivation, per gravity: {g: {identity: defect}}.

    s is a FreeSample, or a SampleStream that draws each block as it is
    checked: anything with size, n_moments and block(start, stop).  "total
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
    one walk over s.block of each _block_ranges(s.size); with two blocks or
    more, _fan_out gives the second half of the ranges to a forked worker,
    so a SampleStream's worker draws its blocks itself.  RuntimeError names
    the order if the worker is lost.
    """
    ranges = _block_ranges(s.size)
    per_block = _fan_out(lambda r: _block_defects(s.block(*r), gravities), ranges,
                         len(ranges) // 2, f"identity check at N={s.n_moments}")
    return {g: {name: float(np.max([d[g][name] for d in per_block])) for name in per_block[0][g]}
            for g in gravities}


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
