import ast
import dataclasses
import math
import os
import pickle
import signal
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swlme._worker
import swlme.cli
import swlme.diagnostics
from swlme._worker import _cpus, _fan_out
from swlme.cli import main
from swlme.diagnostics import (
    _BLOCK,
    _BLOCK_BYTES,
    _EQUATIONS,
    FreeSample,
    SampleStream,
    _block_ranges,
    _defect,
    _Expansions,
    _term,
    _term_sum,
    check_total_energy_identity,
    convergence_study,
    gradient_check_entropy,
    stoker_dam_break,
    stoker_intermediate,
)
from swlme.model import (
    ModelParams,
    ParameterError,
    energy,
    entropy_vars,
    moment_weights,
    to_primitive,
)
from swlme.solver import Grid1D, Scenario, run
from conftest import assert_no_process_left, in_worker


def whole_sample(seed, size, n):
    """`check`'s seeded sample of `size` samples at order n, whole."""
    return SampleStream(seed, size, n).block(0, size)


def reference_random(seed, size, n):
    """`check`'s seeded sample drawn field by field, each whole, from one default_rng(seed)."""
    rng = np.random.default_rng(seed)

    def scalars():
        return rng.uniform(-2.0, 2.0, size)

    def moments():
        return rng.uniform(-2.0, 2.0, (size, n))

    return FreeSample(
        h=rng.uniform(0.1, 3.0, size), um=scalars(), u=moments(),
        b=rng.uniform(0.0, 1.0, size),
        dt_h=scalars(), dx_h=scalars(), dt_um=scalars(), dx_um=scalars(),
        dt_u=moments(), dx_u=moments(), dx_b=scalars(),
    )


def sample_fields(s):
    """{name: array} of every field of a FreeSample, in field order."""
    return {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}


def zero_sample(n, size=4, h=1.0):
    z = np.zeros(size)
    zu = np.zeros((size, n))
    return FreeSample(h=np.full(size, h), um=z, u=zu, b=z, dt_h=z, dx_h=z,
                      dt_um=z, dx_um=z, dt_u=zu, dx_u=zu, dx_b=z)


def scale_energy_flux(monkeypatch, factor):
    """Corrupt the energy flux terms of every _Expansions by factor (a negative control).

    Each term of the table's flux entry gets factor as its last factor, so
    it is factor times the term, bit for bit.
    """
    monkeypatch.setitem(_EQUATIONS, "energy_flux", tuple(
        _term(f"{t.spec} {factor!r}") for t in _EQUATIONS["energy_flux"]))


def total_identity(s, g):
    """The total energy identity defect of one gravity."""
    return check_total_energy_identity([s], (g,))[0][g]["total energy identity"]


def skew_forms(s, g):
    """The intermediate-step defects of one gravity: every identity but the total one."""
    defects = check_total_energy_identity([s], (g,))[0][g]
    del defects["total energy identity"]
    return defects


def balance_residuals(s, g):
    """Summed continuity, momentum and moment residuals of the slots, batch + (N+2,)."""
    ex = _Expansions(s)
    return np.concatenate([_term_sum(ex.terms("continuity"))[..., None],
                           _term_sum(ex.terms("momentum", g))[..., None],
                           _term_sum(ex.terms("moment"))], axis=-1)


def independent_residuals(s, g):
    """Second expansion of the balance equations, grouped by slot coefficient."""
    w = 1.0 / (2.0 * np.arange(1, s.n_moments + 1) + 1.0)
    T = (s.u**2 * w).sum(axis=-1)
    r_c = 1.0 * s.dt_h + s.um * s.dx_h + s.h * s.dx_um
    r_m = (
        s.um * s.dt_h + s.h * s.dt_um
        + (s.um**2 + T + g * s.h) * s.dx_h
        + 2.0 * s.h * s.um * s.dx_um
        + (2.0 * s.h[:, None] * s.u * w * s.dx_u).sum(axis=-1)
        + g * s.h * s.dx_b
    )
    r_u = (
        s.u * s.dt_h[:, None] + s.h[:, None] * s.dt_u
        + (s.um[:, None] * s.u) * s.dx_h[:, None]
        + (2.0 * s.h[:, None] * s.u) * s.dx_um[:, None]
        + (s.h * s.um)[:, None] * s.dx_u
    )
    return r_c, r_m, r_u


class TestResiduals:
    def test_zero_slots(self):
        R = balance_residuals(zero_sample(2), 9.81)
        assert np.all(R == 0.0)

    def test_constructed_continuity_solution(self):
        # pick dt_h so the mass balance holds; the others stay generic
        s = whole_sample(20, 50, 1)
        s.dt_h = -(s.dx_h * s.um + s.h * s.dx_um)
        R = balance_residuals(s, 9.81)
        assert np.abs(R[:, 0]).max() <= 1e-14
        assert np.abs(R[:, 1]).min() > 1e-6
        assert np.abs(R[:, 2]).min() > 1e-8

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_against_independent_expansion(self, n):
        s = whole_sample(21, 500, n)
        R = balance_residuals(s, 9.81)
        r_c, r_m, r_u = independent_residuals(s, 9.81)
        np.testing.assert_allclose(R[:, 0], r_c, atol=1e-13)
        np.testing.assert_allclose(R[:, 1], r_m, atol=1e-13)
        if n:
            np.testing.assert_allclose(R[:, 2:], r_u, atol=1e-13)


class TestTotalEnergyIdentity:
    def test_zero_slots(self):
        assert total_identity(zero_sample(3), 9.81) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_random_samples(self, n):
        s = whole_sample(22, 20000, n)
        defects = check_total_energy_identity([s], (1.0, 9.81))[0]
        assert list(defects) == [1.0, 9.81]
        for g in (1.0, 9.81):
            assert defects[g]["total energy identity"] <= 1e-12

    def test_plain_shallow_water_reduction(self):
        # independently coded SWE energy residual must agree with N = 0
        s = whole_sample(23, 500, 0)
        g = 9.81
        dt_e = (
            0.5 * s.dt_h * s.um**2 + s.h * s.um * s.dt_um
            + g * (s.h + s.b) * s.dt_h
        )
        dx_f = (
            0.5 * s.dx_h * s.um**3 + 1.5 * s.h * s.um**2 * s.dx_um
            + g * (s.dx_h * s.um + s.h * s.dx_um) * (s.h + s.b)
            + g * s.h * s.um * (s.dx_h + s.dx_b)
        )
        ex = _Expansions(s)
        np.testing.assert_allclose(_term_sum(ex.terms("energy_time", g))
                                   + _term_sum(ex.terms("energy_flux", g)),
                                   dt_e + dx_f, atol=1e-12)

    def test_corruption_is_detected(self, monkeypatch):
        s = whole_sample(24, 1000, 2)
        scale_energy_flux(monkeypatch, 1.0 + 1e-6)
        assert total_identity(s, 9.81) > 1e-9


class TestSkewForms:
    def test_zero_slots(self):
        forms = skew_forms(zero_sample(2), 9.81)
        assert set(forms) >= {"potential_energy", "momentum_skew_average",
                              "moment_skew_average", "total_energy_sum"}
        assert all(v == 0.0 for v in forms.values())

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    def test_random_samples(self, n):
        s = whole_sample(25, 20000, n)
        for g, defects in check_total_energy_identity([s], (1.0, 9.81))[0].items():
            forms = {name: d for name, d in defects.items() if name != "total energy identity"}
            worst = max(forms.values())
            assert worst <= 1e-12, max(forms, key=forms.get)

    def test_pressure_split_agreement(self):
        # g h dx(h+b) against g dx(h^2)/2 + g h dx b is pure product rule
        s = whole_sample(26, 5000, 1)
        assert skew_forms(s, 9.81)["momentum_rewrite"] <= 1e-15

    @pytest.mark.parametrize("n", [1, 3])
    def test_moment_steps_do_not_read_gravity(self, n):
        # taken once per block for every gravity; they must equal a one-gravity run
        s = whole_sample(29, _BLOCK + 9, n)
        both = check_total_energy_identity([s], (1.0, 9.81))[0]
        for name in ("moment_rewrite", "moment_advective", "moment_skew_average",
                     "moment_kinetic_energy"):
            assert both[1.0][name] == both[9.81][name] == skew_forms(s, 9.81)[name] \
                == skew_forms(s, 1.0)[name]
        assert skew_forms(s, 1.0)["kinetic_energy"] != skew_forms(s, 9.81)["kinetic_energy"]


class TrailingExpansions:
    """The term lists of _Expansions at gravity g in the trailing-axis layout: batch + (terms,).

    Each equation's terms are broadcast and stacked on a new last axis of a
    C-contiguous array, and trailing_sum adds them along that axis in order.
    """

    def __init__(self, s, g):
        self._ex, self._g = _Expansions(s), g

    def __getattr__(self, name):
        return np.stack(np.broadcast_arrays(*self._ex.terms(name, self._g)), axis=-1)


# the trailing-axis combination helpers, kept as the reference for the term-major ones
def trailing_by(factor, terms):
    return np.asarray(factor)[..., None] * terms


def trailing_plus(*stacks):
    common = np.broadcast_shapes(*(st.shape[:-1] for st in stacks))
    return np.concatenate([np.broadcast_to(st, common + st.shape[-1:]) for st in stacks], axis=-1)


def trailing_sum(stack):
    """The trailing axis summed in order, from +0.0."""
    total = np.zeros(stack.shape[:-1])
    for i in range(stack.shape[-1]):
        total += stack[..., i]
    return total


def trailing_defect(lhs, rhs):
    num = np.abs(trailing_sum(lhs) - trailing_sum(rhs))
    den = trailing_sum(np.abs(lhs)) + trailing_sum(np.abs(rhs))
    return float(np.max(num / np.maximum(den, np.finfo(float).tiny))) if num.size else 0.0


def trailing_flatten_moments(terms):
    return terms.reshape(terms.shape[:-2] + (terms.shape[-2] * terms.shape[-1],))


def reference_total_energy_identity(s, g, flux_scale=1.0):
    """The total energy identity, unblocked and summed on the trailing axis."""
    ex = TrailingExpansions(s, g)
    W = np.concatenate([s.h[..., None], s.um[..., None], s.u], axis=-1)
    q = entropy_vars(W, s.b, g)
    lhs = trailing_plus(trailing_by(q.q1, ex.continuity), trailing_by(q.q2, ex.momentum),
                        trailing_flatten_moments(q.q_u[..., None] * ex.moment))
    rhs = trailing_plus(ex.energy_time, flux_scale * ex.energy_flux)
    return trailing_defect(lhs, rhs)


def reference_skew_forms(s, g):
    """The intermediate steps of one gravity, unblocked and summed on the trailing axis."""
    ex = TrailingExpansions(s, g)
    w = moment_weights(s.n_moments)
    by, plus, defect = trailing_by, trailing_plus, trailing_defect

    out = {
        "potential_energy": defect(ex.potential, by(g * (s.h + s.b), ex.continuity)),
        "momentum_rewrite": defect(ex.momentum_split, ex.momentum),
        "momentum_advective": defect(
            ex.momentum_advective, plus(ex.momentum_split, by(-s.um, ex.continuity))
        ),
        "momentum_skew_average": defect(
            ex.momentum_skew, plus(0.5 * ex.momentum_advective, 0.5 * ex.momentum_split)
        ),
        "kinetic_energy": defect(ex.kinetic, by(s.um, ex.momentum_skew)),
    }
    if s.n_moments:
        cont_m = ex.continuity[..., None, :]  # broadcast over the moment axis
        out["moment_rewrite"] = defect(ex.moment_split, ex.moment)
        out["moment_advective"] = defect(
            ex.moment_advective, plus(ex.moment_split, -s.u[..., None] * cont_m)
        )
        out["moment_skew_average"] = defect(
            ex.moment_skew, plus(0.5 * ex.moment_advective, 0.5 * ex.moment_split)
        )
        out["moment_kinetic_energy"] = defect(
            ex.moment_kinetic, (w * s.u)[..., None] * ex.moment_skew
        )
        out["total_kinetic_energy"] = defect(
            ex.total_kinetic, plus(ex.kinetic, trailing_flatten_moments(ex.moment_kinetic))
        )
    else:
        out["total_kinetic_energy"] = defect(ex.total_kinetic, ex.kinetic)
    out["total_energy_sum"] = defect(
        plus(ex.energy_time, ex.energy_flux), plus(ex.total_kinetic, ex.potential)
    )
    return out


def reference_defects(s, g):
    """check_total_energy_identity([s], (g,))[0][g], one identity at a time (same order)."""
    return {"total energy identity": reference_total_energy_identity(s, g),
            **reference_skew_forms(s, g)}


def assert_blocked_equals_reference(s):
    # both gravities in one pass, and each alone; names, order and bits must match
    want = {g: list(reference_defects(s, g).items()) for g in (1.0, 9.81)}
    got = check_total_energy_identity([s], (1.0, 9.81))[0]
    assert list(got) == [1.0, 9.81]
    for g in (1.0, 9.81):
        assert list(got[g].items()) == want[g]
        assert list(check_total_energy_identity([s], (g,))[0][g].items()) == want[g]


class TestBlockedChecks:
    """The one-pass blocked check returns the unblocked maxima bit for bit."""

    # every size at 0, 1, 3 and 17 (where the energy identity sums 130 terms), and the
    # other orders `check` runs, 2 and 5, at one size
    @pytest.mark.parametrize("n, size", [
        (n, size) for n in (0, 1, 3, 17)
        for size in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17)
    ] + [(2, 2 * _BLOCK + 17), (5, 2 * _BLOCK + 17)])
    def test_batch_sizes(self, n, size):
        s = whole_sample(40 + n, size, n)
        assert_blocked_equals_reference(s)

    def test_empty_batch(self):
        s = whole_sample(41, 0, 2)
        assert_blocked_equals_reference(s)
        assert set(check_total_energy_identity([s], (9.81,))[0][9.81].values()) == {0.0}

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_scalar_slots_mixed_with_arrays(self, n):
        rng = np.random.default_rng(42)
        size = _BLOCK + 5
        s = FreeSample(
            h=rng.uniform(0.1, 3.0, size), um=rng.uniform(-2.0, 2.0, size),
            u=rng.uniform(-2.0, 2.0, (size, n)), b=0.3,
            dt_h=-0.7, dx_h=rng.uniform(-2.0, 2.0, size), dt_um=1.1,
            dx_um=rng.uniform(-2.0, 2.0, size), dt_u=rng.uniform(-2.0, 2.0, n),
            dx_u=rng.uniform(-2.0, 2.0, (size, n)), dx_b=-0.4,
        )
        assert_blocked_equals_reference(s)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_two_dimensional_batch(self, n):
        flat = whole_sample(43, 3 * 2000, n)
        s = FreeSample(**{name: a.reshape((3, 2000) + a.shape[1:])
                          for name, a in sample_fields(flat).items()})
        assert s.size == 3 * 2000
        assert_blocked_equals_reference(s)

    def test_block_layout(self):
        s = whole_sample(44, 2 * _BLOCK + 17, 2)
        blocks = [s.block(start, stop) for start, stop in _block_ranges(s.size, s.n_moments)]
        assert [blk.size for blk in blocks] == [_BLOCK, _BLOCK, 17]
        for name, whole in sample_fields(s).items():
            parts = [getattr(blk, name) for blk in blocks]
            tail = whole.shape[1:]
            assert [a.shape for a in parts] == [(_BLOCK,) + tail, (_BLOCK,) + tail, (17,) + tail]
            # a block's fields are views of the sample's, and together they are the sample
            assert all(np.shares_memory(a, whole) for a in parts), name
            np.testing.assert_array_equal(np.concatenate(parts), whole)
        empty = zero_sample(1, size=0)
        assert [empty.block(start, stop).h.shape for start, stop in _block_ranges(0, 1)] == [(0,)]

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_scalar_slots_and_2d_batch_flatten_in_c_order(self, n):
        shape = (16, 513)  # two blocks and a part
        size = math.prod(shape)
        drawn = whole_sample(59, size, n)
        batch = {name: a.reshape(shape + a.shape[1:]) for name, a in sample_fields(drawn).items()}
        scalars = {"b": 0.3, "dt_h": -0.7, "dt_um": 1.1, "dx_b": -0.4,
                   "dt_u": np.linspace(-1.0, 1.0, n)}
        s = FreeSample(**{**batch, **scalars})
        assert (s.size, s.n_moments) == (size, n)
        for name, value in batch.items():
            want = np.broadcast_to(scalars.get(name, value), value.shape).reshape(
                (size,) + value.shape[2:])
            assert getattr(s, name).shape == want.shape, name
            assert np.array_equal(getattr(s, name), want), name

        class WithScalars(SampleStream):
            """The same stream with the scalar slots put in: the values of s, sample by sample."""

            def block(self, start, stop):
                put_in = {name: getattr(s, name)[start:stop] for name in scalars}
                return dataclasses.replace(super().block(start, stop), **put_in)

        assert check_total_energy_identity([s], (1.0, 9.81))[0] == check_total_energy_identity(
            [WithScalars(59, size, n)], (1.0, 9.81))[0]

    def test_corruption_detected_across_blocks(self, monkeypatch):
        s = whole_sample(45, 3 * _BLOCK + 1, 2)
        want = reference_total_energy_identity(s, 9.81, flux_scale=1.0 + 1e-6)
        scale_energy_flux(monkeypatch, 1.0 + 1e-6)
        corrupted = total_identity(s, 9.81)
        assert corrupted > 1e-9
        assert corrupted == want

    @staticmethod
    def expansions(monkeypatch, cpus):
        """Sizes of the blocks expanded in this process by one check of three blocks."""
        built = []

        def counted(s):
            built.append(s.h.size)
            return _Expansions(s)

        monkeypatch.setattr(swlme.diagnostics, "_Expansions", counted)
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        s = whole_sample(49, 2 * _BLOCK + 17, 2)
        check_total_energy_identity([s], (1.0, 9.81))[0]
        return built

    def test_one_expansion_per_block(self, monkeypatch):
        # every identity at every gravity shares one expansion of each block
        assert self.expansions(monkeypatch, 1) == [_BLOCK, _BLOCK, 17]

    def test_caller_expands_only_its_blocks(self, monkeypatch):
        # with two CPUs a forked worker expands the second half of the blocks
        assert self.expansions(monkeypatch, 2) == [_BLOCK]

    GRAVITY_EQUATIONS = ("momentum", "momentum_split", "momentum_advective", "momentum_skew",
                         "kinetic", "potential", "total_kinetic", "energy_time", "energy_flux")

    @pytest.mark.parametrize("n", [0, 2])
    def test_gravity_free_terms_are_formed_once(self, monkeypatch, n):
        # the second gravity of a block reuses the arrays of every term that does not read g
        listed = {}  # (equation, g): the terms listed
        terms = _Expansions.terms

        def recorded(ex, name, g=None):
            listed[name, g] = terms(ex, name, g)
            return listed[name, g]

        monkeypatch.setattr(_Expansions, "terms", recorded)
        swlme.diagnostics._block_defects(whole_sample(60, 64, n), (1.0, 9.81))
        assert {key for key in listed if key[1] is not None} == {
            (name, g) for name in self.GRAVITY_EQUATIONS for g in (1.0, 9.81)}
        for name in self.GRAVITY_EQUATIONS:
            for i, (a, b) in enumerate(zip(listed[name, 1.0], listed[name, 9.81])):
                # a term reads g exactly when its values differ between the gravities
                assert (a is b) == np.array_equal(a, b), (name, i)
        # the term with u_m^3, and others that several equations list, are one array
        for shared in ([("kinetic", 2), ("total_kinetic", 4), ("energy_flux", 0)],
                       [("momentum", 1), ("momentum_split", 1), ("momentum_advective", 0)],
                       [("momentum_skew", 1), ("momentum_skew", 2)],
                       [("kinetic", 0), ("total_kinetic", 0), ("energy_time", 0)],
                       [("total_kinetic", 7), ("energy_flux", 2)]):
            (first, i), *rest = shared
            for g in (1.0, 9.81):
                assert all(listed[name, g][j] is listed[first, 1.0][i] for name, j in rest), shared
        # a term that reads g is shared between the equations of one gravity
        for g in (1.0, 9.81):
            assert listed["momentum_split", g][6] is listed["momentum_advective", g][2] \
                is listed["momentum_skew", g][6]
            assert listed["potential", g][:2] == listed["energy_time", g][4:]

    def test_moment_terms_are_formed_once(self):
        ex = _Expansions(whole_sample(61, 64, 3))
        split, advective, skew = map(ex.terms, ("moment_split", "moment_advective", "moment_skew"))
        assert split[1] is advective[0] is ex.terms("moment")[1]
        assert split[4] is advective[1]
        assert split[5] is advective[2] is skew[7]
        assert skew[1] is skew[2] and skew[5] is skew[6]
        # dropped, the moment terms are formed anew, and the batch-shaped ones are kept
        continuity = ex.terms("continuity")
        ex.drop_moment_terms()
        assert all(a is b for a, b in zip(ex.terms("continuity"), continuity))
        again = ex.terms("moment_split")
        assert all(a is not b and np.array_equal(a, b) for a, b in zip(again, split))

    def test_a_term_is_one_array_per_block(self):
        # an equation asked for twice, the equations that list a term, and a term that does
        # not read g at both gravities share one array; a term that reads g does not
        ex = _Expansions(whole_sample(62, 64, 3))
        formed = {}  # (spec, g): the array first listed
        for g in (1.0, 9.81):
            for name, terms in _EQUATIONS.items():
                listed = ex.terms(name, g)
                assert all(a is b for a, b in zip(listed, ex.terms(name, g))), name
                for term, array in zip(terms, listed):
                    assert formed.setdefault((term.spec, g), array) is array, (name, term.spec)
        assert len(formed) == 2 * len({t.spec for terms in _EQUATIONS.values() for t in terms})
        for spec, g in formed:
            a, b = formed[spec, 1.0], formed[spec, 9.81]
            reads_g = "g" in spec.split()
            assert (a is b) != reads_g and np.array_equal(a, b) != reads_g, spec


class TestSampleStream:
    """SampleStream blocks are bitwise slices of reference_random(seed, ...), `check`'s sample."""

    @staticmethod
    def assert_bitwise(got: FreeSample, want: FreeSample):
        for f in dataclasses.fields(FreeSample):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.shape == b.shape, f.name
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), f.name

    @pytest.mark.parametrize("size", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17])
    @pytest.mark.parametrize("n", [0, 1, 5])  # at N = 0 the moment fields take no draws
    def test_blocks_are_slices_of_the_whole_sample(self, size, n):
        want, stream = reference_random(53, size, n), SampleStream(53, size, n)
        assert (stream.size, stream.n_moments) == (size, n)
        # last block first: a worker's first block does not need the earlier ones drawn
        for start, stop in reversed(_block_ranges(size, n)):
            self.assert_bitwise(stream.block(start, stop), want.block(start, stop))

    def test_unaligned_ranges(self):
        want, stream = reference_random(54, 500, 3), SampleStream(54, 500, 3)
        for start, stop in [(499, 500), (7, 300), (0, 1), (250, 250), (0, 500), (123, 124)]:
            self.assert_bitwise(stream.block(start, stop), want.block(start, stop))

    def test_random_draws_the_fields_in_order(self):
        # the whole sample is the fields drawn whole, one after another, in order
        self.assert_bitwise(SampleStream(55, 37, 2).block(0, 37), reference_random(55, 37, 2))

    @pytest.mark.parametrize("size", [1, _BLOCK + 1, 2 * _BLOCK + 17])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_check_matches_the_whole_sample(self, size, n):
        whole = reference_random(56, size, n)
        assert (check_total_energy_identity([SampleStream(56, size, n)], (1.0, 9.81))[0]
                == check_total_energy_identity([whole], (1.0, 9.81))[0])

    @staticmethod
    def drawn(monkeypatch, cpus, size):
        """(start, stop) of the blocks drawn in this process by `check` of one order."""
        ranges, block = [], SampleStream.block

        def counted(self, start, stop):
            ranges.append((start, stop))
            return block(self, start, stop)

        monkeypatch.setattr(SampleStream, "block", counted)
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        swlme.cli._check_identities([2], size, 57)
        return ranges

    def test_caller_draws_only_its_blocks(self, monkeypatch, forks):
        # with two CPUs a forked worker draws and checks the second half of the blocks
        assert self.drawn(monkeypatch, 2, 2 * _BLOCK + 17) == [(0, _BLOCK)]
        assert len(forks) == 1

    def test_one_draw_per_block(self, monkeypatch):
        assert self.drawn(monkeypatch, 1, 2 * _BLOCK + 17) == [
            (0, _BLOCK), (_BLOCK, 2 * _BLOCK), (2 * _BLOCK, 2 * _BLOCK + 17)]


class TestTermSum:
    """_term_sum adds the terms in order from the first, bit for bit, within roundoff of the exact sum."""

    @pytest.mark.parametrize("tail", [(6,), (6, 3)])
    def test_bitwise_against_in_order_sum(self, tail):
        rng = np.random.default_rng(47)
        unit = np.finfo(float).eps / 2.0
        for n in (1, 2, 3, 7, 8, 9, 16, 17, 128, 129, 130, 300):
            shape = (n,) + tail
            stack = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            stack[rng.integers(n), 0] = np.nan
            stack[rng.integers(n), 1] = -np.inf
            stack[:, 2] = -0.0  # the sum starts from its first term, so this sums to -0.0
            gamma = (n - 1) * unit / (1.0 - (n - 1) * unit)
            for absolute in (False, True):
                got = _term_sum(stack, absolute)
                assert got.shape == stack.shape[1:], (n, absolute)
                for idx in np.ndindex(got.shape):
                    terms = [abs(t) if absolute else t for t in stack[(slice(None),) + idx].tolist()]
                    total = terms[0]
                    for t in terms[1:]:
                        total += t
                    assert np.float64(total).tobytes() == got[idx].tobytes(), (n, absolute, idx)
                    if idx[0] > 2:  # finite terms: within gamma_(n-1) sum|t| of the exact sum
                        error = math.fsum([total] + [-t for t in terms])
                        assert abs(error) <= gamma * math.fsum(map(abs, terms)), (n, idx)


def zero_start_sum(terms, absolute=False):
    """The in-order sum of the terms (their absolute values), started from +0.0."""
    total = np.zeros(terms[0].shape)
    for t in terms:
        total += np.abs(t) if absolute else t
    return total


def term_lists(size):
    """Lists of 1 to 6 terms of `size` values each, ±0.0, infinities and NaN among them."""
    value = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5e-300]),
                      st.floats(allow_nan=True, allow_infinity=True))
    return st.lists(st.lists(value, min_size=size, max_size=size).map(np.array),
                    min_size=1, max_size=6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda size: st.tuples(term_lists(size), term_lists(size))))
def test_defect_from_first_terms_keeps_the_zero_start_bits(sides):
    # the sums differ from +0.0-start ones only in the sign of a zero total, which
    # the defect reads through abs alone
    lhs, rhs = sides
    with np.errstate(all="ignore"):
        num = np.abs(zero_start_sum(lhs) - zero_start_sum(rhs))
        den = zero_start_sum(lhs, True) + zero_start_sum(rhs, True)
        want = np.max(num / np.maximum(den, np.finfo(float).tiny))
        got = _defect(lhs, rhs)
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    # the first term is summed into a new array, never written
    before = [t.copy() for t in lhs + rhs]
    with np.errstate(all="ignore"):
        _term_sum(lhs), _term_sum(rhs, absolute=True)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(before, lhs + rhs))


# the identities that read the dx_b slot; the others never see it
READS_DX_B = {"momentum_rewrite", "momentum_advective", "momentum_skew_average",
              "kinetic_energy", "total_kinetic_energy", "total_energy_sum"}


class TestNanSlot:
    def test_identities_reading_the_slot_return_nan(self):
        s = whole_sample(48, _BLOCK + 3, 2)
        s.dx_b[_BLOCK + 1] = np.nan  # in the last block only
        assert np.isnan(total_identity(s, 9.81))
        forms = skew_forms(s, 9.81)
        assert {name for name, value in forms.items() if np.isnan(value)} == READS_DX_B
        assert all(forms[name] <= 1e-12 for name in set(forms) - READS_DX_B)

    def test_check_command_reports_fail(self, capsys, monkeypatch):
        block = SampleStream.block

        def with_nan_slot(self, start, stop):
            s = block(self, start, stop)
            if stop == self.size:  # the last sample of the last block
                s.dx_b[-1] = np.nan
            return s

        monkeypatch.setattr(SampleStream, "block", with_nan_slot)
        assert main(["check", "--N", "1", "--samples", "50", "--seed", "3"]) == 1
        out, err = capsys.readouterr()
        failed = {" ".join(line.split()[2:-3]) for line in out.splitlines()
                  if line.endswith("FAIL")}
        assert failed == {"total energy identity"} | READS_DX_B
        assert "FAIL: total energy identity (N=1, g=1.0): defect nan" in err
        assert "all checks passed" not in out


def test_check_memory_stays_bounded(monkeypatch):
    # the default check size at its largest order, both gravities in one pass;
    # unblocked, each gravity's identities peaked near 270 MB.  One CPU keeps
    # every block in this process, where tracemalloc sees it.
    monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)
    s = whole_sample(46, 100_000, 5)
    tracemalloc.start()
    try:
        check_total_energy_identity([s], (1.0, 9.81))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, f"the check peaked at {peak / 2**20:.1f} MiB"


def test_check_command_memory_does_not_grow_with_the_sample(monkeypatch):
    # `check`'s default size at N = 5: the whole sample takes 17.5 MiB, so a
    # check that holds it peaks near 27 MiB, and one that draws each block
    # near 10 MiB.  One CPU keeps every block in this process, where
    # tracemalloc sees it.
    monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)
    tracemalloc.start()
    try:
        swlme.cli._check_identities([5], 100_000, 58)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20, f"check peaked at {peak / 2**20:.1f} MiB"


class TestGradientCheck:
    def test_rest_state(self):
        W = np.array([[1.0, 0.0, 0.0]])
        assert gradient_check_entropy(W, np.array([0.0]), 10.0) <= 1e-9

    def test_random_states(self):
        rng = np.random.default_rng(27)
        for n in (0, 2, 5):
            W = np.empty((1000, n + 2))
            W[:, 0] = rng.uniform(0.1, 10.0, 1000)
            W[:, 1:] = rng.uniform(-3.0, 3.0, (1000, n + 1))
            b = rng.uniform(0.0, 1.0, 1000)
            for g in (1.0, 9.81):
                assert gradient_check_entropy(W, b, g) <= 1e-6

    def test_step_halving_order(self, monkeypatch):
        # truncation-dominated regime: halving the step quarters the error
        rng = np.random.default_rng(28)
        W = np.empty((200, 4))
        W[:, 0] = rng.uniform(0.1, 0.5, 200)
        W[:, 1:] = rng.uniform(1.0, 3.0, (200, 3))
        b = rng.uniform(0.0, 1.0, 200)
        d_default = gradient_check_entropy(W, b, 9.81)
        monkeypatch.setattr(swlme.diagnostics, "_GRADIENT_STEP", 1e-4)
        d_coarse = gradient_check_entropy(W, b, 9.81)
        monkeypatch.setattr(swlme.diagnostics, "_GRADIENT_STEP", 5e-5)
        d_half = gradient_check_entropy(W, b, 9.81)
        order = np.log2(d_coarse / d_half)
        assert 1.5 <= order <= 2.5
        assert d_default < d_coarse


class TestStoker:
    def test_far_field(self):
        W = stoker_dam_break(1.0, 0.1, 9.81, np.array([-100.0, 100.0]), 1.0)
        np.testing.assert_array_equal(W[0], [1.0, 0.0])
        np.testing.assert_array_equal(W[1], [0.1, 0.0])

    def test_intermediate_state_relations(self):
        g = 9.81
        for ratio in (1.1, 2.0, 10.0, 100.0):
            h_r = 1.0 / ratio
            h_m, u_mid, bore = stoker_intermediate(1.0, h_r, g)
            assert h_r < h_m < 1.0
            # depth relation residual
            res = 2.0 * (np.sqrt(g) - np.sqrt(g * h_m)) - (h_m - h_r) * np.sqrt(
                0.5 * g * (h_m + h_r) / (h_m * h_r)
            )
            assert abs(res) <= 1e-13
            # jump conditions across the bore into still water
            mass = h_m * (u_mid - bore) - h_r * (0.0 - bore)
            mom = (h_m * u_mid * (u_mid - bore) + 0.5 * g * h_m**2) - 0.5 * g * h_r**2
            assert abs(mass) <= 1e-12 and abs(mom) <= 1e-12

    def test_profile_is_continuous_across_the_fan(self):
        h_m, u_mid, bore = stoker_intermediate(1.0, 0.25, 9.81)
        c_l, c_m = np.sqrt(9.81), np.sqrt(9.81 * h_m)
        eps = 1e-9
        edges = np.array([-c_l - eps, -c_l + eps, u_mid - c_m - eps, u_mid - c_m + eps])
        W = stoker_dam_break(1.0, 0.25, 9.81, edges, 1.0)
        np.testing.assert_allclose(W[0], W[1], atol=1e-7)
        np.testing.assert_allclose(W[2], W[3], atol=1e-7)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            stoker_intermediate(0.5, 1.0, 9.81)
        with pytest.raises(ValueError):
            stoker_dam_break(1.0, 0.1, 9.81, np.array([0.0]), 0.0)


class TestEnergyReport:
    def test_lake_at_rest_constant_energy(self):
        sc = Scenario(params=ModelParams(g=9.812, N=1), grid=Grid1D(-5.0, 5.0, 100),
                      ic_name="lake_at_rest", ic_params={"surface": 1.0},
                      topo_name="gaussian", topo_params={"height": 0.2},
                      boundary="outflow", t_end=0.5, output_snapshots=5)
        traj = run(sc)
        E = traj.steps[:, 3]
        assert np.abs(E - E[0]).max() / E[0] <= 1e-12
        # each snapshot's totals are the row run stored at its time
        assert len(traj.times) == 6
        dx = sc.grid.dx
        for t, U in zip(traj.times, traj.snapshots):
            (row,) = traj.steps[traj.steps[:, 0] == t]
            e = energy(to_primitive(U), sc.topography, sc.params.g).e
            assert row[1:].tolist() == [U[:, 0].sum() * dx, U[:, 1].sum() * dx, e.sum() * dx]

    def test_single_snapshot(self):
        sc = Scenario(params=ModelParams(g=10.0, N=0), grid=Grid1D(0.0, 1.0, 10),
                      ic_name="constant", ic_params={"h": 1.0}, boundary="periodic",
                      t_end=0.0)
        traj = run(sc)
        assert traj.times == [0.0] and traj.steps.shape == (1, 4)
        t, mass, _, total_energy = traj.steps[0]
        # e = g h^2 / 2 = 5 per unit length
        assert total_energy == pytest.approx(5.0, rel=1e-14)
        assert mass == pytest.approx(1.0, rel=1e-14)


class TestConvergence:
    def base_dam_break(self):
        return Scenario(params=ModelParams(g=9.81, N=0), grid=Grid1D(-5.0, 5.0, 100),
                        ic_name="dam_break", ic_params={"h_l": 1.0, "h_r": 0.1},
                        boundary="outflow", t_end=1.0)

    def test_exact_reference_orders(self):
        rows = convergence_study(self.base_dam_break(), [100, 200])
        assert len(rows) == 2
        assert rows[0][2] is None
        assert 0.4 <= rows[1][2] <= 1.2
        assert rows[1][1] < rows[0][1]

    def test_memory_does_not_grow_with_snapshots(self, monkeypatch):
        # only each mesh's final depth is read, so a per-step snapshot cadence
        # keeps nothing; one CPU keeps both runs in this process, where
        # tracemalloc sees them
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)

        def rows_and_peak(every_steps):
            sc = dataclasses.replace(self.base_dam_break(), output_every_steps=every_steps)
            tracemalloc.start()
            try:
                return convergence_study(sc, [100, 400]), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rows, plain = rows_and_peak(0)
        rows_every_step, peak = rows_and_peak(1)
        assert rows_every_step == rows
        # keeping every snapshot peaked near 1.4 MB against 0.15 MB
        assert peak <= plain + 256 * 2**10, f"{peak} against {plain} bytes"

    def test_single_mesh_exact_mode(self):
        rows = convergence_study(self.base_dam_break(), [150])
        assert len(rows) == 1 and rows[0][2] is None

    @pytest.mark.parametrize("meshes", [[50.7, 100.2], [100, 200.0], [True, 200],
                                        [np.float64(100.0)]])
    def test_non_integer_mesh_is_rejected_before_any_run(self, monkeypatch, meshes):
        runs = []
        monkeypatch.setattr(swlme.diagnostics, "run", lambda *args: runs.append(args))
        with pytest.raises(ParameterError, match="^meshes must be an integer, got ") as err:
            convergence_study(self.base_dam_break(), meshes)
        assert err.value.field == "meshes" and runs == []

    def smooth_periodic(self):
        return Scenario(params=ModelParams(g=9.812, N=1), grid=Grid1D(0.0, 1.0, 32),
                        ic_name="smooth_periodic",
                        ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2},
                        boundary="periodic", t_end=0.1)

    def test_self_reference_zero_error_row(self):
        # water at rest is the same on every mesh: zero errors, and no order from them
        still = dataclasses.replace(self.smooth_periodic(),
                                    ic_params={"h0": 1.0, "h_amp": 0.0, "um_amp": 0.0})
        assert convergence_study(still, [16, 32, 64]) == [(16, 0.0, None), (32, 0.0, None)]

    def test_self_reference_requires_dyadic_meshes(self):
        with pytest.raises(ValueError, match="dyadic"):
            convergence_study(self.smooth_periodic(), [30, 45])

    def test_self_reference_smooth_order(self):
        sc = Scenario(params=ModelParams(g=9.812, N=1), grid=Grid1D(0.0, 1.0, 32),
                      ic_name="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.05},
                      boundary="periodic", t_end=0.2)
        rows = convergence_study(sc, [64, 128, 256])
        assert len(rows) == 2
        assert rows[1][2] >= 0.9


def test_only_the_worker_module_forks_kills_or_reaps():
    process_calls = {"fork", "_exit", "waitpid", "kill"}
    found = set()
    for path in Path(swlme._worker.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os" and node.attr in process_calls):
                found.add((path.name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.update((path.name, a.name) for a in node.names if a.name in process_calls)
    assert found == {("_worker.py", name) for name in process_calls}


class TestFanOut:
    """_fan_out maps items in order, items[cut:] in a forked worker, as the serial loop would."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)

    def test_results_in_share_order(self, forks):
        parent = os.getpid()
        got = _fan_out(lambda item: (item, in_worker(parent)), [1, 2, 3], 2, "test")
        assert got == [(1, False), (2, False), (3, True)]
        assert len(forks) == 1
        assert_no_process_left()

    def test_one_share_runs_here(self, forks):
        # a cut at either end, or a single item, leaves one share: no fork
        parent = os.getpid()
        for items, cut in [([1, 2], 0), ([1, 2], 2), ([1], 0), ([1], 1), ([], 0)]:
            assert _fan_out(lambda item: (item, in_worker(parent)), items, cut, "test") == [
                (item, False) for item in items], (items, cut)
        assert forks == []

    def test_probe(self, monkeypatch, forks):
        # one usable CPU, or no os.fork: every item runs here
        parent = os.getpid()
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)
        assert _fan_out(lambda item: in_worker(parent), [1, 2], 1, "test") == [False, False]
        assert forks == []
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        assert _fan_out(lambda item: in_worker(parent), [1, 2], 1, "test") == [False, False]

    def test_failed_fork_runs_every_share_here(self, monkeypatch):
        def no_process():
            raise OSError("no process")

        monkeypatch.setattr(os, "fork", no_process)
        parent = os.getpid()
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        assert _fan_out(lambda item: in_worker(parent), [1, 2], 1, "test") == [False, False]
        if fds is not None:  # the result pipe was closed again
            assert len(os.listdir("/proc/self/fd")) == fds

    def test_cpu_probe_reads_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):  # _cpus as imported, not the patched one
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
            assert _cpus() == 1
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
            assert _cpus() == 2

    def test_worker_exception_is_raised_here(self):
        def work(item):
            if item >= 2:
                raise ValueError(f"bad item {item}")
            return item

        with pytest.raises(ValueError, match=r"^bad item 2$"):
            _fan_out(work, [1, 2, 3], 1, "test")
        assert_no_process_left()

    def test_first_share_exception_wins(self):
        def work(item):
            raise ValueError(f"bad item {item}")

        with pytest.raises(ValueError, match=r"^bad item 1$"):
            _fan_out(work, [1, 2], 1, "test")
        assert_no_process_left()

    def test_failing_caller_share_kills_the_worker(self):
        parent = os.getpid()

        def work(item):
            if in_worker(parent):
                time.sleep(60)
            raise ValueError(f"bad item {item}")

        start = time.monotonic()
        with pytest.raises(ValueError, match=r"^bad item 1$"):
            _fan_out(work, [1, 2], 1, "test")
        assert time.monotonic() - start < 30  # killed, not waited for
        assert_no_process_left()

    def test_caller_interrupt_kills_the_worker(self):
        parent = os.getpid()

        def work(item):
            if in_worker(parent):
                time.sleep(60)
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _fan_out(work, [1, 2], 1, "test")
        assert time.monotonic() - start < 30
        assert_no_process_left()

    def test_killed_worker_raises_runtime_error(self):
        parent = os.getpid()

        def work(item):
            if in_worker(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        with pytest.raises(RuntimeError, match=f"^the test items: worker process ended with "
                                               f"signal {int(signal.SIGKILL)} after sending 0 "
                                               "bytes$"):
            _fan_out(work, [1, 2], 1, "the test items")
        assert_no_process_left()

    def test_short_pickle_raises_runtime_error(self, monkeypatch):
        class Truncating:
            HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
            loads = staticmethod(pickle.loads)

            @staticmethod
            def dumps(*args):
                return pickle.dumps(*args)[:7]

        monkeypatch.setattr(swlme._worker, "pickle", Truncating)
        with pytest.raises(RuntimeError, match="^test: worker process ended with status 0 "
                                               "after sending 7 bytes$"):
            _fan_out(lambda item: item, [1, 2], 1, "test")
        assert_no_process_left()

    def test_exception_that_does_not_unpickle(self):
        def work(item):
            if item == 2:
                raise ParameterError("meshes", "no good")
            return item

        # ParameterError's two arguments do not survive pickling; the worker says so
        with pytest.raises(RuntimeError, match=r"^test: ParameterError\('no good'\) does not "
                                               "pickle: "):
            _fan_out(work, [1, 2], 1, "test")
        assert_no_process_left()

    def test_worker_warnings_are_issued_here(self):
        parent = os.getpid()

        def work(item):
            warnings.warn(f"item {item} in the worker: {in_worker(parent)}", UserWarning)
            return item

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _fan_out(work, [1, 2, 3], 1, "test") == [1, 2, 3]
        assert [str(w.message) for w in caught] == ["item 1 in the worker: False",
                                                   "item 2 in the worker: True",
                                                   "item 3 in the worker: True"]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_call_for_every_order_equals_one_call_per_order(self, monkeypatch, cpus):
        samples = [SampleStream(60 + n, 2 * _BLOCK + 17, n) for n in (0, 1, 2, 5)]
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 1)
        want = [check_total_energy_identity([s], (1.0, 9.81))[0] for s in samples]
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        assert check_total_energy_identity(samples, (1.0, 9.81)) == want
        assert check_total_energy_identity([], (1.0, 9.81)) == []

    @staticmethod
    def caller_blocks(monkeypatch, orders, size):
        """(N, start, stop) of the blocks one check of `orders` draws in this process, two CPUs.

        The block defects are stubbed out: only which process draws what is looked at.
        """
        drawn = []

        def block(self, start, stop):
            drawn.append((self.n_moments, start, stop))
            return None

        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.setattr(SampleStream, "block", block)
        monkeypatch.setattr(swlme.diagnostics, "_block_defects",
                            lambda s, gravities: {g: {"stub": 0.0} for g in gravities})
        check_total_energy_identity([SampleStream(1, size, n) for n in orders], (9.81,))
        return drawn

    def test_default_check_cuts_inside_order_3(self, monkeypatch):
        # 100000 samples take 64, 88, 112, 136 and 184 bytes each at N = 0, 1, 2, 3 and 5:
        # half their sum is all of N = 0, 1 and 2 and 20588 samples of N = 3, and the
        # nearest block boundary is 20480 samples in
        drawn = self.caller_blocks(monkeypatch, (0, 1, 2, 3, 5), 100_000)
        for n, step in ((0, 2 * _BLOCK), (1, 2 * _BLOCK), (2, _BLOCK)):
            assert [(start, stop) for m, start, stop in drawn if m == n] == [
                (start, min(start + step, 100_000)) for start in range(0, 100_000, step)]
        assert [(start, stop) for m, start, stop in drawn if m == 3] == [
            (start, start + _BLOCK) for start in range(0, 5 * _BLOCK, _BLOCK)]
        assert not [b for b in drawn if b[0] == 5]

    @pytest.mark.parametrize("orders, size", [
        ((0, 1, 2, 3, 5), 100_000), ((5, 0), 3 * _BLOCK), ((2,), 2 * _BLOCK + 17),
        ((1, 8), 5 * _BLOCK + 1), ((17, 0, 3), 2 * _BLOCK),
    ])
    def test_cut_falls_where_the_bytes_halve(self, monkeypatch, orders, size):
        blocks = [(n, start, stop) for n in orders for start, stop in _block_ranges(size, n)]
        nbytes = [SampleStream.nbytes(stop - start, n) for n, start, stop in blocks]
        drawn = self.caller_blocks(monkeypatch, orders, size)
        cut = len(drawn)
        assert 0 < cut < len(blocks) and drawn == blocks[:cut]
        total, mine = sum(nbytes), sum(nbytes[:cut])
        # no other block boundary lies nearer half the sample bytes
        assert all(abs(2 * mine - total) <= abs(2 * sum(nbytes[:k]) - total)
                   for k in range(1, len(blocks)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 17, 64])
    @pytest.mark.parametrize("size", [0, 1, _BLOCK, 2 * _BLOCK + 17, 100_000])
    def test_blocks_start_at_multiples_of_block(self, n, size):
        ranges = _block_ranges(size, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == size
        assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))
        assert all(start % _BLOCK == 0 for start, _ in ranges)
        step = 2 * _BLOCK if n <= 1 else _BLOCK
        assert all(stop - start == step for start, stop in ranges[:-1])
        # no block outgrows a _BLOCK-sample block of the largest default order, N = 5
        assert _BLOCK_BYTES == SampleStream.nbytes(_BLOCK, 5)
        assert n > 5 or all(SampleStream.nbytes(stop - start, n) <= _BLOCK_BYTES
                            for start, stop in ranges)

    @pytest.mark.parametrize("size, cpus, forked", [
        (_BLOCK, 2, 0), (_BLOCK + 1, 2, 1), (_BLOCK + 1, 1, 0), (0, 2, 0),
    ], ids=["one-block", "two-blocks", "one-cpu", "empty"])
    def test_check_forks_only_for_two_blocks_and_cpus(self, monkeypatch, forks, size, cpus,
                                                      forked):
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        s = whole_sample(50, size, 2)
        check_total_energy_identity([s], (9.81,))[0]
        assert len(forks) == forked

    def test_check_without_fork(self, monkeypatch):
        s = whole_sample(51, 2 * _BLOCK + 3, 1)
        want = check_total_energy_identity([s], (1.0, 9.81))[0]
        monkeypatch.delattr(os, "fork")
        assert check_total_energy_identity([s], (1.0, 9.81))[0] == want

    def test_lost_check_worker_names_the_order(self, monkeypatch):
        parent, block_defects = os.getpid(), swlme.diagnostics._block_defects

        def dying(s, gravities):
            if in_worker(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return block_defects(s, gravities)

        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.setattr(swlme.diagnostics, "_block_defects", dying)
        s = whole_sample(52, _BLOCK + 1, 3)
        with pytest.raises(RuntimeError, match="^identity check at N=3: worker process ended "
                                               "with signal"):
            check_total_energy_identity([s], (9.81,))[0]
        assert_no_process_left()

    def test_lost_check_worker_names_its_orders(self, monkeypatch):
        parent, block_defects = os.getpid(), swlme.diagnostics._block_defects

        def dying(s, gravities):
            if in_worker(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return block_defects(s, gravities)

        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.setattr(swlme.diagnostics, "_block_defects", dying)
        # the caller checks N = 1 and the first block of N = 3, the worker the rest
        samples = [whole_sample(52, _BLOCK + 1, n) for n in (1, 3, 5)]
        with pytest.raises(RuntimeError, match="^identity check at N=3, 5: worker process "
                                               "ended with signal"):
            check_total_energy_identity(samples, (9.81,))
        assert_no_process_left()

    # a lost worker is named by the meshes it ran; `test_lost_worker_exits_2`
    # covers exact mode's usual order, meshes ascending
    @pytest.mark.parametrize("mode, meshes, lost", [
        ("exact", [100, 25, 50], "25, 50"), ("self-reference", [16, 32, 64], "16, 32"),
    ], ids=["exact-largest-first", "self-reference"])
    def test_lost_converge_worker_names_its_meshes(self, monkeypatch, mode, meshes, lost):
        parent, real_run = os.getpid(), swlme.diagnostics.run

        def dying(scenario, sink):
            if in_worker(parent):
                os.kill(os.getpid(), signal.SIGKILL)
            return real_run(scenario, sink)

        monkeypatch.setattr(swlme._worker, "_cpus", lambda: 2)
        monkeypatch.setattr(swlme.diagnostics, "run", dying)
        sc = (TestConvergence().base_dam_break() if mode == "exact"
              else TestConvergence().smooth_periodic())
        with pytest.raises(RuntimeError, match=f"^run on {lost} cells: worker process ended "
                                               "with signal"):
            convergence_study(sc, meshes)
        assert_no_process_left()

    @pytest.mark.parametrize("mode, meshes, cpus, forked", [
        ("exact", [100, 200], 2, 1), ("exact", [100, 200], 1, 0), ("exact", [150], 2, 0),
        ("exact", [100, 100], 2, None), ("self-reference", [16, 32], 2, 1),
    ], ids=["two-meshes", "one-cpu", "one-mesh", "repeated-mesh", "self-reference"])
    def test_converge_forks_only_for_two_meshes_and_cpus(self, monkeypatch, forks, mode, meshes,
                                                         cpus, forked):
        monkeypatch.setattr(swlme._worker, "_cpus", lambda: cpus)
        runs = []
        real_run = swlme.diagnostics.run

        def counted(scenario, sink):
            runs.append(scenario.grid.cells)
            return real_run(scenario, sink)

        monkeypatch.setattr(swlme.diagnostics, "run", counted)
        sc = (TestConvergence().base_dam_break() if mode == "exact"
              else TestConvergence().smooth_periodic())
        if forked is None:  # rejected before any run or fork
            with pytest.raises(ParameterError, match=r"^repeated mesh in \[100, 100\]$") as err:
                convergence_study(sc, meshes)
            assert err.value.field == "meshes" and runs == [] and forks == []
            return
        rows = convergence_study(sc, meshes)
        assert len(forks) == forked
        assert [r[0] for r in rows] == (meshes if mode == "exact" else meshes[:-1])
        # each mesh runs once; with a worker, the finest mesh and the others run in
        # different processes: exact mode's worker runs the largest, self-reference
        # mode's the others
        if not forked:
            assert sorted(runs) == sorted(meshes)
        else:
            assert runs == (meshes[:-1] if mode == "exact" else meshes[-1:])
