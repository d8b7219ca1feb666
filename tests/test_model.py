import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

import swlme.model
from swlme.basis import Variant
from swlme.model import (
    BLOCK_BYTES,
    H_MIN,
    N_MAX,
    DryStateError,
    ModelParams,
    ParameterError,
    WaveSpeedBoundWarning,
    _contract,
    _flux_rows,
    _moment_sum,
    _norm_bound,
    _path_rows,
    _quasilinear,
    _spectral_bound,
    _wave_speed,
    boussinesq_beta,
    check_wet,
    energy,
    entropy_vars,
    flux,
    max_wave_speed,
    moment_weights,
    nonconservative_rhs,
    quasilinear_matrix,
    to_conserved,
    to_primitive,
)
from test_basis import gauss_nodes


def params(n, g=10.0, variant=Variant.SWLME):
    return ModelParams(g=g, N=n, variant=variant)


def random_primitive(rng, size, n, h_range=(0.1, 10.0), vel_range=(-3.0, 3.0)):
    W = np.empty((size, n + 2))
    W[:, 0] = rng.uniform(*h_range, size)
    W[:, 1:] = rng.uniform(*vel_range, (size, n + 1))
    return W


class TestConversions:
    def test_examples(self):
        np.testing.assert_array_equal(to_primitive(np.array([2.0, 4.0, 2.0])), [2.0, 2.0, 1.0])
        np.testing.assert_array_equal(to_primitive(np.array([1.0, 0.0])), [1.0, 0.0])
        np.testing.assert_array_equal(
            to_primitive(np.array([1e-3, 1e-6, 0.0])), [1e-3, 1e-3, 0.0]
        )
        np.testing.assert_array_equal(to_conserved(np.array([2.0, 2.0, 1.0])), [2.0, 4.0, 2.0])
        np.testing.assert_array_equal(to_conserved(np.array([1.0, 0.0, 0.0, 0.0])),
                                      [1.0, 0.0, 0.0, 0.0])

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for n in (0, 1, 3):
            W = random_primitive(rng, 1000, n)
            U = to_conserved(W)
            back = to_primitive(U)
            np.testing.assert_allclose(back, W, rtol=1e-15, atol=0.0)

    def test_dry_state(self):
        with pytest.raises(DryStateError):
            to_primitive(np.array([0.0, 1.0]))
        with pytest.raises(DryStateError):
            to_primitive(np.array([-1.0, 1.0]))
        err = None
        try:
            to_primitive(np.array([[1.0, 0.0], [1e-12, 0.0]]))
        except DryStateError as e:
            err = e
        assert err is not None and err.index == (1,)

    def test_dry_cell_reported_as_plain_ints(self):
        with pytest.raises(DryStateError) as info:
            check_wet(np.array([1.0, 0.0, 1.0]))
        assert info.value.index == (1,) and type(info.value.index[0]) is int
        assert str(info.value) == "dry or invalid state: h = 0.0 at cell 1"
        with pytest.raises(DryStateError) as info:
            check_wet(np.array([[1.0, 1.0], [1.0, np.nan]]))
        assert info.value.index == (1, 1) and all(type(i) is int for i in info.value.index)
        assert str(info.value) == "dry or invalid state: h = nan at cell (1, 1)"


def reference_check_wet(h):
    """check_wet's body before its two-reduction pass for wet arrays."""
    h = np.asarray(h)
    if np.any(h <= H_MIN) or not np.all(np.isfinite(h)):
        flat = np.argmin(np.where(np.isfinite(h), h, -np.inf))
        idx = tuple(int(i) for i in np.unravel_index(flat, h.shape))
        raise DryStateError(
            f"dry or invalid state: h = {h.flat[flat] if h.ndim else float(h)} "
            f"at cell {idx[0] if h.ndim == 1 else idx}",
            index=idx,
        )


def outcome(fn, *args):
    """("pass", what fn returned), or the type, message and index of what it raised."""
    try:
        value = fn(*args)
    except Exception as err:  # the comparison covers whatever either side raises
        return type(err), str(err), getattr(err, "index", None)
    return "pass", value


@pytest.mark.parametrize("h", [
    np.array([]), np.empty((0, 3)), np.array(1.0), np.array(H_MIN), np.array(np.nan),
    np.array(np.inf), np.array(-np.inf), np.array([1.0, 2.0, 0.5]),
    np.array([1.0, np.nan, 2.0]), np.array([1.0, np.inf, 2.0]), np.array([1.0, -np.inf, 2.0]),
    np.array([1.0, H_MIN, 2.0]), np.array([1.0, np.nextafter(H_MIN, 1.0), 2.0]),
    np.array([np.inf, 0.0, np.nan]), np.array([2.0, -0.0, np.nan, -np.inf]),
    np.array([[1.0, 1.0], [np.inf, H_MIN]]), np.array([[1.0, -np.inf], [np.nan, 1.0]]),
    np.array([1.0, np.finfo(float).max]), np.array([3, 1, 2]), np.array([3, 0, 2]),
], ids=[
    # written out, so numpy's print options cannot rename them: the names these
    # cases were first listed under (numpy's repr, whitespace runs collapsed)
    "array([], dtype=float64)", "array([], shape=(0, 3), dtype=float64)", "array(1.)",
    "array(1.e-10)", "array(nan)", "array(inf)", "array(-inf)", "array([1. , 2. , 0.5])",
    "array([ 1., nan, 2.])", "array([ 1., inf, 2.])", "array([ 1., -inf, 2.])",
    "array([1.e+00, 1.e-10, 2.e+00])0", "array([1.e+00, 1.e-10, 2.e+00])1",
    "array([inf, 0., nan])", "array([ 2., -0., nan, -inf])",
    "array([[1.e+00, 1.e+00],\n [ inf, 1.e-10]])", "array([[ 1., -inf],\n [ nan, 1.]])",
    "array([1.00000000e+000, 1.79769313e+308])", "array([3, 1, 2])", "array([3, 0, 2])",
])
def test_check_wet_matches_reference(h):
    for arg in (h, h[::-1] if h.ndim else h):  # a reversed view is strided
        assert outcome(check_wet, arg) == outcome(reference_check_wet, arg)


class TestFlux:
    def test_rest_state(self):
        np.testing.assert_array_equal(flux(np.array([1.0, 0.0, 0.0]), params(1)), [0.0, 5.0, 0.0])

    def test_moment_state(self):
        F = flux(np.array([1.0, 1.0, 1.0]), params(1))
        np.testing.assert_allclose(F, [1.0, 1.0 + 1.0 / 3.0 + 5.0, 2.0], rtol=1e-15)

    def test_full_closure_with_zero_moments_matches_linearized(self):
        W = np.array([[2.0, 1.5, 0.0, 0.0], [0.7, -0.3, 0.0, 0.0]])
        F_full = flux(W, params(2, variant=Variant.SWME))
        F_lin = flux(W, params(2))
        np.testing.assert_array_equal(F_full, F_lin)

    def test_plain_shallow_water_reduction(self):
        rng = np.random.default_rng(40)
        W = random_primitive(rng, 100, 0)
        h, um = W[:, 0], W[:, 1]
        F = flux(W, params(0, g=9.81))
        np.testing.assert_array_equal(F[:, 0], h * um)
        np.testing.assert_array_equal(F[:, 1], h * um**2 + 0.5 * 9.81 * h**2)


class TestNonconservative:
    def test_zero_derivatives(self):
        W = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(
            nonconservative_rhs(W, np.zeros(3), params(1)), np.zeros(3)
        )

    def test_linearized_value(self):
        out = nonconservative_rhs(np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.5]), params(1))
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_full_closure_against_triple_loop(self):
        rng = np.random.default_rng(2)
        p = params(2, variant=Variant.SWME)
        B = p.tensors.B
        for _ in range(20):
            W = random_primitive(rng, 1, 2)[0]
            dU = rng.uniform(-1.0, 1.0, 4)
            got = nonconservative_rhs(W, dU, p)
            um, u = W[1], W[2:]
            want = np.zeros(4)
            for i in range(2):
                want[2 + i] = um * dU[2 + i]
                for j in range(2):
                    for k in range(2):
                        want[2 + i] -= B[i, j, k] * u[k] * dU[2 + j]
            np.testing.assert_allclose(got, want, atol=1e-14)


class TestEnergy:
    def test_lake_at_rest(self):
        e, f = energy(np.array([1.0, 0.0, 0.0]), 0.0, 10.0)
        assert e == 5.0 and f == 0.0

    def test_moment_state(self):
        e, f = energy(np.array([1.0, 1.0, 1.0]), 0.0, 10.0)
        assert e == pytest.approx(0.5 + 1.0 / 6.0 + 5.0, rel=1e-15)
        assert f == pytest.approx(11.0, rel=1e-15)

    def test_plain_shallow_water_reduction(self):
        rng = np.random.default_rng(4)
        W = random_primitive(rng, 50, 0)
        b = rng.uniform(0.0, 1.0, 50)
        e, f = energy(W, b, 9.81)
        h, um = W[:, 0], W[:, 1]
        np.testing.assert_array_equal(e, 0.5 * h * um**2 + 0.5 * 9.81 * h**2 + 9.81 * h * b)
        np.testing.assert_array_equal(f, 0.5 * h * um**3 + 9.81 * h * um * (h + b))

    def test_moment_sign_flip_invariance(self):
        rng = np.random.default_rng(5)
        W = random_primitive(rng, 50, 3)
        Wf = W.copy()
        Wf[:, 2:] *= -1.0
        e1, e2 = energy(W, 0.3, 9.81), energy(Wf, 0.3, 9.81)
        np.testing.assert_array_equal(e1.e, e2.e)
        np.testing.assert_array_equal(e1.f, e2.f)
        Wn = W.copy()
        Wn[:, 1] = np.where(W[:, 1] == 0.0, 1.0, W[:, 1])
        Wfn = Wn.copy()
        Wfn[:, 2:] *= -1.0
        np.testing.assert_array_equal(boussinesq_beta(Wn), boussinesq_beta(Wfn))

    def test_convexity_in_conserved_variables(self):
        # numeric Hessian of e(h, q, r) must be positive definite
        rng = np.random.default_rng(6)
        for n in (0, 2):
            p = params(n, g=9.81)
            W = random_primitive(rng, 20, n, h_range=(0.1, 5.0))
            U = to_conserved(W)
            for row in U:
                m = n + 2
                hess = np.empty((m, m))
                steps = 1e-5 * np.maximum(1.0, np.abs(row))
                e0 = energy(to_primitive(row), 0.0, p.g).e
                for a in range(m):
                    for c in range(a, m):
                        pp = row.copy(); pp[a] += steps[a]; pp[c] += steps[c]
                        pm = row.copy(); pm[a] += steps[a]; pm[c] -= steps[c]
                        mp = row.copy(); mp[a] -= steps[a]; mp[c] += steps[c]
                        mm = row.copy(); mm[a] -= steps[a]; mm[c] -= steps[c]
                        val = (
                            energy(to_primitive(pp), 0.0, p.g).e
                            - energy(to_primitive(pm), 0.0, p.g).e
                            - energy(to_primitive(mp), 0.0, p.g).e
                            + energy(to_primitive(mm), 0.0, p.g).e
                        ) / (4.0 * steps[a] * steps[c])
                        hess[a, c] = hess[c, a] = val
                assert np.linalg.eigvalsh(hess).min() > 0.0


class TestEntropyVars:
    def test_rest_state(self):
        q = entropy_vars(np.array([1.0, 0.0, 0.0]), 0.0, 10.0)
        assert q.q1 == 10.0 and q.q2 == 0.0
        np.testing.assert_array_equal(q.q_u, [0.0])

    def test_moment_state(self):
        q = entropy_vars(np.array([1.0, 1.0, 1.0]), 0.0, 10.0)
        assert q.q1 == pytest.approx(-0.5 - 1.0 / 6.0 + 10.0, rel=1e-15)
        assert q.q2 == 1.0
        np.testing.assert_allclose(q.q_u, [1.0 / 3.0], rtol=1e-15)

    def test_gradient_of_energy(self):
        # central differences of e with respect to (h, q, r_i)
        rng = np.random.default_rng(7)
        for n in (0, 1, 4):
            W = random_primitive(rng, 200, n)
            b = rng.uniform(0.0, 1.0, 200)
            U = to_conserved(W)
            q = entropy_vars(W, b, 9.81)
            exact = np.concatenate([q.q1[:, None], q.q2[:, None], q.q_u], axis=1)
            for m in range(n + 2):
                step = 1e-6 * np.maximum(1.0, np.abs(U[:, m]))
                Up, Um = U.copy(), U.copy()
                Up[:, m] += step
                Um[:, m] -= step
                fd = (energy(to_primitive(Up), b, 9.81).e
                      - energy(to_primitive(Um), b, 9.81).e) / (2.0 * step)
                dev = np.abs(fd - exact[:, m]) / np.maximum(1.0, np.abs(exact[:, m]))
                assert dev.max() <= 1e-6


class TestBoussinesq:
    def test_plug_flow(self):
        assert boussinesq_beta(np.array([1.0, 2.0, 0.0, 0.0])) == 1.0

    def test_closed_form_values(self):
        assert boussinesq_beta(np.array([1.0, 1.0, 1.0])) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert boussinesq_beta(np.array([1.0, 1.0, 1.0, 1.0])) == pytest.approx(
            1.0 + 1.0 / 3.0 + 1.0 / 5.0, rel=1e-15
        )

    def test_against_profile_quadrature(self):
        # integrate the squared vertical velocity profile directly
        rng = np.random.default_rng(8)
        for n in (1, 2, 5):
            z, w = gauss_nodes(n + 2)
            table = legvander(1.0 - 2.0 * z, n).T[1:]
            for _ in range(50):
                um = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
                u = rng.uniform(-2.0, 2.0, n)
                profile = um + u @ table
                beta_quad = np.dot(w, profile**2) / um**2
                W = np.concatenate([[1.0, um], u])
                assert boussinesq_beta(W) == pytest.approx(beta_quad, abs=1e-13)

    def test_zero_mean_velocity(self):
        with pytest.raises(ValueError):
            boussinesq_beta(np.array([1.0, 0.0, 1.0]))


# the dense einsum bodies _flux_rows and _path_rows had before the closure
# contractions went through _contract; they must keep their bits.  The flux
# reference squares h itself, as _flux_rows did before it took h_sq.
def reference_flux_rows(h, um, u, T, p, out, h_sq=None):
    out[0] = h * um
    out[1] = h * um**2 + h * T + 0.5 * p.g * h**2
    out[2:] = 2.0 * h * um * u
    if p.variant is Variant.SWME and p.N > 0:
        ul = np.ascontiguousarray(np.moveaxis(u, 0, -1))
        out[2:] += h * np.moveaxis(np.einsum("ijk,...j,...k->...i", p.tensors.A, ul, ul), -1, 0)


def reference_path_rows(um, u, du, p):
    out = um * du
    if p.variant is Variant.SWME and p.N > 0:
        ul = np.ascontiguousarray(np.moveaxis(u, 0, -1))
        dul = np.ascontiguousarray(np.moveaxis(du, 0, -1))
        out -= np.moveaxis(np.einsum("ijk,...k,...j->...i", p.tensors.B, ul, dul), -1, 0)
    return out


def signed_rows(rng, shape):
    """Moment rows of mixed magnitudes 1e-3..1e3 with zeros of both signs, one row all -0.0."""
    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    zeros = rng.random(shape) < 0.25
    x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    x[rng.integers(shape[0])] = -0.0
    return x


# _moment_sum as one state at a time in Python floats, its terms u_i u_i w_i
# added in order from +0.0, and _contract as it was before it gathered its
# terms a chunk of table rows at a time; both must keep these bits
def reference_moment_sum(u):
    w = moment_weights(u.shape[-1]).tolist()
    T = np.zeros(u.shape[:-1])
    for idx in np.ndindex(T.shape):
        total = 0.0
        for x, wi in zip(u[idx].tolist(), w):
            total += x * x * wi
        T[idx] = total
    return T


def reference_contract(terms, x, y):
    coef = terms.coef.reshape(terms.coef.shape + (1,) * (x.ndim - 1))
    out = np.zeros(x.shape)
    term, y_rows = np.empty(x.shape), np.empty(x.shape)
    for c, i, j in zip(coef, terms.xrow, terms.yrow):
        x.take(i, axis=0, out=term, mode="clip")
        term *= c
        y.take(j, axis=0, out=y_rows, mode="clip")
        term *= y_rows
        out += term
    return out


def edge_rows(rng, shape):
    """signed_rows with subnormals and infinities of both signs mixed in."""
    x = signed_rows(rng, shape)
    pick = rng.random(shape)
    x[pick < 0.05] = rng.choice([5e-324, -5e-324, 2.0**-1060, -(2.0**-1060)], (pick < 0.05).sum())
    x[pick > 0.98] = rng.choice([np.inf, -np.inf], (pick > 0.98).sum())
    return x


def solver_moment_rows(rng, n, cells=40):
    """Moment rows (N,) + S in every layout the solver and check hand the kernels."""
    v = edge_rows(rng, (n + 1, 2, cells + 1))  # velocities of both sides of every interface
    flat = edge_rows(rng, (n + 1, cells + 2))  # velocities of the ghost-extended cells
    W = np.zeros((n + 2, cells)).T  # a variables-first (cells, N+2) state
    W[:] = edge_rows(rng, (cells, n + 2))
    C = edge_rows(rng, (cells, n + 2))  # a block of row-major states
    return {"bump": v[1:], "flat": flat[1:], "F-order": W[:, 2:].T, "C block": C[:, 2:].T,
            "C rows": np.ascontiguousarray(C[:, 2:].T), "single": edge_rows(rng, (n,))}


MOMENT_ORDERS = [*range(1, 9), 16, 64]


class TestMomentSum:
    @pytest.mark.parametrize("n", MOMENT_ORDERS)
    def test_bitwise_against_reference_on_every_layout(self, n):
        rng = np.random.default_rng(70 + n)
        for name, rows in solver_moment_rows(rng, n).items():
            u = np.moveaxis(rows, 0, -1)  # moments last, as every caller passes them
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = _moment_sum(u), reference_moment_sum(u)
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", MOMENT_ORDERS)
    def test_within_roundoff_of_the_exact_sum(self, n):
        # two roundings per term and n - 1 adds: |T - exact| <= gamma_(n+1) exact,
        # gamma_k = k u / (1 - k u), the exact sum taken of the stored weights
        rng = np.random.default_rng(60 + n)
        u = np.moveaxis(signed_rows(rng, (n, 50)), 0, -1)
        w = [Fraction(x) for x in moment_weights(n).tolist()]
        unit = np.finfo(float).eps / 2.0
        gamma = (n + 1) * unit / (1.0 - (n + 1) * unit)
        for got, row in zip(_moment_sum(u).tolist(), u.tolist()):
            exact = sum((Fraction(x) ** 2 * wi for x, wi in zip(row, w)), Fraction(0))
            assert abs(Fraction(got) - exact) <= Fraction(gamma) * exact, (got, float(exact))

    def test_no_moments(self):
        for u in (np.empty((7, 0)), np.empty((5, 0)).T[:0].T, np.empty(0)):
            assert _moment_sum(u).tobytes() == np.zeros(u.shape[:-1]).tobytes()

    @pytest.mark.parametrize("n", MOMENT_ORDERS)
    def test_bits_of_the_sum_from_zero(self, n):
        # the sum from the first term against the same in-order sum from +0.0: no
        # term is -0.0, so even zero, infinite and NaN totals keep their bits
        rng = np.random.default_rng(90 + n)
        for name, rows in solver_moment_rows(rng, n).items():
            u = np.moveaxis(rows, 0, -1).copy()
            u[rng.random(u.shape) < 0.03] = np.nan
            u[..., :1][rng.random(u[..., :1].shape) < 0.3] = -0.0
            want = np.zeros(u.shape[:-1])
            with np.errstate(invalid="ignore", over="ignore"):
                for i, w in enumerate(moment_weights(n).tolist()):
                    want += u[..., i] * u[..., i] * w
                got = _moment_sum(u)
            assert got.tobytes() == want.tobytes(), name

    def test_object_array(self):
        # exact fractions sum as objects; from a float buffer the add would raise
        u = np.array([[Fraction(1, 2), Fraction(-1, 3), Fraction(0)],
                      [Fraction(0), Fraction(0), Fraction(3)]], dtype=object)
        T = _moment_sum(u)
        assert T.dtype == object and T.shape == (2,)
        w = moment_weights(3).tolist()
        assert T.tolist() == [Fraction(1, 4) * w[0] + Fraction(1, 9) * w[1] + 0 * w[2],
                              0 * w[0] + 0 * w[1] + 9 * w[2]]


class TestClosureContraction:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bitwise_against_einsum(self, n):
        rng = np.random.default_rng(40 + n)
        t = params(n, variant=Variant.SWME).tensors
        for shape in [(n,), (n, 37), (n, 2, 37)]:
            for _ in range(10):
                u, du = signed_rows(rng, shape), signed_rows(rng, shape)
                ul, dul = np.moveaxis(u, 0, -1), np.moveaxis(du, 0, -1)
                want = np.moveaxis(np.einsum("ijk,...j,...k->...i", t.A, ul, ul), -1, 0)
                assert _contract(t.A_terms, u, u).tobytes() == want.tobytes(), shape
                want = np.moveaxis(np.einsum("ijk,...k,...j->...i", t.B, ul, dul), -1, 0)
                assert _contract(t.B_terms, u, du).tobytes() == want.tobytes(), shape

    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_rows_match_einsum_references(self, variant):
        rng = np.random.default_rng(47)
        for n in range(1, 6):
            p = params(n, g=9.81, variant=variant)
            # the solver's layout: variable axis first, both sides of 40 interfaces
            W = np.moveaxis(random_primitive(rng, 80, n).reshape(2, 40, n + 2), -1, 0)
            W[2:] = signed_rows(rng, W[2:].shape)
            h, um, u = W[0], W[1], W[2:]
            T = _moment_sum(np.moveaxis(u, 0, -1))
            got, want = np.empty_like(W), np.empty_like(W)
            _flux_rows(h, um, u, T, p, got, h**2)
            reference_flux_rows(h, um, u, T, p, want)
            assert got.tobytes() == want.tobytes(), n
            du = signed_rows(rng, u.shape)
            assert (_path_rows(um, u, du, p).tobytes()
                    == reference_path_rows(um, u, du, p).tobytes()), n

    @pytest.mark.parametrize("n", MOMENT_ORDERS)
    def test_bitwise_against_reference_on_every_layout(self, n):
        rng = np.random.default_rng(80 + n)
        t = params(n, variant=Variant.SWME).tensors
        layouts = solver_moment_rows(rng, n)
        for name, u in layouts.items():
            du = edge_rows(rng, u.shape)
            for table, x, y in ((t.A_terms, u, u), (t.B_terms, u, du)):
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = _contract(table, x, y), reference_contract(table, x, y)
                assert got.tobytes() == want.tobytes(), name

    def test_benchmark_shape_is_bitwise(self):
        # run_swme_smooth's order on the bump dam break's interface sides
        rng = np.random.default_rng(89)
        t = params(3, variant=Variant.SWME).tensors
        u, du = signed_rows(rng, (3, 2, 2001)), signed_rows(rng, (3, 2, 2001))
        for table, y in ((t.A_terms, u), (t.B_terms, du)):
            assert _contract(table, u, y).tobytes() == reference_contract(table, u, y).tobytes()

    @pytest.mark.parametrize("budget", [1, 3 * 8 * 16 * 5, BLOCK_BYTES])
    def test_chunks_give_the_bits_of_one_pass(self, monkeypatch, budget):
        # one table row per chunk, a few rows per chunk, and every row in one chunk
        monkeypatch.setattr(swlme.model, "BLOCK_BYTES", budget)
        rng = np.random.default_rng(90)
        t = params(16, variant=Variant.SWME).tensors
        u, du = signed_rows(rng, (16, 5)), signed_rows(rng, (16, 5))
        for table, y in ((t.A_terms, u), (t.B_terms, du)):
            assert _contract(table, u, y).tobytes() == reference_contract(table, u, y).tobytes()

    @pytest.mark.parametrize("cells", [100, 4000])
    def test_memory_is_bounded_by_the_chunk_budget(self, cells):
        # gathered whole, the 1,428 table rows at N = 64 would take 1428 x 2 MiB
        # over 4000 cells; chunked, the terms take one budget (one row if larger)
        t = params(64, variant=Variant.SWME).tensors
        u = smooth_states(cells, 64)[:, 2:].T
        assert len(t.A_terms.coef) * u.nbytes > 16 * BLOCK_BYTES
        tracemalloc.start()
        try:
            _contract(t.A_terms, u, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * BLOCK_BYTES + 3 * u.nbytes, f"{peak / 2**20:.1f} MiB"

    def test_infinite_velocity_skips_zero_coefficients(self):
        # the library-level difference from the dense einsum: 0 * inf is not taken
        t = params(2, variant=Variant.SWME).tensors
        u = np.array([0.0, np.inf])
        with np.errstate(invalid="ignore"):
            got = _contract(t.A_terms, u, u)
            dense = np.einsum("ijk,...j,...k->...i", t.A, u, u)
        assert np.isnan(dense).all()
        assert np.isnan(got[0]) and got[1] == np.inf


# the flux Jacobian and the nonconservative coefficient matrix, built apart as
# quasilinear_matrix did before it filled one buffer; Q must match J - G
def reference_flux_jacobian(W, p):
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h)
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


def reference_ncp_matrix(W, p):
    W = np.asarray(W, dtype=float)
    um, u = W[..., 1], W[..., 2:]
    n = p.n_vars
    G = np.zeros(W.shape[:-1] + (n, n))
    idx = np.arange(2, n)
    G[..., idx, idx] = um[..., None]
    if p.variant is Variant.SWME and p.N > 0:
        G[..., 2:, 2:] -= np.einsum("ijk,...k->...ij", p.tensors.B, u)
    return G


def absolute_terms(W, p):
    """Each entry of Q's sum of the absolute values of its terms (exact zeros left out).

    Q_10 = g h - u_m^2 - sum_i u_i^2 w_i, Q_i0 = -2 u_m u_i - sum_jk A_ijk u_j u_k
    and the moment block u_m I + sum_k u_k (A_ijk + A_ikj + B_ijk), formed as
    J - G by the reference: 2 u_m I + ... minus u_m I - ...; the other
    entries have one term each.
    """
    h, um, u = W[..., 0], np.abs(W[..., 1]), np.abs(W[..., 2:])
    S = np.abs(reference_flux_jacobian(W, p) - reference_ncp_matrix(W, p))
    S[..., 1, 0] = p.g * h + um**2 + (u * u) @ moment_weights(p.N)
    S[..., 2:, 2:] = 3.0 * um[..., None, None] * np.eye(p.N)
    if p.variant is Variant.SWME and p.N > 0:
        A, B = np.abs(p.tensors.A), np.abs(p.tensors.B)
        S[..., 2:, 0] = 2.0 * um[..., None] * u + np.einsum("ijk,...j,...k->...i", A, u, u)
        S[..., 2:, 2:] += np.einsum("ijk,...k->...ij", A + A.transpose(0, 2, 1) + B, u)
    return S


class TestQuasilinear:
    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_matches_jacobian_minus_ncp_matrix(self, variant):
        # Q and the reference J - G add the same terms in different orders and
        # roundings; each entry is within gamma_k sum|terms| of the exact value,
        # k <= N + 4 roundings on either side, so they differ by at most
        # 2 (N + 4) u per unit of the absolute term sum
        rng = np.random.default_rng(8)
        unit = np.finfo(float).eps / 2.0
        for n in range(9):
            p = params(n, g=9.81, variant=variant)
            W = random_primitive(rng, 300, n)
            zeros = rng.random((300, n + 1)) < 0.3
            W[:, 1:][zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
            W[:2, 1:] = [[0.0], [-0.0]]
            for states in (W, W[5], W[:12].reshape(3, 4, n + 2)):
                want = reference_flux_jacobian(states, p) - reference_ncp_matrix(states, p)
                got = quasilinear_matrix(states, p)
                assert got.shape == want.shape
                bound = 2.0 * (n + 4) * unit * absolute_terms(states, p)
                assert np.all(np.abs(got - want) <= bound), (n, states.shape)
            # zero moments: the moment block is u_m I, exactly
            W[:, 2:] = 0.0
            assert np.array_equal(quasilinear_matrix(W, p)[:, 2:, 2:],
                                  W[:, 1, None, None] * np.eye(n))

    @pytest.mark.parametrize("n", [3, 8, 12, 16, 64])
    def test_bits_do_not_depend_on_layout(self, n):
        # solver states are variables-first: the transposed view of (N+2, cells) rows
        p = params(n, g=9.81, variant=Variant.SWME)
        W = random_primitive(np.random.default_rng(n), 200, n)
        rows_first = np.ascontiguousarray(W.T).T
        assert quasilinear_matrix(rows_first, p).tobytes() == quasilinear_matrix(W, p).tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            speeds = [max_wave_speed(V, p, validate=True) for V in (rows_first, W)]
        assert speeds[0].tobytes() == speeds[1].tobytes()

    def test_dry_state(self):
        with pytest.raises(DryStateError):
            quasilinear_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), params(1))

    def test_rest_state_eigenvalues(self):
        Q = quasilinear_matrix(np.array([1.0, 0.0]), params(0))
        lam = np.sort(np.linalg.eigvals(Q).real)
        np.testing.assert_allclose(lam, [-np.sqrt(10.0), np.sqrt(10.0)], rtol=1e-14)

    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_jacobian_against_finite_differences(self, variant):
        # column m of Q: the central difference of the flux along e_m, minus
        # the nonconservative term that dU/dx = e_m produces
        rng = np.random.default_rng(9)
        p = params(2, g=9.81, variant=variant)
        W = random_primitive(rng, 100, 2, h_range=(0.2, 5.0))
        U = to_conserved(W)
        Q = quasilinear_matrix(W, p)
        for m in range(4):
            step = 1e-6 * np.maximum(1.0, np.abs(U[:, m]))
            Up, Um = U.copy(), U.copy()
            Up[:, m] += step
            Um[:, m] -= step
            fd = (flux(to_primitive(Up), p) - flux(to_primitive(Um), p)) / (2.0 * step[:, None])
            want = fd - nonconservative_rhs(W, np.eye(4)[m], p)
            dev = np.abs(want - Q[:, :, m]) / np.maximum(1.0, np.abs(Q[:, :, m]))
            assert dev.max() <= 1e-6

    def test_zero_moments_decouple(self):
        p = params(3)
        W = np.array([2.0, 1.3, 0.0, 0.0, 0.0])
        Q = quasilinear_matrix(W, p)
        # moment rows reduce to u_m on the diagonal
        np.testing.assert_array_equal(Q[2:, :2], np.zeros((3, 2)))
        np.testing.assert_array_equal(Q[2:, 2:], 1.3 * np.eye(3))
        lam = np.linalg.eigvals(Q)
        assert np.sum(np.isclose(lam, 1.3, atol=1e-12)) >= 3


class TestBitsDoNotDependOnTheBatch:
    """A state's moment sum, Q and validated speed are its own, whatever batch it is in."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64])
    def test_moment_sum_and_quasilinear_matrix(self, n):
        rng = np.random.default_rng(90 + n)
        W = random_primitive(rng, 777 if n <= 8 else 50, n)
        T = _moment_sum(W[:, 2:])
        assert all(T[i].tobytes() == _moment_sum(W[i, 2:]).tobytes() for i in range(len(W)))
        p = params(n, g=9.81, variant=Variant.SWME)
        states = W[:50]
        Q = quasilinear_matrix(states, p)
        assert all(Q[i].tobytes() == quasilinear_matrix(states[i], p).tobytes()
                   for i in range(len(states)))

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 16, 64])
    def test_validated_speed(self, n):
        # a validated speed depends on the batch through max(s) alone, so each
        # state is set among the other states scaled by f: f^2 on the depth and
        # f on every velocity scale s by f, and f keeps their s below its own
        rng = np.random.default_rng(100 + n)
        p = params(n, g=9.81, variant=Variant.SWME)
        W = random_primitive(rng, 40 if n <= 16 else 12, n, h_range=(0.1, 3.0),
                             vel_range=(-1.0, 1.0))
        s = max_wave_speed(W, p)
        f = 0.5 * s.min() / s.max()
        others = W.copy()
        others[:, 0] *= f * f
        others[:, 1:] *= f
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            for i in range(len(W)):
                batch = others.copy()
                batch[i] = W[i]
                alone = max_wave_speed(W[i], p, validate=True)
                in_batch = max_wave_speed(batch, p, validate=True)
                rows_first = max_wave_speed(np.ascontiguousarray(batch.T).T, p, validate=True)
                assert np.float64(alone).tobytes() == in_batch[i].tobytes(), i
                assert rows_first.tobytes() == in_batch.tobytes(), i


class TestWaveSpeed:
    def test_rest_state(self):
        assert max_wave_speed(np.array([1.0, 0.0]), params(0)) == pytest.approx(
            np.sqrt(10.0), rel=1e-15
        )

    def test_moment_state_dominates_spectral_radius(self):
        W = np.array([1.0, 0.0, 1.0])
        p = params(1)
        s = max_wave_speed(W, p)
        assert s == pytest.approx(np.sqrt(11.0), rel=1e-15)
        radius = np.abs(np.linalg.eigvals(quasilinear_matrix(W, p))).max()
        assert s >= radius * (1.0 - 1e-12)

    def test_bound_dominates_on_random_states(self):
        rng = np.random.default_rng(10)
        total = 0
        for n in (0, 1, 2, 3, 5):
            p = params(n, g=9.81)
            W = random_primitive(rng, 20000, n)
            s = max_wave_speed(W, p)
            radius = np.abs(np.linalg.eigvals(quasilinear_matrix(W, p))).max(axis=-1)
            assert np.all(radius <= s * (1.0 + 1e-12))
            total += W.shape[0]
        assert total == 100000

    def test_dry_error(self):
        with pytest.raises(DryStateError):
            max_wave_speed(np.array([0.0, 0.0]), params(0))

    def test_overflowed_state_is_named_not_eigen_solved(self):
        # u_m^2 overflows in Q; np.linalg.eigvals would raise LinAlgError on it
        W = random_primitive(np.random.default_rng(13), 10, 3)
        W[4, 1] = 1e200
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DryStateError, match="non-finite quasilinear matrix at cell 4$") as info:
                max_wave_speed(W, params(3, variant=Variant.SWME), validate=True)
        assert info.value.index == (4,)


def full_eigen_wave_speed(W, p):
    """max_wave_speed(W, p, validate=True) as it was before pruning: every state eigen-solved."""
    W = np.asarray(W, dtype=float)
    s = max_wave_speed(W, p)
    radius = np.abs(np.linalg.eigvals(quasilinear_matrix(W, p))).max(axis=-1)
    exceeded = radius > s * (1.0 + 1e-12)
    if np.any(exceeded):
        warnings.warn(f"analytic wave-speed bound exceeded at {int(np.count_nonzero(exceeded))} "
                      "state(s); using the numeric spectral radius", WaveSpeedBoundWarning)
        s = np.maximum(s, radius)
    return float(s) if W.ndim == 1 else s


def certified_wave_speed_reference(W, p):
    """max_wave_speed(W, p, validate=True) as it was before the norm bound: Q and the certificate
    formed for every state, a block at a time, and only the uncertified states eigen-solved."""
    W = np.asarray(W, dtype=float)
    h, um, u = W[..., 0], W[..., 1], W[..., 2:]
    check_wet(h)
    T = _moment_sum(u)
    s = _wave_speed(h, um, T, p.g).reshape(-1)
    n = W.shape[-1]
    cap = np.max(s, initial=0.0)
    size = max(1, swlme.model.BLOCK_BYTES // (8 * n * n))
    states, T = W.reshape(-1, n), T.reshape(-1)
    speeds, cand, radius = np.empty_like(s), [], []
    for start in range(0, max(len(s), 1), size):
        block = slice(start, start + size)
        Q = _quasilinear(states[block], p)
        finite = np.isfinite(Q).all(axis=(1, 2))
        if not finite.all():
            idx = tuple(int(i) for i in np.unravel_index(start + int(np.argmin(finite)),
                                                          W.shape[:-1]))
            raise DryStateError("invalid state: non-finite quasilinear matrix at cell "
                                f"{idx[0] if len(idx) == 1 else idx}", index=idx)
        bound = _spectral_bound(Q, np.sqrt(p.g * states[block, 0]), s[block])
        solve = ~(bound * (1.0 + 1e-10) <= cap)
        cand.append(start + np.flatnonzero(solve))
        radius.append(np.abs(np.linalg.eigvals(Q[solve])).max(axis=-1))
        np.maximum(s[block], bound, out=speeds[block])
    cand, radius = np.concatenate(cand), np.concatenate(radius)
    s_cand = s[cand]
    exceeded = radius > s_cand * (1.0 + 1e-12)
    if np.any(exceeded):
        warnings.warn(f"analytic wave-speed bound exceeded at {int(np.count_nonzero(exceeded))} "
                      "state(s); using the numeric spectral radius", WaveSpeedBoundWarning)
        s_cand = np.maximum(s_cand, radius)
    speeds[cand] = s_cand
    s = speeds.reshape(W.shape[:-1])
    return float(s) if W.ndim == 1 else s


def eigen_solved_states(monkeypatch, fn, *args):
    """(fn(*args), its warning texts, the number of states it handed np.linalg.eigvals)."""
    solved = []
    eigvals = np.linalg.eigvals

    def counted(a):
        solved.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
        return eigvals(a)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", counted)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn(*args)
    return out, [str(w.message) for w in caught], sum(solved)


class TestValidatedWaveSpeed:
    def test_certified_bound_and_maximum_on_random_states(self):
        # moments as large as the mean velocity make the full closure lose
        # hyperbolicity in a good share of the states (complex eigenvalues)
        rng = np.random.default_rng(20)
        complex_states = 0
        for n in (2, 3, 5, 8):
            p = params(n, g=9.81, variant=Variant.SWME)
            for _ in range(25):
                W = random_primitive(rng, 200, n, h_range=(0.1, 3.0), vel_range=(-2.0, 2.0))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", WaveSpeedBoundWarning)
                    s = max_wave_speed(W, p, validate=True)
                    reference = full_eigen_wave_speed(W, p)
                    certified = certified_wave_speed_reference(W, p)
                lam = np.linalg.eigvals(quasilinear_matrix(W, p))
                complex_states += np.count_nonzero(np.any(lam.imag != 0.0, axis=-1))
                assert np.all(s >= np.abs(lam).max(axis=-1) * (1.0 - 1e-12))
                assert np.max(s).tobytes() == np.max(reference).tobytes()
                assert np.max(s).tobytes() == np.max(certified).tobytes()
        assert complex_states > 5000

    def test_tiers_keep_the_warnings_of_the_certified_body(self, monkeypatch):
        # the norm bound clears a state before its Q is built; what it clears
        # the certificate cleared too, or the state could not set the maximum
        rng = np.random.default_rng(22)
        for n in (2, 3, 5, 8):
            p = params(n, g=9.81, variant=Variant.SWME)
            for vel in (0.3, 2.0):
                W = random_primitive(rng, 200, n, h_range=(0.1, 3.0), vel_range=(-vel, vel))
                s, texts, solved = eigen_solved_states(monkeypatch, max_wave_speed, W, p, True)
                ref, ref_texts, ref_solved = eigen_solved_states(
                    monkeypatch, certified_wave_speed_reference, W, p)
                assert np.max(s).tobytes() == np.max(ref).tobytes(), (n, vel)
                assert texts == ref_texts and solved <= ref_solved, (n, vel)

    def test_warning_counts_eigen_solved_states(self):
        p = params(2, variant=Variant.SWME)
        W = np.array([1.0, 0.5, 0.5, 0.5])
        radius = np.abs(np.linalg.eigvals(quasilinear_matrix(W, p))).max()
        assert radius > max_wave_speed(W, p) * (1.0 + 1e-3)
        with pytest.warns(WaveSpeedBoundWarning) as caught:
            s = max_wave_speed(np.stack([W, W, W]), p, validate=True)
        assert [int(re.search(r"exceeded at (\d+) state", str(w.message)).group(1))
                for w in caught] == [3]
        np.testing.assert_array_equal(s, radius)

    def test_single_state_returns_float(self):
        p = params(3, variant=Variant.SWME)
        W = np.array([1.0, 0.3, 0.1, 0.0, 0.2])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            s = max_wave_speed(W, p, validate=True)
            assert type(s) is float
            assert s == max_wave_speed(W[None], p, validate=True)[0]

    def test_shape_follows_leading_axes(self):
        p = params(3, variant=Variant.SWME)
        W = random_primitive(np.random.default_rng(21), 12, 3, vel_range=(-0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            flat = max_wave_speed(W, p, validate=True)
            np.testing.assert_array_equal(max_wave_speed(W.reshape(3, 4, 5), p, validate=True),
                                          flat.reshape(3, 4))


def spectral_radius(W, p):
    """Each state's largest |eigenvalue| of Q, and whether any of its eigenvalues is complex."""
    lam = np.linalg.eigvals(quasilinear_matrix(W, p))
    return np.abs(lam).max(axis=-1), np.any(lam.imag != 0.0, axis=-1)


def norm_bound(W, p):
    """_norm_bound of states W, shape (M, N+2), as max_wave_speed forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm_bound(W, _moment_sum(W[:, 2:]), np.sqrt(p.g * W[:, 0]), p)


class TestNormBound:
    """The norm bound |u_m| + ||D (Q - u_m I) D^-1||_2 needs no Q and bounds the spectral radius."""

    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 16])
    def test_bounds_the_spectral_radius(self, n, variant):
        rng = np.random.default_rng(70 + n)
        p = params(n, g=9.81, variant=variant)
        # subcritical, moments up to the mean velocity's scale
        W = random_primitive(rng, 600, n, h_range=(0.1, 3.0), vel_range=(-2.0, 2.0))
        # supercritical, Froude number up to about 300, moments up to a tenth of u_m
        V = np.empty((400, n + 2))
        V[:, 0] = 10.0 ** rng.uniform(-2.0, 0.5, 400)
        froude = 10.0 ** rng.uniform(0.0, 2.5, 400)
        V[:, 1] = rng.choice([-1.0, 1.0], 400) * froude * np.sqrt(p.g * V[:, 0])
        V[:, 2:] = 0.1 * V[:, 1:2] * rng.uniform(-1.0, 1.0, (400, n))
        V[0, :2] = [1.0, 1000.0]
        W = np.concatenate([W, V])
        assert np.max(np.abs(W[:, 1]) / np.sqrt(p.g * W[:, 0])) > 250.0
        radius, complex_ = spectral_radius(W, p)
        cheap = norm_bound(W, p)
        assert np.all(cheap >= radius * (1.0 - 1e-12)), np.min(cheap / radius)
        if variant is Variant.SWME and n >= 3:
            assert np.count_nonzero(complex_[:600]) > 60  # hyperbolicity lost in a good share

    @pytest.mark.parametrize("n", [2, 3, 8, 16, 64])
    def test_lone_state_keeps_its_batch_bits(self, n):
        # every state of a random SWME batch, in rows and in a variables-first
        # layout, gets the bits alone that it gets in its batch
        p = params(n, g=9.81, variant=Variant.SWME)
        rng = np.random.default_rng(100 + n)
        for size in (2, 7, 33, 200):
            W = random_primitive(rng, size, n, h_range=(0.1, 3.0), vel_range=(-2.0, 2.0))
            W[:, 2:] *= 10.0 ** rng.uniform(-3.0, 0.0, (size, 1))
            batch = norm_bound(W, p)
            assert norm_bound(np.asfortranarray(W), p).tobytes() == batch.tobytes(), size
            for i in range(size):
                assert norm_bound(W[i:i + 1], p).tobytes() == batch[i:i + 1].tobytes(), (size, i)

    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_reads_the_model_tensors(self, monkeypatch, variant):
        # the norm bound of the validated speed forms no closure tensors beyond its model's
        p = params(3, g=9.81, variant=variant)
        swlme.model._norm_factors.cache_clear()
        monkeypatch.setattr(swlme.model, "compute_tensors",
                            lambda *args: pytest.fail("closure tensors formed again"))
        W = random_primitive(np.random.default_rng(72), 50, 3)
        assert np.all(np.isfinite(norm_bound(W, p)))

    def test_rest_state_is_sharp(self):
        # no velocity: Q - u_m I is [[0, 1], [g h, 0]], whose balanced 2-norm is sqrt(g h)
        p = params(3, g=9.81, variant=Variant.SWME)
        W = np.array([[2.0, 0.0, 0.0, 0.0, 0.0]])
        assert norm_bound(W, p)[0] == pytest.approx(np.sqrt(9.81 * 2.0), rel=1e-15)

    @pytest.mark.parametrize("state", [[1.0, 1e200, 0.1, 0.0, 0.2], [1.0, 0.3, 1e200, 0.0, 0.2],
                                       [1.0, 1e154, 1e154, 0.0, 0.0], [1.0, np.inf, 0.1, 0.0, 0.2]])
    def test_overflowing_state_is_never_cleared(self, state):
        # a non-finite Q gives a non-finite norm bound, so max_wave_speed builds
        # that state's Q and names it
        p = params(3, variant=Variant.SWME)
        W = np.array([state])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(_quasilinear(W, p)).all()
        assert not np.isfinite(norm_bound(W, p)[0])

    def test_first_overflowed_state_is_named_beside_an_infinite_speed(self):
        # an infinite velocity makes max(s) inf; only a finite norm bound may
        # clear a state then, so cell 2, whose bound is inf, is still named first
        p = params(3, variant=Variant.SWME)
        W = random_primitive(np.random.default_rng(71), 10, 3)
        W[2, 1], W[6, 1] = 1e200, np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for call in (lambda: max_wave_speed(W, p, validate=True),
                         lambda: certified_wave_speed_reference(W, p)):
                with pytest.raises(DryStateError, match="non-finite quasilinear matrix at cell 2$"):
                    call()


def validated_with_warnings(W, p):
    """(max_wave_speed(W, p, validate=True), the texts of the warnings it issued)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        s = max_wave_speed(W, p, validate=True)
    return s, [str(w.message) for w in caught]


def smooth_states(cells, n):
    """A smooth periodic SWME-like state: most cells are cleared by the certificate."""
    x = np.linspace(0.0, 1.0, cells, endpoint=False)
    W = np.empty((cells, n + 2))
    W[:, 0] = 1.0 + 0.1 * np.sin(2.0 * np.pi * x)
    W[:, 1] = 0.2 * np.cos(2.0 * np.pi * x)
    W[:, 2:] = 0.1 * np.sin(2.0 * np.pi * x)[:, None] / np.arange(1, n + 1)
    return W


class TestBlockedWaveSpeed:
    """The validated speed goes BLOCK_BYTES of quasilinear matrices at a time, bit for bit."""

    @staticmethod
    def states_per_block(monkeypatch, n, states):
        monkeypatch.setattr(swlme.model, "BLOCK_BYTES", 8 * (n + 2) ** 2 * states)

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    @pytest.mark.parametrize("states", [1, 3, 4, 7])
    def test_blocks_give_the_bits_of_one_block(self, monkeypatch, n, states):
        # moments as large as the mean velocity: many states are eigen-solved
        # and some exceed the analytic speed, in some blocks and not others
        p = params(n, g=9.81, variant=Variant.SWME)
        W = random_primitive(np.random.default_rng(60 + n), 61, n, h_range=(0.1, 3.0),
                             vel_range=(-2.0, 2.0))
        for V in (W, np.ascontiguousarray(W.T).T, W[:60].reshape(3, 20, n + 2)):
            whole, whole_warnings = validated_with_warnings(V, p)
            with monkeypatch.context() as patch:
                self.states_per_block(patch, n, states)
                blocked, blocked_warnings = validated_with_warnings(V, p)
            assert blocked.tobytes() == whole.tobytes(), V.shape
            assert blocked_warnings == whole_warnings and len(whole_warnings) <= 1
        assert whole_warnings  # one warning, with the count over every block

    def test_non_finite_state_in_a_later_block_is_named(self, monkeypatch):
        p = params(3, variant=Variant.SWME)
        W = random_primitive(np.random.default_rng(61), 12, 3, vel_range=(-0.5, 0.5))
        W[9, 1] = 1e200  # u_m^2 overflows in Q
        self.states_per_block(monkeypatch, 3, 4)
        for V, cell in ((W, "9"), (W.reshape(3, 4, 5), r"\(2, 1\)")):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with pytest.raises(DryStateError, match=f"quasilinear matrix at cell {cell}$"):
                    max_wave_speed(V, p, validate=True)

    def test_benchmark_state_is_one_block(self):
        # run_swme_smooth: 800 cells at N = 3 take one block, so nothing changes there
        assert 800 * 8 * (3 + 2) ** 2 <= BLOCK_BYTES

    @pytest.mark.parametrize("n, cells", [(16, 4000), (64, 600)])
    def test_memory_does_not_grow_with_the_states(self, n, cells):
        # formed whole, Q and the certificate's two matrix buffers took 30 MiB
        # at N = 16 and 100 MiB at N = 64 (1000 cells)
        p = params(n, g=9.81, variant=Variant.SWME)
        W = smooth_states(cells, n)
        assert cells * 8 * (n + 2) ** 2 > 4 * BLOCK_BYTES
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            max_wave_speed(W, p, validate=True)  # the closure tables are built outside the trace
            tracemalloc.start()
            try:
                max_wave_speed(W, p, validate=True)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 5 * BLOCK_BYTES + 4 * W.nbytes, f"{peak / 2**20:.1f} MiB"


class TestMomentNullity:
    def test_zero_moments_stay_structurally_zero(self):
        p = params(3)
        W = np.array([1.7, -0.8, 0.0, 0.0, 0.0])
        assert np.all(flux(W, p)[2:] == 0.0)
        dU = np.array([0.3, -0.1, 0.0, 0.0, 0.0])
        assert np.all(nonconservative_rhs(W, dU, p) == 0.0)
        assert np.all(entropy_vars(W, 0.0, p.g).q_u == 0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.0, N=1)
    for g in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="gravity"):
            ModelParams(g=g, N=1)
    with pytest.raises(ValueError):
        ModelParams(g=9.81, N=-1)
    # an order above N_MAX is rejected before its 2 N^3 tensor entries are allocated
    for n in (N_MAX + 1, 10**9):
        with pytest.raises(ValueError, match=f"0..{N_MAX}, got {n}"):
            ModelParams(g=9.81, N=n)
    p = ModelParams(g=9.81, N=N_MAX)
    assert p.tensors.order == N_MAX and p.tensors.variant is Variant.SWLME
    # the tensors always follow N and the variant: they are not an argument
    with pytest.raises(TypeError):
        ModelParams(g=9.81, N=2, tensors=p.tensors)


def test_variant_value_is_the_variant():
    # a string variant once stayed a string: the full closure's tensors were
    # built, but every `is Variant.SWME` test read False, so the linearized
    # closure's physics ran
    W = np.array([1.0, 0.3, 0.2, 0.1, 0.05])
    dU = np.array([0.0, 0.0, 0.4, -0.3, 0.2])
    for full in (Variant.SWME, Variant.SWLME):
        by_value = ModelParams(9.81, 3, full.value)
        p = ModelParams(9.81, 3, full)
        assert by_value.variant is full and by_value == p
        for got, want in ((flux(W, by_value), flux(W, p)),
                          (nonconservative_rhs(W, dU, by_value), nonconservative_rhs(W, dU, p)),
                          (quasilinear_matrix(W, by_value), quasilinear_matrix(W, p))):
            assert got.tobytes() == want.tobytes()
    assert flux(W, ModelParams(9.81, 3, "swme"))[2] == pytest.approx(0.1386, abs=5e-5)
    assert flux(W, ModelParams(9.81, 3, "swlme"))[2] == pytest.approx(0.12, abs=1e-12)


@pytest.mark.parametrize("variant", ["classic", "SWME", None, 3])
def test_unknown_variant_names_the_field(variant):
    with pytest.raises(ParameterError, match="known: swlme, swme") as info:
        ModelParams(9.81, 3, variant)
    assert info.value.field == "variant"


@pytest.mark.parametrize("n", [2.0, 2.5, "2", True, None])
def test_non_integral_order_names_the_field(n):
    with pytest.raises(ParameterError, match="N must be an integer") as info:
        ModelParams(9.81, n)
    assert info.value.field == "N"


def test_numpy_integer_order_is_accepted():
    p = ModelParams(9.81, np.int64(3), Variant.SWME)
    assert type(p.N) is int and p == ModelParams(9.81, 3, Variant.SWME)


def test_params_compare_by_gravity_order_and_variant():
    # the computed tensors take no part, so equal parameters compare and hash equal
    a, b = params(3, variant=Variant.SWME), params(3, variant=Variant.SWME)
    assert a == b and hash(a) == hash(b)
    assert a != params(3) and a != params(2, variant=Variant.SWME)
