import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import swlme.model
import swlme.solver
from swlme.basis import Variant
from swlme.model import (
    H_MIN,
    DryStateError,
    ModelParams,
    ParameterError,
    WaveSpeedBoundWarning,
    flux,
    max_wave_speed,
    nonconservative_rhs,
    to_primitive,
)
from swlme.solver import (
    BOUNDARY_KINDS,
    Grid1D,
    Scenario,
    Trajectory,
    _hydrostatic_correction,
    _interface_states,
    _summary_row,
    apply_boundary,
    cfl_dt,
    initial_condition,
    make_topography,
    run,
    semi_discrete_rhs,
    step,
)
from test_model import (
    certified_wave_speed_reference,
    eigen_solved_states,
    full_eigen_wave_speed,
    outcome,
    reference_check_wet,
    reference_flux_jacobian,
    reference_flux_rows,
    reference_ncp_matrix,
    reference_path_rows,
)


def swme_smooth_scenario(cells, t_end=0.0, **kw):
    """Smooth periodic flow under the full closure, N = 3, with moments."""
    return Scenario(
        params=ModelParams(g=9.81, N=3, variant=Variant.SWME),
        grid=Grid1D(0.0, 1.0, cells), ic_name="smooth_periodic",
        ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
        boundary="periodic", t_end=t_end, **kw,
    )


def scenario(n=0, g=10.0, cells=50, span=(0.0, 1.0), ic="constant", ic_params=None,
             topo="flat", topo_params=None, bc="periodic", t_end=0.0, **kw):
    return Scenario(
        params=ModelParams(g=g, N=n),
        grid=Grid1D(span[0], span[1], cells),
        ic_name=ic, ic_params=ic_params or {},
        topo_name=topo, topo_params=topo_params or {},
        boundary=bc, t_end=t_end, **kw,
    )


class TestGrid:
    def test_centers_and_dx(self):
        g = Grid1D(-1.0, 1.0, 4)
        assert g.dx == 0.5
        np.testing.assert_allclose(g.centers, [-0.75, -0.25, 0.25, 0.75])

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        for bounds in ((np.nan, 1.0), (0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan),
                       (-1e308, 1e308), (-1.7e308, 1e307)):
            with pytest.raises(ValueError, match="finite"):
                Grid1D(*bounds, 10)
        # finite bounds whose difference is inf would make dx inf
        with pytest.raises(ParameterError, match="span x_max - x_min must be finite") as err:
            Grid1D(-1e308, 1e308, 10)
        assert err.value.field == "x_max"
        assert np.isfinite(Grid1D(-8e307, 8e307, 10).dx)  # the largest spans still pass


class TestInitialCondition:
    def test_lake_at_rest(self):
        grid = Grid1D(-3.0, 3.0, 64)
        b = 0.2 * np.exp(-(grid.centers**2))
        U = initial_condition("lake_at_rest", {"surface": 1.0}, grid, 1, b)
        np.testing.assert_array_equal(U[:, 0], 1.0 - b)
        assert np.all(U[:, 1:] == 0.0)

    def test_dam_break(self):
        grid = Grid1D(-1.0, 1.0, 10)
        U = initial_condition("dam_break", {"h_l": 1.0, "h_r": 0.5}, grid, 0, None)
        np.testing.assert_array_equal(U[:5, 0], 1.0)
        np.testing.assert_array_equal(U[5:, 0], 0.5)
        assert np.all(U[:, 1] == 0.0)

    def test_degenerate_smooth_periodic(self):
        grid = Grid1D(0.0, 1.0, 16)
        U = initial_condition(
            "smooth_periodic", {"h0": 2.0, "h_amp": 0.0, "um_amp": 0.0, "u_amp": 0.0},
            grid, 2, None,
        )
        np.testing.assert_array_equal(U[:, 0], 2.0)
        assert np.all(U[:, 1:] == 0.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown initial condition"):
            initial_condition("bore", {}, Grid1D(0.0, 1.0, 4), 0, None)

    def test_nonpositive_depth(self):
        grid = Grid1D(-1.0, 1.0, 8)
        b = np.full(8, 2.0)
        with pytest.raises(ValueError, match="non-positive"):
            initial_condition("lake_at_rest", {"surface": 1.0}, grid, 0, b)

    @pytest.mark.parametrize("name, params", [("lake_at_rest", {"surface": 1.0}),
                                              ("constant", {"h": np.nan})])
    def test_nan_depth(self, name, params):
        # a NaN fails every comparison, so `depth <= 0` alone let it through
        grid = Grid1D(-1.0, 1.0, 8)
        b = np.zeros(8)
        b[3] = np.nan
        with pytest.raises(ParameterError, match="non-positive") as err:
            initial_condition(name, params, grid, 0, b)
        assert err.value.field == "ic_name"

    @pytest.mark.parametrize("name, params, message", [
        ("constant", {"h": 10.0, "um": 1e308}, "momentum = inf at cell 0"),
        ("constant", {"h": 10.0, "u": -1e308}, "moment 1 = -inf at cell 0"),
        ("smooth_periodic", {"h0": 1e308, "h_amp": 1e308}, "depth = inf at cell 1"),
        ("smooth_periodic", {"h0": 2.0, "um_amp": 1e308}, "momentum = inf at cell 1"),
        ("smooth_periodic", {"h0": 2.0, "u_amp": 1e308}, "moment 1 = inf at cell 1"),
    ])
    def test_non_finite_state_rejected(self, name, params, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from the overflow either
            with pytest.raises(ParameterError) as err:
                initial_condition(name, params, Grid1D(0.0, 1.0, 8), 2, np.zeros(8))
        assert str(err.value) == (f"initial condition '{name}' produces a non-finite "
                                  f"{message}")
        assert err.value.field == "ic_name"


class TestTopography:
    def test_flat(self):
        b = make_topography("flat", {}, Grid1D(0.0, 1.0, 8))
        assert b.shape == (8,) and np.all(b == 0.0)
        assert not b.flags.writeable

    def test_gaussian_slope_consistency(self):
        # b follows the formulas and defaults of docs/config.md
        grid = Grid1D(-4.0, 4.0, 400)
        x = grid.centers
        cases = [
            ("gaussian", {"height": 0.3, "width": 1.5, "center": 0.4},
             0.3 * np.exp(-(((x - 0.4) / 1.5) ** 2))),
            ("gaussian", {}, 0.2 * np.exp(-(((x - 0.0) / 1.0) ** 2))),
            ("gaussian", {"width": 2.0}, 0.2 * np.exp(-(((x - 0.0) / 2.0) ** 2))),
            ("slope", {"grade": 0.05}, 0.05 * (x - grid.x_min)),
            ("slope", {}, 0.01 * (x - grid.x_min)),
        ]
        for name, params, b in cases:
            assert np.array_equal(make_topography(name, params, grid), b), (name, params)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topography"):
            make_topography("cliff", {}, Grid1D(0.0, 1.0, 8))

    @pytest.mark.parametrize("name, params, field", [
        ("gaussian", {"width": 0.0}, "topo_width"),  # 0/0 at the centre cell
        ("slope", {"grade": 1e308}, "topo_grade"),  # overflows to inf
    ])
    def test_non_finite_bottom_names_parameter(self, name, params, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match=f"^topography '{name}' gives b = ") as err:
                make_topography(name, params, Grid1D(-5.0, 5.0, 21))
        assert err.value.field == field


class TestBoundary:
    # apply_boundary takes rows: variables on the first axis, cells on the last
    def test_periodic(self):
        X = np.arange(8.0).reshape(2, 4)
        ext = apply_boundary(X, "periodic")
        np.testing.assert_array_equal(ext[:, 1:-1], X)
        np.testing.assert_array_equal(ext[:, 0], X[:, -1])
        np.testing.assert_array_equal(ext[:, -1], X[:, 0])

    def test_outflow(self):
        X = np.arange(8.0).reshape(2, 4)
        ext = apply_boundary(X, "outflow")
        np.testing.assert_array_equal(ext[:, 1:-1], X)
        np.testing.assert_array_equal(ext[:, 0], X[:, 0])
        np.testing.assert_array_equal(ext[:, -1], X[:, -1])

    def test_reflective(self):
        X = np.array([[1.0], [2.0], [-1.0]])
        ext = apply_boundary(X, "reflective")
        np.testing.assert_array_equal(ext[:, 0], [1.0, -2.0, 1.0])
        np.testing.assert_array_equal(ext[:, -1], [1.0, -2.0, 1.0])

    def test_single_row_is_never_negated(self):
        # the bottom is one row: a reflective wall copies its edge cells
        b = np.array([0.5, -0.25, 2.0])
        np.testing.assert_array_equal(apply_boundary(b[None], "reflective")[0],
                                      [0.5, 0.5, -0.25, 2.0, 2.0])

    @pytest.mark.parametrize("kind", BOUNDARY_KINDS)
    def test_matches_cells_first_reference(self, kind):
        U = random_states(np.random.default_rng(3), 9, 2)
        U[4, 2] = -0.0
        ext = apply_boundary(U.T, kind)
        assert ext.flags.c_contiguous and not np.shares_memory(ext, U)
        assert ext.T.tobytes() == reference_boundary(U, kind).tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            apply_boundary(np.ones((2, 3)), "absorbing")


def reference_boundary(U, kind):
    """apply_boundary as it was on cells-first states (cells, N+2), ghost rows appended."""
    ext = np.empty((U.shape[0] + 2,) + U.shape[1:])
    ext[1:-1] = U
    if kind == "periodic":
        ext[0] = U[-1]
        ext[-1] = U[0]
    elif kind == "outflow":
        ext[0] = U[0]
        ext[-1] = U[-1]
    elif kind == "reflective":
        ext[0] = U[0]
        ext[-1] = U[-1]
        ext[0, 1:] *= -1.0
        ext[-1, 1:] *= -1.0
    else:
        raise ValueError(f"unknown boundary kind '{kind}'")
    return ext


class TestCflDt:
    def test_uniform_rest(self):
        sc = scenario(cells=10, ic_params={"h": 1.0})
        U = sc.initial_states()
        dt = cfl_dt(to_primitive(U), sc.grid, sc.params, 0.5)
        assert dt == pytest.approx(0.5 * 0.1 / np.sqrt(10.0), rel=1e-12)

    def test_scaling_with_dx(self):
        sc1 = scenario(cells=10, ic_params={"h": 1.0})
        sc2 = scenario(cells=10, span=(0.0, 2.0), ic_params={"h": 1.0})
        W = to_primitive(sc1.initial_states())
        assert cfl_dt(W, sc2.grid, sc1.params, 0.5) == pytest.approx(
            2.0 * cfl_dt(W, sc1.grid, sc1.params, 0.5), rel=1e-14
        )

    def test_moments_decrease_dt(self):
        rng = np.random.default_rng(11)
        p = ModelParams(g=9.81, N=2)
        grid = Grid1D(0.0, 1.0, 20)
        for _ in range(50):
            h = rng.uniform(0.2, 3.0, 20)
            um = rng.uniform(-2.0, 2.0, 20)
            base = np.zeros((20, 4))
            base[:, 0] = h
            base[:, 1] = h * um
            with_moments = base.copy()
            with_moments[:, 2:] = h[:, None] * rng.uniform(0.1, 1.0, (20, 2))
            assert (cfl_dt(to_primitive(with_moments), grid, p, 0.9)
                    < cfl_dt(to_primitive(base), grid, p, 0.9))

    def test_full_closure_eigen_solves_few_states(self, monkeypatch):
        # regression guard on the pruning: counts states, not seconds
        sc = swme_smooth_scenario(cells=800)
        solved = []
        eigvals = np.linalg.eigvals

        def counted(a):
            solved.append(np.shape(a)[0] if np.ndim(a) == 3 else 1)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            dt = cfl_dt(to_primitive(sc.initial_states()), sc.grid, sc.params, 0.9)
        assert dt > 0.0 and len(solved) == 1
        assert sum(solved) < 0.1 * sc.grid.cells

    def test_full_closure_builds_few_quasilinear_matrices(self, monkeypatch):
        # regression guard on the norm bound: counts states, not seconds, on
        # the states cfl_dt sees in the first steps of the benchmark's flow
        sc = swme_smooth_scenario(cells=800, t_end=0.005)
        seen = []
        real_cfl_dt = swlme.solver.cfl_dt

        def recorded(W, *args, **kwargs):
            seen.append(W.copy())
            return real_cfl_dt(W, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(swlme.solver, "cfl_dt", recorded)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WaveSpeedBoundWarning)
                assert run(sc).failure is None
        assert len(seen) > 10
        built = []
        quasilinear = swlme.model._quasilinear

        def counted(W, p):
            built.append(len(W))
            return quasilinear(W, p)

        for W in seen:
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(swlme.model, "_quasilinear", counted)
                s, texts, solved = eigen_solved_states(monkeypatch, max_wave_speed, W, sc.params,
                                                       True)
            assert sum(built) < 0.15 * sc.grid.cells
            # against the certified body it replaced: the same maximum and warning,
            # and no more eigen-solved states
            ref, ref_texts, ref_solved = eigen_solved_states(
                monkeypatch, certified_wave_speed_reference, W, sc.params)
            assert np.max(s).tobytes() == np.max(ref).tobytes()
            assert texts == ref_texts and solved <= ref_solved

    def test_full_closure_run_matches_full_eigen_solve(self, monkeypatch):
        sc = swme_smooth_scenario(cells=100, t_end=0.05, output_snapshots=4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            pruned = run(sc)
            monkeypatch.setattr(swlme.solver, "max_wave_speed",
                                lambda W, p, validate=False, T=None: full_eigen_wave_speed(W, p))
            reference = run(sc)
        assert pruned.failure is None and len(pruned.steps) > 10
        assert pruned.times == reference.times
        assert np.array_equal(pruned.steps, reference.steps)
        assert all(np.array_equal(a, b) for a, b in zip(pruned.snapshots, reference.snapshots))

    def test_full_closure_run_matches_dense_einsum_contractions(self, monkeypatch):
        # the kernel's flux and path rows and cfl_dt's quasilinear matrix (built by
        # max_wave_speed through model._quasilinear) all contract the closure tensors
        sc = swme_smooth_scenario(cells=64, t_end=0.08, output_every_steps=5)
        built = []

        def dense_quasilinear(W, p):
            built.append(len(W))
            return reference_flux_jacobian(W, p) - reference_ncp_matrix(W, p)

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            sparse = run(sc)
            monkeypatch.setattr(swlme.solver, "_flux_rows", reference_flux_rows)
            monkeypatch.setattr(swlme.solver, "_path_rows", reference_path_rows)
            rows = run(sc)
            monkeypatch.setattr(swlme.model, "_quasilinear", dense_quasilinear)
            dense = run(sc)
        assert sparse.failure is None and len(sparse.steps) > 20
        # the dense flux and path rows keep every bit, dt included
        assert sparse.times == rows.times
        assert sparse.steps.tobytes() == rows.steps.tobytes()
        assert len(sparse.snapshots) == len(rows.snapshots) > 4
        assert all(a.tobytes() == b.tobytes() for a, b in zip(sparse.snapshots, rows.snapshots))
        # Q's moment block sums its terms in another order than the dense einsum, so
        # its entries differ by a few units of roundoff (TestQuasilinear bounds them),
        # and so does each eigen-solved speed and dt.  Over this run's steps that
        # moves the summaries by at most 2.4e-15 relative to each column's scale;
        # 1e-13 leaves a margin of 40, and scaling the moment block's closure terms
        # by 1 + 1e-7 already moves them past it.
        assert sum(built) > 0  # the dense Q is the one cfl_dt used
        assert len(dense.steps) == len(sparse.steps)
        np.testing.assert_allclose(dense.times, sparse.times, rtol=0.0, atol=1e-13 * sc.t_end)
        scale = np.abs(sparse.steps).max(axis=0)
        assert np.all(np.abs(dense.steps - sparse.steps) <= 1e-13 * scale)
        assert len(dense.snapshots) == len(sparse.snapshots)
        for a, b in zip(sparse.snapshots, dense.snapshots):
            assert np.all(np.abs(b - a) <= 1e-13 * np.abs(a).max(axis=0))


def random_states(rng, cells, n, h=(0.2, 2.0), v=(-1.0, 1.0)):
    """Conserved states with depths in h and every velocity in v."""
    U = np.empty((cells, n + 2))
    U[:, 0] = rng.uniform(*h, cells)
    U[:, 1:] = U[:, :1] * rng.uniform(*v, (cells, n + 1))
    return U


class TestRusanovFluctuations:
    """Properties of the Rusanov fluctuations, checked on semi_discrete_rhs."""

    def test_consistency(self):
        # equal states on both sides of every interface: no fluctuation at all
        for variant in (Variant.SWLME, Variant.SWME):
            sc = Scenario(params=ModelParams(g=10.0, N=3, variant=variant),
                          grid=Grid1D(0.0, 1.0, 16), ic_name="constant",
                          ic_params={"h": 1.3, "um": 0.4, "u": -0.2})
            assert np.all(semi_discrete_rhs(sc.initial_states(), sc) == 0.0), variant

    def test_reduces_to_plain_rusanov(self):
        # independent textbook shallow-water Rusanov scheme; dx = 1
        g = 9.81
        U = random_states(np.random.default_rng(12), 30, 0)
        for bc, ext in (("periodic", np.vstack([U[-1:], U, U[:1]])),
                        ("outflow", np.vstack([U[:1], U, U[-1:]]))):
            h, q = ext[:, 0], ext[:, 1]
            F = np.stack([q, q**2 / h + 0.5 * g * h**2], axis=1)
            speed = np.abs(q / h) + np.sqrt(g * h)
            s = np.maximum(speed[:-1], speed[1:])
            F_star = 0.5 * (F[:-1] + F[1:]) - 0.5 * s[:, None] * (ext[1:] - ext[:-1])
            sc = scenario(n=0, g=g, cells=30, span=(0.0, 30.0), bc=bc)
            np.testing.assert_allclose(semi_discrete_rhs(U, sc), -(F_star[1:] - F_star[:-1]),
                                       rtol=0.0, atol=1e-14, err_msg=bc)

    def test_sum_property(self):
        # each interface hands its neighbours F(U_R) - F(U_L) - P in full: on a
        # periodic flat domain the fluxes telescope and the cell updates sum to
        # the path terms of all interfaces
        rng = np.random.default_rng(12)
        for variant in (Variant.SWLME, Variant.SWME):
            p = ModelParams(g=9.81, N=2, variant=variant)
            sc = Scenario(params=p, grid=Grid1D(0.0, 25.0, 25), ic_name="constant")
            for _ in range(20):
                U = random_states(rng, 25, 2)
                U_R = np.roll(U, -1, axis=0)
                P = nonconservative_rhs(to_primitive(0.5 * (U + U_R)), U_R - U, p)
                total = semi_discrete_rhs(U, sc).sum(axis=0) * sc.grid.dx
                np.testing.assert_allclose(total, P.sum(axis=0), rtol=0.0, atol=1e-13)


class TestWellBalancing:
    def test_flat_bottom_source_vanishes(self):
        # the hydrostatic momentum correction is semi_discrete_rhs's only bottom term
        U = random_states(np.random.default_rng(14), 20, 1)
        for bc in ("periodic", "outflow", "reflective"):
            sc = scenario(n=1, cells=20, bc=bc)
            Us = _interface_states(apply_boundary(U.T, bc), *sc.interface_bottom, bc)
            assert np.all(_hydrostatic_correction(Us[0, 0] ** 2, Us[0, 1] ** 2, 9.81) == 0.0), bc

    def test_lake_at_rest_is_fixed_point(self):
        sc = scenario(n=1, g=9.812, cells=100, span=(-5.0, 5.0), ic="lake_at_rest",
                      ic_params={"surface": 1.0}, topo="gaussian",
                      topo_params={"height": 0.2, "width": 1.0}, bc="outflow")
        U = sc.initial_states()
        dt = cfl_dt(to_primitive(U), sc.grid, sc.params, 0.9)
        for _ in range(100):
            U = step(U, dt, sc)
        W = to_primitive(U)
        assert np.abs(W[:, 1]).max() <= 1e-12
        assert np.abs(W[:, 2]).max() <= 1e-12

    def test_rest_state_on_slope_balances(self):
        sc = scenario(n=1, g=9.812, cells=50, span=(0.0, 10.0), ic="lake_at_rest",
                      ic_params={"surface": 1.0}, topo="slope",
                      topo_params={"grade": 0.05}, bc="outflow")
        U = sc.initial_states()
        rhs = semi_discrete_rhs(U, sc)
        assert np.abs(rhs).max() <= 1e-12


def reference_rhs(U, sc):
    """The right-hand side composed from the public (..., N+2) model functions.

    This is the composition the solver used before its structure-of-arrays
    kernel: boundary, hydrostatic states per side, primitives, flux, wave
    speed and path term.  The kernel must reproduce it bit for bit.
    """
    p = sc.params
    U_ext = reference_boundary(U, sc.boundary)
    b_ext, b_star = reference_bottom(sc)
    hs_L = (U_ext[:-1, 0] + b_ext[:-1]) - b_star
    hs_R = (U_ext[1:, 0] + b_ext[1:]) - b_star
    W_L = to_primitive(U_ext[:-1])
    W_R = to_primitive(U_ext[1:])
    Us_L = np.empty_like(W_L)
    Us_L[:, 0] = hs_L
    Us_L[:, 1:] = W_L[:, 1:] * hs_L[:, None]
    Us_R = np.empty_like(W_R)
    Us_R[:, 0] = hs_R
    Us_R[:, 1:] = W_R[:, 1:] * hs_R[:, None]
    Ws_L = to_primitive(Us_L)
    Ws_R = to_primitive(Us_R)
    s = np.maximum(max_wave_speed(Ws_L, p), max_wave_speed(Ws_R, p))
    dUs = Us_R - Us_L
    F_star = 0.5 * (flux(Ws_L, p) + flux(Ws_R, p)) - 0.5 * s[:, None] * dUs
    P = nonconservative_rhs(to_primitive(0.5 * (Us_L + Us_R)), dUs, p)
    dU = -(F_star[1:] - F_star[:-1])
    dU[:, 1] += 0.5 * p.g * (Us_L[1:, 0] ** 2 - Us_R[:-1, 0] ** 2)
    dU += 0.5 * (P[1:] + P[:-1])
    return dU / sc.grid.dx


def reference_bottom(sc):
    """reference_rhs's ghost-extended bottom and b*: the ghosts copy the edge cells
    (periodic wraps), under a reflective wall too."""
    b = sc.topography
    ghosts = (b[-1], b[0]) if sc.boundary == "periodic" else (b[0], b[-1])
    b_ext = np.concatenate([[ghosts[0]], b, [ghosts[1]]])
    return b_ext, np.maximum(b_ext[:-1], b_ext[1:])


@pytest.mark.parametrize("bc", BOUNDARY_KINDS)
@pytest.mark.parametrize("topo", ["gaussian", "slope"])
def test_interface_bottom_matches_reference(bc, topo):
    sc = scenario(cells=17, span=(-2.0, 3.0), topo=topo, bc=bc)
    b = sc.topography
    got, want = sc.interface_bottom, reference_bottom(sc)
    for a, r in zip(got, want):
        assert a.tobytes() == r.tobytes() and not a.flags.writeable
    if bc != "periodic":  # the bottom's ghosts are the edge cells, never negated
        assert (got[0][0], got[0][-1]) == (b[0], b[-1])


@pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_kernel_matches_reference_bitwise(variant, n):
    rng = np.random.default_rng(100 * n + (variant is Variant.SWME))
    p = ModelParams(g=9.81, N=n, variant=variant)
    topographies = [("flat", {}), ("gaussian", {"height": 0.4, "width": 0.8}),
                    ("slope", {"grade": 0.05})]
    for bc in BOUNDARY_KINDS:
        for topo, topo_params in topographies:
            cells = int(rng.integers(2, 60))
            sc = Scenario(params=p, grid=Grid1D(-2.0, 2.0, cells), ic_name="constant",
                          topo_name=topo, topo_params=topo_params, boundary=bc)
            random = np.empty((cells, n + 2))
            random[:, 0] = rng.uniform(0.5, 2.0, cells)
            random[:, 1:] = random[:, :1] * rng.uniform(-1.5, 1.5, (cells, n + 1))
            zero_moments = random.copy()
            zero_moments[:, 2:] = 0.0
            # states whose fluxes, differences and path terms come out exactly zero
            constant = initial_condition("constant", {"h": 1.3, "um": 0.4, "u": -0.2},
                                         sc.grid, n, sc.topography)
            lake = initial_condition("lake_at_rest", {"surface": 1.0}, sc.grid, n,
                                     sc.topography)
            for name, U in [("random", random), ("zero moments", zero_moments),
                            ("constant", constant), ("lake at rest", lake)]:
                got, ref = semi_discrete_rhs(U, sc), reference_rhs(U, sc)
                assert np.array_equal(got, ref), (bc, topo, name)
                assert got.tobytes() == ref.tobytes(), (bc, topo, name)  # signs of zero too
                # variables-first, as every state: contiguous rows of cells
                assert got.T.flags.c_contiguous and not np.shares_memory(got, U)
            assert np.all(semi_discrete_rhs(zero_moments, sc)[:, 2:] == 0.0)


def test_flux_is_evaluated_once_per_distinct_state(monkeypatch):
    # on a flat bottom both faces of a cell carry its state, so the flux rows
    # take one state per ghost-extended cell: about half the interface sides
    shapes = []
    flux_rows = swlme.solver._flux_rows

    def recording(h, *args):
        shapes.append(h.shape)
        return flux_rows(h, *args)

    monkeypatch.setattr(swlme.solver, "_flux_rows", recording)
    for topo, want in (("flat", (33,)), ("gaussian", (2, 32))):
        shapes.clear()
        sc = scenario(n=2, cells=31, span=(-2.0, 2.0), ic_params={"h": 1.0, "um": 0.2},
                      topo=topo, bc="outflow")
        semi_discrete_rhs(sc.initial_states(), sc)
        assert shapes == [want], topo


def interface_sides_only(monkeypatch):
    """Make every new Scenario reconstruct per interface side, as on a non-flat bottom."""
    monkeypatch.setattr(Scenario, "flat_bottom", False)


@pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
@pytest.mark.parametrize("bc", BOUNDARY_KINDS)
def test_zero_bottoms_run_bitwise_as_flat(monkeypatch, variant, bc):
    # a preset whose samples are all zero takes the per-cell path by its
    # samples, not its name; forced onto the per-side path, a flat bottom
    # keeps every bit of the run
    def same_run(a, b):
        return (a.failure is None and b.failure is None and a.times == b.times
                and a.steps.tobytes() == b.steps.tobytes()
                and all(x.tobytes() == y.tobytes() for x, y in zip(a.snapshots, b.snapshots)))

    def make(topo, topo_params):
        return Scenario(params=ModelParams(g=9.81, N=3, variant=variant),
                        grid=Grid1D(-1.0, 1.0, 60), ic_name="smooth_periodic",
                        ic_params={"h_amp": 0.2, "um_amp": 0.3, "u_amp": 0.1},
                        topo_name=topo, topo_params=topo_params, boundary=bc,
                        t_end=0.15, output_every_steps=3)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WaveSpeedBoundWarning)
        flat = run(make("flat", {}))
        assert len(flat.steps) > 10 and len(flat.snapshots) > 3
        for topo, topo_params in (("gaussian", {"height": 0.0}), ("slope", {"grade": 0.0}),
                                  ("gaussian", {"height": -0.0})):
            sc = make(topo, topo_params)
            assert sc.flat_bottom, (topo, topo_params)
            assert same_run(run(sc), flat), (topo, topo_params)
        assert not make("gaussian", {"height": 1e-300}).flat_bottom
        interface_sides_only(monkeypatch)
        assert same_run(run(make("flat", {})), flat)


@pytest.mark.parametrize("bc", BOUNDARY_KINDS)
@pytest.mark.parametrize("cells, depth", [((0,), 0.0), ((5,), 1e-11), ((11,), np.nan),
                                          ((0,), -1.0), ((11,), np.inf), ((3, 8), 0.0)])
def test_dry_cell_named_alike_on_both_paths(monkeypatch, bc, cells, depth):
    def failure():
        sc = scenario(n=2, cells=12, ic_params={"h": 1.0, "um": 0.2, "u": 0.1}, bc=bc)
        U = sc.initial_states()
        U[list(cells), 0] = depth
        with pytest.raises(DryStateError) as info:
            semi_discrete_rhs(U, sc)
        return str(info.value), info.value.index

    flat = failure()
    # the first of equally dry cells, ghosts mapped back to the cell they copy
    assert flat == (f"dry or invalid state at an interface of cell {cells[0]}: h = {depth}",
                    (cells[0],))
    interface_sides_only(monkeypatch)
    assert failure() == flat


@pytest.mark.parametrize("bc", BOUNDARY_KINDS)
def test_dry_right_side_names_its_cell(bc):
    # on a falling bottom the right side of an interface is the one lowered:
    # cell 5's left face reconstructs dry while its own depth and its right
    # face stay wet, so the cell is told from the interface's right side
    sc = scenario(n=1, cells=10, span=(0.0, 10.0), ic_params={"h": 1.0}, topo="slope",
                  topo_params={"grade": -0.1}, bc=bc)
    U = sc.initial_states()
    U[5, 0] = 0.05
    with pytest.raises(DryStateError, match=r"^dry or invalid state at an interface of cell 5: "
                                            r"h = -0\.0499") as info:
        semi_discrete_rhs(U, sc)
    assert info.value.index == (5,)


def reference_check_finite(U):
    """_check_finite's body, which every stage ran before its min/max pass."""
    bad = ~np.isfinite(U[:, 1:])
    if bad.any():
        cell, col = (int(i) for i in np.argwhere(bad)[0])
        name = "momentum" if col == 0 else f"moment {col}"
        raise DryStateError(f"non-finite state: {name} = {U[cell, col + 1]} at cell {cell}",
                            index=(cell,))


def reference_step(U, dt, sc):
    """step as it was before it formed its stages in place: fresh arrays, full checks."""
    def stage(V, k):
        try:
            out = V + dt * swlme.solver.semi_discrete_rhs(V, sc)
            reference_check_finite(out)
            reference_check_wet(out[:, 0])
        except DryStateError as err:
            raise DryStateError(f"stage {k}: {err}", index=err.index) from err
        return out

    U1 = stage(U, 1)
    U2 = 0.75 * U + 0.25 * stage(U1, 2)
    return U / 3.0 + (2.0 / 3.0) * stage(U2, 3)


@pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
@pytest.mark.parametrize("bc", BOUNDARY_KINDS)
def test_step_matches_reference_bitwise(variant, bc):
    rng = np.random.default_rng(7)
    sc = Scenario(params=ModelParams(g=9.81, N=3, variant=variant), grid=Grid1D(-5.0, 5.0, 64),
                  ic_name="dam_break", ic_params={"h_l": 2.0, "h_r": 1.0},
                  topo_name="gaussian", boundary=bc)
    at_rest = sc.initial_states()  # zero velocities: signed zeros all over the update
    moving = at_rest.copy()
    moving[:, 1:] = moving[:, :1] * rng.uniform(-0.3, 0.3, (64, 4))
    for U in (at_rest, moving):
        for _ in range(20):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WaveSpeedBoundWarning)
                dt = cfl_dt(to_primitive(U), sc.grid, sc.params, 0.9)
            before = U.copy()
            got, want = step(U, dt, sc), reference_step(U, dt, sc)
            assert got.tobytes() == want.tobytes()
            assert U.tobytes() == before.tobytes()  # the input is never written
            U = got


# stage results of step(U, 1.0, ...) under a stubbed right-hand side R, which
# equal U + R exactly: (cell, column, value) entries of R, and cells whose depth
# in U is 0.0 (the stub reads nothing, so a dry input is allowed)
STAGE_CASES = {
    "finite": ([], []),
    "nan depth": ([(3, 0, np.nan)], []),
    "+inf depth": ([(3, 0, np.inf)], []),
    "-inf depth": ([(3, 0, -np.inf)], []),
    "depth at H_MIN": ([(3, 0, H_MIN)], [3]),
    "depth just above H_MIN": ([(3, 0, np.nextafter(H_MIN, 1.0))], [3]),
    "large finite values": ([(3, 1, np.finfo(float).max / 4), (4, 2, -np.finfo(float).max / 4)],
                            []),
    "nan momentum after a dry depth": ([(5, 1, np.nan)], [2]),
    "nan momentum before a dry depth": ([(2, 1, np.nan)], [5]),
    "-inf momentum": ([(7, 1, -np.inf)], []),
    "+inf moment and nan depth": ([(4, 3, np.inf), (1, 0, np.nan)], []),
    "nan and -inf moments": ([(6, 2, np.nan), (6, 3, -np.inf), (2, 3, np.nan)], []),
}


@pytest.mark.parametrize("case", STAGE_CASES)
def test_stage_checks_match_reference(monkeypatch, case):
    entries, dry = STAGE_CASES[case]
    sc = scenario(n=2, cells=12, ic_params={"h": 1.0, "um": 0.2})
    U = sc.initial_states()
    U[dry, 0] = 0.0
    R = np.zeros_like(U)
    for cell, col, value in entries:
        R[cell, col] = value
    monkeypatch.setattr(swlme.solver, "semi_discrete_rhs", lambda V, scenario: R.copy())

    def result(step_fn):
        return step_fn(U, 1.0, sc).tobytes()

    with np.errstate(all="ignore"):
        got, want = outcome(result, step), outcome(result, reference_step)
    assert got == want
    assert (got[0] == "pass") == (case in ("finite", "depth just above H_MIN",
                                           "large finite values"))


class TestStep:
    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_states_are_variables_first(self, variant):
        sc = Scenario(params=ModelParams(g=9.81, N=2, variant=variant),
                      grid=Grid1D(-5.0, 5.0, 40), ic_name="dam_break", topo_name="gaussian",
                      boundary="reflective")
        U = sc.initial_states()
        assert U.shape == (40, 4) and len(U) == 40 and U.T.flags.c_contiguous
        for _ in range(3):
            U = step(U, 0.01, sc)
            assert U.shape == (40, 4) and U.T.flags.c_contiguous

    def test_constant_state_unchanged(self):
        sc = scenario(n=1, cells=30, ic_params={"h": 2.0, "um": 0.3, "u": -0.1})
        U = sc.initial_states()
        out = step(U, 0.01, sc)
        np.testing.assert_allclose(out, U, rtol=1e-14, atol=1e-16)

    def test_reproduces_reference_swe_update(self):
        # independent minimal shallow-water Rusanov step as oracle
        g = 9.81
        sc = scenario(n=0, g=g, cells=10, span=(-1.0, 1.0), ic="dam_break",
                      ic_params={"h_l": 1.0, "h_r": 0.5}, bc="outflow")
        U = sc.initial_states()
        dt = 0.01

        def swe_rhs(V):
            ext = np.vstack([V[:1], V, V[-1:]])
            h, q = ext[:, 0], ext[:, 1]
            F = np.stack([q, q**2 / h + 0.5 * g * h**2], axis=1)
            s = np.maximum(
                np.abs(q[:-1] / h[:-1]) + np.sqrt(g * h[:-1]),
                np.abs(q[1:] / h[1:]) + np.sqrt(g * h[1:]),
            )
            F_star = 0.5 * (F[:-1] + F[1:]) - 0.5 * s[:, None] * (ext[1:] - ext[:-1])
            return -(F_star[1:] - F_star[:-1]) / sc.grid.dx

        V1 = U + dt * swe_rhs(U)
        V2 = 0.75 * U + 0.25 * (V1 + dt * swe_rhs(V1))
        ref = U / 3.0 + (2.0 / 3.0) * (V2 + dt * swe_rhs(V2))
        np.testing.assert_allclose(step(U, dt, sc), ref, atol=1e-14)

    def test_zero_moments_stay_exactly_zero(self):
        sc = scenario(n=2, cells=40, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.3, "u_amp": 0.0})
        U = sc.initial_states()
        for _ in range(20):
            U = step(U, 0.002, sc)
            assert np.all(U[:, 2:] == 0.0)

    def test_dry_state_reports_stage_and_cell(self):
        sc = scenario(n=0, cells=40, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.0, "um_amp": 30.0})
        U = sc.initial_states()
        with pytest.raises(DryStateError, match="stage"):
            for _ in range(200):
                U = step(U, 0.005, sc)

    def test_dry_interface_over_bump_names_stage_and_cell(self):
        # every cell is wet, but the water is too shallow to cover the bump's
        # flanks, so reconstructed interface depths are negative
        sc = scenario(n=1, cells=20, span=(-5.0, 5.0), ic_params={"h": 0.05},
                      topo="gaussian", topo_params={"height": 0.3, "width": 1.0,
                                                    "center": 0.7}, bc="outflow")
        U = sc.initial_states()
        h, b = U[:, 0], sc.topography
        b_star = np.maximum(b[:-1], b[1:])
        # cells whose side of some interface reconstructs dry
        dry = set(np.flatnonzero(h[:-1] + b[:-1] - b_star <= 1e-10).tolist()) \
            | set((np.flatnonzero(h[1:] + b[1:] - b_star <= 1e-10) + 1).tolist())
        assert dry and np.all(h > 1e-10)
        with pytest.raises(DryStateError, match=r"^stage 1: .*cell \d+") as info:
            step(U, 1e-3, sc)
        (cell,) = info.value.index  # a cell, not a (side, interface) pair
        assert cell in dry
        assert f"cell {cell}" in str(info.value)

    @pytest.mark.parametrize("bc", ["periodic", "outflow", "reflective"])
    @pytest.mark.parametrize("cell", [0, 7, 11])
    def test_nan_depth_names_its_cell(self, bc, cell):
        sc = scenario(n=2, cells=12, ic_params={"h": 1.0, "um": 0.2}, topo="slope", bc=bc)
        U = sc.initial_states()
        U[cell, 0] = np.nan
        with pytest.raises(DryStateError, match="^stage 1:") as info:
            step(U, 1e-3, sc)
        assert info.value.index == (cell,)

    def test_nan_depth_raises_in_the_stage_it_appears(self, monkeypatch):
        sc = scenario(n=1, cells=16, ic_params={"h": 1.0, "um": 0.2})
        U = sc.initial_states()
        rhs = swlme.solver.semi_discrete_rhs
        calls = []

        def poisoned(V, scenario):
            calls.append(None)
            out = rhs(V, scenario)
            if len(calls) == 2:
                out[5, 0] = np.nan
            return out

        monkeypatch.setattr(swlme.solver, "semi_discrete_rhs", poisoned)
        with pytest.raises(DryStateError, match="^stage 2:") as info:
            step(U, 1e-3, sc)
        assert info.value.index == (5,)

    @pytest.mark.parametrize("col, name", [(1, "momentum"), (3, "moment 2")])
    def test_non_finite_state_names_stage_cell_and_component(self, monkeypatch, col, name):
        # checked before the depths, so the NaN depth of cell 2 is not the one reported
        sc = scenario(n=2, cells=16, ic_params={"h": 1.0, "um": 0.2})
        U = sc.initial_states()
        rhs = swlme.solver.semi_discrete_rhs
        calls = []

        def poisoned(V, scenario):
            calls.append(None)
            out = rhs(V, scenario)
            if len(calls) == 2:
                out[2, 0] = np.nan
                out[5, col] = np.inf
            return out

        monkeypatch.setattr(swlme.solver, "semi_discrete_rhs", poisoned)
        with pytest.raises(DryStateError) as info:
            step(U, 1e-3, sc)
        assert str(info.value) == f"stage 2: non-finite state: {name} = inf at cell 5"
        assert info.value.index == (5,)

    def test_depth_checks_per_step(self, monkeypatch):
        # cell depths and both sides of every interface are validated once
        # per stage, plus once per step for the new state, which serves both
        # its summary row and the next time step
        calls = []
        check = swlme.model.check_wet

        def counted(h):
            calls.append(None)
            return check(h)

        monkeypatch.setattr(swlme.model, "check_wet", counted)
        monkeypatch.setattr(swlme.solver, "check_wet", counted)
        sc = scenario(n=3, g=9.81, cells=60, span=(-5.0, 5.0), ic="dam_break",
                      ic_params={"h_l": 2.0, "h_r": 1.0}, topo="gaussian",
                      bc="reflective", t_end=0.5)
        traj = run(sc)
        steps = len(traj.steps) - 1
        assert traj.failure is None and steps > 10
        assert len(calls) == 7 * steps + 1  # + the initial state


# (snapshots, every_steps, t_end): the original cases keep their ids; the
# others cover no, one and many snapshots, down to a spacing t_end / snapshots
# that underflows to 0.0 (no interior snapshot time), and a spacing of 2
# subnormal units for t_end = 17 units, rounded up so far that 9 * spacing > t_end
SNAPSHOT_CASES = [pytest.param(400, 7, 0.6, id="400-7"), pytest.param(5, 0, 0.6, id="5-0"),
                  pytest.param(3, 2, 0.6, id="3-2"),
                  pytest.param(10, 0, 17 * 5e-324, id="10-0-spacing-rounded-up")] + [
    pytest.param(snapshots, every, t_end, id=f"{snapshots}-{every}-t{t_end!r}")
    for snapshots in (0, 1, 2, 7, 400)
    for every in (0, 3)
    for t_end in (0.0, 5e-324, 1e-320, 1e-300, 0.01, 0.3)
]


class TestRun:
    @pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
    def test_moment_sum_formed_once_per_state(self, monkeypatch, variant):
        # the energy summary and cfl_dt share each state's moment sum; the
        # kernel's sums are over (cells+2, N) views, so they are not counted
        sc = Scenario(params=ModelParams(g=9.81, N=3, variant=variant),
                      grid=Grid1D(0.0, 1.0, 40), ic_name="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
                      boundary="periodic", t_end=0.05)
        per_state = []
        moment_sum = swlme.model._moment_sum

        def counted(u):
            if u.shape == (40, 3):
                per_state.append(None)
            return moment_sum(u)

        for module in (swlme.model, swlme.solver):
            monkeypatch.setattr(module, "_moment_sum", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            traj = run(sc)
        assert traj.failure is None and len(traj.steps) > 5
        assert len(per_state) == len(traj.steps)

    def test_zero_time(self):
        sc = scenario(cells=10, ic_params={"h": 1.0}, t_end=0.0)
        traj = run(sc)
        assert len(traj.snapshots) == 1 and traj.times == [0.0]
        assert traj.steps.shape == (1, 4)
        np.testing.assert_array_equal(traj.snapshots[0], sc.initial_states())

    def test_lake_at_rest_snapshots_static(self):
        sc = scenario(n=1, g=9.812, cells=100, span=(-5.0, 5.0), ic="lake_at_rest",
                      ic_params={"surface": 1.0}, topo="gaussian",
                      topo_params={"height": 0.2}, bc="outflow", t_end=1.0,
                      output_snapshots=4)
        traj = run(sc)
        assert traj.failure is None
        for snap in traj.snapshots[1:]:
            assert np.abs(snap - traj.snapshots[0]).max() <= 1e-12

    def test_exact_landing_on_snapshot_times(self):
        sc = scenario(cells=20, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.05, "um_amp": 0.1},
                      t_end=0.3, output_snapshots=3)
        traj = run(sc)
        expected = [0.0] + [k * (0.3 / 3) for k in (1, 2)] + [0.3]
        assert traj.times == expected  # landed exactly, no accumulated drift
        assert all(b > a for a, b in zip(traj.times, traj.times[1:]))

    def test_every_steps_cadence(self):
        sc = scenario(cells=20, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.05, "um_amp": 0.1},
                      t_end=0.2, output_every_steps=5)
        traj = run(sc)
        assert len(traj.snapshots) > 2

    def test_mass_and_momentum_conservation(self):
        sc = scenario(n=1, g=9.812, cells=100, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
                      t_end=1.0)
        traj = run(sc)
        mass = traj.steps[:, 1]
        mom = traj.steps[:, 2]
        assert np.abs(mass - mass[0]).max() / mass[0] <= 1e-12
        assert np.abs(mom - mom[0]).max() / abs(mom[0]) <= 1e-12

    def test_energy_non_increasing(self):
        sc = scenario(n=1, g=9.812, cells=100, ic="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
                      t_end=0.4)
        traj = run(sc)
        E = traj.steps[:, 3]
        assert np.all(np.diff(E) <= 0.0)

    def test_dry_failure_returns_partial_trajectory(self):
        # fluid leaving a wall faster than 2 sqrt(g h) must pull a vacuum there
        sc = scenario(n=0, cells=40, ic="constant", ic_params={"h": 1.0, "um": 10.0},
                      bc="reflective", t_end=1.0)
        traj = run(sc)
        assert traj.failure is not None and "dry" in traj.failure
        assert "stage" in traj.failure and "cell" in traj.failure
        assert len(traj.snapshots) >= 1 and len(traj.steps) >= 1

    def test_time_step_underflow_returns_partial_trajectory(self, monkeypatch):
        monkeypatch.setattr(swlme.solver, "cfl_dt", lambda *args, **kwargs: 0.0)
        sc = scenario(cells=10, ic_params={"h": 1.0}, t_end=1.0)
        traj = run(sc)
        assert traj.failure == "time step underflow at t = 0.0"
        assert traj.times == [0.0] and traj.steps.shape == (1, 4)

    def test_step_limit_returns_partial_trajectory(self, monkeypatch):
        # time.cfl = 1e-300 passes validation under outflow (no up-front step bound there)
        # and would take about 1e301 steps
        monkeypatch.setattr(swlme.solver, "MAX_STEPS", 4)
        sc = scenario(cells=10, ic_params={"h": 1.0}, bc="outflow", t_end=1.0, cfl=1e-300)
        traj = run(sc)
        t = traj.steps[-1, 0]
        assert traj.failure == f"step limit of 4 steps reached at t = {t}"
        assert traj.steps.shape == (5, 4) and 0.0 < t < sc.t_end
        assert traj.times == [0.0]

    def test_step_limit_allows_exactly_max_steps(self, monkeypatch):
        sc = scenario(n=1, cells=20, ic="dam_break", t_end=0.2)
        steps = len(run(sc).steps) - 1
        monkeypatch.setattr(swlme.solver, "MAX_STEPS", steps)
        assert run(sc).failure is None
        monkeypatch.setattr(swlme.solver, "MAX_STEPS", steps - 1)
        assert run(sc).failure.startswith(f"step limit of {steps - 1} steps reached at t = ")

    @pytest.mark.parametrize("bc", ["periodic", "reflective"])
    def test_step_bound_rejects_t_end_up_front(self, monkeypatch, bc):
        # mass is conserved, so no dt exceeds cfl dx / sqrt(g mean(h0)): a t_end that needs
        # more than MAX_STEPS such steps is rejected when the scenario is made
        sc = scenario(n=1, cells=20, ic="dam_break", bc=bc, t_end=0.2)
        needed = sc.t_end * np.sqrt(sc.params.g * sc.initial_states()[:, 0].mean()) / (
            sc.cfl * sc.grid.dx)
        assert 5.0 < needed <= len(run(sc).steps) - 1  # the bound holds on the run
        monkeypatch.setattr(swlme.solver, "MAX_STEPS", int(needed))
        with pytest.raises(ParameterError, match=f"^t_end = 0.2 needs more than MAX_STEPS = "
                                                 f"{int(needed)} steps: with {bc} walls") as err:
            dataclasses.replace(sc)
        assert err.value.field == "t_end"
        with pytest.raises(ParameterError, match="^t_end = 0.2 needs"):
            sc.with_cells(40)
        # outflow lets mass leave: no bound up front
        assert dataclasses.replace(sc, boundary="outflow").t_end == 0.2
        monkeypatch.setattr(swlme.solver, "MAX_STEPS", int(needed) + 1)
        assert dataclasses.replace(sc).t_end == 0.2

    def test_step_bound_at_extreme_values(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by zero or overflow on the way
            # cfl dx underflows to 0, or g mean(h0) overflows: no step can reach t_end
            with pytest.raises(ParameterError, match="^t_end = 1.0 needs more than MAX_STEPS"):
                scenario(t_end=1.0, cfl=5e-324)
            with pytest.raises(ParameterError, match=r"sqrt\(g mean\(h0\)\) = 0$"):
                scenario(g=1e308, ic_params={"h": 10.0}, t_end=1.0)
            assert scenario(t_end=0.0, cfl=5e-324).t_end == 0.0
            # sqrt(g mean(h0)) underflows to 0: the bound says nothing
            assert scenario(g=5e-324, ic_params={"h": 0.1}, t_end=1e300).t_end == 1e300

    @pytest.mark.parametrize("snapshots, every, t_end", SNAPSHOT_CASES)
    def test_snapshot_targets_match_reference(self, snapshots, every, t_end):
        sc = scenario(n=1, g=9.81, cells=16, span=(-5.0, 5.0), ic="dam_break",
                      ic_params={"h_l": 2.0, "h_r": 1.0}, topo="gaussian", bc="reflective",
                      t_end=t_end, output_snapshots=snapshots, output_every_steps=every)
        got, want = run(sc), reference_run(sc)
        assert got.failure is None and want.failure is None
        assert got.times == want.times
        assert got.times[-1] == sc.t_end
        spacing = t_end / snapshots if snapshots else 0.0
        if 0.0 < spacing and (snapshots - 1) * spacing < t_end:  # distinct interior times
            assert len(got.times) >= snapshots + 1
        assert got.steps.tobytes() == want.steps.tobytes()
        assert len(got.snapshots) == len(want.snapshots)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got.snapshots, want.snapshots))

    def test_snapshot_count_costs_no_memory(self, monkeypatch):
        """The snapshot times are formed as they are reached, not all before the first step."""
        class Discard:
            def record(self, state):
                pass

            def finish(self, failure):
                return failure

        def traced_peak(snapshots):
            # outflow: between periodic walls the step bound would reject t_end up front
            sc = scenario(n=1, cells=16, ic="dam_break", bc="outflow", t_end=0.6,
                          output_snapshots=snapshots)
            gc.collect()
            tracemalloc.start()
            try:
                assert run(sc, Discard()).startswith("step limit of 3 steps")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(swlme.solver, "MAX_STEPS", 3)
        traced_peak(10)  # first-call allocations out of the way
        few, many = traced_peak(10), traced_peak(10**6)
        # every target up front took about 100 MB at 10^6 snapshots
        assert many <= few + 16 * 1024, (few, many)

    def test_dry_failure_names_cell_as_int(self):
        sc = scenario(n=0, cells=40, ic="constant", ic_params={"um": 10.0},
                      bc="reflective", t_end=1.0)
        traj = run(sc)
        assert traj.failure.startswith("stage ")
        assert traj.failure.endswith("at cell 0")

    def test_overflowed_swme_state_is_a_recorded_failure(self):
        # u_m ~ 1e200 overflows the quasilinear matrix, which cannot be eigen-solved
        sc = Scenario(params=ModelParams(g=9.81, N=3, variant=Variant.SWME),
                      grid=Grid1D(0.0, 1.0, 20), ic_name="smooth_periodic",
                      ic_params={"um_amp": 1e200}, t_end=0.1)
        with pytest.warns(RuntimeWarning, match="overflow"):
            traj = run(sc)
        assert traj.failure == "invalid state: non-finite quasilinear matrix at cell 0"
        assert traj.times == [0.0] and traj.steps.shape == (1, 4)


def reference_run(scenario):
    """run's loop as it was before the step limit, scanning every target per step."""
    p = scenario.params
    grid = scenario.grid
    b = scenario.topography
    U = scenario.initial_states()
    targets = {scenario.t_end}
    if scenario.output_snapshots > 0:
        k = np.arange(1, scenario.output_snapshots)
        targets.update((k * (scenario.t_end / scenario.output_snapshots)).tolist())
    targets = sorted(targets)
    t = 0.0
    times = [0.0]
    snapshots = [U.copy()]
    W = to_primitive(U)
    rows = [_summary_row(t, U, W, b, p.g, grid.dx, snapshot=False).summary]
    failure = None
    n_steps = 0
    while t < scenario.t_end:
        next_target = min(x for x in targets if x > t)
        try:
            dt = cfl_dt(W, grid, p, scenario.cfl)
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
        t = next_target if landed else t + dt
        n_steps += 1
        W = to_primitive(U)
        rows.append(_summary_row(t, U, W, b, p.g, grid.dx, snapshot=False).summary)
        want_snap = landed or (
            scenario.output_every_steps > 0 and n_steps % scenario.output_every_steps == 0
        )
        if want_snap and t > times[-1]:
            times.append(t)
            snapshots.append(U.copy())
    return Trajectory(times=times, snapshots=snapshots, steps=np.array(rows), failure=failure)


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(bc="absorbing")
    with pytest.raises(ValueError):
        scenario(cfl=0.0)
    with pytest.raises(ValueError):
        scenario(t_end=-1.0)
    # constructed only: a run with t_end = inf would never end
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_end"):
            scenario(t_end=bad)
        with pytest.raises(ValueError, match="cfl"):
            scenario(cfl=bad)


@pytest.mark.parametrize("field, kw", [
    ("cells", {"cells": 10.5}),
    ("cells", {"cells": 10.0}),
    ("output_every_steps", {"output_every_steps": 1.5}),
    ("output_snapshots", {"output_snapshots": 2.5}),
    ("output_snapshots", {"output_snapshots": "4"}),
])
def test_non_integral_counts_name_their_field(field, kw):
    # 10.5 cells once gave 11 centres at dx = 1/10.5, 1.5 a snapshot every
    # third step and 2.5 snapshots four
    with pytest.raises(ParameterError, match=f"{field} must be an integer") as info:
        scenario(**kw)
    assert info.value.field == field


def test_numpy_integer_counts_are_accepted():
    sc = scenario(cells=np.int64(12), output_every_steps=np.int32(2),
                  output_snapshots=np.uint8(3))
    assert (sc.grid.cells, sc.output_every_steps, sc.output_snapshots) == (12, 2, 3)
    assert all(type(v) is int for v in (sc.grid.cells, sc.output_every_steps,
                                        sc.output_snapshots))


def test_variant_value_runs_the_full_closure():
    # a string variant once ran the linearized closure's physics
    def final(variant):
        sc = Scenario(params=ModelParams(9.81, 3, variant), grid=Grid1D(0.0, 1.0, 32),
                      ic_name="smooth_periodic", ic_params={"um_amp": 0.2, "u_amp": 0.1},
                      t_end=0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WaveSpeedBoundWarning)
            return run(sc).steps
    assert final("swme").tobytes() == final(Variant.SWME).tobytes()
    assert final("swme").tobytes() != final(Variant.SWLME).tobytes()


def test_with_cells_resamples_topography():
    sc = scenario(cells=50, ic="lake_at_rest", ic_params={"surface": 1.0},
                  topo="gaussian", topo_params={"height": 0.2}, bc="outflow")
    fine = sc.with_cells(100)
    assert fine.grid.cells == 100
    assert fine.topography.shape == (100,)
    assert sc.topography.shape == (50,)


def test_scenario_is_frozen():
    sc = scenario(cells=10)
    for name, value in (("t_end", 1.0), ("topo_name", "slope"), ("topo_params", {}),
                        ("grid", Grid1D(0.0, 1.0, 20))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sc, name, value)
    with pytest.raises(TypeError):
        sc.ic_params["h"] = 2.0


def test_scenario_keeps_resolved_copies_of_its_params():
    ic_params, topo_params = {"surface": 1.0}, {"height": 0.2}
    sc = scenario(cells=50, span=(-5.0, 5.0), ic="lake_at_rest", ic_params=ic_params,
                  topo="gaussian", topo_params=topo_params, bc="outflow")
    assert sc.ic_params == {"surface": 1.0}
    assert sc.topo_params == {"height": 0.2, "width": 1.0, "center": 0.0}
    b = make_topography("gaussian", {"height": 0.2}, sc.grid)
    U0 = initial_condition("lake_at_rest", {"surface": 1.0}, sc.grid, 0, b)
    # mutated before the bottom is first sampled, and again after
    topo_params["height"] = 0.5
    ic_params["surface"] = 2.0
    assert np.array_equal(sc.topography, b)
    topo_params["width"] = 3.0
    assert np.array_equal(sc.topography, b)
    assert np.array_equal(sc.initial_states(), U0)
    assert not sc.topography.flags.writeable
