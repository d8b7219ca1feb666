import numpy as np
import pytest

import swlme.model
import swlme.solver
from swlme.basis import Variant
from swlme.model import (
    DryStateError,
    ModelParams,
    flux,
    max_wave_speed,
    nonconservative_rhs,
    to_primitive,
)
from swlme.solver import (
    Grid1D,
    Scenario,
    apply_boundary,
    cfl_dt,
    initial_condition,
    make_topography,
    pc_rusanov_update,
    run,
    semi_discrete_rhs,
    step,
    well_balanced_source,
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


class TestTopography:
    def test_flat(self):
        topo = make_topography("flat", {}, Grid1D(0.0, 1.0, 8))
        assert np.all(topo.b == 0.0) and np.all(topo.dbdx == 0.0)

    def test_gaussian_slope_consistency(self):
        grid = Grid1D(-4.0, 4.0, 400)
        topo = make_topography("gaussian", {"height": 0.3, "width": 1.5}, grid)
        x = grid.centers
        exact = 0.3 * np.exp(-((x / 1.5) ** 2)) * (-2.0 * x / 1.5**2)
        np.testing.assert_allclose(topo.dbdx[1:-1], exact[1:-1], atol=2e-4)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown topography"):
            make_topography("cliff", {}, Grid1D(0.0, 1.0, 8))


class TestBoundary:
    def test_periodic(self):
        U = np.arange(8.0).reshape(4, 2)
        ext = apply_boundary(U, "periodic")
        np.testing.assert_array_equal(ext[0], U[-1])
        np.testing.assert_array_equal(ext[-1], U[0])

    def test_outflow(self):
        U = np.arange(8.0).reshape(4, 2)
        ext = apply_boundary(U, "outflow")
        np.testing.assert_array_equal(ext[0], U[0])
        np.testing.assert_array_equal(ext[-1], U[-1])

    def test_reflective(self):
        U = np.array([[1.0, 2.0, -1.0]])
        ext = apply_boundary(U, "reflective")
        np.testing.assert_array_equal(ext[0], [1.0, -2.0, 1.0])
        np.testing.assert_array_equal(ext[-1], [1.0, -2.0, 1.0])


class TestCflDt:
    def test_uniform_rest(self):
        sc = scenario(cells=10, ic_params={"h": 1.0})
        U = sc.initial_states()
        dt = cfl_dt(U, sc.grid, sc.params, 0.5)
        assert dt == pytest.approx(0.5 * 0.1 / np.sqrt(10.0), rel=1e-12)

    def test_scaling_with_dx(self):
        sc1 = scenario(cells=10, ic_params={"h": 1.0})
        sc2 = scenario(cells=10, span=(0.0, 2.0), ic_params={"h": 1.0})
        U = sc1.initial_states()
        assert cfl_dt(U, sc2.grid, sc1.params, 0.5) == pytest.approx(
            2.0 * cfl_dt(U, sc1.grid, sc1.params, 0.5), rel=1e-14
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
            assert cfl_dt(with_moments, grid, p, 0.9) < cfl_dt(base, grid, p, 0.9)


class TestRusanovFluctuations:
    def test_consistency(self):
        p = ModelParams(g=10.0, N=1)
        U = np.array([1.3, 0.4, -0.2])
        Dm, Dp = pc_rusanov_update(U, U, p)
        assert np.all(Dm == 0.0) and np.all(Dp == 0.0)

    def test_reduces_to_plain_rusanov(self):
        # independent textbook shallow-water Rusanov splitting
        g = 9.81
        p = ModelParams(g=g, N=0)
        U_L = np.array([1.0, 0.3])
        U_R = np.array([0.6, -0.2])

        def swe_flux(U):
            h, q = U
            return np.array([q, q**2 / h + 0.5 * g * h**2])

        def swe_speed(U):
            h, q = U
            return abs(q / h) + np.sqrt(g * h)

        s = max(swe_speed(U_L), swe_speed(U_R))
        Dm_ref = 0.5 * (swe_flux(U_R) - swe_flux(U_L)) - 0.5 * s * (U_R - U_L)
        Dp_ref = 0.5 * (swe_flux(U_R) - swe_flux(U_L)) + 0.5 * s * (U_R - U_L)
        Dm, Dp = pc_rusanov_update(U_L, U_R, p)
        np.testing.assert_allclose(Dm, Dm_ref, atol=1e-14)
        np.testing.assert_allclose(Dp, Dp_ref, atol=1e-14)

    def test_sum_property(self):
        rng = np.random.default_rng(12)
        p = ModelParams(g=9.81, N=2)
        for _ in range(100):
            U_L = np.concatenate([[rng.uniform(0.2, 2.0)], rng.uniform(-1.0, 1.0, 3)])
            U_R = np.concatenate([[rng.uniform(0.2, 2.0)], rng.uniform(-1.0, 1.0, 3)])
            Dm, Dp = pc_rusanov_update(U_L, U_R, p)
            mean = to_primitive(0.5 * (U_L + U_R))
            P = nonconservative_rhs(mean, U_R - U_L, p)
            dF = flux(to_primitive(U_R), p) - flux(to_primitive(U_L), p)
            np.testing.assert_allclose(Dm + Dp, dF - P, atol=1e-14)


class TestWellBalancing:
    def test_flat_bottom_source_vanishes(self):
        sc = scenario(n=1, cells=20, ic_params={"h": 1.0, "um": 0.5})
        U = sc.initial_states()
        src = well_balanced_source(U, sc.topography, sc.params.g, sc.boundary)
        assert np.all(src == 0.0)

    def test_lake_at_rest_is_fixed_point(self):
        sc = scenario(n=1, g=9.812, cells=100, span=(-5.0, 5.0), ic="lake_at_rest",
                      ic_params={"surface": 1.0}, topo="gaussian",
                      topo_params={"height": 0.2, "width": 1.0}, bc="outflow")
        U = sc.initial_states()
        dt = cfl_dt(U, sc.grid, sc.params, 0.9)
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
    U_ext = apply_boundary(U, sc.boundary)
    b = sc.topography.b
    ghosts = (b[-1], b[0]) if sc.boundary == "periodic" else (b[0], b[-1])
    b_ext = np.concatenate([[ghosts[0]], b, [ghosts[1]]])
    b_star = np.maximum(b_ext[:-1], b_ext[1:])
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


@pytest.mark.parametrize("variant", [Variant.SWLME, Variant.SWME])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_kernel_matches_reference_bitwise(variant, n):
    rng = np.random.default_rng(100 * n + (variant is Variant.SWME))
    p = ModelParams(g=9.81, N=n, variant=variant)
    topographies = [("flat", {}), ("gaussian", {"height": 0.4, "width": 0.8}),
                    ("slope", {"grade": 0.05})]
    for bc in ("periodic", "outflow", "reflective"):
        for topo, topo_params in topographies:
            cells = int(rng.integers(2, 60))
            sc = Scenario(params=p, grid=Grid1D(-2.0, 2.0, cells), ic_name="constant",
                          topo_name=topo, topo_params=topo_params, boundary=bc)
            U = np.empty((cells, n + 2))
            U[:, 0] = rng.uniform(0.5, 2.0, cells)
            U[:, 1:] = U[:, :1] * rng.uniform(-1.5, 1.5, (cells, n + 1))
            got, ref = semi_discrete_rhs(U, sc), reference_rhs(U, sc)
            assert np.array_equal(got, ref), (bc, topo)
            assert got.tobytes() == ref.tobytes(), (bc, topo)  # signs of zero too
            assert got.flags.c_contiguous and not np.shares_memory(got, U)


class TestStep:
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
        h, b = U[:, 0], sc.topography.b
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

    def test_depth_checks_per_step(self, monkeypatch):
        # cell depths and both sides of every interface are validated once
        # per stage, plus once per step for the time step and the summary row
        calls = []
        check = swlme.model.check_wet

        def counted(h, h_min=swlme.model.DEFAULT_H_MIN):
            calls.append(None)
            return check(h, h_min)

        monkeypatch.setattr(swlme.model, "check_wet", counted)
        monkeypatch.setattr(swlme.solver, "check_wet", counted)
        sc = scenario(n=3, g=9.81, cells=60, span=(-5.0, 5.0), ic="dam_break",
                      ic_params={"h_l": 2.0, "h_r": 1.0}, topo="gaussian",
                      bc="reflective", t_end=0.5)
        traj = run(sc)
        steps = len(traj.steps) - 1
        assert traj.failure is None and steps > 10
        assert len(calls) == 8 * steps + 1  # + the summary row of the initial state


class TestRun:
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


def test_scenario_validation():
    with pytest.raises(ValueError):
        scenario(bc="absorbing")
    with pytest.raises(ValueError):
        scenario(cfl=0.0)
    with pytest.raises(ValueError):
        scenario(t_end=-1.0)


def test_with_cells_resamples_topography():
    sc = scenario(cells=50, ic="lake_at_rest", ic_params={"surface": 1.0},
                  topo="gaussian", topo_params={"height": 0.2}, bc="outflow")
    fine = sc.with_cells(100)
    assert fine.grid.cells == 100
    assert fine.topography.b.shape == (100,)
    assert sc.topography.b.shape == (50,)
