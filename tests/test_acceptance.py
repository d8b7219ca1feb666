"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import functools
import time

import numpy as np
from numpy.polynomial.legendre import legvander

from swlme.basis import Variant, compute_tensors
from swlme.diagnostics import (
    SampleStream,
    check_total_energy_identity,
    convergence_study,
    gradient_check_entropy,
    stoker_dam_break,
)
from swlme.model import ModelParams, boussinesq_beta, energy, to_primitive
from swlme.solver import Grid1D, Scenario, run
from test_basis import exact_tensors, gauss_nodes

ORDERS = (0, 1, 2, 3, 5)
GRAVITIES = (1.0, 9.81)
SEED = 20260811


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _samples(n):
    return SampleStream(SEED, 100000, n)


@functools.cache
def _derivation_defects(n):
    """Every identity's defect at both gravities, one pass, shared by criteria 1, 2 and 6."""
    return check_total_energy_identity([_samples(n)], GRAVITIES)[0]


def test_criterion_01_total_energy_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for n in ORDERS:
        for defects in _derivation_defects(n).values():
            worst = max(worst, defects["total energy identity"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 10.0
    _report(1, "total-energy identity", ok,
            f"max defect {worst:.2e} <= 1e-12 over 1e5 samples x N in {ORDERS}, {elapsed:.1f}s")


def test_criterion_02_derivation_chain_identities():
    worst = 0.0
    worst_name = ""
    for n in ORDERS:
        for defects in _derivation_defects(n).values():
            forms = {name: d for name, d in defects.items() if name != "total energy identity"}
            name = max(forms, key=forms.get)
            if forms[name] > worst:
                worst, worst_name = forms[name], name
    ok = worst <= 1e-12
    _report(2, "derivation-chain identities", ok,
            f"max defect {worst:.2e} <= 1e-12 (worst: {worst_name})")


def test_criterion_03_entropy_variables_are_energy_gradient():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for n in ORDERS:
        W = np.empty((1000, n + 2))
        W[:, 0] = rng.uniform(0.1, 10.0, 1000)
        W[:, 1:] = rng.uniform(-3.0, 3.0, (1000, n + 1))
        b = rng.uniform(0.0, 1.0, 1000)
        for g in GRAVITIES:
            worst = max(worst, gradient_check_entropy(W, b, g))
    ok = worst <= 1e-6
    _report(3, "entropy variables = energy gradient", ok,
            f"max relative deviation {worst:.2e} <= 1e-6 on 1e3 states per N")


def test_criterion_04_boussinesq_closed_form():
    # mean velocity away from zero keeps the moment-to-mean ratios O(1)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    count = 0
    for n in (1, 2, 3, 4, 5):
        z, w = gauss_nodes(n + 2)
        table = legvander(1.0 - 2.0 * z, n).T[1:]
        for _ in range(200):
            um = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
            u = rng.uniform(-2.0, 2.0, n)
            profile = um + u @ table
            beta_quad = float(np.dot(w, profile**2)) / um**2
            beta = boussinesq_beta(np.concatenate([[1.0, um], u]))
            worst = max(worst, abs(beta - beta_quad))
            count += 1
    ok = worst <= 1e-13 and count == 1000
    _report(4, "Boussinesq coefficient closed form", ok,
            f"max |closed form - profile quadrature| {worst:.2e} <= 1e-13 on {count} sets")


def test_criterion_05_closure_tensors():
    z, w = gauss_nodes(12)
    table = legvander(1.0 - 2.0 * z, 8).T
    gram = (table * w) @ table.T
    ortho_dev = float(np.abs(gram - np.diag(1.0 / (2.0 * np.arange(9) + 1.0))).max())

    zeros_exact = all(
        np.all(compute_tensors(n, Variant.SWLME).A == 0.0)
        and np.all(compute_tensors(n, Variant.SWLME).B == 0.0)
        for n in (1, 2, 3, 5)
    )

    # every full-closure entry is the correctly rounded exact rational
    A, B = exact_tensors(12)
    inexact = 0
    for n in range(1, 13):
        t = compute_tensors(n, Variant.SWME)
        inexact += int(np.sum(t.A != A[:n, :n, :n]) + np.sum(t.B != B[:n, :n, :n]))

    ok = ortho_dev <= 1e-12 and zeros_exact and inexact == 0
    _report(5, "closure tensors", ok,
            f"orthogonality {ortho_dev:.2e} <= 1e-12, linearized zeros exact: {zeros_exact}, "
            f"exact: {inexact} of the N = 1..12 entries differ from the rounded rationals")


def test_criterion_06_plain_shallow_water_reduction():
    # energy pair at zero moment order equals the two-equation formulas
    rng = np.random.default_rng(SEED)
    W = np.empty((500, 2))
    W[:, 0] = rng.uniform(0.1, 10.0, 500)
    W[:, 1] = rng.uniform(-3.0, 3.0, 500)
    b = rng.uniform(0.0, 1.0, 500)
    g = 9.81
    e, f = energy(W, b, g)
    h, um = W[:, 0], W[:, 1]
    pair_exact = np.array_equal(e, 0.5 * h * um**2 + 0.5 * g * h**2 + g * h * b) and (
        np.array_equal(f, 0.5 * h * um**3 + g * h * um * (h + b))
    )

    identity_dev = max(_derivation_defects(0)[g].values())

    # a zero-moment run must march (h, h u_m) bit-for-bit like the N = 0 run
    ic = {"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.0}
    common = dict(grid=Grid1D(0.0, 1.0, 100), ic_name="smooth_periodic", ic_params=ic,
                  boundary="periodic", t_end=0.5, output_snapshots=5)
    tr0 = run(Scenario(params=ModelParams(g=9.812, N=0), **common))
    tr2 = run(Scenario(params=ModelParams(g=9.812, N=2), **common))
    bitwise = (
        tr0.times == tr2.times
        and all(np.array_equal(a[:, :2], c[:, :2]) for a, c in zip(tr0.snapshots, tr2.snapshots))
        and all(np.all(c[:, 2:] == 0.0) for c in tr2.snapshots)
    )

    ok = pair_exact and identity_dev <= 1e-12 and bitwise
    _report(6, "plain shallow-water reduction", ok,
            f"energy pair exact: {pair_exact}, identity defect {identity_dev:.2e} <= 1e-12, "
            f"zero-moment run bitwise (h, q): {bitwise}")


def test_criterion_07_well_balancing():
    t0 = time.perf_counter()
    sc = Scenario(params=ModelParams(g=9.812, N=2), grid=Grid1D(-5.0, 5.0, 200),
                  ic_name="lake_at_rest", ic_params={"surface": 1.0},
                  topo_name="gaussian", topo_params={"height": 0.2, "width": 1.0},
                  boundary="outflow", t_end=1.0)
    traj = run(sc)
    elapsed = time.perf_counter() - t0
    W = to_primitive(traj.snapshots[-1])
    vel_dev = float(np.abs(W[:, 1:]).max())
    E = traj.steps[:, 3]
    energy_dev = float(np.abs(E - E[0]).max() / E[0])
    ok = traj.failure is None and vel_dev <= 1e-12 and energy_dev <= 1e-12 and elapsed <= 5.0
    _report(7, "well-balanced lake at rest", ok,
            f"max |velocity| {vel_dev:.2e} <= 1e-12, energy drift {energy_dev:.2e} <= 1e-12, "
            f"{elapsed:.1f}s")


def test_criterion_08_conservation():
    sc = Scenario(params=ModelParams(g=9.812, N=1), grid=Grid1D(0.0, 1.0, 100),
                  ic_name="smooth_periodic",
                  ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
                  boundary="periodic", t_end=3.0)
    traj = run(sc)
    steps = len(traj.steps) - 1
    mass = traj.steps[:, 1]
    mom = traj.steps[:, 2]
    mass_drift = float(np.abs(mass - mass[0]).max() / mass[0])
    mom_drift = float(np.abs(mom - mom[0]).max() / abs(mom[0]))
    ok = steps >= 1000 and mass_drift <= 1e-12 and mom_drift <= 1e-12
    _report(8, "mass/momentum conservation", ok,
            f"{steps} steps, mass drift {mass_drift:.2e} <= 1e-12, "
            f"momentum drift {mom_drift:.2e} <= 1e-12")


def test_criterion_09_energy_dissipativity():
    t0 = time.perf_counter()
    losses = []
    monotone = True
    for cells in (100, 200, 400, 800):
        sc = Scenario(params=ModelParams(g=9.812, N=1), grid=Grid1D(0.0, 1.0, cells),
                      ic_name="smooth_periodic",
                      ic_params={"h0": 1.0, "h_amp": 0.1, "um_amp": 0.2, "u_amp": 0.1},
                      boundary="periodic", t_end=0.4)
        traj = run(sc)
        E = traj.steps[:, 3]
        monotone = monotone and bool(np.all(np.diff(E) <= 0.0))
        losses.append(float(E[0] - E[-1]))
    elapsed = time.perf_counter() - t0
    refine_monotone = all(a > b for a, b in zip(losses, losses[1:]))
    ok = monotone and refine_monotone and elapsed <= 30.0
    _report(9, "scheme energy dissipativity", ok,
            f"non-increasing each step: {monotone}, losses {['%.3e' % v for v in losses]} "
            f"decrease with refinement: {refine_monotone}, {elapsed:.1f}s")


def test_criterion_10_dam_break_versus_exact_solution():
    t0 = time.perf_counter()
    sc = Scenario(params=ModelParams(g=9.81, N=0), grid=Grid1D(-5.0, 5.0, 200),
                  ic_name="dam_break", ic_params={"h_l": 1.0, "h_r": 0.1},
                  boundary="outflow", t_end=1.0)
    rows = convergence_study(sc, [200, 400, 800])
    elapsed = time.perf_counter() - t0
    orders = [row[2] for row in rows[1:]]
    orders_ok = all(0.6 <= o <= 1.1 for o in orders)

    fine = sc.with_cells(800)
    h_ref = stoker_dam_break(1.0, 0.1, 9.81, fine.grid.centers, 1.0)[:, 0]
    h_norm = float(np.abs(h_ref).sum() * fine.grid.dx)
    err_ok = rows[-1][1] <= 0.02 * h_norm
    ok = orders_ok and err_ok and elapsed <= 30.0
    _report(10, "dam break versus exact solution", ok,
            f"orders {['%.2f' % o for o in orders]} in [0.6, 1.1], "
            f"L1 error at 800 cells {rows[-1][1]:.3e} <= 2% of {h_norm:.2f}, {elapsed:.1f}s")
