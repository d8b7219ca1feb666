"""Command-line front end: closure tables, identity checks, runs, convergence.

Exit codes: 0 on success, 1 for validation or check failures, 2 for
runtime failures (for example a dry state mid-run).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from swlme.basis import Variant, compute_tensors
from swlme.config import ConfigError, build_scenario, format_config, load_config
from swlme.diagnostics import (
    FreeSample,
    check_skew_forms,
    check_total_energy_identity,
    convergence_study,
    gradient_check_entropy,
)
from swlme.model import energy, to_primitive
from swlme.solver import run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RUNTIME = 2

IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-6
GRAVITIES = (1.0, 9.81)
CSV_CHUNK_ROWS = 256


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


def cmd_coeffs(args) -> int:
    if args.N < 1:
        print(f"error: --N must be >= 1, got {args.N}", file=sys.stderr)
        return EXIT_FAIL
    tensors = compute_tensors(args.N, Variant(args.variant))
    print("i,j,k,A,B")
    for i in range(args.N):
        for j in range(args.N):
            for k in range(args.N):
                print(f"{i+1},{j+1},{k+1},{tensors.A[i,j,k]:.17g},{tensors.B[i,j,k]:.17g}")
    return EXIT_OK


def _check_identities(orders, samples, seed, flux_scale):
    """Worst defects of every identity per moment order; list of result rows."""
    rows = []
    for n in orders:
        rng = np.random.default_rng(seed)
        sample = FreeSample.random(rng, samples, n)
        for g in GRAVITIES:
            value = check_total_energy_identity(sample, g, flux_scale=flux_scale)
            rows.append((n, g, "total energy identity", value, IDENTITY_TOL))
            for name, defect in check_skew_forms(sample, g).items():
                rows.append((n, g, name, defect, IDENTITY_TOL))
    return rows


def _check_gradients(orders, samples, seed):
    rows = []
    for n in orders:
        rng = np.random.default_rng(seed + 1)
        W = np.empty((samples, n + 2))
        W[:, 0] = rng.uniform(0.1, 10.0, samples)
        W[:, 1:] = rng.uniform(-3.0, 3.0, (samples, n + 1))
        b = rng.uniform(0.0, 1.0, samples)
        for g in GRAVITIES:
            rows.append((n, g, "entropy gradient", gradient_check_entropy(W, b, g), GRADIENT_TOL))
    return rows


def cmd_check(args) -> int:
    orders = [int(tok) for tok in args.N.split(",") if tok.strip() != ""]
    if args.samples < 0:
        print("error: --samples must be >= 0", file=sys.stderr)
        return EXIT_FAIL
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("SWLME_SEED", "0"))
    if args.samples == 0:
        print("warning: --samples 0, nothing checked (vacuous pass)")
        return EXIT_OK

    rows = _check_identities(orders, args.samples, seed, args.corrupt_energy_flux)
    rows += _check_gradients(orders, min(args.samples, 1000), seed)

    failures = []
    print(f"{'N':>3}  {'g':>5}  {'check':<24} {'max defect':>12}  {'tolerance':>10}  status")
    for n, g, name, defect, tol in rows:
        status = "pass" if defect <= tol else "FAIL"
        if status == "FAIL":
            failures.append((n, g, name, defect))
        print(f"{n:>3}  {g:>5}  {name:<24} {defect:>12.3e}  {tol:>10.0e}  {status}")
    if failures:
        for n, g, name, defect in failures:
            print(f"FAIL: {name} (N={n}, g={g}): defect {defect:.3e}", file=sys.stderr)
        return EXIT_FAIL
    print(f"all checks passed ({len(rows)} checks, {args.samples} samples, seed {seed})")
    return EXIT_OK


def _write_rows(fh, block: np.ndarray) -> None:
    """Write a 2D array as CSV rows of shortest round-trip floats (the _fmt form).

    Rows are converted a chunk at a time, so no more than CSV_CHUNK_ROWS rows
    of strings are held at once.
    """
    for start in range(0, len(block), CSV_CHUNK_ROWS):
        fh.writelines(",".join(map(repr, row)) + "\n"
                      for row in block[start:start + CSV_CHUNK_ROWS].tolist())


def _write_outputs(scenario, traj, path: str) -> None:
    os.makedirs(path, exist_ok=True)
    x = scenario.grid.centers
    b = scenario.topography.b
    g = scenario.params.g
    n = scenario.params.N
    cols = ["t", "x", "h", "u_m"] + [f"u_{i}" for i in range(1, n + 1)] + ["e"]
    with open(os.path.join(path, "snapshots.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for t, U in zip(traj.times, traj.snapshots):
            W = to_primitive(U)
            _write_rows(fh, np.column_stack([np.full(x.size, t), x, W, energy(W, b, g).e]))
    with open(os.path.join(path, "summary.csv"), "w", encoding="utf-8") as fh:
        fh.write("t,mass,momentum,total_energy\n")
        _write_rows(fh, traj.steps)


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
    except (OSError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    if args.print_config:
        sys.stdout.write(format_config(cfg))
        return EXIT_OK

    traj = run(scenario)
    _write_outputs(scenario, traj, cfg["output.path"])
    final = traj.steps[-1]
    print(
        f"t={_fmt(final[0])} mass={_fmt(final[1])} momentum={_fmt(final[2])} "
        f"total_energy={_fmt(final[3])}"
    )
    if scenario.params.variant is Variant.SWME:
        print("note: energy columns use the linearized-closure energy pair; for the "
              "full closure they are monitored, not certified")
    if traj.failure:
        print(f"error: run failed ({traj.failure}); partial output written to "
              f"{cfg['output.path']}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_converge(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
    except (OSError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip() != ""]
    if len(set(meshes)) != len(meshes):
        print("error: repeated mesh in --meshes; self-reference comparison would be "
              "degenerate (zero error)", file=sys.stderr)
        return EXIT_FAIL
    try:
        rows = convergence_study(scenario, meshes)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print("cells,l1_error,observed_order")
    for cells, err, order in rows:
        print(f"{cells},{_fmt(err)},{'' if order is None else _fmt(order)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="swlme",
        description="Shallow water moment equations: solver, closure tables, and "
                    "energy-identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="print the closure tensors as CSV")
    p_coeffs.add_argument("--N", type=int, required=True, help="moment order (>= 1)")
    p_coeffs.add_argument("--variant", choices=["swlme", "swme"], default="swlme")
    p_coeffs.set_defaults(fn=cmd_coeffs)

    p_check = sub.add_parser("check", help="run the energy identity and gradient suites")
    p_check.add_argument("--N", default="0,1,2,3,5", help="comma-separated moment orders")
    p_check.add_argument("--samples", type=int, default=100000)
    p_check.add_argument("--seed", type=int, default=None,
                         help="RNG seed (default: SWLME_SEED env var or 0)")
    p_check.add_argument("--corrupt-energy-flux", type=float, default=1.0,
                         help=argparse.SUPPRESS)  # negative-control test hook
    p_check.set_defaults(fn=cmd_check)

    p_run = sub.add_parser("run", help="run a scenario config and write CSV output")
    p_run.add_argument("config", help="path to a section.key = value config file")
    p_run.add_argument("--print-config", action="store_true",
                       help="echo the accepted config and exit")
    p_run.set_defaults(fn=cmd_run)

    p_conv = sub.add_parser("converge", help="mesh-refinement study for a config")
    p_conv.add_argument("config")
    p_conv.add_argument("--meshes", required=True, help="comma-separated cell counts")
    p_conv.set_defaults(fn=cmd_converge)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
