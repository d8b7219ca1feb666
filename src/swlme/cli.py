"""Command-line front end: closure tables, identity checks, runs, convergence.

Exit codes: 0 on success, 1 for validation or check failures, 2 for
runtime failures (for example a dry state, a time-step underflow, a
failed write mid-run, a lost worker process, or a failed write or flush of
standard output: a closed pipe, a full disk or a standard output closed
before the start, reported in one stderr line without a traceback).

`run` opens its output files before the first step and streams into them:
solver.run hands the StateRecord of every state to a _CsvSink, which writes
it (in _write_outputs) and keeps only the last summary, so the command's
memory does not grow with the number of steps or snapshots; summary.csv's
columns and the final line follow solver.SUMMARY_FIELDS.  Snapshots between
t = 0 and t_end are formatted in a writer process, as `check` and `converge`
share their work with one; swlme._worker forks and reaps every such worker.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import errno
import os
import pickle
import sys

import numpy as np

from swlme._worker import start
from swlme.basis import Variant, compute_tensors
from swlme.config import ConfigError, build_scenario, config_key, format_config, load_config
from swlme.diagnostics import (
    SampleStream,
    check_total_energy_identity,
    convergence_study,
    gradient_check_entropy,
)
from swlme.model import N_MAX, ParameterError
from swlme.solver import SUMMARY_FIELDS, StateRecord, run

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_RUNTIME = 2

IDENTITY_TOL = 1e-12
GRADIENT_TOL = 1e-6
GRAVITIES = (1.0, 9.81)
CSV_CHUNK_ROWS = 256
# bounds the work one `check` order may ask for: the bytes its sample would take if
# drawn whole (SampleStream.nbytes).  It is drawn block by block, so memory is bounded
# by diagnostics._BLOCK.
CHECK_SAMPLE_BYTES = 1 << 30


def _keep_heap_slack() -> None:
    """Keep 64 MiB of freed heap mapped (glibc's mallopt M_TOP_PAD; a no-op elsewhere).

    Solver steps and identity blocks reallocate the same temporaries.  Whether
    glibc returns them to the system in between, to fault them in again,
    follows the heap layout, not the work: one converge run took 5k or 190k
    minor faults, and up to a quarter more time.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-2, 64 << 20)  # M_TOP_PAD


class _StdoutError(Exception):
    """A write or flush of standard output failed; the message says how."""


class _Stdout:
    """sys.stdout while a command runs: a failed write or flush raises _StdoutError."""

    def __init__(self, stream):
        self.stream = stream

    def __getattr__(self, name):
        return getattr(self.stream, name)

    def _guarded(self, method, *args):
        try:
            if self.stream is None:  # Python's sys.stdout when it started with fd 1 closed
                raise OSError(errno.EBADF, "standard output is closed")
            return getattr(self.stream, method)(*args)
        except OSError as err:
            raise _StdoutError(f"writing standard output failed: {err}") from err

    def write(self, text):
        return self._guarded("write", text)

    def writelines(self, lines):
        return self._guarded("writelines", lines)

    def flush(self):
        if self.stream is not None:  # closed from the start, only a write fails
            self._guarded("flush")


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so its buffer cannot fail again at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stream without a file descriptor
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal form."""
    return repr(float(value))


def cmd_coeffs(args) -> int:
    if not 1 <= args.N <= N_MAX:
        print(f"error: --N must be in 1..{N_MAX}, got {args.N}", file=sys.stderr)
        return EXIT_FAIL
    tensors = compute_tensors(args.N, Variant(args.variant))
    A, B = tensors.A.tolist(), tensors.B.tolist()  # Python floats: repr is the _fmt form
    print("i,j,k,A,B")
    for i, (A_i, B_i) in enumerate(zip(A, B), start=1):
        for j, (A_ij, B_ij) in enumerate(zip(A_i, B_i), start=1):
            sys.stdout.writelines(f"{i},{j},{k},{a!r},{b!r}\n"
                                  for k, (a, b) in enumerate(zip(A_ij, B_ij), start=1))
    return EXIT_OK


def _check_identities(orders, samples, seed):
    """Worst defects of every identity per moment order; list of result rows."""
    rows = []
    for n in orders:
        # the seeded sample, each block drawn where it is checked
        sample = SampleStream(seed, samples, n)
        for g, defects in check_total_energy_identity(sample, GRAVITIES).items():
            rows += [(n, g, name, defect, IDENTITY_TOL) for name, defect in defects.items()]
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


def _parse_orders(text: str) -> list:
    """Moment orders of a comma-separated --N list; ValueError names the flag."""
    try:
        orders = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"--N must be comma-separated integers, got {text!r}") from None
    if not orders:
        raise ValueError(f"--N names no moment order, got {text!r}")
    if not 0 <= min(orders) <= max(orders) <= N_MAX:
        raise ValueError(f"--N orders must be in 0..{N_MAX}, got {text!r}")
    if len(set(orders)) != len(orders):
        raise ValueError(f"--N repeats a moment order, got {text!r}")
    return orders


def _parse_seed(seed) -> int:
    """The --seed value, else SWLME_SEED, else 0; ValueError names the source."""
    source = "--seed"
    if seed is None:
        source, text = "SWLME_SEED", os.environ.get("SWLME_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"SWLME_SEED must be an integer, got {text!r}") from None
    if seed < 0:
        raise ValueError(f"{source} must be >= 0, got {seed}")
    return seed


def cmd_check(args) -> int:
    try:
        orders = _parse_orders(args.N)
        seed = _parse_seed(args.seed)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    if args.samples < 0:
        print("error: --samples must be >= 0", file=sys.stderr)
        return EXIT_FAIL
    n = max(orders)
    per_sample = SampleStream.nbytes(1, n)
    if args.samples * per_sample > CHECK_SAMPLE_BYTES:
        print(f"error: --samples {args.samples} exceeds {CHECK_SAMPLE_BYTES // per_sample} at "
              f"N={n}: a sample takes {per_sample} bytes, and one order's samples at most "
              f"{CHECK_SAMPLE_BYTES} bytes", file=sys.stderr)
        return EXIT_FAIL
    if args.samples == 0:
        print("warning: --samples 0, nothing checked (vacuous pass)")
        return EXIT_OK

    try:
        rows = _check_identities(orders, args.samples, seed)
    except RuntimeError as err:  # a lost worker process
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
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


class _CsvSink:
    """The run sink of `swlme run`: appends each record to the CSV files as it arrives.

    Opening it creates output.path and both files, with their headers, so an
    unwritable path fails before the first step.  Only the last summary is
    kept, without arrays.  If the scenario has snapshots between t = 0 and
    t_end, a writer process (swlme._worker.start) owns snapshots.csv: each
    snapshot's block goes to it through a pipe, one pickled message per
    os.write, and it formats the rows while the run takes its next steps; a
    full pipe holds back one message, so memory does not grow with the
    snapshots.  finish and __exit__ close the pipe and reap the writer, and
    raise what it raised there or at the next snapshot (RuntimeError if it
    was lost).  Used as a context manager, which closes the files.
    """

    def __init__(self, scenario, path: str):
        os.makedirs(path, exist_ok=True)
        n = scenario.params.N
        cols = ["t", "x", "h", "u_m"] + [f"u_{i}" for i in range(1, n + 1)] + ["e"]
        # the x column is the same every snapshot
        self.x_texts = [_fmt(x) + "," for x in scenario.grid.centers.tolist()]
        self.last = None
        self.writer = None  # the writer process, if there is one
        with contextlib.ExitStack() as files:
            self.snapshots = files.enter_context(
                open(os.path.join(path, "snapshots.csv"), "w", encoding="utf-8"))
            self.summary = files.enter_context(
                open(os.path.join(path, "summary.csv"), "w", encoding="utf-8"))
            self.snapshots.write(",".join(cols) + "\n")
            self.summary.write(",".join(SUMMARY_FIELDS) + "\n")
            # only snapshots between t = 0 and t_end overlap their formatting with the
            # steps; for the two end snapshots alone, a fork costs more than it saves
            if scenario.output_every_steps > 0 or scenario.output_snapshots >= 2:
                self.snapshots.flush()  # else the writer would inherit the header, unwritten
                r, self.pipe = os.pipe()
                self.writer = start(lambda: self._drain(r), "snapshot writer")
                os.close(r)
                if self.writer is None:  # the snapshots are formatted in-process
                    os.close(self.pipe)
                else:
                    self.snapshots.close()
            self._files = files.pop_all()

    def _drain(self, r: int) -> None:
        """Write the snapshots sent through the pipe until it closes; runs in the writer."""
        os.close(self.pipe)
        with open(r, "rb") as pipe, self.snapshots:
            while True:
                try:
                    t, block = pickle.load(pipe)
                except EOFError:
                    return
                _write_snapshot(self.snapshots, t, block, self.x_texts)

    def _stop_writer(self) -> None:
        """Close the pipe to the writer and reap it; raises what it raised."""
        writer, self.writer = self.writer, None
        if writer is not None:
            os.close(self.pipe)
            writer.result()

    def send(self, t: float, block: np.ndarray) -> None:
        """Hand a snapshot to the writer process, all of it in one os.write if it can."""
        view = memoryview(pickle.dumps((t, block), pickle.HIGHEST_PROTOCOL))
        try:
            while view:
                view = view[os.write(self.pipe, view):]
        except BrokenPipeError:
            self._stop_writer()  # raises the writer's own reason
            raise

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        try:
            self._stop_writer()
        except Exception:
            if exc_type is None:  # else the exception already on its way is the one to report
                raise
        finally:
            self._files.close()

    def record(self, state: StateRecord) -> None:
        _write_outputs(self, state)
        self.last = state.summary

    def finish(self, failure):
        self._stop_writer()
        return self.last, failure


def _write_snapshot(out, t: float, block: np.ndarray, x_texts: list) -> None:
    """Write a snapshot's rows (t, x, primitive state, energy density) to the file out.

    The formatter of both transports, in-process and in the writer process.
    The block is converted a chunk at a time, so no more than CSV_CHUNK_ROWS
    rows of strings are held at once.
    """
    t_text = _fmt(t) + ","
    for start in range(0, len(block), CSV_CHUNK_ROWS):
        out.writelines(
            t_text + x_text + ",".join(map(repr, values)) + "\n"
            for x_text, values in zip(x_texts[start:start + CSV_CHUNK_ROWS],
                                      block[start:start + CSV_CHUNK_ROWS].tolist()))


def _write_outputs(out: _CsvSink, state: StateRecord) -> None:
    """Append a state's summary row and, for a snapshot, its rows, as shortest round-trip floats.

    A snapshot's rows are its validated primitives W and energy density e.
    They go to the writer process if there is one, else are formatted here.
    """
    out.summary.write(",".join(map(repr, state.summary)) + "\n")
    if state.U is not None:
        block = np.column_stack([state.W, state.e])
        if out.writer is None:
            _write_snapshot(out.snapshots, state.t, block, out.x_texts)
        else:
            out.send(state.t, block)


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
    path = cfg["output.path"]
    try:
        sink = _CsvSink(scenario, path)
    except OSError as err:
        print(f"error: output.path {path!r} cannot be written: {err}", file=sys.stderr)
        return EXIT_FAIL

    # an overflowing run ends in a recorded failure, reported below; numpy's
    # floating-point warnings on the way there would only repeat it
    try:
        with sink, np.errstate(all="ignore"):
            final, failure = run(scenario, sink)
    except OSError as err:
        print(f"error: writing output.path {path!r} failed: {err}; partial output written "
              f"to {path}", file=sys.stderr)
        return EXIT_RUNTIME
    except RuntimeError as err:  # a lost writer process
        print(f"error: {err}; partial output written to {path}", file=sys.stderr)
        return EXIT_RUNTIME
    if failure:  # reported first: a failed stdout below must not hide it
        print(f"error: run failed ({failure}); partial output written to {path}",
              file=sys.stderr)
    try:
        print(" ".join(f"{name}={_fmt(value)}" for name, value in zip(SUMMARY_FIELDS, final)))
        if scenario.params.variant is Variant.SWME:
            print("note: energy columns use the linearized-closure energy pair; for the "
                  "full closure they are monitored, not certified")
        sys.stdout.flush()
    except _StdoutError as err:
        files = "partial output written to" if failure else "the output files are complete in"
        raise _StdoutError(f"{err}; {files} {path}") from err.__cause__
    return EXIT_RUNTIME if failure else EXIT_OK


def cmd_converge(args) -> int:
    try:
        cfg = load_config(args.config)
        scenario = build_scenario(cfg)
    except (OSError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL
    try:
        meshes = [int(tok) for tok in args.meshes.split(",") if tok.strip() != ""]
    except ValueError:
        print(f"error: --meshes must be comma-separated integers, got {args.meshes!r}",
              file=sys.stderr)
        return EXIT_FAIL
    try:
        rows = convergence_study(scenario, meshes)
    except ParameterError as err:  # grid.cells was valid, so a cell count came from --meshes
        source = ("--meshes" if err.field in ("cells", "meshes")
                  else f"key '{config_key(err.field)}'")
        print(f"error: {source}: {err}", file=sys.stderr)
        return EXIT_FAIL
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
    p_coeffs.add_argument("--N", type=int, required=True, help=f"moment order (1..{N_MAX})")
    p_coeffs.add_argument("--variant", choices=["swlme", "swme"], default="swlme")
    p_coeffs.set_defaults(fn=cmd_coeffs)

    p_check = sub.add_parser("check", help="run the energy identity and gradient suites")
    p_check.add_argument("--N", default="0,1,2,3,5",
                         help=f"comma-separated distinct moment orders, each in 0..{N_MAX}")
    p_check.add_argument("--samples", type=int, default=100000)
    p_check.add_argument("--seed", type=int, default=None,
                         help="RNG seed >= 0 (default: SWLME_SEED env var or 0)")
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
    _keep_heap_slack()
    stdout, sys.stdout = sys.stdout, _Stdout(sys.stdout)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a failed write of the last lines shows here, not at exit
        return code
    except _StdoutError as err:
        sys.stdout = stdout
        _discard_stdout()
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        sys.stdout = stdout


if __name__ == "__main__":
    sys.exit(main())
